"""Framing, torn-tail, and compaction behaviour of the write-ahead log."""

import pytest

from repro.errors import PersistenceError
from repro.persist.wal import MAGIC, WalRecord, WriteAheadLog, encode_frame


@pytest.fixture
def wal(tmp_path):
    return WriteAheadLog(tmp_path / "wal.log")


def records(wal):
    return list(wal.records())


class TestFraming:
    def test_append_read_round_trip(self, wal):
        wal.append(1, {"op": "a", "n": 1})
        wal.append(2, {"op": "b", "values": [1, 2.5, None, "x"]})
        wal.close()
        assert records(wal) == [
            WalRecord(1, {"op": "a", "n": 1}),
            WalRecord(2, {"op": "b", "values": [1, 2.5, None, "x"]}),
        ]

    def test_missing_file_reads_empty(self, wal):
        assert records(wal) == []
        assert wal.last_lsn() == 0

    def test_frame_starts_with_magic(self):
        frame = encode_frame(7, {"op": "x"})
        assert frame[:4] == MAGIC

    def test_unserializable_payload_raises(self, wal):
        with pytest.raises(PersistenceError):
            wal.append(1, {"op": "bad", "value": object()})

    def test_oversized_payload_refused_at_write_time(self, wal, monkeypatch):
        """The reader treats frames over MAX_PAYLOAD as corruption, so the
        writer must refuse them instead of fsync-acknowledging records
        recovery would truncate."""
        import repro.persist.wal as wal_module

        monkeypatch.setattr(wal_module, "MAX_PAYLOAD", 64)
        with pytest.raises(PersistenceError, match="frame limit"):
            wal.append(1, {"op": "big", "rows": list(range(100))})
        assert records(wal) == []  # nothing was written

    def test_last_lsn(self, wal):
        for lsn in (1, 2, 3):
            wal.append(lsn, {"op": "x"})
        wal.close()
        assert wal.last_lsn() == 3


class TestTornTail:
    def test_truncated_tail_is_dropped(self, wal):
        wal.append(1, {"op": "keep"})
        wal.append(2, {"op": "torn"})
        wal.close()
        data = wal.path.read_bytes()
        wal.path.write_bytes(data[:-3])  # tear the last payload
        assert [r.payload["op"] for r in records(wal)] == ["keep"]

    def test_truncated_header_is_dropped(self, wal):
        wal.append(1, {"op": "keep"})
        offset = wal.path.stat().st_size
        wal.append(2, {"op": "torn"})
        wal.close()
        data = wal.path.read_bytes()
        wal.path.write_bytes(data[: offset + 5])  # partial header only
        assert [r.lsn for r in records(wal)] == [1]

    def test_corrupt_payload_stops_replay(self, wal):
        wal.append(1, {"op": "keep"})
        offset = wal.path.stat().st_size
        wal.append(2, {"op": "flipped"})
        wal.append(3, {"op": "after"})
        wal.close()
        data = bytearray(wal.path.read_bytes())
        data[offset + 25] ^= 0xFF  # flip one payload byte of record 2
        wal.path.write_bytes(bytes(data))
        # Replay stops at the corrupt frame; record 3 is unreachable, which
        # is correct — we cannot trust anything past a broken frame.
        assert [r.lsn for r in records(wal)] == [1]

    def test_corrupt_header_lsn_is_detected(self, wal):
        """The CRC covers the lsn: header bit rot must not silently shift
        a record across the snapshot-lsn replay filter."""
        wal.append(1, {"op": "keep"})
        offset = wal.path.stat().st_size
        wal.append(2, {"op": "lsn-flipped"})
        wal.close()
        data = bytearray(wal.path.read_bytes())
        data[offset + 4] ^= 0xFF  # first byte of record 2's lsn field
        wal.path.write_bytes(bytes(data))
        assert [r.lsn for r in records(wal)] == [1]

    def test_garbage_magic_stops_replay(self, wal):
        wal.append(1, {"op": "keep"})
        wal.close()
        with open(wal.path, "ab") as handle:
            handle.write(b"\x00garbage-not-a-frame")
        assert [r.lsn for r in records(wal)] == [1]


class TestTornTailTruncation:
    def test_truncate_removes_only_the_torn_bytes(self, wal):
        wal.append(1, {"op": "keep"})
        good_size = wal.path.stat().st_size
        wal.append(2, {"op": "torn"})
        wal.close()
        torn = wal.path.read_bytes()[:-3]
        wal.path.write_bytes(torn)
        dropped = wal.truncate_torn_tail()
        assert dropped == len(torn) - good_size
        assert wal.path.stat().st_size == good_size
        assert wal.truncate_torn_tail() == 0  # idempotent on a clean log

    def test_append_after_truncation_is_reachable(self, wal):
        """Appending over an untruncated torn tail would strand the new
        record behind garbage — the original data-loss bug."""
        wal.append(1, {"op": "old"})
        wal.close()
        with open(wal.path, "ab") as handle:
            handle.write(b"OWL1\x99partial-frame")  # crash mid-append
        wal.truncate_torn_tail()
        wal.append(2, {"op": "new"})
        wal.close()
        assert [r.payload["op"] for r in records(wal)] == ["old", "new"]


class TestCompaction:
    def test_compact_drops_prefix(self, wal):
        for lsn in (1, 2, 3, 4):
            wal.append(lsn, {"op": f"op{lsn}"})
        kept = wal.compact(keep_after_lsn=2)
        assert kept == 2
        assert [r.lsn for r in records(wal)] == [3, 4]

    def test_compact_all_empties_file(self, wal):
        wal.append(1, {"op": "x"})
        wal.compact(keep_after_lsn=1)
        assert wal.path.stat().st_size == 0
        assert records(wal) == []

    def test_append_after_compact(self, wal):
        wal.append(1, {"op": "x"})
        wal.compact(keep_after_lsn=1)
        wal.append(2, {"op": "y"})
        wal.close()
        assert [r.lsn for r in records(wal)] == [2]


class TestCommitMembership:
    """A commit record is ``union(parents) - drop | new``; a CRC-valid frame
    naming any other membership is a typed error on open and on refresh."""

    @staticmethod
    def commit_frame(drop, new_records) -> dict:
        return {
            "op": "commit", "cvd": "p", "vid": 2, "parents": [1],
            "drop": drop, "new_records": new_records,
            "staged": "w", "staged_is_file": False, "partition": None,
            "schema": None, "message": "", "checkout_time": 1,
            "commit_time": 2, "clock": 2,
        }

    @staticmethod
    def root_store(path):
        from repro.persist import Store

        store = Store.open(path, checkpoint_interval=0)
        store.orpheus.init(
            "p", [("k", "text"), ("v", "int")], [("a", 1), ("b", 2), ("c", 3)]
        )
        return store

    def append_and_reopen(self, tmp_path, record):
        from repro.persist import Store

        store = self.root_store(tmp_path / "s")
        store.wal.append(store.last_lsn + 1, record)
        store.close(sync=False)
        return Store.open(tmp_path / "s", checkpoint_interval=0)

    def test_hand_built_record_replays(self, tmp_path):
        store = self.append_and_reopen(
            tmp_path, self.commit_frame([2], [[4, ["b", 5]]])
        )
        cvd = store.orpheus.cvd("p")
        assert sorted(cvd.membership[2]) == [1, 3, 4]
        assert cvd._next_rid == 5
        store.close(sync=False)

    @pytest.mark.parametrize(
        "drop, new_records, match",
        [
            ([99], [], "drops rids \\[99\\]"),
            ([2**40], [], "drops rids \\[1099511627776\\]"),
            ([2], [[2, ["b", 5]]], "next free rids from 4"),
            ([2], [[4, ["b", 5]], [4, ["d", 6]]], "next free rids from 4"),
            ([], [[2**40, ["d", 6]]], "next free rids from 4"),
            ([], [[4, ["d", "six"]]], "malformed commit record"),
        ],
        ids=[
            "drop-outside-parents", "drop-huge-rid", "new-reuses-member",
            "new-twice", "new-huge-rid", "new-value-uncoercible",
        ],
    )
    def test_malformed_membership_refused(self, tmp_path, drop, new_records, match):
        from repro.errors import RecoveryError
        from repro.persist import Store

        with pytest.raises(RecoveryError, match=match):
            self.append_and_reopen(tmp_path, self.commit_frame(drop, new_records))
        # A follower that saw the store before the frame landed refuses it
        # on refresh too.
        writer = self.root_store(tmp_path / "f")
        reader = Store.open(tmp_path / "f", mode="ro")
        writer.wal.append(writer.last_lsn + 1, self.commit_frame(drop, new_records))
        with pytest.raises(RecoveryError, match=match):
            reader.refresh(force=True)
        reader.close()
        writer.close(sync=False)

    def test_ordered_member_list_names_the_old_format(self, tmp_path):
        from repro.errors import RecoveryError

        record = self.commit_frame([], [[4, ["d", 6]]])
        del record["drop"]
        record["members"] = {"full": [1, 2, 3, 4]}
        with pytest.raises(RecoveryError, match="no longer reads"):
            self.append_and_reopen(tmp_path, record)
