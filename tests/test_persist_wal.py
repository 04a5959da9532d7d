"""Framing, torn-tail and truncation behaviour of the write-ahead log, and
the membership a commit record may name."""

import pytest

from repro.errors import PersistenceError, RecoveryError
from repro.persist import Store
from repro.persist.wal import (
    APPLIED_ROOM,
    MAGIC,
    WalRecord,
    WriteAheadLog,
    encode_frame,
    encode_record,
)
from repro.storage.types import DataType, pack_block


@pytest.fixture
def wal(tmp_path):
    return WriteAheadLog(tmp_path / "wal.log")


def records(wal):
    return [record for _end, record in wal.records_from(0)]


def put(wal, lsn, payload):
    wal.append(lsn, encode_record(payload))


class TestFraming:
    def test_append_read_round_trip(self, wal):
        put(wal, 1, {"op": "a", "n": 1})
        put(wal, 2, {"op": "b", "values": [1, 2.5, None, "x"]})
        wal.close()
        assert records(wal) == [
            WalRecord(1, {"op": "a", "n": 1}),
            WalRecord(2, {"op": "b", "values": [1, 2.5, None, "x"]}),
        ]

    def test_missing_file_reads_empty(self, wal):
        assert records(wal) == []

    def test_frame_starts_with_magic(self):
        frame = encode_frame(7, encode_record({"op": "x"}))
        assert frame[:4] == MAGIC

    def test_unserializable_payload_raises(self):
        with pytest.raises(PersistenceError):
            encode_record({"op": "bad", "value": object()})

    def test_oversized_payload_refused_at_write_time(self, monkeypatch):
        """The reader treats frames over MAX_PAYLOAD as corruption, so the
        writer must refuse them instead of fsync-acknowledging records
        recovery would truncate."""
        import repro.persist.wal as wal_module

        monkeypatch.setattr(wal_module, "MAX_PAYLOAD", APPLIED_ROOM + 64)
        with pytest.raises(PersistenceError, match="frame limit"):
            encode_record({"op": "big", "rows": list(range(100))})
        assert encode_record({"op": "small"})  # room for 64 bytes

    def test_lsns_read_back_in_order(self, wal):
        for lsn in (1, 2, 3):
            put(wal, lsn, {"op": "x"})
        wal.close()
        assert [r.lsn for r in records(wal)] == [1, 2, 3]


class TestTornTail:
    def test_truncated_tail_is_dropped(self, wal):
        put(wal, 1, {"op": "keep"})
        put(wal, 2, {"op": "torn"})
        wal.close()
        data = wal.path.read_bytes()
        wal.path.write_bytes(data[:-3])  # tear the last payload
        assert [r.payload["op"] for r in records(wal)] == ["keep"]

    def test_truncated_header_is_dropped(self, wal):
        put(wal, 1, {"op": "keep"})
        offset = wal.path.stat().st_size
        put(wal, 2, {"op": "torn"})
        wal.close()
        data = wal.path.read_bytes()
        wal.path.write_bytes(data[: offset + 5])  # partial header only
        assert [r.lsn for r in records(wal)] == [1]

    def test_corrupt_payload_stops_replay(self, wal):
        put(wal, 1, {"op": "keep"})
        offset = wal.path.stat().st_size
        put(wal, 2, {"op": "flipped"})
        put(wal, 3, {"op": "after"})
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
        put(wal, 1, {"op": "keep"})
        offset = wal.path.stat().st_size
        put(wal, 2, {"op": "lsn-flipped"})
        wal.close()
        data = bytearray(wal.path.read_bytes())
        data[offset + 4] ^= 0xFF  # first byte of record 2's lsn field
        wal.path.write_bytes(bytes(data))
        assert [r.lsn for r in records(wal)] == [1]

    def test_garbage_magic_stops_replay(self, wal):
        put(wal, 1, {"op": "keep"})
        wal.close()
        with open(wal.path, "ab") as handle:
            handle.write(b"\x00garbage-not-a-frame")
        assert [r.lsn for r in records(wal)] == [1]


class TestTornTailTruncation:
    def test_truncate_removes_only_the_torn_bytes(self, wal):
        put(wal, 1, {"op": "keep"})
        good_size = wal.path.stat().st_size
        put(wal, 2, {"op": "torn"})
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
        put(wal, 1, {"op": "old"})
        wal.close()
        with open(wal.path, "ab") as handle:
            handle.write(b"OWL1\x99partial-frame")  # crash mid-append
        wal.truncate_torn_tail()
        put(wal, 2, {"op": "new"})
        wal.close()
        assert [r.payload["op"] for r in records(wal)] == ["old", "new"]


class TestTruncateToEmpty:
    def test_truncate_empties_the_file(self, wal):
        put(wal, 1, {"op": "x"})
        wal.truncate_to_empty()
        assert wal.path.stat().st_size == 0
        assert records(wal) == []

    def test_append_after_truncate(self, wal):
        put(wal, 1, {"op": "x"})
        wal.truncate_to_empty()
        put(wal, 2, {"op": "y"})
        wal.close()
        assert [r.lsn for r in records(wal)] == [2]


DATA = [DataType.TEXT, DataType.INTEGER]


class TestCommitMembership:
    """A commit record is ``union(parents) - drop | new``, its new records
    numbered from ``first_rid``; a CRC-valid frame naming any other
    membership is a typed error on open and on refresh."""

    @staticmethod
    def commit_frame(drop, first_rid, rows, dtypes=DATA) -> dict:
        return {
            "op": "commit", "cvd": "p", "vid": 2, "parents": [1],
            "drop": pack_block([(rid,) for rid in drop], [DataType.INTEGER]),
            "first_rid": first_rid, "new_records": pack_block(rows, dtypes),
            "staged": "w", "staged_is_file": False, "partition": None,
            "schema": None, "message": "", "checkout_time": 1,
            "commit_time": 2, "clock": 2,
        }

    @staticmethod
    def root_store(path):
        store = Store.open(path, checkpoint_interval=0)
        store.orpheus.init(
            "p", [("k", "text"), ("v", "int")], [("a", 1), ("b", 2), ("c", 3)]
        )
        return store

    def append_and_reopen(self, tmp_path, record):
        store = self.root_store(tmp_path / "s")
        put(store.wal, store.last_lsn + 1, record)
        store.close(sync=False)
        return Store.open(tmp_path / "s", checkpoint_interval=0)

    def test_hand_built_record_replays(self, tmp_path):
        store = self.append_and_reopen(
            tmp_path, self.commit_frame([2], 4, [("b", 5)])
        )
        cvd = store.orpheus.cvd("p")
        assert sorted(cvd.membership[2]) == [1, 3, 4]
        assert store.orpheus.checkout_rows("p", 2)[-1] == (4, "b", 5)
        assert cvd._next_rid == 5
        store.close(sync=False)

    @pytest.mark.parametrize(
        "drop, first_rid, rows, match",
        [
            ([99], 4, [], "drops rids \\[99\\]"),
            ([2**40], 4, [], "drops rids \\[1099511627776\\]"),
            ([2], 2, [("b", 5)], "from 2, not the next free rid 4"),
            ([], 2**40, [("d", 6)], "from 1099511627776, not the next free rid 4"),
            ([], 5, [("d", 6)], "from 5, not the next free rid 4"),
        ],
        ids=[
            "drop-outside-parents", "drop-huge-rid", "new-reuses-member",
            "new-huge-rid", "new-skips-one",
        ],
    )
    def test_malformed_membership_refused(self, tmp_path, drop, first_rid, rows, match):
        record = self.commit_frame(drop, first_rid, rows)
        with pytest.raises(RecoveryError, match=match):
            self.append_and_reopen(tmp_path, record)
        # A follower that saw the store before the frame landed refuses it
        # on refresh too.
        writer = self.root_store(tmp_path / "f")
        reader = Store.open(tmp_path / "f", mode="ro")
        put(writer.wal, writer.last_lsn + 1, record)
        with pytest.raises(RecoveryError, match=match):
            reader.refresh(force=True)
        reader.close()
        writer.close(sync=False)

    def test_a_block_of_other_column_types_is_refused(self, tmp_path):
        record = self.commit_frame([], 4, [("d", "six")], [DataType.TEXT] * 2)
        match = "malformed commit record for version 2"
        with pytest.raises(RecoveryError, match=match):
            self.append_and_reopen(tmp_path, record)

    def test_an_older_commit_shape_names_the_release(self, tmp_path):
        record = self.commit_frame([], 4, [])
        del record["first_rid"]
        record["drop"], record["new_records"] = [], [[4, ["d", 6]]]
        with pytest.raises(RecoveryError, match="checkpoint with the release"):
            self.append_and_reopen(tmp_path, record)
