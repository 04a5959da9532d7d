"""WAL records carry rows in the snapshot's codec, encoded before apply.

A journaled operation encodes its record in its prepare step, so a record
the journal refuses leaves nothing applied, and a value a table holds is a
value its record carries: ``init`` rows and a commit's new records travel
as base64 blocks of typed columns (:func:`repro.storage.types.encode_block`),
the codec of the snapshot's ``segments.bin``.  These tests hold:

* a commit and an init of ``10**5000`` (past JSON's integer limit) succeed
  and survive a reopen and a follower's refresh;
* a ``run`` whose parameter JSON cannot carry raises before it applies: the
  WAL is unchanged and the reopened state is the state before the call;
* a failed write or fsync after apply leaves the operation applied in
  memory only, like a lost ack: a crash loses it, and the next journaled
  operation's barrier checkpoint makes it durable;
* a CRC-valid commit frame whose blocks are malformed (every truncation,
  bad tags, overrunning counts and lengths, NULL flag 2, a NULL in a NOT
  NULL column, invalid UTF-8, seeded byte flips), each re-signed, opens
  and refreshes cleanly or raises a RecoveryError naming the version;
* a CVD needs a data column: ``init`` of none is refused before apply,
  and an ``init`` frame whose zero-width block claims 2**40 rows is a
  RecoveryError, with nothing large allocated first.
"""

import base64
import random
import shutil
import struct
import tracemalloc

import pytest

from repro.errors import PersistenceError, RecoveryError, VersioningError
from repro.persist import Store
from repro.persist.wal import WriteAheadLog, encode_frame, encode_record
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType, decode_column

from test_persist_crash import crash

HUGE = 10**5000
SCHEMA = [("k", "int"), ("v", "int")]


def holds_huge(orpheus, vid: int) -> bool:
    # Never let an assertion print HUGE: repr refuses ints past 4 300 digits.
    return any(row[2] == HUGE for row in orpheus.checkout_rows("c", vid))


# ------------------------------------------------------- values past JSON


def test_a_commit_of_a_huge_int_is_durable(tmp_path):
    store = Store.open(tmp_path / "s", checkpoint_interval=0)
    orpheus = store.orpheus
    orpheus.init("c", SCHEMA, rows=[(1, 1)])
    follower = Store.open(tmp_path / "s", mode="ro")
    orpheus.checkout("c", 1, table_name="w")
    orpheus.run("INSERT INTO w (k, v) VALUES (?, ?)", [2, HUGE])
    assert orpheus.commit("w") == 2
    assert follower.refresh().applied == 1
    assert holds_huge(follower.orpheus, 2)
    follower.close()
    crash(store)
    with Store.open(tmp_path / "s", checkpoint_interval=0) as reopened:
        assert holds_huge(reopened.orpheus, 2)


def test_an_init_of_a_huge_int_is_durable(tmp_path):
    store = Store.open(tmp_path / "s", checkpoint_interval=0)
    store.orpheus.create_user("ana")
    follower = Store.open(tmp_path / "s", mode="ro")
    store.orpheus.init("c", SCHEMA, rows=[(1, HUGE), (2, -HUGE)])
    assert follower.refresh().applied == 1
    assert holds_huge(follower.orpheus, 1)
    follower.close()
    crash(store)
    with Store.open(tmp_path / "s", checkpoint_interval=0) as reopened:
        assert holds_huge(reopened.orpheus, 1)


def test_a_run_whose_param_json_cannot_carry_raises_before_apply(tmp_path):
    store = Store.open(tmp_path / "s", checkpoint_interval=0)
    orpheus = store.orpheus
    orpheus.run("CREATE TABLE t (v int)")
    orpheus.run("INSERT INTO t VALUES (1)")
    wal = store.wal.path.read_bytes()
    with pytest.raises(PersistenceError, match="not JSON-serializable"):
        orpheus.run("INSERT INTO t VALUES (?)", [HUGE])
    assert orpheus.run("SELECT v FROM t").rows == [(1,)]
    assert store.wal.path.read_bytes() == wal
    store.close()
    with Store.open(tmp_path / "s", checkpoint_interval=0) as reopened:
        assert reopened.orpheus.run("SELECT v FROM t").rows == [(1,)]


# ------------------------------------------------- a failure during append


def test_a_failed_append_is_applied_and_durable_at_the_next_barrier(
    tmp_path, monkeypatch
):
    store = Store.open(tmp_path / "s", checkpoint_interval=0)
    orpheus = store.orpheus
    orpheus.init("c", SCHEMA, rows=[(1, 1)])
    orpheus.checkout("c", 1, table_name="w")
    orpheus.run("UPDATE w SET v = 2")

    def disk_full(_lsn, _body):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(store.wal, "append", disk_full)
        with pytest.raises(OSError, match="disk full"):
            orpheus.commit("w")
    # Applied in memory, in no log: a crash now loses it, like a lost ack.
    assert orpheus.cvd("c").graph.version_ids() == [1, 2]
    shutil.copytree(tmp_path / "s", tmp_path / "crashed")
    with Store.open(tmp_path / "crashed", checkpoint_interval=0) as lost:
        assert lost.orpheus.cvd("c").graph.version_ids() == [1]
    # The next journaled operation carries a barrier; its checkpoint
    # writes the commit too.
    orpheus.create_user("ana")
    assert store.wal_size_bytes() == 0
    crash(store)
    with Store.open(tmp_path / "s", checkpoint_interval=0) as reopened:
        assert reopened.orpheus.cvd("c").graph.version_ids() == [1, 2]
        assert reopened.orpheus.checkout_rows("c", 2) == [(2, 1, 2)]
        assert "ana" in reopened.orpheus.access._users


# --------------------------------------------- malformed commit frames

WIDE = TableSchema(
    [
        Column("k", DataType.INTEGER, not_null=True),
        Column("name", DataType.TEXT),
        Column("score", DataType.DECIMAL),
        Column("ok", DataType.BOOLEAN),
        Column("tags", DataType.INT_ARRAY),
    ],
    ("k",),
)
HEAD = struct.Struct("<QI")  # a block's row and column counts
ROWS = 3  # the commit's new records


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """A store whose WAL holds one commit of version 2 of ``c``: it drops
    two records and adds three (every column type, NULLs in all but the
    NOT NULL ``k``)."""
    path = tmp_path_factory.mktemp("template") / "s"
    store = Store.open(path, checkpoint_interval=0)
    orpheus = store.orpheus
    rows = [(k, f"n{k}", k / 2, k % 2 == 0, [k]) for k in range(5)]
    orpheus.init("c", WIDE, rows=rows)
    store.checkpoint()
    orpheus.checkout("c", 1, table_name="w")
    orpheus.run("DELETE FROM w WHERE k < 2")
    orpheus.run(
        "INSERT INTO w (k, name, score, ok, tags) VALUES (?, ?, ?, ?, ?), "
        "(101, NULL, NULL, NULL, NULL), (?, ?, ?, ?, ?)",
        [100, "a\x00é", -0.0, True, [1, 2**40]]
        + [2**70, "\ud800x", float("nan"), False, [-(2**70)]],
    )
    assert orpheus.commit("w") == 2
    crash(store)
    return path


def commit_frame(path):
    """The one record in the store's WAL: the commit of version 2."""
    ((_end, record),) = WriteAheadLog(path / "wal.log").records_from(0)
    return record


def rewrite(template, path, field: str, edit):
    """A copy of the template store whose commit frame has ``field``'s block
    replaced by ``edit(block)``, the frame re-signed with a fresh CRC."""
    shutil.copytree(template, path)
    record = commit_frame(path)
    block = edit(bytearray(base64.b64decode(record.payload[field])))
    payload = dict(record.payload, **{field: base64.b64encode(block).decode()})
    (path / "wal.log").write_bytes(encode_frame(record.lsn, encode_record(payload)))
    return path


def outcome(path, mode: str) -> str | None:
    """Open the store (or, for ``refresh``, follow it from before the frame
    landed); a failure must be a RecoveryError naming version 2."""
    try:
        if mode == "refresh":
            frame = (path / "wal.log").read_bytes()
            (path / "wal.log").write_bytes(b"")
            follower = Store.open(path, mode="ro")
            try:
                with open(path / "wal.log", "ab") as handle:
                    handle.write(frame)
                follower.refresh(force=True)
            finally:
                follower.close()
        else:
            Store.open(path, checkpoint_interval=0, mode=mode).close(sync=False)
    except RecoveryError as exc:
        assert "version 2" in str(exc), exc
        return str(exc)
    return None


def _set(position, value: bytes):
    def edit(block):
        block[position : position + len(value)] = value
        return block

    return edit


def _null_in_k(block):  # flag 1 and a mask marking the second row NULL
    at = HEAD.size
    return block[:at] + b"\x01\x00\x01\x00" + block[at + 1 :]


def _text(offset: int, value: bytes):
    """Write ``value`` at ``offset`` into the TEXT column ``name``."""

    def edit(block):
        # The TEXT column starts where the INTEGER column k ends.
        _k, name = decode_column(
            memoryview(bytes(block)), HEAD.size, ROWS, DataType.INTEGER
        )
        block[name + offset : name + offset + len(value)] = value
        return block

    return edit


# The TEXT column: NULL flag, 3 mask bytes, tag "s", then its 3 character
# lengths as typecode "b"; the u64 byte count and the blob follow.
COUNT_AT = 1 + 3 + 1 + 1 + 3

CASES = {
    "trailing_bytes": ("new_records", lambda b: b + b"\x00", "past its last column"),
    "bad_typecode": ("new_records", _set(HEAD.size + 1, b"z"), "bad typecode 'z'"),
    "row_count": ("new_records", _set(0, struct.pack("<Q", 4)), "column wants"),
    "width": ("new_records", _set(8, struct.pack("<I", 4)), "holds 4 columns, not 5"),
    "null_flag": ("new_records", _set(HEAD.size, b"\x02"), "bad NULL flag 2"),
    "null_in_not_null": ("new_records", _null_in_k, "NOT NULL column 'k'"),
    "invalid_utf8": ("new_records", _text(COUNT_AT + 8, b"\xff"), "not UTF-8"),
    "byte_count_overruns": (
        "new_records",
        _text(COUNT_AT, struct.pack("<Q", 2**63)),
        "column wants 9223372036854775808 bytes",
    ),
    "char_length_overruns": (
        "new_records",
        _text(COUNT_AT - 1, b"\x7f"),
        "do not tile",
    ),
    "drop_bad_typecode": ("drop", _set(HEAD.size + 1, b"d"), "bad typecode 'd'"),
    "drop_null": ("drop", lambda b: b[:12] + b"\x01\x01\x00" + b[13:], "[None]"),
    "drop_count_overruns": ("drop", _set(0, struct.pack("<Q", 2**40)), "column wants"),
}
MODES = ["rw", "ro", "refresh"]
FIELDS = ["new_records", "drop"]


class TestMalformedCommitFrame:
    @pytest.mark.parametrize("mode", MODES)
    def test_the_template_replays(self, template, tmp_path, mode):
        path = rewrite(template, tmp_path / "s", "drop", lambda block: block)
        assert outcome(path, mode) is None

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", CASES)
    def test_a_malformed_block_names_the_version(self, template, tmp_path, mode, case):
        field, edit, detail = CASES[case]
        path = rewrite(template, tmp_path / "s", field, edit)
        assert detail in (outcome(path, mode) or "opened")

    @pytest.mark.parametrize("mode", ["rw", "refresh"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_every_truncation_is_refused(self, template, tmp_path, mode, field):
        size = len(base64.b64decode(commit_frame(template).payload[field]))
        for cut in range(size):
            path = rewrite(template, tmp_path / str(cut), field, lambda b: b[:cut])
            assert outcome(path, mode), cut

    @pytest.mark.parametrize("mode", ["rw", "refresh"])
    def test_seeded_byte_flips_open_or_name_the_version(self, template, tmp_path, mode):
        rng = random.Random(47)
        payload = commit_frame(template).payload
        sizes = {field: len(base64.b64decode(payload[field])) for field in FIELDS}
        outcomes = set()
        for trial in range(80):
            field = rng.choice(FIELDS)
            position, flip = rng.randrange(sizes[field]), rng.randrange(1, 256)

            def edit(block):
                block[position] ^= flip
                return block

            path = rewrite(template, tmp_path / str(trial), field, edit)
            outcomes.add(outcome(path, mode) is None)
        assert outcomes == {True, False}  # some flips open, some are refused


# ------------------------------------------------------ zero-width blocks


def test_an_init_with_no_data_columns_is_refused_before_apply(tmp_path):
    store = Store.open(tmp_path / "s", checkpoint_interval=0)
    orpheus = store.orpheus
    with pytest.raises(VersioningError, match="at least one data column"):
        orpheus.init("c", [], rows=[(), ()])
    assert orpheus.ls() == [] and orpheus.db.table_names() == []
    assert store.wal_size_bytes() == 0
    store.close()


def test_a_zero_width_init_block_claiming_rows_is_a_recovery_error(tmp_path):
    """A CRC-valid ``init`` frame of a CVD with no data columns whose block
    claims 2**40 rows: open refuses it before allocating anything large."""
    path = tmp_path / "s"
    store = Store.open(path, checkpoint_interval=0)
    store.orpheus.init("c", SCHEMA, rows=[(1, 1)])
    crash(store)
    ((_end, record),) = WriteAheadLog(path / "wal.log").records_from(0)
    payload = dict(
        record.payload,
        schema={"columns": [], "primary_key": []},
        rows=base64.b64encode(HEAD.pack(2**40, 0)).decode(),
    )
    (path / "wal.log").write_bytes(encode_frame(record.lsn, encode_record(payload)))
    tracemalloc.start()
    try:
        with pytest.raises(RecoveryError, match="block of no columns claims"):
            Store.open(path, checkpoint_interval=0)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
