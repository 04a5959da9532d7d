"""Snapshot restore: what a malformed segment must raise.

Restore decodes each table's block of typed columns from ``segments.bin``
and loads its rows in bulk (:meth:`Table.load_rows`).  A block whose CRC
matches but whose contents do not fit its table is corruption all the
same: opening the store raises :class:`RecoveryError` naming the snapshot
and the table, never a decoder's own ``IndexError``, ``struct.error``,
``ValueError`` or ``MemoryError``.  (That a well-formed restore equals the
live session is ``test_persist_membership.TestRestoreEquivalence``.)
"""

import json
import random
import re
import shutil
import struct
import zlib

import pytest

from repro.errors import RecoveryError
from repro.persist import Store
from repro.storage.types import DataType, decode_column

from test_persist_membership import manifest_of


SCHEMA = [("k", "int"), ("name", "text"), ("score", "decimal")]
HEAD = struct.Struct("<QI")  # a block's row and column counts
INT = DataType.INTEGER


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """A checkpointed store whose snapshot holds table ``t``'s block (every
    column type, NULLs in all but the NOT NULL ``k``) beside a CVD's."""
    path = tmp_path_factory.mktemp("template") / "s"
    store = Store.open(path, checkpoint_interval=0)
    store.orpheus.init(
        "c", SCHEMA, rows=[(k, f"n{k}", k / 2) for k in range(5)], primary_key=("k",)
    )
    store.orpheus.run(
        "CREATE TABLE t "
        "(k int NOT NULL, name text, score decimal, ok boolean, tags int[])"
    )
    store.orpheus.run(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?), (2, NULL, NULL, NULL, NULL), "
        "(?, ?, ?, ?, ?), (?, ?, ?, ?, ?)",
        [1, "a\x00é", -0.0, True, [1, 2**40]]
        + [-300, "", 1e300, False, []]
        + [2**70, "\ud800x", float("nan"), True, [-(2**70)]],
    )
    store.checkpoint()
    store.close()
    return path


def table_t(path):
    """The snapshot directory, its manifest and table ``t``'s entry."""
    (snapshot,) = (path / "snapshots").iterdir()
    manifest = json.loads((snapshot / "manifest.json").read_text())
    (entry,) = [e for e in manifest["tables"] if e["name"] == "t"]
    return snapshot, manifest, entry


def rewrite_block(template, tmp_path, edit, resign=True):
    """A copy of the template store with ``t``'s block replaced by
    ``edit(block)``; later blocks shift, and the manifest's byte count and
    (with ``resign``) CRC follow, so only the contents can betray it."""
    path = tmp_path / "s"
    shutil.copytree(template, path)
    snapshot, manifest, entry = table_t(path)
    data = (snapshot / entry["file"]).read_bytes()
    start, end = entry["offset"], entry["offset"] + entry["bytes"]
    block = edit(bytearray(data[start:end]))
    for other in manifest["tables"]:
        if other["file"] is not None and other["offset"] > start:
            other["offset"] += len(block) - entry["bytes"]
    entry["bytes"] = len(block)
    if resign:
        entry["crc"] = zlib.crc32(block)
    (snapshot / entry["file"]).write_bytes(data[:start] + block + data[end:])
    (snapshot / "manifest.json").write_text(json.dumps(manifest))
    return path


def open_or_recovery_error(path, mode) -> str | None:
    """Open the store; a failure must be a RecoveryError naming ``t``."""
    try:
        Store.open(path, mode=mode).close()
    except RecoveryError as exc:
        assert re.search(r"snapshot \S+snap-\d+ table t: ", str(exc)), exc
        return str(exc)
    return None


def _set(position, value: bytes):
    def edit(block):
        block[position : position + len(value)] = value
        return block

    return edit


def _null_in_k(block):  # flag 1 and a mask marking row 2 NULL
    at = HEAD.size
    return block[:at] + b"\x01\x00\x01\x00\x00" + block[at + 1 :]


def _text(offset: int, value: bytes):
    """Write ``value`` at ``offset`` into the TEXT column ``name``."""

    def edit(block):
        rows = HEAD.unpack_from(block)[0]
        # The TEXT column starts where the INTEGER column k ends.
        _k, name = decode_column(memoryview(bytes(block)), HEAD.size, rows, INT)
        block[name + offset : name + offset + len(value)] = value
        return block

    return edit


# The TEXT column: NULL flag, 4 mask bytes, tag "s", then its 4 character
# lengths as typecode "b"; the u64 byte count and the blob follow.
COUNT_AT = 1 + 4 + 1 + 1 + 4

CASES = {
    "trailing_bytes": (lambda block: block + b"\x00", "past its last column"),
    "bad_typecode": (_set(HEAD.size + 1, b"z"), "bad typecode 'z'"),
    "row_count": (_set(0, struct.pack("<Q", 5)), "holds 5 rows of 5 columns, not 4"),
    "width": (_set(8, struct.pack("<I", 4)), "holds 4 rows of 4 columns, not 4 of 5"),
    "null_flag": (_set(HEAD.size, b"\x02"), "bad NULL flag 2"),
    "null_in_not_null": (_null_in_k, "null value in NOT NULL column 'k'"),
    "invalid_utf8": (_text(COUNT_AT + 8, b"\xff"), "TEXT is not UTF-8"),
    "byte_count_overruns": (
        _text(COUNT_AT, struct.pack("<Q", 2**63)),
        "column wants 9223372036854775808 bytes",
    ),
    "char_length_overruns": (_text(COUNT_AT - 1, b"\x7f"), "do not tile 5 values"),
}


class TestMalformedSegment:
    """Each edit but the last is re-signed, so the decoder itself must
    catch it, on read-write and read-only opens alike."""

    @pytest.mark.parametrize("mode", ["rw", "ro"])
    @pytest.mark.parametrize("case", CASES)
    def test_open_raises_recovery_error_naming_the_table(
        self, template, tmp_path, mode, case
    ):
        edit, detail = CASES[case]
        path = rewrite_block(template, tmp_path, edit)
        assert detail in (open_or_recovery_error(path, mode) or "opened")

    @pytest.mark.parametrize("mode", ["rw", "ro"])
    def test_every_truncation_is_refused(self, template, tmp_path, mode):
        control = rewrite_block(template, tmp_path / "control", lambda block: block)
        assert open_or_recovery_error(control, mode) is None
        for cut in range(table_t(template)[2]["bytes"]):
            path = rewrite_block(template, tmp_path / str(cut), lambda b: b[:cut])
            assert open_or_recovery_error(path, mode), cut

    @pytest.mark.parametrize("mode", ["rw", "ro"])
    def test_single_byte_flips_open_or_raise_recovery_error(
        self, template, tmp_path, mode
    ):
        rng = random.Random(45)
        size = table_t(template)[2]["bytes"]
        outcomes = set()
        for trial in range(80):
            position, flip = rng.randrange(size), rng.randrange(1, 256)

            def edit(block):
                block[position] ^= flip
                return block

            path = rewrite_block(template, tmp_path / str(trial), edit)
            outcomes.add(open_or_recovery_error(path, mode) is None)
        assert outcomes == {True, False}  # some flips open, some are refused

    @pytest.mark.parametrize("mode", ["rw", "ro"])
    def test_an_unsigned_edit_fails_the_crc(self, template, tmp_path, mode):
        path = rewrite_block(template, tmp_path, _set(0, b"\x05"), resign=False)
        assert "failed its CRC check" in open_or_recovery_error(path, mode)


def tamper_manifest(tmp_path, edit) -> None:
    """Checkpoint a partitioned CVD ``c``, then let ``edit`` change the
    written manifest in place (its segments stay as they are)."""
    store = Store.open(tmp_path / "s", checkpoint_interval=0)
    orpheus = store.orpheus
    orpheus.init(
        "c", SCHEMA, rows=[(k, f"n{k}", k / 2) for k in range(5)], primary_key=("k",)
    )
    orpheus.checkout("c", 1, table_name="w")
    orpheus.run("DELETE FROM w WHERE k = 0")
    orpheus.commit("w")
    orpheus.optimize("c")
    store.checkpoint()
    manifest = manifest_of(store)
    path = store.path / "snapshots" / store.current_snapshot_name() / "manifest.json"
    store.close()
    (block,) = manifest["orpheus"]["cvds"]
    edit(manifest, block)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _set_membership(vid, value):
    def edit(_manifest, block):
        block["membership"][vid - 1][1] = value

    return edit


def _set_num_records(_manifest, block):
    block["versions"][1]["num_records"] += 1


def _drop_membership(_manifest, block):
    del block["membership"][0]


def _drop_derived_entry(manifest, _block):
    manifest["tables"] = [e for e in manifest["tables"] if e["file"] is not None]


def _underive_table(manifest, _block):
    manifest["tables"].append(dict(manifest["tables"][-1], name="x__versions"))


class TestTamperedMembership:
    """Each version's bitmap is checked against the record count its
    version block states; a table written without a segment must be one
    the CVDs derive.  A failure is a RecoveryError naming what broke."""

    @pytest.mark.parametrize("mode", ["rw", "ro"])
    @pytest.mark.parametrize(
        "edit, detail",
        [
            (_set_membership(2, "not base64!"), "c version 2: bad membership"),
            (_set_membership(1, "AQ="), "c version 1: bad membership"),
            (_set_membership(1, [0, 1, 2, 3, 4]), "c version 1: bad membership"),
            (_set_membership(2, "Hw=="), "c version 2: its bitmap holds 5"),
            (_set_num_records, "c version 2: its bitmap holds 4 records, not 5"),
            (_drop_membership, "CVD c: membership covers versions [2]"),
            (_drop_derived_entry, "c derives table c__p0_versions"),
            (_underive_table, "no CVD derives tables ['x__versions']"),
        ],
        ids=[
            "bad_base64",
            "bad_padding",
            "int_list",
            "popcount",
            "num_records",
            "missing_version",
            "derived_entry_dropped",
            "stray_null_file",
        ],
    )
    def test_open_raises_recovery_error(self, tmp_path, mode, edit, detail):
        tamper_manifest(tmp_path, edit)
        with pytest.raises(RecoveryError, match=re.escape(detail)):
            Store.open(tmp_path / "s", mode=mode)
