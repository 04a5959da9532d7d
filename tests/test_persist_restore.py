"""Snapshot restore: what a malformed segment must raise.

Restore decodes each segment in one pass and loads its rows in bulk
(:meth:`Table.load_rows`).  A segment whose CRC matches but whose contents
do not fit its table is corruption all the same: opening the store raises
:class:`RecoveryError` naming the file.  (That a well-formed restore equals
the live session is ``test_persist_membership.TestRestoreEquivalence``.)
"""

import json
import re
import zlib

import pytest

from repro.errors import RecoveryError
from repro.persist import Store

from test_persist_membership import manifest_of


SCHEMA = [("k", "int"), ("name", "text"), ("score", "decimal")]


def corrupt_data_segment(tmp_path, line: bytes) -> str:
    """Append ``line`` to the CVD's data segment and re-sign its CRC, so
    only the contents can betray it; returns the segment's file name."""
    store = Store.open(tmp_path / "s", checkpoint_interval=0)
    store.orpheus.init(
        "c", SCHEMA, rows=[(k, f"n{k}", k / 2) for k in range(5)], primary_key=("k",)
    )
    store.checkpoint()
    manifest = manifest_of(store)
    snapshot = store.path / "snapshots" / store.current_snapshot_name()
    store.close()
    (entry,) = [
        entry
        for entry in manifest["tables"]
        if ["score", "decimal", False] in entry["schema"]["columns"]
    ]
    segment = snapshot / entry["file"]
    data = segment.read_bytes() + line + b"\n"
    segment.write_bytes(data)
    entry["crc"] = zlib.crc32(data)
    (snapshot / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return entry["file"]


class TestMalformedSegment:
    @pytest.mark.parametrize("mode", ["rw", "ro"])
    @pytest.mark.parametrize(
        "line, detail",
        [
            (b'[1,2,"x"', "line 6"),  # unterminated array
            (b"7", "row 6: not an array"),
            (b"[9,2]", "row has 2 values"),  # wrong width
            (b'[9,9,"n9","not a number"]', "to decimal"),  # bad DECIMAL
        ],
    )
    def test_open_raises_recovery_error_naming_the_segment(
        self, tmp_path, mode, line, detail
    ):
        name = corrupt_data_segment(tmp_path, line)
        with pytest.raises(RecoveryError, match=re.escape(name)) as info:
            Store.open(tmp_path / "s", mode=mode)
        assert detail in str(info.value)


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
