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
