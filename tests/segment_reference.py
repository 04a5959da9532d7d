"""The JSON-lines segment of manifest format 5, kept as an oracle.

Format 5 wrote each table to its own ``seg-*.jsonl``: one JSON array per
row, a CRC-32 over the file's bytes, read back by one ``json.loads`` of
the lines joined into an array.  ``test_storage_segment.py`` holds the
typed column blocks of format 6 to it: a block must decode to the rows
this pair writes and reads, through the same :meth:`Table.load_rows`.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from repro.errors import RecoveryError

_ROW_ENCODER = json.JSONEncoder(separators=(",", ":"))  # one for every row


def write_segment(path: Path, table) -> tuple[int, int]:
    """Write one table's rows; returns (crc32-of-bytes, row count)."""
    crc = 0
    count = 0
    with open(path, "wb") as handle:
        for row in table.dump_rows():
            line = _ROW_ENCODER.encode(row).encode("utf-8") + b"\n"
            crc = zlib.crc32(line, crc)
            handle.write(line)
            count += 1
        handle.flush()
        os.fsync(handle.fileno())
    return crc, count


def read_segment(path: Path, expected_crc: int) -> list[list]:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise RecoveryError(f"missing snapshot segment {path}: {exc}") from exc
    if zlib.crc32(data) != expected_crc:
        raise RecoveryError(f"snapshot segment {path} failed its CRC check")
    # One decode: the lines joined into one array, a row per line still.
    try:
        rows = json.loads(b"[" + data.rstrip(b"\n").replace(b"\n", b",\n") + b"]")
    except ValueError as exc:
        raise RecoveryError(f"snapshot segment {path} is malformed: {exc}") from exc
    if set(map(type, rows)) - {list}:
        number = next(n for n, row in enumerate(rows, 1) if type(row) is not list)
        raise RecoveryError(f"snapshot segment {path}, row {number}: not an array")
    return rows
