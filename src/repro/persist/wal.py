"""Write-ahead log: CRC-framed, fsync'd, append-only logical records.

Frame layout (little-endian), one frame per logical record::

    magic   4 bytes   b"OWL1"
    lsn     8 bytes   unsigned log sequence number, strictly increasing
    length  4 bytes   payload byte count
    crc     4 bytes   CRC-32 of lsn + length + payload (header corruption
                      of the lsn would otherwise silently skew replay's
                      snapshot-lsn filtering)
    payload           UTF-8 JSON object

The payload is a record's small fields as JSON.  Rows travel as base64
blocks of typed columns (:func:`~repro.storage.types.encode_block`, the
codec of the snapshot's ``segments.bin``): an ``init`` record's root rows
under ``rows``; a ``commit`` record's new records under ``new_records``,
numbered from ``first_rid``, and the rids it drops as one INTEGER column
under ``drop``.

An operation encodes its record in its prepare step
(:func:`encode_record`, the write path's one refusal), so a record JSON
cannot carry or one too large to frame is refused before anything applies.
Append writes one frame and fsyncs before returning — that is the
durability point of every journaled operation — and only that write or
fsync can fail after the operation applied.  Reads stop at the first torn
or corrupt frame (a crash mid-append leaves a partial tail, which is
expected and harmless): everything before it is the recovered log.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

from repro.errors import PersistenceError
from repro.obs import metrics
from repro.persist.fsutil import fsync_dir as _fsync_dir
from repro.persist.injection import crash_point
from repro.record import FrozenRecord

# Pid-aware handles: a pre-fork serve worker charges its own registry.
_APPENDS = metrics.counter("persist.wal.appends")
_BYTES_WRITTEN = metrics.counter("persist.wal.bytes_written")
_FSYNCS = metrics.counter("persist.wal.fsyncs")

MAGIC = b"OWL1"
_HEADER = struct.Struct("<4sQII")  # magic, lsn, length, crc
_META = struct.Struct("<QI")  # lsn, length — the header bytes the CRC covers
#: Upper bound on one record's payload; a guard against reading garbage
#: lengths from a corrupt header, not a practical limit (1 GiB).
MAX_PAYLOAD = 1 << 30
#: Room an encoded record keeps under MAX_PAYLOAD for the numbers its
#: operation adds as it applies (a commit's maintenance sample, a timing).
APPLIED_ROOM = 1 << 10


class WalRecord(FrozenRecord):
    """One recovered log record."""

    __slots__ = _fields = ("lsn", "payload")

    def __init__(self, lsn: int, payload: dict):
        self.lsn, self.payload = lsn, payload


def _frame_crc(lsn: int, body: bytes) -> int:
    return zlib.crc32(body, zlib.crc32(_META.pack(lsn, len(body))))


def encode_record(payload: dict) -> bytes:
    """One record's frame payload, built before its operation applies.

    Refuses (:class:`PersistenceError`) a value JSON cannot carry, and a
    payload that leaves less than ``APPLIED_ROOM`` bytes under
    ``MAX_PAYLOAD``: the reader treats larger frames as corruption, so
    recovery would truncate them (and everything after).
    """
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise PersistenceError(f"WAL record is not JSON-serializable: {exc}") from exc
    if len(body) > MAX_PAYLOAD - APPLIED_ROOM:
        raise PersistenceError(
            f"WAL record of {len(body)} bytes exceeds the "
            f"{MAX_PAYLOAD - APPLIED_ROOM}-byte frame limit; checkpoint "
            f"instead of journaling bulk loads this large"
        )
    return body


def encode_frame(lsn: int, body: bytes) -> bytes:
    """One record's on-disk frame around its :func:`encode_record` bytes."""
    return _HEADER.pack(MAGIC, lsn, len(body), _frame_crc(lsn, body)) + body


class WriteAheadLog:
    """Append-only log file with CRC framing and torn-tail recovery."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = None

    # ---------------------------------------------------------------- write

    def _open_for_append(self):
        if self._handle is None or self._handle.closed:
            created = not self.path.exists()
            self._handle = open(self.path, "ab")
            if created:
                # Make the new file's directory entry durable too —
                # fsyncing only the data leaves a fresh log vanishable.
                _fsync_dir(self.path.parent)
        return self._handle

    def append(self, lsn: int, body: bytes) -> int:
        """Write one frame and fsync; returns the frame's byte length."""
        frame = encode_frame(lsn, body)
        crash_point("wal.before_append")
        handle = self._open_for_append()
        handle.write(frame)
        handle.flush()
        os.fsync(handle.fileno())
        crash_point("wal.after_append")
        _APPENDS.inc()
        _BYTES_WRITTEN.inc(len(frame))
        _FSYNCS.inc()
        return len(frame)

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def handle_fork(self) -> None:
        """Close the append handle inherited across ``os.fork()``.

        The handle shares its open file description — and therefore its
        file offset — with the parent; appending through it from the
        child would interleave frames into the parent's log.  Closing
        the child's fd copy never disturbs the parent's: the description
        stays open (and any flock on it stays held) as long as the
        parent's own fd does.  ``append()`` flushes before returning, so
        at any controlled fork point the buffer is empty and closing
        writes nothing.  The next child-side append (if the child is
        ever a writer) reopens a private handle lazily.
        """
        self.close()

    # ----------------------------------------------------------------- read

    def records_from(self, start: int) -> Iterator[tuple[int, WalRecord]]:
        """(offset past the frame, record) pairs starting at byte ``start``.

        CRC-validates every frame and stops at the first torn or corrupt
        one.  The incremental-refresh kernel: a reader that remembers the
        offset past its last applied frame resumes there instead of
        re-decoding the whole log.  ``start`` must be a frame boundary
        observed on this log file; if the file was replaced underneath
        (shrunk, or the bytes at ``start`` no longer frame-align) the scan
        CRC-fails immediately and yields nothing — callers detect
        staleness through the lsn bookkeeping, never through garbage
        records.
        """
        if not self.path.exists():
            return
        offset = start
        with open(self.path, "rb") as handle:
            if start:
                handle.seek(start)
            while True:
                header = handle.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return  # clean EOF or torn header
                magic, lsn, length, crc = _HEADER.unpack(header)
                if magic != MAGIC or length > MAX_PAYLOAD:
                    return
                body = handle.read(length)
                if len(body) < length or _frame_crc(lsn, body) != crc:
                    return  # torn or corrupt header/payload
                try:
                    payload = json.loads(body.decode("utf-8"))
                except ValueError:
                    return
                offset += _HEADER.size + length
                yield offset, WalRecord(lsn, payload)

    def size_bytes(self) -> int:
        """Current byte length of the log file (0 when missing)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def truncate_torn_tail(self) -> int:
        """Cut any torn/corrupt tail off the log; returns bytes dropped.

        Must run before appending to a recovered log: 'ab' mode writes
        after the garbage, where no reader would ever reach the records —
        they would be acknowledged yet unrecoverable.
        """
        if not self.path.exists():
            return 0
        size, offset = self.path.stat().st_size, 0
        for offset, _record in self.records_from(0):
            pass  # to just past the last valid frame
        if offset >= size:
            return 0
        self.close()
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
        return size - offset

    # ----------------------------------------------------------- checkpoint

    def truncate_to_empty(self) -> None:
        """Atomically replace the log with an empty file without reading it.

        A checkpoint supersedes every record the store has appended, so
        nothing in the old log survives it and nothing is read.  The new
        file's inode is also what tells a follower the log was replaced
        (:meth:`~repro.persist.store.Store._change_signal`).
        """
        self.close()
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(self.path.parent)
