"""Write-ahead log: CRC-framed, fsync'd, append-only logical records.

Frame layout (little-endian), one frame per logical record::

    magic   4 bytes   b"OWL1"
    lsn     8 bytes   unsigned log sequence number, strictly increasing
    length  4 bytes   payload byte count
    crc     4 bytes   CRC-32 of lsn + length + payload (header corruption
                      of the lsn would otherwise silently skew replay's
                      snapshot-lsn filtering)
    payload           UTF-8 JSON object

Append writes one frame and fsyncs before returning — that is the
durability point of every journaled operation.  Reads stop at the first
torn or corrupt frame (a crash mid-append leaves a partial tail, which is
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


class WalRecord(FrozenRecord):
    """One recovered log record."""

    __slots__ = _fields = ("lsn", "payload")

    def __init__(self, lsn: int, payload: dict):
        self.lsn, self.payload = lsn, payload


def _frame_crc(lsn: int, body: bytes) -> int:
    return zlib.crc32(body, zlib.crc32(_META.pack(lsn, len(body))))


def encode_frame(lsn: int, payload: dict) -> bytes:
    """Serialize one record to its on-disk frame."""
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise PersistenceError(f"WAL record is not JSON-serializable: {exc}") from exc
    if len(body) > MAX_PAYLOAD:
        # The reader treats oversized frames as corruption and recovery
        # would truncate them (and everything after); refuse to write what
        # we would later destroy.
        raise PersistenceError(
            f"WAL record of {len(body)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit; checkpoint instead of "
            f"journaling bulk loads this large"
        )
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

    def append(self, lsn: int, payload: dict) -> int:
        """Write one frame and fsync; returns the frame's byte length."""
        frame = encode_frame(lsn, payload)
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

    def _scan(self, start: int = 0) -> Iterator[tuple[int, int, int, bytes]]:
        """(frame start, frame end, lsn, payload bytes) per valid frame.

        CRC-validates every frame but never JSON-decodes the payload —
        the shared kernel under replay (which decodes) and compaction
        (which copies raw bytes).  Stops at the first torn/corrupt frame.
        ``start`` must be a frame boundary from a previous scan (or 0);
        anything else fails the CRC check and reads as an empty tail.
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
                end = offset + _HEADER.size + length
                yield offset, end, lsn, body
                offset = end

    def _frames(self) -> Iterator[tuple[int, WalRecord]]:
        """(byte offset past the frame, record) pairs; stops at the first
        torn or corrupt frame."""
        return self.records_from(0)

    def records(self) -> Iterator[WalRecord]:
        """Valid records in append order; stops at the first bad frame."""
        for _offset, record in self._frames():
            yield record

    def records_from(self, start: int) -> Iterator[tuple[int, WalRecord]]:
        """(offset past the frame, record) pairs starting at byte ``start``.

        The incremental-refresh kernel: a reader that remembers the offset
        past its last applied frame resumes there instead of re-decoding
        the whole log.  ``start`` must be a frame boundary observed on this
        log file; if the file was compacted underneath (shrunk, or the
        bytes at ``start`` no longer frame-align) the scan CRC-fails
        immediately and yields nothing — callers detect staleness through
        the lsn bookkeeping, never through garbage records.
        """
        for _start, end, lsn, body in self._scan(start):
            try:
                payload = json.loads(body.decode("utf-8"))
            except ValueError:
                return
            yield end, WalRecord(lsn, payload)

    def size_bytes(self) -> int:
        """Current byte length of the log file (0 when missing)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def valid_end_offset(self) -> int:
        """Byte offset just past the last valid frame (0 when empty)."""
        offset = 0
        for offset, _record in self._frames():
            pass
        return offset

    def truncate_torn_tail(self) -> int:
        """Cut any torn/corrupt tail off the log; returns bytes dropped.

        Must run before appending to a recovered log: 'ab' mode writes
        after the garbage, where no reader would ever reach the records —
        they would be acknowledged yet unrecoverable.
        """
        if not self.path.exists():
            return 0
        size = self.path.stat().st_size
        offset = self.valid_end_offset()
        if offset >= size:
            return 0
        self.close()
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
        return size - offset

    def last_lsn(self) -> int:
        """Highest valid lsn in the log (0 when empty/missing)."""
        last = 0
        for record in self.records():
            last = record.lsn
        return last

    # ----------------------------------------------------------- compaction

    def truncate_to_empty(self) -> None:
        """Atomically replace the log with an empty file without reading it.

        The checkpoint fast path: a checkpoint supersedes every record it
        covers, so when the caller knows nothing survives there is no
        reason to decode (or even scan) the old log first.
        """
        self.close()
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(self.path.parent)

    def compact(self, keep_after_lsn: int, known_end_lsn: int | None = None) -> int:
        """Drop every record with ``lsn <= keep_after_lsn`` (post-checkpoint).

        Rewrites the log to a temp file and atomically renames it into
        place, so a crash mid-compaction leaves the old log intact.
        Returns the number of records retained.

        ``known_end_lsn`` is the highest lsn the caller knows the log holds
        (the store tracks it); when it shows zero records survive, the log
        is truncated to empty without being read at all.  The general path
        copies the retained suffix as raw CRC-checked frames — lsns are
        strictly increasing, so survivors are contiguous at the tail — and
        never JSON-decodes a payload.
        """
        if known_end_lsn is not None and known_end_lsn <= keep_after_lsn:
            self.truncate_to_empty()
            return 0
        first_kept: int | None = None
        end = 0
        kept = 0
        for start, stop, lsn, _body in self._scan():
            if lsn > keep_after_lsn:
                if first_kept is None:
                    first_kept = start
                kept += 1
            end = stop
        self.close()
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            if first_kept is not None:
                with open(self.path, "rb") as source:
                    source.seek(first_kept)
                    remaining = end - first_kept
                    while remaining > 0:
                        chunk = source.read(min(1 << 20, remaining))
                        if not chunk:  # pragma: no cover - shrank mid-copy
                            break
                        handle.write(chunk)
                        remaining -= len(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(self.path.parent)
        return kept
