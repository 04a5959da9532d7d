"""The durable store: snapshot + WAL tail, with crash recovery.

On-disk layout of one store directory::

    .orpheusdb/
      CURRENT            JSON pointer at the active snapshot directory
      wal.log            CRC-framed logical records since that snapshot
      snapshots/
        snap-00000001/   manifest.json + segments.bin (one block per table)

:meth:`Store.open` is the recovery path: load the snapshot named by
``CURRENT`` (or start empty), then replay every WAL record with a higher
lsn.  Each mutating OrpheusDB call appends one fsync'd record via the
attached journal, so a crash at any instant loses at most the operation
whose append had not yet returned.  After ``checkpoint_interval`` appends
(or an explicit :meth:`checkpoint`) the store writes a fresh snapshot and
empties the log.

Replay is :func:`replay_record`.  Every journaled operation is a pure
prepare step and an apply step that only writes; the live operation runs
prepare, apply, then appends, and replay runs the *same* apply on the
decoded record, never the public method.  Commit records are set
differences: a version's membership is stored as ``drop`` (the parents'
records it does not inherit) plus its new records, numbered from
``first_rid``, and replay rebuilds it as ``union(parents) - drop | new``.
A commit appends O(changed records) bytes whatever its DML did.

``Store.open(mode="ro")`` is the concurrent-read path: a shared advisory
lock instead of the writer's exclusive one, recovery that is a pure read
(no truncation, no checkpoint, no append — not one byte on disk changes),
and :meth:`Store.refresh` to catch up with a live writer by replaying only
the WAL tail past the last seen lsn.  The serving layer (:mod:`repro.serve`)
pools such read-only stores behind a version-aware cache.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

from repro.core.cvd import PreparedVersion
from repro.core.orpheus import OrpheusDB
from repro.errors import (
    PersistenceError,
    ReadOnlyError,
    RecoveryError,
    ReproError,
    StoreLockedError,
)
from repro.obs import metrics, trace
from repro.record import Record
from repro.storage.parser.parser import parse_sql
from repro.storage.ridset import RidSet
from repro.storage.schema import TableSchema
from repro.storage.types import DataType, unpack_block

from repro.persist.fsutil import atomic_write_bytes, fsync_dir
from repro.persist.injection import crash_point
from repro.persist.snapshot import load_snapshot, write_snapshot
from repro.persist.wal import WriteAheadLog, encode_record

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

CURRENT_NAME = "CURRENT"
WAL_NAME = "wal.log"
SNAPSHOTS_DIR = "snapshots"
LOCK_NAME = "LOCK"
WRITE_LOCK_NAME = "LOCK.write"
#: A read-only load races the writer's checkpoint pruning (the snapshot it
#: started reading can vanish mid-load); CURRENT has already moved on, so
#: retrying against the fresh pointer converges.
RO_LOAD_RETRIES = 3
#: Snapshot directories retained after a checkpoint.  Recovery only ever
#: uses the one named by CURRENT — the WAL is compacted past older
#: snapshots, so they cannot be rolled forward automatically — but the
#: predecessor is kept for manual salvage if the active snapshot is lost
#: to disk corruption (accepting the loss of the ops after it).
KEEP_SNAPSHOTS = 2
#: With automatic checkpoints on (``checkpoint_interval > 0``), also
#: checkpoint once the WAL reaches this size: a record count alone lets one
#: huge record (a bulk init) be re-replayed on every open for up to
#: ``checkpoint_interval`` commands.
CHECKPOINT_BYTES = 4 * 1024 * 1024

# Pid-aware handles: a pre-fork serve worker charges its own registry.
_RECORDS_REPLAYED = metrics.counter("persist.store.records_replayed")
_RECOVERY_SECONDS = metrics.histogram("persist.store.recovery_seconds")
_REFRESHES = metrics.counter("persist.store.refreshes")
#: Refreshes that read CURRENT and the WAL tail; the rest were answered
#: by the unchanged change signal without opening a file.
_REFRESH_POLLS = metrics.counter("persist.store.refresh_polls")
_REFRESH_RECORDS = metrics.counter("persist.store.refresh_records_applied")
_FULL_RELOADS = metrics.counter("persist.store.full_reloads")
_REFRESH_SECONDS = metrics.histogram("persist.store.refresh_seconds")
_CHECKPOINTS = metrics.counter("persist.store.checkpoints")
_CHECKPOINT_SECONDS = metrics.histogram("persist.store.checkpoint_seconds")


class RefreshResult(Record):
    """What one read-only :meth:`Store.refresh` brought in.

    ``full_reload`` means the reader fell behind a checkpoint and rebuilt
    from the active snapshot — per-record classification is unavailable,
    so callers (e.g. the serve cache) must treat every CVD as touched.
    """

    __slots__ = _fields = (
        "applied",
        "full_reload",
        "last_lsn",
        "touched_cvds",
        "schema_changed_cvds",
        "ran_sql",
    )

    def __init__(
        self,
        applied: int = 0,
        full_reload: bool = False,
        last_lsn: int = 0,
        touched_cvds: set[str] | None = None,
        schema_changed_cvds: set[str] | None = None,
        ran_sql: bool = False,
    ):
        self.applied, self.full_reload, self.last_lsn = applied, full_reload, last_lsn
        self.touched_cvds = set() if touched_cvds is None else touched_cvds
        self.schema_changed_cvds = (
            set() if schema_changed_cvds is None else schema_changed_cvds
        )
        self.ran_sql = ran_sql

    @property
    def changed(self) -> bool:
        return self.full_reload or self.applied > 0


def _classify_record(payload: dict, result: RefreshResult) -> None:
    """Fold one replayed WAL record into a refresh summary (what a serving
    cache needs to invalidate)."""
    op = payload.get("op")
    if op == "commit":
        result.touched_cvds.add(payload["cvd"])
        if payload.get("schema") is not None:
            result.schema_changed_cvds.add(payload["cvd"])
    elif op in ("init", "drop"):
        result.touched_cvds.add(payload["name"])
    elif op in ("optimize", "maintain", "migration"):
        result.touched_cvds.add(payload["cvd"])
    elif op == "run":
        # SQL DML names arbitrary durable tables; refresh cannot map it to
        # CVDs, so query caches must invalidate conservatively.
        result.ran_sql = True


class Store:
    """One durable OrpheusDB instance rooted at a directory."""

    def __init__(
        self,
        path: str | Path,
        checkpoint_interval: int = 256,
        mode: str = "rw",
    ):
        if mode not in ("rw", "ro"):
            raise PersistenceError(f"unknown store mode {mode!r} (use 'rw' or 'ro')")
        self.mode = mode
        self.path = Path(path)
        # Negative values would make `records_since >= interval` always
        # true (a full snapshot per record); clamp to "disabled".
        self.checkpoint_interval = max(0, checkpoint_interval)
        self.wal = WriteAheadLog(self.path / WAL_NAME)
        self.orpheus: OrpheusDB | None = None
        self.recovery_warnings: list[str] = []
        self._next_lsn = 1
        self._records_since_checkpoint = 0
        self._in_checkpoint = False
        self._lock_handles: list = []
        #: Byte offset just past the last WAL frame this store has seen —
        #: lets a read-only refresh resume the scan instead of re-decoding
        #: the whole log on every poll.
        self._wal_offset = 0
        #: The CURRENT snapshot name in force when ``_wal_offset`` was
        #: recorded.  Every checkpoint replaces the log file, so a name
        #: change means the offset belongs to a *previous* file — even
        #: when the new file happens to be byte-for-byte as long.
        self._wal_marker: str | None = None
        #: What :meth:`refresh` stats to learn whether the writer moved.
        self._signal_paths = (str(self.path / CURRENT_NAME), str(self.wal.path))
        #: The change signal taken just before the last complete poll; None
        #: until one completes.
        self._refresh_signal: tuple | None = None

    @property
    def read_only(self) -> bool:
        return self.mode == "ro"

    # ----------------------------------------------------------------- open

    @classmethod
    def open(
        cls,
        path: str | Path,
        checkpoint_interval: int = 256,
        mode: str = "rw",
    ) -> "Store":
        """Create or recover the store at ``path`` and attach its journal.

        ``mode="ro"`` opens an existing store read-only: it takes a
        *shared* advisory lock (coexisting with one live writer and any
        number of other readers), recovers purely in memory — no torn-tail
        truncation, no checkpoint, no WAL append; not a single byte on
        disk changes — and can later catch up with the writer via
        :meth:`refresh`.
        """
        store = cls(path, checkpoint_interval=checkpoint_interval, mode=mode)
        store._recover()
        return store

    def _recover(self) -> None:
        if self.path.exists() and not self.path.is_dir():
            raise PersistenceError(
                f"{self.path} is a file, not a store directory"
            )
        if self.read_only:
            if not self.path.is_dir():
                raise PersistenceError(
                    f"no store directory at {self.path} to open read-only"
                )
            self._acquire_lock()
            try:
                self._load_state_with_retry()
            except BaseException:
                self.wal.close()
                self._release_lock()
                raise
            return
        created = not self.path.exists()
        # exist_ok: a concurrent opener may create the directory between
        # the check and here — let the lock below deliver the clean error.
        self.path.mkdir(parents=True, exist_ok=True)
        if created:
            fsync_dir(self.path.parent)
        (self.path / SNAPSHOTS_DIR).mkdir(exist_ok=True)
        fsync_dir(self.path)
        self._acquire_lock()
        try:
            self._recover_locked()
        except BaseException:
            # A failed recovery (unreadable CURRENT, corrupt snapshot, ...)
            # must not keep the fd and flock alive on a dead Store object:
            # a same-process retry would see its own leaked lock as "in
            # use by another process".
            self.wal.close()
            self._release_lock()
            raise

    def _recover_locked(self) -> None:
        """The writer recovery path, run while holding the store locks."""
        torn_bytes = self.wal.truncate_torn_tail()
        if torn_bytes:
            self.recovery_warnings.append(
                f"dropped {torn_bytes} bytes of torn WAL tail "
                f"(a crash mid-append)"
            )
        replayed = self._load_state()
        self.orpheus.attach_journal(self)
        # A large replayed tail means every future open pays that replay
        # again until something checkpoints — do it now instead.
        if replayed and self._should_auto_checkpoint():
            self.checkpoint()

    def _load_state(self) -> int:
        """Rebuild the in-memory state from CURRENT + the WAL tail.

        A pure read shared by writer recovery and every read-only
        (re)load; returns the number of WAL records replayed.
        """
        started = time.perf_counter()
        snapshot_name = self._read_current()
        if snapshot_name is not None:
            orpheus, snap_lsn = load_snapshot(self.path / SNAPSHOTS_DIR / snapshot_name)
        else:
            orpheus, snap_lsn = OrpheusDB(), 0
        self.orpheus = orpheus
        self._wal_marker = snapshot_name
        last_lsn = snap_lsn
        replayed = 0
        offset = 0
        for end, record in self.wal.records_from(0):
            if record.lsn > snap_lsn:
                if record.lsn != last_lsn + 1:
                    # The records between the snapshot and this frame were
                    # compacted away (a checkpoint racing this read-only
                    # load: CURRENT was read before it moved, the WAL
                    # after).  Applying the survivors would silently skip
                    # acknowledged operations; raising lets the retry
                    # converge on the fresh CURRENT.
                    raise RecoveryError(
                        f"WAL tail jumps from lsn {last_lsn} to "
                        f"{record.lsn} past snapshot "
                        f"{snapshot_name or '<none>'} — compacted "
                        f"past this state (concurrent checkpoint?)"
                    )
                replay_record(orpheus, record.payload, self.recovery_warnings)
                last_lsn = record.lsn
                replayed += 1
            offset = end
        self._next_lsn = last_lsn + 1
        self._records_since_checkpoint = replayed
        self._wal_offset = offset
        if self.read_only:
            orpheus.read_only = True
        _RECORDS_REPLAYED.inc(replayed)
        _RECOVERY_SECONDS.observe(time.perf_counter() - started)
        return replayed

    def _load_state_with_retry(self) -> int:
        last_error: RecoveryError | None = None
        for _attempt in range(RO_LOAD_RETRIES):
            try:
                return self._load_state()
            except RecoveryError as exc:
                # A live writer may checkpoint — and prune the snapshot we
                # were reading — mid-load; CURRENT has already moved on, so
                # a retry converges.  Genuine corruption keeps failing and
                # surfaces after the last attempt.
                last_error = exc
        raise last_error

    # -------------------------------------------------------------- refresh

    def refresh(self, force: bool = False) -> RefreshResult:
        """Catch a read-only store up with the writer; returns a summary.

        First the change signal: ``os.stat`` of CURRENT and of the WAL.
        When neither moved since the last complete poll, nothing on disk
        changed and the store is already current — refresh returns an
        unchanged summary without opening a file.  ``force`` skips that
        check, so a fence never rests on it (see :meth:`_change_signal`).

        The poll replays only WAL frames past the last applied lsn,
        resuming at the remembered byte offset.  When the writer has
        checkpointed past this reader (CURRENT's ``last_lsn`` is ahead, or
        the surviving WAL tail no longer joins contiguously) it falls back
        to a full in-memory reload from the active snapshot.  Like the
        read-only open, it never writes a byte.
        """
        if not self.read_only:
            raise PersistenceError("refresh() is only for mode='ro' stores")
        started = time.perf_counter()
        with trace.span("store.refresh", store=str(self.path)):
            # Taken before the poll, so a change that lands during it
            # moves the signal away from the recorded value.
            signal = self._change_signal()
            if not force and signal == self._refresh_signal:
                result = RefreshResult(last_lsn=self.last_lsn)
            else:
                result = self._refresh_inner()
                self._refresh_signal = signal  # only once the poll finished
                _REFRESH_POLLS.inc()
        _REFRESHES.inc()
        _REFRESH_RECORDS.inc(result.applied)
        if result.full_reload:
            _FULL_RELOADS.inc()
        _REFRESH_SECONDS.observe(time.perf_counter() - started)
        return result

    def _change_signal(self) -> tuple:
        """``(st_ino, st_size, st_mtime_ns, st_ctime_ns)`` of CURRENT and of
        the WAL (None for a missing file): equal signals mean no writer
        operation happened in between.

        - An append grows the WAL, so its size moves.
        - A checkpoint replaces CURRENT by atomic rename — a new inode,
          created while the old one still existed — and empties the WAL
          (:meth:`WriteAheadLog.truncate_to_empty` renames a new empty
          file over the log: a new inode again).
        - A new writer that truncates a torn tail and regrows the log to
          *exactly* the old length keeps the inode and the size, but not
          the timestamps: truncate and write set mtime and ctime, and a
          writer restart takes far longer than the filesystem's timestamp
          granularity.  The same holds for inode numbers recycled across
          two checkpoints.
        """
        signal = []
        for path in self._signal_paths:
            try:
                st = os.stat(path)
            except FileNotFoundError:
                signal.append(None)
            else:
                signal.append((st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns))
        return tuple(signal)

    def _refresh_inner(self) -> RefreshResult:
        result = RefreshResult()
        # CURRENT is replaced atomically, so an unreadable pointer is
        # corruption: the RecoveryError propagates rather than letting the
        # WAL tail answer for a state the pointer no longer describes.
        info = self._read_current_info()
        if info is not None:
            if info["last_lsn"] > self.last_lsn:
                return self._full_reload(result)
            if info["snapshot"] != self._wal_marker:
                # A checkpoint at or before our lsn replaced the log file,
                # so the remembered offset belongs to the old file (and a
                # regrown file of *exactly* the old length would defeat
                # the size/CRC heuristics below) — rescan from the head.
                # The change signal that gates this poll faces the same
                # trap; :meth:`_change_signal` says why it still moves.
                self._wal_offset = 0
                self._wal_marker = info["snapshot"]
        offset = self._wal_offset
        if offset > self.wal.size_bytes():
            # The log shrank underneath us (compaction); rescan from the
            # head (lsn filtering keeps already-applied records out).
            offset = 0
        outcome = self._replay_tail(offset, result)
        if outcome == "swapped":
            # A nonzero mid-file offset parsed no frame at all: the log
            # was atomically *replaced* (a checkpoint at exactly our lsn,
            # then regrown past the remembered offset), so the offset is
            # meaningless in the new file — rescan from the head.
            outcome = self._replay_tail(0, result)
        if outcome == "reload":
            return self._full_reload(result)
        result.last_lsn = self.last_lsn
        return result

    def _replay_tail(self, offset: int, result: RefreshResult) -> str:
        """Replay WAL frames past ``offset``/our lsn into the live state.

        Returns ``"ok"``, ``"reload"`` (a gap — frames between our lsn and
        the survivors were compacted away — or divergent replay), or
        ``"swapped"`` (nothing parseable at a nonzero mid-file offset: the
        log file was replaced underneath the remembered offset).
        """
        frames = 0
        for end, record in self.wal.records_from(offset):
            frames += 1
            if record.lsn <= self.last_lsn:
                offset = end
                continue
            if record.lsn != self.last_lsn + 1:
                return "reload"
            try:
                replay_record(self.orpheus, record.payload, self.recovery_warnings)
            except RecoveryError:
                return "reload"
            _classify_record(record.payload, result)
            self._next_lsn = record.lsn + 1
            result.applied += 1
            offset = end
            self._wal_offset = offset
        if frames == 0 and offset and offset < self.wal.size_bytes():
            return "swapped"
        self._wal_offset = offset
        return "ok"

    def _full_reload(self, result: RefreshResult) -> RefreshResult:
        self._load_state_with_retry()
        result.full_reload = True
        result.last_lsn = self.last_lsn
        return result

    # ----------------------------------------------------------------- lock

    def _acquire_lock(self) -> None:
        """Advisory locks: every opener shares LOCK; writers own LOCK.write.

        Two writers appending to one WAL would write duplicate lsns and one
        side's fsync-acknowledged records would vanish at the other's
        checkpoint compaction — so a second *writer* fails fast on the
        exclusive ``LOCK.write``.  Readers take only a shared lock on
        ``LOCK``, so any number of readers coexist with each other and
        with one live writer; an exclusive lock on ``LOCK`` itself is
        reserved for tools that must exclude every opener.  Locks die with
        the process (crashes never wedge the store).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return
        handles = []
        try:
            if not self.read_only:
                handles.append(
                    self._flock(
                        self.path / WRITE_LOCK_NAME,
                        fcntl.LOCK_EX,
                        create=True,
                        reason="by another process",
                    )
                )
            shared = self.path / LOCK_NAME
            # Writers may create the marker; a read-only open must not add
            # even an empty directory entry (a pre-writer store without a
            # LOCK file is simply opened unmarked).
            if not self.read_only or shared.exists():
                handles.append(
                    self._flock(
                        shared,
                        fcntl.LOCK_SH,
                        create=not self.read_only,
                        reason="exclusively by another process",
                    )
                )
        except BaseException:
            for handle in handles:
                handle.close()
            raise
        self._lock_handles = handles

    def _flock(self, path: Path, operation: int, create: bool, reason: str):
        handle = open(path, "a+" if create else "r")
        try:
            fcntl.flock(handle.fileno(), operation | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise StoreLockedError(f"store {self.path} is in use {reason}") from None
        return handle

    def _release_lock(self) -> None:
        for handle in self._lock_handles:
            handle.close()  # closing the fd drops the flock
        self._lock_handles = []

    def handle_fork(self) -> None:
        """Make a forked child's store independent of its parent's fds.

        Call once in the child immediately after ``os.fork()``.  Two
        things are shared with the parent at that point and must stop
        being shared:

        - the advisory-lock fds: a flock lives on the *open file
          description*, which fork duplicates into both processes.  The
          child re-acquires locks on fresh fds of its own (so its hold on
          the store tracks its own lifetime), then closes the inherited
          copies — which never releases the parent's locks, because the
          parent's fds keep the original description alive;
        - the WAL append handle: same description means same file offset,
          so two processes appending through it would interleave frames.

        Everything else — the loaded snapshot state — is plain Python
        objects: exactly the copy-on-write sharing the load-once-fork-
        many serve design wants.  Re-acquiring a *writer* store's
        exclusive lock fails by design (the parent still holds it; two
        live writer processes must never coexist): fork read-only stores.
        """
        inherited, self._lock_handles = self._lock_handles, []
        self.wal.handle_fork()
        try:
            self._acquire_lock()
        finally:
            for handle in inherited:
                handle.close()

    # -------------------------------------------------------------- CURRENT

    def _read_current_info(self) -> dict | None:
        current = self.path / CURRENT_NAME
        if not current.exists():
            return None
        try:
            info = json.loads(current.read_text(encoding="utf-8"))
            info["snapshot"], info["last_lsn"]
            return info
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise RecoveryError(f"unreadable CURRENT pointer {current}: {exc}") from exc

    def _read_current(self) -> str | None:
        info = self._read_current_info()
        return None if info is None else info["snapshot"]

    # -------------------------------------------------------------- journal

    #: A record's frame payload; OrpheusDB encodes in an operation's prepare.
    encode = staticmethod(encode_record)

    def append(self, body: bytes, barrier: bool) -> None:
        """Journal one encoded record (called by OrpheusDB after the
        operation applied); fsyncs before returning."""
        if self.read_only:
            # Read-only stores never attach a journal, so this only fires
            # on a caller reaching in directly — refuse rather than corrupt
            # the writer's log.
            raise ReadOnlyError("read-only store cannot append to the WAL")
        self.wal.append(self._next_lsn, body)
        self._next_lsn += 1
        self._records_since_checkpoint += 1
        if self._in_checkpoint:
            return
        if barrier:
            # The operation's effect depends on staging the WAL does not
            # carry (e.g. INSERT INTO durable SELECT ... FROM staged):
            # snapshot right away so the acknowledged state is durable.
            self.checkpoint()
        elif self._should_auto_checkpoint():
            self.checkpoint()

    def _should_auto_checkpoint(self) -> bool:
        """Interval 0 means no automatic checkpoints at all."""
        if self._in_checkpoint or not self.checkpoint_interval:
            return False
        return (
            self._records_since_checkpoint >= self.checkpoint_interval
            or self.wal_size_bytes() >= CHECKPOINT_BYTES
        )

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def records_since_checkpoint(self) -> int:
        return self._records_since_checkpoint

    def current_snapshot_name(self) -> str | None:
        """Name of the active snapshot (None before the first checkpoint)."""
        return self._read_current()

    def wal_size_bytes(self) -> int:
        return self.wal.size_bytes()

    # ----------------------------------------------------------- checkpoint

    def checkpoint(self) -> Path:
        """Snapshot the full state, repoint CURRENT, empty the WAL."""
        if self.read_only:
            raise ReadOnlyError(
                "read-only store cannot checkpoint (no byte on disk may "
                "change); open the store in mode='rw' to compact it"
            )
        if self.orpheus is None:
            raise PersistenceError("store is not open")
        started = time.perf_counter()
        self._in_checkpoint = True
        try:
            snapshot = write_snapshot(
                self.orpheus, self.path / SNAPSHOTS_DIR, self.last_lsn
            )
            crash_point("checkpoint.before_current")
            self._write_current(snapshot.name)
            crash_point("checkpoint.after_current")
            # The snapshot covers every lsn the store has appended.
            self.wal.truncate_to_empty()
            self._records_since_checkpoint = 0
            self.orpheus._ephemeral_dirty = False
            # Any un-journaled in-memory effect is captured by the snapshot
            # just written, so the next record no longer needs a barrier.
            self.orpheus._pending_barrier = False
            self._prune_snapshots(keep=snapshot.name)
            _CHECKPOINTS.inc()
            _CHECKPOINT_SECONDS.observe(time.perf_counter() - started)
            return snapshot
        finally:
            self._in_checkpoint = False

    def _write_current(self, snapshot_name: str) -> None:
        # last_lsn rides the pointer so a read-only refresh can detect
        # "the writer checkpointed past me" from this one tiny file,
        # without parsing the (much larger) snapshot manifest.
        atomic_write_bytes(
            self.path / CURRENT_NAME,
            json.dumps(
                {"snapshot": snapshot_name, "last_lsn": self.last_lsn}
            ).encode("utf-8"),
        )

    def _prune_snapshots(self, keep: str) -> None:
        """Best-effort removal of snapshots older than the retention set."""
        root = self.path / SNAPSHOTS_DIR
        names = sorted(
            (
                entry.name
                for entry in root.iterdir()
                if entry.name.startswith("snap-")
            ),
            reverse=True,
        )
        for name in names[KEEP_SNAPSHOTS:]:
            if name == keep or name.endswith(".tmp"):
                continue
            try:
                shutil.rmtree(root / name)
            except OSError:  # pragma: no cover - pruning is advisory
                pass

    def sync(self) -> None:
        """Checkpoint if non-journaled (staging) state changed.

        Called on clean shutdown so uncommitted checkouts survive normal
        process exits while still being lost by crashes.  A read-only
        store has nothing to sync (and must not write) — no-op.
        """
        if self.read_only:
            return
        if self.orpheus is not None and self.orpheus._ephemeral_dirty:
            self.checkpoint()

    def close(self, sync: bool = True) -> None:
        if sync and self.orpheus is not None:
            self.sync()
        if self.orpheus is not None:
            self.orpheus.detach_journal()
        self.wal.close()
        self._release_lock()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Keep staging durable on a clean exit; on an exception we still
        # close the log but skip the checkpoint (the state may be suspect).
        self.close(sync=exc_type is None)


# ---------------------------------------------------------------- replay


def replay_record(orpheus: OrpheusDB, payload: dict, warnings: list[str]) -> None:
    """Apply one WAL record to ``orpheus``: recovery, a read-only refresh
    and any replica all come here.

    Each op runs the apply step of the operation that journaled it, never
    the public method.  A record that carries an operation's inputs (init,
    optimize, run) re-runs its pure prepare step first; a record that
    carries the decision (a commit, an optimizer transition) is decoded and
    checked against the state it lands on.  A barrier ``run`` that fails
    adds to ``warnings``; any other failure is a :class:`RecoveryError`.
    """
    op = payload.get("op")
    try:
        if op == "create_user":
            orpheus.access.create_user(payload["username"])
        elif op == "config":
            orpheus.access.login(payload["username"])
        elif op == "init":
            name, model = payload["name"], payload["model"]
            schema = TableSchema.from_dict(payload["schema"])
            rows = unpack_block(payload["rows"], schema.dtypes)
            root = orpheus._prepare_init(name, schema, rows, model, payload["message"])
            orpheus._apply_init(name, schema, model, root)
        elif op == "drop":
            orpheus._apply_drop(payload["name"])
        elif op == "commit":
            cvd, version, plan = _decode_commit(orpheus, payload)
            orpheus._apply_commit(
                cvd, version, plan, payload["staged"], payload["staged_is_file"]
            )
            # A live optimizer's maintenance sample rides the commit record
            # (one fsync per commit).
            if payload.get("maintain") is not None:
                _apply_sample(orpheus, payload, payload["maintain"])
        elif op == "run":
            try:
                orpheus._apply_run(parse_sql(payload["sql"], payload["params"]))
            except ReproError as exc:
                # Durable-only DML must replay: a failure means the state
                # diverged.  A barrier record reads staged state; its effect
                # lives in the snapshot the barrier checkpoint wrote, so the
                # crash window between append and checkpoint may leave it
                # unreplayable.  Statements apply one at a time, so it may
                # be partly applied.
                if not payload.get("barrier"):
                    raise
                warnings.append(
                    f"barrier run replay failed and may be partially "
                    f"applied ({exc}): {payload['sql']!r}"
                )
        elif op == "optimize":
            frequencies = payload["frequencies"]
            optimizer, run = orpheus._prepare_optimize(
                payload["cvd"],
                payload["storage_threshold"],
                payload["tolerance"],
                dict(frequencies) if frequencies else None,
            )
            orpheus._apply_optimize(payload["cvd"], optimizer, run)
            if run.migration is not None:
                # The journaled timing, not this replay's.
                event = optimizer.trace.migrations[-1]
                event.wall_seconds = payload["migration_wall_seconds"]
        elif op == "maintain":
            _apply_sample(orpheus, payload, payload["sample"])
        elif op == "migration":
            from repro.partition.online import PlannedMigration

            # The plan must move the records the journal says it moved.
            optimizer = _optimizer(orpheus, payload)
            event = optimizer.apply_migration(
                PlannedMigration.from_state(payload["plan"])
            )
            moved = [event.records_inserted, event.records_deleted]
            if moved != [payload["inserted"], payload["deleted"]]:
                raise RecoveryError(
                    f"migration replay moved {moved} records (inserted, deleted), "
                    f"journal says {[payload['inserted'], payload['deleted']]}"
                )
            event.wall_seconds = payload["wall_seconds"]
        else:
            raise RecoveryError(f"unknown WAL operation {op!r}")
    except RecoveryError:
        raise
    except ReproError as exc:
        raise RecoveryError(f"WAL replay of {op!r} failed: {exc}") from exc
    orpheus._clock = payload["clock"]


def _optimizer(orpheus: OrpheusDB, payload: dict):
    optimizer = orpheus.optimizer_for(payload["cvd"])
    if optimizer is None:
        raise RecoveryError(
            f"WAL {payload['op']!r} record for CVD {payload['cvd']!r} but no "
            f"optimizer was restored — non-deterministic state"
        )
    return optimizer


def _apply_sample(orpheus: OrpheusDB, payload: dict, sample: list) -> None:
    # Imported here: a store without partitioned CVDs never loads the
    # partition package.
    from repro.partition.online import MaintenanceSample

    _optimizer(orpheus, payload).apply_maintain(MaintenanceSample(*sample))


# ------------------------------------------------------------ commit coding


def _decode_commit(orpheus: OrpheusDB, payload: dict):
    """``(cvd, version, plan)`` of a journaled commit, checked against the
    state it replays onto.  A CRC-valid frame whose blocks do not decode
    (:func:`~repro.storage.types.decode_block`) or hold a NULL in a NOT NULL
    column, whose ``drop`` leaves the parents' records, whose ``first_rid``
    is not the next free rid, whose vid or partition is not the next this
    state gives, or that has an older release's shape is a typed
    :class:`RecoveryError` naming the version, raised before any bitmap
    sized by a raw rid is built."""
    cvd = orpheus.cvd(payload["cvd"])
    vid, start, parents = payload["vid"], cvd._next_rid, list(payload["parents"])
    if "first_rid" not in payload:
        raise RecoveryError(
            f"commit record for version {vid} has a shape this release no "
            "longer reads: checkpoint with the release that wrote it"
        )
    plan = None
    if payload["schema"] is not None:
        plan = cvd.plan_evolution(TableSchema.from_dict(payload["schema"]))
    schema = cvd.data_schema if plan is None else plan.new_schema
    try:
        drop = [rid for (rid,) in unpack_block(payload["drop"], [DataType.INTEGER])]
        rows = schema.coerce_rows(unpack_block(payload["new_records"], schema.dtypes))
    except ReproError as exc:
        raise RecoveryError(f"malformed commit record for version {vid}: {exc}")
    union = RidSet.union_all(cvd.member_rids(parent) for parent in parents)
    top = union.max() if union else 0
    stray = [rid for rid in drop if rid is None or not 0 <= rid <= top]
    dropped = RidSet() if stray else RidSet(drop)
    stray = stray or list(dropped - union)
    if stray:
        raise RecoveryError(
            f"commit record for version {vid} drops rids {stray[:5]} "
            f"that none of its parents {parents} holds"
        )
    if payload["first_rid"] != start:
        raise RecoveryError(
            f"commit record for version {vid} numbers its new records from "
            f"{payload['first_rid']!r}, not the next free rid {start}"
        )
    if vid != cvd._next_vid:
        raise RecoveryError(
            f"commit replay would add version {cvd._next_vid}, journal says "
            f"{vid} — non-deterministic state"
        )
    # A partitioned model takes an existing or the next fresh partition; the
    # other models take none.
    partition, model = payload["partition"], cvd.model
    fresh = getattr(model, "_next_partition", None)
    if partition not in {*getattr(model, "_partitions", ()), fresh}:
        raise RecoveryError(
            f"commit record places version {vid} in partition {partition}, "
            f"which this state cannot give it"
        )
    new_records = dict(enumerate(rows, start))
    members = (union - dropped) | RidSet(new_records)
    info = [payload[key] for key in ("message", "checkout_time", "commit_time")]
    version = PreparedVersion(
        vid, tuple(parents), members, new_records, dropped, partition, *info
    )
    return cvd, version, plan
