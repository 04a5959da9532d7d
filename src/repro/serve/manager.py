"""The session manager: the one answerer behind every serve topology.

The shape the paper's bolt-on design wants at serving time: a single
update path (the exclusive-lock writer store) next to many concurrent
analytical readers, each a :class:`repro.persist.Store` opened with
``mode="ro"`` so it shares the store directory without writing a byte.
Sessions live in a pool; a request borrows one, brings it up to date with
a cheap lsn-tail :meth:`~repro.persist.Store.refresh`, serves through the
process's :class:`~repro.serve.cache.CheckoutCache` (the L1 its sessions
share; no cache spans processes), and returns it.
``reply_line`` / ``status`` / ``stats_snapshot`` / ``refresh_all`` are
the only builders of those wire replies: the threaded server holds one
manager with N sessions, a pre-fork worker one manager with a single
session around its inherited store (:meth:`ServeManager.over_inherited_store`).
The cache holds encoded replies; in-process callers get rows — computed on
a miss, rebuilt from the cached reply on a hit.  A session encodes each
record once; a checkout's line joins those record lines.

Reentrancy model: a session is used by one thread at a time (the pool
enforces it), sessions never share mutable state with each other, and the
cache carries its own lock — so N sessions serve N requests concurrently
with no global lock.  With an in-process writer, readers know exactly when
they are behind (the writer's lsn is a field away); in follower mode
(``writer=False``, the writer lives in another process) every borrow
refreshes, and an idle writer costs it two ``os.stat`` calls: the store
polls the WAL tail only when CURRENT or the log moved.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.errors import PersistenceError, StaleReadError
from repro.obs import metrics, trace
from repro.persist import RefreshResult, Store
from repro.storage.compile import code_cache_stats
from repro.storage.engine import Result

from repro.serve.cache import CheckoutCache, Reply, checkout_key, query_key
from repro.serve.cache import checkout_head, checkout_response, decode, encode

# Pid-aware handles: a pre-fork serve worker charges its own registry.
_BORROW_WAIT = metrics.histogram("serve.pool.borrow_wait_seconds")
_IN_FLIGHT = metrics.gauge("serve.pool.in_flight")

#: A session holds at most this many record lines per L1 entry the cache
#: may keep: 16 384 at the default capacity of 256, none at capacity 0.
LINES_PER_ENTRY = 64
#: Posted into the session pool by close(): wakes borrowers blocked on an
#: empty pool so they fail cleanly instead of hanging forever.
_CLOSED = object()


class ReadSession:
    """One read-only store plus its view of the process's L1 cache."""

    def __init__(self, store: Store, cache: CheckoutCache, session_id: int = 0):
        self.store = store
        self.cache = cache
        self.session_id = session_id
        self.refreshes = 0
        self.requests = 0
        #: CVD object → rid → ``encode(row)``: each record encoded once for
        #: every checkout line that joins it (entries share these bytes);
        #: ``_held`` lines in all, at most the budget of ``_record_lines``.
        self._lines: dict[Any, dict[int, bytes]] = {}
        self._held = 0

    @property
    def orpheus(self):
        return self.store.orpheus

    @property
    def last_lsn(self) -> int:
        return self.store.last_lsn

    def refresh(self, force: bool = False) -> RefreshResult:
        """Catch up with the writer and evict what it made stale.

        ``force`` polls even when the store's change signal says nothing
        moved (:meth:`repro.persist.Store.refresh`): the fence and the
        wire ``refresh`` op rest on the poll, not on the signal.
        """
        result = self.store.refresh(force=force)
        if result.changed:
            self.refreshes += 1
            self._invalidate(result)
        return result

    def ensure_lsn(self, min_lsn: int | None) -> None:
        """The refresh fence: never answer from behind ``min_lsn``.

        ``min_lsn`` is an lsn the client has already observed (a prior
        response carried it).  A session at or past it serves as-is; one
        behind it refreshes to the durable tip first.  If even the tip is
        behind, the client's watermark came from a future this store has
        not seen (wrong store, or an unsynced replica) — error out rather
        than silently time-travel the client backwards.
        """
        if min_lsn is None or self.last_lsn >= min_lsn:
            return
        self.refresh(force=True)
        if self.last_lsn < min_lsn:
            raise StaleReadError(
                f"store is at lsn {self.last_lsn}, behind the client's "
                f"required lsn {min_lsn}"
            )

    def _invalidate(self, result: RefreshResult) -> None:
        # Record lines outlive commits (a changed payload gets a new rid)
        # and migrations, not SQL (UPDATE <cvd>__data rewrites in place),
        # schema evolution, or the new CVD objects of a reload or re-init.
        orpheus = self.orpheus
        keep = set()
        if not (result.full_reload or result.ran_sql):
            names = set(orpheus.ls()) - result.schema_changed_cvds
            keep = {orpheus.cvd(name) for name in names}
        self._lines = {cvd: held for cvd, held in self._lines.items() if cvd in keep}
        self._held = sum(map(len, self._lines.values()))
        if result.full_reload:
            # No per-record classification available: everything older
            # than the reloaded lsn is suspect.
            self.cache.invalidate(cvds=None, below_lsn=result.last_lsn)
            return
        self.cache.invalidate(
            # Empty touched set with ran_sql still drops query entries.
            cvds=result.touched_cvds,
            below_lsn=result.last_lsn,
            queries=bool(result.ran_sql or result.touched_cvds),
        )

    def line_stats(self) -> dict:
        """How many record lines this session holds, and their bytes."""
        size = sum(sum(map(len, lines.values())) for lines in self._lines.values())
        return {"record_lines": self._held, "record_line_bytes": size}

    # -------------------------------------------------------------- serving

    def _l1(self, key: tuple) -> Reply | None:
        """The L1 entry for ``key``, its record lines joined on first hit."""
        self.requests += 1
        reply = self.cache.get(key)
        if reply is not None and reply.records is not None:
            reply = Reply(reply.line, None, reply.lean)
            self.cache.put(key, reply)
        return reply

    def checkout_line(self, cvd: str, vids: int | Sequence[int], lean: bool = False):
        """``(line, rows if computed now)`` of merged ``vids`` at this lsn;
        ``lean`` asks for the ``"rows": false`` line."""
        lsn = self.last_lsn
        key = checkout_key(cvd, vids, lsn)
        reply = self._l1(key)
        if reply is not None:
            return (reply.lean_line() if lean else reply.line), None
        with trace.span("serve.compute"):
            rows = self.orpheus.checkout_rows(cvd, vids)
        with trace.span("serve.encode"):
            columns = self.columns(cvd)
            records = self._record_lines(cvd, rows)
            if records is None:
                reply = Reply(encode(checkout_response(columns, rows, lsn)))
            else:
                reply = Reply(checkout_head(columns, len(rows), lsn), records)
            if lean:
                reply.lean = encode(checkout_response(columns, rows, lsn, False))
            line = reply.lean if lean else reply.line
        self.cache.put(key, reply)
        return line, rows

    def _record_lines(self, cvd: str, rows: list[tuple]) -> tuple[bytes, ...] | None:
        """Each row's record line, encoded once per session; None when the
        rows exceed the session's budget of lines (none at capacity 0).
        A fill that would pass the budget drops every line held first."""
        budget = LINES_PER_ENTRY * self.cache.capacity
        if budget == 0 or len(rows) > budget:
            return None
        lines = self._lines.setdefault(self.orpheus.cvd(cvd), {})
        held = [lines.get(row[0]) for row in rows]
        if self._held + held.count(None) > budget:
            self._lines, self._held = {}, 0
            lines = self._lines[self.orpheus.cvd(cvd)] = {}
        for i, line in enumerate(held):
            if line is None:
                held[i] = lines[rows[i][0]] = encode(rows[i])
                self._held += 1
        return tuple(held)

    def columns(self, cvd: str) -> list[str]:
        return ["rid", *self.orpheus.cvd(cvd).data_schema.column_names]

    def checkout(self, cvd: str, vids: int | Sequence[int]) -> list[tuple]:
        line, rows = self.checkout_line(cvd, vids)
        return decode(line)["rows"] if rows is None else rows

    def query_line(self, sql: str, params: Sequence[Any] = ()):
        """``(line, result if computed now)`` of read-only SQL at this
        session's lsn."""
        lsn = self.last_lsn
        key = query_key(sql, params, lsn)
        reply = self._l1(key)
        if reply is not None:
            return reply.line, None
        with trace.span("serve.compute"):
            result = self.orpheus.run(sql, params)
        with trace.span("serve.encode"):
            response = {"ok": True, "columns": result.columns, "rows": result.rows}
            response.update(count=result.rowcount, lsn=lsn)  # the wire's key order
            line = encode(response)
        self.cache.put(key, Reply(line))
        return line, result

    def query(self, sql: str, params: Sequence[Any] = ()) -> Result:
        line, result = self.query_line(sql, params)
        if result is None:
            reply = decode(line)
            result = Result(reply["columns"], reply["rows"], reply["count"])
        return result

    def close(self) -> None:
        self.store.close()


class ServeManager:
    """Multiplex one writer store and a pool of read-only sessions."""

    def __init__(
        self,
        path: str | Path,
        readers: int = 4,
        cache_capacity: int = 256,
        writer: bool = True,
        checkpoint_interval: int = 256,
    ):
        self._init_pool(path, cache_capacity, "writer" if writer else "follower")
        try:
            if writer:
                self.writer_store = Store.open(
                    path, checkpoint_interval=checkpoint_interval
                )
            for session_id in range(max(1, readers)):
                self._add_session(Store.open(path, mode="ro"), session_id)
        except BaseException:
            self.close()
            raise
        self._register_collectors()

    @classmethod
    def over_inherited_store(
        cls, store: Store, cache_capacity: int, worker: int
    ) -> "ServeManager":
        """A pre-fork worker's manager: one follower session around the
        read-only store the parent loaded before the fork (no second
        snapshot load), with an L1 of its own."""
        self = cls.__new__(cls)
        self._init_pool(store.path, cache_capacity, "prefork-worker", worker)
        self._add_session(store, worker)
        self._register_collectors()
        return self

    def _init_pool(
        self,
        path: str | Path,
        cache_capacity: int,
        mode: str,
        worker: int | None = None,
    ) -> None:
        self.path = Path(path)
        self.mode = mode
        self.cache = CheckoutCache(cache_capacity)
        self.writer_store: Store | None = None
        #: Only in a pre-fork worker: the worker's slot number.
        self.worker = worker
        self._write_lock = threading.RLock()
        self._sessions: list[ReadSession] = []
        self._idle: queue.Queue[ReadSession] = queue.Queue()
        self._closed = False
        #: Makes "check _closed, then re-queue or retire" atomic against
        #: close(): a borrower's finally and close() can otherwise
        #: interleave so a just-returned session escapes both paths and
        #: leaks its store (fd + shared flock) for the process lifetime.
        self._pool_lock = threading.Lock()
        #: Collector names this manager registered with the obs registry,
        #: remembered with their callables so close() only unregisters its
        #: own (a fresher manager may have overwritten a name).
        self._collectors: list[tuple[str, Any]] = []

    def _add_session(self, store: Store, session_id: int) -> None:
        session = ReadSession(store, self.cache, session_id)
        self._sessions.append(session)
        self._idle.put(session)

    def _register_collectors(self) -> None:
        """Expose the cache, each session's engine I/O and this process's
        kernel code cache pull-style.

        Registration is snapshot-time only: the counters themselves are the
        unmodified CacheStats/IOStats the hot paths already charge, so the
        gated benchmark figures cannot drift.
        """
        obs = metrics.registry()
        entries: list[tuple[str, Any]] = [
            ("serve.cache", self.cache_stats),
            # A callable of this manager's own, so close() unregisters
            # only what it registered.
            ("storage.kernel_code", lambda: code_cache_stats()),
        ]
        for session in self._sessions:
            prefix = f"serve.session_{session.session_id}"
            entries.append((f"{prefix}.io", session.store.orpheus.db.stats.as_dict))
            entries.append((prefix, session.line_stats))
        if self.writer_store is not None:
            writer_stats = self.writer_store.orpheus.db.stats
            entries.append(("serve.writer.io", writer_stats.as_dict))
        for name, collect in entries:
            obs.register_collector(name, collect)
        self._collectors = entries

    # ---------------------------------------------------------------- stats

    def cache_stats(self) -> dict:
        """The L1's figures, plus the sessions' record lines it joins."""
        held = [session.line_stats() for session in self._sessions]
        stats = self.cache.stats_dict()
        for name in ("record_lines", "record_line_bytes"):
            stats[name] = sum(lines[name] for lines in held)
        return stats

    def stats_snapshot(self) -> dict:
        """The full observability snapshot for this process (the payload of
        the serve ``{"op": "stats"}`` endpoint); pid (and worker slot)
        included so multi-process workers can be told apart side by side."""
        stats = {"pid": os.getpid(), "metrics": metrics.registry().snapshot()}
        if self.worker is not None:
            stats["worker"] = self.worker
        return stats

    # --------------------------------------------------------------- writer

    @property
    def writer(self):
        """The writer session's OrpheusDB (None in follower mode)."""
        return self.writer_store.orpheus if self.writer_store else None

    @property
    def writer_lsn(self) -> int | None:
        return self.writer_store.last_lsn if self.writer_store else None

    @contextmanager
    def write(self) -> Iterator[Any]:
        """Serialized access to the writer; readers pick changes up on
        their next borrow (bounded staleness, never inconsistency)."""
        if self.writer_store is None:
            raise PersistenceError(
                "this manager follows an external writer (writer=False); "
                "commit through the owning process instead"
            )
        with self._write_lock:
            yield self.writer_store.orpheus

    # -------------------------------------------------------------- readers

    @contextmanager
    def session(self, refresh: bool = True) -> Iterator[ReadSession]:
        """Borrow a read session from the pool (blocks when all are busy)."""
        if self._closed:
            raise PersistenceError("serve manager is closed")
        waited = time.perf_counter()
        session = self._idle.get()
        _BORROW_WAIT.observe(time.perf_counter() - waited)
        if session is _CLOSED:
            # close() ran while we were blocked; pass the wake-up along to
            # any other blocked borrower.
            self._idle.put(_CLOSED)
            raise PersistenceError("serve manager is closed")
        _IN_FLIGHT.inc()
        try:
            # Behind a known writer lsn, or a follower (None): poll the tail.
            writer_lsn = self.writer_lsn
            if refresh and (writer_lsn is None or session.last_lsn < writer_lsn):
                session.refresh()
            yield session
        finally:
            _IN_FLIGHT.dec()
            with self._pool_lock:
                if self._closed:
                    # The pool is being torn down: retire the session here
                    # rather than re-queueing it into a dead pool (close()
                    # only retires sessions that were idle when it ran).
                    session.close()
                else:
                    self._idle.put(session)

    def checkout(self, cvd: str, vids: int | Sequence[int]) -> list[tuple]:
        return self.checkout_payload(cvd, vids)[1]

    def checkout_payload(
        self, cvd: str, vids: int | Sequence[int], min_lsn: int | None = None
    ) -> tuple[list[str], list[tuple], int]:
        """(columns, rows, lsn) resolved on ONE session borrow, so the
        column list always matches the rows' arity even if a schema
        evolution lands between requests.  The returned lsn is the exact
        state the rows reflect — clients echo it back as ``min_lsn`` to
        get read-your-writes across the worker pool."""
        with self.session() as session:
            session.ensure_lsn(min_lsn)
            rows = session.checkout(cvd, vids)
            return session.columns(cvd), rows, session.last_lsn

    def query(self, sql: str, params: Sequence[Any] = ()):
        return self.query_payload(sql, params)[0]

    def query_payload(
        self, sql: str, params: Sequence[Any] = (), min_lsn: int | None = None
    ) -> tuple[Any, int]:
        """(result, lsn) under one borrow, with the same refresh fence."""
        with self.session() as session:
            session.ensure_lsn(min_lsn)
            return session.query(sql, params), session.last_lsn

    def reply_line(self, request: dict) -> bytes:
        """A decoded ``checkout``/``query`` request's reply, encoded as the
        wire sends it — once per cache entry, so a hit encodes nothing."""
        with self.session() as session:
            session.ensure_lsn(request.get("min_lsn"))
            if request["op"] == "query":
                return session.query_line(request["sql"], request.get("params", ()))[0]
            lean = not request.get("rows", True)
            return session.checkout_line(request["cvd"], request["vids"], lean)[0]

    def refresh_all(self) -> tuple[list[dict], int]:
        """Refresh every currently idle session; returns (refreshed, busy).

        Sessions borrowed by in-flight requests cannot be refreshed from
        here (they are single-threaded by design); they catch up on their
        next borrow anyway, so they are merely reported as busy.
        """
        sessions: list[ReadSession] = []
        try:
            while len(sessions) < len(self._sessions):
                item = self._idle.get_nowait()
                if item is _CLOSED:
                    self._idle.put(_CLOSED)
                    break
                sessions.append(item)
        except queue.Empty:
            pass
        refreshed = []
        try:
            for session in sessions:
                result = session.refresh(force=True)
                refreshed.append(
                    {"id": session.session_id, "lsn": result.last_lsn}
                )
        finally:
            with self._pool_lock:
                for session in sessions:
                    if self._closed:
                        session.close()
                    else:
                        self._idle.put(session)
        return refreshed, len(self._sessions) - len(sessions)

    # --------------------------------------------------------------- status

    def status(self) -> dict:
        """One shape for every topology: pool totals (``lsn`` is the newest
        any session has replayed to) plus the per-session breakdown;
        ``worker`` appears in a pre-fork worker."""
        sessions = [
            {
                "id": session.session_id,
                "lsn": session.last_lsn,
                "requests": session.requests,
                "refreshes": session.refreshes,
                **session.line_stats(),
            }
            for session in self._sessions
        ]
        status = {
            "path": str(self.path),
            "mode": self.mode,
            "pid": os.getpid(),
            "writer_lsn": self.writer_lsn,
            "lsn": max((s["lsn"] for s in sessions), default=None),
            "requests": sum(s["requests"] for s in sessions),
            "refreshes": sum(s["refreshes"] for s in sessions),
            "readers": len(sessions),
            "sessions": sessions,
            "cache": self.cache_stats(),
        }
        if self.worker is not None:
            status["worker"] = self.worker
        return status

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        obs = metrics.registry()
        for name, collect in self._collectors:
            obs.unregister_collector(name, collect)
        self._collectors = []
        with self._pool_lock:
            if self._closed:
                return
            # Under the pool lock: any borrower's finally now either ran
            # before us (its session is in the queue and drained below) or
            # runs after and sees _closed, retiring its session itself.
            self._closed = True
        # Retire every idle session; sessions borrowed by in-flight
        # requests keep their stores open until the borrower's finally
        # retires them (never close a store out from under a reader).
        while True:
            try:
                item = self._idle.get_nowait()
            except queue.Empty:
                break
            if item is not _CLOSED:
                item.close()
        # Wake any borrower blocked on the now-empty pool.
        self._idle.put(_CLOSED)
        self._sessions = []
        if self.writer_store is not None:
            self.writer_store.close()
            self.writer_store = None

    def __enter__(self) -> "ServeManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
