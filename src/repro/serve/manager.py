"""The session manager: the one answerer behind every serve topology.

The shape the paper's bolt-on design wants at serving time: a single
update path (the exclusive-lock writer store) next to many concurrent
analytical readers, each a :class:`repro.persist.Store` opened with
``mode="ro"`` so it shares the store directory without writing a byte.
Sessions live in a pool; a request borrows one, brings it up to date with
a cheap lsn-tail :meth:`~repro.persist.Store.refresh`, serves through the
shared :class:`~repro.serve.cache.CheckoutCache`, and returns it.
``reply_line`` / ``status`` / ``stats_snapshot`` / ``refresh_all`` are
the only builders of those wire replies: the threaded server holds one
manager with N sessions, a pre-fork worker one manager with a single
session around its inherited store (:meth:`ServeManager.over_inherited_store`).
The cache holds encoded replies; in-process callers get rows — computed on
a miss, rebuilt from the cached reply on a hit.

Reentrancy model: a session is used by one thread at a time (the pool
enforces it), sessions never share mutable state with each other, and the
cache carries its own lock — so N sessions serve N requests concurrently
with no global lock.  With an in-process writer, readers know exactly when
they are behind (the writer's lsn is a field away); in follower mode
(``writer=False``, the writer lives in another process) every borrow
polls the WAL tail, which the byte-offset resume keeps cheap.
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
from repro.obs import metrics
from repro.persist import RefreshResult, Store
from repro.storage.engine import Result

from repro.serve.cache import CheckoutCache, Reply, checkout_key, query_key
from repro.serve.cache import checkout_response, encode
from repro.serve.sharedcache import CacheClient

# Pid-aware handles: a pre-fork serve worker charges its own registry.
_BORROW_WAIT = metrics.histogram("serve.pool.borrow_wait_seconds")
_IN_FLIGHT = metrics.gauge("serve.pool.in_flight")

_MISSING = object()
#: Posted into the session pool by close(): wakes borrowers blocked on an
#: empty pool so they fail cleanly instead of hanging forever.
_CLOSED = object()


class ReadSession:
    """One read-only store plus its view of the caches: the in-process
    L1 and, in a pre-fork worker, the pool-wide L2 behind it."""

    def __init__(
        self,
        store: Store,
        cache: CheckoutCache,
        session_id: int = 0,
        l2: CacheClient | None = None,
    ):
        self.store = store
        self.cache = cache
        self.l2 = l2
        self.session_id = session_id
        self.refreshes = 0
        self.requests = 0

    @property
    def orpheus(self):
        return self.store.orpheus

    @property
    def last_lsn(self) -> int:
        return self.store.last_lsn

    def refresh(self) -> RefreshResult:
        """Catch up with the writer and evict what it made stale."""
        result = self.store.refresh()
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
        self.refresh()
        if self.last_lsn < min_lsn:
            raise StaleReadError(
                f"store is at lsn {self.last_lsn}, behind the client's "
                f"required lsn {min_lsn}"
            )

    def _invalidate(self, result: RefreshResult) -> None:
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

    # -------------------------------------------------------------- serving

    def _cached(self, key: tuple, compute, l2: CacheClient | None = None):
        """``(reply, value)`` read through L1, then ``l2``: ``compute()``
        makes both on a miss.  Both tiers hold an entry deflated until its
        first hit — most are never asked for again, and an encoded checkout
        is ~5x the row pointers once cached — then inflated for good."""
        self.requests += 1
        reply = self.cache.get(key, _MISSING)
        if reply is _MISSING:
            body = l2.get(key) if l2 is not None else None
            if body is None:
                value, reply = compute()
                packed = reply.pack()
                if l2 is not None:
                    l2.put(key, packed.body)
                self.cache.put(key, packed)
                return reply, value
            reply = Reply(body, packed=True)
        if reply.packed:
            reply = Reply(reply.line, False, reply.lean)
            self.cache.put(key, reply)
        return reply, None

    def checkout_reply(self, cvd: str, vids: int | Sequence[int], lean: bool = False):
        """``(reply, rows if computed now)`` of merged ``vids`` at this lsn;
        ``lean`` adds the ``"rows": false`` line.  Only checkouts use L2."""
        lsn = self.last_lsn

        def compute():
            rows = self.orpheus.checkout_rows(cvd, vids)
            columns = ["rid", *self.orpheus.cvd(cvd).data_schema.column_names]
            reply = Reply(encode(checkout_response(columns, rows, lsn)))
            if lean:
                reply.lean = encode(checkout_response(columns, rows, lsn, False))
            return rows, reply

        return self._cached(checkout_key(cvd, vids, lsn), compute, self.l2)

    def checkout(self, cvd: str, vids: int | Sequence[int]) -> list[tuple]:
        reply, rows = self.checkout_reply(cvd, vids)
        return reply.decode()["rows"] if rows is None else rows

    def query_reply(self, sql: str, params: Sequence[Any] = ()):
        """``(reply, result)`` of read-only SQL at this session's lsn."""
        lsn = self.last_lsn

        def compute():
            result = self.orpheus.run(sql, params)
            response = {"ok": True, "columns": result.columns, "rows": result.rows}
            response.update(count=result.rowcount, lsn=lsn)  # the wire's key order
            return result, Reply(encode(response))

        return self._cached(query_key(sql, params, lsn), compute)

    def query(self, sql: str, params: Sequence[Any] = ()) -> Result:
        reply, result = self.query_reply(sql, params)
        if result is None:
            decoded = reply.decode()
            result = Result(decoded["columns"], decoded["rows"], decoded["count"])
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
        cls, store: Store, cache_capacity: int, l2: CacheClient | None, worker: int
    ) -> "ServeManager":
        """A pre-fork worker's manager: one follower session around the
        read-only store the parent loaded before the fork (no second
        snapshot load), reading through the pool's L2 when there is one."""
        self = cls.__new__(cls)
        self._init_pool(store.path, cache_capacity, "prefork-worker", l2, worker)
        self._add_session(store, worker)
        self._register_collectors()
        return self

    def _init_pool(
        self,
        path: str | Path,
        cache_capacity: int,
        mode: str,
        l2: CacheClient | None = None,
        worker: int | None = None,
    ) -> None:
        self.path = Path(path)
        self.mode = mode
        self.cache = CheckoutCache(cache_capacity)
        self.writer_store: Store | None = None
        #: Only in a pre-fork worker: the pool-wide L2 client (None when
        #: the shared cache is off) and the worker's slot number.
        self.l2 = l2
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
        session = ReadSession(store, self.cache, session_id, self.l2)
        self._sessions.append(session)
        self._idle.put(session)

    def _register_collectors(self) -> None:
        """Expose the cache and each session's engine I/O pull-style.

        Registration is snapshot-time only: the counters themselves are the
        unmodified CacheStats/IOStats the hot paths already charge, so the
        gated benchmark figures cannot drift.
        """
        obs = metrics.registry()
        entries: list[tuple[str, Any]] = [("serve.cache", self.cache.stats_dict)]
        for session in self._sessions:
            entries.append(
                (
                    f"serve.session_{session.session_id}.io",
                    session.store.orpheus.db.stats.as_dict,
                )
            )
        if self.writer_store is not None:
            writer_stats = self.writer_store.orpheus.db.stats
            entries.append(("serve.writer.io", writer_stats.as_dict))
        for name, collect in entries:
            obs.register_collector(name, collect)
        self._collectors = entries

    # ---------------------------------------------------------------- stats

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
            schema = session.orpheus.cvd(cvd).data_schema
            return ["rid", *schema.column_names], rows, session.last_lsn

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
                params = request.get("params", ())
                return session.query_reply(request["sql"], params)[0].line
            rows = request.get("rows", True)
            reply = session.checkout_reply(request["cvd"], request["vids"], not rows)[0]
            return reply.line if rows else reply.lean_line()

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
                result = session.refresh()
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
        ``worker``/``l2`` appear when this manager has them."""
        sessions = [
            {
                "id": session.session_id,
                "lsn": session.last_lsn,
                "requests": session.requests,
                "refreshes": session.refreshes,
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
            "cache": self.cache.stats_dict(),
        }
        if self.worker is not None:
            status["worker"] = self.worker
        if self.l2 is not None:
            status["l2"] = self.l2.stats() or {"degraded": True}
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
        if self.l2 is not None:
            self.l2.close()

    def __enter__(self) -> "ServeManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
