"""Pre-fork process workers: load the snapshot once, fork it N times.

The threaded server (:mod:`repro.serve.server`) runs the request pipeline
on reader *threads*, so checkout scans serialize on the GIL and N cores
give ~1 core of read throughput.  This module is the process-parallel
way of accepting connections and obtaining a manager; what happens to a
request line is the same code (:func:`~repro.serve.server.serve_connection`):

- the parent opens the store **read-only once** (one snapshot load, one
  WAL replay), binds and listens on the TCP socket, then forks N reader
  workers — each inherits the loaded :class:`~repro.persist.Store` via
  copy-on-write, calls :meth:`Store.handle_fork` so advisory-lock fds
  and WAL handles are re-opened, never shared, and wraps it in a
  one-session follower :class:`~repro.serve.manager.ServeManager` whose
  L2 is the parent's :class:`~repro.serve.sharedcache.CacheOwner`;
- every worker accepts on the **inherited listening socket** (one shared
  kernel accept queue — no REUSEPORT hash imbalance, and a dead worker's
  backlog is simply drained by its siblings) and serves one connection
  at a time, start to finish: a connection is pinned to one process, so
  ``{"op": "stats"}`` snapshots are per-worker by construction;
- a supervisor thread in the parent reaps dead workers (``waitpid`` on
  *specific* pids — never ``-1``, which would steal unrelated children
  from an embedding test runner) and re-forks replacements from the
  refreshed template store; SIGTERM drains workers cleanly, and the
  ``shutdown`` op (worker exit code 99) winds down the whole pool.
"""

from __future__ import annotations

import logging
import os
import select
import signal
import socket
import tempfile
import threading
import time
from pathlib import Path

from repro.obs import metrics
from repro.persist import Store

from repro.serve.manager import ServeManager
from repro.serve.server import close_inherited_clients, serve_connection
from repro.serve.sharedcache import CacheClient, CacheOwner

#: A worker that was asked to shut down (the ``shutdown`` op) exits with
#: this code; the supervisor reads it as "wind down the whole pool", any
#: other death as "respawn".
WORKER_SHUTDOWN_EXIT = 99
#: Exit code for a worker that died on an unexpected internal error.
WORKER_ERROR_EXIT = 70

_log = logging.getLogger("repro.serve.prefork")


def _describe_exit(code: int) -> str:
    """Human-readable death cause from a waitstatus exit code."""
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:
            name = "unknown signal"
        return f"died on signal {-code} ({name})"
    return f"exited with status {code}"


class PreforkServer:
    """Parent of a pre-fork worker pool; API-compatible with ServeServer.

    ``start()`` forks the workers; ``serve_forever()`` blocks until the
    pool winds down (signal, ``shutdown`` op, or :meth:`shutdown`);
    ``address`` is the bound TCP endpoint.  One parent-side snapshot
    load serves every worker the pool will ever have — respawns re-fork
    from the (refreshed) template, they do not reload.
    """

    def __init__(
        self,
        path: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache_capacity: int = 256,
        shared_cache: bool = True,
        l2_capacity: int = 1024,
        respawn_limit: int = 16,
    ):
        self.path = Path(path)
        self.workers = max(1, workers)
        #: Total respawns the pool tolerates over its lifetime; one more
        #: abnormal death marks the pool failed and winds it down — a
        #: crash-looping worker must be a bounded, visible failure, not
        #: an infinite respawn spin.
        self.respawn_limit = max(0, respawn_limit)
        #: Set when the pool winds itself down on a crash loop; the CLI
        #: turns it into a nonzero exit.
        self.failure: str | None = None
        self._cache_capacity = max(0, cache_capacity)
        # The one snapshot load + WAL replay of the pool's lifetime.
        self._template = Store.open(path, mode="ro")
        self._listener: socket.socket | None = None
        self._owner: CacheOwner | None = None
        self._cache_dir: str | None = None
        self._cache_path: str | None = None
        try:
            self._listener = socket.create_server((host, port), backlog=128)
            if shared_cache:
                # Never inside the store directory: read-only serving
                # promises not to add a single inode there.
                self._cache_dir = tempfile.mkdtemp(prefix="orpheus-l2-")
                self._cache_path = os.path.join(self._cache_dir, "cache.sock")
                self._owner = CacheOwner(self._cache_path, capacity=l2_capacity)
        except BaseException:
            self._cleanup()
            raise
        self._pids: dict[int, int] = {}  # pid -> worker id
        self._pids_lock = threading.Lock()
        self._supervisor: threading.Thread | None = None
        self._started = False
        self._stop = threading.Event()
        self._done = threading.Event()
        self._shutdown_lock = threading.RLock()
        self._shut_down = False
        self.respawns = 0

    # ------------------------------------------------------------------ wiring

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()[:2]
        return host, port

    def worker_pids(self) -> list[int]:
        with self._pids_lock:
            return sorted(self._pids)

    def start(self) -> "PreforkServer":
        if self._started:
            return self
        self._started = True
        if self._owner is not None:
            self._owner.start()
        for worker_id in range(self.workers):
            self._spawn(worker_id)
        self._supervisor = threading.Thread(
            target=self._supervise, name="prefork-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def _spawn(self, worker_id: int) -> None:
        parent_pid = os.getpid()
        pid = os.fork()
        if pid == 0:  # the worker
            code = WORKER_ERROR_EXIT
            try:
                # Only objects created *after* the fork (plus the
                # explicitly fork-fixed store) are touched from here on —
                # inherited locks may have been mid-acquire in some
                # parent thread at fork time.
                if self._owner is not None:
                    self._owner.close_inherited()
                # Inherited *client* connections (the embedding process's
                # ServeClients) must go too: a duplicate client FD keeps
                # its TCP connection established after the real client
                # closes, pinning whichever sibling serves it — and a
                # worker can even inherit the client end of the very
                # connection it later accepts, deadlocking against
                # itself.  Bit us under chaos: respawn-while-serving.
                close_inherited_clients()
                code = self._worker_loop(worker_id, parent_pid)
            except BaseException:
                code = WORKER_ERROR_EXIT
            finally:
                os._exit(code)
        with self._pids_lock:
            self._pids[pid] = worker_id

    def _worker_loop(self, worker_id: int, parent_pid: int) -> int:
        """A forked worker's whole life; returns the process exit code."""
        # First metric touch after fork rebinds a per-pid registry, so this
        # worker's counters (snapshot loads included: zero in steady state)
        # never mix with the parent's copied totals.
        metrics.registry()
        self._template.handle_fork()
        manager = ServeManager.over_inherited_store(
            self._template,
            self._cache_capacity,
            CacheClient(self._cache_path) if self._cache_path else None,
            worker_id,
        )

        drain = threading.Event()
        signal.signal(signal.SIGTERM, lambda _s, _f: drain.set())
        # The parent's terminal delivers SIGINT to the whole foreground
        # process group; the parent coordinates the drain, workers wait for
        # its SIGTERM so in-flight requests finish first.
        signal.signal(signal.SIGINT, signal.SIG_IGN)

        # O_NONBLOCK lives on the shared file description, so *every* worker
        # runs the same select-then-accept loop; losing an accept race is a
        # plain BlockingIOError, not an error.
        listener = self._listener
        listener.setblocking(False)
        while not drain.is_set():
            if os.getppid() != parent_pid:
                return 0  # orphaned: the supervisor died under us
            try:
                ready, _, _ = select.select([listener], [], [], 0.25)
            except OSError:
                return 0  # listener closed: pool shutdown
            if not ready:
                continue
            try:
                conn, _addr = listener.accept()
            except (BlockingIOError, OSError):
                continue  # a sibling won the race
            try:
                saw_shutdown = serve_connection(conn, manager, drain)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
            if saw_shutdown:
                return WORKER_SHUTDOWN_EXIT
        manager.close()
        return 0

    # -------------------------------------------------------------- supervisor

    def _supervise(self) -> None:
        """Reap dead workers and keep the pool at full strength.

        Polls *specific* pids with WNOHANG — ``waitpid(-1)`` would steal
        exit notifications for unrelated children of an embedding
        process (a test runner, a benchmark coordinator).
        """
        while not self._stop.is_set():
            with self._pids_lock:
                pids = dict(self._pids)
            for pid, worker_id in pids.items():
                try:
                    reaped, status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    reaped, status = pid, 0
                if reaped == 0:
                    continue
                with self._pids_lock:
                    self._pids.pop(pid, None)
                code = os.waitstatus_to_exitcode(status)
                if code == WORKER_SHUTDOWN_EXIT:
                    # A client asked the pool to shut down.  Run it from
                    # a helper thread: shutdown() joins this one.
                    threading.Thread(target=self.shutdown, daemon=True).start()
                    return
                if self._stop.is_set():
                    continue
                cause = _describe_exit(code)
                if self.respawns >= self.respawn_limit:
                    self.failure = (
                        f"worker {worker_id} (pid {pid}) {cause}; respawn "
                        f"limit {self.respawn_limit} exhausted after "
                        f"{self.respawns} respawns"
                    )
                    _log.error("%s; winding the pool down", self.failure)
                    metrics.registry().counter("serve.prefork.crash_loops").inc()
                    threading.Thread(target=self.shutdown, daemon=True).start()
                    return
                _log.warning(
                    "worker %d (pid %d) %s; respawning", worker_id, pid, cause
                )
                # Bring the template near the tip before re-forking so
                # the replacement starts hot (it still refreshes per
                # request like everyone else).
                try:
                    self._template.refresh()
                except Exception:
                    pass
                self.respawns += 1
                metrics.registry().counter("serve.prefork.respawns").inc()
                self._spawn(worker_id)
            self._stop.wait(0.05)

    # --------------------------------------------------------------- lifecycle

    def serve_forever(self) -> None:
        """Foreground mode (the CLI): block until the pool winds down."""
        self.start()
        try:
            while not self._stop.wait(0.2):
                pass
        finally:
            self.shutdown()
        self._done.wait(timeout=15)

    def shutdown(self) -> None:
        """Drain and reap every worker, then release all resources.

        Idempotent and safe from signal handlers, helper threads, and
        ``serve_forever``'s finally — the RLock plus the flag make the
        second and later calls no-ops that still wait for the first."""
        self._stop.set()
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
            supervisor = self._supervisor
            if supervisor is not None and supervisor is not threading.current_thread():
                supervisor.join(timeout=5)
            with self._pids_lock:
                pids = dict(self._pids)
                self._pids = {}
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 10.0
            for pid in pids:
                if not self._reap(pid, deadline):
                    try:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                    except (ProcessLookupError, ChildProcessError):
                        pass
            self._cleanup()
            self._done.set()

    @staticmethod
    def _reap(pid: int, deadline: float) -> bool:
        while time.monotonic() < deadline:
            try:
                reaped, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return True
            if reaped:
                return True
            time.sleep(0.02)
        return False

    def _cleanup(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._owner is not None:
            self._owner.close()
            self._owner = None
        if self._cache_dir is not None:
            try:
                os.rmdir(self._cache_dir)
            except OSError:
                pass
            self._cache_dir = None
        if self._template is not None:
            self._template.close()
            self._template = None

    def __enter__(self) -> "PreforkServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
