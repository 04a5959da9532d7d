"""Cross-process checkout cache: one owner, many worker clients.

The pre-fork serve workers are separate processes, so the in-process
:class:`~repro.serve.cache.CheckoutCache` (their L1) cannot share entries
between them.  This module adds the L2: the parent process runs a
:class:`CacheOwner` — a selector-loop thread holding one LRU — reachable
over a unix-domain socket; each worker keeps one persistent
:class:`CacheClient` connection to it.  A checkout computed by worker A
is then a cache hit for workers B..N.

Keys are the exact lsn-tagged tuples from :mod:`repro.serve.cache`
(``checkout_key`` / ``query_key``), so the correct-by-construction story
is unchanged: state at an lsn is state at an lsn, no matter which
*process* populated the entry.  Values are opaque bytes — the same
encoded reply a worker's L1 holds, no rows pickled — so the owner never
imports engine types and never deserializes untrusted data
(the socket lives in a fresh ``tempfile.mkdtemp`` directory, mode 0700,
never inside the store directory: a read-only server must not add even a
socket inode to the store).

Wire format, both directions: a 4-byte little-endian length prefix, then
a pickled tuple.  Requests are ``("get", key)``, ``("put", key, blob)``,
``("invalidate", cvds, below_lsn, queries)``, ``("stats",)``; replies are
``("hit", blob)``, ``("miss", None)`` or ``("ok", payload)``.

Failure model: the cache is an accelerator, never a dependency.  Any
socket error on the client side permanently degrades that worker to
L1-plus-compute (``errors`` counter charged, no retry storm); the owner
drops misbehaving connections and keeps serving the rest.
"""

from __future__ import annotations

import os
import pickle
import select
import selectors
import socket
import struct
import threading
from typing import Any, Hashable

from repro.obs import metrics

from repro.serve.cache import CheckoutCache

_LEN = struct.Struct("<I")
#: One frame's payload ceiling — a corrupt length prefix must not make
#: either side try to allocate gigabytes.
MAX_FRAME = 1 << 28


def _encode(message: tuple) -> bytes:
    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _LEN.pack(len(blob)) + blob


def _recv_exact(conn: socket.socket, size: int) -> bytes | None:
    """Read exactly ``size`` bytes from a blocking socket; None on EOF."""
    chunks = []
    while size:
        chunk = conn.recv(min(size, 1 << 16))
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


class CacheOwner:
    """The L2 owner: a single LRU served over a unix socket.

    Runs as a daemon thread in the pre-fork parent.  All connections are
    non-blocking and multiplexed through one selector, so a stalled
    worker cannot wedge the others.
    """

    def __init__(self, socket_path: str, capacity: int = 1024):
        self.path = socket_path
        self.cache = CheckoutCache(capacity)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(socket_path)
        self._listener.listen(64)
        self._listener.setblocking(False)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "CacheOwner":
        self._thread = threading.Thread(
            target=self._run, name="cache-owner", daemon=True
        )
        self._thread.start()
        return self

    def close_inherited(self) -> None:
        """Called in a freshly forked child: drop the fd copies the fork
        duplicated (the listener; live worker connections are handled by
        the EOF-on-peer-close semantics and merely leak a few fds until
        the pool exits).  Touches no locks — safe right after fork."""
        try:
            os.close(self._listener.fileno())
        except OSError:
            pass

    # ------------------------------------------------------------- owner loop

    def _run(self) -> None:
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, None)
        buffers: dict[socket.socket, bytearray] = {}
        try:
            while not self._stop.is_set():
                for key, _events in sel.select(timeout=0.2):
                    if key.fileobj is self._listener:
                        try:
                            conn, _ = self._listener.accept()
                        except OSError:
                            continue
                        conn.setblocking(False)
                        buffers[conn] = bytearray()
                        sel.register(conn, selectors.EVENT_READ, None)
                        continue
                    conn = key.fileobj  # type: ignore[assignment]
                    if not self._pump(conn, buffers[conn]):
                        sel.unregister(conn)
                        del buffers[conn]
                        conn.close()
        finally:
            for conn in list(buffers):
                conn.close()
            sel.close()

    def _pump(self, conn: socket.socket, buffer: bytearray) -> bool:
        """Drain readable bytes and answer complete frames; False = drop."""
        try:
            chunk = conn.recv(1 << 16)
        except BlockingIOError:
            return True
        except OSError:
            return False
        if not chunk:
            return False  # worker went away — normal lifecycle
        buffer.extend(chunk)
        while True:
            if len(buffer) < _LEN.size:
                return True
            (length,) = _LEN.unpack(buffer[: _LEN.size])
            if length > MAX_FRAME:
                return False
            if len(buffer) < _LEN.size + length:
                return True
            frame = bytes(buffer[_LEN.size : _LEN.size + length])
            del buffer[: _LEN.size + length]
            try:
                reply = self._handle(pickle.loads(frame))
            except Exception:
                return False  # a garbled request poisons only its conn
            if not self._send(conn, _encode(reply)):
                return False

    def _handle(self, message: tuple) -> tuple:
        op = message[0]
        if op == "get":
            value = self.cache.get(message[1])
            return ("miss", None) if value is None else ("hit", value)
        if op == "put":
            key, blob = message[1], message[2]
            if isinstance(blob, bytes):  # opaque bytes only, by contract
                self.cache.put(key, blob)
            return ("ok", None)
        if op == "invalidate":
            cvds, below_lsn, queries = message[1], message[2], message[3]
            return ("ok", self.cache.invalidate(cvds, below_lsn, queries))
        if op == "stats":
            return ("ok", self.cache.stats_dict())
        return ("ok", None)

    @staticmethod
    def _send(conn: socket.socket, data: bytes) -> bool:
        """sendall for a non-blocking socket; False drops the conn."""
        view = memoryview(data)
        while view:
            try:
                _, writable, _ = select.select([], [conn], [], 5.0)
            except OSError:
                return False
            if not writable:
                return False  # worker not draining its replies
            try:
                sent = conn.send(view)
            except BlockingIOError:
                continue
            except OSError:
                return False
            view = view[sent:]
        return True

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._listener.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass


class CacheClient:
    """A worker's handle on the parent's cache owner.

    One persistent connection, lazily opened; strictly request/reply, so
    no framing state survives an error — any failure closes the
    connection and flips the client into permanently-degraded mode
    (every call returns a miss, the worker computes locally).
    """

    def __init__(self, socket_path: str, timeout: float = 5.0):
        self._path = socket_path
        self._timeout = timeout
        self._conn: socket.socket | None = None
        self._broken = False
        self._lock = threading.Lock()

    def _call(self, message: tuple) -> tuple | None:
        if self._broken:
            return None
        with self._lock:
            try:
                if self._conn is None:
                    self._conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    self._conn.settimeout(self._timeout)
                    self._conn.connect(self._path)
                self._conn.sendall(_encode(message))
                header = _recv_exact(self._conn, _LEN.size)
                if header is None:
                    raise ConnectionError("cache owner closed the connection")
                (length,) = _LEN.unpack(header)
                if length > MAX_FRAME:
                    raise ConnectionError("oversized cache reply")
                frame = _recv_exact(self._conn, length)
                if frame is None:
                    raise ConnectionError("truncated cache reply")
                return pickle.loads(frame)
            except (OSError, pickle.PickleError, ConnectionError, EOFError):
                self._degrade()
                return None

    def _degrade(self) -> None:
        metrics.registry().counter("serve.l2.errors").inc()
        self._broken = True
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    @property
    def degraded(self) -> bool:
        return self._broken

    # ------------------------------------------------------------------- api

    def get(self, key: Hashable) -> bytes | None:
        reply = self._call(("get", key))
        if reply is not None and reply[0] == "hit":
            metrics.registry().counter("serve.l2.hits").inc()
            return reply[1]
        metrics.registry().counter("serve.l2.misses").inc()
        return None

    def put(self, key: Hashable, blob: bytes) -> None:
        if self._call(("put", key, blob)) is not None:
            metrics.registry().counter("serve.l2.puts").inc()

    def invalidate(
        self,
        cvds: set | None = None,
        below_lsn: int | None = None,
        queries: bool = True,
    ) -> int:
        reply = self._call(("invalidate", cvds, below_lsn, queries))
        return reply[1] if reply is not None else 0

    def stats(self) -> dict[str, Any] | None:
        reply = self._call(("stats",))
        return reply[1] if reply is not None else None

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except OSError:
                    pass
                self._conn = None
