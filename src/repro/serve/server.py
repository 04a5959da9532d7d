"""The wire protocol, the one request pipeline, and the threaded front end.

One request per line, one JSON object per response line::

    {"op": "checkout", "cvd": "proteins", "vids": [3, 5]}
    {"ok": true, "columns": ["rid", ...], "count": 2, "lsn": 7, "rows": [...]}

Supported ops: ``ping``, ``status``, ``stats`` (full per-process
observability snapshot), ``checkout``, ``query``, ``refresh`` (force
every idle session up to date), ``shutdown``.

What happens to a request line, in both topologies: :func:`serve_connection`
reads bytes off the socket and cuts them at newlines (a frame longer than
:data:`MAX_LINE_BYTES` is refused and the connection closed);
:func:`handle_line` decodes each line (a JSON object whose fields have the
documented types, else ``bad_request``), opens the ``serve.request`` span (a
client-supplied ``"trace": "<id>"`` rides down to store refresh and executor
spans), asks the :class:`~repro.serve.manager.ServeManager` for the answer —
one session borrow that refreshes, enforces the ``min_lsn`` fence and reads
through the process's L1 cache of encoded replies — maps any exception to
``{"ok": false, "error": <human text>, "code": <stable machine string>}`` on
the same line (the connection stays usable), meters ``serve.requests.<op>`` /
``serve.request_seconds.<op>`` and encodes any reply not already bytes.  The
topologies differ only in who accepts connections and how the manager was
built: here :class:`ServeServer` runs the loop on a daemon thread per
connection over a pooled manager; in :mod:`repro.serve.workers` each forked
worker runs it over a one-session manager around its inherited store.
"""

from __future__ import annotations

import json
import os
import re
import socket
import socketserver
import threading
import time
import weakref
from typing import Any

from repro.errors import ReproError
from repro.obs import metrics, trace

# The wire shapes live with the cache that holds replies encoded.
from repro.serve.cache import checkout_response, encode, rows_checksum  # noqa: F401
from repro.serve.manager import ServeManager

#: The op vocabulary; anything else buckets under the ``unknown`` label so
#: a misbehaving client cannot mint unbounded metric names.
KNOWN_OPS = ("ping", "status", "stats", "checkout", "query", "refresh", "shutdown")

# Pid-aware handles per op label, resolved once instead of per request.
_REQUESTS = {
    label: metrics.counter(f"serve.requests.{label}")
    for label in (*KNOWN_OPS, "unknown")
}
_REQUEST_SECONDS = {
    label: metrics.histogram(f"serve.request_seconds.{label}")
    for label in (*KNOWN_OPS, "unknown")
}

#: Longest request line accepted.  A client that never sends a newline
#: would otherwise grow the serving process without bound.
MAX_LINE_BYTES = 1 << 20

#: How often an idle connection looks at the drain flag.
_POLL_SECONDS = 0.25

# Word starts inside a class name, acronyms included: CVD|Not|Found.
_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def error_response(message: str, code: str) -> dict:
    """The wire shape of a failed request; charges the per-code counter."""
    metrics.registry().counter(f"serve.errors.{code}").inc()
    return {"ok": False, "error": message, "code": code}


def error_code(exc: BaseException) -> str:
    """A stable machine-readable code for an exception.

    Derived from the class name — ``ReadOnlyError`` → ``read_only``,
    ``CVDNotFoundError`` → ``cvd_not_found`` — so the wire codes track the
    exception hierarchy without a hand-maintained table.
    """
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    return _CAMEL.sub("_", name).lower() or "error"


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_vids(value: Any) -> bool:
    return _is_int(value) or (
        isinstance(value, list) and len(value) > 0 and all(map(_is_int, value))
    )


#: What each request field must be and which ops require it, checked once
#: in the decode stage so no ill-typed value reaches the engine.
_FIELDS = {
    "cvd": ("a string", lambda v: isinstance(v, str), ("checkout",)),
    "sql": ("a string", lambda v: isinstance(v, str), ("query",)),
    "params": ("a list", lambda v: isinstance(v, list), ()),
    "rows": ("a boolean", lambda v: isinstance(v, bool), ()),
    "min_lsn": ("an integer or null", lambda v: v is None or _is_int(v), ()),
    "vids": ("an integer or a non-empty list of integers", _is_vids, ("checkout",)),
}


def _decode(line: bytes) -> dict:
    if len(line) > MAX_LINE_BYTES:
        raise ValueError(f"request line exceeds {MAX_LINE_BYTES} bytes")
    request = json.loads(line.decode("utf-8"))
    if not isinstance(request, dict):
        raise ValueError("a request must be a JSON object")
    op = request.get("op")
    for name, (expected, valid, required_by) in _FIELDS.items():
        if name not in request:
            if op in required_by:
                raise ValueError(f"{op!r} requires {name!r}")
        elif not valid(request[name]):
            raise ValueError(f"{name!r} must be {expected}")
    return request


def _dispatch(manager: ServeManager, request: dict) -> dict | bytes:
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "pong": True, "pid": os.getpid()}
    if op == "status":
        return {"ok": True, "status": manager.status()}
    if op == "stats":
        return {"ok": True, "stats": manager.stats_snapshot()}
    if op in ("checkout", "query"):
        return manager.reply_line(request)
    if op == "refresh":
        refreshed, busy = manager.refresh_all()
        return {"ok": True, "sessions": refreshed, "busy": busy}
    if op == "shutdown":
        return {"ok": True, "bye": True}
    return error_response(f"unknown op {op!r}", "unknown_op")


def handle_line(manager: ServeManager, line: bytes) -> tuple[bytes, bool]:
    """One request line in, one response line out (newline included), plus
    whether the client asked the server to shut down.  Never raises: every
    failure becomes an error reply with a stable code."""
    started = time.perf_counter()
    op_label = "unknown"
    bye = False
    try:
        request = _decode(line)
        op = request.get("op")
        if op in KNOWN_OPS:
            op_label = op
        # The root span of the request: a client-supplied trace id rides
        # down through refresh/checkout/executor spans.
        with trace.span("serve.request", trace_id=request.get("trace"), op=op):
            reply = _dispatch(manager, request)
        if isinstance(reply, dict):
            bye = reply.get("bye", False)
            reply = encode(reply)
    except Exception as exc:  # keep the connection alive
        if isinstance(exc, (ValueError, KeyError, TypeError, RecursionError)):
            message, code = f"bad request: {exc}", "bad_request"
        elif isinstance(exc, ReproError):
            message, code = str(exc), error_code(exc)
        else:
            message = f"internal error: {type(exc).__name__}: {exc}"
            code = "internal"
        reply = encode(error_response(message, code))
    _REQUESTS[op_label].inc()
    _REQUEST_SECONDS[op_label].observe(time.perf_counter() - started)
    return reply + b"\n", bye


def serve_connection(
    conn: socket.socket, manager: ServeManager, drain: threading.Event
) -> bool:
    """Serve one connection until EOF; True if shutdown was asked.

    The read loop buffers by hand with a short recv timeout instead of
    ``makefile().readline()``: a timeout mid-``readline`` would corrupt
    the buffered reader's state, while here it is just another chance to
    notice the drain flag.  A request in flight always completes — drain
    is only checked between requests.
    """
    conn.settimeout(_POLL_SECONDS)
    buffer = b""
    while True:
        newline = buffer.find(b"\n")
        if newline < 0 and len(buffer) <= MAX_LINE_BYTES:
            try:
                chunk = conn.recv(1 << 16)
            except socket.timeout:
                if drain.is_set():
                    return False  # idle connection; drop it and drain out
                continue
            except OSError:
                return False
            if not chunk:
                return False  # client EOF — the normal end
            buffer += chunk
            continue
        if newline < 0:
            # No frame boundary within the bound: handle_line refuses the
            # oversized line, and with no way to find the next request in
            # the stream the connection ends after the reply.
            line, buffer = buffer, b""
        else:
            line, buffer = buffer[:newline].strip(), buffer[newline + 1 :]
        if not line:
            continue
        payload, bye = handle_line(manager, line)
        try:
            # A fat payload may need the client to drain its socket;
            # give the send a real window, then restore the drain-aware
            # read timeout.
            conn.settimeout(30.0)
            conn.sendall(payload)
        except OSError:
            return False
        finally:
            conn.settimeout(_POLL_SECONDS)
        if bye or newline < 0:
            return bye


class ServeServer(socketserver.ThreadingTCPServer):
    """Who accepts in the threaded topology: a daemon thread per
    connection runs :func:`serve_connection` over the one pooled manager,
    which is closed when the serve loop ends."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, manager: ServeManager, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), None)
        self.manager = manager
        #: Set on shutdown: idle connections are dropped at their next poll.
        self.draining = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return host, port

    def finish_request(self, request, client_address) -> None:
        # The shutdown is triggered only after the acknowledgement went
        # out — the other order races the process exit and the client can
        # see EOF instead of the reply.
        if serve_connection(request, self.manager, self.draining):
            self.request_shutdown()

    def serve_forever(self, poll_interval: float = 0.1) -> None:
        """Block serving requests until :meth:`shutdown` (or the shutdown
        op) is called; the manager is closed on the way out."""
        try:
            super().serve_forever(poll_interval)
        finally:
            self.server_close()
            self.manager.close()

    def start(self) -> "ServeServer":
        """Serve on a background thread (tests and embedding)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def request_shutdown(self) -> None:
        self.draining.set()
        # The base shutdown() joins the serve_forever loop, which must not
        # run on the calling thread; hand it to a helper thread so both
        # connection threads and signal handlers can trigger it safely.
        threading.Thread(target=super().shutdown, daemon=True).start()

    def shutdown(self) -> None:
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None


def request(host: str, port: int, payload: dict, timeout: float = 30.0) -> dict:
    """One-shot client: send a request line, return the decoded response."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        with conn.makefile("rb") as reader:
            line = reader.readline()
    if not line:
        raise ConnectionError("server closed the connection without replying")
    return json.loads(line.decode("utf-8"))


#: Live client sockets in this process.  A pre-fork worker forked while
#: the host process holds open client connections inherits duplicate FDs
#: for them; those duplicates keep the TCP connections ESTABLISHED after
#: the real client closes, which pins the worker serving that connection
#: forever (and can self-deadlock a worker serving a connection whose
#: client end it inherited).  The registry lets the freshly forked child
#: close every inherited client socket before it starts serving.
_live_clients: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()
_live_clients_lock = threading.Lock()
# Keep the registry consistent across fork: another thread may be mutating
# the WeakSet at the instant the supervisor forks a replacement worker.
os.register_at_fork(
    before=_live_clients_lock.acquire,
    after_in_parent=_live_clients_lock.release,
    after_in_child=_live_clients_lock.release,
)


def close_inherited_clients() -> int:
    """Close every live client socket (called by a forked worker child);
    returns how many were closed.  The parent's own sockets are untouched
    — closing a duplicate FD only drops this process's reference.

    ``detach()`` + ``os.close()`` rather than ``socket.close()``: each
    client holds a ``makefile()`` reader whose io-ref makes ``close()``
    defer the real FD close — exactly the deferral that must NOT happen
    here.  Detaching first also means the child's copy of the socket
    object can never double-close a since-reused FD from a destructor.
    """
    with _live_clients_lock:
        inherited = list(_live_clients)
    closed = 0
    for sock in inherited:
        try:
            fd = sock.detach()
        except OSError:  # pragma: no cover - already dead
            continue
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            closed += 1
    return closed


class ServeClient:
    """A persistent-connection client for request loops (benchmarks)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        # Register BEFORE connecting: a worker forked between connect()
        # and registration would inherit an invisible connected socket —
        # exactly the duplicate-FD pinning the registry exists to stop.
        # A child closing a not-yet-connected socket is harmless.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        with _live_clients_lock:
            _live_clients.add(sock)
        try:
            sock.settimeout(timeout)
            sock.connect((host, port))
        except BaseException:
            with _live_clients_lock:
                _live_clients.discard(sock)
            sock.close()
            raise
        self._conn = sock
        self._reader = self._conn.makefile("rb")

    def request(self, payload: dict) -> dict:
        self._conn.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        with _live_clients_lock:
            _live_clients.discard(self._conn)
        self._reader.close()
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def serve(
    path: str,
    host: str = "127.0.0.1",
    port: int = 0,
    readers: int = 4,
    cache_capacity: int = 256,
    writer: bool = True,
    checkpoint_interval: int = 256,
    workers: int = 0,
    respawn_limit: int = 16,
):
    """Build a server for ``orpheus serve`` (not yet started).

    ``workers=0`` (the default) builds the in-process threaded server
    (one writer + a reader-session pool).  ``workers=N`` builds the
    pre-fork :class:`~repro.serve.workers.PreforkServer` instead: N
    reader *processes* that inherit one loaded snapshot, always in
    follower mode (the writer, if any, lives in another process).
    """
    if workers:
        from repro.serve.workers import PreforkServer

        return PreforkServer(
            path,
            host=host,
            port=port,
            workers=workers,
            cache_capacity=cache_capacity,
            respawn_limit=respawn_limit,
        )
    manager = ServeManager(
        path,
        readers=readers,
        cache_capacity=cache_capacity,
        writer=writer,
        checkpoint_interval=checkpoint_interval,
    )
    try:
        return ServeServer(manager, host=host, port=port)
    except BaseException:
        manager.close()
        raise
