"""Process, socket and clock plumbing shared by the workloads.

The program under test is reached only through its public surface: the
``orpheus serve`` subprocess started here and the JSON-line wire ops sent
by :class:`WireClient`.  Everything is written below the checkout
(``.e2e_work/``), including the server's temp dir.
"""

from __future__ import annotations

import os
import platform
import select
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK = ROOT / ".e2e_work"

#: Current CLI defaults, passed explicitly so a later default change
#: cannot silently change a workload.
SERVE_ARGS = ("--workers", "1", "--cache", "256", "--port", "0")
CHECKPOINT_EVERY = 256
FLUSH_POLICY = (
    f"fsync on every commit (library default); auto-checkpoint every "
    f"{CHECKPOINT_EVERY} WAL records (CLI default)"
)
OP_TIMEOUT_S = 30.0


def child_env(tmp: Path) -> dict:
    return {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(tmp),
    }


def socket_tmp(work: Path) -> Path:
    """Temp dir handed to the server, which binds its L2 unix socket in a
    ``mkdtemp`` below it.  A unix socket path is capped near 108 bytes,
    so a deep checkout falls back to the system temp dir for that one
    inode; the store and everything else stay inside the checkout."""
    tmp = work / "t"
    if len(str(tmp)) > 70:
        return Path(tempfile.gettempdir())
    tmp.mkdir(parents=True, exist_ok=True)
    return tmp


class Server:
    """``python -m repro.cli --store DIR serve --workers 1 ...`` as a child.

    Always reaped: :meth:`stop` asks for a clean shutdown, then escalates
    to SIGTERM and SIGKILL, and waits for the process either way.
    """

    def __init__(self, store_dir: Path, tmp: Path):
        command = [sys.executable, "-W", "ignore", "-m", "repro.cli"]
        command += ["--store", str(store_dir)]
        command += ["--checkpoint-every", str(CHECKPOINT_EVERY), "serve", *SERVE_ARGS]
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(tmp),
            cwd=str(ROOT),
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
            banner = self.proc.stdout.readline().decode() if ready else ""
            # "serving <path> on 127.0.0.1:<port> (1 workers, prefork mode)"
            self.port = int(banner.split(" on ")[1].split()[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}") from None

    def stop(self, client: "WireClient | None" = None) -> None:
        """Shut down through the wire op when a client is given (the one
        worker serves one connection at a time, so it must be *this*
        connection), then make sure the process is gone."""
        if client is not None:
            try:
                client.call(b'{"op": "shutdown"}\n')
            except OSError:
                pass
            client.close()
        else:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class WireClient:
    """One TCP connection, one request in flight (the closed loop)."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), OP_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, line: bytes) -> tuple[float, bytes]:
        """(seconds from send to the response's newline, raw response).

        Nothing is decoded inside the stopwatch.  With one request in
        flight the only newline is the last byte of the response.
        """
        chunks = []
        started = time.perf_counter()
        self.sock.sendall(line)
        while True:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        elapsed = time.perf_counter() - started
        return elapsed, b"".join(chunks)

    def close(self) -> None:
        self.sock.close()


# ----------------------------------------------------------------- statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summary_ms(values: list[float]) -> dict:
    """Median plus the advisory tails and the sample count, in ms."""
    return {
        "p50": percentile(values, 0.50) * 1e3,
        "p95": percentile(values, 0.95) * 1e3,
        "p99": percentile(values, 0.99) * 1e3,
        "n": len(values),
    }


# ---------------------------------------------------------------- environment


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def filesystem_type(path: Path) -> str:
    best, fstype = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        _dev, mount, kind = line.split()[:3]
        if str(path).startswith(mount) and len(mount) > len(best):
            best, fstype = mount, kind
    return fstype


def git_commit() -> str:
    try:
        command = ["git", "-C", str(ROOT), "rev-parse", "HEAD"]
        out = subprocess.run(command, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(work: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "store_filesystem": filesystem_type(work),
        "flush_policy": FLUSH_POLICY,
        "serve_command": "python -m repro.cli --store DIR --checkpoint-every "
        f"{CHECKPOINT_EVERY} serve " + " ".join(SERVE_ARGS),
        "clients": 1,
        "loop": "closed",
    }


def fresh_work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
