"""The pre-fork worker pool: topology, lifecycle, sharing, freshness.

What must hold for ``orpheus serve --workers N``:

- one snapshot load total (the parent's); every worker's own
  ``persist.snapshot.loads`` is zero in steady state, observed through
  ``{"op": "stats"}`` on its pinned connection;
- a connection is served start-to-finish by one worker, so N concurrent
  connections land on N distinct pids;
- killing a worker with SIGKILL neither disturbs the other workers'
  in-flight connections nor shrinks the pool — the supervisor re-forks
  a replacement from the already-loaded template;
- SIGTERM to the pool drains cleanly (exit 0, every worker reaped);
- workers share no cache: each answers from its own L1 or computes, and
  two workers send the same checkout as the same bytes; the ``min_lsn``
  fence + per-request refresh keep follower workers from serving behind
  a client-observed lsn.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import metrics
from repro.persist import Store
from repro.serve import PreforkServer
from repro.serve.server import ServeClient, request

from invariants import assert_fence_honesty, assert_refresh_convergence
from test_persist_readonly import build_store

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Forked pools, real subprocesses, kill/respawn cycles: a generous
# per-module override of conftest's per-test default timeout.
pytestmark = pytest.mark.timeout(300)


@pytest.fixture
def store_path(tmp_path):
    store = build_store(tmp_path / "s", versions=4)
    store.close()
    return tmp_path / "s"


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def worker_metric(client: ServeClient, name: str) -> int:
    """One metric of the worker pinned to ``client``."""
    return metrics.lookup(client.request({"op": "stats"})["stats"]["metrics"], name)


def snapshot_loads(client: ServeClient) -> int:
    return worker_metric(client, "persist.snapshot.loads")


class TestPreforkEmbedded:
    def test_connections_pin_distinct_workers_with_zero_loads(self, store_path):
        with PreforkServer(store_path, workers=3) as server:
            host, port = server.address
            clients = [ServeClient(host, port) for _ in range(3)]
            try:
                pids = []
                for client in clients:
                    stats = client.request({"op": "stats"})["stats"]
                    pids.append(stats["pid"])
                # The shared accept queue + one-connection-at-a-time
                # worker loop give a client<->worker bijection.
                assert len(set(pids)) == 3
                assert set(pids) == set(server.worker_pids())
                # Steady state: the snapshot was loaded once, pre-fork,
                # in the parent; no worker ever loads it again.
                for client in clients:
                    client.request({"op": "checkout", "cvd": "t", "vids": [3]})
                    assert snapshot_loads(client) == 0
            finally:
                for client in clients:
                    client.close()

    def test_pinned_workers_each_compute_the_same_lines(self, store_path):
        """No cache spans workers: each computes the checkout once, then
        answers the other shape from its own L1, and both workers send
        byte-identical lines, full and lean."""
        full = {"op": "checkout", "cvd": "t", "vids": [4, 2]}
        lean = {**full, "rows": False}
        with PreforkServer(store_path, workers=2, cache_capacity=64) as server:
            conns = [
                socket.create_connection(server.address, timeout=30) for _ in range(2)
            ]
            readers = [conn.makefile("rb") for conn in conns]

            def line(index: int, payload: dict) -> bytes:
                conns[index].sendall(json.dumps(payload).encode() + b"\n")
                return readers[index].readline()

            try:
                pids = {json.loads(line(i, {"op": "ping"}))["pid"] for i in (0, 1)}
                assert len(pids) == 2
                sent = [[line(i, r) for r in (full, lean)] for i in (0, 1)]
                assert sent[0] == sent[1]
                assert json.loads(sent[0][0])["count"] == 5
                for i in (0, 1):
                    cache = json.loads(line(i, {"op": "status"}))["status"]["cache"]
                    assert (cache["misses"], cache["hits"]) == (1, 1)
            finally:
                for reader, conn in zip(readers, conns):
                    reader.close()
                    conn.close()

    def test_worker_metrics_see_real_reloads(self, store_path):
        # The stats snapshot nests dotted names, so a flat
        # ``snap.get("persist.snapshot.loads")`` would read 0 whatever
        # happened.
        with PreforkServer(store_path, workers=2, cache_capacity=64) as server:
            host, port = server.address
            first = ServeClient(host, port)
            second = ServeClient(host, port)
            try:
                assert (
                    first.request({"op": "stats"})["stats"]["pid"]
                    != second.request({"op": "stats"})["stats"]["pid"]
                )
                payload = {"op": "checkout", "cvd": "t", "vids": [4, 2]}
                assert first.request(payload)["ok"]
                assert second.request(payload)["ok"]
                # A checkpoint past the worker's lsn forces a full reload.
                writer = Store.open(store_path)
                writer.orpheus.checkout("t", 4, table_name="w_new")
                writer.orpheus.run("INSERT INTO w_new (k, v) VALUES ('z', 42)")
                writer.orpheus.commit("w_new", message="v5")
                writer.checkpoint()
                writer.close()
                assert snapshot_loads(second) == 0
                assert second.request({"op": "refresh"})["ok"]
                assert snapshot_loads(second) == 1
            finally:
                first.close()
                second.close()

    def test_capacity_zero_computes_every_request(self, store_path):
        with PreforkServer(store_path, workers=2, cache_capacity=0) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                for _ in range(2):
                    reply = client.request({"op": "checkout", "cvd": "t", "vids": [4]})
                    assert reply["ok"] and reply["count"] == 5
                status = client.request({"op": "status"})["status"]
            assert status["cache"]["entries"] == 0  # capacity 0 = disabled
            assert (status["cache"]["misses"], status["cache"]["hits"]) == (2, 0)

    def test_fence_and_follower_freshness(self, store_path):
        with PreforkServer(store_path, workers=2) as server:
            host, port = server.address
            seen = request(host, port, {"op": "checkout", "cvd": "t", "vids": [4]})
            # A watermark from the future is an error, not a stale answer.
            stale = request(
                host, port,
                {"op": "checkout", "cvd": "t", "vids": [4],
                 "min_lsn": seen["lsn"] + 1000},
            )
            assert not stale["ok"] and stale["code"] == "stale_read"
            # The chaos gate's fence invariant on the same probe.
            assert_fence_honesty(0, [(seen["lsn"] + 1000, stale)])

            # A writer in another process commits; every worker observes
            # the new lsn on its next request (per-request tail poll),
            # and the fence admits the new watermark.
            writer = Store.open(store_path)
            writer.orpheus.checkout("t", 4, table_name="w_new")
            writer.orpheus.run("INSERT INTO w_new (k, v) VALUES ('z', 42)")
            writer.orpheus.commit("w_new", message="v5")
            writer_lsn = writer.last_lsn
            writer.close()

            fresh = request(
                host, port,
                {"op": "checkout", "cvd": "t", "vids": [5],
                 "min_lsn": writer_lsn},
            )
            assert fresh["ok"] and fresh["lsn"] >= writer_lsn
            assert fresh["count"] == 6
            # And the chaos gate's convergence invariant: the serving
            # tier must reach the writer's durable tip within bounds.
            assert_refresh_convergence(
                refresh=lambda: request(host, port, {"op": "refresh"}),
                current_lsn=lambda: request(
                    host, port, {"op": "checkout", "cvd": "t", "vids": [4]}
                )["lsn"],
                target_lsn=writer_lsn,
            )

    def test_sigkill_worker_respawns_and_others_survive(self, store_path):
        with PreforkServer(store_path, workers=2) as server:
            host, port = server.address
            survivor = ServeClient(host, port)
            victim = ServeClient(host, port)
            try:
                survivor_pid = survivor.request({"op": "stats"})["stats"]["pid"]
                victim_pid = victim.request({"op": "stats"})["stats"]["pid"]
                assert survivor_pid != victim_pid

                os.kill(victim_pid, signal.SIGKILL)
                with pytest.raises((ConnectionError, OSError)):
                    victim.request({"op": "ping"})

                # The other worker's pinned connection never noticed.
                reply = survivor.request(
                    {"op": "checkout", "cvd": "t", "vids": [4]}
                )
                assert reply["ok"] and reply["count"] == 5

                # The supervisor re-forks; the pool returns to strength
                # with a brand-new pid — and the respawn did not reload
                # the snapshot either.
                assert wait_until(
                    lambda: len(server.worker_pids()) == 2
                    and victim_pid not in server.worker_pids()
                )
                assert server.respawns == 1
                replacement = ServeClient(host, port)
                try:
                    stats = replacement.request({"op": "stats"})["stats"]
                    assert stats["pid"] not in (survivor_pid, victim_pid)
                    assert snapshot_loads(replacement) == 0
                finally:
                    replacement.close()
            finally:
                survivor.close()
                victim.close()

    def test_crash_loop_exhausts_respawn_limit(self, store_path):
        """A pool that keeps dying must be a bounded, visible failure:
        past the respawn limit the supervisor records the cause and
        winds the whole pool down instead of respawning forever."""
        with PreforkServer(store_path, workers=2, respawn_limit=1) as server:
            for _ in range(2):
                victim_pid = server.worker_pids()[0]
                os.kill(victim_pid, signal.SIGKILL)
                assert wait_until(
                    lambda: victim_pid not in server.worker_pids()
                )
            assert wait_until(lambda: server.failure is not None)
            assert "signal 9" in server.failure
            assert "respawn limit 1 exhausted" in server.failure
            assert server.respawns == 1
            assert wait_until(lambda: not server.worker_pids())


class TestPreforkCli:
    def _start(self, store, *extra):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "--store", str(store), "serve", "--workers", "4", *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": SRC},
        )

    def test_cli_concurrent_checkouts_and_shutdown_op(self, store_path):
        server = self._start(store_path)
        try:
            banner = server.stdout.readline()
            assert "prefork mode" in banner, (banner, server.stderr.read())
            port = int(banner.split(":")[-1].split()[0])

            clients = [ServeClient("127.0.0.1", port) for _ in range(4)]
            try:
                pids = {
                    c.request({"op": "stats"})["stats"]["pid"] for c in clients
                }
                assert len(pids) == 4
                for step, client in enumerate(clients):
                    reply = client.request(
                        {"op": "checkout", "cvd": "t", "vids": [step % 4 + 1]}
                    )
                    assert reply["ok"] and reply["count"] >= 2
            finally:
                for client in clients:
                    client.close()

            # The shutdown op winds down the whole pool, workers first.
            with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
                conn.sendall(json.dumps({"op": "shutdown"}).encode() + b"\n")
                with conn.makefile("rb") as reader:
                    assert json.loads(reader.readline())["ok"]
            assert server.wait(timeout=30) == 0
            assert "shutdown clean" in server.stdout.read()
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        finally:
            if server.poll() is None:  # pragma: no cover - failure path
                server.kill()
                server.wait()

    def test_cli_crash_loop_exits_nonzero_with_cause(self, store_path):
        """``orpheus serve`` must not hang or report success when its
        pool crash-loops: past the limit it logs the dead worker's pid
        and signal on stderr and exits 1 (so CI and supervisors see it)."""
        server = self._start(store_path, "--respawn-limit", "0")
        try:
            banner = server.stdout.readline()
            assert "prefork mode" in banner, (banner, server.stderr.read())
            port = int(banner.split(":")[-1].split()[0])
            client = ServeClient("127.0.0.1", port)
            try:
                worker_pid = client.request({"op": "stats"})["stats"]["pid"]
            finally:
                client.close()

            os.kill(worker_pid, signal.SIGKILL)
            assert server.wait(timeout=30) == 1
            stderr = server.stderr.read()
            assert "error:" in stderr
            assert str(worker_pid) in stderr
            assert "signal 9" in stderr
        finally:
            if server.poll() is None:  # pragma: no cover - failure path
                server.kill()
                server.wait()

    def test_cli_sigterm_drains_cleanly(self, store_path):
        server = self._start(store_path)
        try:
            banner = server.stdout.readline()
            port = int(banner.split(":")[-1].split()[0])
            client = ServeClient("127.0.0.1", port)
            try:
                worker_pid = client.request({"op": "stats"})["stats"]["pid"]
                assert client.request({"op": "ping"})["ok"]
            finally:
                client.close()

            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
            assert "shutdown clean" in server.stdout.read()
            with pytest.raises(ProcessLookupError):
                os.kill(worker_pid, 0)
        finally:
            if server.poll() is None:  # pragma: no cover - failure path
                server.kill()
                server.wait()
