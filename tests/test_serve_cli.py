"""End-to-end ``orpheus serve``: real process, real sockets, clean exit.

This is the CI serve smoke: start the server as a subprocess, drive
concurrent checkouts over TCP, request shutdown, and assert a clean exit.
"""

import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli.main import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Server-subprocess suite: generous per-module override of conftest's
# per-test default timeout.
pytestmark = pytest.mark.timeout(300)


@pytest.fixture
def populated_store(tmp_path):
    store = str(tmp_path / "state.orpheusdb")
    csv = tmp_path / "data.csv"
    csv.write_text("k,v\na,1\nb,2\nc,3\n")
    assert main(
        ["--store", store, "init", "-n", "t", "-f", str(csv), "-s", "k:text,v:int"]
    ) == 0
    assert main(["--store", store, "checkout", "t", "-v", "1", "-t", "w"]) == 0
    assert main(["--store", store, "run", "UPDATE w SET v = 9 WHERE k = 'a'"]) == 0
    assert main(["--store", store, "commit", "-t", "w", "-m", "v2"]) == 0
    return store


def tcp_request(port: int, payload: dict) -> dict:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(json.dumps(payload).encode() + b"\n")
        with conn.makefile("rb") as reader:
            return json.loads(reader.readline())


class TestServeCommand:
    def test_serve_smoke(self, populated_store):
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "--store",
                populated_store,
                "serve",
                "--readers",
                "3",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": SRC},
        )
        try:
            banner = server.stdout.readline()
            assert "serving" in banner, (banner, server.stderr.read())
            port = int(banner.split(":")[-1].split()[0])

            errors = []

            def client(worker: int):
                try:
                    for i in range(8):
                        vid = (worker + i) % 2 + 1
                        reply = tcp_request(
                            port, {"op": "checkout", "cvd": "t", "vids": [vid]}
                        )
                        assert reply["ok"] and reply["count"] == 3
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []

            status = tcp_request(port, {"op": "status"})["status"]
            assert status["cache"]["hits"] > 0

            assert tcp_request(port, {"op": "shutdown"})["ok"]
            assert server.wait(timeout=30) == 0
            assert "shutdown clean" in server.stdout.read()
        finally:
            if server.poll() is None:  # pragma: no cover - failure path
                server.kill()
                server.wait()

    def test_serve_refuses_second_writer_and_follow_works(self, populated_store):
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--store", populated_store, "serve"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": SRC},
        )
        try:
            banner = server.stdout.readline()
            port = int(banner.split(":")[-1].split()[0])
            # A second writer-mode server loses the lock race...
            second = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli",
                    "--store", populated_store, "serve",
                ],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": SRC},
                timeout=60,
            )
            assert second.returncode == 1
            assert "--follow" in second.stderr
            # ...while --follow serves read-only next to the live writer.
            follower = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli",
                    "--store", populated_store, "serve", "--follow",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={"PYTHONPATH": SRC},
            )
            try:
                follower_banner = follower.stdout.readline()
                assert "follower mode" in follower_banner
                follower_port = int(follower_banner.split(":")[-1].split()[0])
                reply = tcp_request(
                    follower_port, {"op": "checkout", "cvd": "t", "vids": [2]}
                )
                assert reply["ok"] and reply["count"] == 3
                assert tcp_request(follower_port, {"op": "shutdown"})["ok"]
                assert follower.wait(timeout=30) == 0
            finally:
                if follower.poll() is None:  # pragma: no cover
                    follower.kill()
                    follower.wait()
            assert tcp_request(port, {"op": "shutdown"})["ok"]
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:  # pragma: no cover - failure path
                server.kill()
                server.wait()

    def test_serve_ro_flag_forces_follower_mode(self, populated_store):
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "--store", populated_store, "--ro", "serve",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": SRC},
        )
        try:
            banner = server.stdout.readline()
            assert "follower mode" in banner, (banner, server.stderr.read())
            port = int(banner.split(":")[-1].split()[0])
            reply = tcp_request(port, {"op": "checkout", "cvd": "t", "vids": [1]})
            assert reply["ok"] and reply["count"] == 3
            assert tcp_request(port, {"op": "shutdown"})["ok"]
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:  # pragma: no cover - failure path
                server.kill()
                server.wait()


def test_cold_start_imports_no_numpy(tmp_path):
    """Nothing a server start imports pulls in numpy, whose import alone
    was about a third of a cold start.  A stub ``numpy`` sits on the path,
    so an import attempt is caught whether or not numpy is installed."""
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text("", encoding="utf-8")
    probe = "import sys, repro.cli.main, repro.serve; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": os.pathsep.join([SRC, str(tmp_path)])},
        check=True,
    )
    assert out.stdout.strip() == "False"
