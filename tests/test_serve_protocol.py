"""The one request pipeline and the parity of the two serve topologies.

Three layers, cheapest first:

- socket-free unit tests of :func:`repro.serve.server.handle_line` — every
  op, every class of failure, the ``min_lsn`` fence, metering, and the
  hostile-input gate (no line of any kind may answer ``internal``);
- one request script replayed over real sockets against a threaded
  ``orpheus serve`` and a ``--workers 1`` pool over the same store, whose
  response lines must be byte-identical once the process-identity fields
  are masked;
- the two topologies' ``stats`` surfaces and the byte loop's frame bound.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import errors
from repro.cli.main import main
from repro.core.datamodels import MODEL_REGISTRY
from repro.obs import metrics
from repro.persist import Store
from repro.serve import ServeManager
from repro.serve.server import (
    KNOWN_OPS,
    MAX_LINE_BYTES,
    error_code,
    handle_line,
    rows_checksum,
)

from test_persist_readonly import build_store

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

pytestmark = pytest.mark.timeout(300)


def ask(manager, request) -> dict:
    """One request through the pipeline; the reply must be one JSON line."""
    line = request if isinstance(request, bytes) else json.dumps(request).encode()
    payload, bye = handle_line(manager, line)
    assert payload.endswith(b"\n") and payload.count(b"\n") == 1
    reply = json.loads(payload)
    assert bye == bool(reply.get("bye"))
    return reply


def counter(name: str) -> int:
    return metrics.registry().counter(name).value


def build_branched(path) -> int:
    """v1..v4 chained, then v5 and v6 both from v2 with conflicting edits
    of key ``a`` (100 vs 200); returns the store's last lsn."""
    store = build_store(path, versions=4)
    for value in (100, 200):
        store.orpheus.checkout("t", 2, table_name="w")
        store.orpheus.run(f"UPDATE w SET v = {value} WHERE k = 'a'")
        store.orpheus.commit("w", message=str(value))
    lsn = store.last_lsn
    store.close()
    return lsn


@pytest.fixture
def manager(tmp_path):
    build_branched(tmp_path / "s")
    with ServeManager(tmp_path / "s", readers=1, writer=False) as served:
        yield served


# ------------------------------------------------------------------ every op


class TestHandleLineOps:
    def test_ping_status_stats(self, manager):
        assert ask(manager, {"op": "ping"}) == {
            "ok": True, "pong": True, "pid": os.getpid(),
        }
        status = ask(manager, {"op": "status"})["status"]
        assert set(status) == {
            "path", "mode", "pid", "writer_lsn", "lsn", "requests",
            "refreshes", "readers", "sessions", "cache",
        }
        assert status["mode"] == "follower" and status["readers"] == 1
        assert status["lsn"] == status["sessions"][0]["lsn"] > 0
        stats = ask(manager, {"op": "stats"})["stats"]
        assert set(stats) == {"pid", "metrics"}
        assert "cache" in stats["metrics"]["serve"]

    def test_checkout_rows_checksum_and_vid_forms(self, manager):
        full = ask(manager, {"op": "checkout", "cvd": "t", "vids": [4]})
        assert list(full) == ["ok", "columns", "count", "lsn", "rows"]
        assert full["columns"] == ["rid", "k", "v"] and full["count"] == 5
        assert full["lsn"] > 0
        # A bare int is one version.
        assert ask(manager, {"op": "checkout", "cvd": "t", "vids": 4}) == full
        # rows:false keeps the payload off the wire but proves it.
        lean = ask(manager, {"op": "checkout", "cvd": "t", "vids": [4], "rows": False})
        assert "rows" not in lean and lean["count"] == full["count"]
        assert lean["checksum"] == rows_checksum(tuple(r) for r in full["rows"])

    def test_multi_vid_order_is_precedence(self, manager):
        first = ask(manager, {"op": "checkout", "cvd": "t", "vids": [5, 6]})
        second = ask(manager, {"op": "checkout", "cvd": "t", "vids": [6, 5]})
        assert {r[1]: r[2] for r in first["rows"]}["a"] == 100
        assert {r[1]: r[2] for r in second["rows"]}["a"] == 200

    def test_query_with_params(self, manager):
        reply = ask(
            manager,
            {
                "op": "query",
                "sql": "SELECT v FROM VERSION 4 OF CVD t WHERE k = ?",
                "params": ["b"],
            },
        )
        assert list(reply) == ["ok", "columns", "rows", "count", "lsn"]
        assert reply["rows"] == [[2]] and reply["count"] == 1

    def test_query_too_deep_to_compile_runs_on_the_interpreter(self, manager):
        for sql, rows in [
            ("SELECT " + " + ".join(["1"] * 100), [[100]]),
            ("SELECT " + " + ".join(["v"] * 100) + " FROM VERSION 4 OF CVD t"
             " WHERE k = 'b'", [[200]]),
        ]:
            reply = ask(manager, {"op": "query", "sql": sql})
            assert reply["ok"] and reply["rows"] == rows, reply

    def test_refresh_and_shutdown(self, manager):
        refreshed = ask(manager, {"op": "refresh"})
        assert refreshed["busy"] == 0
        assert refreshed["sessions"] == [{"id": 0, "lsn": manager.status()["lsn"]}]
        assert ask(manager, {"op": "shutdown"}) == {"ok": True, "bye": True}

    def test_requests_are_metered_per_op(self, manager):
        before = {op: counter(f"serve.requests.{op}") for op in (*KNOWN_OPS, "unknown")}
        ask(manager, {"op": "ping"})
        ask(manager, {"op": "frobnicate"})
        ask(manager, b"not json")
        assert counter("serve.requests.ping") == before["ping"] + 1
        assert counter("serve.requests.unknown") == before["unknown"] + 2
        histogram = metrics.registry().histogram("serve.request_seconds.ping")
        assert histogram.count >= 1


def test_a_served_read_leaves_no_cyclic_garbage(manager):
    """A long-lived worker's memory: whatever a request allocates (compiled
    kernels and the rid probe sets they close over, above all) must die by
    reference count when the reply is out, not wait for the cyclic GC."""
    requests = [
        {"op": "checkout", "cvd": "t", "vids": [3]},
        {"op": "checkout", "cvd": "t", "vids": [5, 6]},
        {"op": "query", "sql": "SELECT k, v FROM VERSION 4 OF CVD t WHERE v >= 1"},
        {
            "op": "query",
            "sql": "SELECT a.k FROM VERSION 4 OF CVD t AS a, VERSION 2 OF CVD t "
            "AS b WHERE a.k = b.k ORDER BY a.v DESC LIMIT 2",
        },
    ]
    gc.collect()
    gc.disable()
    try:
        for request in requests:
            assert ask(manager, request)["ok"]
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable < 10  # the parent left ~60 objects per query


# ------------------------------------------------------------ every failure


class TestHandleLineFailures:
    @pytest.mark.parametrize(
        "request_, code",
        [
            ({"op": "frobnicate"}, "unknown_op"),
            ({}, "unknown_op"),
            ({"op": "checkout", "vids": [1]}, "bad_request"),  # missing field
            ({"op": "checkout", "cvd": "t"}, "bad_request"),
            ({"op": "query"}, "bad_request"),
            ({"op": "checkout", "cvd": "t", "vids": []}, "bad_request"),
            ({"op": "checkout", "cvd": "nope", "vids": [1]}, "cvd_not_found"),
            ({"op": "checkout", "cvd": "t", "vids": [99]}, "version_not_found"),
            ({"op": "checkout", "cvd": "t", "vids": [1, 99]}, "version_not_found"),
            ({"op": "query", "sql": "SELEC 1"}, "sql_syntax"),
            ({"op": "query", "sql": "SELECT ²"}, "sql_syntax"),  # not decimal
            # Nested deeper than the parser recurses.
            ({"op": "query", "sql": "SELECT " + "(" * 200 + "1" + ")" * 200},
             "sql_syntax"),
            ({"op": "query", "sql": "SELECT " + "NOT " * 1200 + "TRUE"}, "sql_syntax"),
            # Parsed, but deeper than the executor's tree walks can take.
            ({"op": "query", "sql": "SELECT " + "NOT " * 500 + "TRUE"}, "sql_syntax"),
            (
                {
                    "op": "query",
                    "sql": "SELECT " + " + ".join(["v"] * 300)
                    + " FROM VERSION 4 OF CVD t",
                },
                "sql_syntax",
            ),
            ({"op": "query", "sql": "SELECT * FROM missing"}, "catalog"),
            ({"op": "query", "sql": "CREATE TABLE x (a int)"}, "read_only"),
            (
                {"op": "checkout", "cvd": "t", "vids": [1], "min_lsn": 10**9},
                "stale_read",
            ),
            # Operands the operator or function cannot take.
            ({"op": "query", "sql": "SELECT 7 % 0"}, "execution"),
            ({"op": "query", "sql": "SELECT 7.5 % 0.0"}, "execution"),
            ({"op": "query", "sql": "SELECT v % 0 FROM VERSION 4 OF CVD t"},
             "execution"),
            ({"op": "query", "sql": "SELECT abs(k) FROM VERSION 4 OF CVD t"},
             "execution"),
            ({"op": "query", "sql": "SELECT length(v) FROM VERSION 4 OF CVD t"},
             "execution"),
            ({"op": "query", "sql": "SELECT upper(v) FROM VERSION 4 OF CVD t"},
             "execution"),
            ({"op": "query", "sql": "SELECT sum(k) FROM VERSION 4 OF CVD t"},
             "execution"),
            ({"op": "query", "sql": "SELECT avg(k) FROM VERSION 4 OF CVD t"},
             "execution"),
            ({"op": "query", "sql": "SELECT unnest(v) FROM VERSION 4 OF CVD t"},
             "execution"),
            (
                {
                    "op": "query",
                    "sql": "SELECT min(x) FROM (SELECT k AS x FROM VERSION 4 OF CVD t"
                    " UNION ALL SELECT v FROM VERSION 4 OF CVD t) AS u",
                },
                "execution",
            ),
        ],
    )
    def test_typed_errors(self, manager, request_, code):
        before = counter(f"serve.errors.{code}")
        reply = ask(manager, request_)
        assert reply["ok"] is False and reply["code"] == code, reply
        assert set(reply) == {"ok", "error", "code"}
        assert counter(f"serve.errors.{code}") == before + 1
        # The connection (here: the manager) stays usable.
        assert ask(manager, {"op": "ping"})["pong"]

    def test_unexpected_exception_is_internal_not_a_crash(self, manager, monkeypatch):
        def boom():
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(manager, "status", boom)
        reply = ask(manager, {"op": "status"})
        assert reply == {
            "ok": False,
            "error": "internal error: RuntimeError: disk on fire",
            "code": "internal",
        }

    @pytest.mark.parametrize(
        "line",
        [b"[1,2]", b"5", b'"x"', b"null", b"true", b"{", b"\xff\xfe", b"[" * 100_000],
    )
    def test_not_a_json_object_is_bad_request(self, manager, line):
        reply = ask(manager, line)
        assert reply["code"] == "bad_request", reply

    @pytest.mark.parametrize(
        "field, value",
        [
            ("vids", "abc"),
            ("vids", [[1]]),
            ("vids", [1.5]),
            ("vids", [True]),
            ("vids", None),
            ("min_lsn", "9"),
            ("min_lsn", 1.0),
            ("cvd", 7),
            ("cvd", None),
            ("sql", ["SELECT 1"]),
            ("params", "x"),
            ("params", {"a": 1}),
            ("rows", "no"),
            ("rows", 0),
        ],
    )
    def test_ill_typed_field_is_bad_request_naming_it(self, manager, field, value):
        request = {
            "op": "query" if field in ("sql", "params") else "checkout",
            "cvd": "t",
            "vids": [1],
            "sql": "SELECT 1",
        }
        request[field] = value
        reply = ask(manager, request)
        assert reply["code"] == "bad_request", reply
        assert repr(field) in reply["error"]

    @pytest.mark.parametrize(
        "request_, text",
        [
            ({"op": "checkout", "cvd": "t"}, "'checkout' requires 'vids'"),
            ({"op": "checkout", "vids": [1]}, "'checkout' requires 'cvd'"),
            ({"op": "query", "params": [1]}, "'query' requires 'sql'"),
            ({"op": "checkout", "cvd": "t", "vids": []}, "non-empty list"),
        ],
    )
    def test_missing_field_is_bad_request_naming_it_and_the_op(
        self, manager, request_, text
    ):
        reply = ask(manager, request_)
        assert reply["code"] == "bad_request" and text in reply["error"], reply

    def test_oversized_line_is_refused(self, manager):
        reply = ask(manager, b'{"op": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}')
        assert reply["code"] == "bad_request" and "exceeds" in reply["error"]


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
#: Request-shaped objects: real field names, arbitrary values.
REQUEST_LIKE = st.fixed_dictionaries(
    {},
    optional={
        "op": st.sampled_from([*KNOWN_OPS[:-1], "nope"]) | JSON_VALUES,
        "cvd": st.sampled_from(["t", "nope"]) | JSON_VALUES,
        "vids": st.lists(st.integers(-2, 6), max_size=3) | JSON_VALUES,
        "sql": st.sampled_from(
            ["SELECT count(*) FROM VERSION 1 OF CVD t", "SELECT", "DROP TABLE t"]
        )
        | JSON_VALUES,
        "params": JSON_VALUES,
        "rows": JSON_VALUES,
        "min_lsn": JSON_VALUES,
        "trace": JSON_VALUES,
    },
)


class TestHostileInputGate:
    """ROADMAP aim 3(d), wire half: whatever arrives, the reply is one
    valid JSON line and never ``internal``."""

    @settings(max_examples=300, deadline=None)
    @example(line=b'{"op": "checkout", "cvd": "t", "vids": []}')
    @example(line=b'{"op": "checkout", "cvd": "t"}')
    @example(line=b'{"op": "query", "sql": "SELECT ?", "params": [[1], {"a": 1}]}')
    @given(
        line=st.binary(max_size=64)
        | JSON_VALUES.map(lambda v: json.dumps(v).encode())
        | REQUEST_LIKE.map(lambda v: json.dumps(v).encode())
    )
    def test_no_line_answers_internal(self, shared_manager, line):
        line = line.replace(b"\n", b" ").strip()
        before = counter("serve.errors.internal")
        reply = ask(shared_manager, line)
        assert reply.get("code") != "internal", (line, reply)
        assert counter("serve.errors.internal") == before

    @pytest.fixture(scope="class")
    def shared_manager(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "s"
        build_store(path, versions=4).close()
        with ServeManager(path, readers=1, writer=False) as served:
            yield served


# ---------------------------------------------------------------- the fence


class TestFence:
    def test_fence_admits_seen_lsn_and_catches_up_to_a_writer(self, tmp_path):
        writer = build_store(tmp_path / "s", versions=4)
        with ServeManager(tmp_path / "s", readers=1, writer=False) as served:
            seen = ask(served, {"op": "checkout", "cvd": "t", "vids": [4]})
            hit = ask(
                served,
                {"op": "checkout", "cvd": "t", "vids": [4], "min_lsn": seen["lsn"]},
            )
            assert hit == seen
            # Hold the only session still (no borrow-time refresh) while
            # the writer moves on: the fence alone must catch it up.
            writer.orpheus.checkout("t", 4, table_name="w")
            writer.orpheus.run("INSERT INTO w (k, v) VALUES ('z', 42)")
            writer.orpheus.commit("w", message="v5")
            with served.session(refresh=False) as session:
                assert session.last_lsn < writer.last_lsn
                session.ensure_lsn(writer.last_lsn)
                assert session.last_lsn == writer.last_lsn
            fresh = ask(
                served,
                {"op": "checkout", "cvd": "t", "vids": [5], "min_lsn": writer.last_lsn},
            )
            assert fresh["ok"] and fresh["count"] == 6
            assert fresh["lsn"] >= writer.last_lsn
            stale = ask(
                served,
                {"op": "query", "sql": "SELECT 1", "min_lsn": writer.last_lsn + 1},
            )
            assert stale["code"] == "stale_read"
        writer.close()


# ------------------------------------------------- unknown versions, 6 models


@pytest.mark.parametrize("model", [*sorted(MODEL_REGISTRY), "partitioned_rlist"])
def test_unknown_version_is_version_not_found_on_every_model(tmp_path, model):
    # LyreSplit partitions a split-by-rlist CVD; that is the seventh layout.
    partitioned = model == "partitioned_rlist"
    model = "split_by_rlist" if partitioned else model
    store = Store.open(tmp_path / "s")
    store.orpheus.init(
        "m", [("k", "text"), ("v", "int")], rows=[("a", 1), ("b", 2)],
        primary_key=("k",), model=model,
    )
    store.orpheus.checkout("m", 1, table_name="w")
    store.orpheus.run("INSERT INTO w (k, v) VALUES ('c', 3)")
    store.orpheus.commit("w", message="v2")
    if partitioned:
        store.orpheus.optimize("m")
        assert store.orpheus.cvd("m").model.model_name == "partitioned_rlist"
    for vids in ([99], [1, 99], [99, 1], 99):
        with pytest.raises(errors.VersionNotFoundError):
            store.orpheus.checkout_rows("m", vids)
    store.close()
    with ServeManager(tmp_path / "s", readers=1, writer=False) as served:
        for vids in ([99], [1, 99], 99):
            reply = ask(served, {"op": "checkout", "cvd": "m", "vids": vids})
            assert reply["code"] == "version_not_found", reply
        assert ask(served, {"op": "checkout", "cvd": "m", "vids": [2]})["count"] == 3


# ------------------------------------------------------------ the code table

#: Every error class the library can raise and the wire code it maps to;
#: README "Observability" prints the same table.
WIRE_CODES = {
    "ReproError": "repro",
    "StorageError": "storage",
    "SQLSyntaxError": "sql_syntax",
    "CatalogError": "catalog",
    "DuplicateObjectError": "duplicate_object",
    "TypeMismatchError": "type_mismatch",
    "ConstraintViolationError": "constraint_violation",
    "ExecutionError": "execution",
    "VersioningError": "versioning",
    "CVDNotFoundError": "cvd_not_found",
    "VersionNotFoundError": "version_not_found",
    "StagingError": "staging",
    "PermissionDeniedError": "permission_denied",
    "SchemaEvolutionError": "schema_evolution",
    "PartitionError": "partition",
    "InfeasibleBudgetError": "infeasible_budget",
    "WorkloadError": "workload",
    "PersistenceError": "persistence",
    "RecoveryError": "recovery",
    "StoreLockedError": "store_locked",
    "ReadOnlyError": "read_only",
    "StaleReadError": "stale_read",
}


def test_every_error_class_has_a_pinned_readable_code():
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.ReproError)
    }
    assert set(classes) == set(WIRE_CODES)
    readme = (ROOT / "README.md").read_text()
    for name, cls in classes.items():
        assert error_code(cls("x")) == WIRE_CODES[name]
        assert f"`{WIRE_CODES[name]}`" in readme, f"README lacks {WIRE_CODES[name]}"


# ------------------------------------------------------------ topology parity


class _Served:
    """A live ``orpheus serve`` subprocess."""

    def __init__(self, store: Path, *flags: str):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--store", str(store), "serve",
             "--port", "0", *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": SRC},
        )
        banner = self.process.stdout.readline()
        assert banner.startswith("serving "), (banner, self.process.stderr.read())
        self.port = int(banner.split(":")[-1].split()[0])

    def replay(self, lines: list[bytes]) -> list[bytes]:
        """Send ``lines`` down one connection; one response line each."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as conn:
            with conn.makefile("rb") as reader:
                replies = []
                for line in lines:
                    conn.sendall(line + b"\n")
                    replies.append(reader.readline())
        return replies

    def request(self, payload: dict) -> dict:
        return json.loads(self.replay([json.dumps(payload).encode()])[0])

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.request({"op": "shutdown"})
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
                self.process.kill()
                self.process.wait()


@pytest.fixture(scope="module")
def topologies(tmp_path_factory):
    """(threaded, prefork, tip lsn): both serve the same store read-only."""
    path = tmp_path_factory.mktemp("parity") / "s"
    lsn = build_branched(path)
    threaded = _Served(path, "--follow", "--readers", "1")
    prefork = _Served(path, "--workers", "1")
    try:
        yield threaded, prefork, lsn
    finally:
        threaded.stop()
        prefork.stop()


def script(lsn: int) -> list[bytes]:
    """The wire assertions both topologies used to repeat, as inputs."""
    requests = [
        {"op": "ping"},
        {"op": "checkout", "cvd": "t", "vids": [3]},
        {"op": "checkout", "cvd": "t", "vids": [3]},  # L1 hit
        {"op": "checkout", "cvd": "t", "vids": [4], "rows": False},
        {"op": "checkout", "cvd": "t", "vids": 4, "rows": True},
        {"op": "checkout", "cvd": "t", "vids": [5, 6]},
        {"op": "checkout", "cvd": "t", "vids": [6, 5]},
        {"op": "query", "sql": "SELECT count(*) FROM VERSION 1 OF CVD t"},
        {"op": "query", "sql": "SELECT k, v FROM VERSION 4 OF CVD t WHERE v >= ?",
         "params": [1], "trace": "abc123"},
        {"op": "checkout", "cvd": "t", "vids": [4], "min_lsn": lsn},
        {"op": "checkout", "cvd": "t", "vids": [4], "min_lsn": lsn + 1000},
        {"op": "query", "sql": "SELECT 1", "min_lsn": lsn + 1000},
        {"op": "checkout", "cvd": "nope", "vids": [1]},
        {"op": "checkout", "cvd": "t", "vids": [99]},
        {"op": "checkout", "vids": [1]},
        {"op": "checkout", "cvd": "t", "vids": "abc"},
        {"op": "checkout", "cvd": "t", "vids": [[1]]},
        {"op": "checkout", "cvd": "t", "vids": [1], "min_lsn": "9"},
        {"op": "query", "sql": "SELEC"},
        {"op": "query", "sql": "INSERT INTO nope VALUES (1)"},
        {"op": "frobnicate"},
        {"op": "refresh"},
        {"op": "status"},
    ]
    hostile = [b"[1,2]", b"5", b'"x"', b"null", b"{", b"\xff\xfe", b"{}"]
    by_array = "SELECT k FROM VERSION 4 OF CVD t WHERE ARRAY[v] <@ ? ORDER BY k"
    cached = [
        {"op": "query", "sql": by_array, "params": [[1, 2]]},
        {"op": "query", "sql": by_array, "params": [[1, 2]]},  # L1 hit
        {"op": "query", "sql": "SELECT ? AS x", "params": [1]},
        {"op": "query", "sql": "SELECT ? AS x", "params": [True]},
        {"op": "checkout", "cvd": "t", "vids": []},
        {"op": "checkout", "cvd": "t"},
    ]
    return [json.dumps(r).encode() for r in requests] + hostile + [
        json.dumps(r).encode() for r in cached
    ]


def masked(line: bytes) -> bytes:
    """A response line with process identity masked: ``pid``/``mode`` keep
    their key but not their value, ``worker`` (present only in a pre-fork
    worker) is dropped."""

    def mask(node):
        if isinstance(node, dict):
            return {
                key: "*" if key in ("pid", "mode") else mask(value)
                for key, value in node.items()
                if key != "worker"
            }
        return node

    return json.dumps(mask(json.loads(line))).encode()


def metric_names(node: dict, prefix: str = "") -> set[str]:
    names = set()
    for key, value in node.items():
        if isinstance(value, dict) and "buckets" not in value:
            names |= metric_names(value, f"{prefix}{key}.")
        else:
            names.add(f"{prefix}{key}")
    return names


class TestTopologyParity:
    def test_response_lines_are_byte_identical(self, topologies):
        threaded, prefork, lsn = topologies
        lines = script(lsn)
        from_threads = threaded.replay(lines)
        from_workers = prefork.replay(lines)
        for line, a, b in zip(lines, from_threads, from_workers):
            assert a.endswith(b"\n") and masked(a) == masked(b), line
        # Only the identity-bearing replies needed the mask at all.
        identical = sum(a == b for a, b in zip(from_threads, from_workers))
        assert identical == len(lines) - 2  # all but ping and status
        # Spot checks that the shared answers are the right ones.
        replies = [json.loads(a) for a in from_threads]
        assert replies[1]["count"] == 4 and replies[1]["columns"] == ["rid", "k", "v"]
        assert replies[3]["checksum"] == rows_checksum(
            tuple(row) for row in replies[4]["rows"]
        )
        # Vid order is precedence: the first listed wins key ``a``.
        assert [r[2] for r in replies[5]["rows"] if r[1] == "a"] == [100]
        assert [r[2] for r in replies[6]["rows"] if r[1] == "a"] == [200]
        assert replies[7]["rows"] == [[2]]
        assert replies[9]["ok"] and replies[10]["code"] == "stale_read"
        codes = [r.get("code") for r in replies[12:21]]
        assert codes == [
            "cvd_not_found", "version_not_found", "bad_request", "bad_request",
            "bad_request", "bad_request", "sql_syntax", "read_only", "unknown_op",
        ]
        assert all(r["code"] == "bad_request" for r in replies[23:29])
        assert replies[29]["code"] == "unknown_op"  # {} has no op
        # Array params key the cache (a repeat hits); 1 and true do not share.
        assert replies[30] == replies[31]
        assert replies[30]["rows"] == [["a"], ["b"], ["n1"], ["n2"]]
        assert [replies[32]["rows"], replies[33]["rows"]] == [[[1]], [[True]]]
        assert [r["code"] for r in replies[34:]] == ["bad_request"] * 2

    def test_status_and_ping_carry_the_unified_key_set(self, topologies):
        threaded, prefork, _lsn = topologies
        common = {
            "path", "mode", "pid", "writer_lsn", "lsn", "requests", "refreshes",
            "readers", "sessions", "cache",
        }
        assert set(threaded.request({"op": "status"})["status"]) == common
        status = prefork.request({"op": "status"})["status"]
        assert set(status) == common | {"worker"}
        assert status["mode"] == "prefork-worker" and status["worker"] == 0
        for server in (threaded, prefork):
            ping = server.request({"op": "ping"})
            assert ping["pid"] == server.request({"op": "stats"})["stats"]["pid"]
        assert prefork.request({"op": "stats"})["stats"]["worker"] == 0

    def test_stats_surfaces_name_the_same_metrics(self, topologies, capsys):
        threaded, prefork, _lsn = topologies
        names = {}
        for label, server in (("threaded", threaded), ("prefork", prefork)):
            for _ in range(2):  # miss, then L1 hit
                server.request({"op": "checkout", "cvd": "t", "vids": [1]})
            snapshot = server.request({"op": "stats"})["stats"]["metrics"]
            # Each process reports its own kernel code cache.
            assert set(snapshot["storage"]["kernel_code"]) == {
                "hits", "misses", "entries", "capacity",
            }
            names[label] = {
                name
                for name in metric_names(snapshot["serve"], "serve.")
                if not name.startswith("serve.prefork.")
            }
        assert names["threaded"] == names["prefork"]
        assert {"serve.cache.hits", "serve.cache.bytes",
                "serve.session_0.io.records_scanned",
                "serve.pool.in_flight"} <= names["prefork"]
        # The operator's view of the same worker, resident bytes included.
        assert main(["stats", "--connect", f"127.0.0.1:{prefork.port}"]) == 0
        cache = json.loads(capsys.readouterr().out)["serve"]["cache"]
        assert cache["hits"] > 0 and cache["bytes"] > 0

    def test_oversized_frame_is_refused_and_the_worker_survives(self, topologies):
        _threaded, prefork, _lsn = topologies
        pid = prefork.request({"op": "ping"})["pid"]
        with socket.create_connection(("127.0.0.1", prefork.port), timeout=30) as conn:
            received = b""
            try:
                conn.sendall(b"x" * (2 << 20))  # 2 MiB, never a newline
                while chunk := conn.recv(1 << 16):
                    received += chunk
            except ConnectionError:
                pass  # hung up on mid-send: also a refusal (a timeout is not)
        if received:
            assert json.loads(received)["code"] == "bad_request"
        # The same process answers the next connection: nothing died,
        # nothing was respawned, and the 2 MiB were not kept.
        assert prefork.request({"op": "ping"})["pid"] == pid
