"""The observability layer: metrics, traces, and the live stats surface.

Three contracts matter most and get the closest scrutiny here:

* **Zero drift** — pulling IOStats/CacheStats into the registry must not
  change a single counter (the gated benchmark figures are byte-identical
  by construction); the hypothesis property at the bottom pins that.
* **Deterministic shape** — histogram snapshots have fixed bucket edges,
  so schema checks (and the CI stats-endpoint gate) can match exactly.
* **End-to-end propagation** — a client-supplied trace id rides a real
  ServeServer request down into the span stream.
"""

import json
import logging
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.orpheus as orpheus_module
from repro.core.orpheus import OrpheusDB
from repro.errors import ReadOnlyError, StoreLockedError
from repro.obs import (
    DURATION_BUCKETS,
    Histogram,
    JsonFormatter,
    MetricsRegistry,
    metrics,
    render_prometheus,
    trace,
)
from repro.serve import CheckoutCache, ServeManager, ServeServer, request
from repro.serve.server import error_code
from repro.storage.compile import CODE_CACHE_SIZE
from repro.storage.iostats import IOStats

from test_persist_readonly import build_store


# ----------------------------------------------------------------- metrics


class TestHistogram:
    def test_bucket_edges_are_le_semantics(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 7.0):
            hist.observe(value)
        snap = hist.snapshot_value()
        # Cumulative like Prometheus: an observation lands in the first
        # bucket whose edge is >= the value; 7.0 overflows into +Inf.
        assert snap["buckets"] == {"1.0": 2, "2.0": 3, "5.0": 3, "+Inf": 4}
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(10.0)
        assert snap["min"] == 0.5 and snap["max"] == 7.0

    def test_edges_sorted_and_validated(self):
        hist = Histogram("h", buckets=(5.0, 1.0, 2.0))
        assert hist.edges == (1.0, 2.0, 5.0)
        with pytest.raises(ValueError):
            Histogram("empty", buckets=())

    def test_quantile_returns_bucket_edge(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 5.0))
        assert hist.quantile(0.5) is None  # empty
        for value in (0.5, 0.6, 1.5, 7.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0  # 2nd of 4 obs is in the le=1 bucket
        assert hist.quantile(0.75) == 2.0
        assert hist.quantile(1.0) == 7.0  # overflow bucket reports the max

    def test_default_buckets_cover_serve_latencies(self):
        assert DURATION_BUCKETS[0] <= 0.001 <= DURATION_BUCKETS[-1]
        assert tuple(sorted(DURATION_BUCKETS)) == DURATION_BUCKETS


class TestRegistry:
    def test_snapshot_nests_dotted_names(self):
        reg = MetricsRegistry()
        reg.counter("a.b.c").inc(3)
        reg.gauge("a.g").set(7)
        assert reg.snapshot() == {"a": {"b": {"c": 3}, "g": 7}}

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_since_matches_iostats_semantics(self):
        # The registry's since() has the same contract as IOStats.since:
        # counter-like leaves subtract, level-like leaves (gauges,
        # histogram min/max) report their current value.
        reg = MetricsRegistry()
        counter = reg.counter("ops")
        gauge = reg.gauge("in_flight")
        hist = reg.histogram("lat", buckets=(1.0,))
        counter.inc(5)
        gauge.set(2)
        hist.observe(0.5)
        earlier = reg.snapshot()
        counter.inc(3)
        gauge.set(9)
        hist.observe(2.0)
        delta = reg.since(earlier)
        assert delta["ops"] == 3
        assert delta["in_flight"] == 9  # a delta of a level has no meaning
        assert delta["lat"]["count"] == 1
        assert delta["lat"]["min"] == 0.5 and delta["lat"]["max"] == 2.0
        assert delta["lat"]["buckets"]["+Inf"] == 1

    def test_collector_pull_and_since(self):
        reg = MetricsRegistry()
        stats = IOStats()
        reg.register_collector("engine.io", stats.as_dict)
        stats.records_scanned += 10
        earlier = reg.snapshot()
        assert earlier["engine"]["io"]["records_scanned"] == 10
        stats.records_scanned += 7
        stats.index_probes += 2
        delta = reg.since(earlier)["engine"]["io"]
        expected = stats.since(IOStats(records_scanned=10))
        assert delta == dict(vars(expected))

    def test_collector_unregister_guards_callable(self):
        # A manager closed after a fresh one registered the same name must
        # not tear the fresh one down (last-wins registration).
        reg = MetricsRegistry()
        first = lambda: {"v": 1}  # noqa: E731
        second = lambda: {"v": 2}  # noqa: E731
        reg.register_collector("c", first)
        reg.register_collector("c", second)
        reg.unregister_collector("c", first)
        assert reg.snapshot() == {"c": {"v": 2}}
        reg.unregister_collector("c", second)
        assert reg.snapshot() == {}

    def test_failing_collector_does_not_break_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("ok").inc()

        def boom():
            raise RuntimeError("store closed mid-snapshot")

        reg.register_collector("dead", boom)
        snap = reg.snapshot()
        assert snap["ok"] == 1
        assert snap["dead"] == {"error": "collector failed"}

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests.ping").inc(2)
        reg.histogram("serve.request_seconds.ping", buckets=(1.0,)).observe(0.5)
        text = render_prometheus(reg.snapshot())
        assert "repro_serve_requests_ping 2" in text
        assert 'repro_serve_request_seconds_ping_bucket{le="1.0"} 1' in text
        assert "repro_serve_request_seconds_ping_count 1" in text


# ------------------------------------------------------- zero-drift shim


class TestIOStatsShimBitIdentity:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(sorted(vars(IOStats()))),
                st.integers(min_value=1, max_value=1_000),
            ),
            max_size=30,
        )
    )
    def test_snapshotting_never_perturbs_counters(self, ops):
        # The whole point of the pull-style shim: charging IOStats and
        # snapshotting the registry in any interleaving leaves the
        # counters bit-identical to an unobserved IOStats fed the same
        # increments — observation must not perturb the observed.
        observed = IOStats()
        control = IOStats()
        reg = MetricsRegistry()
        reg.register_collector("engine.io", observed.as_dict)
        for field, amount in ops:
            setattr(observed, field, getattr(observed, field) + amount)
            setattr(control, field, getattr(control, field) + amount)
            snap = reg.snapshot()["engine"]["io"]
            assert snap == dict(vars(control))
        assert vars(observed) == vars(control)


# ------------------------------------------------------------------ spans


class _CaptureHandler(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.spans = []
        self._lock2 = threading.Lock()

    def emit(self, record):
        payload = getattr(record, "repro_span", None)
        if payload is not None:
            with self._lock2:
                self.spans.append(payload)


@pytest.fixture
def captured_spans():
    handler = _CaptureHandler()
    logger = logging.getLogger("repro.trace")
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield handler.spans
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


class TestTraceSpans:
    def test_nesting_shares_trace_id_and_links_parents(self, captured_spans):
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert trace.current_span() is inner
        assert trace.current_span() is None
        # Children close first, so they are emitted first.
        assert [payload["span"] for payload in captured_spans] == [
            "inner",
            "outer",
        ]
        assert captured_spans[0]["parent_id"] == captured_spans[1]["span_id"]

    def test_explicit_trace_id_pins_the_trace(self, captured_spans):
        with trace.span("request", trace_id="feedc0de", op="ping"):
            with trace.span("child"):
                assert trace.current_trace_id() == "feedc0de"
        assert all(p["trace_id"] == "feedc0de" for p in captured_spans)
        assert captured_spans[-1]["op"] == "ping"

    def test_unconfigured_spans_cost_nothing_visible(self):
        # No DEBUG handler: the span must still nest and time correctly.
        with trace.span("quiet") as quiet:
            assert quiet.trace_id

    def test_json_formatter_emits_parseable_span_lines(self, captured_spans):
        with trace.span("fmt", cvd="t"):
            pass
        record = logging.LogRecord(
            "repro.trace", logging.DEBUG, __file__, 1, "span fmt", (), None
        )
        record.repro_span = captured_spans[-1]
        line = json.loads(JsonFormatter().format(record))
        assert line["span"] == "fmt" and line["cvd"] == "t"
        assert line["level"] == "DEBUG" and "duration_ms" in line


# ----------------------------------------------------- serve stats surface


def _histogram_shaped(node: dict) -> bool:
    return (
        isinstance(node.get("buckets"), dict)
        and "+Inf" in node["buckets"]
        and node["count"] == node["buckets"]["+Inf"]
    )


class TestServeStatsEndpoint:
    @pytest.fixture
    def server(self, tmp_path):
        build_store(tmp_path / "s").close()
        manager = ServeManager(tmp_path / "s", readers=2)
        srv = ServeServer(manager).start()
        try:
            yield srv
        finally:
            srv.shutdown()

    def test_stats_op_serves_the_full_snapshot(self, server):
        host, port = server.address
        for _ in range(2):  # miss then hit
            assert request(host, port, {"op": "checkout", "cvd": "t", "vids": [1]})[
                "ok"
            ]
        reply = request(host, port, {"op": "stats"})
        assert reply["ok"]
        stats = reply["stats"]
        assert isinstance(stats["pid"], int)
        serve = stats["metrics"]["serve"]
        # Cache counters (the CacheStats shim) with the live entry count.
        assert serve["cache"]["hits"] >= 1 and serve["cache"]["misses"] >= 1
        assert serve["cache"]["entries"] >= 1
        # Per-op request counters and latency histograms.
        assert serve["requests"]["checkout"] >= 2
        assert _histogram_shaped(serve["request_seconds"]["checkout"])
        assert serve["request_seconds"]["checkout"]["count"] >= 2
        # Pool instrumentation and per-session engine I/O.
        assert _histogram_shaped(serve["pool"]["borrow_wait_seconds"])
        assert serve["pool"]["in_flight"] >= 0
        assert serve["session_0"]["io"]["records_scanned"] >= 0
        assert "records_scanned" in serve["writer"]["io"]
        # The snapshot must round-trip the wire as plain JSON (it already
        # did once to get here) and render as Prometheus text.
        text = render_prometheus(stats["metrics"])
        assert "repro_serve_cache_hits" in text
        assert "repro_serve_request_seconds_checkout_count" in text

    def test_a_literal_only_change_reuses_the_kernel_code(self, server):
        host, port = server.address

        def kernel_code():
            stats = request(host, port, {"op": "stats"})["stats"]
            return stats["metrics"]["storage"]["kernel_code"]

        sql = "SELECT k FROM VERSION 2 OF CVD t WHERE v > {} ORDER BY k"
        assert request(host, port, {"op": "query", "sql": sql.format(0)})["ok"]
        before = kernel_code()
        reply = request(host, port, {"op": "query", "sql": sql.format(1)})
        assert reply["rows"] == [["b"]]
        after = kernel_code()
        # Same kernel sources, another constant: reused, not compiled.
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]
        assert after["capacity"] == CODE_CACHE_SIZE
        assert 0 < after["entries"] <= after["capacity"]

    def test_trace_id_propagates_through_a_live_request(
        self, server, captured_spans
    ):
        host, port = server.address
        assert request(host, port, {"op": "ping", "trace": "abc123"})["pong"]
        # The span closes before the response line is flushed, so it is
        # in the stream by the time the client sees the reply.
        roots = [p for p in captured_spans if p["span"] == "serve.request"]
        assert any(p["trace_id"] == "abc123" and p["op"] == "ping" for p in roots)

    def test_errors_carry_stable_codes_and_are_counted(self, server):
        host, port = server.address
        reply = request(host, port, {"op": "frobnicate"})
        assert reply == {
            "ok": False,
            "error": "unknown op 'frobnicate'",
            "code": "unknown_op",
        }
        # Missing required field -> bad_request, connection stays usable.
        reply = request(host, port, {"op": "checkout", "vids": [1]})
        assert not reply["ok"] and reply["code"] == "bad_request"
        stats = request(host, port, {"op": "stats"})["stats"]["metrics"]
        assert stats["serve"]["errors"]["unknown_op"] >= 1
        assert stats["serve"]["errors"]["bad_request"] >= 1
        # Unknown ops bucket under one metric label; they cannot mint
        # unbounded counter names.
        assert "frobnicate" not in stats["serve"]["requests"]
        assert stats["serve"]["requests"]["unknown"] >= 1


class TestErrorCode:
    def test_codes_track_the_exception_hierarchy(self):
        assert error_code(ReadOnlyError("x")) == "read_only"
        assert error_code(StoreLockedError("x")) == "store_locked"
        assert error_code(ValueError("x")) == "value"


# --------------------------------------------------- cache stats torn reads


class TestCacheStatsConcurrency:
    def test_stats_dict_is_consistent_under_hammering(self):
        cache = CheckoutCache(capacity=32)
        stop = threading.Event()
        gets_done = [0] * 4

        def hammer(worker: int) -> None:
            n = 0
            while not stop.is_set():
                key = ("checkout", "t", (n % 64,), worker)
                if cache.get(key) is None:
                    cache.put(key, [n])
                gets_done[worker] += 1
                n += 1

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            last_total = 0
            for _ in range(200):
                snap = cache.stats_dict()
                assert set(snap) == {
                    "hits",
                    "misses",
                    "evictions",
                    "invalidated",
                    "entries",
                    "bytes",
                }
                assert all(
                    isinstance(v, int) and v >= 0 for v in snap.values()
                )
                assert snap["entries"] <= cache.capacity
                # Every value is a one-element list (len 1), so a torn
                # byte count would show as bytes != entries.
                assert snap["bytes"] == snap["entries"]
                total = snap["hits"] + snap["misses"]
                # Counters only grow, and the atomic snapshot never tears
                # a hit/miss pair (a torn read could go backwards).
                assert total >= last_total
                last_total = total
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        snap = cache.stats_dict()
        assert snap["hits"] + snap["misses"] == sum(gets_done)


# ------------------------------------------------ partition maintenance


class TestMaintenanceSeconds:
    """``partition.maintenance_seconds``: one observation per commit of a
    CVD a live optimizer manages (the post-commit tolerance check), none
    for any other commit, and no gated counter moved by observing it."""

    @staticmethod
    def observations() -> int:
        node = metrics.registry().snapshot().get("partition", {})
        return node.get("maintenance_seconds", {}).get("count", 0)

    @staticmethod
    def commits(orpheus, cvd: str, count: int) -> None:
        for vid in range(1, count + 1):
            orpheus.checkout(cvd, [vid], table_name="w")
            orpheus.run(f"UPDATE w SET v = v + {vid} WHERE k < 5")
            orpheus.commit("w")

    def session(self) -> OrpheusDB:
        orpheus = OrpheusDB()
        rows = [(k, k) for k in range(40)]
        for cvd in ("p", "q"):
            orpheus.init(cvd, [("k", "int"), ("v", "int")], rows=rows)
        orpheus.optimize("p")
        return orpheus

    def test_one_observation_per_commit_of_an_optimized_cvd(self):
        orpheus = self.session()
        before = self.observations()
        self.commits(orpheus, "p", 3)
        assert self.observations() == before + 3
        self.commits(orpheus, "q", 3)
        assert self.observations() == before + 3
        node = metrics.registry().snapshot()["partition"]["maintenance_seconds"]
        assert _histogram_shaped(node)

    def test_observing_moves_no_gated_counter(self, monkeypatch):
        def io_after_commits() -> dict:
            orpheus = self.session()
            self.commits(orpheus, "p", 3)
            return dict(vars(orpheus.db.stats))

        observed = io_after_commits()

        class Unobserved:
            def observe(self, value):
                pass

        monkeypatch.setattr(orpheus_module, "_MAINTENANCE_SECONDS", Unobserved())
        assert io_after_commits() == observed
