"""Metrics registry: counters, gauges, and bounded histograms.

The paper's whole evaluation reasons in *counted work* — records touched,
partitions scanned, checkout cost (Sections 4.1 and 6) — and the repro
mirrors that with :class:`~repro.storage.iostats.IOStats`.  This module
generalizes the idea to every layer: one process-wide
:class:`MetricsRegistry` that the WAL, the snapshot writer, the store's
recovery/refresh paths, and the serving layer all charge into, and that
can be snapshotted as a single nested dict (the ``{"op": "stats"}`` serve
endpoint, ``orpheus stats``) or rendered as Prometheus text.

Design constraints, in order:

* **Zero logical-I/O drift.**  Nothing here touches :class:`IOStats` or any
  gated benchmark counter.  Engine I/O enters the registry *pull-style*
  via :func:`MetricsRegistry.register_collector` — the existing counters
  are read at snapshot time, never re-routed, so the benches' deterministic
  figures stay byte-identical.
* **Deterministic-friendly output.**  Histograms use fixed bucket edges
  chosen up front, so two runs of the same workload produce snapshots with
  the same *shape* (keys, bucket boundaries) even when the timings differ.
* **Cheap.**  A counter increment is one lock acquire and an int add; hot
  paths (a WAL fsync, a serve request) dwarf it by orders of magnitude.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Any, Callable, Iterable

#: Default histogram edges for durations in seconds: 100 µs .. 10 s, a
#: 1-2.5-5 ladder like Prometheus's defaults.  Observations above the last
#: edge land in the implicit +Inf bucket.
DURATION_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing integer."""

    kind = "counter"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot_value(self) -> int:
        return self._value


class Gauge:
    """A value that goes up and down (pool occupancy, in-flight requests)."""

    kind = "gauge"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot_value(self) -> float:
        return self._value


class Histogram:
    """A bounded histogram over fixed, pre-declared bucket edges.

    Buckets are cumulative-style on snapshot like Prometheus (``le`` —
    an observation lands in the first bucket whose edge is >= the value);
    internally counts are per-bucket so :meth:`quantile` can walk them.
    The edge list is fixed at construction, so snapshot *shape* is
    deterministic even though observed durations are not.
    """

    kind = "histogram"
    __slots__ = ("name", "edges", "_counts", "_sum", "_count", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Iterable[float] = DURATION_BUCKETS):
        self.name = name
        edges = tuple(sorted(float(edge) for edge in buckets))
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        self.edges = edges
        self._counts = [0] * (len(edges) + 1)  # +1: the +Inf overflow bucket
        self._sum = 0.0
        self._count = 0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.edges, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    def quantile(self, q: float) -> float | None:
        """Deterministic bucket-edge quantile estimate (None when empty).

        Returns the upper edge of the bucket containing the q-th
        observation — for the overflow bucket, the observed max.  Exact
        per-observation quantiles would need unbounded storage; the edge
        estimate is what the fixed-bucket design trades for boundedness.
        """
        with self._lock:
            total = self._count
            if not total:
                return None
            rank = q * total
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= rank and bucket_count:
                    if index < len(self.edges):
                        return self.edges[index]
                    return self._max
            return self._max

    def snapshot_value(self) -> dict:
        with self._lock:
            cumulative = 0
            buckets = {}
            for edge, bucket_count in zip(self.edges, self._counts):
                cumulative += bucket_count
                buckets[repr(edge)] = cumulative
            buckets["+Inf"] = cumulative + self._counts[-1]
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": buckets,
            }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """A process-wide catalog of named metrics plus pull-style collectors.

    Metric names are dotted paths (``persist.wal.appends``); ``snapshot``
    nests them into one dict.  Collectors are callables returning a plain
    dict of int/float leaves, merged in at snapshot time under their own
    dotted name — that is how :class:`IOStats` and the serve cache's
    counters appear in the snapshot without their hot paths changing at
    all (the shim that keeps gated bench counters byte-identical).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}
        self._collectors: dict[str, Callable[[], dict]] = {}
        #: Bumped by :meth:`reset` so :class:`_LazyMetric` handles drop any
        #: cached metric object that no longer lives in ``_metrics``.
        self._generation = 0

    # ------------------------------------------------------------- creation

    def _get_or_create(self, name: str, factory: Callable[[], Metric]) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        metric = self._get_or_create(name, lambda: Counter(name))
        if not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a counter")
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get_or_create(name, lambda: Gauge(name))
        if not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a gauge")
        return metric

    def histogram(
        self, name: str, buckets: Iterable[float] = DURATION_BUCKETS
    ) -> Histogram:
        metric = self._get_or_create(name, lambda: Histogram(name, buckets))
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a histogram")
        return metric

    def register_collector(self, name: str, collect: Callable[[], dict]) -> None:
        """Attach a pull-style source under dotted ``name`` (last wins —
        serving tests open managers back to back and the fresh one is the
        one that should report)."""
        with self._lock:
            self._collectors[name] = collect

    def unregister_collector(
        self, name: str, collect: Callable[[], dict] | None = None
    ) -> None:
        """Detach a collector; with ``collect`` given, only if it is still
        the registered one (a later registrant must not be torn down by an
        earlier owner's close)."""
        with self._lock:
            if collect is None or self._collectors.get(name) is collect:
                self._collectors.pop(name, None)

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> dict:
        """The whole registry as one nested dict of plain values."""
        with self._lock:
            metrics = list(self._metrics.items())
            collectors = list(self._collectors.items())
        out: dict = {}
        for name, metric in metrics:
            _assign(out, name, metric.snapshot_value())
        for name, collect in collectors:
            try:
                _assign(out, name, dict(collect()))
            except Exception:
                # A collector may outlive its source mid-teardown (a store
                # closed between listing and calling); stats must never
                # take the server down.
                _assign(out, name, {"error": "collector failed"})
        return out

    def since(self, earlier: dict) -> dict:
        """Counter deltas accumulated after ``earlier`` was snapshotted.

        The same contract as :meth:`IOStats.since`: counter-like leaves
        (counters, histogram counts/sums/buckets, collector output)
        subtract; gauges and histogram min/max report their *current*
        value — a delta of a level has no meaning.
        """
        current = self.snapshot()
        delta = _diff(current, earlier)
        with self._lock:
            gauges = [
                name for name, metric in self._metrics.items()
                if metric.kind == "gauge"
            ]
        for name in gauges:
            # Levels pass through: restore the current value that _diff
            # just subtracted (gauge leaves are plain numbers in the
            # snapshot, indistinguishable from counters by shape).
            _assign(delta, name, lookup(current, name))
        return delta

    def reset(self) -> None:
        """Drop every metric and collector (test isolation)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()
            self._generation += 1


def lookup(snapshot: dict, dotted: str, default: Any = 0) -> Any:
    """The value a dotted metric name holds in a nested :meth:`snapshot`
    (local or a server's ``{"op": "stats"}``), ``default`` when absent."""
    node: Any = snapshot
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def _assign(out: dict, dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = out
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    leaf = parts[-1]
    if isinstance(value, dict) and isinstance(node.get(leaf), dict):
        node[leaf].update(value)
    else:
        node[leaf] = value


#: Histogram-snapshot keys that are levels, not accumulations: ``since``
#: passes the current value through instead of subtracting.
_LEVEL_KEYS = frozenset({"min", "max"})


def _diff(current: Any, earlier: Any) -> Any:
    if isinstance(current, dict):
        out = {}
        earlier = earlier if isinstance(earlier, dict) else {}
        for key, value in current.items():
            if key in _LEVEL_KEYS:
                out[key] = value
            else:
                out[key] = _diff(value, earlier.get(key))
        return out
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        return current
    if isinstance(earlier, (int, float)) and not isinstance(earlier, bool):
        return current - earlier
    return current


# ------------------------------------------------------------- prometheus


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Render a registry snapshot in Prometheus text exposition format.

    Works from the *snapshot* (not the registry) so remote snapshots —
    the ``{"op": "stats"}`` payload of a live server — render identically
    to local ones.  Histogram-shaped subtrees become ``_bucket``/``_sum``/
    ``_count`` series; every other numeric leaf becomes an untyped sample.
    """
    lines: list[str] = []

    def walk(node: Any, path: list[str]) -> None:
        if isinstance(node, dict):
            if _is_histogram_snapshot(node):
                name = "_".join([prefix, *path])
                lines.append(f"# TYPE {name} histogram")
                for edge, cumulative in node["buckets"].items():
                    lines.append(f'{name}_bucket{{le="{edge}"}} {cumulative}')
                lines.append(f"{name}_sum {_number(node['sum'])}")
                lines.append(f"{name}_count {node['count']}")
                return
            for key in node:
                walk(node[key], path + [_sanitize(key)])
            return
        if isinstance(node, bool) or node is None:
            return
        if isinstance(node, (int, float)):
            lines.append(f"{'_'.join([prefix, *path])} {_number(node)}")

    walk(snapshot, [])
    return "\n".join(lines) + "\n"


def _is_histogram_snapshot(node: dict) -> bool:
    return (
        isinstance(node.get("buckets"), dict)
        and "count" in node
        and "sum" in node
    )


def _sanitize(key: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in str(key))


def _number(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


# ------------------------------------------------------- default registry

#: The process-wide default registry.  Like Prometheus's default
#: collector registry: library layers charge into it unconditionally, and
#: each OS process (a multiprocess serve worker, a bench fork) owns its
#: own — which is exactly the per-worker attribution the serve layer
#: exposes.  Tests read before/after deltas rather than absolute values.
_DEFAULT = MetricsRegistry()
#: Pid that owns ``_DEFAULT``.  A forked child (a pre-fork serve worker)
#: must not keep charging into — or snapshotting — the parent's copied
#: registry: its counters would double-report work the parent already
#: did (the snapshot load it *inherited* rather than performed), and its
#: locks may have been captured mid-acquire by another parent thread at
#: fork time.  The first ``registry()`` call in a new pid therefore
#: installs a brand-new registry, giving each worker attribution that
#: starts at zero the instant it was born.
_DEFAULT_PID = os.getpid()


def registry() -> MetricsRegistry:
    global _DEFAULT, _DEFAULT_PID
    if os.getpid() != _DEFAULT_PID:
        _DEFAULT = MetricsRegistry()
        _DEFAULT_PID = os.getpid()
    return _DEFAULT


class _LazyMetric:
    """A module-global metric handle that follows the per-pid registry.

    Layers cache metric objects at import time (``_APPENDS = counter(...)``);
    a direct object would pin the *parent's* registry inside a forked
    worker.  The proxy resolves through :func:`registry` and memoizes the
    metric object keyed on registry identity and generation, so the steady
    state charge is a pid check plus two attribute compares — cheap enough
    for microsecond paths like lineage probes.  A fork (new registry
    object) or :meth:`MetricsRegistry.reset` (generation bump) invalidates
    the cache and the next charge re-resolves against the live registry.
    """

    __slots__ = ("_kind", "_name", "_buckets", "_cached", "_cached_reg", "_cached_gen")

    def __init__(self, kind: str, name: str, buckets: Iterable[float] | None = None):
        self._kind = kind
        self._name = name
        self._buckets = buckets
        self._cached: Metric | None = None
        self._cached_reg: MetricsRegistry | None = None
        self._cached_gen = -1

    def _resolve(self) -> Metric:
        reg = registry()
        if reg is self._cached_reg and reg._generation == self._cached_gen:
            return self._cached  # type: ignore[return-value]
        if self._kind == "histogram":
            metric = reg.histogram(self._name, self._buckets or DURATION_BUCKETS)
        else:
            metric = getattr(reg, self._kind)(self._name)
        self._cached = metric
        self._cached_reg = reg
        self._cached_gen = reg._generation
        return metric

    def inc(self, amount: float = 1) -> None:
        self._resolve().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._resolve().dec(amount)

    def set(self, value: float) -> None:
        self._resolve().set(value)

    def observe(self, value: float) -> None:
        self._resolve().observe(value)

    @property
    def value(self):
        return self._resolve().value

    def snapshot_value(self):
        return self._resolve().snapshot_value()


def counter(name: str) -> _LazyMetric:
    """A pid-aware counter handle, safe to cache in a module global."""
    return _LazyMetric("counter", name)


def gauge(name: str) -> _LazyMetric:
    """A pid-aware gauge handle, safe to cache in a module global."""
    return _LazyMetric("gauge", name)


def histogram(
    name: str, buckets: Iterable[float] = DURATION_BUCKETS
) -> _LazyMetric:
    """A pid-aware histogram handle, safe to cache in a module global."""
    return _LazyMetric("histogram", name, tuple(buckets))
