"""Spans recorded by the benchmark, around calls into each layer.

The program is not edited.  For the traced part of a run the public
functions at each layer boundary are wrapped *from outside* (a class or
module attribute is swapped for a timing wrapper and put back afterwards),
so a span's children are the real nested calls: ``op`` → ``serve.payload``
→ ``core.checkout_rows`` → ``core.fetch_version`` → ``storage.parse`` /
``storage.execute`` and so on.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

_MODEL = {
    "member_ridset": "core.member_ridset",
    "fetch_rows": "core.fetch_rows",
    "fetch_version": "core.fetch_version",
}
#: owner ("module" or "module:Class") -> {attribute: span name}.  Layers
#: are the repo's packages; a name's prefix is the package the function
#: lives in, except the data-model calls, which the issue files under
#: ``core``.
BOUNDARIES = {
    "repro.core.orpheus:OrpheusDB": {
        "checkout_rows": "core.checkout_rows",
        "checkout": "core.checkout_into",
        "run": "core.run",
        "commit": "core.commit",
    },
    "repro.core.translator:QueryTranslator": {"translate": "core.translate"},
    "repro.core.version_graph:VersionGraph": {"ancestors": "core.lineage_probe"},
    "repro.partition.partition_manager:PartitionedRlistModel": _MODEL,
    "repro.core.datamodels.split_rlist:SplitByRlistModel": _MODEL,
    "repro.core.orpheus": {"parse_sql": "storage.parse"},
    "repro.storage.engine": {"parse_sql": "storage.parse"},
    "repro.storage.engine:Database": {"execute_statements": "storage.execute"},
    "repro.partition.online:PartitionOptimizer": {
        "run_full_partitioning": "partition.optimize",
        "compute_partitioning": "partition.lyresplit",
        "evaluate_maintenance": "partition.maintenance",
        "migrate": "partition.migrate",
    },
    "repro.persist.wal:WriteAheadLog": {"append": "persist.wal_append"},
    "repro.persist.store:Store": {
        "refresh": "serve.refresh",
        "checkpoint": "persist.checkpoint",
    },
    "repro.persist.store": {
        "write_snapshot": "persist.snapshot_write",
        "load_snapshot": "persist.snapshot_load",
    },
}


def _resolve(path: str):
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


class Tracer:
    """In-memory span log: ``[name, start, end, parent index, op id]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        #: Boundaries that no longer resolve (the program was refactored);
        #: their spans are simply absent and the metric reads 0.
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            yield
            return
        if op is not None:
            self._op = op
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op: int) -> None:
        """A root span timed elsewhere (the wire round trip of an op)."""
        if self.enabled:
            self.spans.append([name, start, end, -1, op])

    @contextmanager
    def recording(self):
        """Record spans, with every layer boundary wrapped, for the
        duration of the block."""
        saved = []
        self.enabled = True
        try:
            for path, names in BOUNDARIES.items():
                for attr, name in names.items():
                    try:
                        owner = _resolve(path)
                        original = owner.__dict__[attr]
                    except (ImportError, AttributeError, KeyError):
                        if f"{path}.{attr}" not in self.missing:
                            self.missing.append(f"{path}.{attr}")
                        continue
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(original, name))
            yield
        finally:
            self.enabled = False
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def _wrap(self, function, name: str):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    # ------------------------------------------------------------- reporting

    def totals(self) -> tuple[dict, dict, bool]:
        """(inclusive seconds by name, self seconds by name, nesting ok).

        A span's self time is its duration minus its direct children's;
        nesting is ok when no span's children add up to more than it.
        """
        child_time = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        nested = True
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            duration = end - start
            inclusive[name] += duration
            own[name] += duration - child_time[index]
            nested = nested and child_time[index] <= duration + 1e-9
        return dict(inclusive), dict(own), nested

    def document(self) -> dict:
        origin = self.spans[0][1] if self.spans else 0.0

        def micros(moment: float) -> float:
            return round((moment - origin) * 1e6, 1)

        return {
            "columns": ["name", "start_us", "end_us", "parent", "op"],
            "spans": [
                [name, micros(start), micros(end), parent, op]
                for name, start, end, parent, op in self.spans
            ],
        }
