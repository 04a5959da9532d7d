"""SQL benchmark: the engine's block pipeline vs the row-at-a-time
reference pipeline in ``tests/select_reference.py``.

The compiled pipeline runs the scan-to-result data path as a chain of
operators over row blocks: the Scan operator wraps each batch of
``Table.scan_batches`` in a ``ColumnBlock``, WHERE predicates become
generated kernels that return the kept rows, projections and key
extraction run one listcomp per expression over the block's rows, ORDER
BY sorts pre-extracted key vectors, ``unnest`` is a block operator, and
an expression outside the generated subset runs its row function over
the block's rows.  This benchmark measures exactly that trade on a
generated versioned store: the same SQL runs on two databases that differ
only in their executor (the engine's, ``compiled``, and the reference,
``interpreted``), the results are asserted identical, and
``BENCH_sql.json`` records wall-clock per scenario
plus the deterministic logical-I/O / rows-processed counters CI gates
(``check_regression.py`` with ``BENCH_sql_smoke.json``).

Scenarios: full-scan filter+aggregate, filtered scan+projection, the
checkout-style unnest hash join, ORDER BY+LIMIT top-k (all three of
fullscan/join/topk are >=5x acceptance targets), bare-LIMIT streaming stop
(whose scanned-record counter proves unread scan blocks are never
charged), ranked window functions, and the grouped top-k pushdown (a
``row_number() <= k`` derived table that compiled mode answers with
per-partition heaps).  The ``sql`` regression gate counts the compiled
side only.

Run directly for the full sweep::

    PYTHONPATH=src python benchmarks/bench_sql.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

if __package__ in (None, ""):
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import print_header
from repro.workloads.benchmark_graph import WorkloadBuilder
from repro.workloads.datasets import load_workload
from tests.select_reference import database

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sql.json"

FULL = {
    "root_records": 60_000,
    "num_versions": 40,
    "churn": 400,
    "branches": 4,
    "repeats": 5,
}
SMOKE = {
    "root_records": 3_000,
    "num_versions": 12,
    "churn": 60,
    "branches": 3,
    "repeats": 2,
}

#: The scenario names, their SQL (``{data}``/``{versions}``/``{tip}`` are
#: substituted), and whether they are the >=5x acceptance target.
SCENARIOS = [
    (
        "fullscan",
        "SELECT count(*), sum(a1), avg(a2) FROM {data} "
        "WHERE a1 BETWEEN 1000 AND 8000 AND a2 > 2500 AND a3 <> 7",
    ),
    (
        "scan_project",
        "SELECT rid, a1, a2 FROM {data} WHERE a3 < 5000 AND a4 >= 1000",
    ),
    (
        "join",
        "SELECT d.rid, d.a1, d.a2 FROM {data} AS d, "
        "(SELECT unnest(rlist) AS rid_tmp FROM {versions} "
        " WHERE vid = {tip}) AS tmp "
        "WHERE d.rid = tmp.rid_tmp AND d.a1 > 100",
    ),
    (
        "topk",
        "SELECT rid, a1 FROM {data} "
        "WHERE a2 > 1000 ORDER BY a1 DESC, rid LIMIT 10",
    ),
    (
        "limit",
        "SELECT rid, a2 FROM {data} WHERE a2 > 5000 LIMIT 100",
    ),
    (
        "window",
        "SELECT rid, a1, row_number() OVER "
        "(PARTITION BY a3 % 100 ORDER BY a1 DESC, rid) AS rn "
        "FROM {data} WHERE a2 > 1000",
    ),
    (
        "grouped_topk",
        "SELECT t.rid, t.a1, t.rn FROM "
        "(SELECT rid, a1, row_number() OVER "
        " (PARTITION BY a3 % 100 ORDER BY a1 DESC, rid) AS rn "
        " FROM {data} WHERE a2 > 500) AS t "
        "WHERE t.rn <= 5",
    ),
]
#: Full-mode wall-clock floors: compiled must beat interpreted by >= 5x.
ACCEPTANCE_SCENARIOS = ("fullscan", "join", "topk")


# ----------------------------------------------------------------- workload


def build_store(config: dict, mode: str):
    """A versioned store (split-by-rlist) plus the per-scenario SQL texts.

    The generator is deterministic, so the ``compiled`` and ``interpreted``
    databases hold byte-identical data and every scenario must return
    identical rows.
    """
    builder = WorkloadBuilder("sqlbench", num_attributes=4, seed=23)
    root = builder.root(config["root_records"])
    tips = [root] * config["branches"]
    churn = config["churn"]
    for step in range(config["num_versions"] - 1):
        branch = step % config["branches"]
        tips[branch] = builder.derive(
            tips[branch],
            inserts=churn // 4,
            updates=churn // 2,
            deletes=churn // 4,
        )
    workload = builder.build(config["branches"], churn)
    cvd = load_workload(database(mode), "sqlbench", workload, "split_by_rlist")
    names = {
        "data": cvd.model.data_table,
        "versions": cvd.model.versioning_table,
        "tip": tips[-1],
    }
    queries = {name: sql.format(**names) for name, sql in SCENARIOS}
    return cvd, queries


# -------------------------------------------------------------- measurement


def best_of(repeats: int, fn, *args):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def measure(config: dict) -> dict:
    stores = {mode: build_store(config, mode) for mode in ("compiled", "interpreted")}
    repeats = config["repeats"]
    out: dict = {
        "bench": "sql",
        "config": dict(config),
        "num_records": stores["compiled"][0].record_count,
        "num_versions": stores["compiled"][0].version_count,
        "scenarios": {},
    }
    counters: dict = {}
    for name, _sql in SCENARIOS:
        timing = {}
        rows = {}
        for mode, (cvd, queries) in stores.items():
            cvd.db.query(queries[name])  # warm (parse caches, allocator)
            timing[mode], rows[mode] = best_of(repeats, cvd.db.query, queries[name])
        assert rows["compiled"] == rows["interpreted"], (
            f"{name}: compiled and interpreted pipelines disagree"
        )
        out["scenarios"][name] = {
            "rows": len(rows["compiled"]),
            "compiled_s": timing["compiled"],
            "interpreted_s": timing["interpreted"],
            "speedup": (
                timing["interpreted"] / timing["compiled"]
                if timing["compiled"] > 0
                else float("inf")
            ),
        }
        # Deterministic logical I/O of the compiled pipeline (the gate):
        # records/blocks actually charged, and whether every expression
        # stayed off the interpreter (fallbacks gate at 0).  The vector
        # kernel count is the scenario's expression census.
        db = stores["compiled"][0].db
        db.reset_stats()
        stores["compiled"][0].db.query(stores["compiled"][1][name])
        stats = db.stats
        counters[f"{name}_records_scanned"] = stats.records_scanned
        counters[f"{name}_index_probes"] = stats.index_probes
        counters[f"{name}_exprs_interpreted"] = stats.exprs_interpreted
        counters[f"{name}_exprs_columnar"] = stats.exprs_columnar
        counters[f"{name}_blocks_scanned"] = stats.blocks_scanned
    counters["limit_scan_fraction"] = round(
        counters["limit_records_scanned"] / out["num_records"], 6
    )
    out["counters"] = counters
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small configuration for CI; emits JSON, skips ratio asserts",
    )
    args = parser.parse_args(argv)
    config = SMOKE if args.smoke else FULL
    print_header(
        f"Compiled SQL execution benchmark "
        f"({config['root_records']} root records x "
        f"{config['num_versions']} versions)"
    )
    result = measure(config)
    result["mode"] = "smoke" if args.smoke else "full"
    for name, entry in result["scenarios"].items():
        print(
            f"  {name:<13} compiled {entry['compiled_s'] * 1e3:9.2f} ms   "
            f"interpreted {entry['interpreted_s'] * 1e3:9.2f} ms   "
            f"speedup {entry['speedup']:5.1f}x   ({entry['rows']} rows)"
        )
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {OUTPUT}")
    if not args.smoke:
        failed = False
        for name in ACCEPTANCE_SCENARIOS:
            speedup = result["scenarios"][name]["speedup"]
            if speedup < 5.0:
                print(f"ACCEPTANCE FAILED: {name} speedup {speedup:.1f}x < 5x")
                failed = True
            else:
                print(
                    f"acceptance: {name} {speedup:.1f}x >= 5x over the "
                    f"interpreted row-at-a-time pipeline"
                )
        if failed:
            return 1
    return 0


# ------------------------------------------------------- pytest acceptance


class TestSqlAcceptance:
    """Deterministic equivalence/pushdown checks (timing-free, CI-safe)."""

    def _stores(self):
        return {
            mode: build_store(SMOKE, mode)
            for mode in ("compiled", "interpreted")
        }

    def test_compiled_and_interpreted_agree_on_every_scenario(self):
        stores = self._stores()
        for name, _sql in SCENARIOS:
            results = {
                mode: cvd.db.query(queries[name])
                for mode, (cvd, queries) in stores.items()
            }
            assert results["compiled"] == results["interpreted"], name

    def test_every_benchmark_expression_compiles(self):
        cvd, queries = build_store(SMOKE, "compiled")
        cvd.db.reset_stats()
        for name, _sql in SCENARIOS:
            cvd.db.query(queries[name])
        stats = cvd.db.stats
        assert stats.exprs_interpreted == 0
        # Every expression ran on a vector kernel — the unnest join's
        # sub-select included; nothing needed a row closure.
        assert stats.exprs_columnar > 0
        assert stats.exprs_compiled == 0

    def test_grouped_topk_pushdown_matches_full_ranking(self):
        cvd, queries = build_store(SMOKE, "compiled")
        pushed = cvd.db.query(queries["grouped_topk"])
        # Same derived table without the rn bound: rank everything, then
        # apply the bound by hand.  The pushdown may only drop rows the
        # outer filter would drop anyway.
        full = cvd.db.query(
            queries["grouped_topk"].split(" WHERE t.rn")[0]
        )
        assert pushed == [row for row in full if row[2] <= 5]

    def test_bare_limit_stops_the_scan_early(self):
        cvd, queries = build_store(SMOKE, "compiled")
        cvd.db.reset_stats()
        rows = cvd.db.query(queries["limit"])
        assert len(rows) == 100
        # The stream-stop means whole blocks past the 100th match are
        # never charged; the reference pipeline scans every record.
        assert cvd.db.stats.records_scanned < cvd.record_count

    def test_limit_pushdown_matches_full_materialization(self):
        cvd, queries = build_store(SMOKE, "compiled")
        limited = cvd.db.query(queries["limit"])
        unlimited = cvd.db.query(queries["limit"].split(" LIMIT ")[0])
        assert limited == unlimited[:100]


if __name__ == "__main__":
    raise SystemExit(main())
