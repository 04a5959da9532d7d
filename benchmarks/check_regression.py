"""Benchmark regression gate: compare a smoke run against its baseline.

CI runs each benchmark in ``--smoke`` mode and then this script, which
compares the fresh JSON against the committed smoke baseline.  Only
*deterministic* figures are gated — logical-I/O operation counts, cache
hit/miss counts for a fixed trace, and per-row ratios, all of which are
machine-independent for a given code state and workload seed — so the gate
fails on real plan/algorithm regressions and never on shared-runner noise.
Wall-clock speedups in the same JSON stay advisory.

Each benchmark family declares its own shape fields and gated counters in
``BENCH_PROFILES``, selected by the result's ``"bench"`` field (absent in
older files, which are the checkout family).

Policy: a gated counter may not exceed its baseline by more than
``--threshold`` (default 30%).  Improvements pass (and are reported);
refresh the baseline afterwards with ``--update-baseline``.  Workload
shape fields (version/record/row counts) must match exactly: if they
drift, counters are not comparable and the gate fails loudly rather than
comparing apples to oranges.

``--exact`` tightens the gate to zero drift: every gated counter must
equal its baseline bit for bit, improvements included.  That is the mode
observability changes are held to — instrumentation must not change a
single logical-I/O or cache count, in either direction.

Usage::

    python benchmarks/check_regression.py BENCH_checkout.json
    python benchmarks/check_regression.py BENCH_serve.json \
        --baseline benchmarks/BENCH_serve_smoke.json --threshold 0.3
    python benchmarks/check_regression.py BENCH_checkout.json \
        --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_checkout_smoke.json"
DEFAULT_THRESHOLD = 0.30

#: Deterministic fields that must match the baseline exactly — they define
#: the workload; any drift means the gated counters are incomparable.
#: Keyed by the result's ``"bench"`` field (default: checkout).
BENCH_PROFILES = {
    "checkout": {
        "shape": [
            ("num_versions",),
            ("num_records",),
            ("bipartite_edges",),
            ("checkout", "merged_rows"),
            ("diff", "rows_only_a"),
            ("diff", "rows_only_b"),
            ("optimize", "partitions"),
            ("optimize", "storage_cost"),
        ],
        "gated": [
            "checkout_records_scanned",
            "checkout_index_probes",
            "checkout_total_touched",
            "diff_records_scanned",
            "diff_index_probes",
            "diff_total_touched",
            "optimize_search_iterations",
            "touched_per_merged_row",
        ],
    },
    "serve": {
        "shape": [
            ("num_versions",),
            ("num_records",),
            ("trace", "requests"),
            ("trace", "distinct_sets"),
            ("baseline", "rows_served"),
        ],
        "gated": [
            "serve_cache_misses",
            "serve_records_scanned",
            "baseline_records_scanned",
            "scanned_per_request",
            "prefork_cache_misses",
            "prefork_snapshot_loads",
            "prefork_workers_observed",
            "prefork_rows_served",
        ],
        # Wall-clock ratios with a hard floor, checked against the FRESH
        # run only (no baseline comparison: the committed baseline may
        # come from a machine with different hardware).  Each entry in
        # the result carries {"value", "eligible", ...}; ineligible runs
        # (e.g. fewer cores than the ratio needs) are reported, not
        # failed — the CI runners that execute this gate are eligible.
        "ratio_floors": {
            "prefork_scale_x4_vs_x1": 2.5,
        },
    },
    "htap": {
        # The chaos gate: seeds, pool size, and trace shape pin the
        # scenario; gated counters are the summed deterministic figures
        # of all three seeded chaos runs (kill counts, invariant
        # tallies, rows served through faults) plus the per-seed tip
        # checksums — a drift in any of them means recovery, refresh, or
        # the cache tier changed logical behaviour.  CI holds this
        # family to --exact.
        "shape": [
            ("seeds",),
            ("workers",),
            ("trace", "versions"),
            ("trace", "root_rows"),
            ("trace", "churn"),
            ("trace", "reader_ops"),
            ("faults", "writer_kills"),
            ("faults", "worker_kills"),
        ],
        "gated": [
            "trace_commits",
            "trace_branches",
            "trace_merges",
            "trace_evolutions",
            "forced_checkpoints",
            "reader_checkouts",
            "reader_queries",
            "reader_refreshes",
            "writer_kills",
            "worker_kills",
            "invariants_checked",
            "invariants_passed",
            "fence_violations",
            "reader_rows_served",
            "query_rows_total",
            "reader_errors",
            "tip_checksum_seed11",
            "final_lsn_seed11",
            "tip_checksum_seed23",
            "final_lsn_seed23",
            "tip_checksum_seed47",
            "final_lsn_seed47",
        ],
    },
    "sql": {
        # Scenario row counts pin the workload; gated counters are the
        # compiled block pipeline's logical I/O (records per scan, probes
        # per join), the LIMIT pushdown's scan fraction, the number of
        # interpreter fallbacks (baseline 0: every benchmark expression
        # must run on a generated kernel), and a census of the pipeline
        # itself: vector kernels built and column blocks scanned per
        # scenario (they move when an operator starts or stops compiling
        # a kernel, never with the data).
        "shape": [
            ("num_versions",),
            ("num_records",),
            ("scenarios", "fullscan", "rows"),
            ("scenarios", "scan_project", "rows"),
            ("scenarios", "join", "rows"),
            ("scenarios", "topk", "rows"),
            ("scenarios", "limit", "rows"),
            ("scenarios", "window", "rows"),
            ("scenarios", "grouped_topk", "rows"),
        ],
        "gated": [
            "fullscan_records_scanned",
            "fullscan_exprs_interpreted",
            "fullscan_exprs_columnar",
            "fullscan_blocks_scanned",
            "scan_project_records_scanned",
            "scan_project_exprs_interpreted",
            "scan_project_exprs_columnar",
            "scan_project_blocks_scanned",
            "join_records_scanned",
            "join_index_probes",
            "join_exprs_interpreted",
            "join_exprs_columnar",
            "join_blocks_scanned",
            "topk_records_scanned",
            "topk_exprs_interpreted",
            "topk_exprs_columnar",
            "topk_blocks_scanned",
            "limit_records_scanned",
            "limit_exprs_interpreted",
            "limit_exprs_columnar",
            "limit_blocks_scanned",
            "limit_scan_fraction",
            "window_records_scanned",
            "window_exprs_interpreted",
            "window_exprs_columnar",
            "window_blocks_scanned",
            "grouped_topk_records_scanned",
            "grouped_topk_exprs_interpreted",
            "grouped_topk_exprs_columnar",
            "grouped_topk_blocks_scanned",
        ],
    },
    "lineage": {
        # The chaos trace seed and probabilities pin the DAG; gated
        # counters are the lineage index's deterministic probe economics
        # (lineage.probes / lineage.nodes_visited deltas per pass, the
        # walk's node-touch lower bound, and the lazy-rebuild counts) —
        # a drift in any of them means the closure pruning, memoization,
        # or label lifecycle changed behaviour.  CI holds this family to
        # --exact.
        "shape": [
            ("num_versions",),
            ("merges",),
            ("branches",),
            ("max_depth",),
            ("appended",),
            ("config", "seed"),
            ("config", "branch_prob"),
            ("config", "merge_prob"),
        ],
        "gated": [
            "ancestor_probes",
            "ancestor_nodes_visited_cold",
            "nodes_per_ancestor_probe_cold",
            "nodes_per_ancestor_probe_warm",
            "descendant_probes",
            "descendant_nodes_visited_cold",
            "rebuilds_ancestor_pass",
            "rebuilds_first_interval_probe",
            "rebuilds_incremental_appends",
            "walk_nodes_touched",
            "visit_reduction_x",
        ],
    },
}


def _lookup(doc: dict, path: tuple):
    value = doc
    for key in path:
        value = value[key]
    return value


def compare(
    current: dict, baseline: dict, threshold: float, exact: bool = False
) -> list[str]:
    """Failure messages (empty = gate passes)."""
    failures: list[str] = []
    bench = current.get("bench", "checkout")
    if bench != baseline.get("bench", "checkout"):
        failures.append(
            f"benchmark mismatch: run is {bench!r}, baseline is "
            f"{baseline.get('bench', 'checkout')!r} — wrong baseline file?"
        )
        return failures
    if bench not in BENCH_PROFILES:
        failures.append(f"unknown benchmark family {bench!r}")
        return failures
    profile = BENCH_PROFILES[bench]
    if current.get("mode") != baseline.get("mode"):
        failures.append(
            f"mode mismatch: run is {current.get('mode')!r}, baseline is "
            f"{baseline.get('mode')!r} — compare like with like"
        )
        return failures
    for path in profile["shape"]:
        dotted = ".".join(path)
        try:
            got, want = _lookup(current, path), _lookup(baseline, path)
        except KeyError:
            failures.append(f"missing field {dotted} (schema drift?)")
            continue
        if got != want:
            failures.append(
                f"workload shape changed: {dotted} = {got}, baseline "
                f"{want} — counters are not comparable; regenerate the "
                f"baseline deliberately if this is intended"
            )
    if failures:
        return failures
    current_counters = current.get("counters", {})
    baseline_counters = baseline.get("counters", {})
    for name in profile["gated"]:
        if name not in baseline_counters:
            failures.append(f"baseline lacks counter {name!r}")
            continue
        if name not in current_counters:
            failures.append(f"run lacks counter {name!r} (schema drift?)")
            continue
        got = current_counters[name]
        want = baseline_counters[name]
        if exact:
            if got != want:
                failures.append(
                    f"DRIFT {name}: {got:g} != baseline {want:g} "
                    f"(--exact demands bit-identical counters)"
                )
            continue
        limit = want * (1.0 + threshold)
        if got > limit:
            failures.append(
                f"REGRESSION {name}: {got:g} exceeds baseline {want:g} "
                f"by more than {threshold:.0%} (limit {limit:g})"
            )
        elif want and got < want * (1.0 - threshold):
            print(
                f"improvement {name}: {got:g} vs baseline {want:g} "
                f"(consider refreshing the baseline)"
            )
    failures.extend(check_ratio_floors(current, profile))
    return failures


def check_ratio_floors(current: dict, profile: dict) -> list[str]:
    """Enforce hard wall-clock ratio floors on the fresh run.

    Unlike gated counters these are not compared to the baseline (wall
    clock is hardware-bound); the floor is an absolute requirement the
    profile declares — e.g. 4 pre-fork workers must deliver >= 2.5x the
    single-worker read throughput.  A run flags itself ineligible (too
    few cores) and is then reported instead of failed.
    """
    failures: list[str] = []
    ratios = current.get("ratios", {})
    for name, floor in profile.get("ratio_floors", {}).items():
        entry = ratios.get(name)
        if entry is None:
            failures.append(f"run lacks ratio {name!r} (schema drift?)")
            continue
        value = entry.get("value")
        if not entry.get("eligible", False):
            print(
                f"ratio {name}: {value:.2f}x reported, floor {floor}x not "
                f"enforced (run ineligible: {entry.get('cpu_count')} cores)"
            )
            continue
        if value < floor:
            failures.append(
                f"SCALING {name}: {value:.2f}x below the required "
                f"{floor}x floor"
            )
        else:
            print(f"ratio {name}: {value:.2f}x >= {floor}x floor")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("result", type=Path, help="fresh BENCH_checkout.json to check")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"committed baseline (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional slowdown per counter (default 0.30)",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="zero-drift mode: every gated counter must equal the baseline "
        "bit for bit (improvements fail too)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the result over the baseline instead of checking",
    )
    args = parser.parse_args(argv)
    current = json.loads(args.result.read_text(encoding="utf-8"))
    if args.update_baseline:
        args.baseline.write_text(json.dumps(current, indent=2) + "\n", encoding="utf-8")
        print(f"baseline updated: {args.baseline}")
        return 0
    if not args.baseline.exists():
        print(f"error: no baseline at {args.baseline}", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    failures = compare(current, baseline, args.threshold, exact=args.exact)
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    gated = BENCH_PROFILES[current.get("bench", "checkout")]["gated"]
    if args.exact:
        print(
            f"benchmark gate passed: {len(gated)} deterministic "
            f"counters bit-identical to baseline"
        )
    else:
        print(
            f"benchmark gate passed: {len(gated)} deterministic "
            f"counters within {args.threshold:.0%} of baseline"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
