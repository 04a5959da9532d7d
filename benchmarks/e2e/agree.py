"""Do two sets of runs of the same code agree within the benchmark's bounds?

    python3 benchmarks/e2e/agree.py [--runs 5] [--trace-runs 2] [--quick]
        [--workloads serve_hot ...] [--other CHECKOUT]

Runs sets A and B **alternating** (A/B/B/A/...), run *i* of both sets on
seed ``--seed + i``.  Per workload x end-to-end metric it prints both
medians, how much worse B is than A, each set's quartile distance over
its median, and PASS/FAIL against the bound in ``BENCHMARK.json``
(``setup_s`` is held to its bound on the medians only).  Traced runs
repeat one seed, and every *exact* per-layer count must be identical
across all of them.  Exits non-zero on any FAIL.

With ``--other`` set B runs another checkout's ``run.py`` (parent vs
change); without it both sets run this checkout, which is the test that
the benchmark itself is steady enough to use.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Per-layer metrics that are pure functions of the seed with one client.
EXACT = (
    "serve.response_bytes_per_op",
    "serve.cache_hit_ratio",
    "serve.l2_hit_ratio",
    "core.records_per_result",
    "storage.records_scanned_per_query",
    "storage.exprs_interpreted",
    "partition.num_partitions",
    "partition.storage_ratio",
    "partition.online_migrations",
    "persist.records_replayed",
    "persist.fsyncs_per_commit",
)


def run_once(root: Path, workload: str, seed: int, trace: int, args) -> dict:
    command = [sys.executable, str(root / "benchmarks" / "e2e" / "run.py")]
    command += ["--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(args.seconds), "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    out = subprocess.run(command, capture_output=True, text=True, cwd=root)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--trace-runs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--other", type=Path, help="checkout that set B runs")
    args = parser.parse_args(argv)
    roots = {"A": ROOT, "B": (args.other or ROOT).resolve()}

    failures = 0
    for workload in args.workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for index in range(args.runs):
            for side in ("AB", "BA")[index % 2]:  # alternate who goes first
                sets[side].append(
                    run_once(roots[side], workload, args.seed + index, 0, args)
                )
        print(f"\n{workload}: {args.runs} runs per set, alternating")
        print(
            f"  {'metric':28s} {'median A':>12s} {'median B':>12s} "
            f"{'B worse':>8s} {'iqr A':>7s} {'iqr B':>7s} {'bound':>6s}"
        )
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run[name] for run in sets["A"]]
            b = [run[name] for run in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            ok = worse <= bound and (
                name == "setup_s" or max(spread(a), spread(b)) <= bound
            )
            failures += not ok
            print(
                f"  {name:28s} {med_a:12.4f} {med_b:12.4f} {worse:+8.1%} "
                f"{spread(a):7.1%} {spread(b):7.1%} {bound:6.0%} "
                f"{'PASS' if ok else 'FAIL'}"
            )
        traced = [
            run_once(roots[side], workload, args.seed, 1, args)
            for _ in range(args.trace_runs)
            for side in "AB"
        ]
        for name in EXACT:
            values = {run[name] for run in traced}
            ok = len(values) <= 1
            failures += not ok
            print(f"  exact {name:36s} {sorted(values)} {'PASS' if ok else 'FAIL'}")
    print(f"\n{'FAIL' if failures else 'PASS'}: {failures} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
