"""One repeatable end-to-end benchmark of OrpheusDB: the one command.

    python3 benchmarks/e2e/run.py --workload serve_hot --seed 1 \\
        --seconds 10 --trace 0 [--quick] [--out result.json]

Builds its own store from a seeded generator, drives the program through
its public surface only (``orpheus serve`` over TCP, ``Store`` /
``OrpheusDB`` in-process for the write and operator paths), checks every
answer against an oracle and prints every metric by name with its unit.
The last line of stdout is one JSON object::

    {"correct": true, "attempted": 3120, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones (and writes ``.e2e_work/trace-*.json``).
See README.md beside this file for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=10.0, help="length of the timed main phase"
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: per-layer metrics from a traced run; 0: end-to-end metrics",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="1/20-scale smoke run; results are marked non-comparable",
    )
    parser.add_argument("--out", help="also write the full result document here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Both processes run with a pinned hash seed (set iteration order
        # is part of the work done); re-exec once to pin this one.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from measure import run

    return run(args)


if __name__ == "__main__":
    sys.exit(main())
