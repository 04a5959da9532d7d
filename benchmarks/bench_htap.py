"""HTAP stress benchmark: chaos smoke gate, writer-impact full mode, soak.

Three modes over the :mod:`repro.chaos` harness:

* ``--smoke`` — the CI chaos gate.  Three fixed seeds, each a full chaos
  scenario (real writer process + pre-fork reader pool) with at least
  one writer ``kill -9`` at a journaled WAL offset and one worker
  SIGKILL mid-request, all four invariants checked (crash-replay
  determinism, refresh convergence, L1 cache coherence, ``min_lsn``
  fence honesty).  Every gated counter — trace shape, rows served,
  per-seed tip checksums, kill counts, invariant tallies — is
  deterministic for the pinned seeds, so ``check_regression.py --exact``
  holds the file to bit-identical.

* full (the default) — the nightly scale point: a steady-churn trace
  builds a >=500k-record / >=1k-version store, then reader throughput
  through the pre-fork pool is measured twice — writer idle vs a live
  writer process committing the trace tail — to report the writer's
  latency impact on reader throughput (plus convergence/coherence/fence
  checks at the final tip).  Wall-clock figures are advisory; the
  acceptance gates are scale floors and invariant passes.

* ``--soak SECONDS`` — rotate fresh seeds through full chaos scenarios
  until the budget runs out; any failure ships a repro bundle (plan +
  progress journal + store tarball) to ``--failure-dir``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_htap.py --smoke
    PYTHONPATH=src python benchmarks/bench_htap.py            # nightly
    PYTHONPATH=src python benchmarks/bench_htap.py --soak 600
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import print_header
from repro.chaos import (
    FaultPlan,
    TraceConfig,
    build_writer_plan,
    check_cache_coherence,
    check_fence_honesty,
    check_refresh_convergence,
    plan_document,
    run_chaos,
)
from repro.chaos.trace import apply_writer_op, zipf_pick
from repro.obs import Histogram
from repro.persist import Store
from repro.serve import PreforkServer
from repro.serve.server import ServeClient

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_htap.json"

#: The CI gate's pinned seeds: three distinct DAG shapes (the first
#: branches without merging, the others mix merges in).
SMOKE_SEEDS = (11, 23, 47)

SMOKE_TRACE = {
    "root_rows": 200,
    "versions": 10,
    "churn": 20,
    "reader_ops": 30,
    "checkpoints": 2,
    "evolutions": 1,
}
#: Writer dies after commit 5's WAL append; one worker SIGKILL mid-trace.
SMOKE_FAULTS = {"writer_kills": (5,), "worker_kills": 1, "pace_ms": 2.0}
SMOKE_WORKERS = 2

#: Full mode: steady churn accumulates ``churn`` records per version
#: while live tables stay ~``root_rows + churn`` wide, so a
#: thousand-version half-million-record build costs minutes, not hours.
FULL = {
    "seed": 11,
    "root_rows": 4_000,
    "versions": 1_000,
    # 540 × 999 commits ≈ 543k inserted records; merge commits re-land a
    # few percent of ids on both parents' branches, so the distinct
    # record universe settles just above the 500k acceptance floor.
    "churn": 540,
    "checkpoints": 10,
    "evolutions": 2,
    "reader_ops": 64,  # trace metadata only; full mode drives its own reads
    "steady": True,
}
FULL_TAIL = 60  # versions the live writer commits during the measured pass
FULL_WORKERS = 4
FULL_REQUESTS = 1_200
FULL_MIN_RECORDS = 500_000
FULL_MIN_VERSIONS = 1_000

SOAK_FAULT_ROTATION = (
    {"writer_kills": (5,), "worker_kills": 1, "pace_ms": 2.0},
    {"writer_kills": (3, 7), "worker_kills": 1, "pace_ms": 2.0},
    {"writer_kills": (6,), "worker_kills": 2, "pace_ms": 1.0},
)

LATENCY_BUCKETS = tuple(
    mantissa * scale
    for scale in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for mantissa in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
)


def _latency_ms(latency: Histogram) -> dict:
    return {
        "p50": latency.quantile(0.50) * 1e3,
        "p95": latency.quantile(0.95) * 1e3,
        "p99": latency.quantile(0.99) * 1e3,
    }


# ------------------------------------------------------------------- smoke


def run_smoke(failure_dir: Path | None) -> dict:
    """The CI chaos gate: three seeds, full invariant suite each."""
    runs = []
    for seed in SMOKE_SEEDS:
        config = TraceConfig(seed=seed, **SMOKE_TRACE)
        faults = FaultPlan(**SMOKE_FAULTS)
        report = run_chaos(
            config, faults, workers=SMOKE_WORKERS, failure_dir=failure_dir
        )
        runs.append(report)
        status = "ok" if report["ok"] else "FAILED"
        print(
            f"  seed {seed:>3}  {status:<6} {report['seconds']:5.1f}s   "
            f"kills w{report['counters']['writer_kills']}"
            f"/p{report['counters']['worker_kills']}   invariants "
            f"{report['counters']['invariants_passed']}"
            f"/{report['counters']['invariants_checked']}   "
            f"rows {report['counters']['reader_rows_served']}"
        )
        for inv in report["invariants"]:
            if not inv["ok"]:
                print(f"      INVARIANT {inv['name']}: {inv['details']}")
        for err in report["errors"][:5]:
            print(f"      ERROR {err}")

    summed = {}
    for report in runs:
        for name, value in report["counters"].items():
            if name in ("final_versions", "final_lsn", "tip_checksum"):
                continue  # per-seed figures, gated individually below
            summed[name] = summed.get(name, 0) + value
    for report in runs:
        seed = report["seed"]
        summed[f"tip_checksum_seed{seed}"] = report["counters"]["tip_checksum"]
        summed[f"final_lsn_seed{seed}"] = report["counters"]["final_lsn"]
    return {
        "bench": "htap",
        "seeds": list(SMOKE_SEEDS),
        "workers": SMOKE_WORKERS,
        "trace": dict(SMOKE_TRACE),
        "faults": dict(SMOKE_FAULTS, writer_kills=list(SMOKE_FAULTS["writer_kills"])),
        "runs": runs,
        "counters": summed,
        "ok": all(report["ok"] for report in runs),
    }


# -------------------------------------------------------------------- full


def _build_full_store(store_path: Path, config: TraceConfig, up_to: int) -> dict:
    """Apply the writer plan through version ``up_to`` in-process (the
    un-contended build: its commit rate is the solo-writer baseline)."""
    ops, _meta = build_writer_plan(config)
    begun = time.perf_counter()
    commits = 0
    with Store.open(store_path, checkpoint_interval=0) as store:
        for op in ops:
            if op["versions_after"] > up_to:
                break
            apply_writer_op(orpheus=store.orpheus, op=op, config=config,
                            checkpoint=store.checkpoint)
            if op["kind"] == "commit":
                commits += 1
        store.checkpoint()
    seconds = time.perf_counter() - begun
    return {
        "seconds": seconds,
        "commits": commits,
        "solo_commit_ms": seconds / max(1, commits) * 1e3,
    }


def _full_read_trace(config: TraceConfig, built: int, requests: int) -> list:
    """Zipf-by-recency version sets over the built prefix (the live
    writer's tail never changes what the readers ask for)."""
    import random

    rng = random.Random(config.seed * 31 + 7)
    trace = []
    for _ in range(requests):
        size = rng.choice((1, 1, 1, 2, 2, 3))
        chosen: set[int] = set()
        while len(chosen) < size:
            chosen.add(zipf_pick(rng, built, config.zipf_s))
        trace.append(sorted(chosen))
    return trace


def _reader_pass(
    address: tuple,
    cvd: str,
    trace: list,
    threads: int,
    stop: threading.Event | None = None,
) -> dict:
    """Replay the read trace across ``threads`` persistent connections.

    With ``stop`` set the trace loops until the event fires (the live
    pass measures only requests completed while the writer ran).
    """
    host, port = address
    latency = Histogram("htap_reader_latency_seconds", buckets=LATENCY_BUCKETS)
    counts = [0] * threads
    rows = [0] * threads
    failures: list[str] = []

    def loop(index: int) -> None:
        slice_ = trace[index::threads]
        with ServeClient(host, port, timeout=60.0) as client:
            while True:
                for vids in slice_:
                    if stop is not None and stop.is_set():
                        return
                    begun = time.perf_counter()
                    reply = client.request(
                        {"op": "checkout", "cvd": cvd, "vids": vids,
                         "rows": False}
                    )
                    latency.observe(time.perf_counter() - begun)
                    if not reply.get("ok"):
                        failures.append(str(reply))
                        return
                    counts[index] += 1
                    rows[index] += reply["count"]
                if stop is None:
                    return

    workers = [
        threading.Thread(target=loop, args=(i,), daemon=True)
        for i in range(threads)
    ]
    begun = time.perf_counter()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    seconds = time.perf_counter() - begun
    total = sum(counts)
    return {
        "requests": total,
        "rows_served": sum(rows),
        "seconds": seconds,
        "throughput": total / seconds if seconds else 0.0,
        "latency_ms": _latency_ms(latency),
        "failures": failures,
    }


def _launch_tail_writer(
    store_path: Path, plan_path: Path, progress_path: Path, log_path: Path
) -> subprocess.Popen:
    src_root = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(log_path, "ab") as log:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.chaos",
             "--store", str(store_path), "--plan", str(plan_path),
             "--progress", str(progress_path), "--pace-ms", "0"],
            env=env, stdout=log, stderr=log,
        )


def run_full(base: Path) -> dict:
    """The nightly scale point: writer-latency impact on reader throughput
    at >=500k records / >=1k versions."""
    config = TraceConfig(**FULL)
    store_path = base / "store"
    built_target = config.versions - FULL_TAIL

    print(f"  building {built_target} of {config.versions} versions "
          f"(steady churn {config.churn})...")
    build = _build_full_store(store_path, config, built_target)
    with Store.open(store_path, mode="ro") as probe:
        cvd = probe.orpheus.cvd(config.cvd)
        records = cvd.record_count
        tip_rows = len(probe.orpheus.checkout_rows(config.cvd, [built_target]))
    print(f"  built in {build['seconds']:.1f}s "
          f"({build['solo_commit_ms']:.1f} ms/commit solo); "
          f"{records} records, tip {tip_rows} rows")

    plan_path = base / "plan.json"
    plan_path.write_text(
        json.dumps(plan_document(config)) + "\n", encoding="utf-8"
    )
    trace = _full_read_trace(config, built_target, FULL_REQUESTS)

    server = PreforkServer(store_path, workers=FULL_WORKERS, cache_capacity=512).start()
    invariants = []
    writer_rc = None
    live_versions = 0
    try:
        # Warm the pool (snapshot is loaded pre-fork; this warms caches).
        idle_warm = _reader_pass(server.address, config.cvd, trace[:200],
                                 FULL_WORKERS)
        idle = _reader_pass(server.address, config.cvd, trace, FULL_WORKERS)
        print(f"  idle writer:  {idle['throughput']:8.0f} req/s   "
              f"p50/p95 {idle['latency_ms']['p50']:.2f}"
              f"/{idle['latency_ms']['p95']:.2f} ms")

        stop = threading.Event()
        writer = _launch_tail_writer(
            store_path, plan_path, base / "progress.jsonl", base / "writer.log"
        )
        live_box: dict = {}

        def live_pass() -> None:
            live_box.update(
                _reader_pass(server.address, config.cvd, trace,
                             FULL_WORKERS, stop=stop)
            )

        live_thread = threading.Thread(target=live_pass, daemon=True)
        begun = time.perf_counter()
        live_thread.start()
        writer_rc = writer.wait()
        writer_seconds = time.perf_counter() - begun
        stop.set()
        live_thread.join()
        live = live_box
        print(f"  live writer:  {live['throughput']:8.0f} req/s   "
              f"p50/p95 {live['latency_ms']['p50']:.2f}"
              f"/{live['latency_ms']['p95']:.2f} ms   "
              f"(writer: {FULL_TAIL} commits in {writer_seconds:.1f}s)")

        # Invariants at the final tip over the live pool.
        with Store.open(store_path, mode="ro") as fresh:
            final_lsn = fresh.last_lsn
            live_versions = fresh.orpheus.cvd(config.cvd).version_count
        host, port = server.address
        with ServeClient(host, port, timeout=60.0) as client:
            seen = [0]

            def refresh() -> None:
                reply = client.request({"op": "refresh"})
                if reply.get("ok"):
                    seen[0] = max(
                        seen[0], max(s["lsn"] for s in reply["sessions"])
                    )

            refresh()
            invariants.append(
                check_refresh_convergence(
                    refresh, lambda: seen[0], final_lsn, timeout=60.0
                )
            )
            served = []
            for vids in trace[:32] + [[live_versions]]:
                replies = [
                    client.request(
                        {"op": "checkout", "cvd": config.cvd, "vids": vids,
                         "rows": False, "min_lsn": final_lsn}
                    )
                    for _ in range(2)
                ]
                if all(r.get("ok") for r in replies) and (
                    replies[0]["checksum"] == replies[1]["checksum"]
                ):
                    served.append(
                        (vids, {"count": replies[1]["count"],
                                "checksum": replies[1]["checksum"]})
                    )
            invariants.append(
                check_cache_coherence(store_path, config.cvd, served, sample=24)
            )
            probe_reply = client.request(
                {"op": "checkout", "cvd": config.cvd, "vids": [live_versions],
                 "rows": False, "min_lsn": final_lsn + 1000}
            )
            invariants.append(
                check_fence_honesty(0, [(final_lsn + 1000, probe_reply)])
            )
    finally:
        server.shutdown()

    impact = live["throughput"] / idle["throughput"] if idle["throughput"] else 0.0
    for report in invariants:
        mark = "ok" if report.ok else f"FAILED: {report.details}"
        print(f"  invariant {report.name}: {mark}")
    print(f"  writer impact: live/idle reader throughput = {impact:.2f}x")
    return {
        "bench": "htap",
        "config": config.to_dict(),
        "store": {
            "records": records,
            "versions": live_versions,
            "tip_rows": tip_rows,
        },
        "build": build,
        "warmup": {"requests": idle_warm["requests"]},
        "idle": idle,
        "live": dict(live, writer_seconds=writer_seconds,
                     writer_commits=FULL_TAIL,
                     live_commit_ms=writer_seconds / FULL_TAIL * 1e3),
        "impact_live_over_idle": impact,
        "writer_returncode": writer_rc,
        "invariants": [
            {"name": r.name, "ok": r.ok, "details": r.details}
            for r in invariants
        ],
        "ok": (
            writer_rc == 0
            and not idle["failures"]
            and not live["failures"]
            and all(r.ok for r in invariants)
        ),
    }


# -------------------------------------------------------------------- soak


def run_soak(seconds: float, failure_dir: Path | None) -> dict:
    """Rotate fresh seeds through chaos scenarios until time is up."""
    deadline = time.monotonic() + seconds
    runs = 0
    failures: list[int] = []
    while time.monotonic() < deadline:
        seed = 1000 + runs
        config = TraceConfig(seed=seed, **SMOKE_TRACE)
        faults = FaultPlan(**SOAK_FAULT_ROTATION[runs % len(SOAK_FAULT_ROTATION)])
        report = run_chaos(
            config, faults, workers=SMOKE_WORKERS, failure_dir=failure_dir
        )
        runs += 1
        if not report["ok"]:
            failures.append(seed)
            print(f"  seed {seed}: FAILED "
                  f"({'; '.join(report['errors'][:2]) or 'invariant'})"
                  + (f" bundle={report.get('bundle')}" if report.get("bundle") else ""))
        elif runs % 10 == 0:
            print(f"  {runs} scenarios, 0 failures so far...")
    return {
        "bench": "htap",
        "mode": "soak",
        "seconds_budget": seconds,
        "scenarios": runs,
        "failed_seeds": failures,
        "ok": not failures,
    }


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI chaos gate: 3 pinned seeds, deterministic gated counters",
    )
    parser.add_argument(
        "--soak", type=float, metavar="SECONDS", default=None,
        help="rotate fresh seeds through chaos scenarios for this long",
    )
    parser.add_argument(
        "--failure-dir", type=Path, default=None,
        help="where failed runs ship their repro bundles",
    )
    args = parser.parse_args(argv)

    if args.soak is not None:
        print_header(f"HTAP chaos soak ({args.soak:.0f}s budget)")
        result = run_soak(args.soak, args.failure_dir)
        result["mode"] = "soak"
    elif args.smoke:
        print_header(
            f"HTAP chaos smoke ({len(SMOKE_SEEDS)} seeds x "
            f"{SMOKE_TRACE['versions']} versions, writer kill -9 + "
            f"worker SIGKILL each)"
        )
        result = run_smoke(args.failure_dir)
        result["mode"] = "smoke"
    else:
        print_header(
            f"HTAP full: {FULL['versions']} versions, steady churn "
            f"{FULL['churn']}, {FULL_WORKERS} workers"
        )
        with tempfile.TemporaryDirectory(prefix="bench-htap-") as tmp:
            result = run_full(Path(tmp))
        result["mode"] = "full"

    OUTPUT.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {OUTPUT}")

    if result["mode"] == "full":
        store = result["store"]
        if store["records"] < FULL_MIN_RECORDS:
            print(f"ACCEPTANCE FAILED: {store['records']} records "
                  f"< {FULL_MIN_RECORDS}")
            return 1
        if store["versions"] < FULL_MIN_VERSIONS:
            print(f"ACCEPTANCE FAILED: {store['versions']} versions "
                  f"< {FULL_MIN_VERSIONS}")
            return 1
        print(f"acceptance: >= {FULL_MIN_RECORDS} records and "
              f">= {FULL_MIN_VERSIONS} versions measured")
    if not result["ok"]:
        print("FAILED")
        return 1
    return 0


# ------------------------------------------------------- pytest acceptance


class TestHtapAcceptance:
    """Deterministic, timing-free checks (the heavy chaos scenarios live
    in tests/test_chaos.py; these pin the bench's own workload shape)."""

    def test_plans_are_deterministic(self):
        for seed in SMOKE_SEEDS:
            config = TraceConfig(seed=seed, **SMOKE_TRACE)
            assert plan_document(config) == plan_document(config)

    def test_smoke_seeds_are_distinct_dags(self):
        metas = []
        for seed in SMOKE_SEEDS:
            _ops, meta = build_writer_plan(TraceConfig(seed=seed, **SMOKE_TRACE))
            metas.append((meta["branches"], meta["merges"]))
        assert len(set(metas)) > 1

    def test_steady_trace_accumulates_records(self, tmp_path):
        config = TraceConfig(seed=3, root_rows=50, versions=6, churn=40,
                             checkpoints=0, evolutions=0, steady=True)
        ops, _meta = build_writer_plan(config)
        with Store.open(tmp_path / "s", checkpoint_interval=0) as store:
            for op in ops:
                apply_writer_op(store.orpheus, op, config)
            cvd = store.orpheus.cvd(config.cvd)
            # Record universe grows by ~churn per commit...
            assert cvd.record_count >= 50 + 40 * 5
            # ...while the live tip stays bounded near root + churn.
            tip = len(store.orpheus.checkout_rows(config.cvd, [6]))
            assert tip <= 50 + 2 * 40


if __name__ == "__main__":
    sys.exit(main())
