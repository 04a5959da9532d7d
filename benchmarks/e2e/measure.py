"""What a run measures: the end-to-end pass and the traced per-layer pass.

Imported by ``run.py`` once ``src/`` is on the path; see README.md for the
definition of every metric computed here.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from pathlib import Path

from repro.obs import metrics as obs
from repro.persist import Store
from repro.serve import ServeManager

from datagen import CVD
from harness import (
    ROOT,
    WORK,
    cpu_seconds,
    dir_bytes,
    environment,
    fresh_work_dir,
    peak_rss_mb,
    percentile,
    summary_ms,
)
from workloads import Bench

# --------------------------------------------------------------- end to end


def run_plain(bench, seconds: float) -> tuple[dict, dict]:
    """Untraced run: every end-to-end metric, from real samples."""
    for attempt in range(bench.sizes["setups"]):
        if attempt:
            bench.teardown()
        bench.setup()
    step, unit, length = bench.main_phase(seconds)
    main = bench.run_phase(step, unit, **length)
    ops, wall = bench.throughput(main)
    raw_ops, raw_wall = bench.throughput(main, raw=True)
    bench.side_phases()

    rss = peak_rss_mb(bench.worker_pid)
    bench.server.stop(bench.client)
    bench.server = bench.client = None
    bench.store.checkpoint()
    bench.store.close()
    bench.store = None
    stored = dir_bytes(bench.live)

    names = "checkout query commit fresh_read open optimize checkpoint".split()
    latency = {name: summary_ms(bench.values(name)) for name in names}
    raw = {name: bench.values(name, raw=True) for name in names}
    metrics = {f"{name}_p50_ms": summary["p50"] for name, summary in latency.items()}
    metrics.update(
        setup_s=statistics.median(bench.values("setup")),
        ops_per_s=ops / wall,
        stored_bytes_per_user_byte=stored / bench.oracle.user_bytes,
        server_rss_mb=rss,
    )
    detail = {
        "main_phase": {"ops": ops, "scaled_s": wall, "unit": unit, **length},
        # Advisory only: tails differ 15-35 % between runs of the same code.
        "latency_ms": latency,
        # The same samples as the stopwatch read them: every block, no
        # scaling to the reference speed.
        "raw": {
            "setup_s": statistics.median(bench.values("setup", raw=True)),
            "ops_per_s": raw_ops / raw_wall,
            "latency_ms": {name: summary_ms(values) for name, values in raw.items()},
            "calibration_ms": summary_ms(bench.speeds),
        },
        "stored_bytes": stored,
        "user_bytes": bench.oracle.user_bytes,
    }
    return metrics, detail


# ---------------------------------------------------------------- per layer


def counters(bench) -> dict:
    """Everything the program already exports, read from outside: the
    server's ``status`` op, this process's metrics registry (the writer
    and the admin stores live here), ``/proc`` and the optimizer state."""
    _, raw = bench.client.call(b'{"op": "status"}\n')
    status = json.loads(raw)["status"]
    persist = obs.registry().snapshot().get("persist", {})
    wal, store, snapshot = (
        persist.get(part, {}) for part in ("wal", "store", "snapshot")
    )
    l2 = status.get("l2") or {}
    optimizer = bench.store.orpheus.optimizer_for(CVD)
    return {
        "l1_hits": status["cache"]["hits"],
        "l1_misses": status["cache"]["misses"],
        "l2_hits": l2.get("hits", 0),
        "l2_misses": l2.get("misses", 0),
        "wal_bytes": wal.get("bytes_written", 0),
        "fsyncs": wal.get("fsyncs", 0),
        "checkpoint_s": store.get("checkpoint_seconds", {}).get("sum", 0.0),
        "snapshot_bytes": snapshot.get("bytes_written", 0),
        "snapshot_writes": snapshot.get("writes", 0),
        "migrations": len(optimizer.trace.migrations),
        "partitions": optimizer.num_partitions,
        "stored_records": optimizer.current_storage_cost,
        "records": bench.store.orpheus.cvd(CVD).record_count,
        "wire_ops": bench.wire_ops,
        "bytes_in": bench.bytes_in,
        "commits": bench.commits,
        "user_bytes": bench.user_bytes_committed,
        "server_cpu_s": cpu_seconds(bench.worker_pid),
        "client_cpu_s": time.process_time(),
        "clock_s": time.perf_counter(),
    }


def direct_probes(bench) -> dict:
    """The few layer costs no workload op isolates, timed directly."""
    pings = []
    for _ in range(bench.sizes["pings"]):
        pings.append(bench.client.call(b'{"op": "ping"}\n')[0])

    def opens(path, mode):
        times = []
        for _ in range(3):
            started = time.perf_counter()
            store = Store.open(path, mode=mode)
            times.append(time.perf_counter() - started)
            store.close()
        return statistics.median(times) * 1e3

    before = obs.registry().snapshot()["persist"]
    open_ro = opens(bench.live, "ro")
    after = obs.registry().snapshot()["persist"]
    load = after["snapshot"]["load_seconds"]["sum"]
    load -= before["snapshot"]["load_seconds"]["sum"]
    replayed = after["store"]["records_replayed"] - before["store"]["records_replayed"]
    scratch = bench.work / "probe"
    shutil.copytree(bench.base, scratch)
    open_rw = opens(scratch, "rw")
    shutil.rmtree(scratch)

    # Device floor of one durable append: 4 KiB write + fsync.
    fsyncs = []
    with open(bench.work / "fsync.probe", "wb") as handle:
        for _ in range(bench.sizes["pings"] // 4):
            started = time.perf_counter()
            handle.write(b"\0" * 4096)
            handle.flush()
            os.fsync(handle.fileno())
            fsyncs.append(time.perf_counter() - started)
    return {
        "serve.wire_floor_ms": percentile(pings, 0.5) * 1e3,
        "persist.open_ro_ms": open_ro,
        "persist.open_rw_ms": open_rw,
        "persist.snapshot_load_ms": load / 3 * 1e3,
        "persist.records_replayed": replayed / 3,
        "persist.fsync_probe_ms": percentile(fsyncs, 0.5) * 1e3,
    }


def run_traced(bench, seconds: float) -> tuple[dict, dict]:
    """Traced run: the per-layer metrics.

    A fixed *window* of the workload's own ops runs first with every
    layer boundary wrapped and each wire read replayed in-process in
    lockstep — its spans and counter deltas are exact for a seed.  The
    rest of ``--seconds`` alternates untraced and traced blocks of the
    same ops; their throughput difference is the tracing overhead.
    """
    tracer = bench.tracer
    bench.setup()
    metrics = direct_probes(bench)
    bench.shadow = ServeManager(
        str(bench.live), readers=1, cache_capacity=256, writer=False
    )
    step, unit, _length = bench.main_phase(seconds)

    start = counters(bench)
    with tracer.recording():
        blocks = bench.run_phase(step, unit, units=bench.sizes["window"][unit])
    ops, _wall = bench.throughput(blocks, raw=True)
    window = counters(bench)
    window_spans = len(tracer.spans)
    bench.shadow.close()
    bench.shadow = None

    tally = {False: [0, 0.0], True: [0, 0.0]}
    traced = False
    deadline = start["clock_s"] + seconds
    while time.perf_counter() < deadline or not tally[True][0]:
        size = bench.sizes["block"][unit]
        if traced:
            with tracer.recording():
                blocks = bench.run_phase(step, unit, units=size)
        else:
            blocks = bench.run_phase(step, unit, units=size)
        done, wall = bench.throughput(blocks, raw=True)
        tally[traced][0] += done
        tally[traced][1] += wall
        traced = not traced
    end = counters(bench)
    del tracer.spans[window_spans:]

    inclusive, own, nested = tracer.totals()
    delta = {name: window[name] - start[name] for name in start}
    whole = {name: end[name] - start[name] for name in start}

    def per_op(*names: str) -> float:
        return sum(inclusive.get(name, 0.0) for name in names) / ops * 1e3

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    io = bench.shadow_io
    rates = [ratio(done, wall) for done, wall in (tally[False], tally[True])]
    wire = per_op("wire.checkout", "wire.query")
    metrics.update(
        {
            "serve.wire_ms": wire,
            "serve.payload_ms": per_op("serve.payload"),
            "serve.encode_ms": per_op("serve.encode"),
            "serve.transport_ms": wire - per_op("shadow.read") if wire else 0.0,
            "serve.refresh_ms": per_op("serve.refresh"),
            "serve.response_bytes_per_op": ratio(delta["bytes_in"], delta["wire_ops"]),
            "serve.cache_hit_ratio": ratio(
                delta["l1_hits"], delta["l1_hits"] + delta["l1_misses"]
            ),
            "serve.l2_hit_ratio": ratio(
                delta["l2_hits"], delta["l2_hits"] + delta["l2_misses"]
            ),
            "core.checkout_rows_ms": per_op("core.checkout_rows"),
            "core.fetch_version_ms": per_op("core.fetch_version"),
            "core.member_ridset_ms": per_op("core.member_ridset"),
            "core.fetch_rows_ms": per_op("core.fetch_rows"),
            "core.records_per_result": ratio(
                io["checkout_scanned"], io["checkout_returned"]
            ),
            "core.translate_ms": per_op("core.translate"),
            "core.lineage_probe_ms": per_op("core.lineage_probe"),
            "core.checkout_into_ms": per_op("core.checkout_into"),
            "core.commit_ms": per_op("core.commit"),
            "storage.parse_ms": per_op("storage.parse"),
            "storage.execute_ms": per_op("storage.execute"),
            "storage.dml_ms": per_op("storage.dml"),
            "storage.records_scanned_per_query": ratio(
                io["query_scanned"], io["query_ops"]
            ),
            "storage.exprs_interpreted": io["interpreted"],
            "partition.lyresplit_ms": per_op("partition.lyresplit"),
            # Physical (re)partitioning: optimize minus the search, plus
            # migrations triggered online by commits.
            "partition.migrate_ms": own.get("partition.optimize", 0.0) / ops * 1e3
            + per_op("partition.migrate"),
            "partition.maintenance_ms": per_op("partition.maintenance"),
            # Optimizer state when the window ended (absolute, not deltas).
            "partition.num_partitions": window["partitions"],
            "partition.storage_ratio": ratio(
                window["stored_records"], window["records"]
            ),
            "partition.online_migrations": delta["migrations"],
            "persist.wal_append_ms": per_op("persist.wal_append"),
            "persist.checkpoint_ms": per_op("persist.checkpoint"),
            "persist.wal_bytes_per_commit": ratio(delta["wal_bytes"], delta["commits"]),
            "persist.fsyncs_per_commit": ratio(delta["fsyncs"], delta["commits"]),
            "persist.wal_bytes_per_user_byte": ratio(
                delta["wal_bytes"], delta["user_bytes"]
            ),
            "persist.snapshot_bytes": ratio(
                delta["snapshot_bytes"], delta["snapshot_writes"]
            ),
            "persist.checkpoint_stall_share": ratio(
                whole["checkpoint_s"], whole["clock_s"]
            ),
            "bench.server_cpu_ms_per_op": ratio(
                whole["server_cpu_s"] * 1e3, whole["wire_ops"]
            ),
            "bench.client_cpu_share": ratio(whole["client_cpu_s"], whole["clock_s"]),
            "bench.tracing_overhead_pct": ratio(rates[0] - rates[1], rates[0]) * 100,
        }
    )
    trace_path = WORK / f"trace-{bench.workload}.json"
    trace_path.write_text(json.dumps(tracer.document()))
    detail = {
        "window": {"ops": ops, "unit": unit, "units": bench.sizes["window"][unit]},
        "spans_nest": nested,
        "self_ms_per_op": {
            name: seconds_ / ops * 1e3 for name, seconds_ in sorted(own.items())
        },
        "untraced_ops_per_s": rates[0],
        "traced_ops_per_s": rates[1],
        "missing_boundaries": tracer.missing,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    if not nested:
        bench.failed += 1
    return metrics, detail


# ------------------------------------------------------------------- result


def run(args) -> int:
    """Measure one workload and print the result line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    work = fresh_work_dir()
    bench = Bench(args.workload, args.seed, args.quick, work)
    try:
        runner = run_traced if args.trace else run_plain
        values, detail = runner(bench, args.seconds)
    finally:
        bench.teardown()
        shutil.rmtree(work, ignore_errors=True)

    missing = {entry["name"] for entry in section} - set(values)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in section
    }
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.4f} {metric['unit']}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    if args.out:
        document = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "quick": args.quick,
            "comparable": not args.quick,
            "environment": environment(work.parent),
            "scale": vars(bench.scale),
            "op_counts": bench.sizes,
            "failed_ops_share": bench.failed / bench.attempted,
            **result,
            "detail": detail,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(result))
    return 0
