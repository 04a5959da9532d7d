"""The four closed-loop workloads and the state they run against.

One :class:`Bench` per run.  It owns the seeded inputs (plan + oracle),
the in-process writer store, the ``orpheus serve`` subprocess and the one
client connection; the workloads are methods that perform a single unit
of work (one wire read, one HTAP cycle, one admin cycle) and file the
latency of each operation under its type.

Never more than two runnable processes: the client thread here and the
one server worker.  The HTAP writer runs inline in this thread between
reads; the admin cycles spawn their server only while the main one idles.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
import shutil
import time
import zlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.persist import Store
from repro.serve import ServeManager
from repro.serve.server import checkout_response

from datagen import (
    CVD,
    FULL,
    QUERY_KINDS,
    QUICK,
    SCHEMA,
    Commit,
    Oracle,
    Plan,
    commit_sql,
    query_sql,
)
from harness import CHECKPOINT_EVERY, WORK, Server, WireClient, socket_tmp
from tracing import Tracer

#: Fixed op counts (units are reads, HTAP cycles or admin cycles).  The
#: timed main phase runs for ``--seconds``; everything here is fixed so
#: the same seed always executes the same sequence around it.
SIZES = {
    "setups": 3,  # set-ups per run; setup_s is their median
    "warm_reads": 140,  # warm-up ops after touching every hot key once
    "warm_cycles": 10,
    "probe_reads": 800,  # side phases for op types a workload lacks
    "probe_cycles": 50,
    "probe_admin": 3,
    "htap_cycles_per_second": 11,  # about what this VM does at the seed commit
    "pings": 200,
    "window": {"reads": 300, "cycles": 30, "admin": 1},  # traced, exact
    "block": {"reads": 100, "cycles": 5, "admin": 1},  # calibration stamps
}
QUICK_SIZES = {
    "setups": 1,
    "warm_reads": 10,
    "warm_cycles": 1,
    "probe_reads": 30,
    "probe_cycles": 3,
    "probe_admin": 1,
    "htap_cycles_per_second": 6,
    "pings": 20,
    "window": {"reads": 40, "cycles": 3, "admin": 1},
    "block": {"reads": 10, "cycles": 1, "admin": 1},
}
HOT_VERSIONS = 32  # newest versions the hot mix reads: 32 x 5 = 160 keys
HOT_LITERAL = 500
ADMIN_COMMITS = 5
#: The calibration work: JSON round trip, dict build and sort of 300 rows
#: — the same kind of allocation-heavy Python the program runs, so the
#: VM's slow periods slow it by about the same factor (an arithmetic loop
#: slows only half as much).
CALIBRATION_ROWS = [
    [i, 3 * i, f"g{i % 8}", i % 997, i * 0.37, f"t{i % 50}"] for i in range(300)
]
#: What the calibration takes on this VM at its normal speed; reported
#: times are scaled to it.
REFERENCE_SPEED_S = 1.40e-3


def zipf_weights(count: int) -> list[float]:
    """Cumulative weights of a recency-skewed pick: rank 1 is the newest."""
    return list(itertools.accumulate(1 / rank**1.1 for rank in range(1, count + 1)))


@dataclass(frozen=True)
class Block:
    """One stretch of a phase."""

    stamp: int  # index into Bench.speeds: the VM's speed around it
    ops: int
    wall: float  # seconds, off-clock time taken out


@dataclass(frozen=True)
class ReadOp:
    kind: str  # "checkout" | "query"
    target: tuple  # vids, or a datagen.Query
    line: bytes  # the encoded request, built outside every stopwatch
    min_lsn: int | None = None


def checkout_op(vids: tuple, min_lsn: int | None = None) -> ReadOp:
    request = {"op": "checkout", "cvd": CVD, "vids": list(vids), "rows": True}
    if min_lsn is not None:
        request["min_lsn"] = min_lsn
    line = json.dumps(request).encode() + b"\n"
    return ReadOp("checkout", tuple(vids), line, min_lsn)


def query_op(query: tuple) -> ReadOp:
    request = {"op": "query", "sql": query_sql(query)}
    return ReadOp("query", query, json.dumps(request).encode() + b"\n")


def apply_commit(orpheus, commit: Commit, tracer: Tracer, op_id: int = 0):
    """Stage and commit one version through the public API.

    Returns ``(vid, checkout seconds, dml seconds, commit seconds)``.
    """
    table = f"w{commit.vid}"
    t0 = time.perf_counter()
    with tracer.span("op.stage", op=op_id):
        orpheus.checkout(CVD, [commit.parent], table_name=table)
        t1 = time.perf_counter()
        with tracer.span("storage.dml"):
            for statement in commit_sql(commit, table):
                orpheus.run(statement)
    t2 = time.perf_counter()
    with tracer.span("op.commit", op=op_id + 1):
        vid = orpheus.commit(table, message=f"v{commit.vid}")
    t3 = time.perf_counter()
    return vid, t1 - t0, t2 - t1, t3 - t2


class Laps:
    """Stopwatch for a chain of long steps with a calibration between
    each, taken off the clock."""

    def __init__(self, bench: "Bench"):
        self.bench = bench
        self.stamps = [bench.stamp()]
        self.mark = time.perf_counter() - bench.off_clock_s

    def seconds(self) -> float:
        """On-clock seconds since the last lap."""
        return time.perf_counter() - self.bench.off_clock_s - self.mark

    def lap(self) -> tuple[float, list[float]]:
        """(seconds the step just ended took, the stamps around it)."""
        seconds = self.seconds()
        self.stamps.append(self.bench.stamp())
        self.mark = time.perf_counter() - self.bench.off_clock_s
        return seconds, self.stamps[-2:]


RECENT = zipf_weights(8)


class Bench:
    def __init__(self, workload: str, seed: int, quick: bool, work: Path):
        self.workload = workload
        self.scale = QUICK if quick else FULL
        self.sizes = QUICK_SIZES if quick else SIZES
        self.work = work
        self.base = work / "base"  # un-optimized, checkpointed, never served
        self.live = work / "live"  # optimized copy: writer store + server
        self.tmp = socket_tmp(WORK)
        self.tracer = Tracer()

        self.plan = Plan(seed, self.scale)
        self.oracle = Oracle(self.plan.root)
        self.build = [self.plan.next_commit() for _ in range(self.scale.versions - 1)]
        for commit in self.build:
            self.oracle.apply(commit)
        # Every admin cycle replays the same five linear commits on its
        # byte-identical copy of the base store.
        admin_rng = random.Random(seed * 31 + 5)
        tip = self.plan.tip
        self.admin_commits = [
            self.plan.commit_on(tip + i + 1, tip + i, admin_rng)
            for i in range(ADMIN_COMMITS)
        ]
        self.admin_oracle = self.oracle.fork()
        for commit in self.admin_commits:
            self.admin_oracle.apply(commit)
        self._admin_bytes = self.admin_oracle.user_bytes - self.oracle.user_bytes
        self.rng = random.Random(seed * 104729 + 3)  # op streams

        #: Calibration seconds (mean of before and after), one entry per
        #: block of a phase and per long op stamped on its own.
        self.speeds: list[float] = []
        #: name -> [(index into speeds, seconds)]
        self.samples: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.stamp_id = -1  # of the running block
        self.attempted = 0
        self.failed = 0
        self.off_clock_s = 0.0  # verification, copies, teardown
        self.wire_ops = 0
        self.bytes_in = 0
        self.commits = 0
        self.user_bytes_committed = 0
        self.op_id = 0
        self._proven: dict[bytes, int] = {}

        self.store: Store | None = None
        self.server: Server | None = None
        self.client: WireClient | None = None
        self.worker_pid = 0
        # Trace mode: an in-process ServeManager replays each wire read in
        # lockstep so its time can be split by layer.
        self.shadow: ServeManager | None = None
        self.shadow_io = defaultdict(int)

    # ------------------------------------------------------------------ set-up

    def setup(self) -> None:
        """Build the store from the trace, optimize, checkpoint, start the
        server and wait for its first ``ping``; files the seconds taken.

        The operator steps are an admin cycle's, on the same base store,
        so their latencies are filed too: workloads without admin cycles
        report them.  Calibrations sit between the steps, off the clock.
        """
        laps = Laps(self)
        store = Store.open(self.base, checkpoint_interval=CHECKPOINT_EVERY)
        try:
            store.orpheus.init(CVD, SCHEMA, rows=self.plan.root, primary_key=("id",))
            for commit in self.build:
                apply_commit(store.orpheus, commit, self.tracer)
            store.checkpoint()
        finally:
            store.close()
        shutil.copytree(self.base, self.live)
        self.store = Store.open(self.live, checkpoint_interval=CHECKPOINT_EVERY)
        built, _ = laps.lap()
        self.store.orpheus.optimize(CVD)  # LyreSplit, gamma = 2, mu = 1.5
        optimized, around = laps.lap()
        self.record("setup_optimize", optimized, around)
        self.store.checkpoint()
        checkpointed, around = laps.lap()
        self.record("setup_checkpoint", checkpointed, around)
        self.server = Server(self.live, self.tmp)
        self.client = WireClient(self.server.port)
        _, raw = self.client.call(b'{"op": "ping"}\n')
        served = laps.seconds()
        self.worker_pid = json.loads(raw)["pid"]
        self.read(checkout_op((self.plan.tip,)), "first")
        opened, around = laps.lap()  # spawn → first checkout complete
        self.record("setup_open", opened, around)
        self.record("setup", built + optimized + checkpointed + served, laps.stamps)

    def teardown(self) -> None:
        """Stop the server, close the stores, drop the files (idempotent)."""
        if self.shadow is not None:
            self.shadow.close()
            self.shadow = None
        if self.server is not None:
            self.server.stop(self.client)
            self.server = self.client = None
        if self.store is not None:
            self.store.close()
            self.store = None
        shutil.rmtree(self.base, ignore_errors=True)
        shutil.rmtree(self.live, ignore_errors=True)

    @contextmanager
    def off_clock(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.off_clock_s += time.perf_counter() - started

    def next_op(self, count: int = 1) -> int:
        self.op_id += count
        return self.op_id - count + 1

    # ------------------------------------------------------------------- reads

    def read(self, op: ReadOp, metric: str, oracle: Oracle | None = None) -> float:
        """One wire op: timed send→newline, then checked off the clock.
        Returns the latency in seconds (0.0 for a failed op)."""
        self.attempted += 1
        op_id = self.next_op()
        try:
            elapsed, raw = self.client.call(op.line)
        except OSError:  # timeout or reset: this connection is out of step
            self.failed += 1
            with self.off_clock():
                self.client.close()
                self.client = WireClient(self.server.port)
            return 0.0
        ended = time.perf_counter()
        self.tracer.add(f"wire.{op.kind}", ended - elapsed, ended, op_id)
        self.record(metric, elapsed)
        self.wire_ops += 1
        self.bytes_in += len(raw)
        with self.off_clock():
            if not self._check(op, raw, oracle or self.oracle):
                self.failed += 1
            if self.shadow is not None and oracle is None:
                self._shadow_read(op, op_id)
        return elapsed

    def _check(self, op: ReadOp, raw: bytes, oracle: Oracle) -> bool:
        # A byte-identical answer to an identical request was already
        # proven correct; only new bytes are decoded and checked in full.
        digest = zlib.crc32(raw)
        if self._proven.get(op.line) == digest:
            return True
        try:
            response = json.loads(raw)
        except ValueError:
            return False
        if op.kind == "checkout":
            ok = oracle.check_checkout(response, op.target, op.min_lsn)
        else:
            ok = oracle.check_query(response, op.target)
        if ok:
            self._proven[op.line] = digest
        return ok

    def _shadow_read(self, op: ReadOp, op_id: int) -> None:
        """The same read through an in-process ServeManager, stage by
        stage, with the response built the way the server builds it."""
        tracer, manager = self.tracer, self.shadow
        with manager.session(refresh=False) as session:
            io = session.orpheus.db.stats
        scanned, interpreted = io.records_scanned, io.exprs_interpreted
        with tracer.span("shadow.read", op=op_id):
            if op.kind == "checkout":
                with tracer.span("serve.payload"):
                    columns, rows, lsn = manager.checkout_payload(
                        CVD, list(op.target), op.min_lsn
                    )
                with tracer.span("serve.encode"):
                    json.dumps(checkout_response(columns, rows, lsn))
                returned = len(rows)
            else:
                with tracer.span("serve.payload"):
                    result, lsn = manager.query_payload(query_sql(op.target))
                with tracer.span("serve.encode"):
                    json.dumps(
                        {
                            "ok": True,
                            "columns": result.columns,
                            "rows": [list(row) for row in result.rows],
                            "count": result.rowcount,
                            "lsn": lsn,
                        }
                    )
                returned = result.rowcount
        if tracer.enabled:
            totals = self.shadow_io
            totals[f"{op.kind}_ops"] += 1
            totals[f"{op.kind}_scanned"] += max(0, io.records_scanned - scanned)
            totals[f"{op.kind}_returned"] += returned
            totals["interpreted"] += max(0, io.exprs_interpreted - interpreted)

    # ----------------------------------------------------------------- streams

    def _hot_ops(self) -> dict[int, list[ReadOp]]:
        """Per version: its checkout, then the four fixed statements."""
        newest = range(self.plan.tip, max(1, self.plan.tip - HOT_VERSIONS), -1)
        return {
            vid: [checkout_op((vid,))]
            + [query_op((kind, vid, vid - 1, HOT_LITERAL)) for kind in QUERY_KINDS[:4]]
            for vid in newest
        }

    def hot_stream(self):
        """80 % checkouts, 20 % queries, Zipf-by-recency over the newest
        versions; every key was touched by the warm-up, so the working
        set (160 keys) sits in the 256-entry L1."""
        ops = self._hot_ops()
        vids = list(ops)  # newest first
        weights = zipf_weights(len(vids))
        rng = self.rng
        while True:
            entry = ops[rng.choices(vids, cum_weights=weights)[0]]
            yield entry[0] if rng.random() < 0.8 else entry[rng.randrange(1, 5)]

    def cold_stream(self):
        """A repeating 9-op pattern in which no key ever recurs: each
        single-version checkout is issued once, multi-version checkouts
        and query literals are drawn without repetition, so L1 (256) and
        L2 (1024) both miss with the caches left on."""
        rng, tip = self.rng, self.plan.tip
        singles = list(range(1, tip + 1))
        rng.shuffle(singles)
        seen: set = set()

        def fresh(draw):
            while True:
                key = draw()
                if key not in seen:
                    seen.add(key)
                    return key

        def multi():
            return tuple(rng.sample(range(1, tip + 1), rng.choice((2, 3))))

        def query(kind):
            vid = rng.randrange(2, tip + 1)
            return (kind, vid, rng.randrange(1, vid), rng.randrange(1000))

        for pattern in itertools.count():
            yield checkout_op((singles.pop(),) if singles else fresh(multi))
            for slot in range(4):
                yield checkout_op(fresh(multi))
                kind = QUERY_KINDS[(pattern * 4 + slot) % len(QUERY_KINDS)]
                yield query_op(fresh(lambda: query(kind)))

    # --------------------------------------------------------------- workloads

    def warm_hot(self) -> None:
        """Touch every hot key once, so the timed phase starts all-hit."""
        for entry in self._hot_ops().values():
            for op in entry:
                self.read(op, "warm")

    def htap_cycle(self, reads: bool = True) -> int:
        """stage → commit → fenced read of the new version → 2 recent
        checkouts → 1 query.  Six timed ops (three without ``reads``)."""
        commit = self.plan.next_commit()
        vid, t_checkout, t_dml, t_commit = apply_commit(
            self.store.orpheus, commit, self.tracer, self.next_op(2)
        )
        lsn = self.store.last_lsn
        self.attempted += 2
        self.commits += 1
        with self.off_clock():
            known = self.oracle.user_bytes
            self.oracle.apply(commit)
            self.user_bytes_committed += self.oracle.user_bytes - known
            if vid != commit.vid:
                self.failed += 1
        self.record("stage", t_checkout + t_dml)
        self.record("commit", t_commit)
        self.read(checkout_op((vid,), min_lsn=lsn), "fresh_read")
        if not reads:
            return 3
        # Recency-skewed reads over the 8 newest versions; every commit
        # moved the lsn, so these mostly miss the invalidated cache.
        rng = self.rng
        recent = [vid - r for r in rng.choices(range(8), cum_weights=RECENT, k=3)]
        for target in recent[:2]:
            self.read(checkout_op((target,)), "checkout")
        kind = QUERY_KINDS[rng.randrange(4)]
        self.read(query_op((kind, recent[2], recent[2] - 1, HOT_LITERAL)), "query")
        return 6

    def admin_cycle(self, commits: tuple | None = None) -> int:
        """open → optimize → 5 commits → checkpoint → close → serve →
        first checkout → shutdown, on a fresh copy of the base store.
        Each long step is stamped on its own."""
        tracer = self.tracer
        commits = self.admin_commits if commits is None else commits
        cycle = self.work / "cycle"
        with self.off_clock():
            shutil.copytree(self.base, cycle)
        first = self.next_op(3 + 2 * len(commits))
        laps = Laps(self)
        with tracer.span("op.open", op=first):
            with tracer.span("persist.open_rw"):
                store = Store.open(cycle, checkpoint_interval=CHECKPOINT_EVERY)
        try:
            self.record("open_rw", *laps.lap())
            with tracer.span("op.optimize", op=first + 1):
                store.orpheus.optimize(CVD)
            self.record("optimize", *laps.lap())
            timings = []
            for index, commit in enumerate(commits):
                vid, t_checkout, t_dml, t_commit = apply_commit(
                    store.orpheus, commit, tracer, first + 2 + 2 * index
                )
                timings.append((t_checkout + t_dml, t_commit))
                if vid != commit.vid:
                    self.failed += 1
            _, around = laps.lap()
            for staged, committed in timings:
                self.record("stage", staged, around)
                self.record("commit", committed, around)
            with tracer.span("op.checkpoint", op=first + 2 + 2 * len(commits)):
                store.checkpoint()
            self.record("checkpoint", *laps.lap())
        finally:
            store.close()
        self.attempted += 3 + 2 * len(commits)
        self.commits += len(commits)
        self.user_bytes_committed += self._admin_bytes if commits else 0

        # Process spawn → first checkout response complete.
        main = self.server, self.client
        laps.lap()
        self.server, self.client = Server(cycle, self.tmp), None
        try:
            self.client = WireClient(self.server.port)
            tip = commits[-1].vid if commits else self.scale.versions
            self.read(checkout_op((tip,)), "first", self.admin_oracle)
            self.record("open", *laps.lap())
        finally:
            with self.off_clock():
                self.server.stop(self.client)
                self.server, self.client = main
                shutil.rmtree(cycle, ignore_errors=True)
        return 4 + 2 * len(commits)

    # ------------------------------------------------------------------ phases

    def record(self, name: str, seconds: float, stamps=None) -> None:
        """File a sample under the running block's stamp — or, for a long
        op calibrated on its own, under the mean of its ``stamps``."""
        stamp = self.stamp_id
        if stamps:
            stamp = len(self.speeds)
            self.speeds.append(sum(stamps) / len(stamps))
        if stamp >= 0:  # warm-up reads outside any block are not samples
            self.samples[name].append((stamp, seconds))

    def stamp(self) -> float:
        """A calibration, off the clock."""
        with self.off_clock():
            return self.calibrate()

    def calibrate(self) -> float:
        """Seconds a fixed piece of pure-Python work takes right now
        (best of 2): the VM's current speed, measured without touching
        the program under test."""
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            for _ in range(3):
                rows = json.loads(json.dumps(CALIBRATION_ROWS))
                {tuple(row[1:]): row[0] for row in rows}
                rows.sort(key=operator.itemgetter(4), reverse=True)
            best = min(best, time.perf_counter() - started)
        return best

    def run_phase(self, step, unit: str, seconds=None, units=None) -> list[Block]:
        """Repeat ``step`` in blocks until the deadline or the unit count.
        Each block is stamped with the mean of the calibrations taken just
        before and just after it."""
        size = self.sizes["block"][unit]
        blocks = []
        done = 0
        started = time.perf_counter()
        speed = self.calibrate()
        while (units is None or done < units) and (
            seconds is None or time.perf_counter() - started < seconds
        ):
            self.stamp_id = len(self.speeds)
            self.speeds.append(0.0)  # known once the block has run
            count = size if units is None else min(size, units - done)
            off = self.off_clock_s
            ops = 0
            began = time.perf_counter()
            for _ in range(count):
                ops += step()
            wall = time.perf_counter() - began - (self.off_clock_s - off)
            before, speed = speed, self.calibrate()
            self.speeds[self.stamp_id] = (before + speed) / 2
            blocks.append(Block(self.stamp_id, ops, wall))
            done += count
        self.stamp_id = -1
        return blocks

    def _scale(self, stamp: int) -> float:
        """Factor that restates a time taken at this stamp at the VM's
        reference speed."""
        return REFERENCE_SPEED_S / self.speeds[stamp]

    def values(self, name: str, raw: bool = False) -> list[float]:
        """A metric's samples at reference speed (``raw``: as timed)."""
        return [v if raw else v * self._scale(s) for s, v in self.samples[name]]

    def throughput(self, blocks: list[Block], raw: bool = False) -> tuple[int, float]:
        """(ops, seconds at reference speed) of a phase."""
        seconds = sum(b.wall * (1 if raw else self._scale(b.stamp)) for b in blocks)
        return sum(b.ops for b in blocks), seconds

    def probe(self, step, unit: str, units: int, keep: tuple = ()) -> None:
        """A fixed-size phase whose samples are dropped, except ``keep``
        (warm-ups keep nothing; side phases keep the op types the main
        phase never issues)."""
        main, self.samples = self.samples, defaultdict(list)
        try:
            self.run_phase(step, unit, units=units)
        finally:
            taken, self.samples = self.samples, main
        for name in keep:
            self.samples[name] = taken[name]

    def read_step(self, stream):
        def step() -> int:
            op = next(stream)
            self.read(op, op.kind)
            return 1

        return step

    def main_phase(self, seconds: float) -> tuple[object, str, dict]:
        """(step, unit, how long to run it) of this workload's timed
        phase, warmed up.  Reads and admin cycles are stationary and run
        for ``seconds``.  A commit's cost grows with the version count,
        so HTAP runs a cycle count fixed by ``seconds`` instead of a
        timer: a faster program must not be charged for reaching deeper
        histories."""
        sizes = self.sizes
        if self.workload == "serve_hot":
            self.warm_hot()
            step = self.read_step(self.hot_stream())
            self.probe(step, "reads", sizes["warm_reads"])
            return step, "reads", {"seconds": seconds}
        if self.workload == "serve_cold":
            step = self.read_step(self.cold_stream())
            self.probe(step, "reads", sizes["warm_reads"])
            return step, "reads", {"seconds": seconds}
        if self.workload == "htap_mixed":
            self.probe(self.htap_cycle, "cycles", sizes["warm_cycles"])
            cycles = max(1, round(seconds * sizes["htap_cycles_per_second"]))
            return self.htap_cycle, "cycles", {"units": cycles}
        return self.admin_cycle, "admin", {"seconds": seconds}

    def side_phases(self) -> None:
        """Fixed-size phases for the op types the main phase never issued,
        so every end-to-end metric has real samples on every workload."""
        sizes = self.sizes
        lacking = [
            name
            for name in ("checkout", "commit", "fresh_read", "open")
            if name not in self.samples
        ]
        if "commit" in lacking or "fresh_read" in lacking:
            keep = tuple(n for n in ("commit", "fresh_read") if n in lacking)
            step = functools.partial(self.htap_cycle, reads=False)
            self.probe(step, "cycles", sizes["probe_cycles"], keep)
        if "open" in lacking:
            # The operator steps alone (no commits): what each set-up did.
            keep = ("open", "optimize", "checkpoint")
            step = functools.partial(self.admin_cycle, commits=())
            self.probe(step, "admin", sizes["probe_admin"], keep)
            for name in keep:
                self.samples[name] += self.samples[f"setup_{name}"]
        if "checkout" in lacking:
            self.warm_hot()
            step = self.read_step(self.hot_stream())
            self.probe(step, "reads", sizes["probe_reads"], ("checkout", "query"))
