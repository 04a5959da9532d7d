"""Durable-store benchmark: what a commit and a reopen cost.

The repro.persist store appends one delta-encoded, fsync'd WAL record per
commit — O(changed records) bytes — and amortizes full-state writes into
checkpoints.

Measured here, per dataset size, against a *long-lived* store (the
library/server path, one `Store.open` across all commits):

* persistence latency of the commit step (the fsync'd WAL append);
* bytes written per commit (one WAL record) against the bytes of the
  store's own checkpoint of the same state;
* cold-reopen time: WAL replay vs snapshot load.

Scope note: the per-process CLI additionally writes a full snapshot when
a *checkout* command exits (staging is snapshot-only state); the
O(delta) claim is about the commit step and the long-lived-store path,
not the checkout command.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import pytest

if __package__ in (None, ""):
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import print_header
from repro.core.orpheus import OrpheusDB
from repro.persist import Store

SCHEMA = [("k", "int"), ("v", "int")]
SWEEP_SIZES = [1_000, 5_000, 10_000]
COMMITS = 5


def _init_cvd(orpheus: OrpheusDB, num_rows: int) -> None:
    orpheus.init(
        "t",
        SCHEMA,
        rows=[(i, i) for i in range(num_rows)],
        primary_key=("k",),
    )


def _one_commit(orpheus: OrpheusDB, step: int, num_rows: int) -> None:
    """Check out the latest version, add one row, commit (an O(1) delta)."""
    latest = max(orpheus.cvd("t").graph.version_ids())
    table = f"work_{step}"
    orpheus.checkout("t", latest, table_name=table)
    orpheus.run(f"INSERT INTO {table} VALUES (NULL, {num_rows + step}, {step})")
    orpheus.commit(table, message=f"step {step}")


class _TimedJournal:
    """Wraps a store's journal to time each fsync'd append."""

    def __init__(self, store: Store):
        self.store = store
        self.times: list[float] = []

    def encode(self, record: dict) -> bytes:
        return self.store.encode(record)

    def append(self, body: bytes, barrier: bool) -> None:
        started = time.perf_counter()
        self.store.append(body, barrier)
        self.times.append(time.perf_counter() - started)


def measure(num_rows: int, commits: int = COMMITS) -> dict:
    """Latency and bytes of the durable store at one size.

    ``wal_persist_s`` isolates the durability work one checkout+edit+commit
    cycle pays: a single O(delta) WAL record at commit (the checkout
    journals nothing here; only the per-process CLI snapshots staging at
    command exit, which this benchmark deliberately excludes — see the
    module docstring).  ``wal_command_s`` is the whole cycle including
    the in-memory staging work.
    """
    from statistics import median

    out: dict = {"num_rows": num_rows}
    with tempfile.TemporaryDirectory() as raw:
        root = Path(raw)

        # WAL store: persist = one fsync'd delta record per commit.
        store = Store.open(root / "store", checkpoint_interval=0)
        _init_cvd(store.orpheus, num_rows)
        timed = _TimedJournal(store)
        store.orpheus.attach_journal(timed)
        command_times = []
        wal_deltas = []
        persist_times = []
        for step in range(commits):
            before = store.wal_size_bytes()
            appended = len(timed.times)
            started = time.perf_counter()
            _one_commit(store.orpheus, step, num_rows)
            command_times.append(time.perf_counter() - started)
            wal_deltas.append(store.wal_size_bytes() - before)
            persist_times.append(sum(timed.times[appended:]))
        out["wal_command_s"] = median(command_times)
        out["wal_persist_s"] = median(persist_times)
        out["wal_bytes"] = max(wal_deltas)
        store.orpheus.attach_journal(store)
        store.close(sync=False)
        started = time.perf_counter()
        Store.open(root / "store", checkpoint_interval=0).close(sync=False)
        out["wal_replay_reopen_s"] = time.perf_counter() - started

        # And reopen once a checkpoint has compacted the log.
        checkpointed = Store.open(root / "store", checkpoint_interval=0)
        snapshot = checkpointed.checkpoint()
        checkpointed.close()
        out["snapshot_bytes"] = sum(
            entry.stat().st_size for entry in snapshot.iterdir()
        )
        started = time.perf_counter()
        Store.open(root / "store", checkpoint_interval=0).close(sync=False)
        out["snapshot_reopen_s"] = time.perf_counter() - started
    return out


# ------------------------------------------- restore-then-commit placement


def _commit_disjoint(orpheus, step: int, fresh_rows: int) -> int:
    """Commit a version sharing no records with its parent.

    Under the online rule (Section 4.3) such a commit opens a fresh
    partition instead of inflating a sibling's checkout cost.
    """
    latest = max(orpheus.cvd("t").graph.version_ids())
    table = f"fresh_{step}"
    orpheus.checkout("t", latest, table_name=table)
    orpheus.run(f"DELETE FROM {table}")
    base = 1_000_000 + step * fresh_rows
    for i in range(fresh_rows):
        orpheus.run(f"INSERT INTO {table} VALUES (NULL, {base + i}, {i})")
    return orpheus.commit(table, message=f"disjoint {step}")


def measure_restore_placement(
    num_rows: int = 400, commits: int = 4, fresh_rows: int = 50
) -> dict:
    """Placement cost of restore-then-commit.

    Recovers a checkpointed store (optimized CVD), then commits
    ``commits`` record-disjoint versions under the restored optimizer's
    policy.  All reported figures are deterministic record counts, not
    wall time.
    """
    out: dict = {"num_rows": num_rows, "commits": commits}
    with tempfile.TemporaryDirectory() as raw:
        root = Path(raw)
        seeded = Store.open(root / "store", checkpoint_interval=0)
        _init_cvd(seeded.orpheus, num_rows)
        seeded.orpheus.optimize("t")
        seeded.checkpoint()
        seeded.close()

        store = Store.open(root / "store", checkpoint_interval=0)
        orpheus = store.orpheus
        tip = 0
        for step in range(commits):
            tip = _commit_disjoint(orpheus, step, fresh_rows)
        model = orpheus.cvd("t").model
        orpheus.db.reset_stats()
        orpheus.cvd("t").checkout_rows([tip])
        out["scanned"] = orpheus.db.stats.records_scanned
        out["cavg"] = model.checkout_cost_avg
        out["partitions"] = len(model.partition_states())
        store.close(sync=False)
    return out


# ------------------------------------------------------------------- tests


def test_benchmark_wal_commit(benchmark):
    """One checkout+insert+commit cycle against the durable store."""
    with tempfile.TemporaryDirectory() as raw:
        store = Store.open(Path(raw) / "store", checkpoint_interval=0)
        _init_cvd(store.orpheus, 10_000)
        counter = [0]

        def cycle():
            _one_commit(store.orpheus, counter[0], 10_000)
            counter[0] += 1

        benchmark.pedantic(cycle, rounds=3, iterations=1)
        store.close(sync=False)


class TestAcceptance:
    @pytest.fixture(scope="class")
    def results(self):
        return measure(10_000, commits=3)

    def test_wal_appends_delta_not_database(self, results):
        # The checkpoint carries every version's payload; one WAL commit
        # record carries one insert plus a drop/tail membership delta.
        assert results["wal_bytes"] * 50 < results["snapshot_bytes"], results

    def test_snapshot_reopen_not_slower_than_wal_replay(self, results):
        assert results["snapshot_reopen_s"] < results["wal_replay_reopen_s"] + 1.0


class TestRestorePlacementAcceptance:
    """Deterministic (count-based) check of the optimizer-state restore."""

    @pytest.fixture(scope="class")
    def results(self):
        return measure_restore_placement()

    def test_restored_policy_checkout_is_partition_local(self, results):
        # The tip's checkout touches roughly its own fresh partition (the
        # version plus its rlist), not records accumulated by siblings.
        assert results["scanned"] <= 3 * 50 + 5, results


# -------------------------------------------------------------------- main


def main() -> None:
    print_header("repro.persist: WAL+snapshot store")
    placement = measure_restore_placement()
    print(
        "restore-then-commit placement (4 disjoint commits after reopen): "
        f"{placement['partitions']} partitions, "
        f"Cavg {placement['cavg']:.1f}, "
        f"tip checkout scans {placement['scanned']} records\n"
    )
    columns = [
        ("wal_persist_s", lambda v: f"{v * 1000:9.2f} ms"),
        ("wal_bytes", lambda v: f"{v / 1024:9.1f} KB"),
        ("snapshot_bytes", lambda v: f"{v / 1024:9.1f} KB"),
        ("wal_replay_reopen_s", lambda v: f"{v * 1000:9.2f} ms"),
        ("snapshot_reopen_s", lambda v: f"{v * 1000:9.2f} ms"),
    ]
    header = f"{'rows':>8}" + "".join(f"{name:>22}" for name, _fmt in columns)
    print(header)
    for num_rows in SWEEP_SIZES:
        row = measure(num_rows)
        cells = "".join(f"{fmt(row[name]):>22}" for name, fmt in columns)
        print(f"{num_rows:>8}{cells}")


if __name__ == "__main__":
    main()
