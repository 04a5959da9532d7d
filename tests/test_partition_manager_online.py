"""Tests for physical partitioning, online maintenance, and migration."""

import pytest

from repro.errors import PartitionError
from repro.partition.bipartite import BipartiteGraph, Partitioning
from repro.partition.migration import plan_intelligent, plan_naive
from repro.partition.online import MAX_SAMPLES, MaintenanceSample, PartitionOptimizer
from repro.storage.engine import Database
from repro.workloads import load_workload


@pytest.fixture
def optimized(sci_tiny):
    db = Database()
    cvd = load_workload(db, "sci", sci_tiny)
    optimizer = PartitionOptimizer(cvd, storage_multiple=2.0, tolerance=1.5)
    optimizer.run_full_partitioning()
    return cvd, optimizer


class TestPhysicalPartitioning:
    def test_checkout_equivalence_after_partitioning(self, sci_tiny):
        """Partitioned storage must return exactly the same versions."""
        db = Database()
        cvd = load_workload(db, "sci", sci_tiny)
        expected = {
            vid: sorted(cvd.model.fetch_version(vid))
            for vid in cvd.graph.version_ids()
        }
        PartitionOptimizer(cvd, storage_multiple=2.0).run_full_partitioning()
        for vid, rows in expected.items():
            assert sorted(cvd.model.fetch_version(vid)) == rows

    def test_old_monolithic_tables_dropped(self, optimized):
        cvd, _opt = optimized
        assert not cvd.db.has_table("sci__data")
        assert not cvd.db.has_table("sci__versions")

    def test_storage_within_budget(self, optimized):
        cvd, optimizer = optimized
        assert optimizer.current_storage_cost <= 2.0 * cvd.record_count

    def test_checkout_touches_only_one_partition(self, optimized):
        cvd, optimizer = optimized
        model = cvd.model
        vid = cvd.graph.leaves()[0]
        partition = model.partition_states()[
            [s.index for s in model.partition_states()].index(
                model.partition_of(vid)
            )
        ]
        cvd.db.reset_stats()
        model.fetch_version(vid)
        # Scanned records bounded by the partition, not the whole CVD.
        assert cvd.db.stats.records_scanned <= partition.num_records + len(
            cvd.member_rids(vid)
        ) + 5

    def test_checkout_cost_reduced_vs_unpartitioned(self, sci_tiny):
        db = Database()
        cvd = load_workload(db, "sci", sci_tiny)
        vid = cvd.graph.leaves()[0]
        db.reset_stats()
        cvd.model.fetch_version(vid)
        before = db.stats.records_scanned
        PartitionOptimizer(cvd, storage_multiple=2.0).run_full_partitioning()
        db.reset_stats()
        cvd.model.fetch_version(vid)
        after = db.stats.records_scanned
        assert after < before

    def test_translator_works_on_partitioned_model(self, optimized):
        cvd, _opt = optimized
        from repro.core.orpheus import OrpheusDB

        # Wire a facade around the existing db/cvd for translation.
        orpheus = OrpheusDB(cvd.db)
        orpheus._cvds["sci"] = cvd
        count = orpheus.run("SELECT count(*) FROM VERSION 1 OF CVD sci").scalar()
        assert count == len(cvd.member_rids(1))
        total = orpheus.run(
            "SELECT count(*) FROM ALL VERSIONS OF CVD sci AS av"
        ).scalar()
        assert total == cvd.bipartite_edge_count


def dag_history():
    """Versions 2 and 3 branch off 1, 4 merges them, 5 follows 4 and 6
    follows 2; records 5-12 live in both partitions an optimize forms."""
    from repro.core.orpheus import OrpheusDB

    orpheus = OrpheusDB()
    rows = [(k, f"r{k}") for k in range(12)]
    orpheus.init("d", [("k", "int"), ("v", "text")], rows=rows, primary_key=("k",))
    edits = [
        ([1], "UPDATE w SET v = 'a' || v WHERE k < 4"),
        ([1], "UPDATE w SET v = 'b' || v WHERE k >= 8"),
        ([2, 3], "DELETE FROM w WHERE k = 5"),
        ([4], "INSERT INTO w VALUES (NULL, 40, 'n40')"),
        ([2], "UPDATE w SET v = 'c' || v WHERE k < 2"),
    ]
    for parents, sql in edits:
        orpheus.checkout("d", parents, "w")
        orpheus.run(sql)
        orpheus.commit("w", message=sql)
    return orpheus


#: The partitions the first optimize of :func:`dag_history` writes, per
#: partition index: its data table's rows in slot order and its rlist rows.
DAG_LAYOUT = {
    0: (
        [(5, 4, "r4"), (6, 5, "r5"), (7, 6, "r6"), (8, 7, "r7"), (9, 8, "r8")]
        + [(10, 9, "r9"), (11, 10, "r10"), (12, 11, "r11"), (13, 0, "ar0")]
        + [(14, 1, "ar1"), (15, 2, "ar2"), (16, 3, "ar3"), (21, 40, "n40")]
        + [(22, 0, "car0"), (23, 1, "car1")],
        [
            (2, [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]),
            (4, [5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]),
            (5, [5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 21]),
            (6, [5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 22, 23]),
        ],
    ),
    1: (
        [(rid, rid - 1, f"r{rid - 1}") for rid in range(1, 13)]
        + [(17, 8, "br8"), (18, 9, "br9"), (19, 10, "br10"), (20, 11, "br11")],
        [
            (1, list(range(1, 13))),
            (3, [1, 2, 3, 4, 5, 6, 7, 8, 17, 18, 19, 20]),
        ],
    ),
}


class TestFirstOptimize:
    def test_writes_the_known_layout_on_a_dag(self):
        orpheus = dag_history()
        cvd = orpheus.cvd("d")
        assert cvd.graph.parents(4) == (2, 3)
        orpheus.optimize("d", storage_threshold=1.6)
        model = cvd.model
        assert list(model._assignment.items()) == [
            (2, 0),
            (4, 0),
            (5, 0),
            (6, 0),
            (1, 1),
            (3, 1),
        ]

        def tables(index):
            data = cvd.db.table(f"d__p{index}_data").rows()
            rlists = cvd.db.table(f"d__p{index}_versions").rows()
            return list(data), [(vid, list(rids)) for vid, rids in rlists]

        layout = {index: tables(index) for index in sorted(model._partitions)}
        assert layout == DAG_LAYOUT

    def test_missing_record_is_refused(self):
        orpheus = dag_history()
        orpheus.run("DELETE FROM d__data WHERE rid = 7")
        with pytest.raises(PartitionError, match=r"records \[7\] missing"):
            orpheus.optimize("d", storage_threshold=1.6)


class TestOnlineMaintenance:
    def test_heavy_overlap_joins_parent_partition(self, optimized):
        """w(vi, vj) > delta* |R|: vi joins vj's partition (Section 4.3)."""
        cvd, optimizer = optimized
        optimizer.delta_star = 0.0  # any positive overlap exceeds the bar
        parent = cvd.graph.leaves()[0]
        members = sorted(cvd.member_rids(parent))
        vid = cvd.ingest_version((parent,), members, {}, "same content")
        assert cvd.model.partition_of(vid) == cvd.model.partition_of(parent)

    def test_exhausted_budget_joins_parent_partition(self, sci_tiny):
        """S >= gamma: even light-overlap commits pile into the parent."""
        db = Database()
        cvd = load_workload(db, "sci", sci_tiny)
        optimizer = PartitionOptimizer(cvd, storage_multiple=1.0)
        optimizer.run_full_partitioning()
        parent = cvd.graph.leaves()[0]
        keep = sorted(cvd.member_rids(parent))[:2]  # tiny overlap
        vid = cvd.ingest_version((parent,), keep, {}, "light overlap")
        assert cvd.model.partition_of(vid) == cvd.model.partition_of(parent)

    def test_disjoint_commit_opens_new_partition(self, optimized):
        cvd, optimizer = optimized
        parent = cvd.graph.leaves()[0]
        new_records = {cvd.allocate_rid(): tuple(range(10)) for _ in range(20)}
        vid = cvd.ingest_version((parent,), list(new_records), new_records, "disjoint")
        assert cvd.model.partition_of(vid) != cvd.model.partition_of(parent)

    def test_after_commit_records_trace(self, optimized):
        cvd, optimizer = optimized
        parent = cvd.graph.leaves()[0]
        members = sorted(cvd.member_rids(parent))
        cvd.ingest_version((parent,), members, {}, "trace me")
        sample = optimizer.after_commit()
        assert sample.version_count == cvd.version_count
        assert optimizer.trace.samples[-1] is sample

    def test_trace_keeps_the_newest_samples(self, optimized):
        cvd, optimizer = optimized
        for count in range(1100):
            optimizer.apply_maintain(MaintenanceSample(count, float(count), 1.0))
        samples = optimizer.trace.samples
        assert len(samples) == MAX_SAMPLES == 1024
        assert [s.version_count for s in samples] == list(range(76, 1100))
        state = optimizer.to_state()
        assert PartitionOptimizer.from_state(cvd, state).trace.samples == samples
        # A state holding more (written before the bound) is cut the same way.
        state["trace"]["samples"][:0] = [[-1, 0.0, 0.0]] * 50
        assert PartitionOptimizer.from_state(cvd, state).trace.samples == samples

    def test_tolerance_triggers_migration(self, sci_tiny):
        db = Database()
        cvd = load_workload(db, "sci", sci_tiny)
        optimizer = PartitionOptimizer(cvd, storage_multiple=2.0, tolerance=1.05)
        best = optimizer.run_full_partitioning()
        # Degrade the layout to a single partition: Cavg jumps to |R|,
        # crossing mu * C*avg, so the next commit must fire a migration.
        single = Partitioning.single(cvd.graph.version_ids())
        optimizer.migrate(single)
        migrations_before = len(optimizer.trace.migrations)
        assert optimizer.current_checkout_cost > 1.05 * best.checkout_cost
        parent = cvd.graph.leaves()[0]
        members = sorted(cvd.member_rids(parent))
        cvd.ingest_version((parent,), members, {}, "post-degradation")
        optimizer.after_commit()
        assert len(optimizer.trace.migrations) == migrations_before + 1
        # The migration restored a near-optimal layout.
        sample = optimizer.trace.samples[-1]
        assert optimizer.current_checkout_cost <= 1.05 * sample.best_cavg

    def test_invalid_tolerance_rejected(self, sci_cvd):
        with pytest.raises(Exception):
            PartitionOptimizer(sci_cvd, tolerance=0.5)


class TestMigrationPlanning:
    def test_intelligent_reuses_similar_partition(self):
        members = {
            1: frozenset({1, 2, 3}),
            2: frozenset({2, 3, 4}),
            3: frozenset({10, 11}),
        }
        old = [{1, 2, 3, 4}, {10, 11}]
        new = Partitioning.from_groups([{1, 2}, {3}])
        plan = plan_intelligent(old, new, members)
        assert plan.reuse == {0: 0, 1: 1}
        assert plan.modifications == 0  # identical rid sets

    def test_intelligent_builds_from_scratch_when_cheaper(self):
        members = {1: frozenset({1}), 2: frozenset(range(100, 200))}
        old = [set(range(1000, 1200))]  # nothing in common
        new = Partitioning.from_groups([{1}, {2}])
        plan = plan_intelligent(old, new, members)
        # Editing a 200-record partition into a 1-record one costs 201;
        # scratch costs 1.
        assert 0 not in plan.reuse
        assert plan.modifications <= 101

    def test_naive_counts_everything(self):
        members = {1: frozenset({1, 2}), 2: frozenset({2, 3})}
        new = Partitioning.from_groups([{1}, {2}])
        plan = plan_naive(new, members)
        assert plan.modifications == 4
        assert plan.reuse == {}

    def test_intelligent_never_costlier_than_naive(self, sci_cvd):
        bip = BipartiteGraph.from_cvd(sci_cvd)
        members = sci_cvd.membership
        vids = sorted(members)
        half = len(vids) // 2
        old_groups = [set(vids[:half]), set(vids[half:])]
        old_rids = [bip.partition_records(g) for g in old_groups]
        new = Partitioning.from_groups([set(vids[: half + 3]), set(vids[half + 3 :])])
        smart = plan_intelligent([set(r) for r in old_rids], new, members)
        naive = plan_naive(new, members)
        assert smart.modifications <= naive.modifications


class TestMigrationExecution:
    def test_migrate_preserves_version_contents(self, optimized):
        cvd, optimizer = optimized
        expected = {
            vid: sorted(cvd.model.fetch_version(vid))
            for vid in cvd.graph.version_ids()
        }
        # Force a different layout: single partition.
        single = Partitioning.single(cvd.graph.version_ids())
        event = optimizer.migrate(single)
        assert optimizer.num_partitions == 1
        for vid, rows in expected.items():
            assert sorted(cvd.model.fetch_version(vid)) == rows
        assert event.wall_seconds >= 0

    def test_naive_strategy_inserts_everything(self, optimized):
        cvd, optimizer = optimized
        single = Partitioning.single(cvd.graph.version_ids())
        event = optimizer.migrate(single, strategy="naive")
        assert event.records_inserted == cvd.record_count
        assert event.strategy == "naive"
