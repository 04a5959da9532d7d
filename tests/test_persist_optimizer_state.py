"""Crash-faithful optimizer state: the live placement policy survives.

PR-1/PR-2 restored a partitioned CVD's *structure* but forgot the
optimizer that drives it: commits after a restore fell back to
closest-parent placement and online maintenance stayed dead until a
manual ``optimize``.  These tests pin the new contract:

* the optimizer's decision state (delta*, budget knobs, trace, pending
  migration plans) rides snapshots via the model's ``extra_state`` and
  its transitions ride the WAL as typed records, so a reopened store
  resumes exactly where it left off;
* a migration interrupted between its journaled start and finish is
  detected on open and rolled forward;
* format-1 (PR-1/PR-2 era) snapshots still open cleanly with the
  documented closest-parent fallback.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleBudgetError, RecoveryError
from repro.partition.bipartite import Partitioning
from repro.partition.dag_reduction import reduce_to_tree
from repro.partition.migration import plan_intelligent
from repro.partition.online import PendingMigration
from repro.persist import Store
from repro.persist.snapshot import FORMAT_VERSION
from repro.persist.wal import WriteAheadLog

from test_persist_crash import crash
from test_persist_roundtrip import build_history

SCHEMA = [("k", "int"), ("v", "int")]


def materialize_sorted(orpheus, name="proteins"):
    cvd = orpheus.cvd(name)
    return {vid: sorted(cvd.checkout_rows([vid])) for vid in cvd.graph.version_ids()}


def optimizer_fingerprint(orpheus, name="proteins"):
    """Everything a faithful restore must reproduce about the optimizer."""
    optimizer = orpheus.optimizer_for(name)
    assert optimizer is not None
    return {
        "delta_star": optimizer.delta_star,
        "storage_multiple": optimizer.storage_multiple,
        "tolerance": optimizer.tolerance,
        "samples": list(optimizer.trace.samples),
        "migrations": list(optimizer.trace.migrations),
        "pending": optimizer.pending_migration,
        "assignment": dict(orpheus.cvd(name).model._assignment),
    }


def commit_step(orpheus, step, cvd_name="proteins"):
    latest = max(orpheus.cvd(cvd_name).graph.version_ids())
    table = f"step_{step}"
    orpheus.checkout(cvd_name, latest, table_name=table)
    orpheus.run(f"UPDATE {table} SET neighborhood = {step}")
    return orpheus.commit(table, message=f"step {step}")


def force_pending_migration(orpheus, cvd_name="proteins"):
    """Journal a migration_start (crash-before-finish simulation).

    Builds the same plan :meth:`PartitionOptimizer.migrate` would and
    adopts it via ``begin_migration`` — which journals the start record —
    without running the physical work, exactly the state a process killed
    mid-migration leaves on disk.
    """
    optimizer = orpheus.optimizer_for(cvd_name)
    cvd = orpheus.cvd(cvd_name)
    model = cvd.model
    single = Partitioning.single(cvd.graph.version_ids())
    states = model.partition_states()
    plan = plan_intelligent(
        [set(state.rids) for state in states], single, model._members
    )
    pending = PendingMigration(
        groups=tuple(plan.new_groups),
        reuse=plan.resolve_reuse([state.index for state in states]),
        strategy="intelligent",
        modifications=plan.modifications,
        delta=optimizer.delta_star,
        at_version_count=cvd.version_count,
    )
    optimizer.begin_migration(pending)
    return pending


class TestOptimizerStateRoundTrip:
    def test_snapshot_restores_live_policy(self, tmp_path):
        store = Store.open(tmp_path / "store")
        orpheus = store.orpheus
        build_history(orpheus, "split_by_rlist")
        orpheus.optimize("proteins", tolerance=1.2)
        for step in range(3):
            commit_step(orpheus, step)
        expected = optimizer_fingerprint(orpheus)
        assert len(expected["samples"]) == 3  # maintenance ran per commit
        store.checkpoint()
        store.close()

        recovered = Store.open(tmp_path / "store")
        optimizer = recovered.orpheus.optimizer_for("proteins")
        model = recovered.orpheus.cvd("proteins").model
        # The placement policy is the restored optimizer's, not a fallback.
        assert model.placement_policy is not None
        assert model.placement_policy.__self__ is optimizer
        assert optimizer_fingerprint(recovered.orpheus) == expected
        recovered.close()

    def test_wal_replay_restores_maintenance_trace(self, tmp_path):
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        orpheus = store.orpheus
        build_history(orpheus, "split_by_rlist")
        orpheus.optimize("proteins")
        for step in range(2):
            commit_step(orpheus, step)
        expected = optimizer_fingerprint(orpheus)
        crash(store)

        recovered = Store.open(tmp_path / "store", checkpoint_interval=0)
        # No snapshot was ever written: everything came from the WAL tail.
        assert not (recovered.path / "CURRENT").exists()
        assert optimizer_fingerprint(recovered.orpheus) == expected

    def test_migration_events_replay_deterministically(self, tmp_path):
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        orpheus = store.orpheus
        build_history(orpheus, "split_by_rlist")
        optimizer = orpheus.optimize("proteins", tolerance=1.05)
        # Degrade the layout so the next commit's tolerance check fires an
        # online migration (journaled as migration_start/finish).
        single = Partitioning.single(
            orpheus.cvd("proteins").graph.version_ids()
        )
        optimizer.migrate(single)
        commit_step(orpheus, 0)
        assert len(optimizer.trace.migrations) >= 2
        expected = optimizer_fingerprint(orpheus)
        expected_rows = materialize_sorted(orpheus)
        crash(store)

        recovered = Store.open(tmp_path / "store", checkpoint_interval=0)
        assert optimizer_fingerprint(recovered.orpheus) == expected
        assert materialize_sorted(recovered.orpheus) == expected_rows

    def test_commit_on_optimized_cvd_is_one_wal_append(self, tmp_path):
        """The maintenance sample piggybacks on the commit record: a commit
        must stay a single fsync'd append, not gain a second one."""
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        orpheus = store.orpheus
        build_history(orpheus, "split_by_rlist")
        orpheus.optimize("proteins")
        lsn_before = store.last_lsn
        commit_step(orpheus, 0)
        assert store.last_lsn == lsn_before + 1
        optimizer = orpheus.optimizer_for("proteins")
        assert len(optimizer.trace.samples) == 1
        crash(store)

    def test_reoptimize_trace_survives_wal_replay(self, tmp_path):
        """A re-run `optimize` migrates in place; its trace event (timing
        included) must restore exactly from the journaled record."""
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        orpheus = store.orpheus
        build_history(orpheus, "split_by_rlist")
        orpheus.optimize("proteins")
        commit_step(orpheus, 0)
        orpheus.optimize("proteins", storage_threshold=1.5)  # re-tune
        expected = optimizer_fingerprint(orpheus)
        assert len(expected["migrations"]) >= 1
        assert expected["storage_multiple"] == 1.5
        crash(store)

        recovered = Store.open(tmp_path / "store", checkpoint_interval=0)
        assert optimizer_fingerprint(recovered.orpheus) == expected

    def test_restored_store_keeps_placing_like_the_live_one(self, tmp_path):
        live = Store.open(tmp_path / "live", checkpoint_interval=0)
        build_history(live.orpheus, "split_by_rlist")
        live.orpheus.optimize("proteins")

        restored = Store.open(tmp_path / "restored", checkpoint_interval=0)
        build_history(restored.orpheus, "split_by_rlist")
        restored.orpheus.optimize("proteins")

        for step in range(3):
            commit_step(live.orpheus, step)
            crash(restored)
            restored = Store.open(tmp_path / "restored", checkpoint_interval=0)
            commit_step(restored.orpheus, step)
        assert optimizer_fingerprint(
            restored.orpheus
        ) == optimizer_fingerprint(live.orpheus)
        crash(live)
        crash(restored)


def merge_history(orpheus, merges: int) -> None:
    """Root of 100 rows, a branch Q (root - 60 + 40), then ``merges`` rounds
    of P_i = root + 1 row merged with Q: every merge re-counts Q's records
    in the reduced tree (Appendix C.1's |R-hat|), so the tree's estimate
    outgrows gamma = 2 |R| long before the true |R| does."""
    orpheus.init("m", SCHEMA, rows=[(k, k) for k in range(100)])
    orpheus.checkout("m", 1, table_name="q")
    orpheus.run("DELETE FROM q WHERE k < 60")
    values = ", ".join(f"({1000 + i}, {i})" for i in range(40))
    orpheus.run(f"INSERT INTO q (k, v) VALUES {values}")
    q = orpheus.commit("q")
    orpheus.optimize("m", storage_threshold=2.0)
    for i in range(merges):
        orpheus.checkout("m", 1, table_name="p")
        orpheus.run(f"INSERT INTO p (k, v) VALUES ({5000 + i}, 0)")
        p = orpheus.commit("p")
        orpheus.checkout("m", [p, q], table_name="merge")
        orpheus.commit("merge")


class TestMaintenanceNeverFailsACommit:
    """Maintenance runs after the version is ingested, so it must not raise:
    a raise there left an unjournaled version behind and broke every later
    commit on the CVD."""

    def test_merges_past_the_tree_estimate(self, tmp_path):
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        orpheus = store.orpheus
        merge_history(orpheus, merges=12)
        cvd = orpheus.cvd("m")
        optimizer = orpheus.optimizer_for("m")
        assert cvd.version_count == 2 + 2 * 12
        tree = reduce_to_tree(cvd.graph, cvd.record_count)
        assert tree.tree_record_count > optimizer.gamma >= cvd.record_count
        # The over-budget checks record "nothing better than what is live".
        last = optimizer.trace.samples[-1]
        assert last.best_cavg == last.current_cavg
        assert len(optimizer.trace.samples) == 2 * 12
        assert store.last_lsn == 3 + 2 * 12  # init, commit, optimize, ...
        expected = optimizer_fingerprint(orpheus, "m")
        expected_rows = materialize_sorted(orpheus, "m")
        crash(store)

        recovered = Store.open(tmp_path / "store", checkpoint_interval=0)
        assert optimizer_fingerprint(recovered.orpheus, "m") == expected
        assert materialize_sorted(recovered.orpheus, "m") == expected_rows
        recovered.close()

    @pytest.mark.parametrize("retune", [False, True])
    def test_rejected_optimize_leaves_commits_working(self, tmp_path, retune):
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        orpheus = store.orpheus
        orpheus.init("m", SCHEMA, rows=[(k, k) for k in range(20)])
        if retune:
            orpheus.optimize("m")
        before = orpheus.optimizer_for("m")
        knobs = before and (before.storage_multiple, before.tolerance)
        with pytest.raises(InfeasibleBudgetError):
            orpheus.optimize("m", storage_threshold=0.5, tolerance=3.0)
        after = orpheus.optimizer_for("m")
        assert after is before
        assert (after and (after.storage_multiple, after.tolerance)) == knobs
        orpheus.checkout("m", 1, table_name="w")
        orpheus.run("INSERT INTO w (k, v) VALUES (99, 0)")
        orpheus.commit("w")
        expected_rows = materialize_sorted(orpheus, "m")
        crash(store)

        recovered = Store.open(tmp_path / "store", checkpoint_interval=0)
        assert materialize_sorted(recovered.orpheus, "m") == expected_rows
        recovered.close()


class TestInterruptedMigration:
    def test_start_without_finish_rolls_forward_on_open(self, tmp_path):
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        orpheus = store.orpheus
        build_history(orpheus, "split_by_rlist")
        orpheus.optimize("proteins")
        expected_rows = materialize_sorted(orpheus)
        pending = force_pending_migration(orpheus)
        crash(store)

        recovered = Store.open(tmp_path / "store", checkpoint_interval=0)
        assert any(
            "rolled forward" in warning
            for warning in recovered.recovery_warnings
        )
        optimizer = recovered.orpheus.optimizer_for("proteins")
        assert optimizer.pending_migration is None
        model = recovered.orpheus.cvd("proteins").model
        assert len(model.partition_states()) == len(pending.groups)
        assert optimizer.trace.migrations[-1].strategy == "intelligent"
        assert materialize_sorted(recovered.orpheus) == expected_rows
        crash(recovered)

        # The roll-forward journaled its finish: the next open is clean.
        reopened = Store.open(tmp_path / "store", checkpoint_interval=0)
        assert reopened.recovery_warnings == []
        assert materialize_sorted(reopened.orpheus) == expected_rows
        reopened.close()

    def test_pending_plan_survives_a_checkpoint(self, tmp_path):
        """An auto-checkpoint can fire while a migration is in flight (its
        start record tips the interval); the pending plan must ride the
        snapshot so a crash after the checkpoint still rolls forward."""
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        orpheus = store.orpheus
        build_history(orpheus, "split_by_rlist")
        orpheus.optimize("proteins")
        expected_rows = materialize_sorted(orpheus)
        pending = force_pending_migration(orpheus)
        store.checkpoint()  # snapshot carries the pending plan; WAL empties
        crash(store)

        recovered = Store.open(tmp_path / "store", checkpoint_interval=0)
        assert any(
            "rolled forward" in warning
            for warning in recovered.recovery_warnings
        )
        model = recovered.orpheus.cvd("proteins").model
        assert len(model.partition_states()) == len(pending.groups)
        assert materialize_sorted(recovered.orpheus) == expected_rows
        recovered.close()

    def test_commit_after_roll_forward_continues_history(self, tmp_path):
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        orpheus = store.orpheus
        build_history(orpheus, "split_by_rlist")
        orpheus.optimize("proteins")
        force_pending_migration(orpheus)
        crash(store)

        recovered = Store.open(tmp_path / "store", checkpoint_interval=0)
        vid = commit_step(recovered.orpheus, 7)
        model = recovered.orpheus.cvd("proteins").model
        assert model.partition_of(vid) is not None
        assert recovered.orpheus.cvd("proteins").version_count == 5
        recovered.close()

    def test_optimizer_record_without_optimizer_is_divergence(self, tmp_path):
        """A maintain/migration record can only replay against a restored
        optimizer; anything else means the journal and the state diverged
        and recovery must refuse rather than guess."""
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        store.orpheus.init("t", SCHEMA, rows=[(1, 1)], primary_key=("k",))
        crash(store)
        wal = WriteAheadLog(tmp_path / "store" / "wal.log")
        wal.append(
            2, {"op": "maintain", "cvd": "t", "sample": [1, 1.0, 1.0],
                "clock": 9}
        )
        wal.close()

        with pytest.raises(RecoveryError, match="no optimizer"):
            Store.open(tmp_path / "store", checkpoint_interval=0)


class TestBackwardCompatibility:
    def _strip_to_format1(self, store_path: Path) -> None:
        """Rewrite the active snapshot as a PR-1/PR-2 era manifest: format
        1, no optimizer state under the partitioned model's extra_state."""
        current = json.loads(
            (store_path / "CURRENT").read_text(encoding="utf-8")
        )["snapshot"]
        manifest_path = store_path / "snapshots" / current / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["format"] == FORMAT_VERSION
        manifest["format"] = 1
        for cvd_state in manifest["orpheus"]["cvds"]:
            cvd_state["model_state"].pop("optimizer", None)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    def test_format1_store_opens_with_documented_fallback(self, tmp_path):
        store = Store.open(tmp_path / "store")
        orpheus = store.orpheus
        build_history(orpheus, "split_by_rlist")
        orpheus.optimize("proteins")
        expected_rows = materialize_sorted(orpheus)
        store.checkpoint()
        store.close()
        self._strip_to_format1(tmp_path / "store")

        recovered = Store.open(tmp_path / "store")
        ro = recovered.orpheus
        # Structure restored, policy not: the documented PR-1/PR-2 fallback.
        assert ro.cvd("proteins").model.model_name == "partitioned_rlist"
        assert ro.optimizer_for("proteins") is None
        assert ro.cvd("proteins").model.placement_policy is None
        assert materialize_sorted(ro) == expected_rows
        # Commits still work (closest-parent placement)...
        vid = commit_step(ro, 0)
        parent_partition = ro.cvd("proteins").model.partition_of(4)
        assert ro.cvd("proteins").model.partition_of(vid) == parent_partition
        # ...and a re-run optimize resumes online maintenance.
        ro.optimize("proteins")
        assert ro.optimizer_for("proteins") is not None
        recovered.close()

    def test_future_format_is_rejected(self, tmp_path):
        store = Store.open(tmp_path / "store")
        store.orpheus.init("t", SCHEMA, rows=[(1, 1)])
        store.checkpoint()
        store.close()
        current = json.loads(
            (tmp_path / "store" / "CURRENT").read_text(encoding="utf-8")
        )["snapshot"]
        manifest_path = (tmp_path / "store" / "snapshots" / current / "manifest.json")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format"] = 99
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(RecoveryError, match="unsupported format"):
            Store.open(tmp_path / "store")


class TestRestorePlacementParity:
    """Property: crash+reopen around every commit changes nothing.

    For any commit sequence, (commit -> crash -> Store.open -> commit)
    must yield the identical partition placement, delta*, and trace as
    the uninterrupted run — the acceptance bar for crash-faithful
    optimizer state.
    """

    @staticmethod
    def _run_history(root: Path, steps, crash_between: bool):
        store = Store.open(root, checkpoint_interval=0)
        orpheus = store.orpheus
        orpheus.init(
            "t",
            SCHEMA,
            rows=[(i, i) for i in range(8)],
            primary_key=("k",),
        )
        orpheus.optimize("t", tolerance=1.1)
        next_key = 100
        for step, (parent_pick, deletes, inserts) in enumerate(steps):
            if crash_between:
                crash(store)
                store = Store.open(root, checkpoint_interval=0)
                orpheus = store.orpheus
            cvd = orpheus.cvd("t")
            vids = sorted(cvd.graph.version_ids())
            parent = vids[parent_pick % len(vids)]
            table = f"w{step}"
            orpheus.checkout("t", parent, table_name=table)
            keys = sorted(row[0] for row in orpheus.run(f"SELECT k FROM {table}").rows)
            for key in keys[:deletes]:
                orpheus.run(f"DELETE FROM {table} WHERE k = {key}")
            for _ in range(inserts):
                orpheus.run(
                    f"INSERT INTO {table} VALUES "
                    f"(NULL, {next_key}, {next_key})"
                )
                next_key += 1
            orpheus.commit(table, message=f"step {step}")
        optimizer = orpheus.optimizer_for("t")
        summary = {
            "assignment": dict(orpheus.cvd("t").model._assignment),
            "delta_star": optimizer.delta_star,
            "samples": list(optimizer.trace.samples),
            "migrations": [
                # wall_seconds is timing, everything else must match
                (m.at_version_count, m.plan_modifications,
                 m.records_inserted, m.records_deleted, m.strategy)
                for m in optimizer.trace.migrations
            ],
            "rows": {
                vid: sorted(orpheus.cvd("t").checkout_rows([vid]))
                for vid in orpheus.cvd("t").graph.version_ids()
            },
        }
        crash(store)
        return summary

    @settings(max_examples=20, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_crash_reopen_placement_parity(self, steps):
        with tempfile.TemporaryDirectory() as raw:
            root = Path(raw)
            uninterrupted = self._run_history(root / "a", steps, False)
            interrupted = self._run_history(root / "b", steps, True)
        assert interrupted == uninterrupted
