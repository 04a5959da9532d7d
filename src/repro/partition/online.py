"""The partition optimizer: full runs, online maintenance, and migration.

:class:`PartitionOptimizer` is the Section 4.3 controller:

1. :meth:`run_full_partitioning` solves Problem 1 with LyreSplit's binary
   search under the storage threshold gamma and physically applies the
   result (swapping the CVD's model for a
   :class:`~repro.partition.partition_manager.PartitionedRlistModel` on the
   first run; migrating on later runs).
2. While versions stream in, each prepared commit asks
   :meth:`PartitionOptimizer._place_version` for the online rule: commit vi
   into the partition of its closest parent vj, unless
   ``w(vi, vj) <= delta* . |R|`` and the storage budget has room, in which
   case vi opens a fresh partition.
3. After each commit the optimizer re-runs LyreSplit (cheap — version graph
   only) and, when the live checkout cost exceeds ``mu`` times the best
   achievable, triggers the migration engine (intelligent by default,
   naive available for the Fig. 14/15 comparison).

The optimizer records a trace of (versions-committed, Cavg, C*avg) samples
— the newest :data:`MAX_SAMPLES` of them — and every migration event,
which is exactly what the online benchmarks plot.

The optimizer's whole decision state is durable (repro.persist): it
serializes to a JSON-able dict (:meth:`PartitionOptimizer.to_state`) that
rides the partitioned model's ``extra_state`` in snapshots, and it emits
typed journal records — ``maintain`` for every post-commit sample and
``migration`` for every physical migration — through an attached
``journal`` hook.  Each record has one ``apply_*`` method that only writes
(:meth:`~PartitionOptimizer.apply_maintain`,
:meth:`~PartitionOptimizer.apply_migration`); the live transition decides,
applies and then journals, and WAL replay calls the same method on the
journaled record.  Partitions live in memory, so a crash before a
migration's record is on disk recovers the pre-migration layout.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.cvd import CVD
from repro.core.datamodels.base import require_free
from repro.errors import InfeasibleBudgetError, PartitionError
from repro.partition.bipartite import BipartiteGraph, Partitioning
from repro.partition.dag_reduction import reduce_to_tree
from repro.partition.delta_search import DeltaSearchResult, search_delta
from repro.partition.migration import plan_intelligent, plan_naive
from repro.partition.partition_manager import PartitionedRlistModel, partition_tables
from repro.record import Record

#: Maintenance samples an optimizer keeps, newest last.  One is taken per
#: commit and every snapshot writes the whole trace, so an unbounded trace
#: would grow both memory and every checkpoint with the history.
MAX_SAMPLES = 1024


class MigrationEvent(Record):
    """One firing of the migration engine."""

    __slots__ = _fields = (
        "at_version_count",
        "plan_modifications",
        "records_inserted",
        "records_deleted",
        "wall_seconds",
        "strategy",
    )

    def __init__(
        self,
        at_version_count: int,
        plan_modifications: int,
        records_inserted: int,
        records_deleted: int,
        wall_seconds: float,
        strategy: str,
    ):
        self.at_version_count = at_version_count
        self.plan_modifications = plan_modifications
        self.records_inserted, self.records_deleted = records_inserted, records_deleted
        self.wall_seconds, self.strategy = wall_seconds, strategy


class MaintenanceSample(Record):
    """One point of the online-maintenance trace (Fig. 14a/15a)."""

    __slots__ = _fields = ("version_count", "current_cavg", "best_cavg")

    def __init__(self, version_count: int, current_cavg: float, best_cavg: float):
        self.version_count, self.current_cavg = version_count, current_cavg
        self.best_cavg = best_cavg


class OptimizerTrace(Record):
    __slots__ = _fields = ("samples", "migrations")

    def __init__(self, samples=None, migrations=None):
        self.samples: list[MaintenanceSample] = [] if samples is None else samples
        self.migrations: list[MigrationEvent] = [] if migrations is None else migrations


class PlannedMigration(Record):
    """A decided migration: what a ``migration`` record carries.

    ``reuse`` maps new group positions to *physical* partition indexes (not
    planner positions), so replay executes the plan on partition states a
    restore rebuilt.  ``delta`` is the delta* adopted alongside the plan.
    """

    __slots__ = _fields = (
        "groups",
        "reuse",
        "strategy",
        "modifications",
        "delta",
        "at_version_count",
    )

    def __init__(
        self,
        groups: tuple[frozenset[int], ...],
        reuse: dict[int, int],
        strategy: str,
        modifications: int,
        delta: float | None,
        at_version_count: int,
    ):
        self.groups, self.reuse, self.strategy = groups, reuse, strategy
        self.modifications, self.delta = modifications, delta
        self.at_version_count = at_version_count

    def to_state(self) -> dict:
        return {
            "groups": [sorted(group) for group in self.groups],
            "reuse": sorted(self.reuse.items()),
            "strategy": self.strategy,
            "modifications": self.modifications,
            "delta": self.delta,
            "at_version_count": self.at_version_count,
        }

    @classmethod
    def from_state(cls, state: dict) -> "PlannedMigration":
        return cls(
            groups=tuple(frozenset(group) for group in state["groups"]),
            reuse={int(i): int(j) for i, j in state["reuse"]},
            strategy=state["strategy"],
            modifications=state["modifications"],
            delta=state["delta"],
            at_version_count=state["at_version_count"],
        )


class FullRun(Record):
    """A prepared full partitioning run: the knobs it installs, LyreSplit's
    answer under them and, on an already partitioned CVD, the migration to
    that answer."""

    __slots__ = _fields = (
        "storage_multiple",
        "tolerance",
        "frequencies",
        "result",
        "migration",
    )

    def __init__(
        self,
        storage_multiple: float,
        tolerance: float,
        frequencies: dict[int, int] | None,
        result: DeltaSearchResult,
        migration: PlannedMigration | None,
    ):
        self.storage_multiple, self.tolerance = storage_multiple, tolerance
        self.frequencies, self.result, self.migration = frequencies, result, migration


class PartitionOptimizer:
    """Owns partitioning decisions for one CVD."""

    def __init__(
        self,
        cvd: CVD,
        storage_multiple: float = 2.0,
        tolerance: float = 1.5,
        edge_rule: str = "balance",
        migration_strategy: str = "intelligent",
        auto_migrate: bool = True,
        frequencies: dict[int, int] | None = None,
    ):
        if tolerance < 1.0:
            raise PartitionError("tolerance mu must be >= 1")
        if migration_strategy not in ("intelligent", "naive"):
            raise PartitionError(f"unknown migration strategy {migration_strategy!r}")
        self.cvd = cvd
        self.storage_multiple = storage_multiple
        self.tolerance = tolerance
        self.edge_rule = edge_rule
        self.migration_strategy = migration_strategy
        self.auto_migrate = auto_migrate
        #: Checkout frequencies per vid; when set, full partitioning runs
        #: optimize the weighted objective of Appendix C.2.
        self.frequencies = frequencies
        self.delta_star: float | None = None
        self.trace = OptimizerTrace()
        self._model: PartitionedRlistModel | None = None
        #: Journal hook for optimizer transitions (wired by OrpheusDB);
        #: receives ``maintain`` / ``migration`` records.  None outside a
        #: durable session.
        self.journal: Callable[[dict], None] | None = None

    # -------------------------------------------------------------- budget

    @property
    def gamma(self) -> float:
        """Storage threshold, tracking the current record count."""
        return self.storage_multiple * self.cvd.record_count

    # ---------------------------------------------------------- full runs

    def compute_partitioning(self, use_bipartite: bool = True, gamma=None):
        """Solve Problem 1 on the current version graph (no physical work).

        ``use_bipartite=False`` evaluates candidate storage on the version
        tree alone — exact for tree-shaped histories, conservative for
        DAGs — which is what makes re-running LyreSplit after *every*
        commit cheap (the paper: "LyreSplit is lightweight and can be run
        very quickly after every commit").  ``gamma`` defaults to
        :attr:`gamma`.
        """
        gamma = self.gamma if gamma is None else gamma
        if use_bipartite:
            bipartite = BipartiteGraph.from_cvd(self.cvd)
            tree = reduce_to_tree(
                self.cvd.graph, true_record_count=bipartite.num_records
            )
            return search_delta(
                tree, gamma, bipartite=bipartite, edge_rule=self.edge_rule
            )
        tree = reduce_to_tree(self.cvd.graph, true_record_count=self.cvd.record_count)
        # A coarser binary search suffices for the per-commit mu check;
        # the full-precision search runs when a migration actually fires.
        return search_delta(tree, gamma, edge_rule=self.edge_rule, max_iterations=12)

    def plan_full(
        self,
        storage_multiple: float,
        tolerance: float,
        frequencies: dict[int, int] | None,
    ) -> FullRun:
        """Prepare a full run under new knobs; touches nothing.

        With ``frequencies`` (or, when None, the current ones) the weighted
        search (Appendix C.2) picks the partitioning; otherwise the standard
        uniform-frequency search.
        """
        if tolerance < 1.0:
            raise PartitionError("tolerance mu must be >= 1")
        if self._model is None and not hasattr(self.cvd.model, "data_table"):
            raise PartitionError(
                f"data model {self.cvd.model.model_name!r} keeps no data table "
                f"to partition"
            )
        frequencies = frequencies or self.frequencies
        gamma = storage_multiple * self.cvd.record_count
        if frequencies:
            bipartite = BipartiteGraph.from_cvd(self.cvd)
            tree = reduce_to_tree(
                self.cvd.graph, true_record_count=bipartite.num_records
            )
            # Appendix C.2's search probes all 20 deltas: no early stop.
            result = search_delta(
                tree,
                gamma,
                bipartite,
                self.edge_rule,
                tolerance=float("inf"),
                max_iterations=20,
                frequencies=frequencies,
            )
        else:
            result = self.compute_partitioning(gamma=gamma)
        migration = None
        if self._model is not None:
            migration = self.plan_migration(result.partitioning, delta=result.delta)
        else:
            cvd = self.cvd
            tables = partition_tables(cvd.name, 0, len(result.partitioning.groups))
            require_free(cvd.db, tables, f"partitioning CVD {cvd.name!r}")
        return FullRun(storage_multiple, tolerance, frequencies, result, migration)

    def run_full_partitioning(self, run: FullRun | None = None):
        """Partition (or re-partition) the CVD's physical storage.

        Applies ``run`` (by default one planned under the current knobs):
        the first run swaps in a partitioned model, later ones migrate.  A
        full re-optimize is journaled wholesale as one ``optimize`` record,
        so the migration inside it journals no record of its own.
        """
        if run is None:
            run = self.plan_full(
                self.storage_multiple, self.tolerance, self.frequencies
            )
        self.storage_multiple, self.tolerance = run.storage_multiple, run.tolerance
        self.frequencies = run.frequencies
        self.delta_star = run.result.delta
        if run.migration is None:
            self._install_partitioned_model(run.result.partitioning)
        else:
            self.apply_migration(run.migration)
        return run.result

    def _install_partitioned_model(self, partitioning: Partitioning) -> None:
        old_model = self.cvd.model
        new_model = PartitionedRlistModel(
            self.cvd.db, self.cvd.name, self.cvd.data_schema
        )
        new_model.create_storage()
        new_model.membership = self.cvd.membership

        def payloads(rids: list[int]):
            rows = old_model._fetch_rows_from_table(old_model.data_table, rids)
            return {row[0]: row[1:] for row in rows}

        new_model.replace_partitions(partitioning.groups, {}, payloads)
        old_model.drop_storage()
        new_model.optimizer = self
        self.cvd.model = new_model
        self._model = new_model

    # ------------------------------------------------------ online commits

    def _place_version(self, members, parent_vids, record_count: int) -> int:
        """Section 4.3's rule for a prepared version with ``members``, the
        CVD then holding ``record_count`` records: the partition of its
        closest parent, or the index of a fresh one."""
        assert self._model is not None
        fresh = self._model._next_partition
        placed = [p for p in parent_vids if p in self._model._assignment]
        if not placed:
            return fresh
        membership = self.cvd.membership
        best_parent = max(
            placed,
            key=lambda p: (members.intersection_count(membership[p]), -p),
        )
        weight = members.intersection_count(membership[best_parent])
        delta_star = self.delta_star if self.delta_star is not None else 1.0
        storage = self._model.storage_cost_records
        if (
            weight <= delta_star * record_count
            and storage < self.storage_multiple * record_count
        ):
            return fresh
        return self._model.partition_of(best_parent)

    def after_commit(self) -> MaintenanceSample:
        """Check the tolerance trigger; call after every commit.

        Returns the recorded trace sample (also appended to ``trace``).
        Fires migration when ``Cavg > mu * C*avg`` and ``auto_migrate``.
        """
        if self._model is None:
            raise PartitionError(
                "optimizer has no partitioned model; run run_full_partitioning"
            )
        sample, best = self.evaluate_maintenance()
        self._emit(
            {
                "op": "maintain",
                "sample": [
                    sample.version_count,
                    sample.current_cavg,
                    sample.best_cavg,
                ],
            }
        )
        self.apply_tolerance_trigger(sample, best)
        return sample

    def evaluate_maintenance(self):
        """Compute and record the post-commit sample; journals nothing.

        Returns (sample, best DeltaSearchResult) so the caller can journal
        the sample piggybacked on its own record (OrpheusDB folds it into
        the commit record — one fsync per commit, not two) and then run
        :meth:`apply_tolerance_trigger`.

        The tree-only search sees |R| + |R-hat| records (Appendix C.1), so
        after merges gamma can be below that estimate while the true |R|
        fits.  Such a sample records ``C*avg = Cavg`` and ``best`` is None:
        nothing to migrate to.  Failing here would fail a commit whose
        version is already ingested; ``optimize``'s bipartite search stays
        the place an infeasible budget is reported.
        """
        if self._model is None:
            raise PartitionError(
                "optimizer has no partitioned model; run run_full_partitioning"
            )
        current = self._model.checkout_cost_avg
        try:
            best = self.compute_partitioning(use_bipartite=False)
        except InfeasibleBudgetError:
            best = None
        sample = MaintenanceSample(
            version_count=self.cvd.version_count,
            current_cavg=current,
            best_cavg=current if best is None else best.checkout_cost,
        )
        self.apply_maintain(sample)
        return sample, best

    def apply_tolerance_trigger(self, sample: MaintenanceSample, best) -> None:
        """Fire the migration engine when ``Cavg > mu * C*avg``."""
        if (
            self.auto_migrate
            and best is not None
            and best.checkout_cost > 0
            and sample.current_cavg > self.tolerance * best.checkout_cost
        ):
            # The plan carries delta*: adopting it before planning would
            # leave a delta* no record holds if plan_migration refuses.
            self._migrate(self.plan_migration(best.partitioning, delta=best.delta))

    def apply_maintain(self, sample: MaintenanceSample) -> None:
        """Record a post-commit sample (a ``maintain`` record's effect),
        dropping the oldest past :data:`MAX_SAMPLES`."""
        samples = self.trace.samples
        samples.append(sample)
        if len(samples) > MAX_SAMPLES:
            del samples[0]

    # ------------------------------------------------------------ migration

    def migrate(
        self, new_partitioning: Partitioning, strategy: str | None = None
    ) -> MigrationEvent:
        """Reorganize physical partitions to ``new_partitioning``.

        Prepare (:meth:`plan_migration`, which writes nothing), apply
        (:meth:`apply_migration`), then journal one ``migration`` record —
        the protocol of every other durable operation.  A crash before the
        record is on disk recovers the layout from before the migration.
        """
        return self._migrate(self.plan_migration(new_partitioning, strategy))

    def plan_migration(
        self,
        new_partitioning: Partitioning,
        strategy: str | None = None,
        delta: float | None = None,
    ) -> PlannedMigration:
        """Decide how to reach ``new_partitioning``; touches nothing.
        ``delta`` is the delta* adopted with it (default: the current one)."""
        assert self._model is not None
        strategy = strategy or self.migration_strategy
        members = self.cvd.membership
        states = self._model.partition_states()
        if strategy == "intelligent":
            old_rid_sets = [state.rids for state in states]
            plan = plan_intelligent(old_rid_sets, new_partitioning, members)
            reuse = plan.resolve_reuse([state.index for state in states])
        else:
            plan = plan_naive(new_partitioning, members)
            reuse = {}
        opened = sum(i not in reuse for i in range(len(plan.new_groups)))
        require_free(
            self.cvd.db,
            self._model.new_partition_tables(opened),
            f"migrating CVD {self.cvd.name!r}",
        )
        return PlannedMigration(
            groups=tuple(plan.new_groups),
            reuse=reuse,
            strategy=strategy,
            modifications=plan.modifications,
            delta=self.delta_star if delta is None else delta,
            at_version_count=self.cvd.version_count,
        )

    def _migrate(self, plan: PlannedMigration) -> MigrationEvent:
        """Apply a decided plan, then journal it as one ``migration``
        record."""
        event = self.apply_migration(plan)
        self._emit(
            {
                "op": "migration",
                "plan": plan.to_state(),
                "inserted": event.records_inserted,
                "deleted": event.records_deleted,
                "wall_seconds": event.wall_seconds,
            }
        )
        return event

    def apply_migration(self, plan: PlannedMigration) -> MigrationEvent:
        """Adopt the plan's delta* and execute it (a ``migration`` record's
        effect); returns the traced event."""
        assert self._model is not None
        if plan.delta is not None:
            self.delta_star = plan.delta
        started = time.perf_counter()
        inserted, deleted = self._model.replace_partitions(
            list(plan.groups), plan.reuse, self._model._fetch_payloads
        )
        event = MigrationEvent(
            at_version_count=plan.at_version_count,
            plan_modifications=plan.modifications,
            records_inserted=inserted,
            records_deleted=deleted,
            wall_seconds=time.perf_counter() - started,
            strategy=plan.strategy,
        )
        self.trace.migrations.append(event)
        return event

    # ---------------------------------------------------------- persistence

    def _emit(self, record: dict) -> None:
        """Journal one optimizer transition (no-op without a journal)."""
        if self.journal is not None:
            record["cvd"] = self.cvd.name
            self.journal(record)

    def to_state(self) -> dict:
        """JSON-able decision state; rides the model's ``extra_state``."""
        return {
            "storage_multiple": self.storage_multiple,
            "tolerance": self.tolerance,
            "edge_rule": self.edge_rule,
            "migration_strategy": self.migration_strategy,
            "auto_migrate": self.auto_migrate,
            "frequencies": (
                sorted(self.frequencies.items()) if self.frequencies else None
            ),
            "delta_star": self.delta_star,
            "trace": {
                "samples": [
                    [s.version_count, s.current_cavg, s.best_cavg]
                    for s in self.trace.samples
                ],
                "migrations": [
                    [
                        m.at_version_count,
                        m.plan_modifications,
                        m.records_inserted,
                        m.records_deleted,
                        m.wall_seconds,
                        m.strategy,
                    ]
                    for m in self.trace.migrations
                ],
            },
        }

    @classmethod
    def from_state(cls, cvd: CVD, state: dict) -> "PartitionOptimizer":
        """Rebuild an optimizer onto ``cvd``'s already-restored partitioned
        model, which it places versions into from then on."""
        frequencies = state["frequencies"]
        optimizer = cls(
            cvd,
            storage_multiple=state["storage_multiple"],
            tolerance=state["tolerance"],
            edge_rule=state["edge_rule"],
            migration_strategy=state["migration_strategy"],
            auto_migrate=state["auto_migrate"],
            frequencies=(
                {vid: count for vid, count in frequencies}
                if frequencies
                else None
            ),
        )
        optimizer.delta_star = state["delta_star"]
        trace = state["trace"]
        for sample in trace["samples"]:
            optimizer.apply_maintain(MaintenanceSample(*sample))
        optimizer.trace.migrations = [
            MigrationEvent(*event) for event in trace["migrations"]
        ]
        optimizer.adopt_model(cvd.model)
        return optimizer

    def adopt_model(self, model: PartitionedRlistModel) -> None:
        """Re-attach to an already-partitioned model (snapshot restore)."""
        model.optimizer = self
        self._model = model

    # ------------------------------------------------------------- metrics

    @property
    def current_checkout_cost(self) -> float:
        assert self._model is not None
        return self._model.checkout_cost_avg

    @property
    def current_storage_cost(self) -> int:
        assert self._model is not None
        return self._model.storage_cost_records

    @property
    def num_partitions(self) -> int:
        assert self._model is not None
        return len(self._model.partition_states())
