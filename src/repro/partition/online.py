"""The partition optimizer: full runs, online maintenance, and migration.

:class:`PartitionOptimizer` is the Section 4.3 controller:

1. :meth:`run_full_partitioning` solves Problem 1 with LyreSplit's binary
   search under the storage threshold gamma and physically applies the
   result (swapping the CVD's model for a
   :class:`~repro.partition.partition_manager.PartitionedRlistModel` on the
   first run; migrating on later runs).
2. While versions stream in, the installed placement policy applies the
   online rule: commit vi into the partition of its closest parent vj,
   unless ``w(vi, vj) <= delta* . |R|`` and the storage budget has room, in
   which case vi opens a fresh partition.
3. After each commit the optimizer re-runs LyreSplit (cheap — version graph
   only) and, when the live checkout cost exceeds ``mu`` times the best
   achievable, triggers the migration engine (intelligent by default,
   naive available for the Fig. 14/15 comparison).

The optimizer records a trace of (versions-committed, Cavg, C*avg) samples
and every migration event, which is exactly what the online benchmarks
plot.

The optimizer's whole decision state is durable (repro.persist): it
serializes to a JSON-able dict (:meth:`PartitionOptimizer.to_state`) that
rides the partitioned model's ``extra_state`` in snapshots, and it emits
typed journal records — ``maintain`` for every post-commit sample,
``migration_start``/``migration_finish`` around every physical migration —
through an attached ``journal`` hook so a WAL tail replays its transitions
deterministically.  A migration is journaled as a *pending* plan before any
physical work happens; a crash between start and finish leaves the plan
recoverable, and :meth:`complete_pending_migration` rolls it forward.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.cvd import CVD
from repro.errors import InfeasibleBudgetError, PartitionError
from repro.partition.bipartite import BipartiteGraph, Partitioning
from repro.partition.dag_reduction import reduce_to_tree
from repro.partition.delta_search import search_delta
from repro.partition.migration import plan_intelligent, plan_naive
from repro.partition.partition_manager import PartitionedRlistModel
from repro.storage import arrays


@dataclass
class MigrationEvent:
    """One firing of the migration engine."""

    at_version_count: int
    plan_modifications: int
    records_inserted: int
    records_deleted: int
    wall_seconds: float
    strategy: str


@dataclass
class MaintenanceSample:
    """One point of the online-maintenance trace (Fig. 14a/15a)."""

    version_count: int
    current_cavg: float
    best_cavg: float


@dataclass
class OptimizerTrace:
    samples: list[MaintenanceSample] = field(default_factory=list)
    migrations: list[MigrationEvent] = field(default_factory=list)


@dataclass
class PendingMigration:
    """A migration whose plan is decided (and journaled) but whose physical
    work may not have completed.

    ``reuse`` maps new group positions to *physical* partition indexes (not
    planner positions), so the plan stays executable after a crash/restore
    rebuilt the partition states.  ``delta`` is the delta* the re-optimize
    decision adopted alongside the plan.
    """

    groups: tuple[frozenset[int], ...]
    reuse: dict[int, int]
    strategy: str
    modifications: int
    delta: float | None
    at_version_count: int

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
    def from_state(cls, state: dict) -> "PendingMigration":
        return cls(
            groups=tuple(frozenset(group) for group in state["groups"]),
            reuse={int(i): int(j) for i, j in state["reuse"]},
            strategy=state["strategy"],
            modifications=state["modifications"],
            delta=state["delta"],
            at_version_count=state["at_version_count"],
        )


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
        #: A journaled-but-unfinished migration (crash-recovery state).
        self.pending_migration: PendingMigration | None = None
        #: Journal hook for optimizer transitions (wired by OrpheusDB);
        #: receives ``maintain`` / ``migration_start`` / ``migration_finish``
        #: records.  None outside a durable session.
        self.journal: Callable[[dict], None] | None = None

    # -------------------------------------------------------------- budget

    @property
    def gamma(self) -> float:
        """Storage threshold, tracking the current record count."""
        return self.storage_multiple * self.cvd.record_count

    # ---------------------------------------------------------- full runs

    def compute_partitioning(self, use_bipartite: bool = True):
        """Solve Problem 1 on the current version graph (no physical work).

        ``use_bipartite=False`` evaluates candidate storage on the version
        tree alone — exact for tree-shaped histories, conservative for
        DAGs — which is what makes re-running LyreSplit after *every*
        commit cheap (the paper: "LyreSplit is lightweight and can be run
        very quickly after every commit").
        """
        if use_bipartite:
            bipartite = BipartiteGraph.from_cvd(self.cvd)
            tree = reduce_to_tree(
                self.cvd.graph, true_record_count=bipartite.num_records
            )
            return search_delta(
                tree, self.gamma, bipartite=bipartite, edge_rule=self.edge_rule
            )
        tree = reduce_to_tree(self.cvd.graph, true_record_count=self.cvd.record_count)
        # A coarser binary search suffices for the per-commit mu check;
        # the full-precision search runs when a migration actually fires.
        return search_delta(
            tree, self.gamma, edge_rule=self.edge_rule, max_iterations=12
        )

    def run_full_partitioning(self):
        """Partition (or re-partition) the CVD's physical storage.

        With ``frequencies`` set, the weighted search (Appendix C.2) picks
        the partitioning; otherwise the standard uniform-frequency search.
        """
        if self.frequencies:
            from repro.partition.weighted import search_delta_weighted

            bipartite = BipartiteGraph.from_cvd(self.cvd)
            tree = reduce_to_tree(
                self.cvd.graph, true_record_count=bipartite.num_records
            )
            delta, partitioning, storage, cost = search_delta_weighted(
                tree,
                self.frequencies,
                self.gamma,
                bipartite,
                edge_rule=self.edge_rule,
            )
            from repro.partition.delta_search import DeltaSearchResult

            result = DeltaSearchResult(
                delta=delta,
                partitioning=partitioning,
                storage_cost=storage,
                checkout_cost=cost,
                iterations=0,
                levels=0,
            )
        else:
            result = self.compute_partitioning()
        self.delta_star = result.delta
        if self._model is None:
            self._install_partitioned_model(result.partitioning)
        else:
            # A full re-optimize is journaled wholesale as one ``optimize``
            # record (recovery re-runs the deterministic search), so the
            # migration inside it must not be double-journaled.
            self.migrate(result.partitioning, journal_events=False)
        return result

    def _install_partitioned_model(self, partitioning: Partitioning) -> None:
        old_model = self.cvd.model
        new_model = PartitionedRlistModel(
            self.cvd.db, self.cvd.name, self.cvd.data_schema
        )
        new_model.create_storage()

        def payloads(rids: Iterable[int]):
            wanted = set(rids)
            data_table = self.cvd.db.table(old_model.data_table)
            rid_index = data_table.index_on(["rid"])
            out = {
                row[0]: tuple(row[1:])
                for row in data_table.probe_many(
                    rid_index, ((rid,) for rid in wanted)
                )
            }
            missing = wanted - set(out)
            if missing:
                raise PartitionError(
                    f"records {sorted(missing)[:5]} missing from data table"
                )
            return out

        new_model.build_from(self.cvd.membership, payloads, partitioning)
        old_model.drop_storage()
        new_model.placement_policy = self._place_version
        new_model.optimizer = self
        self.cvd.model = new_model
        self._model = new_model

    # ------------------------------------------------------ online commits

    def _place_version(
        self, vid: int, members: frozenset, parent_vids
    ) -> int | None:
        """Section 4.3's rule; returning None opens a new partition."""
        assert self._model is not None
        if not parent_vids:
            return None
        placed = [p for p in parent_vids if p in self._model._assignment]
        if not placed:
            return None
        members = arrays.to_ridset(members)
        best_parent = max(
            placed,
            key=lambda p: (
                members.intersection_count(self._model.member_rids(p)),
                -p,
            ),
        )
        weight = members.intersection_count(self._model.member_rids(best_parent))
        delta_star = self.delta_star if self.delta_star is not None else 1.0
        record_count = self.cvd.record_count
        storage = self._model.storage_cost_records
        if weight <= delta_star * record_count and storage < self.gamma:
            return None
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
        self.trace.samples.append(sample)
        return sample, best

    def apply_tolerance_trigger(self, sample: MaintenanceSample, best) -> None:
        """Fire the migration engine when ``Cavg > mu * C*avg``."""
        if (
            self.auto_migrate
            and best is not None
            and best.checkout_cost > 0
            and sample.current_cavg > self.tolerance * best.checkout_cost
        ):
            self.delta_star = best.delta
            self.migrate(best.partitioning)

    def replay_sample(self, sample: list) -> None:
        """Append a journaled maintenance sample without recomputing it."""
        self.trace.samples.append(MaintenanceSample(*sample))

    # ------------------------------------------------------------ migration

    def migrate(
        self,
        new_partitioning: Partitioning,
        strategy: str | None = None,
        journal_events: bool = True,
    ) -> MigrationEvent:
        """Reorganize physical partitions to ``new_partitioning``.

        The plan is journaled (``migration_start``) and recorded as
        :attr:`pending_migration` *before* the physical work, then executed
        and journaled again (``migration_finish``) — so a crash at any point
        either loses the unacknowledged decision entirely or leaves a
        recoverable pending plan.
        """
        assert self._model is not None
        strategy = strategy or self.migration_strategy
        members = self._model._members
        states = self._model.partition_states()
        if strategy == "intelligent":
            old_rid_sets = [set(state.rids) for state in states]
            plan = plan_intelligent(old_rid_sets, new_partitioning, members)
            reuse = plan.resolve_reuse([state.index for state in states])
        else:
            plan = plan_naive(new_partitioning, members)
            reuse = {}
        pending = PendingMigration(
            groups=tuple(plan.new_groups),
            reuse=reuse,
            strategy=strategy,
            modifications=plan.modifications,
            delta=self.delta_star,
            at_version_count=self.cvd.version_count,
        )
        self.begin_migration(pending, journal_event=journal_events)
        return self.complete_pending_migration(journal_event=journal_events)

    def begin_migration(
        self, pending: PendingMigration, journal_event: bool = True
    ) -> None:
        """Adopt a decided migration plan as in-flight (and journal it)."""
        if self.pending_migration is not None:
            raise PartitionError("a migration is already in flight")
        if pending.delta is not None:
            self.delta_star = pending.delta
        self.pending_migration = pending
        if journal_event:
            self._emit({"op": "migration_start", "plan": pending.to_state()})

    def complete_pending_migration(
        self,
        journal_event: bool = True,
        expected_inserted: int | None = None,
        expected_deleted: int | None = None,
        wall_seconds: float | None = None,
    ) -> MigrationEvent:
        """Execute the in-flight plan; the replay/roll-forward entry point.

        ``expected_*`` lets WAL replay verify the re-executed migration
        matches the acknowledged one; ``wall_seconds`` substitutes the
        journaled timing for the (meaningless) replay timing.
        """
        pending = self.pending_migration
        if pending is None:
            raise PartitionError("no migration is in flight")
        assert self._model is not None
        started = time.perf_counter()
        inserted, deleted = self._model.replace_partitions(
            list(pending.groups), pending.reuse, self._payloads_from_partitions
        )
        elapsed = time.perf_counter() - started
        if expected_inserted is not None and (
            inserted != expected_inserted or deleted != expected_deleted
        ):
            raise PartitionError(
                f"migration replay modified {inserted}+{deleted} records, "
                f"journal says {expected_inserted}+{expected_deleted} — "
                f"non-deterministic state"
            )
        event = MigrationEvent(
            at_version_count=pending.at_version_count,
            plan_modifications=pending.modifications,
            records_inserted=inserted,
            records_deleted=deleted,
            wall_seconds=elapsed if wall_seconds is None else wall_seconds,
            strategy=pending.strategy,
        )
        self.trace.migrations.append(event)
        # Clear before journaling: if the finish append triggers a
        # checkpoint, the snapshot must not carry a still-pending plan on
        # top of already-migrated partitions.
        self.pending_migration = None
        if journal_event:
            self._emit(
                {
                    "op": "migration_finish",
                    "inserted": event.records_inserted,
                    "deleted": event.records_deleted,
                    "wall_seconds": event.wall_seconds,
                }
            )
        return event

    def _payloads_from_partitions(self, rids: Iterable[int]):
        assert self._model is not None
        return self._model._fetch_payloads(rids)

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
            "pending_migration": (
                self.pending_migration.to_state()
                if self.pending_migration is not None
                else None
            ),
        }

    @classmethod
    def from_state(cls, cvd: CVD, state: dict) -> "PartitionOptimizer":
        """Rebuild an optimizer onto ``cvd``'s already-restored partitioned
        model, resuming the live placement policy."""
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
        optimizer.trace.samples = [
            MaintenanceSample(*sample) for sample in trace["samples"]
        ]
        optimizer.trace.migrations = [
            MigrationEvent(*event) for event in trace["migrations"]
        ]
        pending = state["pending_migration"]
        if pending is not None:
            optimizer.pending_migration = PendingMigration.from_state(pending)
        optimizer.adopt_model(cvd.model)
        return optimizer

    def adopt_model(self, model: PartitionedRlistModel) -> None:
        """Re-attach to an already-partitioned model (snapshot restore)."""
        model.placement_policy = self._place_version
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
