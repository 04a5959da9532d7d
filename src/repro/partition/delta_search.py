"""Binary search on delta for Problem 1 (paper Appendix B).

Given a storage threshold ``gamma``, find the delta whose LyreSplit
partitioning has storage cost as close to gamma as possible without
exceeding it.  Appendix B's superset property — larger delta cuts a
superset of the edges cut by smaller delta — makes storage monotonically
non-decreasing in delta, so binary search applies.  The search space is
``[|E| / (|R| |V|), 1]``: at the lower end everything fits one partition,
at delta = 1 every version tends to its own partition.

:func:`search_delta` is the only delta search.  It minimizes ``Cavg``,
or, given checkout ``frequencies``, Appendix C.2's ``Cw``: then it builds
the replica tree T' once and every run splits T' and pulls each version's
replicas back into one group (:mod:`repro.partition.weighted`).  Every
candidate, and the single-partition fallback, is scored by one fold over
one list, ``|R_k|`` per group
(:func:`~repro.partition.bipartite.average_checkout`): the true record
counts from the bipartite graph (duplicated R-hat records collapse, the
paper's post-processing note), or without one the tree's own estimate.
That estimate costs nothing extra: every LyreSplit group is a connected
part (a pre-order slice of the tree), so the split already reports each
group's record count as ``group_records``.

Every run of one search splits the same view (T or T'), so the runs share
its LyreSplit layout: the first run builds it, and from the second run on
each part's cut choices are ranked once and reused at every later delta
(see :mod:`repro.partition.lyresplit`).  Probing a new delta costs a walk
over the parts that delta forms, each one ``bisect`` into its ranking.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import InfeasibleBudgetError, PartitionError
from repro.partition.bipartite import BipartiteGraph, Partitioning, average_checkout
from repro.partition.dag_reduction import VersionTreeView
from repro.partition.lyresplit import lyresplit
from repro.record import Record


class DeltaSearchResult(Record):
    """Best feasible partitioning found plus search telemetry."""

    __slots__ = _fields = (
        "delta",
        "partitioning",
        "storage_cost",
        "checkout_cost",
        "iterations",
        "levels",
    )

    def __init__(
        self,
        delta: float,
        partitioning: Partitioning,
        storage_cost: int,
        checkout_cost: float,
        iterations: int,
        levels: int,
    ):
        self.delta, self.partitioning = delta, partitioning
        self.storage_cost, self.checkout_cost = storage_cost, checkout_cost
        self.iterations, self.levels = iterations, levels

    @property
    def num_partitions(self) -> int:
        return len(self.partitioning)


def search_delta(
    tree: VersionTreeView,
    gamma: float,
    bipartite: BipartiteGraph | None = None,
    edge_rule: str = "balance",
    tolerance: float = 0.99,
    max_iterations: int = 40,
    frequencies: Mapping[int, int] | None = None,
) -> DeltaSearchResult:
    """Binary-search delta so that ``tolerance * gamma <= S <= gamma``.

    Keeps the best feasible (S <= gamma) partitioning seen — the one with
    the lowest checkout cost (``Cw`` under ``frequencies``, which need
    ``bipartite``) — and returns it if the tolerance window is never hit
    exactly (discrete delta space).  Raises :class:`InfeasibleBudgetError`
    when even a single partition exceeds gamma (i.e. gamma < |R|).
    """
    records = (
        bipartite.num_records if bipartite is not None else tree.tree_record_count
    )
    if gamma < records:
        raise InfeasibleBudgetError(
            f"storage threshold {gamma} is below |R| = {records}; "
            f"no partitioning can satisfy it"
        )
    split_tree, owner = tree, None
    if frequencies:
        if bipartite is None:
            raise PartitionError("a weighted search needs the bipartite graph")
        from repro.partition.weighted import _build_replica_tree, replicas_to_versions

        split_tree, owner = _build_replica_tree(tree, frequencies)

    def costs(partitioning: Partitioning, sizes: list[int]) -> tuple[int, float]:
        if bipartite is not None:
            sizes = bipartite.group_sizes(partitioning)
        return sum(sizes), average_checkout(partitioning, sizes, frequencies)

    low = tree.num_edges / (records * tree.num_versions)
    high = 1.0
    low = min(low, high)
    best: DeltaSearchResult | None = None
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        delta = (low + high) / 2
        result = lyresplit(split_tree, delta, edge_rule)
        partitioning = result.partitioning
        if owner is not None:
            partitioning = replicas_to_versions(result, owner)
        storage, checkout = costs(partitioning, result.group_records)
        if storage <= gamma:
            if best is None or checkout < best.checkout_cost:
                best = DeltaSearchResult(
                    delta, partitioning, storage, checkout, iterations, result.levels
                )
            if storage >= tolerance * gamma:
                break
            low = delta  # feasible but loose: push for more partitions
        else:
            high = delta  # over budget: back off
    if best is None:
        # Even the smallest delta overshot (possible when R-hat duplication
        # inflates every multi-partition scheme): one partition always fits.
        single = Partitioning.single(tree.parent.keys())
        best = DeltaSearchResult(low, single, *costs(single, [records]), iterations, 0)
    best.iterations = iterations
    return best
