"""Binary search on delta for Problem 1 (paper Appendix B).

Given a storage threshold ``gamma``, find the delta whose LyreSplit
partitioning has storage cost as close to gamma as possible without
exceeding it.  Appendix B's superset property — larger delta cuts a
superset of the edges cut by smaller delta — makes storage monotonically
non-decreasing in delta, so binary search applies.  The search space is
``[|E| / (|R| |V|), 1]``: at the lower end everything fits one partition,
at delta = 1 every version tends to its own partition.

Storage is evaluated on the *actual* bipartite graph (duplicated R-hat
records collapse, the paper's post-processing note), falling back to the
tree's own estimate when no bipartite graph is supplied.  That estimate
costs nothing extra: every LyreSplit group is a connected part (a
pre-order slice of the tree), so the split already knows each group's
record count and reports it as ``group_records`` — ``S`` and ``Cavg`` are
two sums over it.

Every run of one search splits the same view, so the runs share its
LyreSplit layout: the first run builds it, and from the second run on each
part's cut choices are ranked once and reused at every later delta (see
:mod:`repro.partition.lyresplit`).  Probing a new delta costs a walk over
the parts that delta forms, each one ``bisect`` into its ranking.
"""

from __future__ import annotations

from repro.errors import InfeasibleBudgetError
from repro.partition.bipartite import BipartiteGraph, Partitioning
from repro.partition.dag_reduction import VersionTreeView
from repro.partition.lyresplit import LyreSplitResult, lyresplit
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


def _storage_of(
    result: LyreSplitResult, bipartite: BipartiteGraph | None
) -> int:
    if bipartite is not None:
        return bipartite.storage_cost(result.partitioning)
    return sum(result.group_records)


def _checkout_of(
    result: LyreSplitResult,
    tree: VersionTreeView,
    bipartite: BipartiteGraph | None,
) -> float:
    if bipartite is not None:
        return bipartite.checkout_cost(result.partitioning)
    total = sum(
        len(group) * records
        for group, records in zip(result.partitioning.groups, result.group_records)
    )
    return total / tree.num_versions


def search_delta(
    tree: VersionTreeView,
    gamma: float,
    bipartite: BipartiteGraph | None = None,
    edge_rule: str = "balance",
    tolerance: float = 0.99,
    max_iterations: int = 40,
) -> DeltaSearchResult:
    """Binary-search delta so that ``tolerance * gamma <= S <= gamma``.

    Keeps the best feasible (S <= gamma) partitioning seen — the one with
    the lowest checkout cost — and returns it if the tolerance window is
    never hit exactly (discrete delta space).  Raises
    :class:`InfeasibleBudgetError` when even a single partition exceeds
    gamma (i.e. gamma < |R|).
    """
    records = (
        bipartite.num_records if bipartite is not None else tree.tree_record_count
    )
    if gamma < records:
        raise InfeasibleBudgetError(
            f"storage threshold {gamma} is below |R| = {records}; "
            f"no partitioning can satisfy it"
        )
    low = tree.num_edges / (records * tree.num_versions)
    high = 1.0
    low = min(low, high)
    best: DeltaSearchResult | None = None
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        delta = (low + high) / 2
        result = lyresplit(tree, delta, edge_rule)
        storage = _storage_of(result, bipartite)
        checkout = _checkout_of(result, tree, bipartite)
        if storage <= gamma:
            if best is None or checkout < best.checkout_cost:
                best = DeltaSearchResult(
                    delta=delta,
                    partitioning=result.partitioning,
                    storage_cost=storage,
                    checkout_cost=checkout,
                    iterations=iterations,
                    levels=result.levels,
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
        storage = (
            bipartite.storage_cost(single)
            if bipartite is not None
            else tree.tree_record_count
        )
        checkout = (
            bipartite.checkout_cost(single)
            if bipartite is not None
            else float(tree.tree_record_count)
        )
        best = DeltaSearchResult(
            delta=low,
            partitioning=single,
            storage_cost=storage,
            checkout_cost=checkout,
            iterations=iterations,
            levels=0,
        )
    best.iterations = iterations
    return best
