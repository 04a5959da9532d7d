"""Reference delta search: the oracle for the one search's decisions.

:func:`repro.partition.delta_search.search_delta` is the only delta
search: it scores every candidate with one fold over ``|R_k|`` per group,
and given checkout frequencies it builds the replica tree once per search.
This module keeps the formulation it replaced, verbatim: the plain search
with its own storage and checkout sums, the weighted search that rebuilt
its replica tree at every delta, and ``BipartiteGraph``'s cost methods that
unioned every group once per cost.  ``test_partition_lyresplit_parity.py``
requires both to return the same result, every field equal.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import InfeasibleBudgetError, PartitionError
from repro.partition.bipartite import BipartiteGraph, Partitioning
from repro.partition.dag_reduction import VersionTreeView
from repro.partition.delta_search import DeltaSearchResult
from repro.partition.lyresplit import LyreSplitResult, lyresplit
from repro.partition.weighted import _build_replica_tree


class ReferenceBipartiteGraph(BipartiteGraph):
    """The bipartite graph with its cost methods as they were: each cost
    validates the cover and unions every group's record sets itself."""

    def partition_record_count(self, group: Iterable[int]) -> int:
        """``|R_k|`` as one union + popcount (no materialization)."""
        return len(self.partition_records(group))

    # ----------------------------------------------------------------- cost

    def storage_cost(self, partitioning: Partitioning) -> int:
        """``S = sum_k |R_k|`` in records."""
        self._validate_cover(partitioning)
        return sum(self.partition_record_count(group) for group in partitioning.groups)

    def checkout_cost(self, partitioning: Partitioning) -> float:
        """``Cavg = sum_k |V_k|*|R_k| / n`` in records."""
        self._validate_cover(partitioning)
        total = sum(
            len(group) * self.partition_record_count(group)
            for group in partitioning.groups
        )
        return total / self.num_versions

    def checkout_cost_of(self, vid: int, partitioning: Partitioning) -> int:
        """``C_i = |R_k|`` where vid lives in partition k."""
        for group in partitioning.groups:
            if vid in group:
                return self.partition_record_count(group)
        raise PartitionError(f"version {vid} is not in the partitioning")

    def weighted_checkout_cost(
        self, partitioning: Partitioning, frequencies: Mapping[int, float]
    ) -> float:
        """``Cw = sum_i f_i*C_i / sum_i f_i`` (Appendix C.2)."""
        self._validate_cover(partitioning)
        sizes = {
            index: self.partition_record_count(group)
            for index, group in enumerate(partitioning.groups)
        }
        assignment = partitioning.assignment()
        numerator = sum(
            frequencies.get(vid, 1.0) * sizes[assignment[vid]]
            for vid in self._membership
        )
        denominator = sum(frequencies.get(vid, 1.0) for vid in self._membership)
        return numerator / denominator


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


def weighted_lyresplit(
    tree: VersionTreeView,
    frequencies: Mapping[int, int],
    delta: float,
    bipartite: BipartiteGraph | None = None,
    edge_rule: str = "balance",
) -> Partitioning:
    """Run LyreSplit on the replica tree T' and map back to real versions.

    ``frequencies`` maps vid -> positive integer checkout frequency (vids
    missing from the mapping default to 1).
    """
    replica_tree, replica_owner = _build_replica_tree(tree, frequencies)
    result = lyresplit(replica_tree, delta, edge_rule)
    # Partition sizes in replica space pick the smallest-record partition
    # among each version's replicas.
    group_records = result.group_records
    assignment = result.partitioning.assignment()
    chosen: dict[int, int] = {}
    for replica, vid in replica_owner.items():
        group_index = assignment[replica]
        if vid not in chosen or group_records[group_index] < group_records[chosen[vid]]:
            chosen[vid] = group_index
    groups: dict[int, set[int]] = {}
    for vid, group_index in chosen.items():
        groups.setdefault(group_index, set()).add(vid)
    return Partitioning.from_groups(groups.values())


def search_delta_weighted(
    tree: VersionTreeView,
    frequencies: Mapping[int, int],
    gamma: float,
    bipartite: BipartiteGraph,
    edge_rule: str = "balance",
    max_iterations: int = 20,
) -> tuple[float, Partitioning, int, float]:
    """Binary-search delta for the weighted objective under budget gamma.

    Returns ``(delta, partitioning, storage_cost, weighted_checkout_cost)``
    — the weighted analogue of
    :func:`repro.partition.delta_search.search_delta`, used when checkout
    frequencies are skewed (Appendix C.2).
    """
    records = bipartite.num_records
    if gamma < records:
        raise PartitionError(f"storage threshold {gamma} is below |R| = {records}")
    low = tree.num_edges / (records * tree.num_versions)
    high = 1.0
    best: tuple[float, Partitioning, int, float] | None = None
    for _ in range(max_iterations):
        delta = (low + high) / 2
        partitioning = weighted_lyresplit(
            tree, frequencies, delta, bipartite, edge_rule
        )
        storage = bipartite.storage_cost(partitioning)
        if storage <= gamma:
            cost = bipartite.weighted_checkout_cost(partitioning, frequencies)
            if best is None or cost < best[3]:
                best = (delta, partitioning, storage, cost)
            low = delta
        else:
            high = delta
    if best is None:
        single = Partitioning.single(tree.parent.keys())
        best = (
            low,
            single,
            bipartite.storage_cost(single),
            bipartite.weighted_checkout_cost(single, frequencies),
        )
    return best

