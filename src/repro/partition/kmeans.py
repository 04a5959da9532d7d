"""KMEANS — the k-means clustering baseline (NScale Algorithm 5).

As described in Section 5.1: ``K`` random versions seed the partitions and
their record sets become centroids; every other version joins the centroid
it shares the most records with; centroids become the union of member
record sets.  Subsequent iterations move each version to the partition that
minimizes the total record count across partitions, subject to the
per-partition capacity ``BC`` (infinity by default, matching the paper's
final configuration).  Ten iterations, like the paper.

The per-version-per-centroid comparisons over full record sets are what
make this algorithm thousands of times slower than LyreSplit.
"""

from __future__ import annotations

import random

from repro.errors import PartitionError
from repro.partition.bipartite import BipartiteGraph, Partitioning, average_checkout
from repro.storage.ridset import RidSet


def kmeans_partition(
    bipartite: BipartiteGraph,
    k: int,
    capacity: float = float("inf"),
    iterations: int = 10,
    seed: int = 7,
) -> Partitioning:
    """Cluster versions into at most ``k`` partitions."""
    version_ids = bipartite.version_ids()
    if not 1 <= k <= len(version_ids):
        raise PartitionError(f"k must be between 1 and {len(version_ids)}, got {k}")
    rng = random.Random(seed)
    seeds = rng.sample(version_ids, k)
    members: list[set[int]] = [{vid} for vid in seeds]
    centroids: list[RidSet] = [bipartite.records_of(vid) for vid in seeds]
    assignment: dict[int, int] = {vid: i for i, vid in enumerate(seeds)}
    # Initial assignment: nearest centroid by common-record count
    # (an AND + popcount per candidate centroid).
    for vid in version_ids:
        if vid in assignment:
            continue
        records = bipartite.records_of(vid)
        best = max(
            range(k),
            key=lambda i: (records.intersection_count(centroids[i]), -i),
        )
        assignment[vid] = best
        members[best].add(vid)
    _update_centroids(bipartite, members, centroids)
    for _ in range(iterations):
        moved = False
        for vid in version_ids:
            records = bipartite.records_of(vid)
            current = assignment[vid]
            # Moving vid changes only the target partition's record union
            # (the source keeps its other members' records); minimizing the
            # total record count means minimizing the records vid adds.
            best, best_added = current, records.difference_count(
                centroids[current]
            )
            for i in range(k):
                if i == current:
                    continue
                added = records.difference_count(centroids[i])
                if centroids[i].union_count(records) > capacity:
                    continue
                if added < best_added:
                    best, best_added = i, added
            if best != current:
                members[current].discard(vid)
                members[best].add(vid)
                assignment[vid] = best
                moved = True
        _update_centroids(bipartite, members, centroids)
        if not moved:
            break
    return Partitioning.from_groups(group for group in members if group)


def _update_centroids(
    bipartite: BipartiteGraph,
    members: list[set[int]],
    centroids: list[RidSet],
) -> None:
    for i, group in enumerate(members):
        centroids[i] = RidSet.union_all(bipartite.records_of(vid) for vid in group)


def kmeans_budget_search(
    bipartite: BipartiteGraph,
    gamma: float,
    max_iterations: int = 8,
    **kmeans_kwargs,
) -> tuple[Partitioning, float]:
    """Binary-search K to meet storage budget ``gamma``.

    Storage grows with K (more partitions duplicate more records), so find
    the largest feasible K; return the feasible partitioning with the
    lowest checkout cost.
    """
    low, high = 1, bipartite.num_versions
    best: tuple[Partitioning, float] | None = None
    for _ in range(max_iterations):
        if low > high:
            break
        k = (low + high) // 2
        partitioning = kmeans_partition(bipartite, k, **kmeans_kwargs)
        sizes = bipartite.group_sizes(partitioning)
        if sum(sizes) <= gamma:
            checkout = average_checkout(partitioning, sizes)
            if best is None or checkout < best[1]:
                best = (partitioning, checkout)
            low = k + 1
        else:
            high = k - 1
    if best is None:
        single = Partitioning.single(bipartite.version_ids())
        best = (single, bipartite.checkout_cost(single))
    return best
