"""AGGLO — the agglomerative clustering baseline (NScale Algorithm 4).

Implemented as the paper describes in Section 5.1: every version starts as
its own partition; partitions are ordered by a min-hash shingle signature;
each pass, every partition tries to merge with the candidate among its next
``l`` neighbours sharing the most common shingles, subject to (1) common
shingles above a threshold ``tau`` chosen by uniform pair sampling and (2)
a per-partition record capacity ``BC``.  Passes repeat until no merge
happens.

Unlike LyreSplit, AGGLO operates on the full version-record bipartite graph
(record sets and min-hash signatures), which is exactly why it is orders of
magnitude slower (Figures 10/11).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import PartitionError
from repro.partition.bipartite import BipartiteGraph, Partitioning, average_checkout
from repro.storage.ridset import RidSet


@dataclass
class _Cluster:
    vids: set[int]
    records: RidSet
    signature: tuple[int, ...]


def _min_hash_signature(
    records, hash_seeds: list[tuple[int, int]], modulus: int
) -> tuple[int, ...]:
    if not records:
        return tuple(modulus for _ in hash_seeds)
    return tuple(min((a * rid + b) % modulus for rid in records) for a, b in hash_seeds)


def _common_shingles(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(1 for x, y in zip(a, b) if x == y)


def agglo_partition(
    bipartite: BipartiteGraph,
    capacity: float,
    num_hashes: int = 16,
    lookahead: int = 100,
    sample_pairs: int = 100,
    seed: int = 7,
    max_passes: int = 50,
) -> Partitioning:
    """Cluster versions agglomeratively under record capacity ``capacity``."""
    if capacity <= 0:
        raise PartitionError("capacity must be positive")
    rng = random.Random(seed)
    modulus = (1 << 31) - 1
    hash_seeds = [
        (rng.randrange(1, modulus), rng.randrange(modulus))
        for _ in range(num_hashes)
    ]
    clusters = [
        _Cluster(
            vids={vid},
            records=bipartite.records_of(vid),
            signature=_min_hash_signature(
                bipartite.records_of(vid), hash_seeds, modulus
            ),
        )
        for vid in bipartite.version_ids()
    ]
    tau = _sample_threshold(clusters, sample_pairs, rng)
    for _ in range(max_passes):
        clusters.sort(key=lambda c: c.signature)
        merged_any = False
        alive = [True] * len(clusters)
        for i, cluster in enumerate(clusters):
            if not alive[i]:
                continue
            best_j, best_common = -1, tau
            upper = min(len(clusters), i + 1 + lookahead)
            for j in range(i + 1, upper):
                if not alive[j]:
                    continue
                candidate = clusters[j]
                common = _common_shingles(cluster.signature, candidate.signature)
                if common <= best_common:
                    continue
                # One OR + popcount decides capacity; nothing materializes.
                if cluster.records.union_count(candidate.records) > capacity:
                    continue
                best_j, best_common = j, common
            if best_j >= 0:
                other = clusters[best_j]
                cluster.vids |= other.vids
                cluster.records |= other.records
                # Min-hash of a union is the element-wise min of signatures.
                cluster.signature = tuple(
                    min(x, y)
                    for x, y in zip(cluster.signature, other.signature)
                )
                alive[best_j] = False
                merged_any = True
        clusters = [c for c, keep in zip(clusters, alive) if keep]
        if not merged_any:
            break
    return Partitioning.from_groups(cluster.vids for cluster in clusters)


def _sample_threshold(
    clusters: list[_Cluster], sample_pairs: int, rng: random.Random
) -> int:
    """tau via uniform pair sampling: the mean common-shingle count."""
    if len(clusters) < 2:
        return 0
    total = 0
    samples = 0
    for _ in range(sample_pairs):
        a, b = rng.sample(range(len(clusters)), 2)
        total += _common_shingles(clusters[a].signature, clusters[b].signature)
        samples += 1
    return total // max(samples, 1)


def agglo_budget_search(
    bipartite: BipartiteGraph,
    gamma: float,
    max_iterations: int = 12,
    **agglo_kwargs,
) -> tuple[Partitioning, float]:
    """Binary-search capacity BC to meet storage budget ``gamma``.

    Smaller BC means more, smaller partitions (more storage, less checkout);
    we search for the smallest BC whose storage still fits gamma, returning
    the feasible partitioning with the lowest checkout cost.
    """
    low = bipartite.num_edges / bipartite.num_versions  # ~avg version size
    high = float(bipartite.num_records)
    best: tuple[Partitioning, float] | None = None
    for _ in range(max_iterations):
        capacity = (low + high) / 2
        partitioning = agglo_partition(bipartite, capacity, **agglo_kwargs)
        sizes = bipartite.group_sizes(partitioning)
        if sum(sizes) <= gamma:
            checkout = average_checkout(partitioning, sizes)
            if best is None or checkout < best[1]:
                best = (partitioning, checkout)
            high = capacity  # fits: smaller partitions may still fit
        else:
            low = capacity  # over budget: merge more aggressively
    if best is None:
        single = Partitioning.single(bipartite.version_ids())
        best = (single, bipartite.checkout_cost(single))
    return best
