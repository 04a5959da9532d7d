"""Frequency-weighted partitioning (paper Appendix C.2).

When versions are checked out with different frequencies ``f_i``, the cost
to minimize is ``Cw = sum_i f_i * C_i / sum_i f_i``.  The paper's reduction:
replicate each version ``f_i`` times as a chain in a constructed tree T',
run plain LyreSplit on T', then post-process by pulling all replicas of a
version into the single partition (among those holding its replicas) with
the fewest records.  The same ``((1+delta)^l, 1/delta)`` guarantee carries
over, now relative to the weighted lower bound zeta.

:func:`~repro.partition.delta_search.search_delta` given ``frequencies``
builds T' once, so all its runs share one view's memo.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import PartitionError
from repro.partition.bipartite import Partitioning
from repro.partition.dag_reduction import VersionTreeView
from repro.partition.lyresplit import LyreSplitResult, lyresplit


def weighted_lyresplit(
    tree: VersionTreeView,
    frequencies: Mapping[int, int],
    delta: float,
    edge_rule: str = "balance",
) -> Partitioning:
    """Run LyreSplit on the replica tree T' and map back to real versions.

    ``frequencies`` maps vid -> positive integer checkout frequency (vids
    missing from the mapping default to 1).
    """
    replica_tree, replica_owner = _build_replica_tree(tree, frequencies)
    result = lyresplit(replica_tree, delta, edge_rule)
    return replicas_to_versions(result, replica_owner)


def replicas_to_versions(
    result: LyreSplitResult, replica_owner: dict[int, int]
) -> Partitioning:
    """Pull each version's replicas into one group of a split of T': the
    group, among those holding its replicas, with the fewest records in
    replica space."""
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


def _build_replica_tree(
    tree: VersionTreeView, frequencies: Mapping[int, int]
) -> tuple[VersionTreeView, dict[int, int]]:
    """T' of Appendix C.2: f_i chained replicas per version.

    Replica ids are dense ints; ``replica_owner`` maps them back to vids.
    A chain edge between two replicas of vid carries weight |R(vid)| (they
    are identical); the edge bridging vid's last replica to a child's first
    replica keeps the original w(vid, child).
    """
    parent: dict[int, int | None] = {}
    children: dict[int, list[int]] = {}
    num_records: dict[int, int] = {}
    weight: dict[tuple[int, int], int] = {}
    replica_owner: dict[int, int] = {}
    first_replica: dict[int, int] = {}
    last_replica: dict[int, int] = {}
    next_id = 0
    for vid in tree.preorder:
        count = int(frequencies.get(vid, 1))
        if count < 1:
            raise PartitionError(
                f"frequency of version {vid} must be >= 1, got {count}"
            )
        previous: int | None = None
        for _ in range(count):
            replica = next_id
            next_id += 1
            replica_owner[replica] = vid
            children[replica] = []
            num_records[replica] = tree.num_records[vid]
            if previous is None:
                first_replica[vid] = replica
                tree_parent = tree.parent[vid]
                if tree_parent is None:
                    parent[replica] = None
                else:
                    anchor = last_replica[tree_parent]
                    parent[replica] = anchor
                    children[anchor].append(replica)
                    weight[(anchor, replica)] = tree.weight[(tree_parent, vid)]
            else:
                parent[replica] = previous
                children[previous].append(replica)
                weight[(previous, replica)] = tree.num_records[vid]
            previous = replica
        last_replica[vid] = previous  # type: ignore[assignment]
    view = VersionTreeView(
        root=first_replica[tree.root],
        parent=parent,
        children=children,
        num_records=num_records,
        weight=weight,
    )
    return view, replica_owner
