"""Reference LyreSplit: Algorithm 1 on per-node sets, the oracle for parity.

The production :func:`repro.partition.lyresplit.lyresplit` runs on sorted
pre-order slices.  This is the straightforward set-based formulation it
replaced — every part a ``set`` of vids, each candidate's subtree found by
walking ``tree.children`` and probing the part, part statistics recomputed
anew after every cut.  The parity suites
(``test_partition_lyresplit_parity.py``) require both to make the same
decision on every input: same groups in the same order, same ``levels``,
``cuts`` and per-group record counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitionError
from repro.partition.bipartite import Partitioning
from repro.partition.dag_reduction import VersionTreeView
from repro.partition.lyresplit import EDGE_RULES, LyreSplitResult


@dataclass
class _PartitionStats:
    """Aggregates for one candidate partition (a connected subtree)."""

    root: int
    nodes: set[int]
    records: int  # |R_k| as the tree sees it
    edges: int  # |E_k| = sum of |R(v)|

    @property
    def versions(self) -> int:
        return len(self.nodes)


def reference_lyresplit(
    tree: VersionTreeView, delta: float, edge_rule: str = "balance"
) -> LyreSplitResult:
    """Run Algorithm 1 with the given delta (set-based reference)."""
    if not 0 < delta <= 1:
        raise PartitionError(f"delta must be in (0, 1], got {delta}")
    if edge_rule not in EDGE_RULES:
        raise PartitionError(
            f"edge_rule must be one of {EDGE_RULES}, got {edge_rule!r}"
        )
    initial = _stats_for(tree, tree.root, set(tree.parent))
    groups: list[set[int]] = []
    max_level = 0
    cuts = 0
    stack: list[tuple[_PartitionStats, int]] = [(initial, 0)]
    while stack:
        part, level = stack.pop()
        if part.records * part.versions < part.edges / delta:
            groups.append(part.nodes)
            continue
        edge = _pick_edge(tree, part, delta, edge_rule)
        if edge is None:
            groups.append(part.nodes)
            continue
        cuts += 1
        max_level = max(max_level, level + 1)
        child = edge[1]
        sub_nodes = {node for node in _subtree(tree, child) if node in part.nodes}
        rem_nodes = part.nodes - sub_nodes
        stack.append((_stats_for(tree, part.root, rem_nodes), level + 1))
        stack.append((_stats_for(tree, child, sub_nodes), level + 1))
    partitioning = Partitioning.from_groups(groups)
    return LyreSplitResult(
        partitioning=partitioning,
        delta=delta,
        levels=max_level,
        cuts=cuts,
        group_records=group_records_of(tree, partitioning),
    )


def group_records_of(tree: VersionTreeView, partitioning: Partitioning) -> list[int]:
    """Each group's record count, recomputed from the group's root."""
    out = []
    for group in partitioning.groups:
        root = _group_root(tree, group)
        out.append(
            tree.num_records[root]
            + sum(tree.new_record_count(node) for node in group if node != root)
        )
    return out


def _group_root(tree: VersionTreeView, group: frozenset[int]) -> int:
    for node in group:
        parent = tree.parent[node]
        if parent is None or parent not in group:
            return node
    raise PartitionError("partition has no root — not a subtree")


def _subtree(tree: VersionTreeView, vid: int) -> set[int]:
    out = {vid}
    stack = [vid]
    while stack:
        node = stack.pop()
        for child in tree.children[node]:
            out.add(child)
            stack.append(child)
    return out


def _stats_for(tree: VersionTreeView, root: int, nodes: set[int]) -> _PartitionStats:
    records = tree.num_records[root]
    edges = 0
    for node in nodes:
        edges += tree.num_records[node]
        if node != root:
            records += tree.new_record_count(node)
    return _PartitionStats(root=root, nodes=nodes, records=records, edges=edges)


def _pick_edge(
    tree: VersionTreeView,
    part: _PartitionStats,
    delta: float,
    edge_rule: str,
) -> tuple[int, int] | None:
    threshold = delta * part.records
    candidates = [
        (tree.parent[node], node)
        for node in part.nodes
        if node != part.root
        and tree.parent[node] in part.nodes
        and tree.weight[(tree.parent[node], node)] <= threshold
    ]
    if not candidates:
        return None
    if edge_rule == "min_weight":
        return min(candidates, key=lambda e: (tree.weight[e], e))
    version_counts, newrec_sums = _subtree_aggregates(tree, part)

    def balance_key(edge: tuple[int, int]):
        child = edge[1]
        sub_versions = version_counts[child]
        rem_versions = part.versions - sub_versions
        sub_records = tree.num_records[child] + (
            newrec_sums[child] - tree.new_record_count(child)
        )
        rem_records = part.records - newrec_sums[child]
        return (
            abs(sub_versions - rem_versions),
            abs(sub_records - rem_records),
            edge,
        )

    return min(candidates, key=balance_key)


def _subtree_aggregates(
    tree: VersionTreeView, part: _PartitionStats
) -> tuple[dict[int, int], dict[int, int]]:
    """Per-node subtree version counts and new-record sums within the part."""
    version_counts: dict[int, int] = {}
    newrec_sums: dict[int, int] = {}
    stack: list[tuple[int, bool]] = [(part.root, False)]
    while stack:
        node, processed = stack.pop()
        in_part_children = [
            child for child in tree.children[node] if child in part.nodes
        ]
        if not processed:
            stack.append((node, True))
            for child in in_part_children:
                stack.append((child, False))
            continue
        version_counts[node] = 1 + sum(
            version_counts[child] for child in in_part_children
        )
        own_new = tree.new_record_count(node) if node != part.root else 0
        newrec_sums[node] = own_new + sum(
            newrec_sums[child] for child in in_part_children
        )
    return version_counts, newrec_sums
