"""LYRESPLIT — the paper's partitioning algorithm (Algorithm 1).

Given a version tree and a parameter ``delta <= 1``, recursively split the
tree at light edges (weight <= delta * |R| of the current partition) until
every partition satisfies ``|R| * |V| < |E| / delta``.  Theorem 2 gives a
``((1 + delta)^l, 1/delta)`` approximation: storage within ``(1+delta)^l``
of the |R| lower bound (l = recursion depth) and average checkout cost
within ``1/delta`` of the |E|/|V| lower bound.

The edge-picking rule is configurable (the guarantee is rule-independent):

* ``"balance"`` (paper's experimental choice) — minimize the difference in
  version counts between the two sides, tie-breaking on record balance;
* ``"min_weight"`` — cut the globally lightest candidate edge.

Everything runs on the :class:`~repro.partition.dag_reduction.VersionTreeView`
— node counts and edge weights only, never record sets — which is why
LyreSplit is orders of magnitude faster than the AGGLO / KMEANS baselines.

**Parts are pre-order slices.**  Every part the recursion forms is
connected: the subtree of its root minus whole cut-off subtrees.  With the
tree numbered in pre-order once per view, a part is a sorted list of
positions and, for a node ``c`` in it, ``subtree(c) ∩ part`` is one
contiguous slice of that list, from ``c`` to a ``bisect`` for the end of
``c``'s subtree.  A candidate cut's version balance is that slice's length;
its record balance (needed only to break ties) is a difference of one
prefix sum of new-record counts over the part.  Cutting is list slicing and
both halves' statistics are subtractions — no per-node sets, no subtree
walks.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

from repro.errors import PartitionError
from repro.partition.bipartite import Partitioning
from repro.partition.dag_reduction import VersionTreeView
from repro.record import Record

EDGE_RULES = ("balance", "min_weight")


class LyreSplitResult(Record):
    """Partitioning plus the recursion statistics the analysis refers to:
    ``levels`` is l, the deepest recursion level that performed a split,
    and ``group_records`` |R_k| as the tree sees it, one per group."""

    __slots__ = _fields = ("partitioning", "delta", "levels", "cuts", "group_records")

    def __init__(self, partitioning: Partitioning, delta, levels, cuts, group_records):
        self.partitioning, self.delta, self.levels = partitioning, delta, levels
        self.cuts, self.group_records = cuts, group_records

    @property
    def num_partitions(self) -> int:
        return len(self.partitioning)


def lyresplit(
    tree: VersionTreeView, delta: float, edge_rule: str = "balance"
) -> LyreSplitResult:
    """Run Algorithm 1 with the given delta."""
    if not 0 < delta <= 1:
        raise PartitionError(f"delta must be in (0, 1], got {delta}")
    if edge_rule not in EDGE_RULES:
        raise PartitionError(
            f"edge_rule must be one of {EDGE_RULES}, got {edge_rule!r}"
        )
    layout = _Layout(tree)
    new, size = layout.new, layout.size
    everything = list(range(len(layout.order)))
    # A part is (sorted positions, |R_k|, |E_k|, recursion level); a part's
    # root is its first position, whose new records are never counted.
    stack = [(everything, size[0] + sum(new) - new[0], sum(size), 0)]
    groups: list[list[int]] = []
    group_records: list[int] = []
    max_level = 0
    cuts = 0
    while stack:
        part, records, edges, level = stack.pop()
        cut = None
        if records * len(part) >= edges / delta:
            cut = layout.pick_cut(part, records, delta, edge_rule)
        if cut is None:
            # Small enough — or no light edge exists (possible off the tree
            # assumption or with extreme deltas): the partition is final.
            groups.append([layout.order[p] for p in part])
            group_records.append(records)
            continue
        cuts += 1
        max_level = max(max_level, level + 1)
        i, j = cut
        sub = part[i:j]
        sub_new = sum(new[p] for p in sub)
        sub_edges = sum(size[p] for p in sub)
        child = sub[0]
        stack.append(
            (part[:i] + part[j:], records - sub_new, edges - sub_edges, level + 1)
        )
        stack.append(
            (sub, size[child] + sub_new - new[child], sub_edges, level + 1)
        )
    return LyreSplitResult(
        partitioning=Partitioning.from_groups(groups),
        delta=delta,
        levels=max_level,
        cuts=cuts,
        group_records=group_records,
    )


class _Layout:
    """The tree numbered in pre-order, with per-position statistics."""

    def __init__(self, tree: VersionTreeView):
        order = tree.preorder
        self.order = order
        self.end = tree.subtree_end
        self.new = [tree.new_record_count(node) for node in order]
        self.size = [tree.num_records[node] for node in order]
        self.edge = [None] + [(tree.parent[node], node) for node in order[1:]]
        self.weight = [0] + [tree.weight[edge] for edge in self.edge[1:]]

    def pick_cut(
        self, part: list[int], records: int, delta: float, edge_rule: str
    ) -> tuple[int, int] | None:
        """The slice ``part[i:j]`` below the chosen light edge, or None."""
        threshold = delta * records
        weight, edge, end = self.weight, self.edge, self.end
        candidates = [
            i for i in range(1, len(part)) if weight[part[i]] <= threshold
        ]
        if not candidates:
            return None
        if edge_rule == "min_weight":
            i = min(candidates, key=lambda i: (weight[part[i]], edge[part[i]]))
            return i, bisect_left(part, end[part[i]], i + 1)
        # "balance": minimize |V1 - V2| after the cut, tie-break on |R1 - R2|
        # (the rule the paper's experiments use), then on edge id for
        # determinism.  Record balance is only needed among |V1 - V2| ties.
        versions = len(part)
        cuts = [(i, bisect_left(part, end[part[i]], i + 1)) for i in candidates]
        imbalance = [abs(versions - 2 * (j - i)) for i, j in cuts]
        least = min(imbalance)
        tied = [cut for cut, gap in zip(cuts, imbalance) if gap == least]
        if len(tied) == 1:
            return tied[0]
        new, size = self.new, self.size
        newrec = list(accumulate((new[p] for p in part), initial=0))

        def record_balance(cut: tuple[int, int]):
            i, j = cut
            p = part[i]
            sub_new = newrec[j] - newrec[i]
            sub_records = size[p] + sub_new - new[p]
            return abs(sub_records - (records - sub_new)), edge[p]

        return min(tied, key=record_balance)
