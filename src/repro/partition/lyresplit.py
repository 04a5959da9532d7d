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
tree numbered in pre-order once per view, a part is a sorted tuple of
positions and, for a node ``c`` in it, ``subtree(c) ∩ part`` is one
contiguous slice of it, from ``c`` to a ``bisect`` for the end of ``c``'s
subtree.  A cut's version balance is that slice's length; its record
balance and both halves' statistics are prefix-sum differences.

**A search ranks each part once.**  A delta search runs LyreSplit 12 or 40
times on one view, and the runs meet the same parts again.  A part's
statistics follow from its positions, and delta reaches its cut only via
the threshold ``delta * |R_k|``.  So the view's :class:`Layout` memoizes,
per edge rule and part, the part's *ranking*: its edges by weight, each
with the best cut by the rule's key among those up to it; a later visit at
any delta is one ``bisect_right`` of the threshold.  The first run on a
view scans only each part's light edges and keeps nothing, so a view split
once (a cell-scaled tree, a direct weighted run) pays nothing for it; a
weighted delta search splits one replica tree at every delta and shares
its memo like any other search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
    layout = tree.layout
    new, size, weight = layout.new, layout.size, layout.weight
    # A part is (positions, |R_k|, |E_k|, recursion level); a part's root is
    # its first position, whose new records are never counted.
    stack = [(tuple(range(len(size))), size[0] + sum(new) - new[0], sum(size), 0)]
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
        level += 1
        max_level = max(max_level, level)
        i, j, sub_new, sub_edges = cut
        stack.append((part[:i] + part[j:], records - sub_new, edges - sub_edges, level))
        # The cut-off side's root keeps the w records it shares with its parent.
        stack.append((part[i:j], weight[part[i]] + sub_new, sub_edges, level))
    layout.runs += 1
    return LyreSplitResult(
        partitioning=Partitioning.from_groups(groups),
        delta=delta,
        levels=max_level,
        cuts=cuts,
        group_records=group_records,
    )


class Layout:
    """A view's per-position statistics in pre-order, and its runs' cut memo."""

    def __init__(self, tree: VersionTreeView):
        self.order = order = tree.preorder
        self.end = tree.subtree_end
        self.new = [tree.new_record_count(node) for node in order]
        self.size = [tree.num_records[node] for node in order]
        self.edge = [None] + [(tree.parent[node], node) for node in order[1:]]
        self.weight = [0] + [tree.weight[edge] for edge in self.edge[1:]]
        #: Runs finished on the view; per edge rule, part -> its ranking.
        self.runs = 0
        self.memo: dict[str, dict] = {rule: {} for rule in EDGE_RULES}

    def pick_cut(self, part: tuple, records: int, delta: float, edge_rule: str):
        """``(i, j, sub_new, sub_edges)``: the slice ``part[i:j]`` below the
        chosen light edge with its new-record and |E| sums, or None."""
        if not self.runs:
            return self.scan(part, records, delta, edge_rule)
        memo = self.memo[edge_rule]
        ranking = memo.get(part)
        if ranking is None:
            ranking = memo[part] = self.rank(part, records, edge_rule)
        weights, best = ranking
        k = bisect_right(weights, delta * records)
        return best[k - 1] if k else None

    def scan(self, part: tuple, records: int, delta: float, edge_rule: str):
        """:meth:`pick_cut` from the part's light edges alone."""
        threshold = delta * records
        weight, end, edge, new = self.weight, self.end, self.edge, self.new
        light = [i for i in range(1, len(part)) if weight[part[i]] <= threshold]
        if not light:
            return None
        if edge_rule == "min_weight":
            light = [min(light, key=lambda i: (weight[part[i]], edge[part[i]]))]
        cuts = [(i, bisect_left(part, end[part[i]], i + 1)) for i in light]
        if len(cuts) > 1:
            # Record balance is needed only among |V1 - V2| ties.
            imbalance = [abs(len(part) - 2 * (j - i)) for i, j in cuts]
            least = min(imbalance)
            cuts = [cut for cut, gap in zip(cuts, imbalance) if gap == least]
        if len(cuts) == 1:
            (i, j), newrec = cuts[0], None
        else:
            newrec = list(accumulate(map(new.__getitem__, part), initial=0))
            keys = self.balance_keys(part, records, cuts, newrec)
            i, j = cuts[keys.index(min(keys))]
        sub = part[i:j]
        sub_new = newrec[j] - newrec[i] if newrec else sum(map(new.__getitem__, sub))
        return i, j, sub_new, sum(map(self.size.__getitem__, sub))

    def balance_keys(self, part: tuple, records: int, cuts: list, newrec: list):
        """``(|V1 - V2|, |R1 - R2|, edge)`` per cut: the cut-off side holds
        ``w + sub_new`` records (``newrec`` sums), the rest ``R - sub_new``."""
        weight, edge, versions = self.weight, self.edge, len(part)
        return [
            (
                abs(versions - 2 * (j - i)),
                abs(weight[part[i]] + 2 * (newrec[j] - newrec[i]) - records),
                edge[part[i]],
            )
            for i, j in cuts
        ]

    def rank(self, part: tuple, records: int, edge_rule: str):
        """The part's edges by weight, each with the best cut by the rule's
        key (``(w, edge)`` for ``min_weight``) among the edges up to it."""
        weight, end, edge = self.weight, self.end, self.edge
        newrec = list(accumulate(map(self.new.__getitem__, part), initial=0))
        edges = list(accumulate(map(self.size.__getitem__, part), initial=0))
        positions = range(1, len(part))
        cuts = [(i, bisect_left(part, end[part[i]], i + 1)) for i in positions]
        weights = [weight[part[i]] for i in positions]
        if edge_rule == "min_weight":
            keys = [(weight[part[i]], edge[part[i]]) for i in positions]
        else:
            keys = self.balance_keys(part, records, cuts, newrec)
        ranked = sorted(range(len(cuts)), key=weights.__getitem__)
        best, top = [], None
        for n in ranked:
            if top is None or keys[n] < keys[top]:
                top, (i, j) = n, cuts[n]
                cut = i, j, newrec[j] - newrec[i], edges[j] - edges[i]
            best.append(cut)
        return [weights[n] for n in ranked], best
