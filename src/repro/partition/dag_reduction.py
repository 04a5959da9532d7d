"""DAG -> version tree reduction (paper Appendix C.1).

LyreSplit runs on version *trees*.  When the version graph has merges, each
merge node keeps only its heaviest incoming edge (the parent sharing the
most records); records inherited through dropped edges are *conceptually*
re-created, inflating the tree's record count by ``|R-hat|`` duplicated
records.  The reduction also carries per-version record counts and edge
weights, which is all LyreSplit needs — it never touches individual rids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from repro.core.version_graph import VersionGraph
from repro.errors import PartitionError


@dataclass
class VersionTreeView:
    """A rooted tree over vids with the statistics LyreSplit consumes.

    ``num_records[v]`` is |R(v)| and ``weight[(p, c)]`` is w(p, c).  In the
    reduced (post-DAG) view, a merge node's count/weights follow Appendix
    C.1: it inherits through its kept parent only, so the tree's total
    record count ``tree_record_count`` may exceed the true |R| by
    ``duplicated_records`` (|R-hat|).

    A view is not modified once built, so its pre-order numbering is
    computed once and shared by every LyreSplit run of a delta search.
    """

    root: int
    parent: dict[int, int | None]
    children: dict[int, list[int]]
    num_records: dict[int, int]
    weight: dict[tuple[int, int], int]
    duplicated_records: int = 0

    def __post_init__(self) -> None:
        for vid, parent in self.parent.items():
            if parent is not None and (parent, vid) not in self.weight:
                raise PartitionError(f"missing weight for tree edge {parent} -> {vid}")

    @property
    def num_versions(self) -> int:
        return len(self.parent)

    @property
    def num_edges(self) -> int:
        """|E| of the bipartite graph: sum of per-version record counts."""
        return sum(self.num_records.values())

    @property
    def tree_record_count(self) -> int:
        """|R| + |R-hat|: distinct records as the tree sees them."""
        total = self.num_records[self.root]
        for vid, parent in self.parent.items():
            if parent is not None:
                total += self.num_records[vid] - self.weight[(parent, vid)]
        return total

    def new_record_count(self, vid: int) -> int:
        """Records ``vid`` introduces beyond its (kept) parent."""
        parent = self.parent[vid]
        if parent is None:
            return self.num_records[vid]
        return self.num_records[vid] - self.weight[(parent, vid)]

    @cached_property
    def preorder(self) -> list[int]:
        """Every vid, parents before children, each subtree contiguous."""
        order = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self.children[node]))
        return order

    @cached_property
    def subtree_end(self) -> list[int]:
        """Per :attr:`preorder` position, one past its subtree's last."""
        order = self.preorder
        position = {node: p for p, node in enumerate(order)}
        end = list(range(1, len(order) + 1))
        for p in range(len(order) - 1, 0, -1):
            q = position[self.parent[order[p]]]
            end[q] = max(end[q], end[p])
        return end


def reduce_to_tree(
    graph: VersionGraph,
    true_record_count: int | None = None,
    keep_rule: str = "heaviest",
) -> VersionTreeView:
    """Build the version tree view from a (possibly merged) version graph.

    ``keep_rule`` selects which incoming edge a merge node keeps:
    ``"heaviest"`` (the paper's rule — max shared records) or ``"first"``
    (first-listed parent, the ablation baseline).  ``true_record_count``
    (|R| from the bipartite graph) enables the |R-hat| computation; without
    it, duplicated_records is reported for tree graphs as 0 and unknown
    (-1) for DAGs.
    """
    if keep_rule not in ("heaviest", "first"):
        raise PartitionError(f"unknown keep_rule {keep_rule!r}")
    roots = graph.roots()
    if len(roots) != 1:
        raise PartitionError(
            f"version graph must have exactly one root, found {len(roots)}"
        )
    root = roots[0]
    parent: dict[int, int | None] = {}
    children: dict[int, list[int]] = {vid: [] for vid in graph.version_ids()}
    num_records: dict[int, int] = {}
    weight: dict[tuple[int, int], int] = {}
    has_merge = False
    for version in graph.versions():
        vid = version.vid
        num_records[vid] = version.num_records
        if version.is_root:
            parent[vid] = None
            continue
        if len(version.parents) == 1:
            kept = version.parents[0]
        else:
            has_merge = True
            if keep_rule == "first":
                kept = version.parents[0]
            else:
                kept = max(
                    version.parents,
                    key=lambda p: (graph.edge_weight(p, vid), -p),
                )
        parent[vid] = kept
        children[kept].append(vid)
        weight[(kept, vid)] = graph.edge_weight(kept, vid)
    view = VersionTreeView(
        root=root,
        parent=parent,
        children=children,
        num_records=num_records,
        weight=weight,
    )
    if not has_merge:
        view.duplicated_records = 0
    elif true_record_count is not None:
        view.duplicated_records = view.tree_record_count - true_record_count
    else:
        view.duplicated_records = -1
    return view


def tree_from_mappings(
    parents: Mapping[int, int | None],
    num_records: Mapping[int, int],
    weights: Mapping[tuple[int, int], int],
) -> VersionTreeView:
    """Build a tree view directly (used by tests and the weighted variant)."""
    roots = [vid for vid, parent in parents.items() if parent is None]
    if len(roots) != 1:
        raise PartitionError("tree must have exactly one root")
    children: dict[int, list[int]] = {vid: [] for vid in parents}
    for vid, parent in parents.items():
        if parent is not None:
            children[parent].append(vid)
    return VersionTreeView(
        root=roots[0],
        parent=dict(parents),
        children=children,
        num_records=dict(num_records),
        weight=dict(weights),
    )
