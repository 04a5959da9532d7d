"""DAG -> version tree reduction (paper Appendix C.1).

LyreSplit runs on version *trees*.  When the version graph has merges, each
merge node keeps only its heaviest incoming edge (the parent sharing the
most records); records inherited through dropped edges are *conceptually*
re-created, inflating the tree's record count by ``|R-hat|`` duplicated
records.  The reduction also carries per-version record counts and edge
weights, which is all LyreSplit needs — it never touches individual rids.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping

from repro.core.version_graph import VersionGraph
from repro.errors import PartitionError
from repro.record import Record


class VersionTreeView(Record):
    """A rooted tree over vids with the statistics LyreSplit consumes.

    ``num_records[v]`` is |R(v)| and ``weight[(p, c)]`` is w(p, c).  In the
    reduced (post-DAG) view, a merge node's count/weights follow Appendix
    C.1: it inherits through its kept parent only, so the tree's total
    record count ``tree_record_count`` may exceed the true |R| by
    ``duplicated_records`` (|R-hat|).

    A view must not be modified once built: its pre-order numbering and
    its LyreSplit :attr:`layout` are computed on first use and kept (in
    the instance dict: the class has no ``__slots__``), and the layout
    memoizes each part's ranked cut choices, so every run of a delta
    search reuses the earlier runs' work.  A changed history is a new
    view: the memo lives as long as the search's view and never goes stale.
    """

    _fields = (
        "root",
        "parent",
        "children",
        "num_records",
        "weight",
        "duplicated_records",
    )

    def __init__(
        self,
        root: int,
        parent: dict[int, int | None],
        children: dict[int, list[int]],
        num_records: dict[int, int],
        weight: dict[tuple[int, int], int],
        duplicated_records: int = 0,
    ):
        self.root, self.parent, self.children = root, parent, children
        self.num_records, self.weight = num_records, weight
        self.duplicated_records = duplicated_records
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

    @cached_property
    def layout(self):
        """LyreSplit's per-position statistics and per-part cut memo."""
        from repro.partition.lyresplit import Layout  # it imports this module

        return Layout(self)


def reduce_to_tree(
    graph: VersionGraph, true_record_count: int | None = None
) -> VersionTreeView:
    """Build the version tree view from a (possibly merged) version graph.

    A merge node keeps its heaviest incoming edge (the paper's rule: most
    shared records; ties go to the lower parent vid).  ``true_record_count``
    (|R| from the bipartite graph) enables the |R-hat| computation; without
    it, duplicated_records is reported for tree graphs as 0 and unknown
    (-1) for DAGs.
    """
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
