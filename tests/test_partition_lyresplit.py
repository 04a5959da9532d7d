"""Tests for LyreSplit: Algorithm 1, Theorem 2's bounds, DAG reduction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.partition.bipartite import BipartiteGraph
from repro.partition.dag_reduction import (
    VersionTreeView,
    reduce_to_tree,
    tree_from_mappings,
)
from repro.partition.lyresplit import lyresplit


def chain_tree(n: int, records: int, shared: int) -> VersionTreeView:
    """v1 -> v2 -> ... -> vn, each with ``records`` records sharing
    ``shared`` with its parent."""
    parents = {1: None}
    counts = {1: records}
    weights = {}
    for vid in range(2, n + 1):
        parents[vid] = vid - 1
        counts[vid] = records
        weights[(vid - 1, vid)] = shared
    return tree_from_mappings(parents, counts, weights)


class TestAlgorithmBasics:
    def test_high_overlap_single_partition(self):
        """Lemma 1: when every edge is heavy, one partition suffices."""
        tree = chain_tree(10, records=100, shared=99)
        result = lyresplit(tree, delta=0.5)
        assert result.num_partitions == 1
        assert result.levels == 0

    def test_zero_overlap_splits_fully(self):
        tree = chain_tree(8, records=100, shared=0)
        result = lyresplit(tree, delta=1.0)
        assert result.num_partitions == 8

    def test_partitions_cover_all_versions(self):
        tree = chain_tree(20, records=50, shared=25)
        result = lyresplit(tree, delta=0.6)
        covered = result.partitioning.version_ids()
        assert covered == set(range(1, 21))

    def test_partitions_are_connected_subtrees(self, sci_cvd):
        bip = BipartiteGraph.from_cvd(sci_cvd)
        tree = reduce_to_tree(sci_cvd.graph, bip.num_records)
        result = lyresplit(tree, delta=0.5)
        for group in result.partitioning.groups:
            roots = [
                v
                for v in group
                if tree.parent[v] is None or tree.parent[v] not in group
            ]
            assert len(roots) == 1, "each partition must be one subtree"

    def test_invalid_delta_rejected(self):
        tree = chain_tree(3, 10, 5)
        with pytest.raises(PartitionError):
            lyresplit(tree, delta=0.0)
        with pytest.raises(PartitionError):
            lyresplit(tree, delta=1.5)

    def test_unknown_edge_rule_rejected(self):
        with pytest.raises(PartitionError):
            lyresplit(chain_tree(3, 10, 5), 0.5, edge_rule="random")

    def test_edge_rules_both_terminate_with_valid_output(self, sci_cvd):
        bip = BipartiteGraph.from_cvd(sci_cvd)
        tree = reduce_to_tree(sci_cvd.graph, bip.num_records)
        for rule in ("balance", "min_weight"):
            result = lyresplit(tree, 0.5, edge_rule=rule)
            assert result.partitioning.version_ids() == set(sci_cvd.membership)


class TestTheorem2Bounds:
    """Storage within (1+delta)^l * |R|; checkout within (1/delta) * |E|/|V|."""

    @pytest.mark.parametrize("delta", [0.2, 0.5, 0.8])
    def test_bounds_on_sci_workload(self, sci_cvd, delta):
        bip = BipartiteGraph.from_cvd(sci_cvd)
        tree = reduce_to_tree(sci_cvd.graph, bip.num_records)
        result = lyresplit(tree, delta)
        storage = bip.storage_cost(result.partitioning)
        checkout = bip.checkout_cost(result.partitioning)
        assert storage <= (1 + delta) ** result.levels * bip.num_records
        assert checkout <= (1 / delta) * bip.min_checkout_cost

    @pytest.mark.parametrize("delta", [0.3, 0.6])
    def test_bounds_on_cur_workload(self, cur_cvd, delta):
        """DAG case (Theorem 3): storage bound gains the R-hat factor."""
        bip = BipartiteGraph.from_cvd(cur_cvd)
        tree = reduce_to_tree(cur_cvd.graph, bip.num_records)
        result = lyresplit(tree, delta)
        storage = bip.storage_cost(result.partitioning)
        checkout = bip.checkout_cost(result.partitioning)
        r_hat = tree.duplicated_records
        bound = (
            (bip.num_records + r_hat)
            / bip.num_records
            * (1 + delta) ** result.levels
            * bip.num_records
        )
        assert storage <= bound
        assert checkout <= (1 / delta) * bip.min_checkout_cost

    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_checkout_bound_property_on_chains(self, n, shared, delta):
        records = shared + 10
        tree = chain_tree(n, records=records, shared=shared)
        result = lyresplit(tree, delta)
        # Tree-side cost accounting (exact for chains).
        total = 0
        for group in result.partitioning.groups:
            root = min(group)
            part_records = tree.num_records[root] + sum(
                tree.new_record_count(v) for v in group if v != root
            )
            total += len(group) * part_records
        cavg = total / n
        assert cavg <= (1 / delta) * tree.num_edges / n + 1e-9


class TestMonotonicity:
    def test_more_delta_more_partitions(self, sci_cvd):
        bip = BipartiteGraph.from_cvd(sci_cvd)
        tree = reduce_to_tree(sci_cvd.graph, bip.num_records)
        sizes = [
            lyresplit(tree, delta).num_partitions
            for delta in (0.1, 0.4, 0.7, 1.0)
        ]
        assert sizes == sorted(sizes)

    def test_storage_checkout_tradeoff(self, sci_cvd):
        bip = BipartiteGraph.from_cvd(sci_cvd)
        tree = reduce_to_tree(sci_cvd.graph, bip.num_records)
        low = lyresplit(tree, 0.2)
        high = lyresplit(tree, 0.9)
        assert bip.storage_cost(low.partitioning) <= bip.storage_cost(high.partitioning)
        assert bip.checkout_cost(low.partitioning) >= bip.checkout_cost(
            high.partitioning
        )


class TestDagReduction:
    def test_figure17_reduction(self):
        """Appendix C.1's example: v4 keeps parent v3 (w=4 beats w=3).

        Figure 4/17 weights: w(1,2)=2, w(1,3)=1, w(2,4)=3, w(3,4)=4 over
        |R(v)| = 3, 3, 4, 6 and a true |R| of 7 (records r1..r7).
        """
        from repro.core.version import Version
        from repro.core.version_graph import VersionGraph

        graph = VersionGraph()
        graph.add_version(Version(1, (), num_records=3), {})
        graph.add_version(Version(2, (1,), num_records=3), {1: 2})
        graph.add_version(Version(3, (1,), num_records=4), {1: 1})
        graph.add_version(Version(4, (2, 3), num_records=6), {2: 3, 3: 4})
        tree = reduce_to_tree(graph, true_record_count=7)
        assert tree.parent[4] == 3
        # The tree sees 3 + (3-2) + (4-1) + (6-4) = 9 records: r-hat2 and
        # r-hat4 are conceptual duplicates (the figure's R-hat = 2).
        assert tree.tree_record_count == 9
        assert tree.duplicated_records == 2

    def test_tree_graph_passthrough(self, sci_cvd):
        tree = reduce_to_tree(sci_cvd.graph)
        assert tree.duplicated_records == 0
        assert tree.num_versions == sci_cvd.version_count

    def test_cur_reduction_r_hat_positive(self, cur_cvd, cur_tiny):
        bip = BipartiteGraph.from_cvd(cur_cvd)
        tree = reduce_to_tree(cur_cvd.graph, bip.num_records)
        if cur_tiny.has_merges:
            assert tree.duplicated_records > 0
        assert tree.num_edges == bip.num_edges
