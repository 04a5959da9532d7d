"""Tests for the bipartite cost model (Section 4.1)."""

import pytest

from repro.errors import PartitionError
from repro.partition.bipartite import BipartiteGraph, Partitioning

# The paper's Figure 6 example: 4 versions over 7 records.
FIGURE6 = {
    1: frozenset({1, 2, 3}),
    2: frozenset({2, 3, 4}),
    3: frozenset({3, 5, 6, 7}),
    4: frozenset({2, 3, 4, 5, 6, 7}),
}


@pytest.fixture
def graph():
    return BipartiteGraph(FIGURE6)


class TestStructure:
    def test_counts(self, graph):
        assert graph.num_versions == 4
        assert graph.num_records == 7
        assert graph.num_edges == 3 + 3 + 4 + 6

    def test_records_of(self, graph):
        assert graph.records_of(1) == frozenset({1, 2, 3})
        with pytest.raises(PartitionError):
            graph.records_of(99)

    def test_empty_graph_rejected(self):
        with pytest.raises(PartitionError):
            BipartiteGraph({})


class TestPartitioning:
    def test_overlapping_groups_rejected(self):
        with pytest.raises(PartitionError):
            Partitioning.from_groups([{1, 2}, {2, 3}])

    def test_assignment(self):
        partitioning = Partitioning.from_groups([{1, 2}, {3, 4}])
        assert partitioning.assignment() == {1: 0, 2: 0, 3: 1, 4: 1}

    def test_empty_groups_dropped(self):
        partitioning = Partitioning.from_groups([{1}, set(), {2}])
        assert len(partitioning) == 2


class TestCosts:
    def test_figure6_partitioning(self, graph):
        """P1 = {v1, v2}, P2 = {v3, v4}: records r2 r3 r4 are duplicated."""
        partitioning = Partitioning.from_groups([{1, 2}, {3, 4}])
        assert graph.partition_records({1, 2}) == frozenset({1, 2, 3, 4})
        assert graph.partition_records({3, 4}) == frozenset({2, 3, 4, 5, 6, 7})
        assert graph.storage_cost(partitioning) == 4 + 6
        assert graph.checkout_cost(partitioning) == (2 * 4 + 2 * 6) / 4

    def test_observation1_per_version_minimizes_checkout(self, graph):
        per_version = Partitioning.per_version(graph.version_ids())
        assert graph.checkout_cost(per_version) == graph.min_checkout_cost

    def test_observation2_single_minimizes_storage(self, graph):
        single = Partitioning.single(graph.version_ids())
        assert graph.storage_cost(single) == graph.min_storage_cost
        assert graph.checkout_cost(single) == graph.num_records

    def test_checkout_cost_of_version(self, graph):
        """``C_i`` is ``|R_k|`` of the group holding vid, in group order."""
        partitioning = Partitioning.from_groups([{1, 2}, {3, 4}])
        sizes = graph.group_sizes(partitioning)
        assert sizes == [4, 6]
        assignment = partitioning.assignment()
        assert sizes[assignment[1]] == 4
        assert sizes[assignment[4]] == 6

    def test_incomplete_partitioning_rejected(self, graph):
        with pytest.raises(PartitionError):
            graph.storage_cost(Partitioning.from_groups([{1, 2}]))

    def test_unknown_versions_rejected(self, graph):
        with pytest.raises(PartitionError):
            graph.storage_cost(Partitioning.from_groups([{1, 2, 3, 4, 99}]))


class TestWeightedCost:
    def test_uniform_frequencies_match_cavg(self, graph):
        partitioning = Partitioning.from_groups([{1, 2}, {3, 4}])
        weighted = graph.weighted_checkout_cost(
            partitioning, {vid: 1.0 for vid in FIGURE6}
        )
        assert weighted == graph.checkout_cost(partitioning)

    def test_skewed_frequencies_shift_cost(self, graph):
        partitioning = Partitioning.from_groups([{1, 2}, {3, 4}])
        heavy_small = graph.weighted_checkout_cost(partitioning, {1: 100})
        heavy_large = graph.weighted_checkout_cost(partitioning, {4: 100})
        assert heavy_small < graph.checkout_cost(partitioning) < heavy_large
