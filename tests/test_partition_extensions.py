"""Tests for the weighted (C.2) and schema-aware (C.3) LyreSplit variants."""

import pytest

from repro.errors import PartitionError
from repro.partition.bipartite import BipartiteGraph
from repro.partition.dag_reduction import reduce_to_tree, tree_from_mappings
from repro.partition.delta_search import search_delta
from repro.partition.lyresplit import lyresplit
from repro.partition.online import PartitionOptimizer
from repro.partition.schema_aware import (
    cell_scaled_tree,
    schema_aware_lyresplit,
    uniform_attr_counts,
)
from repro.partition.weighted import _build_replica_tree, weighted_lyresplit


def small_tree():
    """Chain 1 -> 2 -> 3, light edge between 2 and 3."""
    return tree_from_mappings(
        {1: None, 2: 1, 3: 2},
        {1: 100, 2: 100, 3: 100},
        {(1, 2): 95, (2, 3): 5},
    )


class TestWeighted:
    def test_replica_tree_shape(self):
        tree = small_tree()
        replica, owner = _build_replica_tree(tree, {1: 2, 2: 1, 3: 3})
        assert replica.num_versions == 6
        assert sorted(owner.values()) == [1, 1, 2, 3, 3, 3]
        # Chain edges between replicas of the same version carry |R(v)|.
        chain_edges = [
            w
            for (p, c), w in replica.weight.items()
            if owner[p] == owner[c]
        ]
        assert chain_edges == [100, 100, 100]

    def test_uniform_frequencies_match_plain(self, sci_cvd):
        bip = BipartiteGraph.from_cvd(sci_cvd)
        tree = reduce_to_tree(sci_cvd.graph, bip.num_records)
        plain = lyresplit(tree, 0.5).partitioning
        weighted = weighted_lyresplit(tree, {vid: 1 for vid in sci_cvd.membership}, 0.5)
        assert bip.checkout_cost(weighted) <= bip.checkout_cost(plain) * 1.2

    def test_all_versions_covered(self, sci_cvd):
        bip = BipartiteGraph.from_cvd(sci_cvd)
        tree = reduce_to_tree(sci_cvd.graph, bip.num_records)
        freqs = {vid: (vid % 3) + 1 for vid in sci_cvd.membership}
        partitioning = weighted_lyresplit(tree, freqs, 0.5)
        assert partitioning.version_ids() == set(sci_cvd.membership)

    def test_hot_version_weighted_cost_improves(self, sci_cvd):
        """Skewing frequency toward cheap-to-isolate versions should not
        hurt the weighted objective versus the unweighted split."""
        bip = BipartiteGraph.from_cvd(sci_cvd)
        tree = reduce_to_tree(sci_cvd.graph, bip.num_records)
        hot = max(sci_cvd.membership)  # newest version is hot
        freqs = {vid: 1 for vid in sci_cvd.membership}
        freqs[hot] = 50
        weighted = weighted_lyresplit(tree, freqs, 0.5)
        plain = lyresplit(tree, 0.5).partitioning
        assert bip.weighted_checkout_cost(
            weighted, freqs
        ) <= bip.weighted_checkout_cost(plain, freqs) * 1.25

    def test_invalid_frequency_rejected(self):
        with pytest.raises(PartitionError):
            weighted_lyresplit(small_tree(), {1: 0}, 0.5)


class TestSchemaAware:
    def test_static_schema_reduces_to_plain(self, sci_cvd):
        """With uniform attribute counts the cell-scaled run picks the same
        partitions as plain LyreSplit (the appendix's reduction)."""
        bip = BipartiteGraph.from_cvd(sci_cvd)
        tree = reduce_to_tree(sci_cvd.graph, bip.num_records)
        attr_counts, common = uniform_attr_counts(tree, 100)
        scaled = schema_aware_lyresplit(tree, attr_counts, common, 0.5)
        plain = lyresplit(tree, 0.5)
        assert set(scaled.partitioning.groups) == set(plain.partitioning.groups)

    def test_cell_scaling(self):
        tree = small_tree()
        attr_counts = {1: 4, 2: 5, 3: 5}
        common = {(1, 2): 4, (2, 3): 5}
        scaled = cell_scaled_tree(tree, attr_counts, common)
        assert scaled.num_records[1] == 400
        assert scaled.weight[(1, 2)] == 95 * 4

    def test_schema_difference_encourages_split(self):
        """An edge across which few attributes are shared becomes a cheaper
        cut even when record overlap is high."""
        tree = tree_from_mappings(
            {1: None, 2: 1},
            {1: 100, 2: 100},
            {(1, 2): 90},  # heavy record overlap
        )
        # Versions share only 1 of 10 attributes across the edge.
        split = schema_aware_lyresplit(
            tree, {1: 10, 2: 10}, {(1, 2): 1}, delta=0.2
        )
        plain = lyresplit(tree, 0.2)
        assert split.num_partitions >= plain.num_partitions

    def test_missing_counts_rejected(self):
        tree = small_tree()
        with pytest.raises(PartitionError):
            cell_scaled_tree(tree, {1: 1}, {})


class TestWeightedSearchAndIntegration:
    def test_search_delta_weighted_respects_budget(self, sci_cvd):
        bip = BipartiteGraph.from_cvd(sci_cvd)
        tree = reduce_to_tree(sci_cvd.graph, bip.num_records)
        freqs = {vid: (vid % 4) + 1 for vid in sci_cvd.membership}
        gamma = 2.0 * bip.num_records
        result = search_delta(tree, gamma, bip, frequencies=freqs)
        assert result.storage_cost <= gamma
        assert result.storage_cost == bip.storage_cost(result.partitioning)
        assert result.checkout_cost == bip.weighted_checkout_cost(
            result.partitioning, freqs
        )

    def test_weighted_search_builds_one_replica_tree(self, orpheus, monkeypatch):
        """One replica tree per search: its runs share one view's memo."""
        from repro.partition import weighted

        orpheus.init("f", [("x", "int")], rows=[(i,) for i in range(30)])
        tip = 1
        for step in range(6):
            orpheus.checkout("f", tip, table_name="w")
            orpheus.db.execute("DELETE FROM w WHERE x = %s", (step,))
            tip = orpheus.commit("w")
        built = []
        build = weighted._build_replica_tree

        def counting_build(tree, frequencies):
            built.append(tree)
            return build(tree, frequencies)

        monkeypatch.setattr(weighted, "_build_replica_tree", counting_build)
        optimizer = PartitionOptimizer(orpheus.cvd("f"))
        run = optimizer.plan_full(2.0, 1.5, {vid: vid % 3 + 1 for vid in range(1, 8)})
        assert len(built) == 1
        assert run.result.iterations == 20  # Appendix C.2's search: no early stop

    def test_orpheus_tracks_checkout_frequencies(self, orpheus):
        orpheus.init("f", [("x", "int")], rows=[(1,), (2,)])
        orpheus.checkout("f", 1, table_name="w1")
        orpheus.commit("w1")
        orpheus.checkout("f", 1, table_name="w2")
        orpheus.commit("w2")
        orpheus.checkout("f", 2, table_name="w3")
        orpheus.commit("w3")
        counts = orpheus.checkout_frequencies("f")
        assert counts == {1: 2, 2: 1}

    def test_weighted_optimize_end_to_end(self, orpheus):
        orpheus.init("f", [("x", "int")], rows=[(i,) for i in range(30)])
        tip = 1
        for step in range(6):
            orpheus.checkout("f", tip, table_name="w")
            orpheus.db.execute("DELETE FROM w WHERE x = %s", (step,))
            orpheus.db.execute("INSERT INTO w VALUES (NULL, %s)", (100 + step,))
            tip = orpheus.commit("w")
        # Make the latest version hot, then optimize weighted.
        for i in range(5):
            orpheus.checkout("f", tip, table_name=f"hot{i}")
            orpheus.commit(f"hot{i}")
        optimizer = orpheus.optimize("f", weighted=True)
        assert optimizer.frequencies is not None
        cvd = orpheus.cvd("f")
        for vid in cvd.graph.version_ids():
            rows = cvd.model.fetch_version(vid)
            assert {r[0] for r in rows} == set(cvd.member_rids(vid))
