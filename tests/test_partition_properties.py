"""Property-based tests of partitioning invariants on random version trees."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.bipartite import BipartiteGraph
from repro.partition.dag_reduction import tree_from_mappings
from repro.partition.delta_search import search_delta
from repro.partition.lyresplit import lyresplit
from repro.partition.migration import plan_intelligent, plan_naive


def random_history(num_versions: int, seed: int):
    """A random tree history with consistent membership sets.

    Returns (tree view, bipartite graph) built from the same membership,
    so tree statistics are exact.
    """
    rng = random.Random(seed)
    next_rid = [0]

    def fresh(count):
        rids = list(range(next_rid[0], next_rid[0] + count))
        next_rid[0] += count
        return rids

    members = {1: frozenset(fresh(rng.randint(3, 12)))}
    parents: dict[int, int | None] = {1: None}
    for vid in range(2, num_versions + 1):
        parent = rng.randint(1, vid - 1)
        base = list(members[parent])
        rng.shuffle(base)
        kept = base[: rng.randint(0, len(base))]
        added = fresh(rng.randint(1, 6))
        members[vid] = frozenset(kept) | frozenset(added)
        parents[vid] = parent
    num_records = {vid: len(m) for vid, m in members.items()}
    weights = {
        (parent, vid): len(members[vid] & members[parent])
        for vid, parent in parents.items()
        if parent is not None
    }
    tree = tree_from_mappings(parents, num_records, weights)
    return tree, BipartiteGraph(members)


tree_params = st.tuples(st.integers(min_value=2, max_value=30), st.integers(0, 10**6))


class TestLyreSplitProperties:
    @given(tree_params, st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_output_is_valid_partitioning(self, params, delta):
        tree, bip = random_history(*params)
        result = lyresplit(tree, delta)
        # Exactly covers the version set, no overlaps (Partitioning ctor
        # rejects overlaps), and costs are computable.
        assert result.partitioning.version_ids() == set(tree.parent)
        assert bip.storage_cost(result.partitioning) >= bip.num_records
        assert (bip.checkout_cost(result.partitioning) >= bip.min_checkout_cost - 1e-9)

    @given(tree_params, st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_theorem2_checkout_bound(self, params, delta):
        tree, bip = random_history(*params)
        result = lyresplit(tree, delta)
        assert (
            bip.checkout_cost(result.partitioning)
            <= (1 / delta) * bip.min_checkout_cost + 1e-9
        )

    @given(tree_params, st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_theorem2_storage_bound(self, params, delta):
        tree, bip = random_history(*params)
        result = lyresplit(tree, delta)
        bound = (1 + delta) ** result.levels * bip.num_records
        assert bip.storage_cost(result.partitioning) <= bound + 1e-9

    @given(tree_params)
    @settings(max_examples=30, deadline=None)
    def test_edge_rules_agree_on_validity(self, params):
        tree, bip = random_history(*params)
        for rule in ("balance", "min_weight"):
            result = lyresplit(tree, 0.5, edge_rule=rule)
            assert result.partitioning.version_ids() == set(tree.parent)


class TestDeltaSearchProperties:
    @given(tree_params, st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_budget_always_respected(self, params, multiple):
        tree, bip = random_history(*params)
        gamma = multiple * bip.num_records
        result = search_delta(tree, gamma, bip)
        assert result.storage_cost <= gamma

    @given(tree_params)
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_budget(self, params):
        tree, bip = random_history(*params)
        tight = search_delta(tree, 1.2 * bip.num_records, bip)
        loose = search_delta(tree, 3.0 * bip.num_records, bip)
        assert loose.checkout_cost <= tight.checkout_cost + 1e-9


class TestMigrationProperties:
    @given(tree_params, st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_intelligent_never_exceeds_naive(self, params, split_seed):
        tree, bip = random_history(*params)
        rng = random.Random(split_seed)
        vids = sorted(tree.parent)
        old_assignment = {vid: rng.randint(0, 2) for vid in vids}
        old_groups: dict[int, set[int]] = {}
        for vid, g in old_assignment.items():
            old_groups.setdefault(g, set()).add(vid)
        members = {vid: bip.records_of(vid) for vid in vids}
        old_rid_sets = [
            set().union(*(members[v] for v in group))
            for group in old_groups.values()
        ]
        new_partitioning = lyresplit(tree, 0.5).partitioning
        smart = plan_intelligent(old_rid_sets, new_partitioning, members)
        naive = plan_naive(new_partitioning, members)
        assert smart.modifications <= naive.modifications

    @given(tree_params)
    @settings(max_examples=30, deadline=None)
    def test_identity_migration_is_free(self, params):
        tree, bip = random_history(*params)
        partitioning = lyresplit(tree, 0.5).partitioning
        members = {vid: bip.records_of(vid) for vid in tree.parent}
        old_rid_sets = [
            set(bip.partition_records(group))
            for group in partitioning.groups
        ]
        plan = plan_intelligent(old_rid_sets, partitioning, members)
        assert plan.modifications == 0
        assert plan.num_scratch == 0


class TestWeightedProperties:
    @given(tree_params, st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_weighted_covers_all_versions(self, params, freq_seed):
        from repro.partition.weighted import weighted_lyresplit

        tree, _ = random_history(*params)
        rng = random.Random(freq_seed)
        freqs = {vid: rng.randint(1, 5) for vid in tree.parent}
        partitioning = weighted_lyresplit(tree, freqs, 0.5)
        assert partitioning.version_ids() == set(tree.parent)
