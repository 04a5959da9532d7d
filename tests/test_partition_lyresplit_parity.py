"""LyreSplit on pre-order slices makes exactly the reference's decisions.

:func:`repro.partition.lyresplit.lyresplit` keeps each part as a sorted
list of pre-order positions; ``lyresplit_reference.reference_lyresplit``
is the set-based formulation it replaced.  Every decision downstream — the
per-commit maintenance sample, the partitions ``optimize`` installs, the
placements and WAL records that follow — is a function of these outputs,
so they must agree exactly: the same groups in the same order, the same
``levels`` and ``cuts``, and ``group_records`` equal to the record counts
recomputed from the reference's groups.

The delta search is held to its own oracle: ``delta_search_reference``
keeps the plain search, the weighted search and the cost methods the one
search replaced, and every field of a search's result must equal the
oracle's, floats bit for bit.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.version import Version
from repro.core.version_graph import VersionGraph
from repro.errors import InfeasibleBudgetError, PartitionError
from repro.partition import delta_search, weighted
from repro.partition.bipartite import BipartiteGraph
from repro.partition.dag_reduction import reduce_to_tree, tree_from_mappings
from repro.partition.delta_search import search_delta
from repro.partition.lyresplit import EDGE_RULES, lyresplit
from repro.partition.schema_aware import cell_scaled_tree, schema_aware_lyresplit
from repro.partition.weighted import weighted_lyresplit
from repro.storage.ridset import RidSet

import delta_search_reference as oracle
from lyresplit_reference import reference_lyresplit

SHAPES = ("random", "dag", "chain", "star", "single")


def random_membership(shape: str, num_versions: int, seed: int, zero_share: float):
    """Version -> record-id set for a history of the given shape.

    ``dag`` histories merge two earlier versions now and then; with
    probability ``zero_share`` a version keeps nothing of its parents, which
    puts zero-weight edges into the tree.
    """
    rng = random.Random(seed)
    next_rid = [0]

    def fresh(count):
        rids = set(range(next_rid[0], next_rid[0] + count))
        next_rid[0] += count
        return rids

    num_versions = 1 if shape == "single" else num_versions
    members = {1: frozenset(fresh(rng.randint(1, 15)))}
    parents: dict[int, tuple[int, ...]] = {1: ()}
    for vid in range(2, num_versions + 1):
        if shape == "chain":
            chosen = (vid - 1,)
        elif shape == "star":
            chosen = (1,)
        elif shape == "dag" and vid > 2 and rng.random() < 0.3:
            chosen = tuple(rng.sample(range(1, vid), 2))
        else:
            chosen = (rng.randint(1, vid - 1),)
        kept: set[int] = set()
        if rng.random() >= zero_share:
            for parent in chosen:
                base = sorted(members[parent])
                kept |= set(rng.sample(base, rng.randint(0, len(base))))
        members[vid] = frozenset(kept | fresh(rng.randint(0 if kept else 1, 8)))
        parents[vid] = chosen
    return members, parents


def history(shape: str, num_versions: int, seed: int, zero_share: float):
    """(tree view, bipartite graph); DAGs go through ``reduce_to_tree``."""
    members, parents = random_membership(shape, num_versions, seed, zero_share)
    bipartite = BipartiteGraph(members)
    if shape == "dag":
        graph = VersionGraph()
        for vid in sorted(members):
            graph.add_version(
                Version(vid, parents[vid], num_records=len(members[vid])),
                {p: len(members[vid] & members[p]) for p in parents[vid]},
            )
        return reduce_to_tree(graph, bipartite.num_records), bipartite
    tree = tree_from_mappings(
        {vid: (ps[0] if ps else None) for vid, ps in parents.items()},
        {vid: len(rids) for vid, rids in members.items()},
        {
            (ps[0], vid): len(members[vid] & members[ps[0]])
            for vid, ps in parents.items()
            if ps
        },
    )
    return tree, bipartite


histories = st.tuples(
    st.sampled_from(SHAPES),
    st.integers(min_value=1, max_value=60),
    st.integers(0, 10**6),
    st.sampled_from([0.0, 0.2, 1.0]),
)
deltas = st.one_of(
    st.sampled_from([1e-9, 0.5, 1.0]),
    st.floats(min_value=1e-6, max_value=1.0),
)


def outcome(result):
    return (
        result.partitioning.groups,
        result.levels,
        result.cuts,
        result.group_records,
    )


class TestLyreSplitParity:
    @given(histories, deltas, st.sampled_from(EDGE_RULES))
    @settings(max_examples=300, deadline=None)
    def test_same_decisions_as_reference(self, params, delta, edge_rule):
        tree, _ = history(*params)
        assert outcome(lyresplit(tree, delta, edge_rule)) == outcome(
            reference_lyresplit(tree, delta, edge_rule)
        )

    @given(histories, st.sampled_from(EDGE_RULES))
    @settings(max_examples=40, deadline=None)
    def test_search_delta_identical_with_reference_split(self, params, edge_rule):
        tree, bipartite = history(*params)
        gamma = 2 * tree.tree_record_count
        runs = []
        for split in (lyresplit, reference_lyresplit):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(delta_search, "lyresplit", split)
                runs.append(
                    (
                        search_delta(tree, gamma, edge_rule=edge_rule),
                        search_delta(tree, gamma, bipartite, edge_rule=edge_rule),
                    )
                )
        assert runs[0] == runs[1]

    @given(histories, st.integers(0, 10**6), st.sampled_from([0.3, 0.5, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_weighted_identical_with_reference_split(self, params, seed, delta):
        tree, bipartite = history(*params)
        rng = random.Random(seed)
        frequencies = {vid: rng.randint(1, 4) for vid in tree.parent}
        runs = []
        for split in (lyresplit, reference_lyresplit):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(weighted, "lyresplit", split)
                runs.append(weighted_lyresplit(tree, frequencies, delta))
        assert runs[0] == runs[1]

    @given(histories, st.integers(0, 10**6), st.sampled_from(EDGE_RULES))
    @settings(max_examples=30, deadline=None)
    def test_schema_aware_same_as_reference(self, params, seed, edge_rule):
        tree, _ = history(*params)
        rng = random.Random(seed)
        attrs = {vid: rng.randint(1, 5) for vid in tree.parent}
        common = {(p, c): min(attrs[p], attrs[c]) for (p, c) in tree.weight}
        scaled = cell_scaled_tree(tree, attrs, common)
        assert outcome(
            schema_aware_lyresplit(tree, attrs, common, 0.5, edge_rule)
        ) == outcome(reference_lyresplit(scaled, 0.5, edge_rule))


#: One step against a shared view: ("split", rule, delta) is one direct
#: LyreSplit run; ("search", rule, max_iterations, bipartite, gamma
#: multiple) is one delta search.
view_steps = st.lists(
    st.one_of(
        st.tuples(st.just("split"), st.sampled_from(EDGE_RULES), deltas),
        st.tuples(
            st.just("search"),
            st.sampled_from(EDGE_RULES),
            st.sampled_from([12, 40]),
            st.booleans(),
            st.sampled_from([1.0, 1.2, 2.0, 4.0]),
        ),
    ),
    min_size=2,
    max_size=10,
)


def reference_search(*args, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delta_search, "lyresplit", reference_lyresplit)
        return search_delta(*args, **kwargs)


class TestSharedViewMemo:
    """Every run on one view reuses the view's layout and its per-part cut
    rankings; interleaved rules, deltas and searches must still answer
    exactly what the reference answers on each call alone."""

    @given(histories, view_steps)
    @settings(max_examples=60, deadline=None)
    def test_interleaved_runs_match_reference(self, params, steps):
        tree, bipartite = history(*params)
        for step in steps:
            if step[0] == "split":
                _, rule, delta = step
                assert outcome(lyresplit(tree, delta, rule)) == outcome(
                    reference_lyresplit(tree, delta, rule)
                ), step
                continue
            _, rule, iterations, use_bipartite, multiple = step
            graph = bipartite if use_bipartite else None
            gamma = multiple * tree.tree_record_count
            kwargs = dict(edge_rule=rule, max_iterations=iterations)
            assert search_delta(tree, gamma, graph, **kwargs) == reference_search(
                tree, gamma, graph, **kwargs
            ), step

    @pytest.mark.parametrize("delta", [1e-9, 0.3, 1.0])
    def test_extreme_deltas_after_a_search(self, delta):
        tree, bipartite = history("random", 60, 7, 0.2)
        for rule in EDGE_RULES:
            search_delta(tree, 2 * tree.tree_record_count, bipartite, edge_rule=rule)
        for rule in EDGE_RULES:
            assert outcome(lyresplit(tree, delta, rule)) == outcome(
                reference_lyresplit(tree, delta, rule)
            )

    def test_search_ranks_each_part_once(self, monkeypatch):
        """The first run scans; later runs rank each (rule, part) once."""
        tree, _ = history("random", 108, 3, 0.2)
        layout = tree.layout
        assert tree.layout is layout
        ranked = []
        rank = type(layout).rank

        def counting_rank(self, part, records, edge_rule):
            ranked.append((edge_rule, part))
            return rank(self, part, records, edge_rule)

        monkeypatch.setattr(type(layout), "rank", counting_rank)
        for rule in EDGE_RULES:
            search_delta(tree, 2 * tree.tree_record_count, edge_rule=rule)
            search_delta(tree, 1.5 * tree.tree_record_count, edge_rule=rule)
        assert ranked, "the searches are meant to revisit parts"
        assert len(ranked) == len(set(ranked))
        assert {rule for rule, _ in ranked} == set(EDGE_RULES)


def test_online_trace_identical_with_reference_split(monkeypatch):
    """The Fig. 14/15 stream: every maintenance sample and migration."""
    from benchmarks.bench_fig14_15_online import stream

    def trace():
        optimizer = stream("SCI_10K", 1.5, 1.05, limit_versions=120)
        migrations = [
            (
                m.at_version_count,
                m.plan_modifications,
                m.records_inserted,
                m.records_deleted,
                m.strategy,
            )
            for m in optimizer.trace.migrations
        ]
        return optimizer.trace.samples, migrations

    live = trace()
    monkeypatch.setattr(delta_search, "lyresplit", reference_lyresplit)
    assert live == trace()
    assert live[1], "the stream is meant to exercise migrations"


#: How a search scores its candidates: by the tree's own record counts, by
#: the bipartite graph's, or by Cw under frequencies 1-4 or one hot version.
SEARCH_KINDS = ("tree", "bipartite", "weighted", "hot")


def frequencies_for(kind: str, tree, seed: int):
    rng = random.Random(seed)
    if kind == "weighted":
        return {vid: rng.randint(1, 4) for vid in tree.parent}
    return {rng.choice(sorted(tree.parent)): rng.randint(5, 12)}


def bits(delta, partitioning, storage, checkout, *telemetry):
    """A result's fields with floats as their exact bits."""
    return (delta.hex(), partitioning.groups, storage, checkout.hex(), *telemetry)


def answer(search, *args, **kwargs):
    """The search's result as :func:`bits`, or its refusal's message."""
    try:
        result = search(*args, **kwargs)
    except InfeasibleBudgetError as refusal:
        return "refused", str(refusal)
    return bits(*(getattr(result, field) for field in result._fields))


class TestDeltaSearchOracle:
    """``search_delta`` returns what the searches it replaced returned."""

    @given(
        histories,
        st.sampled_from(EDGE_RULES),
        st.sampled_from([12, 20, 40]),
        st.sampled_from(SEARCH_KINDS),
        st.one_of(
            st.floats(min_value=1.0, max_value=4.0),
            st.sampled_from([0.5, 0.999]),
        ),
        st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_result_as_oracle(
        self, params, rule, iterations, kind, multiple, seed
    ):
        tree, bipartite = history(*params)
        reference = oracle.ReferenceBipartiteGraph(
            {vid: bipartite.records_of(vid) for vid in bipartite.version_ids()}
        )
        graphs = (None, None) if kind == "tree" else (bipartite, reference)
        records = tree.tree_record_count if kind == "tree" else bipartite.num_records
        gamma = multiple * records
        expected = answer(
            oracle.search_delta, tree, gamma, graphs[1], rule, max_iterations=iterations
        )
        if kind in ("tree", "bipartite"):
            got = answer(
                search_delta, tree, gamma, graphs[0], rule, max_iterations=iterations
            )
            assert got == expected
            assert (got[0] == "refused") == (multiple < 1.0)
            return
        frequencies = frequencies_for(kind, tree, seed)
        got = answer(
            search_delta,
            tree,
            gamma,
            bipartite,
            rule,
            tolerance=math.inf,
            max_iterations=iterations,
            frequencies=frequencies,
        )
        if multiple < 1.0:
            # The weighted search refused with a bare PartitionError; the one
            # search refuses as the plain search does, with its message.
            assert got == expected
            with pytest.raises(PartitionError):
                oracle.search_delta_weighted(tree, frequencies, gamma, reference)
            return
        old = oracle.search_delta_weighted(
            tree, frequencies, gamma, reference, rule, max_iterations=iterations
        )
        assert got[:4] == bits(*old)
        assert got[4] == iterations  # no early stop

    def test_bipartite_run_unions_each_group_once(self, monkeypatch):
        tree, bipartite = history("dag", 60, 11, 0.2)
        groups, unions = [], []
        union_all = RidSet.union_all

        def counting_split(*args):
            result = lyresplit(*args)
            groups.append(len(result.partitioning))
            return result

        def counting_union(sets):
            unions.append(1)
            return union_all(sets)

        monkeypatch.setattr(delta_search, "lyresplit", counting_split)
        monkeypatch.setattr(RidSet, "union_all", staticmethod(counting_union))
        result = search_delta(tree, 2 * bipartite.num_records, bipartite)
        assert result.num_partitions > 1
        assert len(groups) == result.iterations
        assert len(unions) == sum(groups)
