"""LyreSplit on pre-order slices makes exactly the reference's decisions.

:func:`repro.partition.lyresplit.lyresplit` keeps each part as a sorted
list of pre-order positions; ``lyresplit_reference.reference_lyresplit``
is the set-based formulation it replaced.  Every decision downstream — the
per-commit maintenance sample, the partitions ``optimize`` installs, the
placements and WAL records that follow — is a function of these outputs,
so they must agree exactly: the same groups in the same order, the same
``levels`` and ``cuts``, and ``group_records`` equal to the record counts
recomputed from the reference's groups.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.version import Version
from repro.core.version_graph import VersionGraph
from repro.partition import delta_search, weighted
from repro.partition.bipartite import BipartiteGraph
from repro.partition.dag_reduction import reduce_to_tree, tree_from_mappings
from repro.partition.delta_search import search_delta
from repro.partition.lyresplit import EDGE_RULES, lyresplit
from repro.partition.schema_aware import cell_scaled_tree, schema_aware_lyresplit
from repro.partition.weighted import weighted_lyresplit

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
                runs.append(weighted_lyresplit(tree, frequencies, delta, bipartite))
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
