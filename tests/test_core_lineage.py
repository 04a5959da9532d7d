"""Property tests for the lineage interval index (repro.core.lineage).

A decision parity suite: the O(V+E) graph walks in ``lineage_reference``
are the oracle, and hypothesis proves probe ≡ walk for ``ancestors``/
``descendants``/``on_branch``/``is_ancestor``/``path_between`` over
generated DAGs with merges — both when the index is built after the fact
and when it is maintained incrementally while the DAG grows (including
the gap-exhaustion path where labels go stale and rebuild lazily).  The
persist suite checks the label state survives snapshots and that a
manifest without labels opens and rebuilds lazily; the SQL suite checks
the ``VERSIONS ANCESTOR OF`` surface behaves identically under both
parse/exec modes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lineage_reference import (
    ancestors_walk,
    descendants_walk,
    is_ancestor_walk,
    on_branch_walk,
    path_between_walk,
)
from select_reference import database

from repro.core.lineage import LineageIndex
from repro.core.orpheus import OrpheusDB
from repro.core.version import Version
from repro.core.version_graph import VersionGraph
from repro.errors import SQLSyntaxError, VersionNotFoundError
from repro.obs import metrics
from repro.persist.snapshot import FORMAT_VERSION
from repro.persist.store import Store
from repro.storage.ridset import RidSet
from repro.workloads.protein import PROTEIN_COLUMNS, PROTEIN_PRIMARY_KEY

PAPER_ROWS = [
    ("ENSP273047", "ENSP261890", 0, 53, 0),
    ("ENSP273047", "ENSP235932", 0, 87, 0),
    ("ENSP300413", "ENSP274242", 426, 0, 164),
]


def make_version(vid: int, parents: tuple[int, ...]) -> Version:
    return Version(
        vid=vid,
        parents=parents,
        num_records=0,
        checkout_time=None,
        commit_time=None,
        message="",
        attribute_ids=(),
    )


def add(graph: VersionGraph, vid: int, parents) -> None:
    parents = tuple(parents)
    graph.add_version(make_version(vid, parents), {p: 1 for p in parents})


def lineage_counters() -> dict:
    return dict(metrics.registry().snapshot().get("lineage", {}))


#: Parent lists per vid: vid 1 is the root; each later vid draws 1-3
#: distinct earlier vids, first one becoming its spanning-tree parent.
@st.composite
def dag_histories(draw):
    size = draw(st.integers(min_value=1, max_value=24))
    history: list[tuple[int, list[int]]] = [(1, [])]
    for vid in range(2, size + 2):
        parents = draw(
            st.lists(
                st.sampled_from(range(1, vid)),
                min_size=1,
                max_size=min(3, vid - 1),
                unique=True,
            )
        )
        history.append((vid, parents))
    return history


def build(history) -> VersionGraph:
    graph = VersionGraph()
    for vid, parents in history:
        add(graph, vid, parents)
    return graph


def assert_probe_equals_walk(graph: VersionGraph) -> None:
    vids = graph.version_ids()
    for vid in vids:
        assert set(graph.ancestors(vid)) == ancestors_walk(graph, vid)
        assert set(graph.descendants(vid)) == descendants_walk(graph, vid)
        assert set(graph.on_branch(vid)) == on_branch_walk(graph, vid)
    for a in vids:
        for b in vids:
            assert graph.is_ancestor(a, b) == is_ancestor_walk(graph, a, b)
            assert set(graph.path_between(a, b)) == path_between_walk(graph, a, b)


class TestProbeWalkEquivalence:
    @given(dag_histories())
    @settings(max_examples=60, deadline=None)
    def test_index_built_after_the_fact(self, history):
        graph = build(history)
        assert_probe_equals_walk(graph)

    @given(dag_histories())
    @settings(max_examples=40, deadline=None)
    def test_index_maintained_incrementally(self, history):
        graph = VersionGraph()
        for vid, parents in history:
            add(graph, vid, parents)
            if vid == 1:
                graph.lineage  # build at size 1; everything after is incremental
            # Interval probes mid-growth keep labels live (and force the
            # in-place gap inserts, not just one final rebuild).
            assert set(graph.descendants(1)) == descendants_walk(graph, 1)
        assert_probe_equals_walk(graph)

    @given(dag_histories())
    @settings(max_examples=30, deadline=None)
    def test_gap_exhaustion_rebuilds_lazily(self, history):
        graph = VersionGraph()
        # Near-zero slack: in-place inserts exhaust almost immediately, so
        # this exercises stale-marking and lazy rebuilds constantly.
        graph._lineage = LineageIndex(graph, spacing_bits=3)
        for vid, parents in history:
            add(graph, vid, parents)
            assert set(graph.descendants(vid)) == descendants_walk(graph, vid)
        assert_probe_equals_walk(graph)

    def test_deep_chain_survives_recursion_limits(self):
        graph = VersionGraph()
        add(graph, 1, [])
        for vid in range(2, 3001):
            add(graph, vid, [vid - 1])
        assert len(graph.descendants(1)) == 2999
        assert len(graph.ancestors(3000)) == 2999
        assert graph.depth(3000) == 3000

    def test_probes_return_ridsets(self):
        graph = build([(1, []), (2, [1]), (3, [1]), (4, [2, 3])])
        ancestors = graph.ancestors(4)
        assert isinstance(ancestors, RidSet)
        # Vid sets intersect directly with other bitmaps.
        assert list(ancestors & RidSet([2, 99])) == [2]
        assert sorted(graph.on_branch(4)) == [1, 2, 3, 4]
        assert graph.version_ids() and isinstance(graph.descendants(1), RidSet)

    def test_unknown_vid_raises(self):
        graph = build([(1, [])])
        with pytest.raises(VersionNotFoundError):
            graph.ancestors(99)
        with pytest.raises(VersionNotFoundError):
            graph.is_ancestor(1, 99)


class TestCounters:
    def test_probe_and_visit_counters_charge(self):
        graph = build([(1, []), (2, [1]), (3, [1]), (4, [2, 3])])
        before = lineage_counters()
        graph.ancestors(4)
        graph.descendants(1)
        after = lineage_counters()
        assert after.get("probes", 0) - before.get("probes", 0) == 2
        assert after.get("nodes_visited", 0) > before.get("nodes_visited", 0)
        # The descendants probe built labels once, lazily.
        assert after.get("rebuilds", 0) - before.get("rebuilds", 0) == 1

    def test_ancestor_visits_stay_logarithmic_on_chains(self):
        graph = VersionGraph()
        add(graph, 1, [])
        for vid in range(2, 402):
            add(graph, vid, [vid - 1])
        before = lineage_counters()
        graph.ancestors(401)
        after = lineage_counters()
        # A merge-free chain has an empty closure: one index node visited,
        # however long the lineage — the walk touches all 400.
        assert after["nodes_visited"] - before.get("nodes_visited", 0) == 1

    def test_probes_charge_no_engine_io(self):
        orpheus = OrpheusDB()
        orpheus.init(
            "p", PROTEIN_COLUMNS, rows=PAPER_ROWS, primary_key=PROTEIN_PRIMARY_KEY
        )
        orpheus.db.reset_stats()
        graph = orpheus.cvd("p").graph
        graph.ancestors(1)
        graph.descendants(1)
        stats = orpheus.db.stats
        # Zero logical-I/O drift: lineage probes never touch the engine's
        # gated counters (records scanned, index probes, blocks).
        assert stats.records_scanned == 0
        assert stats.index_probes == 0
        assert stats.blocks_scanned == 0


class TestLabelState:
    def test_export_import_round_trip(self):
        history = [(1, []), (2, [1]), (3, [1]), (4, [2, 3]), (5, [4]), (6, [4, 2])]
        graph = build(history)
        graph.descendants(1)  # build labels
        state = graph.lineage_export()
        assert state is not None

        twin = build(history)
        assert twin.lineage_import(state)
        assert twin.lineage_status() == "fresh"
        before = lineage_counters()
        assert_probe_equals_walk(twin)
        # Adopted labels serve every interval probe without a rebuild.
        assert lineage_counters().get("rebuilds", 0) == before.get("rebuilds", 0)

    def test_corrupt_state_is_rejected_not_fatal(self):
        history = [(1, []), (2, [1]), (3, [1]), (4, [2, 3])]
        graph = build(history)
        graph.descendants(1)
        state = graph.lineage_export()
        # Swap two vids: intervals no longer match the spanning tree.
        state["labels"][1][0], state["labels"][2][0] = (
            state["labels"][2][0],
            state["labels"][1][0],
        )
        twin = build(history)
        assert not twin.lineage_import(state)
        assert twin.lineage_status() == "stale"
        assert_probe_equals_walk(twin)  # rebuilds lazily, stays correct

    def test_export_is_none_until_labels_exist(self):
        graph = build([(1, []), (2, [1])])
        assert graph.lineage_export() is None  # index never built
        graph.ancestors(2)  # bitmap-only probe: still no labels
        assert graph.lineage_export() is None
        graph.descendants(1)
        assert graph.lineage_export() is not None


def _build_store_history(orpheus) -> None:
    orpheus.init(
        "p", PROTEIN_COLUMNS, rows=PAPER_ROWS, primary_key=PROTEIN_PRIMARY_KEY
    )
    orpheus.checkout("p", 1, table_name="w2")
    orpheus.run("UPDATE w2 SET coexpression = 83 WHERE protein1 = 'ENSP273047'")
    orpheus.commit("w2", message="edit")
    orpheus.checkout("p", 1, table_name="w3")
    orpheus.run("DELETE FROM w3 WHERE protein1 = 'ENSP300413'")
    orpheus.commit("w3", message="prune")
    orpheus.checkout("p", [2, 3], table_name="w4")
    orpheus.commit("w4", message="merge")
    orpheus.checkout("p", 4, table_name="w5")
    orpheus.commit("w5", message="tip")


class TestPersistRoundTrip:
    def test_labels_survive_checkpoint_and_reopen(self, tmp_path):
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        _build_store_history(store.orpheus)
        graph = store.orpheus.cvd("p").graph
        expected = {vid: descendants_walk(graph, vid) for vid in (1, 2, 4)}
        graph.descendants(1)  # build labels so the manifest has state
        assert graph.lineage_status() == "fresh"
        store.checkpoint()
        store.close()

        recovered = Store.open(tmp_path / "store", checkpoint_interval=0)
        rgraph = recovered.orpheus.cvd("p").graph
        assert rgraph.lineage_status() == "fresh"
        before = lineage_counters()
        for vid, walk in expected.items():
            assert set(rgraph.descendants(vid)) == walk
        assert lineage_counters().get("rebuilds", 0) == before.get("rebuilds", 0)
        # The index keeps tracking post-restore commits.
        recovered.orpheus.checkout("p", 5, table_name="w6")
        recovered.orpheus.commit("w6", message="post-restore")
        assert set(rgraph.descendants(5)) == descendants_walk(rgraph, 5)
        recovered.close()

    def test_manifest_without_labels_rebuilds_once(self, tmp_path):
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        _build_store_history(store.orpheus)
        store.orpheus.cvd("p").graph.descendants(1)
        store.checkpoint()
        store.close()

        # A format-3 manifest whose CVD carries no labels (`"lineage":
        # null`, what a store that never built them writes).
        store_path = tmp_path / "store"
        current = json.loads((store_path / "CURRENT").read_text(encoding="utf-8"))[
            "snapshot"
        ]
        manifest_path = store_path / "snapshots" / current / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["format"] == FORMAT_VERSION
        for cvd_state in manifest["orpheus"]["cvds"]:
            assert cvd_state["lineage"] is not None
            cvd_state["lineage"] = None
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        recovered = Store.open(tmp_path / "store", checkpoint_interval=0)
        rgraph = recovered.orpheus.cvd("p").graph
        assert rgraph.lineage_status() == "stale"
        before = lineage_counters()
        for vid in rgraph.version_ids():
            assert set(rgraph.descendants(vid)) == descendants_walk(rgraph, vid)
        assert (
            lineage_counters()["rebuilds"] == before.get("rebuilds", 0) + 1
        )
        assert rgraph.lineage_status() == "fresh"
        recovered.close()


def _sql_orpheus(mode: str) -> OrpheusDB:
    orpheus = OrpheusDB(database(mode))
    _build_store_history(orpheus)
    return orpheus


class TestLineageSQL:
    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_ancestor_axis(self, mode):
        orpheus = _sql_orpheus(mode)
        rows = orpheus.run(
            "SELECT vid FROM VERSIONS ANCESTOR OF 5 OF CVD p ORDER BY vid"
        ).rows
        assert rows == [(1,), (2,), (3,), (4,)]

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_descendant_axis(self, mode):
        orpheus = _sql_orpheus(mode)
        rows = orpheus.run(
            "SELECT vid, num_records FROM VERSIONS DESCENDANT OF 2 OF CVD p "
            "ORDER BY vid"
        ).rows
        assert [vid for vid, _ in rows] == [4, 5]

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_empty_axis_yields_no_rows(self, mode):
        orpheus = _sql_orpheus(mode)
        rows = orpheus.run("SELECT vid FROM VERSIONS ANCESTOR OF 1 OF CVD p").rows
        assert rows == []

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_composes_with_predicates_and_aliases(self, mode):
        orpheus = _sql_orpheus(mode)
        rows = orpheus.run(
            "SELECT lineage.vid FROM VERSIONS ANCESTOR OF 5 OF CVD p AS lineage "
            "WHERE lineage.vid > 2 ORDER BY lineage.vid"
        ).rows
        assert rows == [(3,), (4,)]

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_malformed_tail_rejected_identically(self, mode):
        orpheus = _sql_orpheus(mode)
        with pytest.raises(
            SQLSyntaxError, match="expected OF CVD after VERSIONS ANCESTOR OF 4"
        ):
            orpheus.run("SELECT * FROM VERSIONS ANCESTOR OF 4 WHERE vid > 1")
        with pytest.raises(
            SQLSyntaxError, match="expected CVD after VERSIONS DESCENDANT OF 4 OF"
        ):
            orpheus.run("SELECT * FROM VERSIONS DESCENDANT OF 4 OF TABLE p")

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_unknown_vid_rejected(self, mode):
        orpheus = _sql_orpheus(mode)
        with pytest.raises(VersionNotFoundError):
            orpheus.run("SELECT * FROM VERSIONS ANCESTOR OF 99 OF CVD p")

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_words_stay_usable_as_identifiers(self, mode):
        # versions/ancestor/descendant are non-reserved: without the full
        # construct prefix they are ordinary identifiers (the OVER rule).
        orpheus = OrpheusDB(database(mode))
        orpheus.run("CREATE TABLE versions (ancestor INTEGER, descendant INTEGER)")
        orpheus.run("INSERT INTO versions VALUES (1, 2), (3, 4)")
        rows = orpheus.run(
            "SELECT v.ancestor FROM versions v WHERE v.descendant = 4"
        ).rows
        assert rows == [(3,)]
        rows = orpheus.run(
            "SELECT descendant FROM versions ORDER BY ancestor"
        ).rows
        assert rows == [(2,), (4,)]


class TestFacadeShortcuts:
    def test_on_branch_is_ancestor_version_path(self):
        orpheus = OrpheusDB()
        _build_store_history(orpheus)
        assert orpheus.on_branch("p", 4) == [1, 2, 3, 4]
        assert orpheus.is_ancestor("p", 1, 5)
        assert not orpheus.is_ancestor("p", 5, 1)
        assert orpheus.version_path("p", 2, 5) == [2, 4, 5]
        assert orpheus.version_path("p", 5, 2) == []
        # Multi-version diff along the probe-discovered path.
        path = orpheus.version_path("p", 1, 5)
        for earlier, later in zip(path, path[1:]):
            plus, minus = orpheus.diff("p", later, earlier)
            assert isinstance(plus, list) and isinstance(minus, list)
