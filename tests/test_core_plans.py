"""Each data model's Table-1 checkout, stated once as a plan built in code.

The paper's Table 1 gives every model one SQL translation of *checkout*.
These tests pin each model's ``version_plan``/``all_versions_plan`` to
that text (parsed here, never by the models), check that the read path
tokenizes nothing, and run attribute names SQL text could not spell bare
(keywords, mixed case, spaces, a leading digit) through every reader,
live and after a store reopen.
"""

from __future__ import annotations

import string
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datamodels import MODEL_REGISTRY
from repro.core.orpheus import OrpheusDB
from repro.partition.bipartite import Partitioning
from repro.partition.partition_manager import PartitionedRlistModel
from repro.persist import Store
from repro.storage.engine import Database
from repro.storage.parser import parser
from repro.storage.parser.lexer import KEYWORDS
from repro.storage.parser.parser import parse_statement
from repro.storage.ridset import RidSet
from tests.test_core_datamodels import EXPECTED, SCHEMA, build_history

#: The six data models plus a LyreSplit-partitioned split-by-rlist CVD.
LAYOUTS = [*sorted(MODEL_REGISTRY), "partitioned_rlist"]
SQL_LAYOUTS = [
    layout
    for layout in LAYOUTS
    if layout == "partitioned_rlist" or MODEL_REGISTRY[layout].supports_sql_rewriting
]

# ------------------------------------------------- Table 1, pinned as text

_RID_JOIN = (
    "SELECT d.rid, d.name, d.score FROM {data} AS d, ({rids}) AS tmp "
    "WHERE d.rid = tmp.rid_tmp"
)
_MEMBER_JOIN = (
    "SELECT m.vid AS vid, d.name, d.score FROM ({members}) AS m, {data} AS d "
    "WHERE d.rid = m.rid_tmp"
)


def _rlist(data: str, versions: str, unnest: str = "unnest") -> dict[str, str]:
    return {
        "version": _RID_JOIN.format(
            data=data,
            rids=f"SELECT {unnest}(rlist) AS rid_tmp FROM {versions} WHERE vid = 3",
        ),
        "all": _MEMBER_JOIN.format(
            data=data,
            members=f"SELECT vid, {unnest}(rlist) AS rid_tmp FROM {versions}",
        ),
    }


#: Table 1's checkout of version 3 and of every version, per model, over
#: ``tests.test_core_datamodels``' three-version history of CVD ``cvd``.
TABLE_1 = {
    "combined": {
        "version": "SELECT rid, name, score FROM cvd__combined "
        "WHERE ARRAY[3] <@ vlist",
        "all": "SELECT unnest(vlist) AS vid, name, score FROM cvd__combined",
    },
    "split_by_vlist": {
        "version": _RID_JOIN.format(
            data="cvd__data",
            rids="SELECT rid AS rid_tmp FROM cvd__vindex WHERE ARRAY[3] <@ vlist",
        ),
        "all": _MEMBER_JOIN.format(
            data="cvd__data",
            members="SELECT rid AS rid_tmp, unnest(vlist) AS vid FROM cvd__vindex",
        ),
    },
    "split_by_rlist": _rlist("cvd__data", "cvd__versions"),
    "split_by_rlist_rle": _rlist("cvd__data", "cvd__versions", "unnest_ranges"),
    "table_per_version": {
        # The paper copies the table with SELECT *; the plan names the
        # same columns explicitly.
        "version": "SELECT rid, name, score FROM cvd__v3",
        "all": " UNION ALL ".join(
            f"SELECT {vid} AS vid, name, score FROM cvd__v{vid}" for vid in (1, 2, 3)
        ),
    },
    "partitioned_rlist": {
        "version": _rlist("cvd__p1_data", "cvd__p1_versions")["version"],
        "all": " UNION ALL ".join(
            _rlist(f"cvd__p{index}_data", f"cvd__p{index}_versions")["all"]
            for index in (0, 1)
        ),
    },
}


def _partitioned_history() -> tuple[Database, PartitionedRlistModel]:
    """The same history, laid out as partitions {v1, v2} and {v3}."""
    db = Database()
    model = PartitionedRlistModel(db, "cvd", SCHEMA)
    model.create_storage()
    payloads = {rid: row for rows in EXPECTED.values() for rid, row in rows.items()}
    membership = {vid: RidSet(records) for vid, records in EXPECTED.items()}
    model.membership = membership
    model.replace_partitions(
        Partitioning.from_groups([{1, 2}, {3}]).groups,
        {},
        lambda rids: {rid: payloads[rid] for rid in rids},
    )
    return db, model


def _history(layout: str):
    if layout == "partitioned_rlist":
        return _partitioned_history()
    return build_history(layout)


@pytest.mark.parametrize("layout", sorted(TABLE_1))
def test_plans_are_table_1(layout):
    db, model = _history(layout)
    assert model.version_plan(3) == parse_statement(TABLE_1[layout]["version"])
    assert model.all_versions_plan() == parse_statement(TABLE_1[layout]["all"])
    # Both run, and agree with the version contents.
    expected = {(rid, *row) for rid, row in EXPECTED[3].items()}
    assert set(model.fetch_version(3)) == expected
    every = Counter(
        (vid, *row) for vid, records in EXPECTED.items() for row in records.values()
    )
    assert Counter(db.execute_statements([model.all_versions_plan()]).rows) == every


def test_every_sql_model_is_pinned():
    assert set(TABLE_1) == set(SQL_LAYOUTS)


# ------------------------------------------------ no parse on the read path


def _session(layout: str) -> OrpheusDB:
    """v1 = two rows; v2 adds one; a partitioned layout is then optimized."""
    orpheus = OrpheusDB()
    partitioned = layout == "partitioned_rlist"
    orpheus.init(
        "p",
        [("k", "text"), ("v", "int")],
        rows=[("a", 1), ("b", 2)],
        model="split_by_rlist" if partitioned else layout,
    )
    orpheus.checkout("p", 1, table_name="w")
    orpheus.db.table("w").insert((None, "c", 3))
    orpheus.commit("w")
    if partitioned:
        orpheus.optimize("p")
        assert orpheus.cvd("p").model.model_name == "partitioned_rlist"
    return orpheus


@pytest.mark.parametrize("layout", SQL_LAYOUTS)
def test_cold_checkout_tokenizes_nothing(layout, monkeypatch):
    orpheus = _session(layout)
    model = orpheus.cvd("p").model
    seen = []
    real = parser.tokenize

    def counting(text):
        seen.append(text)
        return real(text)

    monkeypatch.setattr(parser, "tokenize", counting)
    assert len(orpheus.checkout_rows("p", 2)) == 3
    assert len(model.fetch_version(1)) == 2
    model.checkout_into(2, "t")
    orpheus.checkout("p", 1, table_name="staged")
    assert orpheus.db.table("t").row_count == 3
    assert orpheus.db.table("staged").row_count == 2
    assert seen == []
    sql = "SELECT count(*) FROM VERSION 1, 2 OF CVD p"
    assert orpheus.run(sql).rows == [(5,)]
    assert seen == [sql]


# ------------------------------------------ ALL VERSIONS of an empty CVD


@pytest.mark.parametrize("layout", sorted(MODEL_REGISTRY))
def test_all_versions_of_an_empty_cvd(layout):
    orpheus = OrpheusDB()
    orpheus.init("p", [("k", "text"), ("v", "int")], model=layout)
    assert orpheus.run("SELECT count(*) FROM ALL VERSIONS OF CVD p").rows == [(0,)]
    result = orpheus.run("SELECT * FROM ALL VERSIONS OF CVD p")
    assert (result.columns, result.rows) == (["vid", "k", "v"], [])


# --------------------------------------- attribute names text cannot spell

#: Names the models' own plans use, which a data attribute may not shadow.
_INTERNAL = {"rid", "vid", "rid_tmp", "vlist", "rlist"}
_WORD = st.text(alphabet=string.ascii_letters, min_size=1, max_size=5)
ATTRIBUTE_NAMES = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    _WORD.filter(lambda word: word != word.lower()),
    st.lists(_WORD, min_size=2, max_size=3).map(" ".join),
    st.tuples(st.integers(0, 9), _WORD).map(lambda pair: f"{pair[0]}{pair[1]}"),
).filter(lambda name: name.lower() not in _INTERNAL)


def _check_readers(orpheus: OrpheusDB, names, expected, table_prefix: str) -> None:
    """Every reader of every version returns exactly the inserted rows."""
    for vid, rows in expected.items():
        assert Counter(row[1:] for row in orpheus.checkout_rows("p", vid)) == rows
        table = f"{table_prefix}{vid}"
        orpheus.checkout("p", vid, table_name=table)
        staged = orpheus.db.table(table)
        assert staged.schema.column_names == ["rid", *names]
        assert Counter(row[1:] for row in staged.rows()) == rows
        result = orpheus.run(f"SELECT * FROM VERSION {vid} OF CVD p")
        assert result.columns == names
        assert Counter(result.rows) == rows
    result = orpheus.run("SELECT * FROM ALL VERSIONS OF CVD p")
    assert result.columns == ["vid", *names]
    every = Counter()
    for vid, rows in expected.items():
        every.update({(vid, *row): n for row, n in rows.items()})
    assert Counter(result.rows) == every


@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=40, deadline=None)
@given(
    names=st.lists(ATTRIBUTE_NAMES, min_size=1, max_size=3, unique=True),
    data=st.data(),
)
def test_attribute_names_text_cannot_spell(layout, names, data):
    row = st.tuples(*[st.integers(-3, 3)] * len(names))
    root = data.draw(st.lists(row, min_size=1, max_size=3))
    added = data.draw(row)
    expected = {1: Counter(root), 2: Counter([*root, added])}
    partitioned = layout == "partitioned_rlist"
    with tempfile.TemporaryDirectory() as path:
        with Store.open(path, checkpoint_interval=0) as store:
            orpheus = store.orpheus
            orpheus.init(
                "p",
                [(name, "int") for name in names],
                rows=root,
                model="split_by_rlist" if partitioned else layout,
            )
            orpheus.checkout("p", 1, table_name="w")
            orpheus.db.table("w").insert((None, *added))
            orpheus.commit("w")
            if partitioned:
                orpheus.optimize("p")
                assert orpheus.cvd("p").model.model_name == "partitioned_rlist"
            _check_readers(orpheus, names, expected, "live")
        with Store.open(path, checkpoint_interval=0) as reopened:
            _check_readers(reopened.orpheus, names, expected, "reopened")
