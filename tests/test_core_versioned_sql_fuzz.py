"""Fuzz the versioned FROM items through ``OrpheusDB.run``.

Valid versioned statements are truncated, mutated token by token, and
shuffled into token soup, then run against a session holding a
split-by-rlist, a delta and a LyreSplit-partitioned CVD.  Whatever the
text, two things must hold: only ``ReproError`` subclasses escape, and
the catalog's table set is what it was (a versioned read never leaves a
table behind).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.orpheus import OrpheusDB
from repro.errors import ReproError, SQLSyntaxError

VALID = [
    "SELECT count(*) FROM VERSION 1 OF CVD r",
    "SELECT k, v FROM VERSION 1, 2 OF CVD d AS x WHERE v > 1 ORDER BY k",
    "SELECT vid, count(*) FROM ALL VERSIONS OF CVD o GROUP BY vid ORDER BY vid",
    "SELECT vid, msg FROM VERSIONS ANCESTOR OF 3 OF CVD r ORDER BY vid",
    "SELECT * FROM VERSIONS DESCENDANT OF 1 OF CVD d WHERE vid > 1",
    "SELECT a.k FROM VERSION 1 OF CVD r a JOIN VERSION 2 OF CVD d b ON a.k = b.k",
    "SELECT count(*) FROM VERSION 3 OF CVD o, VERSION 2 OF CVD o AS y",
    "SELECT k FROM VERSION 2 OF CVD r WHERE k IN "
    "(SELECT k FROM ALL VERSIONS OF CVD d WHERE vid = 3)",
    "SELECT max(v) FROM (SELECT v FROM VERSION 3 OF CVD d) AS s",
]

#: Every token of the valid statements, plus the near misses a user makes.
VOCABULARY = sorted(
    {token for sql in VALID for token in sql.split()}
    | {"1.5", "99", "0", "-1", "2.", "'x'", "%s", "?", "(", ")", ",", ";"}
    | {"VERSION", "VERSIONS", "ALL", "OF", "CVD", "ANCESTOR", "DESCENDANT"}
    | {"version", "versions", "cvd", "nope", "AS", "UNION", "LIMIT", "1"}
)

TOKENS = st.sampled_from(VOCABULARY)
STATEMENTS = st.sampled_from(VALID).map(str.split)


@st.composite
def truncated(draw) -> str:
    tokens = draw(STATEMENTS)
    return " ".join(tokens[: draw(st.integers(0, len(tokens)))])


@st.composite
def mutated(draw) -> str:
    tokens = list(draw(STATEMENTS))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or at == len(tokens):
            tokens.insert(at, draw(TOKENS))
        elif edit == "replace":
            tokens[at] = draw(TOKENS)
        else:
            del tokens[at]
    return " ".join(tokens)


SOUP = st.lists(TOKENS, max_size=14).map(" ".join)


@pytest.fixture(scope="module")
def session() -> OrpheusDB:
    orpheus = OrpheusDB()
    models = (("r", "split_by_rlist"), ("d", "delta"), ("o", "split_by_rlist"))
    edits = ((1, "DELETE FROM w WHERE k = 'c'"), (2, "UPDATE w SET v = 9"))
    for name, model in models:
        orpheus.init(
            name, [("k", "text"), ("v", "int")],
            rows=[("a", 1), ("b", 2), ("c", 3)], primary_key=("k",), model=model,
        )
        for parent, dml in edits:
            orpheus.checkout(name, parent, table_name="w")
            orpheus.run(dml)
            orpheus.commit("w", message=dml)
    orpheus.optimize("o")
    assert orpheus.cvd("o").model.model_name == "partitioned_rlist"
    return orpheus


@pytest.mark.parametrize("sql", VALID)
def test_seed_statements_are_valid(session, sql):
    session.run(sql)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM VERSION 1.5 OF CVD r",
        "SELECT * FROM VERSION 1, 2.0 OF CVD o",
        "SELECT * FROM VERSIONS ANCESTOR OF 1.5 OF CVD d",
    ],
)
def test_non_integer_vid_is_a_syntax_error(session, sql):
    with pytest.raises(SQLSyntaxError, match="must be an integer"):
        session.run(sql)


@settings(max_examples=300, deadline=None)
@example(sql="SELECT * FROM VERSION 1.5 OF CVD r")
@example(sql="SELECT * FROM VERSIONS ANCESTOR OF 1.5 OF CVD d")
@example(sql="SELECT count(*) FROM VERSION 99 OF CVD d")
@example(sql="SELECT * FROM ALL VERSIONS OF CVD nope")
@example(sql="SELECT * FROM VERSION 1 OF CVD")
@given(sql=truncated() | mutated() | SOUP)
def test_only_typed_errors_escape_and_no_table_is_left(session, sql):
    tables = set(session.db.table_names())
    try:
        session.run(sql)
    except ReproError:
        pass
    assert set(session.db.table_names()) == tables, sql
