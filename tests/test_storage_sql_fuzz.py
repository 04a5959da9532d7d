"""Fuzz plain SQL through ``Database.execute`` on both exec tiers.

Valid statements over filters, joins, GROUP BY, windows, top-k, arrays,
UPDATE and DELETE are truncated, mutated token by token and shuffled
into token soup.  Each text runs on a fresh compiled and a fresh
interpreted database, once with rows in every table and once with every
table empty.  Whatever the text, two things must hold: only
``ReproError`` subclasses escape, and the two tiers agree on error
versus success.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.storage.engine import Database

SCHEMA = (
    "CREATE TABLE t (k text, v int, f float, a int[])",
    "CREATE TABLE s (k text, w int)",
)
ROWS = (
    "INSERT INTO t VALUES ('a', 1, 1.5, ARRAY[1, 2]), ('b', 2, NULL, ARRAY[2, 3]),"
    " ('c', NULL, -0.5, NULL), ('a', 4, 2.0, ARRAY[4])",
    "INSERT INTO s VALUES ('a', 10), ('b', 20), ('d', 40)",
)

VALID = [
    "SELECT k, v FROM t WHERE v > 1 AND k LIKE 'a%'",
    "SELECT * FROM t WHERE v IN (1, 2) OR f IS NULL",
    "SELECT * FROM t WHERE v BETWEEN 1 AND 3 AND NOT k = 'c'",
    "SELECT t.k, s.w FROM t JOIN s ON t.k = s.k WHERE s.w > 5",
    "SELECT x.k, y.w FROM t x LEFT JOIN s y ON x.k = y.k ORDER BY x.k",
    "SELECT k, count(*), sum(v), avg(f) FROM t GROUP BY k HAVING count(*) > 1",
    "SELECT k, min(v) AS m FROM t GROUP BY k ORDER BY m DESC, k",
    "SELECT k, row_number() OVER (PARTITION BY k ORDER BY v DESC) AS r FROM t",
    "SELECT k, rank() OVER (ORDER BY v) FROM t",
    "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 2 OFFSET 1",
    "SELECT k FROM t ORDER BY v + 1, k LIMIT 3",
    "SELECT DISTINCT k FROM t ORDER BY k",
    "SELECT k, unnest(a) AS e FROM t WHERE a @> ARRAY[2] ORDER BY e",
    "SELECT count(*) FROM t WHERE a && ARRAY[3, 4] OR ARRAY[coalesce(v, 0)] <@ a",
    "SELECT k FROM t WHERE v = (SELECT min(w) FROM s)",
    "SELECT k FROM t WHERE k IN (SELECT k FROM s)",
    "SELECT max(v) FROM (SELECT v FROM t WHERE v > 0) AS q",
    "SELECT k, coalesce(v, 0) * 2 - abs(f) FROM t",
    "UPDATE t SET v = v + 1 WHERE k = 'a'",
    "UPDATE t SET f = f * 2, a = ARRAY[v] WHERE v IS NOT NULL",
    "DELETE FROM t WHERE v < 2 OR f IS NULL",
    "DELETE FROM s WHERE w > 15",
]

#: Every token of the valid statements, plus the near misses a user makes.
VOCABULARY = sorted(
    {token for sql in VALID for token in sql.split()}
    | {"1.5", "99", "0", "-1", "NULL", "'x'", "(", ")", ",", "*", "/", "||"}
    | {"ARRAY[3]", "ARRAY[]", "LIKE", "ORDER", "BY", "LIMIT", "nope", "e"}
    | {"GROUP", "OVER", "UNION", "ALL", "SET", "WHERE", "=", "JOIN", "ON"}
    # Unicode digits that are not decimal: int() rejects them.
    | {"²", "³", "①"}
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


def _database(exec_mode: str, filled: bool) -> Database:
    db = Database(exec_mode=exec_mode)
    for sql in SCHEMA + (ROWS if filled else ()):
        db.execute(sql)
    return db


def _outcome(exec_mode: str, filled: bool, sql: str) -> str:
    """``"ok"`` or the name of the typed error; anything else escapes."""
    try:
        _database(exec_mode, filled).execute(sql)
    except ReproError as exc:
        return type(exc).__name__
    return "ok"


@pytest.mark.parametrize("filled", [True, False], ids=["rows", "empty"])
@pytest.mark.parametrize("sql", VALID)
def test_seed_statements_are_valid(sql, filled):
    for exec_mode in ("compiled", "interpreted"):
        assert _outcome(exec_mode, filled, sql) == "ok"


@pytest.mark.parametrize("filled", [True, False], ids=["rows", "empty"])
@pytest.mark.parametrize("limit", ["", " LIMIT 2"])
def test_order_by_an_unknown_column_of_an_empty_input(filled, limit):
    sql = "SELECT * FROM t ORDER BY nope" + limit
    for exec_mode in ("compiled", "interpreted"):
        if filled:
            with pytest.raises(ReproError, match="nope"):
                _database(exec_mode, filled).execute(sql)
        else:
            assert _database(exec_mode, filled).execute(sql).rows == []


@pytest.mark.parametrize(
    "sql, message",
    [
        ("SELECT * FROM t WHERE k LIKE 3", "LIKE pattern must be text"),
        ("SELECT * FROM t WHERE k LIKE ARRAY[3]", "LIKE pattern must be text"),
        ("SELECT * FROM t WHERE k LIKE v", "LIKE pattern must be text"),
        ("SELECT ARRAY[v] FROM t", "array elements must be integers"),
        ("SELECT array_agg(k) FROM t", "array elements must be integers"),
        ("SELECT - k FROM t", "operator '-' not supported"),
        ("SELECT * FROM t WHERE a BETWEEN 1 AND 3", "BETWEEN not supported"),
    ],
)
def test_ill_typed_operands_are_typed_errors(sql, message):
    for exec_mode in ("compiled", "interpreted"):
        with pytest.raises(ReproError, match=message):
            _database(exec_mode, True).execute(sql)


@settings(max_examples=300, deadline=None)
@example(sql="SELECT * FROM t ORDER BY nope")
@example(sql="SELECT * FROM t ORDER BY nope LIMIT 2")
@example(sql="SELECT * FROM t WHERE v LIKE 3")
@example(sql="SELECT * FROM t WHERE a LIKE ARRAY[3]")
@example(sql="SELECT ARRAY[v] FROM t")
@example(sql="SELECT - k FROM t ORDER BY k")
@example(sql="SELECT * FROM t WHERE ARRAY[v] BETWEEN 1 AND 3")
@example(sql="SELECT ²")
@example(sql="SELECT k FROM t WHERE v > 1³")
@given(sql=truncated() | mutated() | SOUP)
@pytest.mark.parametrize("filled", [True, False], ids=["rows", "empty"])
def test_only_typed_errors_escape_and_the_tiers_agree(filled, sql):
    compiled = _outcome("compiled", filled, sql)
    interpreted = _outcome("interpreted", filled, sql)
    assert (compiled == "ok") == (interpreted == "ok"), (sql, compiled, interpreted)
