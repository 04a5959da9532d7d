"""Fuzz plain SQL through ``Database.execute`` and the reference.

Valid statements over filters, joins, GROUP BY, windows, top-k, arrays,
UPDATE and DELETE are truncated, mutated token by token and shuffled
into token soup.  Each text runs on a fresh engine and a fresh
row-at-a-time reference (``tests/select_reference.py``), once with rows
in every table and once with every table empty.  Whatever the text, two
things must hold: only ``ReproError`` subclasses escape, and the two
agree on error versus success.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from select_reference import database

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
    "SELECT k, v % 3 AS m, upper(k), length(k) FROM t WHERE abs(v) >= 0 ORDER BY m",
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
    # Operators and functions whose operands can be the wrong type or zero.
    | {"%", "0", "abs", "upper", "length", "sum", "avg", "unnest"}
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


def _database(mode: str, filled: bool) -> Database:
    db = database(mode)
    for sql in SCHEMA + (ROWS if filled else ()):
        db.execute(sql)
    return db


def _outcome(mode: str, filled: bool, sql: str) -> str:
    """``"ok"`` or the name of the typed error; anything else escapes."""
    try:
        _database(mode, filled).execute(sql)
    except ReproError as exc:
        return type(exc).__name__
    return "ok"


@pytest.mark.parametrize("filled", [True, False], ids=["rows", "empty"])
@pytest.mark.parametrize("sql", VALID)
def test_seed_statements_are_valid(sql, filled):
    for mode in ("compiled", "interpreted"):
        assert _outcome(mode, filled, sql) == "ok"


@pytest.mark.parametrize("filled", [True, False], ids=["rows", "empty"])
@pytest.mark.parametrize("limit", ["", " LIMIT 2"])
def test_order_by_an_unknown_column_of_an_empty_input(filled, limit):
    sql = "SELECT * FROM t ORDER BY nope" + limit
    for mode in ("compiled", "interpreted"):
        if filled:
            with pytest.raises(ReproError, match="nope"):
                _database(mode, filled).execute(sql)
        else:
            assert _database(mode, filled).execute(sql).rows == []


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
        ("SELECT 7 % 0", "division by zero"),
        ("SELECT v % 0 FROM t", "division by zero"),
        ("SELECT f % 0.0 FROM t", "division by zero"),
        ("SELECT abs(k) FROM t", r"abs\(\) not supported"),
        ("SELECT length(v) FROM t", r"length\(\) not supported"),
        ("SELECT upper(v) FROM t", r"upper\(\) not supported"),
        ("SELECT sum(k) FROM t", r"sum\(\) needs numbers"),
        ("SELECT avg(k) FROM t GROUP BY v", r"avg\(\) needs numbers"),
        ("SELECT unnest(v) FROM t", r"unnest\(\) takes an array"),
    ],
)
def test_ill_typed_operands_are_typed_errors(sql, message):
    for mode in ("compiled", "interpreted"):
        with pytest.raises(ReproError, match=message):
            _database(mode, True).execute(sql)


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
@example(sql="SELECT k, v % 0 AS m FROM t")
@example(sql="SELECT k, upper(v) FROM t")
@example(sql="SELECT unnest ( ) FROM t")
@given(sql=truncated() | mutated() | SOUP)
@pytest.mark.parametrize("filled", [True, False], ids=["rows", "empty"])
def test_only_typed_errors_escape_and_the_tiers_agree(filled, sql):
    compiled = _outcome("compiled", filled, sql)
    interpreted = _outcome("interpreted", filled, sql)
    assert (compiled == "ok") == (interpreted == "ok"), (sql, compiled, interpreted)
