"""Differential oracle: versioned SELECTs against stdlib ``sqlite3``.

OrpheusDB is bolted onto a relational engine, so a query over a checked-out
version must get SQL's answer.  Hypothesis draws SELECTs from the subset
both engines share: projections with ``+ - * / %``, ``abs``, ``upper``,
``lower`` and ``length``; WHERE with comparisons, AND/OR/NOT, IS [NOT]
NULL, [NOT] IN lists, [NOT] BETWEEN and [NOT] LIKE; GROUP BY with
count/sum/avg/min/max and HAVING; DISTINCT; ORDER BY with LIMIT/OFFSET;
``row_number``/``rank``/``dense_rank`` OVER (PARTITION BY ... ORDER BY
...); and an equi-join of two versions.  Each statement runs through
``OrpheusDB.run`` over ``VERSION v OF CVD c`` — on a split-by-rlist CVD and
on a LyreSplit-partitioned copy of the same history — and in an in-memory
SQLite database holding each version's ``checkout_rows``.  The answers
must be equal: as lists when the statement's ORDER BY is total (every
output column is a key), as multisets otherwise.

The dialect differences, each handled where the SQL is drawn or rendered:

* NULLs sort last ascending and first descending here; the SQLite text
  says ``NULLS LAST`` / ``NULLS FIRST`` (in OVER clauses too).
* SQLite's LIKE ignores ASCII case; the connection sets
  ``PRAGMA case_sensitive_like = ON``.
* Integer ``/`` and ``%`` floor here and truncate in SQLite, and SQLite's
  ``%`` casts a REAL operand to an integer: both operators take only a
  non-negative integer column and a positive integer literal.
* Division by zero is an error here and NULL in SQLite: divisors are never
  zero.
* ``-0.0`` prints differently: rows compare with ``==``, where it equals
  ``0.0``.
* SQLite ``OFFSET`` needs a ``LIMIT``; an offset alone renders as
  ``LIMIT -1 OFFSET n``.
* There is no CASE and no ``sum() OVER`` here, so neither is drawn;
  ``row_number`` orders by the key ``k`` last, so its peers never tie.
"""

from __future__ import annotations

import random
import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orpheus import OrpheusDB

SCHEMA = [("k", "text"), ("g", "text"), ("a", "int"), ("b", "int"), ("f", "float")]
SQLITE_TYPES = {"text": "TEXT", "int": "INTEGER", "float": "REAL"}
INTS, FLOATS, TEXTS = ("a", "b"), ("f",), ("k", "g")
GROUPS = ("ab", "Ab", "abc", "b_c", "B%", "ba", None)
VERSIONS = 9  # the root and eight edits
CVDS = ("rl", "ly")  # split-by-rlist, LyreSplit-partitioned


def _history():
    """The root rows and each later version's (parent, statements) edit."""
    rng = random.Random(50)

    def row(key: int) -> tuple:
        return (
            f"k{key:02d}",
            rng.choice(GROUPS),
            rng.choice([None, *range(21)]),
            rng.choice([None, *range(10)]),
            rng.choice([None, *(q / 4 for q in range(-20, 21))]),
        )

    root = [row(key) for key in range(40)]
    keys = {1: [r[0] for r in root]}
    edits = []
    next_key = 40
    for vid in range(2, VERSIONS + 1):
        parent = rng.randrange(1, vid)
        live = list(keys[parent])
        statements = []
        for key in rng.sample(live, 4):
            value = rng.choice(["NULL", *map(str, range(21))])
            statements.append(f"UPDATE w SET a = {value} WHERE k = '{key}'")
        for key in rng.sample(live, 3):
            statements.append(f"DELETE FROM w WHERE k = '{key}'")
            live.remove(key)
        for _ in range(3):
            new = row(next_key)
            next_key += 1
            literals = ", ".join("NULL" if v is None else repr(v) for v in new)
            statements.append(f"INSERT INTO w VALUES (NULL, {literals})")
            live.append(new[0])
        keys[vid] = live
        edits.append((parent, statements))
    return root, edits


@pytest.fixture(scope="module")
def engines():
    """``(orpheus, sqlite connection)`` over the same nine versions of two
    CVDs; SQLite table ``<cvd>_v<vid>`` holds one version's rows."""
    root, edits = _history()
    orpheus = OrpheusDB()
    for name in CVDS:
        orpheus.init(
            name, SCHEMA, rows=root, primary_key=("k",), model="split_by_rlist"
        )
        for parent, statements in edits:
            orpheus.checkout(name, parent, table_name="w")
            for sql in statements:
                orpheus.run(sql)
            orpheus.commit("w", message="edit")
    orpheus.optimize("ly")
    assert orpheus.cvd("ly").model.model_name == "partitioned_rlist"
    assert len(orpheus.cvd("ly").model.partition_states()) > 1
    lite = sqlite3.connect(":memory:")
    lite.execute("PRAGMA case_sensitive_like = ON")
    columns = ", ".join(f"{name} {SQLITE_TYPES[kind]}" for name, kind in SCHEMA)
    for name in CVDS:
        for vid in range(1, VERSIONS + 1):
            table = f"{name}_v{vid}"
            lite.execute(f"CREATE TABLE {table} ({columns})")
            rows = [row[1:] for row in orpheus.checkout_rows(name, vid)]
            lite.executemany(f"INSERT INTO {table} VALUES (?, ?, ?, ?, ?)", rows)
    yield orpheus, lite
    lite.close()


# ----------------------------------------------------------- the generator


class Query:
    """One drawn SELECT, rendered for either engine.

    ``parts`` is the statement's text with three kinds of holes: a FROM item
    ``("from", alias, vid)``, an ORDER BY item ``("order", expr, desc)`` and
    the LIMIT/OFFSET tail ``("limit", limit, offset)``.
    """

    def __init__(self, parts: list, total_order: bool):
        self.parts, self.total_order = parts, total_order

    def __repr__(self) -> str:
        return f"Query({self.render('orpheus', 'c')!r})"

    def render(self, dialect: str, cvd: str) -> str:
        out = []
        for part in self.parts:
            if isinstance(part, str):
                out.append(part)
            elif part[0] == "from":
                _kind, alias, vid = part
                if dialect == "sqlite":
                    out.append(f"{cvd}_v{vid} AS {alias}")
                else:
                    out.append(f"VERSION {vid} OF CVD {cvd} AS {alias}")
            elif part[0] == "order":
                _kind, expr, desc = part
                text = f"{expr} DESC" if desc else expr
                if dialect == "sqlite":
                    text += " NULLS FIRST" if desc else " NULLS LAST"
                out.append(text)
            else:
                _kind, limit, offset = part
                if limit is None and dialect == "sqlite":
                    limit = -1
                tail = "" if limit is None else f" LIMIT {limit}"
                out.append(tail + ("" if offset is None else f" OFFSET {offset}"))
        return "".join(out)


def _join(parts: list, separator: str) -> list:
    out: list = []
    for position, part in enumerate(parts):
        if position:
            out.append(separator)
        out.extend(part if isinstance(part, list) else [part])
    return out


def _select_list(items: list[str]) -> tuple[list, list[str]]:
    """``item AS o0, item AS o1, ...`` and the aliases."""
    aliases = [f"o{i}" for i in range(len(items))]
    return _join([f"{i} AS {a}" for i, a in zip(items, aliases)], ", "), aliases


@st.composite
def numeric(draw, columns, depth: int = 2):
    """A numeric expression over ``columns`` (qualified names)."""
    ints = [c for c in columns if c.split(".")[-1] in INTS]
    floats = [c for c in columns if c.split(".")[-1] in FLOATS]
    texts = [c for c in columns if c.split(".")[-1] in TEXTS]
    leaves = [
        st.sampled_from(ints + floats),
        st.integers(0, 9).map(str),
        st.sampled_from(["0.5", "1.25", "2.0"]),
    ]
    if depth <= 0:
        return draw(st.one_of(leaves))
    kind = draw(st.sampled_from(["leaf", "leaf", "arith", "div", "abs", "length"]))
    if kind == "leaf":
        return draw(st.one_of(leaves))
    if kind == "arith":
        op = draw(st.sampled_from(["+", "-", "*"]))
        left = draw(numeric(columns, depth - 1))
        right = draw(numeric(columns, depth - 1))
        return f"({left} {op} {right})"
    if kind == "div":
        op = draw(st.sampled_from(["/", "%"]))
        return f"({draw(st.sampled_from(ints))} {op} {draw(st.integers(1, 7))})"
    if kind == "abs":
        return f"abs({draw(numeric(columns, depth - 1))})"
    return f"length({draw(st.sampled_from(texts))})"


@st.composite
def textual(draw, columns):
    texts = [c for c in columns if c.split(".")[-1] in TEXTS]
    column = draw(st.sampled_from(texts))
    return draw(st.sampled_from([column, f"upper({column})", f"lower({column})"]))


@st.composite
def predicate(draw, columns, depth: int = 2):
    kinds = ["cmp", "textcmp", "null", "in", "between", "like"]
    if depth > 0:
        kinds += ["not", "and", "or"]
    kind = draw(st.sampled_from(kinds))
    cmp = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
    if kind == "cmp":
        return f"{draw(numeric(columns, 1))} {draw(cmp)} {draw(numeric(columns, 1))}"
    if kind == "textcmp":
        literal = draw(st.sampled_from(["'ab'", "'b'", "'k20'", "'AB'"]))
        return f"{draw(textual(columns))} {draw(cmp)} {literal}"
    if kind == "null":
        column = draw(st.sampled_from(columns))
        return f"{column} IS {draw(st.sampled_from(['', 'NOT ']))}NULL"
    negated = draw(st.sampled_from(["", "NOT "]))
    if kind == "in":
        item = st.integers(0, 20).map(str) | st.just("NULL")
        items = draw(st.lists(item, min_size=1, max_size=4))
        return f"{draw(numeric(columns, 1))} {negated}IN ({', '.join(items)})"
    if kind == "between":
        low, high = draw(st.integers(-2, 12)), draw(st.integers(0, 20))
        return f"{draw(numeric(columns, 1))} {negated}BETWEEN {low} AND {high}"
    if kind == "like":
        pieces = draw(st.lists(st.sampled_from("aAbBc%_1k"), min_size=1, max_size=4))
        return f"{draw(textual(columns))} {negated}LIKE '{''.join(pieces)}'"
    if kind == "not":
        return f"NOT ({draw(predicate(columns, depth - 1))})"
    left = draw(predicate(columns, depth - 1))
    right = draw(predicate(columns, depth - 1))
    return f"({left}) {kind.upper()} ({right})"


@st.composite
def order_and_limit(draw, aliases: list[str]):
    """ORDER BY and LIMIT/OFFSET holes, and whether the order is total."""
    if not draw(st.booleans()):
        return [], False
    keys = draw(st.permutations(aliases))
    parts = [" ORDER BY "]
    parts += _join([("order", key, draw(st.booleans())) for key in keys], ", ")
    limit = draw(st.none() | st.integers(0, 12))
    offset = draw(st.none() | st.integers(0, 6))
    if limit is not None or offset is not None:
        parts.append(("limit", limit, offset))
    return parts, True


def _columns(alias: str) -> list[str]:
    return [f"{alias}.{name}" for name, _kind in SCHEMA]


@st.composite
def plain_select(draw) -> Query:
    columns = _columns("x")
    items = draw(
        st.lists(
            st.one_of(numeric(columns), textual(columns), st.sampled_from(columns)),
            min_size=1,
            max_size=4,
        )
    )
    listed, aliases = _select_list(items)
    parts = ["SELECT ", "DISTINCT " if draw(st.booleans()) else "", *listed]
    parts += [" FROM ", ("from", "x", draw(st.integers(1, VERSIONS)))]
    if draw(st.booleans()):
        parts += [" WHERE ", draw(predicate(columns))]
    tail, total = draw(order_and_limit(aliases))
    return Query(parts + tail, total)


#: Aggregate arguments: columns, and sums that stay exact in floating point.
NUMBERS = ["x.a", "x.b", "x.f", "(x.a * x.b)", "(x.f + x.a)"]


@st.composite
def grouped_select(draw) -> Query:
    columns = _columns("x")
    keys = draw(
        st.lists(st.sampled_from(["x.g", "x.b", "x.a"]), max_size=2, unique=True)
    )
    aggregates = draw(
        st.lists(
            st.one_of(
                st.just("count(*)"),
                st.sampled_from(columns).map(lambda c: f"count({c})"),
                st.sampled_from(NUMBERS[:3]).map(lambda c: f"count(DISTINCT {c})"),
                st.tuples(
                    st.sampled_from(["sum", "avg", "min", "max"]),
                    st.sampled_from(NUMBERS),
                ).map(lambda t: f"{t[0]}({t[1]})"),
                st.sampled_from(["min", "max"]).map(lambda f: f"{f}(x.g)"),
            ),
            min_size=1,
            max_size=3,
        )
    )
    items = keys + aggregates
    listed, aliases = _select_list(items)
    parts = ["SELECT ", *listed]
    parts += [" FROM ", ("from", "x", draw(st.integers(1, VERSIONS)))]
    if draw(st.booleans()):
        parts += [" WHERE ", draw(predicate(columns, 1))]
    if keys:
        parts.append(" GROUP BY " + ", ".join(keys))
        if draw(st.booleans()):
            aggregate = draw(st.sampled_from(["count(*)", "sum(x.a)", "max(x.b)"]))
            op = draw(st.sampled_from([">", ">=", "<", "="]))
            parts.append(f" HAVING {aggregate} {op} {draw(st.integers(0, 30))}")
    tail, total = draw(order_and_limit(aliases))
    return Query(parts + tail, total)


@st.composite
def window_select(draw) -> Query:
    columns = _columns("x")
    name = draw(st.sampled_from(["row_number", "rank", "dense_rank"]))
    over = []
    if draw(st.booleans()):
        over.append(f"PARTITION BY {draw(st.sampled_from(['x.g', 'x.b']))}")
    keys = draw(st.lists(st.sampled_from(["x.a", "x.b", "x.f", "x.g"]), max_size=2))
    if name == "row_number":
        keys.append("x.k")  # row_number's peers must not tie
    order = [("order", key, draw(st.booleans())) for key in keys]
    items = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3))
    listed, aliases = _select_list(items)
    aliases.append(f"o{len(items)}")
    parts = ["SELECT ", *listed, f", {name}() OVER ("]
    parts.append(" ".join(over))
    if order:
        parts.append(" ORDER BY " if over else "ORDER BY ")
        parts += _join(order, ", ")
    parts += [f") AS {aliases[-1]} FROM "]
    parts.append(("from", "x", draw(st.integers(1, VERSIONS))))
    if draw(st.booleans()):
        parts += [" WHERE ", draw(predicate(columns, 1))]
    tail, total = draw(order_and_limit(aliases))
    return Query(parts + tail, total)


@st.composite
def join_select(draw) -> Query:
    columns = _columns("x") + _columns("y")
    key = draw(st.sampled_from(["k", "g", "a"]))
    items = draw(
        st.lists(
            st.one_of(st.sampled_from(columns), numeric(columns, 1)),
            min_size=1,
            max_size=3,
        )
    )
    listed, aliases = _select_list(items)
    parts = ["SELECT ", *listed]
    parts += [" FROM ", ("from", "x", draw(st.integers(1, VERSIONS))), ", "]
    parts += [("from", "y", draw(st.integers(1, VERSIONS)))]
    parts.append(f" WHERE x.{key} = y.{key}")
    if draw(st.booleans()):
        parts += [" AND (", draw(predicate(columns, 1)), ")"]
    tail, total = draw(order_and_limit(aliases))
    return Query(parts + tail, total)


QUERIES = st.one_of(plain_select(), grouped_select(), window_select(), join_select())


# --------------------------------------------------------------- the check


def assert_agrees(engines, query: Query) -> None:
    orpheus, lite = engines
    for cvd in CVDS:
        ours_sql, lite_sql = query.render("orpheus", cvd), query.render("sqlite", cvd)
        ours = [tuple(row) for row in orpheus.run(ours_sql).rows]
        theirs = [tuple(row) for row in lite.execute(lite_sql).fetchall()]
        if query.total_order:
            assert ours == theirs, (ours_sql, lite_sql)
        else:
            assert Counter(ours) == Counter(theirs), (ours_sql, lite_sql)


@settings(max_examples=300, deadline=None)
@given(query=QUERIES)
def test_versioned_selects_agree_with_sqlite(engines, query):
    assert_agrees(engines, query)


@pytest.mark.parametrize(
    "parts, total",
    [
        # NULLs last ascending, first descending.
        (["SELECT x.a AS o0 FROM ", ("from", "x", 1), " ORDER BY ",
          ("order", "o0", False)], True),
        (["SELECT x.a AS o0 FROM ", ("from", "x", 1), " ORDER BY ",
          ("order", "o0", True)], True),
        # Case-sensitive LIKE, and `_` / `%` as wildcards.
        (["SELECT x.k AS o0 FROM ", ("from", "x", 2), " WHERE x.g LIKE 'a%'"], False),
        (["SELECT x.k AS o0 FROM ", ("from", "x", 2), " WHERE x.g LIKE 'b_c'"], False),
        # Flooring / truncating agree on non-negative operands.
        (["SELECT x.a / 3 AS o0, x.a % 4 AS o1 FROM ", ("from", "x", 3)], False),
        # An offset without a limit.
        (["SELECT x.k AS o0 FROM ", ("from", "x", 4), " ORDER BY ",
          ("order", "o0", True), ("limit", None, 5)], True),
        # Rank ties and dense ranks over NULL keys.
        (["SELECT x.k AS o0, rank() OVER (PARTITION BY x.g ORDER BY ",
          ("order", "x.b", False), ") AS o1, dense_rank() OVER (ORDER BY ",
          ("order", "x.a", True), ") AS o2 FROM ", ("from", "x", 5)], False),
        # Many-to-many equi-join of two versions.
        (["SELECT x.k AS o0, y.k AS o1 FROM ", ("from", "x", 2), ", ",
          ("from", "y", 7), " WHERE x.g = y.g"], False),
        # A miss against a list holding NULL is NULL, so NOT IN keeps nothing.
        (["SELECT x.k AS o0 FROM ", ("from", "x", 3),
          " WHERE x.a NOT IN (1, NULL) OR x.b IN (2, NULL)"], False),
        (["SELECT x.k AS o0 FROM ", ("from", "x", 2), " WHERE x.a NOT IN ",
          "(SELECT y.b FROM ", ("from", "y", 5), ")"], False),
        # Nothing is in an empty set, not even NULL.
        (["SELECT x.k AS o0 FROM ", ("from", "x", 2), " WHERE NOT (x.a IN ",
          "(SELECT y.a FROM ", ("from", "y", 3), " WHERE y.a > 100))"], False),
    ],
)
def test_pinned_cases_agree(engines, parts, total):
    assert_agrees(engines, Query(parts, total))
