"""The bytes path: L1 holds encoded reply lines, not rows.

A served ``checkout``/``query`` line must be byte-identical to
``json.dumps`` of the reply dict built from an uncached store open — on a
miss and an L1 hit, ``"rows": true`` and ``false`` in either order — a
hit must encode nothing, and in-process callers must still get the
engine's Python rows back.  A checkout line is a join of the
session's record lines, so it must stay byte-identical after every change
that can alter a record's bytes: SQL on a CVD's data table, schema
evolution, a drop and re-init of the name, a migration and a reload.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persist import Store
from repro.core.orpheus import OrpheusDB
from repro.serve import ServeManager
from repro.serve import manager as manager_module
from repro.serve.server import checkout_response, handle_line

from test_obs import captured_spans  # noqa: F401 (a fixture)
from test_persist_readonly import build_store

pytestmark = pytest.mark.timeout(120)

#: Every DataType, and the values JSON encodes with care: NULL, NaN, ±inf,
#: -0.0, non-ASCII and escapes (``ensure_ascii``), booleans, an int past
#: 64 bits, and int[] of length 0, 1 and n.
SCHEMA = [
    ("i", "int"),
    ("d", "decimal"),
    ("s", "text"),
    ("b", "boolean"),
    ("a", "int[]"),
]
ROWS = [
    (1, 1.5, "plain", True, (1, 2, 3)),
    (2, float("nan"), "héllo ✓ 𝄞  ", False, ()),
    (3, float("inf"), None, None, (7,)),
    (4, float("-inf"), "", True, None),
    (5, -0.0, 'quote " back \\ nl \n', False, (2**40, -5)),
    (2**70, None, "tab\t", None, (0,)),
    (None, 0.1 + 0.2, "x", True, (1,)),
]
CHECKOUT = {"op": "checkout", "cvd": "every", "vids": [2, 1]}
LEAN = {**CHECKOUT, "rows": False}
QUERY = {
    "op": "query",
    "sql": "SELECT i, d, s, a FROM VERSION 2 OF CVD every WHERE b OR b IS NULL",
}


def encoded(request: dict) -> bytes:
    return json.dumps(request).encode()


def reference(path, request: dict) -> bytes:
    """The reply line as the parent built it: ``json.dumps`` of the reply
    dict over rows from a fresh, uncached read-only open."""
    store = Store.open(path, mode="ro")
    try:
        orpheus = store.orpheus
        if request["op"] == "query":
            result = orpheus.run(request["sql"], request.get("params", ()))
            response = {
                "ok": True,
                "columns": result.columns,
                "rows": result.rows,
                "count": result.rowcount,
                "lsn": store.last_lsn,
            }
        else:
            rows = orpheus.checkout_rows(request["cvd"], request["vids"])
            schema = orpheus.cvd(request["cvd"]).data_schema
            response = checkout_response(
                ["rid", *schema.column_names],
                rows,
                store.last_lsn,
                include_rows=request.get("rows", True),
            )
    finally:
        store.close()
    return json.dumps(response).encode() + b"\n"


def build_every(orpheus, rows=ROWS) -> None:
    """CVD ``every``: v1 holds ``rows``, v2 changes one record of it."""
    orpheus.init("every", SCHEMA, rows=rows)
    orpheus.checkout("every", 1, table_name="w")
    orpheus.run("UPDATE w SET d = 2.5 WHERE i = 1")
    orpheus.commit("w", message="v2")


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "s"
    store = Store.open(path)
    build_every(store.orpheus)
    store.close()
    return path


@pytest.fixture
def manager(store_path):
    with ServeManager(store_path, readers=1, writer=False) as served:
        yield served


class TestByteIdentity:
    @pytest.mark.parametrize("order", [(CHECKOUT, LEAN), (LEAN, CHECKOUT)])
    def test_checkout_lines_on_miss_and_l1_hits(self, store_path, manager, order):
        for request in (*order, *order):
            assert handle_line(manager, encoded(request))[0] == reference(
                store_path, request
            )
        assert manager.cache.stats.misses == 1 and manager.cache.stats.hits == 3

    def test_query_lines_on_miss_and_l1_hit(self, store_path, manager):
        expected = reference(store_path, QUERY)
        for _ in range(2):
            assert handle_line(manager, encoded(QUERY))[0] == expected
        assert manager.cache.stats.hits == 1


def test_a_hit_encodes_nothing(manager, monkeypatch):
    for request in (CHECKOUT, LEAN, QUERY):
        handle_line(manager, encoded(request))
    lines = [encoded(request) for request in (CHECKOUT, LEAN, QUERY)]
    calls = []
    real_dumps = json.dumps

    def counting_dumps(obj, *args, **kwargs):
        if isinstance(obj, dict):  # a reply, not a query's params key
            calls.append(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    for line in lines * 2:
        assert handle_line(manager, line)[0].startswith(b'{"ok": true')
    assert calls == []


def test_racing_first_hits_and_lean_lines_stay_byte_identical(store_path):
    """Eight threads over four sessions race the misses, the first hits
    that re-cache entries with their record lines joined, and the lazy
    ``"rows": false`` memo."""
    requests = (CHECKOUT, LEAN, QUERY, {**CHECKOUT, "vids": [1]})
    expected = {encoded(r): reference(store_path, r) for r in requests}
    lines = list(expected)
    wrong = []

    def hammer(offset: int) -> None:
        for i in range(40):
            line = lines[(offset + i) % len(lines)]
            if handle_line(served, line)[0] != expected[line]:
                wrong.append(line)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServeManager(store_path, readers=4, writer=False) as served:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert served.cache.stats.hits + served.cache.stats.misses == 320
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_in_process_callers_get_engine_rows_on_miss_and_hit(store_path, manager):
    fresh = Store.open(store_path, mode="ro")
    rows = fresh.orpheus.checkout_rows("every", [2, 1])
    result = fresh.orpheus.run(QUERY["sql"])
    fresh.close()
    # repr, not ==: it tells tuples from lists and 1 from 1.0, and NaN
    # (never == itself) from anything else.
    for _ in range(2):  # miss, then hit
        assert repr(manager.checkout("every", [2, 1])) == repr(rows)
        assert repr(manager.checkout_payload("every", [2, 1])[1]) == repr(rows)
        got = manager.query(QUERY["sql"])
        assert got.columns == result.columns and got.rowcount == result.rowcount
        assert repr(got.rows) == repr(result.rows)
    assert manager.cache.stats.misses == 2 and manager.cache.stats.hits == 4


@pytest.mark.parametrize("capacity, held", [(1, [7, 1, 1]), (0, [0, 0, 0])])
def test_record_lines_stay_within_the_budget(store_path, monkeypatch, capacity, held):
    """A budget of 7 lines: v1 fills 7, v2's one new record starts the map
    over, and the 8 rows of [2, 1] are encoded whole; capacity 0 holds no
    line.  Every line stays the reference line."""
    monkeypatch.setattr(manager_module, "LINES_PER_ENTRY", 7)
    got = []
    with ServeManager(store_path, 1, capacity, writer=False) as served:
        for vids in ([1], [2], [2, 1]):
            request = {**CHECKOUT, "vids": vids}
            line = handle_line(served, encoded(request))[0]
            assert line == reference(store_path, request)
            got.append(served.status()["cache"]["record_lines"])
    assert got == held


VALUE = st.tuples(
    st.none() | st.integers(-(2**70), 2**70),
    st.none() | st.floats(),
    st.none() | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.none() | st.booleans(),
    st.none() | st.lists(st.integers(-(2**70), 2**70), max_size=3).map(tuple),
)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(VALUE, min_size=1, max_size=6),
    kept=st.lists(st.booleans(), min_size=6, max_size=6),
    added=st.lists(VALUE, max_size=4),
)
def test_a_joined_line_is_the_encoded_reply(rows, kept, added):
    """v2 drops and adds records of v1; every single- and multi-version
    line, rows or not, is the reference line, whichever checkout first
    encoded the records it shares.  A column may hold only NULLs: the
    staged table carries the CVD's declared types, so the commit keeps
    them."""
    with tempfile.TemporaryDirectory() as scratch:
        path = f"{scratch}/s"
        store = Store.open(path)
        orpheus = store.orpheus
        orpheus.init("every", SCHEMA, rows=rows)
        orpheus.checkout("every", 1, table_name="w")
        for rid, keep in zip(range(1, len(rows) + 1), kept):
            if not keep:
                orpheus.run("DELETE FROM w WHERE rid = ?", [rid])
        for row in added:
            orpheus.run("INSERT INTO w (i, d, s, b, a) VALUES (?, ?, ?, ?, ?)", row)
        orpheus.commit("w", message="v2")
        store.close()
        requests = [
            {**CHECKOUT, "vids": vids, "rows": full}
            for vids in ([1], [2], [2, 1], [1, 2])
            for full in (True, False)
        ]
        expected = [reference(path, request) for request in requests]
        with ServeManager(path, readers=1, writer=False) as served:
            for _ in range(2):  # misses, then L1 hits
                got = [handle_line(served, encoded(r))[0] for r in requests]
                assert got == expected


@pytest.mark.parametrize("array_value", [(1,), None])
def test_an_unchanged_commit_keeps_all_null_column_types(array_value):
    """Committing a checkout of a version whose decimal and boolean
    columns (and maybe its ``int[]`` column) hold only NULLs keeps every
    declared type."""
    orpheus = OrpheusDB()
    orpheus.init("e", SCHEMA, rows=[(1, None, None, None, array_value)])
    before = orpheus.cvd("e").data_schema
    orpheus.checkout("e", 1, table_name="w")
    orpheus.commit("w", message="unchanged")
    assert orpheus.cvd("e").data_schema == before


def _update_data_by_sql(store) -> None:
    store.orpheus.run("UPDATE every__data SET s = 'rewritten' WHERE i = 1")


def _add_column(store) -> None:
    orpheus = store.orpheus
    orpheus.checkout("every", 2, table_name="x")
    orpheus.run("ALTER TABLE x ADD COLUMN c int")
    orpheus.run("UPDATE x SET c = 7 WHERE i = 2")
    orpheus.commit("x", message="v3")


def _drop_and_reinit(store) -> None:
    store.orpheus.drop("every")
    build_every(store.orpheus, ROWS[::-1])


def _optimize_and_migrate(store) -> None:
    orpheus = store.orpheus
    orpheus.optimize("every")
    orpheus.checkout("every", 2, table_name="x")
    orpheus.run("DELETE FROM x WHERE i = 2")
    orpheus.commit("x", message="v3")
    optimizer = orpheus.optimize("every", storage_threshold=1.0)
    assert optimizer.trace.migrations


def _reload_behind_checkpoint(store) -> None:
    orpheus = store.orpheus
    orpheus.checkout("every", 2, table_name="x")
    orpheus.run("UPDATE x SET s = 'moved' WHERE i = 3")
    orpheus.commit("x", message="v3")
    store.checkpoint()


CHANGES = {
    "update_data_by_sql": _update_data_by_sql,
    "add_column": _add_column,
    "drop_and_reinit": _drop_and_reinit,
    "optimize_and_migrate": _optimize_and_migrate,
    "reload_behind_checkpoint": _reload_behind_checkpoint,
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_lines_stay_byte_identical_across_a_change(store_path, manager, change):
    """Each change reaches the served session through the refresh that
    names it; the session's record lines must not outlive it."""
    requests = (CHECKOUT, LEAN, {**CHECKOUT, "vids": [1]})
    before = [handle_line(manager, encoded(r))[0] for r in requests]
    writer = Store.open(store_path)  # closing it would checkpoint
    try:
        CHANGES[change](writer)
        with manager.session(refresh=False) as session:
            result = session.refresh(force=True)
        assert result.full_reload == (change == "reload_behind_checkpoint")
        for request, old in zip(requests, before):
            line = handle_line(manager, encoded(request))[0]
            assert line == reference(store_path, request)
            if change == "update_data_by_sql" and request is CHECKOUT:
                assert b"rewritten" in line and b"rewritten" not in old
    finally:
        writer.close()


def test_a_miss_opens_compute_and_encode_spans(manager, captured_spans):  # noqa: F811
    for request in (CHECKOUT, CHECKOUT, QUERY):  # miss, hit, miss
        handle_line(manager, encoded(request))
    names = [span["span"] for span in captured_spans]
    requests = [span for span in captured_spans if span["span"] == "serve.request"]
    assert len(requests) == 3
    assert names.count("serve.compute") == names.count("serve.encode") == 2
    for span in captured_spans:
        if span["span"] in ("serve.compute", "serve.encode"):
            assert span["parent_id"] in {r["span_id"] for r in requests}


def test_status_reports_record_lines_and_what_entries_hold(manager):
    reply = json.loads(handle_line(manager, encoded(CHECKOUT))[0])
    status = manager.status()
    [session] = status["sessions"]
    held = {row[0]: json.dumps(row).encode() for row in reply["rows"]}
    assert session["record_lines"] == status["cache"]["record_lines"] == len(held)
    assert session["record_line_bytes"] == sum(map(len, held.values()))
    # The unhit entry holds its head and a pointer per record line.
    assert status["cache"]["bytes"] < sum(map(len, held.values()))
    metrics = manager.stats_snapshot()["metrics"]["serve"]
    assert metrics["session_0"]["record_lines"] == len(held)
    assert metrics["cache"]["record_line_bytes"] == session["record_line_bytes"]


class TestQueryParamsKeyTheCache:
    """Params are keyed by their JSON text: arrays and objects hash, and
    ``1``, ``1.0`` and ``true`` stay three entries."""

    @pytest.fixture
    def small(self, tmp_path):
        build_store(tmp_path / "s", versions=4).close()
        with ServeManager(tmp_path / "s", readers=1, writer=False) as served:
            yield served

    def test_array_and_object_params(self, small):
        sql = "SELECT k FROM VERSION 4 OF CVD t WHERE ARRAY[v] <@ ? ORDER BY k"
        by_array = {"op": "query", "sql": sql, "params": [[1, 2]]}
        by_object = {**by_array, "params": [{"a": 1}]}
        by_object["sql"] = "SELECT k FROM VERSION 4 OF CVD t WHERE v = ?"
        for _ in range(2):  # miss, then hit
            rows = small.query(sql, [[1, 2]]).rows
            assert rows == [("a",), ("b",), ("n1",), ("n2",)]
            reply = json.loads(handle_line(small, encoded(by_array))[0])
            assert reply["rows"] == [["a"], ["b"], ["n1"], ["n2"]]
            reply = json.loads(handle_line(small, encoded(by_object))[0])
            assert reply["ok"] and reply["rows"] == [], reply
        assert small.cache.stats.hits >= 2

    def test_equal_python_values_are_distinct_keys(self, small):
        for _ in range(2):
            for value in (1, True, 1.0):
                rows = small.query("SELECT ? AS x", [value]).rows
                assert repr(rows) == repr([(value,)])
        assert small.cache.stats.misses == 3 and small.cache.stats.hits == 3
