"""The bytes path: L1 and L2 hold encoded reply lines, not rows.

A served ``checkout``/``query`` line must be byte-identical to
``json.dumps`` of the reply dict built from an uncached store open — on a
miss, an L1 hit and an L2 hit, ``"rows": true`` and ``false`` in either
order — a hit must encode nothing, and in-process callers must still get
the engine's Python rows back.
"""

from __future__ import annotations

import json
import sys
import threading
import zlib

import pytest

from repro.persist import Store
from repro.serve import ServeManager
from repro.serve.server import checkout_response, handle_line
from repro.serve.sharedcache import CacheClient, CacheOwner

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


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "s"
    store = Store.open(path)
    store.orpheus.init("every", SCHEMA, rows=ROWS)
    store.orpheus.checkout("every", 1, table_name="w")
    store.orpheus.run("UPDATE w SET d = 2.5 WHERE i = 1")
    store.orpheus.commit("w", message="v2")
    store.close()
    return path


@pytest.fixture
def manager(store_path):
    with ServeManager(store_path, readers=1, writer=False) as served:
        yield served


@pytest.fixture
def workers(store_path, tmp_path):
    """Two pre-fork-style managers, each over its own read-only store,
    sharing one L2 owner."""
    owner = CacheOwner(str(tmp_path / "l2.sock")).start()
    managers = [
        ServeManager.over_inherited_store(
            Store.open(store_path, mode="ro"), 256, CacheClient(owner.path), worker
        )
        for worker in (0, 1)
    ]
    try:
        yield managers
    finally:
        for served in managers:
            served.close()
        owner.close()


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

    @pytest.mark.parametrize("order", [(CHECKOUT, LEAN), (LEAN, CHECKOUT)])
    def test_checkout_lines_on_l2_hits(self, store_path, workers, order):
        first, second = workers
        for request in order:
            expected = reference(store_path, request)
            for served in workers:
                assert handle_line(served, encoded(request))[0] == expected
        # The second worker's first request was its L1 miss and an L2 hit.
        assert first.l2.stats()["hits"] == 1
        assert second.cache.stats.misses == 1


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
    that re-cache entries inflated and the lazy ``"rows": false`` memo."""
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


def test_the_l2_value_is_the_l1_bytes(workers, monkeypatch):
    served = workers[0]
    puts = []
    put = served.l2.put

    def recording_put(key, blob):
        puts.append((key, blob))
        put(key, blob)

    monkeypatch.setattr(served.l2, "put", recording_put)
    sent = handle_line(served, encoded(CHECKOUT))[0]
    [(key, blob)] = puts
    assert blob == served.cache.get(key).body  # no pickle: the L1 entry's bytes
    assert zlib.decompress(blob) + b"\n" == sent


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
