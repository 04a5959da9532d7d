"""The serving layer: cache semantics, session pool, concurrent clients.

Cache correctness rests on lsn-tagged keys (state at an lsn is a pure
function of the log); the invalidation tests therefore check both that
results are *right* after a change and that stale entries are actually
*evicted* (memory hygiene) for commits, schema evolution, and partition
migration — the three invalidation sources named by the tentpole.
"""

import threading

from pytest import raises

from repro.errors import PersistenceError, ReadOnlyError
from repro.persist import Store
from repro.serve import (
    CheckoutCache,
    ServeManager,
    ServeServer,
    checkout_key,
    request,
)

from test_persist_readonly import build_store


class TestCheckoutCache:
    def test_hit_miss_and_eviction(self):
        cache = CheckoutCache(capacity=2)
        key_a = checkout_key("t", [1], 5)
        key_b = checkout_key("t", [2], 5)
        key_c = checkout_key("t", [3], 5)
        assert cache.get(key_a) is None
        cache.put(key_a, ["ra"])
        cache.put(key_b, ["rb"])
        assert cache.get(key_a) == ["ra"]  # refreshes LRU position
        cache.put(key_c, ["rc"])  # evicts b, the least recent
        assert cache.get(key_b) is None
        assert cache.get(key_a) == ["ra"]
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 2 and cache.stats.misses == 2

    def test_vid_order_is_significant(self):
        # The first listed version wins primary-key conflicts, so [3, 5]
        # and [5, 3] are different results and must never share an entry.
        assert checkout_key("t", [3, 5], 7) != checkout_key("t", [5, 3], 7)
        assert checkout_key("t", 3, 7) == checkout_key("t", [3], 7)

    def test_lsn_isolates_generations(self):
        cache = CheckoutCache()
        cache.put(checkout_key("t", [1], 5), ["old"])
        assert cache.get(checkout_key("t", [1], 6)) is None

    def test_invalidate_by_cvd_and_lsn(self):
        cache = CheckoutCache()
        cache.put(checkout_key("a", [1], 5), "a5")
        cache.put(checkout_key("b", [1], 5), "b5")
        cache.put(checkout_key("a", [1], 9), "a9")
        dropped = cache.invalidate(cvds={"a"}, below_lsn=9)
        assert dropped == 1
        assert cache.get(checkout_key("a", [1], 9)) == "a9"
        assert cache.get(checkout_key("b", [1], 5)) == "b5"

    def test_bytes_stat_follows_put_evict_invalidate_and_clear(self):
        cache = CheckoutCache(capacity=2)

        def resident() -> int:
            return cache.stats_dict()["bytes"]

        cache.put(checkout_key("a", [1], 5), b"x" * 10)
        cache.put(checkout_key("a", [1], 5), b"x" * 30)  # replaced, not added
        cache.put(checkout_key("b", [1], 5), b"y" * 7)
        assert resident() == 37
        cache.put(checkout_key("c", [1], 5), b"z" * 5)  # evicts a
        assert resident() == 12
        cache.invalidate(cvds={"b"})
        assert resident() == 5
        cache.clear()
        assert resident() == 0 and cache.stats_dict()["entries"] == 0

    def test_invalidate_queries_conservatively(self):
        from repro.serve import query_key

        cache = CheckoutCache()
        cache.put(query_key("SELECT 1", (), 5), "q")
        cache.put(checkout_key("b", [1], 5), "b5")
        # A run record touches no CVD but makes any query result suspect.
        cache.invalidate(cvds=set(), below_lsn=6, queries=True)
        assert cache.get(query_key("SELECT 1", (), 5)) is None
        assert cache.get(checkout_key("b", [1], 5)) == "b5"


class TestServeManager:
    def test_serves_correct_checkouts_and_caches(self, tmp_path):
        build_store(tmp_path / "s").close()
        with ServeManager(tmp_path / "s", readers=2) as manager:
            expected = manager.writer.checkout_rows("t", [1, 3])
            assert manager.checkout("t", [1, 3]) == expected
            assert manager.checkout("t", [1, 3]) == expected  # cache hit
            assert manager.cache.stats.hits >= 1

    def test_cache_respects_checkout_order_precedence(self, tmp_path):
        """Regression: [2, 3] and [3, 2] resolve PK conflicts differently
        (first listed wins), so the cache must not collapse them."""
        store = Store.open(tmp_path / "s", checkpoint_interval=0)
        orpheus = store.orpheus
        orpheus.init(
            "t", [("k", "text"), ("v", "int")], rows=[("a", 1)], primary_key=("k",)
        )
        for vid, value in ((1, 10), (1, 20)):  # two conflicting edits of 'a'
            work = f"w{value}"
            orpheus.checkout("t", vid, table_name=work)
            orpheus.run(f"UPDATE {work} SET v = {value} WHERE k = 'a'")
            orpheus.commit(work, message=f"a={value}")
        store.close()
        with ServeManager(tmp_path / "s", readers=1) as manager:
            forward = manager.checkout("t", [2, 3])
            backward = manager.checkout("t", [3, 2])
            assert [r[2] for r in forward if r[1] == "a"] == [10]
            assert [r[2] for r in backward if r[1] == "a"] == [20]
            # ...and repeats of each order still hit the cache.
            assert manager.checkout("t", [3, 2]) == backward
            assert manager.cache.stats.hits >= 1

    def test_commit_invalidates_and_readers_catch_up(self, tmp_path):
        build_store(tmp_path / "s").close()
        with ServeManager(tmp_path / "s", readers=2) as manager:
            assert len(manager.checkout("t", 3)) == 4
            with manager.write() as writer:
                writer.checkout("t", 3, table_name="w")
                writer.run("INSERT INTO w (k, v) VALUES ('z', 9)")
                writer.commit("w", message="v4")
            rows = manager.checkout("t", 4)
            assert sorted(r[1] for r in rows)[-1] == "z"
            assert manager.cache.stats.invalidated >= 1
            # Both sessions converge on the writer's lsn as they serve.
            manager.checkout("t", 4)
            status = manager.status()
            lsns = {s["lsn"] for s in status["sessions"]}
            assert lsns == {status["writer_lsn"]}

    def test_schema_evolution_invalidates(self, tmp_path):
        build_store(tmp_path / "s").close()
        with ServeManager(tmp_path / "s", readers=1) as manager:
            manager.checkout("t", 3)
            with manager.write() as writer:
                writer.checkout("t", 3, table_name="w")
                writer.run("ALTER TABLE w ADD COLUMN note text")
                writer.run("UPDATE w SET note = 'x' WHERE k = 'a'")
                writer.commit("w", message="wider")
            columns, rows, _lsn = manager.checkout_payload("t", 4)
            assert columns == ["rid", "k", "v", "note"]
            assert "x" in {r[3] for r in rows}
            assert manager.cache.stats.invalidated >= 1

    def test_partition_migration_invalidates(self, tmp_path):
        build_store(tmp_path / "s", versions=6).close()
        with ServeManager(tmp_path / "s", readers=1) as manager:
            before = manager.checkout("t", 6)
            with manager.write() as writer:
                writer.optimize("t", storage_threshold=4.0, tolerance=1.2)
            assert manager.checkout("t", 6) == before  # same logical rows
            assert manager.cache.stats.invalidated >= 1
            session = manager._sessions[0]
            model = session.orpheus.cvd("t").model
            assert model.model_name == "partitioned_rlist"

    def test_query_caching_and_invalidation(self, tmp_path):
        build_store(tmp_path / "s").close()
        with ServeManager(tmp_path / "s", readers=1) as manager:
            sql = "SELECT count(*) FROM VERSION 3 OF CVD t"
            assert manager.query(sql).rows == [(4,)]
            assert manager.query(sql).rows == [(4,)]
            assert manager.cache.stats.hits >= 1
            with manager.write() as writer:
                writer.checkout("t", 3, table_name="w")
                writer.run("INSERT INTO w (k, v) VALUES ('q', 1)")
                writer.commit("w", message="v4")
            assert manager.query(
                "SELECT count(*) FROM VERSION 4 OF CVD t"
            ).rows == [(5,)]

    def test_close_wakes_borrowers_blocked_on_the_pool(self, tmp_path):
        """Regression: close() used to swap the idle queue for a fresh
        one, so a thread already blocked in session() hung forever."""
        build_store(tmp_path / "s").close()
        manager = ServeManager(tmp_path / "s", readers=1)
        entered = threading.Event()
        outcome: list = []

        def hold_then_release():
            with manager.session() as _session:
                entered.set()
                released.wait(timeout=10)

        def blocked_borrower():
            entered.wait(timeout=10)
            try:
                with manager.session():
                    outcome.append("served")
            except PersistenceError:
                outcome.append("closed")

        released = threading.Event()
        holder = threading.Thread(target=hold_then_release)
        waiter = threading.Thread(target=blocked_borrower)
        holder.start()
        waiter.start()
        entered.wait(timeout=10)
        # waiter is (about to be) blocked on the empty pool; close must
        # wake it with a clean error, not leave it hanging.
        manager.close()
        released.set()
        waiter.join(timeout=10)
        holder.join(timeout=10)
        assert not waiter.is_alive()
        assert outcome == ["closed"]
        # The borrowed session was retired by its borrower, the writer
        # lock released by close: a fresh writer can open.
        Store.open(tmp_path / "s").close()

    def test_sessions_reject_writes(self, tmp_path):
        build_store(tmp_path / "s").close()
        with ServeManager(tmp_path / "s", readers=1) as manager:
            with manager.session() as session:
                with raises(ReadOnlyError):
                    session.orpheus.run("INSERT INTO t__meta (vid) VALUES (9)")

    def test_follower_mode_sees_external_writer(self, tmp_path):
        writer = build_store(tmp_path / "s")
        with ServeManager(tmp_path / "s", readers=2, writer=False) as manager:
            assert manager.writer is None
            with raises(PersistenceError):
                with manager.write():
                    pass
            assert len(manager.checkout("t", 3)) == 4
            writer.orpheus.checkout("t", 3, table_name="w")
            writer.orpheus.run("INSERT INTO w (k, v) VALUES ('ext', 1)")
            writer.orpheus.commit("w", message="external v4")
            # Follower polls the WAL tail on every borrow.
            assert len(manager.checkout("t", 4)) == 5
        writer.close()

    def test_concurrent_checkouts_are_consistent(self, tmp_path):
        build_store(tmp_path / "s", versions=5).close()
        with ServeManager(tmp_path / "s", readers=4) as manager:
            expected = {
                vid: manager.writer.checkout_rows("t", vid)
                for vid in range(1, 6)
            }
            errors = []

            def hammer(worker: int):
                try:
                    for i in range(40):
                        vid = (worker + i) % 5 + 1
                        assert manager.checkout("t", vid) == expected[vid]
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            status = manager.status()
            assert status["cache"]["hits"] > 0

    def test_concurrent_reads_while_writer_commits(self, tmp_path):
        build_store(tmp_path / "s").close()
        with ServeManager(tmp_path / "s", readers=3) as manager:
            stop = threading.Event()
            errors = []

            def read_loop():
                while not stop.is_set():
                    try:
                        for vid in range(1, 4):
                            rows = manager.checkout("t", vid)
                            assert rows, f"empty checkout for v{vid}"
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=read_loop) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                for round_number in range(5):
                    with manager.write() as writer:
                        vid = writer.cvd("t").version_count
                        work = f"c{round_number}"
                        writer.checkout("t", vid, table_name=work)
                        writer.run(
                            f"INSERT INTO {work} (k, v) "
                            f"VALUES ('c{round_number}', {round_number})"
                        )
                        writer.commit(work, message=f"concurrent {round_number}")
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert errors == []
            assert manager.writer.cvd("t").version_count == 8


class TestServeServer:
    def test_pool_shape_and_shutdown_op(self, tmp_path):
        # What each op answers is pinned once for both topologies in
        # test_serve_protocol.py; here only what the threaded pool adds.
        build_store(tmp_path / "s").close()
        server = ServeServer(ServeManager(tmp_path / "s", readers=2)).start()
        host, port = server.address
        try:
            status = request(host, port, {"op": "status"})["status"]
            assert status["readers"] == 2 and status["mode"] == "writer"
            assert status["writer_lsn"] == status["lsn"]
            refreshed = request(host, port, {"op": "refresh"})
            assert refreshed["ok"] and len(refreshed["sessions"]) == 2
            assert refreshed["busy"] == 0
            assert request(host, port, {"op": "shutdown"})["ok"]
        finally:
            server.shutdown()

    def test_concurrent_tcp_clients(self, tmp_path):
        build_store(tmp_path / "s", versions=4).close()
        server = ServeServer(ServeManager(tmp_path / "s", readers=3)).start()
        host, port = server.address
        errors = []

        def client(worker: int):
            try:
                for i in range(10):
                    vid = (worker + i) % 4 + 1
                    reply = request(
                        host, port, {"op": "checkout", "cvd": "t", "vids": [vid]}
                    )
                    assert reply["ok"] and reply["count"] >= 2
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=client, args=(n,)) for n in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
        finally:
            server.shutdown()

    def test_server_closes_manager_on_shutdown(self, tmp_path):
        build_store(tmp_path / "s").close()
        manager = ServeManager(tmp_path / "s", readers=1)
        server = ServeServer(manager).start()
        server.shutdown()
        with raises(PersistenceError):
            manager.checkout("t", 1)
        # The writer lock was released with the manager.
        Store.open(tmp_path / "s").close()
