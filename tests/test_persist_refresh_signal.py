"""The refresh change signal: an idle follower's borrow opens no file.

A read-only :meth:`Store.refresh` stats CURRENT and the WAL first and polls
only when that signal moved since its last complete poll.  Every writer
operation must move it — an append, a checkpoint, a renaming compaction,
a torn tail regrown by a new writer to exactly the old length — so each
test here makes one of those and asserts that the next *unfenced* borrow
of a follower sees it.  The ``min_lsn`` fence and the wire ``refresh`` op
always poll, even when the signal says nothing moved.  And a follower
serving L1 hits from an idle store opens no file and mints no span id.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import uuid

import pytest

from repro.errors import StaleReadError
from repro.obs import metrics
from repro.persist import Store
from repro.persist.wal import encode_frame, encode_record
from repro.serve import ServeManager
from repro.serve.server import handle_line


def build_store(path, versions=3):
    """A small CVD history, checkpointed: v1 init, then single-row edits."""
    store = Store.open(path, checkpoint_interval=0)
    orpheus = store.orpheus
    orpheus.init(
        "t", [("k", "text"), ("v", "int")], rows=[("a", 1)], primary_key=("k",)
    )
    for step in range(versions - 1):
        commit_row(store, f"n{step}")
    return store


def commit_row(store, key):
    """One more version of ``t`` with row ``key`` added: one WAL record."""
    orpheus = store.orpheus
    orpheus.checkout("t", orpheus.cvd("t").version_count, table_name="w")
    orpheus.run(f"INSERT INTO w (k, v) VALUES ('{key}', 0)")
    orpheus.commit("w", message=key)


def polls():
    return metrics.registry().counter("persist.store.refresh_polls").value


@pytest.fixture
def follower(tmp_path):
    """(writer store, warmed one-session follower manager); the follower
    has completed one poll, so its signal is recorded."""
    writer = build_store(tmp_path / "s")
    manager = ServeManager(tmp_path / "s", readers=1, writer=False)
    with manager.session() as session:
        assert session.last_lsn == writer.last_lsn
    yield writer, manager
    manager.close()
    writer.close(sync=False)


def borrowed_lsn(manager) -> int:
    with manager.session() as session:
        return session.last_lsn


def versions_seen(manager) -> int:
    with manager.session() as session:
        return session.orpheus.cvd("t").version_count


class TestSkip:
    def test_an_idle_store_is_not_polled(self, follower):
        writer, manager = follower
        before = polls()
        for _ in range(5):
            assert borrowed_lsn(manager) == writer.last_lsn
        assert polls() == before

    def test_a_skipped_refresh_reports_no_change(self, follower):
        writer, manager = follower
        store = manager._sessions[0].store
        result = store.refresh()
        assert not result.changed and result.last_lsn == writer.last_lsn

    def test_a_failed_poll_records_no_signal(self, follower, monkeypatch):
        writer, manager = follower
        store = manager._sessions[0].store
        commit_row(writer, "late")

        def broken(*args):
            raise OSError("disk gone")

        monkeypatch.setattr(store, "_replay_tail", broken)
        with pytest.raises(OSError):
            store.refresh()
        monkeypatch.undo()
        assert store.refresh().applied == 1


class TestEveryWriterOperationMovesTheSignal:
    def test_append(self, follower):
        writer, manager = follower
        commit_row(writer, "late")
        assert versions_seen(manager) == 4

    def test_append_landing_during_a_poll(self, follower, monkeypatch):
        writer, manager = follower
        store = manager._sessions[0].store
        poll = store._refresh_inner

        def racing():
            monkeypatch.setattr(store, "_refresh_inner", poll)
            result = poll()
            commit_row(writer, "racing")  # after the poll read the log
            return result

        monkeypatch.setattr(store, "_refresh_inner", racing)
        commit_row(writer, "late")
        assert versions_seen(manager) == 4
        assert versions_seen(manager) == 5

    def test_checkpoint_swaps_current_and_truncates_the_wal(self, follower):
        writer, manager = follower
        # The log is empty before and after: only the CURRENT swap and the
        # new log file say that a commit happened in between.
        writer.checkpoint()
        assert borrowed_lsn(manager) == writer.last_lsn
        size = writer.wal_size_bytes()
        commit_row(writer, "late")
        writer.checkpoint()
        assert writer.wal_size_bytes() == size == 0
        assert versions_seen(manager) == 4

    def test_torn_tail_regrown_to_the_old_length(self, tmp_path):
        path = tmp_path / "s"
        build_store(path).close()
        # The record the restarted writer will append, learned on a copy.
        shutil.copytree(path, tmp_path / "probe")
        with Store.open(tmp_path / "probe", checkpoint_interval=0) as probe:
            start = probe.wal_size_bytes()
            commit_row(probe, "late")
            length = probe.wal_size_bytes() - start
            lsn = probe.last_lsn
        # The crashed writer left the first `length` bytes of a longer frame.
        body = encode_record({"op": "drop", "name": "x" * length})
        torn = encode_frame(lsn, body)[:length]
        with open(path / "wal.log", "ab") as handle:
            handle.write(torn)
        manager = ServeManager(path, readers=1, writer=False)
        try:
            assert versions_seen(manager) == 3  # polled: the tail is torn
            before = os.stat(path / "wal.log")
            time.sleep(0.05)  # a writer restart
            writer = Store.open(path, checkpoint_interval=0)
            commit_row(writer, "late")
            after = os.stat(path / "wal.log")
            assert (after.st_ino, after.st_size) == (before.st_ino, before.st_size)
            assert versions_seen(manager) == 4
            writer.close(sync=False)
        finally:
            manager.close()


class TestForcedPolls:
    """A fence never rests on the signal: pin it, and they still see."""

    @pytest.fixture
    def blind(self, follower, monkeypatch):
        writer, manager = follower
        store = manager._sessions[0].store
        pinned = store._change_signal()
        monkeypatch.setattr(store, "_change_signal", lambda: pinned)
        commit_row(writer, "late")
        assert borrowed_lsn(manager) == writer.last_lsn - 1  # skipped
        return writer, manager

    def test_min_lsn_fence_polls(self, blind):
        writer, manager = blind
        columns, rows, lsn = manager.checkout_payload("t", 4, min_lsn=writer.last_lsn)
        assert lsn == writer.last_lsn and len(rows) == 4

    def test_fence_past_the_tip_still_errors(self, blind):
        writer, manager = blind
        with pytest.raises(StaleReadError):
            manager.checkout_payload("t", 1, min_lsn=writer.last_lsn + 1)

    def test_wire_refresh_op_polls(self, blind):
        writer, manager = blind
        handle_line(manager, b'{"op": "refresh"}')
        assert borrowed_lsn(manager) == writer.last_lsn


def test_idle_follower_hits_open_no_file_and_mint_no_id(follower, monkeypatch):
    writer, manager = follower
    line = b'{"op": "checkout", "cvd": "t", "vids": [3]}'
    handle_line(manager, line)  # the miss that fills L1
    opened = []
    # An audit hook cannot be removed; outside the loop this one is inert.
    counting = [False]

    def hook(event, args):
        if counting[0] and event == "open":
            opened.append(args[0])

    sys.addaudithook(hook)
    minted = []
    real_uuid4 = uuid.uuid4
    monkeypatch.setattr(uuid, "uuid4", lambda: minted.append(1) or real_uuid4())
    counting[0] = True
    try:
        for _ in range(100):
            reply, _bye = handle_line(manager, line)
    finally:
        counting[0] = False
    assert json.loads(reply)["ok"]
    assert opened == [] and minted == []
