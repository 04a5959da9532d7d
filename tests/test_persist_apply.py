"""Replay applies the record: one apply step per journaled operation.

Every durable operation is ``prepare`` (check and decide, write nothing),
``apply`` (only write) and a journal append; WAL replay decodes the record
and runs the same apply (:func:`repro.persist.store.replay_record`).
These tests hold that contract:

* a replica that applies a live session's records, with no reopen, equals
  the live session (a hypothesis property over random operation mixes);
* a fault raised at any call site of an operation's prepare step leaves
  the session exactly as it was, a fresh session that applies its journal
  equals it, and the next commit succeeds;
* the operations that used to fail after they had written — a commit
  refused after its schema change, an init refused after it created its
  tables, a version refused by its data model after it took a vid, an
  optimize or a commit refused after it opened half a partition — now
  leave nothing behind;
* a migration the tolerance check triggers after a durable commit, when
  refused, fails neither the commit nor the optimizer's journaled state;
* the WAL records and the snapshot manifest of a scripted session that
  covers every op kind are the ones the release before the split wrote.
"""

import csv
import gc
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.invariants import store_digest
from repro.core.datamodels import MODEL_REGISTRY
from repro.core.orpheus import OrpheusDB
from repro.errors import (
    ConstraintViolationError,
    DuplicateObjectError,
    ReproError,
)
from repro.obs import metrics
from repro.partition.bipartite import Partitioning
from repro.persist import Store
from repro.persist.store import replay_record
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType

import wal_session
from test_persist_crash import crash

SCHEMA = [("k", "int"), ("v", "int")]
ROWS = [(k, k * 10) for k in range(8)]
MODELS = sorted(MODEL_REGISTRY)
NOT_NULL_SCHEMA = TableSchema(
    [Column("k", DataType.INTEGER), Column("t", DataType.TEXT, not_null=True)],
    ("k",),
)


def digest(orpheus: OrpheusDB, staging: bool = True) -> dict:
    """Every version's rows, each CVD's schema, attribute catalog, counters,
    partition assignment and optimizer state, the durable table names and
    (with ``staging``) the staged checkouts and the clock."""
    staged = orpheus.provenance.staged_names()
    out = {
        "versions": store_digest(orpheus),
        "tables": sorted(set(orpheus.db.table_names()) - set(staged)),
        "users": sorted(orpheus.access._users),
        "cvds": {},
    }
    if staging:
        out["staged"] = staged
        out["clock"] = orpheus._clock
    for name in orpheus.ls():
        cvd = orpheus.cvd(name)
        optimizer = orpheus.optimizer_for(name)
        out["cvds"][name] = {
            "schema": cvd.data_schema.to_dict(),
            "attributes": cvd.attributes.entries(),
            "counters": (cvd._next_vid, cvd._next_rid),
            "assignment": sorted(getattr(cvd.model, "_assignment", {}).items()),
            "optimizer": None if optimizer is None else optimizer.to_state(),
        }
    return out


def discard(orpheus: OrpheusDB, name: str) -> None:
    """Throw a staged checkout away (staging is never journaled)."""
    if name in orpheus.provenance.staged_names():
        orpheus.provenance.remove(name)
        orpheus.access.revoke(name)
    if orpheus.db.has_table(name):
        orpheus.db.drop_table(name)


def tip(orpheus: OrpheusDB, name: str) -> int:
    return max(orpheus.cvd(name).graph.version_ids())


# ------------------------------------------------------------ the record


def test_session_writes_the_recorded_wal_and_manifest(tmp_path):
    assert wal_session.run_session(tmp_path) == wal_session.load_fixture()


# ------------------------------------------------- replica == live session

#: Commits and optimize come up more often than the rest: maintenance,
#: placement and online migrations need a commit after an optimize.
OPS = (
    ("tracked",) * 4
    + ("compared", "merge", "optimize") * 2
    + ("init", "evolve", "csv", "run", "user", "migrate", "drop")
    + ("bad_commit", "bad_init", "bad_optimize")
)


def _step(orpheus: OrpheusDB, op: str, n: int, serial: int, scratch: Path) -> None:
    """One operation of the mix; refused ones raise a ReproError."""
    names = orpheus.ls()
    if op in ("init", "bad_init"):
        rows = ROWS + [(0, 1)] if op == "bad_init" else ROWS
        orpheus.init(
            "abc"[n % 3],
            SCHEMA,
            rows=rows,
            model=MODELS[n % len(MODELS)],
            primary_key=("k",),
        )
        return
    if op == "run":
        orpheus.run(f"INSERT INTO notes VALUES ({serial}, 'n{n}')")
        return
    if op == "user":
        orpheus.create_user(f"u{serial}")
        orpheus.config(f"u{serial}")
        return
    if not names:
        return
    name = names[n % len(names)]
    optimizer = orpheus.optimizer_for(name)
    if op == "optimize":
        orpheus.optimize(name, storage_threshold=1.5 + n % 3, tolerance=1.05)
    elif op == "bad_optimize":
        orpheus.optimize(name, tolerance=0.5)
    elif op == "migrate":
        if optimizer is not None:
            vids = orpheus.cvd(name).graph.version_ids()
            optimizer.migrate(Partitioning.single(vids))
    elif op == "drop":
        orpheus.drop(name)
    elif op == "csv":
        path = scratch / f"c{serial}.csv"
        orpheus.checkout_csv(name, tip(orpheus, name), path)
        with path.open() as handle:
            rows = list(csv.reader(handle))
        rows[1 + n % (len(rows) - 1)][1] = str(n)
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        try:
            orpheus.commit_csv(path)
        except ReproError:
            orpheus.provenance.remove(str(path))
            raise
    else:
        table = f"t{serial}"
        vids = [tip(orpheus, name)]
        if op == "merge":
            vids.append(1 + n % vids[0])
        orpheus.checkout(name, vids, table_name=table)
        try:
            if op == "bad_commit":
                orpheus.run(f"UPDATE {table} SET k = 1")
            elif op == "evolve":
                orpheus.run(f"ALTER TABLE {table} ADD COLUMN c{serial} int")
                orpheus.run(f"UPDATE {table} SET c{serial} = {n} WHERE k < 4")
            elif op != "merge":
                orpheus.run(f"UPDATE {table} SET v = v + {n} WHERE k % 3 = {n % 3}")
                orpheus.run(f"INSERT INTO {table} (k, v) VALUES ({100 + serial}, {n})")
            if op == "compared":
                orpheus.db.table(table).changes = None
            orpheus.commit(table)
        finally:
            discard(orpheus, table)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 11)), min_size=4, max_size=14
    )
)
def test_replica_applying_the_records_equals_the_live_session(ops):
    live = OrpheusDB()
    live.attach_journal(wal_session.Journal())
    live.run("CREATE TABLE notes (id int, body text)")
    live.init("a", SCHEMA, rows=ROWS, primary_key=("k",))
    with tempfile.TemporaryDirectory() as scratch:
        for serial, (op, n) in enumerate(ops):
            try:
                _step(live, op, n, serial, Path(scratch))
            except ReproError:
                pass
    replica = OrpheusDB()
    for record in live._journal.records:
        replay_record(replica, record, [])
    assert digest(replica, staging=False) == digest(live, staging=False)


# ----------------------------------------------------- prepare fault sweep


class Fault(Exception):
    """Raised by the profiler at one call site of a prepare step."""


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _site(frame):
    caller = frame.f_back
    return (
        caller.f_code.co_filename,
        caller.f_lineno,
        frame.f_code.co_filename,
        frame.f_code.co_firstlineno,
    )


#: The partition optimizer's module: its ``apply_*`` methods are apply
#: steps.  Elsewhere an ``apply_*`` name (an attribute catalog's) also runs
#: inside prepare, on objects no session holds yet.
OPTIMIZER = str(Path(SRC) / "repro" / "partition" / "online.py")


def is_apply_step(code, optimizer: bool = True) -> bool:
    """Whether ``code`` is an apply step: an ``_apply_*`` function or, with
    ``optimizer``, one of the optimizer's ``apply_*`` methods."""
    name = code.co_name
    if name.startswith("_apply_"):
        return True
    return optimizer and name.startswith("apply_") and code.co_filename == OPTIMIZER


def prepare_sites(build, operation, optimizer: bool = True) -> list:
    """Each distinct call site inside the repository's code that the
    operation reaches before its first apply step (:func:`is_apply_step`).

    Collection stays off while the profile runs: a gc callback (hypothesis
    installs one) would add a call wherever a collection fires."""
    orpheus = build()
    sites: list = []

    def profile(frame, event, _arg):
        if event != "call" or frame.f_back is None:
            return
        if is_apply_step(frame.f_code, optimizer):
            sys.setprofile(None)
            return
        site = _site(frame)
        if site[0].startswith(SRC) and site not in sites:
            sites.append(site)

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        operation(orpheus)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return sites


def session() -> OrpheusDB:
    """A session whose journal records collect in ``_journal.records``."""
    orpheus = OrpheusDB()
    orpheus.attach_journal(wal_session.Journal())
    orpheus.init("p", SCHEMA, rows=ROWS, primary_key=("k",))
    orpheus.init("gone", SCHEMA, rows=ROWS[:3], model="table_per_version")
    orpheus.checkout("p", 1, table_name="w")
    orpheus.run("UPDATE w SET v = v + 1 WHERE k < 3")
    orpheus.run("INSERT INTO w (k, v) VALUES (50, 5)")
    orpheus.checkout("p", 1, table_name="e")
    orpheus.run("ALTER TABLE e ADD COLUMN c int")
    orpheus.run("UPDATE e SET c = k")
    return orpheus


def optimized_session() -> OrpheusDB:
    orpheus = session()
    orpheus.optimize("p", tolerance=1.05)
    orpheus.commit("w")
    orpheus.checkout("p", 2, table_name="w")
    orpheus.run("DELETE FROM w WHERE k > 4")
    return orpheus


def replayed(orpheus: OrpheusDB) -> dict:
    """The digest of a fresh session that applied ``orpheus``'s journal."""
    replica = OrpheusDB()
    for record in orpheus._journal.records:
        replay_record(replica, record, [])
    return digest(replica, staging=False)


def migrate(orpheus: OrpheusDB) -> None:
    vids = orpheus.cvd("p").graph.version_ids()
    orpheus.optimizer_for("p").migrate(Partitioning.single(vids))


SWEEP = {
    "commit": (session, lambda o: o.commit("w")),
    "evolving_commit": (session, lambda o: o.commit("e")),
    "init": (session, lambda o: o.init("q", SCHEMA, rows=ROWS, model="delta")),
    "drop": (session, lambda o: o.drop("gone")),
    "optimize": (session, lambda o: o.optimize("p", tolerance=1.05)),
    "reoptimize": (optimized_session, lambda o: o.optimize("p", storage_threshold=1.5)),
    "placed_commit": (optimized_session, lambda o: o.commit("w")),
    "migrate": (optimized_session, migrate),
}


def test_the_optimizer_apply_step_moves_no_other_sweep_site():
    """Stopping at the optimizer's ``apply_*`` methods as well is for
    ``migrate``; every other operation reaches an ``_apply_*`` step first,
    so its sites are the same either way."""
    for name, (build, operation) in SWEEP.items():
        if name != "migrate":
            assert prepare_sites(build, operation) == prepare_sites(
                build, operation, optimizer=False
            ), name


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_a_fault_anywhere_in_prepare_changes_nothing(name):
    build, operation = SWEEP[name]
    sites = prepare_sites(build, operation)
    assert sites
    faulted = 0
    for site in sites:
        orpheus = build()
        before = digest(orpheus)

        def profile(frame, event, _arg, site=site):
            if event == "call" and frame.f_back is not None and _site(frame) == site:
                raise Fault(site)

        sys.setprofile(profile)
        try:
            operation(orpheus)
        except Fault:
            faulted += 1
            assert digest(orpheus) == before, site
        except ReproError:
            # The op's own error handling turned the fault into a refusal.
            assert digest(orpheus) == before, site
        finally:
            sys.setprofile(None)
        assert replayed(orpheus) == digest(orpheus, staging=False), site
        orpheus.checkout("p", tip(orpheus, "p"), table_name="next")
        orpheus.run("UPDATE next SET v = -1 WHERE k = 7")
        assert orpheus.commit("next") == tip(orpheus, "p")
        assert replayed(orpheus) == digest(orpheus, staging=False), site
    assert faulted


# ------------------------------------------------------------- the fixes


def evolving_checkout(tmp_path, csv_path: bool):
    store = Store.open(tmp_path / "store", checkpoint_interval=0)
    orpheus = store.orpheus
    orpheus.init("d", SCHEMA, rows=ROWS, primary_key=("k",))
    if csv_path:
        path = tmp_path / "d.csv"
        orpheus.checkout_csv("d", 1, path)
        return store, path
    orpheus.checkout("d", 1, table_name="t")
    orpheus.run("ALTER TABLE t ADD COLUMN w INTEGER")
    return store, None


def write_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows([["k", "v", "w"], *rows])


@pytest.mark.parametrize("csv_path", [False, True], ids=["table", "csv"])
def test_refused_commit_leaves_the_schema(tmp_path, csv_path):
    store, path = evolving_checkout(tmp_path, csv_path)
    orpheus = store.orpheus
    cvd = orpheus.cvd("d")
    schema, attributes = cvd.data_schema, cvd.attributes.entries()
    wide = [("k", "int"), ("v", "int"), ("w", "int")]

    def commit() -> int:
        if csv_path:
            return orpheus.commit_csv(path, schema=wide)
        return orpheus.commit("t")

    if csv_path:
        write_csv(path, [(1, v, 0) for _k, v in ROWS])
    else:
        orpheus.run("UPDATE t SET k = 1")
    with pytest.raises(ConstraintViolationError, match="duplicate primary key"):
        commit()
    assert cvd.data_schema == schema
    assert cvd.attributes.entries() == attributes
    if csv_path:
        write_csv(path, [(k, v, k) for k, v in ROWS])
    else:
        orpheus.run("UPDATE t SET k = v, w = v")
    assert commit() == 2
    assert cvd.data_schema.column_names == ["k", "v", "w"]
    expected = digest(orpheus, staging=False)
    crash(store)
    with Store.open(tmp_path / "store", checkpoint_interval=0) as reopened:
        assert digest(reopened.orpheus, staging=False) == expected


@pytest.mark.parametrize("clash", ["duplicate_key", "user_table"])
def test_refused_init_leaves_no_tables(tmp_path, clash):
    store = Store.open(tmp_path / "store", checkpoint_interval=0)
    orpheus = store.orpheus
    rows, error = ROWS + [(0, 1)], ConstraintViolationError
    if clash == "user_table":
        orpheus.run("CREATE TABLE d__meta (x int)")
        rows, error = ROWS, DuplicateObjectError
    tables = orpheus.db.table_names()
    with pytest.raises(error):
        orpheus.init("d", SCHEMA, rows=rows, primary_key=("k",))
    assert orpheus.db.table_names() == tables
    assert orpheus.ls() == []
    if clash == "user_table":
        orpheus.run("DROP TABLE d__meta")
    orpheus.init("d", SCHEMA, rows=ROWS, primary_key=("k",))
    expected = digest(orpheus)
    crash(store)
    with Store.open(tmp_path / "store", checkpoint_interval=0) as reopened:
        assert digest(reopened.orpheus) == expected


@pytest.mark.parametrize("model", MODELS + ["partitioned"])
def test_version_refused_by_not_null_takes_no_vid(model):
    orpheus = OrpheusDB()
    orpheus.init(
        "n",
        NOT_NULL_SCHEMA,
        rows=[(k, f"v{k}") for k in range(5)],
        model=None if model == "partitioned" else model,
    )
    if model == "partitioned":
        orpheus.optimize("n")
    cvd = orpheus.cvd("n")
    before = (cvd._next_vid, cvd.version_count)
    rid = cvd.allocate_rid()
    members = list(cvd.member_rids(1)) + [rid]
    with pytest.raises(ConstraintViolationError, match="NOT NULL column 't'"):
        cvd.ingest_version((1,), members, {rid: (9, None)}, "null payload")
    assert (cvd._next_vid, cvd.version_count) == before
    orpheus.checkout("n", 1, table_name="w")
    orpheus.run("UPDATE w SET t = 'x' WHERE k = 1")
    assert orpheus.commit("w") == 2


def _history(orpheus: OrpheusDB, model: str | None = None) -> None:
    """CVD ``d``: four versions, each editing one record of its parent."""
    orpheus.init("d", SCHEMA, rows=ROWS, primary_key=("k",), model=model)
    for n in range(1, 4):
        orpheus.checkout("d", n, table_name="w")
        orpheus.run(f"UPDATE w SET v = {n} WHERE k = {n}")
        orpheus.commit("w")


def _stage_far_from_tip(orpheus: OrpheusDB) -> None:
    """Staged table ``s``: the tip with all but one record replaced."""
    orpheus.checkout("d", tip(orpheus, "d"), table_name="s")
    orpheus.run("DELETE FROM s WHERE k > 0")
    values = ", ".join(f"({k}, {k})" for k in range(100, 108))
    orpheus.run(f"INSERT INTO s (k, v) VALUES {values}")


def _versions_tables(model, count: int) -> list[str]:
    return [name for name in model.new_partition_tables(count) if "_versions" in name]


def clash_optimize(orpheus: OrpheusDB):
    _history(orpheus)
    return [f"d__p{i}_versions" for i in range(8)], lambda: orpheus.optimize("d")


def clash_reoptimize(orpheus: OrpheusDB):
    _history(orpheus)
    orpheus.optimize("d", storage_threshold=1.0)  # one partition
    model = orpheus.cvd("d").model
    reoptimize = lambda: orpheus.optimize("d", storage_threshold=4.0)  # noqa: E731
    return _versions_tables(model, 4), reoptimize


def clash_commit_opening_a_partition(orpheus: OrpheusDB):
    _history(orpheus)
    orpheus.optimize("d")
    _stage_far_from_tip(orpheus)
    model = orpheus.cvd("d").model
    return _versions_tables(model, 1), lambda: orpheus.commit("s")


def clash_table_per_version(orpheus: OrpheusDB):
    _history(orpheus, "table_per_version")
    _stage_far_from_tip(orpheus)
    return ["d__v5"], lambda: orpheus.commit("s")


def clash_delta(orpheus: OrpheusDB):
    _history(orpheus, "delta")
    _stage_far_from_tip(orpheus)
    return ["d__delta_5"], lambda: orpheus.commit("s")


CLASHES = [
    clash_optimize,
    clash_reoptimize,
    clash_commit_opening_a_partition,
    clash_table_per_version,
    clash_delta,
]


@pytest.mark.parametrize("clash", CLASHES, ids=lambda clash: clash.__name__[6:])
def test_a_backing_table_clash_is_refused_before_any_write(tmp_path, clash):
    """A user table that holds a name the operation would create refuses
    it in prepare: nothing changes, and once the name is free the retry
    succeeds and a reopen equals the live session."""
    store = Store.open(tmp_path / "store", checkpoint_interval=0)
    orpheus = store.orpheus
    taken, operation = clash(orpheus)
    for name in taken:
        orpheus.run(f"CREATE TABLE {name} (x int)")
    tables, before = orpheus.db.table_names(), digest(orpheus)
    with pytest.raises(DuplicateObjectError, match="needs tables that already exist"):
        operation()
    assert orpheus.db.table_names() == tables
    assert digest(orpheus) == before
    for name in taken:
        orpheus.run(f"DROP TABLE {name}")
    operation()
    assert set(taken) & set(orpheus.db.table_names())  # the clash was real
    expected = digest(orpheus, staging=False)
    crash(store)
    with Store.open(tmp_path / "store", checkpoint_interval=0) as reopened:
        assert digest(reopened.orpheus, staging=False) == expected


def test_a_refused_triggered_migration_keeps_the_commit_and_the_optimizer(
    tmp_path,
):
    """The tolerance check runs after its commit is journaled: a migration
    refused by a taken partition name leaves the commit's vid, a live
    optimizer equal to a reopened one, and a count; once the name is free
    the next triggering commit migrates."""
    store = Store.open(tmp_path / "store", checkpoint_interval=0)
    orpheus = store.orpheus
    _history(orpheus)
    optimizer = orpheus.optimize("d", storage_threshold=3.0, tolerance=1.05)
    optimizer.migrate(Partitioning.single(orpheus.cvd("d").graph.version_ids()))
    # The next commit opens d__p4; the migration it triggers would open d__p5.
    taken = orpheus.cvd("d").model.new_partition_tables(2)[2]
    assert taken == "d__p5_data"
    orpheus.run(f"CREATE TABLE {taken} (x int)")
    migrations = len(optimizer.trace.migrations)
    refused = metrics.registry().counter("partition.migrations_refused")
    before = refused.value

    def triggering_commit(orpheus: OrpheusDB, value: int) -> int:
        orpheus.checkout("d", tip(orpheus, "d"), table_name="w")
        orpheus.run(f"UPDATE w SET v = {value} WHERE k = 5")
        return orpheus.commit("w")

    assert triggering_commit(orpheus, 77) == 5
    assert refused.value == before + 1
    assert len(optimizer.trace.migrations) == migrations
    state = optimizer.to_state()
    crash(store)
    store = Store.open(tmp_path / "store", checkpoint_interval=0)
    orpheus = store.orpheus
    assert orpheus.optimizer_for("d").to_state() == state
    orpheus.run(f"DROP TABLE {taken}")
    assert triggering_commit(orpheus, 78) == 6
    optimizer = orpheus.optimizer_for("d")
    assert len(optimizer.trace.migrations) == migrations + 1
    state = optimizer.to_state()
    crash(store)
    with Store.open(tmp_path / "store", checkpoint_interval=0) as reopened:
        assert reopened.orpheus.optimizer_for("d").to_state() == state
