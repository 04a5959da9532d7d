"""Git-style command line for OrpheusDB (paper Section 2.2).

Because the embedded engine is in-process, the CLI keeps the OrpheusDB
state durable between invocations through :class:`repro.persist.Store`
(``--store``, default ``.orpheusdb``): durable commands (``init``,
``commit``, ``drop``, users, durable DML, ``optimize``) append one
fsync'd record to a write-ahead log — a commit is O(changed records) —
while staging commands (``checkout``, edits to staged tables) are
working-tree state: they persist via a snapshot written on clean exit
and are deliberately lost by crashes.  Snapshots also compact the log
(``orpheus checkpoint``, or automatically every ``--checkpoint-every``
records).  A ``--store`` path that is an existing *file* is treated as
a legacy whole-object pickle and is rewritten atomically (temp file +
rename).  Commands mirror the paper's:

    orpheus init -n proteins -f data.csv -s protein1:text,protein2:text,...
    orpheus checkout proteins -v 3 -t my_table
    orpheus commit -t my_table -m "cleaned up"
    orpheus run "SELECT count(*) FROM VERSION 3 OF CVD proteins"
    orpheus diff proteins 2 3
    orpheus ls / drop / log / optimize / checkpoint / create_user / ...
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from pathlib import Path

from repro import obs
from repro.core.orpheus import OrpheusDB
from repro.errors import ReproError, StoreLockedError
from repro.persist import Store
from repro.persist.fsutil import atomic_write_bytes

#: Commands that never need the writer lock: under ``--ro`` they run
#: against a shared-lock read-only store, and when the exclusive open
#: fails the error hints at retrying with ``--ro``.  ``run`` qualifies
#: because a read-only session rejects mutating SQL itself; ``checkout``
#: only in its ``-f`` form, which degrades to a plain export (staging a
#: table needs the writer).
READ_ONLY_COMMANDS = frozenset(
    {"status", "stats", "ls", "log", "diff", "whoami", "run", "checkout"}
)


def _ro_capable(args: argparse.Namespace) -> bool:
    """Whether re-running this exact command with ``--ro`` can succeed."""
    if args.command not in READ_ONLY_COMMANDS:
        return False
    if args.command == "checkout" and args.table:
        return False
    return True


def _load(store: Path) -> OrpheusDB:
    if store.exists():
        with store.open("rb") as handle:
            return pickle.load(handle)
    return OrpheusDB()


def _save(orpheus: OrpheusDB, store: Path) -> None:
    """Atomically rewrite a legacy pickle store (temp file + rename)."""
    atomic_write_bytes(store, pickle.dumps(orpheus))


def _parse_schema(text: str) -> list[tuple[str, str]]:
    """``name:type,name:type`` -> [(name, type), ...]."""
    out = []
    for part in text.split(","):
        name, _, type_name = part.partition(":")
        if not name or not type_name:
            raise ReproError(f"bad schema entry {part!r}; expected name:type")
        out.append((name.strip(), type_name.strip()))
    return out


def _format_table(columns: list[str], rows: list[tuple]) -> str:
    widths = [len(c) for c in columns]
    rendered = [[str(v) for v in row] for row in rows]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    lines.extend(
        " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
        for row in rendered
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orpheus",
        description="OrpheusDB: bolt-on versioning for relational data",
    )
    parser.add_argument(
        "--store",
        default=".orpheusdb",
        help="path of the persisted database state (default: .orpheusdb); "
        "a directory (or new path) uses the WAL+snapshot store, an "
        "existing file the legacy pickle format",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=256,
        metavar="N",
        help="write a snapshot and compact the WAL after N journaled "
        "records (default 256; 0 disables automatic checkpoints)",
    )
    parser.add_argument(
        "--ro",
        action="store_true",
        help="open the store read-only (shared lock): coexists with a "
        "live writer, guarantees no byte on disk changes, rejects "
        "mutating commands",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="enable logging on the 'repro' logger tree at LEVEL "
        "(DEBUG also emits tracing spans; default: logging off)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as one JSON object per line (implies "
        "--log-level DEBUG unless a level is given)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a CVD from a CSV file")
    p.add_argument("-n", "--name", required=True)
    p.add_argument("-f", "--file", required=True, help="CSV input file")
    p.add_argument("-s", "--schema", required=True, help="name:type,name:type,...")
    p.add_argument("--primary-key", default="", help="comma-separated columns")
    p.add_argument("--model", default="split_by_rlist")

    p = sub.add_parser("checkout", help="materialize version(s)")
    p.add_argument("cvd")
    p.add_argument(
        "-v", "--version", required=True, nargs="+", type=int,
        help="version id(s); first listed wins primary-key conflicts",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-t", "--table", help="materialize as a table")
    group.add_argument("-f", "--file", help="materialize as a CSV file")

    p = sub.add_parser("commit", help="commit a staged table or CSV file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-t", "--table")
    group.add_argument("-f", "--file")
    p.add_argument("-m", "--message", default="")
    p.add_argument("-s", "--schema", help="schema for CSV commits")

    p = sub.add_parser("run", help="run SQL (VERSION ... OF CVD supported)")
    p.add_argument("sql", help="SQL text, or @path to a SQL script file")
    p.add_argument(
        "--profile",
        action="store_true",
        help="run one SELECT instrumented and print the per-operator "
        "rows/batches/time report (same as a PROFILE SELECT prefix)",
    )

    p = sub.add_parser("diff", help="records in one version but not another")
    p.add_argument("cvd")
    p.add_argument("vid_a", type=int)
    p.add_argument("vid_b", type=int)

    sub.add_parser("ls", help="list CVDs")

    p = sub.add_parser("drop", help="drop a CVD")
    p.add_argument("cvd")

    p = sub.add_parser("log", help="show the version graph of a CVD")
    p.add_argument("cvd")

    sub.add_parser(
        "checkpoint",
        help="write a snapshot now and compact the write-ahead log",
    )

    p = sub.add_parser(
        "status",
        help="report store durability state and per-CVD optimizer state",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the full status (store, engine I/O, CVDs, and the "
        "observability metrics snapshot) as one JSON object",
    )

    p = sub.add_parser(
        "stats",
        help="dump the observability metrics snapshot (local store "
        "recovery counters, or a live server's via --connect)",
    )
    p.add_argument(
        "--prom",
        action="store_true",
        help="render in Prometheus text exposition format instead of JSON",
    )
    p.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="fetch the snapshot from a live 'orpheus serve' instance "
        "via its {\"op\": \"stats\"} endpoint instead of opening the "
        "store locally",
    )

    p = sub.add_parser("optimize", help="partition a CVD with LyreSplit")
    p.add_argument("cvd")
    p.add_argument(
        "--gamma", type=float, default=2.0,
        help="storage threshold as a multiple of |R| (default 2.0)",
    )
    p.add_argument(
        "--tolerance", type=float, default=1.5,
        help="migration tolerance factor mu (default 1.5)",
    )

    p = sub.add_parser(
        "serve",
        help="serve concurrent read traffic over the store (TCP, JSON "
        "lines; see README 'Serving and concurrency')",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = pick a free one, printed on start)",
    )
    p.add_argument(
        "--readers", type=int, default=4,
        help="read-only sessions in the pool (default 4)",
    )
    p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="pre-fork N reader worker processes instead of the threaded "
        "pool: one shared snapshot load, ~N-core read throughput, always "
        "read-only/follower (default 0 = threaded)",
    )
    p.add_argument(
        "--cache", type=int, default=256, metavar="N",
        help="checkout/query cache capacity in entries (default 256)",
    )
    p.add_argument(
        "--respawn-limit", type=int, default=16, metavar="N",
        help="pre-fork mode: total worker respawns tolerated before the "
        "pool is declared crash-looping and serve exits nonzero "
        "(default 16)",
    )
    p.add_argument(
        "--follow",
        action="store_true",
        help="serve without taking the writer lock, following a writer "
        "that lives in another process",
    )

    p = sub.add_parser("create_user", help="register a user")
    p.add_argument("username")

    p = sub.add_parser("config", help="log in as a user")
    p.add_argument("username")

    sub.add_parser("whoami", help="print the current user")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level or args.log_json:
        obs.configure(
            args.log_level or ("DEBUG" if args.log_json else "WARNING"),
            json_mode=args.log_json,
        )
    store_path = Path(args.store)
    if args.command == "serve":
        return _main_serve(args, store_path)
    if args.command == "stats":
        return _main_stats(args, store_path)
    if store_path.is_file():
        return _main_legacy(args, store_path)
    return _main_store(args, store_path)


def _main_store(args: argparse.Namespace, path: Path) -> int:
    """Run one command against the WAL+snapshot store (the default)."""
    try:
        # interval 0 disables all automatic checkpoints, WAL-size trigger
        # included (the Store couples the byte default to the interval).
        store = Store.open(
            path,
            checkpoint_interval=args.checkpoint_every,
            mode="ro" if args.ro else "rw",
        )
    except StoreLockedError as error:
        hint = "; retry when it exits"
        if not args.ro and _ro_capable(args):
            hint += ", or re-run with --ro for a read-only view"
        print(f"error: {error}{hint}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for warning in store.recovery_warnings:
        print(f"recovery: {warning}", file=sys.stderr)
    try:
        if args.command == "checkpoint":
            snapshot = store.checkpoint()
            print(f"checkpointed to {snapshot.name}")
        elif args.command == "status":
            if args.json:
                print(json.dumps(_status_dict(store), indent=2, sort_keys=True))
            else:
                _print_store_status(store)
                _print_engine_status(store.orpheus)
                _print_optimizer_status(store.orpheus)
        else:
            _dispatch(store.orpheus, args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        # Skip the shutdown checkpoint: staging touched by the failed
        # command is discarded, like the legacy no-save-on-error path.
        store.close(sync=False)
        return 1
    try:
        # The success-path close may itself run a shutdown checkpoint
        # (staging changed), which can fail on a full disk — surface that
        # as a clean error instead of a traceback.
        store.close()
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _main_serve(args: argparse.Namespace, path: Path) -> int:
    """Run the concurrent serving layer until SIGINT/SIGTERM/shutdown op."""
    import signal

    from repro.serve import serve

    # --ro promises "no byte on disk changes": serve then runs in follower
    # mode (read-only sessions only), exactly like an explicit --follow.
    # A pre-fork pool (--workers) is read-only by construction.
    follow = args.follow or args.ro or args.workers > 0
    try:
        server = serve(
            str(path),
            host=args.host,
            port=args.port,
            readers=args.readers,
            cache_capacity=args.cache,
            writer=not follow,
            checkpoint_interval=args.checkpoint_every,
            workers=args.workers,
            respawn_limit=args.respawn_limit,
        )
    except StoreLockedError as error:
        print(
            f"error: {error}; use --follow to serve read-only next to the "
            f"live writer",
            file=sys.stderr,
        )
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.workers > 0:
        # Workers must exist before the banner: a client that connects on
        # seeing it expects an accept loop on the other end.
        server.start()
    host, port = server.address
    if args.workers > 0:
        topology = f"{args.workers} workers, prefork mode"
    else:
        topology = f"{args.readers} readers, "
        topology += "follower mode" if follow else "writer mode"
    print(f"serving {path} on {host}:{port} ({topology})", flush=True)

    def _request_shutdown(_signum, _frame):
        # Non-blocking here (no serve thread to join in foreground mode):
        # it just asks the serve loop to wind down.
        server.shutdown()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _request_shutdown)
    server.serve_forever()
    failure = getattr(server, "failure", None)
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    print("shutdown clean")
    return 0


def _main_stats(args: argparse.Namespace, path: Path) -> int:
    """``orpheus stats``: the metrics snapshot, local or from a live server.

    Local mode opens the store read-only, so the snapshot reflects *this
    process's* work — recovery replay counters, snapshot load time, the
    engine I/O that replay charged.  ``--connect`` asks a running
    ``orpheus serve`` for its own (per-worker) snapshot instead.
    """
    if args.connect:
        from repro.serve.server import request

        host, _, port_text = args.connect.rpartition(":")
        try:
            reply = request(host or "127.0.0.1", int(port_text), {"op": "stats"})
        except (OSError, ValueError) as error:
            print(f"error: cannot reach {args.connect}: {error}", file=sys.stderr)
            return 1
        if not reply.get("ok"):
            print(f"error: {reply.get('error')}", file=sys.stderr)
            return 1
        snapshot = reply["stats"]["metrics"]
    else:
        try:
            store = Store.open(path, mode="ro")
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        try:
            registry = obs.registry()
            collect = store.orpheus.db.stats.as_dict
            registry.register_collector("engine.io", collect)
            snapshot = registry.snapshot()
            registry.unregister_collector("engine.io", collect)
        finally:
            store.close()
    if args.prom:
        sys.stdout.write(obs.render_prometheus(snapshot))
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _status_dict(store: Store) -> dict:
    """The machine-readable twin of the human status report."""
    orpheus = store.orpheus
    db = orpheus.db
    return {
        "store": {
            "path": str(store.path),
            "read_only": store.read_only,
            "snapshot": store.current_snapshot_name(),
            "wal_bytes": store.wal_size_bytes(),
            "records_since_checkpoint": store.records_since_checkpoint,
            "last_lsn": store.last_lsn,
        },
        "engine": {"exec_mode": db.exec_mode, "io": db.stats.as_dict()},
        "cvds": [
            {
                "name": name,
                "versions": orpheus.cvd(name).version_count,
                "records": orpheus.cvd(name).record_count,
                "model": orpheus.cvd(name).model.model_name,
                "dag": _dag_shape(orpheus.cvd(name)),
                "optimizer": _optimizer_state(orpheus, name),
            }
            for name in orpheus.ls()
        ],
        "metrics": obs.registry().snapshot(),
    }


def _print_store_status(store: Store) -> None:
    snapshot = store.current_snapshot_name()
    suffix = " (read-only view)" if store.read_only else ""
    print(f"store: {store.path}{suffix}")
    print(f"  snapshot: {snapshot or 'none (WAL-only recovery)'}")
    print(
        f"  wal: {store.wal_size_bytes()} bytes, "
        f"{store.records_since_checkpoint} records since checkpoint, "
        f"last lsn {store.last_lsn}"
    )


def _print_engine_status(orpheus: OrpheusDB) -> None:
    """How this process's expressions ran, by kernel tier.

    The counters cover this process (for `status` that is recovery/replay
    plus the command itself).  SELECTs run on the compiled block pipeline,
    whose expressions are vector kernels; row closures serve DML, join
    conditions and the subtrees that need a whole row; the interpreter
    serves only what the compiler refuses.
    """
    db = orpheus.db
    stats = db.stats
    print(
        f"engine: {db.exec_mode} mode, exprs on "
        f"{stats.exprs_columnar} vector kernels / "
        f"{stats.exprs_compiled} row closures / "
        f"{stats.exprs_interpreted} interpreter fallbacks, "
        f"{stats.batches_scanned} scan batches "
        f"({stats.blocks_scanned} column blocks)"
    )


def _dag_shape(cvd) -> dict:
    """Version-DAG shape for one CVD — reported without forcing an
    interval-label build (a never-probed store stays "stale")."""
    graph = cvd.graph
    return {
        "versions": len(graph),
        "merges": graph.merge_count(),
        "max_depth": graph.max_depth(),
        "lineage_index": graph.lineage_status(),
    }


def _print_optimizer_status(orpheus: OrpheusDB) -> None:
    if not orpheus.ls():
        print("no CVDs")
        return
    for name in orpheus.ls():
        cvd = orpheus.cvd(name)
        print(
            f"cvd {name}: {cvd.version_count} versions, "
            f"{cvd.record_count} records ({cvd.model.model_name})"
        )
        shape = _dag_shape(cvd)
        print(
            f"  dag: {shape['versions']} versions, {shape['merges']} merges, "
            f"max depth {shape['max_depth']}, "
            f"lineage index {shape['lineage_index']}"
        )
        if cvd.model.model_name != "partitioned_rlist":
            continue
        state = _optimizer_state(orpheus, name)
        if state is None:
            # A pre-optimizer-state store (format-1 snapshot) restores the
            # partitions but not the policy that placed into them.
            print(
                "  optimizer: none — closest-parent fallback placement "
                "(re-run optimize to resume online maintenance)"
            )
            continue
        delta = (
            f"{state['delta_star']:.4f}"
            if state["delta_star"] is not None
            else "unset"
        )
        print("  optimizer: live (placement policy + online maintenance)")
        print(
            f"    delta* {delta}, storage "
            f"{state['storage']}/{state['gamma']:.0f} records "
            f"(gamma = {state['storage_multiple']:g} x |R|), "
            f"Cavg {state['cavg']:.1f}, "
            f"mu {state['mu']:g}"
        )
        print(
            f"    partitions {state['partitions']}, trace "
            f"{state['samples']} samples / "
            f"{state['migrations']} migrations"
        )
        last = state["last_check"]
        if last is None:
            print("    last check: none yet (no commit since optimize)")
        else:
            ratio = f"{last['ratio']:.2f}" if last["ratio"] is not None else "n/a"
            print(
                f"    last check: Cavg {last['current_cavg']:.1f} / "
                f"C*avg {last['best_cavg']:.1f} = {ratio} "
                f"(migrates above mu {state['mu']:g})"
            )
        pending = state["pending_migration"]
        if pending is not None:
            print(
                f"    pending migration: {pending['groups']} groups "
                f"({pending['strategy']}, {pending['modifications']} "
                f"modifications) — will roll forward on next open"
            )


def _optimizer_state(orpheus: OrpheusDB, name: str) -> dict | None:
    """Why commits to a CVD did or did not migrate: the live optimizer's
    budget, the layout it keeps, and its last Section 4.3 check (the
    commit migrates when ``current_cavg / best_cavg`` exceeds ``mu``).
    None without a live optimizer."""
    optimizer = orpheus.optimizer_for(name)
    if optimizer is None:
        return None
    model = orpheus.cvd(name).model
    samples = optimizer.trace.samples
    last_check = None
    if samples:
        last = samples[-1]
        last_check = {
            "version_count": last.version_count,
            "current_cavg": last.current_cavg,
            "best_cavg": last.best_cavg,
            "ratio": last.current_cavg / last.best_cavg if last.best_cavg else None,
        }
    pending = optimizer.pending_migration
    if pending is not None:
        pending = {
            "groups": len(pending.groups),
            "strategy": pending.strategy,
            "modifications": pending.modifications,
        }
    return {
        "delta_star": optimizer.delta_star,
        "gamma": optimizer.gamma,
        "storage_multiple": optimizer.storage_multiple,
        "storage": model.storage_cost_records,
        "cavg": model.checkout_cost_avg,
        "mu": optimizer.tolerance,
        "partitions": len(model.partition_states()),
        "samples": len(samples),
        "migrations": len(optimizer.trace.migrations),
        "last_check": last_check,
        "pending_migration": pending,
    }


def _main_legacy(args: argparse.Namespace, path: Path) -> int:
    """Run one command against a legacy whole-object pickle file."""
    orpheus = _load(path)
    if args.ro:
        # Same contract as the store path: mutating commands are refused
        # by the middleware guards and the pickle is never rewritten.
        orpheus.read_only = True
    try:
        if args.command == "status":
            print(f"store: {path} (legacy pickle, no WAL/snapshot state)")
            _print_engine_status(orpheus)
            _print_optimizer_status(orpheus)
            return 0
        if args.command == "checkpoint":
            if args.ro:
                raise ReproError("cannot checkpoint: --ro never writes")
            # A forced save is the closest legacy equivalent; save first
            # so the success message never precedes a failed write.
            _save(orpheus, path)
            print(f"saved legacy store {path}")
            dirty = False
        else:
            dirty = _dispatch(orpheus, args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if dirty and not args.ro:
        _save(orpheus, path)
    return 0


def _dispatch(orpheus: OrpheusDB, args: argparse.Namespace) -> bool:
    """Run one command; returns True when state changed and must be saved."""
    command = args.command
    if command == "init":
        primary_key = tuple(c for c in args.primary_key.split(",") if c)
        schema = _parse_schema(args.schema)
        if primary_key:
            from repro.storage.schema import Column, TableSchema
            from repro.storage.types import parse_type_name

            schema = TableSchema(
                [Column(n, parse_type_name(t)) for n, t in schema],
                primary_key,
            )
        orpheus.init_from_csv(args.name, args.file, schema, model=args.model)
        print(f"initialized CVD {args.name!r} from {args.file}")
        return True
    if command == "checkout":
        vids = args.version
        if args.table:
            orpheus.checkout(args.cvd, vids, table_name=args.table)
            print(f"checked out version(s) {vids} into table {args.table!r}")
        else:
            orpheus.checkout_csv(args.cvd, vids, args.file)
            print(f"checked out version(s) {vids} into file {args.file!r}")
        return True
    if command == "commit":
        if args.table:
            vid = orpheus.commit(args.table, message=args.message)
        else:
            schema = _parse_schema(args.schema) if args.schema else None
            vid = orpheus.commit_csv(args.file, message=args.message, schema=schema)
        print(f"committed as version {vid}")
        return True
    if command == "run":
        sql = args.sql
        if sql.startswith("@"):
            sql = Path(sql[1:]).read_text()
        if getattr(args, "profile", False):
            sql = "PROFILE " + sql
        result = orpheus.run(sql)
        if result.profile is not None:
            detail = result.profile
            print(
                _format_table(
                    result.columns,
                    [
                        (op, rows, batches, f"{seconds * 1000:.3f} ms")
                        for op, rows, batches, seconds in result.rows
                    ],
                )
            )
            print(
                f"({detail['rowcount']} rows in "
                f"{detail['total_seconds'] * 1000:.2f} ms, "
                f"exprs on {detail['exprs_columnar']} vector kernels / "
                f"{detail['exprs_compiled']} row closures / "
                f"{detail['exprs_interpreted']} interpreter fallbacks, "
                f"{detail['records_scanned']} records in "
                f"{detail['blocks_scanned']} column blocks, "
                f"{detail['exec_mode']} mode)"
            )
            return False  # PROFILE is a read; nothing to persist
        if result.columns:
            print(_format_table(result.columns, result.rows))
        print(f"({result.rowcount} rows)")
        return True  # scripts may mutate; persist conservatively
    if command == "diff":
        only_a, only_b = orpheus.diff(args.cvd, args.vid_a, args.vid_b)
        print(f"only in version {args.vid_a}: {len(only_a)} records")
        for row in only_a[:20]:
            print(" +", row[1:])
        print(f"only in version {args.vid_b}: {len(only_b)} records")
        for row in only_b[:20]:
            print(" -", row[1:])
        return False
    if command == "ls":
        for name in orpheus.ls():
            cvd = orpheus.cvd(name)
            print(
                f"{name}: {cvd.version_count} versions, "
                f"{cvd.record_count} records "
                f"({cvd.model.model_name})"
            )
        return False
    if command == "drop":
        orpheus.drop(args.cvd)
        print(f"dropped CVD {args.cvd!r}")
        return True
    if command == "log":
        cvd = orpheus.cvd(args.cvd)
        for vid in cvd.graph.topological_order():
            version = cvd.version(vid)
            parents = ",".join(map(str, version.parents)) or "-"
            print(
                f"v{vid} <- [{parents}] "
                f"({version.num_records} records) {version.message}"
            )
        return False
    if command == "optimize":
        optimizer = orpheus.optimize(
            args.cvd, storage_threshold=args.gamma, tolerance=args.tolerance
        )
        print(
            f"partitioned into {optimizer.num_partitions} partitions; "
            f"S = {optimizer.current_storage_cost} records, "
            f"Cavg = {optimizer.current_checkout_cost:.1f} records"
        )
        return True
    if command == "create_user":
        orpheus.create_user(args.username)
        print(f"created user {args.username!r}")
        return True
    if command == "config":
        orpheus.config(args.username)
        print(f"logged in as {args.username!r}")
        return True
    if command == "whoami":
        print(orpheus.whoami())
        return False
    raise AssertionError(f"unhandled command {command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
