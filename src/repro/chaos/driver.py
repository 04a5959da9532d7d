"""The chaos driver: a real HTAP topology under deterministic fault fire.

One :class:`ChaosRun` wires together, as real processes:

- a **writer** subprocess (``python -m repro.chaos``) applying the
  trace's writer plan to the store, rw mode, fsync-per-commit;
- a **pre-fork reader pool** (:class:`~repro.serve.workers.PreforkServer`)
  serving the same store in follower mode over TCP;
- one reader **client thread per worker** replaying the trace's reader
  schedule (checkouts/queries/refreshes with ``min_lsn`` fences), each
  op gated on the writer having committed the versions it needs — so the
  logical request stream is deterministic despite true concurrency.

Faults injected while traffic flows:

- ``kill -9`` of the writer at exact journaled WAL offsets (the commit
  vids in :class:`FaultPlan.writer_kills`), via ``ORPHEUS_CRASH_POINTS``
  — after each kill the driver proves **crash-replay determinism**
  before relaunching the writer, which resumes from the recovered state;
- ``SIGKILL`` of live prefork workers mid-trace (connections break,
  clients reconnect and retry, the supervisor respawns);
- **forced checkpoints** riding the writer plan, racing reader refresh.

After the trace drains, the remaining invariants run: refresh
convergence to the durable tip on every connection, L1 cache
coherence against an uncached fresh store open, ``min_lsn`` fence
honesty (zero violations all run + an impossible-fence probe refused as
``stale_read``), and pool drain (no worker process survives shutdown).
Every figure the CI gate consumes is deterministic for a given
``(TraceConfig, FaultPlan)``; on failure the run is packaged as a repro
bundle (plan + progress journal + store tarball) keyed by seed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.chaos.invariants import (
    InvariantReport,
    check_cache_coherence,
    check_fence_honesty,
    check_refresh_convergence,
    check_replay_determinism,
)
from repro.chaos.trace import TraceConfig, plan_document, replay_plan
from repro.obs import metrics
from repro.persist import Store
from repro.persist.injection import ENV_VAR as CRASH_ENV
from repro.serve.server import ServeClient
from repro.serve.workers import PreforkServer


@dataclass(frozen=True)
class FaultPlan:
    """What gets killed, and when."""

    #: Commit vids after whose WAL append the writer SIGKILLs itself.
    writer_kills: tuple[int, ...] = (6,)
    #: Live prefork workers SIGKILLed mid-trace, spread across the run.
    worker_kills: int = 1
    #: Writer pacing so readers genuinely overlap the write window.
    pace_ms: float = 2.0
    #: Pool respawn budget — must exceed worker_kills, or the pool
    #: (correctly) declares a crash loop and winds down.
    respawn_limit: int = 64

    def to_dict(self) -> dict:
        return asdict(self)


class _ReaderState:
    """Figures shared by the reader threads, lock-guarded."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.completed = 0
        self.rows_served = 0
        self.query_rows = 0
        self.refreshes = 0
        self.fence_violations = 0
        self.errors: list[str] = []


def _progress_versions(path: Path) -> int:
    """Committed version count from the writer's progress journal (0 when
    empty; tolerates a torn last line — the writer may die mid-write)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return 0
    versions = 0
    for line in text.splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        versions = max(versions, int(entry.get("versions", 0)))
    return versions


class ChaosRun:
    """One full chaos scenario; ``run()`` returns the report dict."""

    #: Digest sample cap for full-mode stores (checkouting every one of a
    #: thousand versions per invariant would dominate the run).
    DIGEST_SAMPLE = 48
    #: Served-set sample cap for the cache-coherence recheck.
    COHERENCE_SAMPLE = 64

    def __init__(
        self,
        config: TraceConfig,
        faults: FaultPlan,
        base_dir: str | Path,
        workers: int = 2,
        failure_dir: str | Path | None = None,
        op_timeout: float = 120.0,
    ):
        self.config = config
        self.faults = faults
        self.workers = max(1, workers)
        self.base = Path(base_dir)
        self.failure_dir = Path(failure_dir) if failure_dir else None
        self.op_timeout = op_timeout
        self.store_dir = self.base / "store"
        self.plan_path = self.base / "plan.json"
        self.progress_path = self.base / "progress.jsonl"
        self.writer_log = self.base / "writer.log"
        self.plan = plan_document(config)
        self.state = _ReaderState()
        self.invariants: list[InvariantReport] = []
        self._abort = threading.Event()
        self._readers_done = threading.Event()
        self._seen_pids: set[int] = set()
        self._server: PreforkServer | None = None
        self._scratch_serial = 0

    # ------------------------------------------------------------- lifecycle

    def run(self) -> dict:
        started = time.perf_counter()
        self.base.mkdir(parents=True, exist_ok=True)
        self.plan_path.write_text(
            json.dumps(self.plan, indent=2) + "\n", encoding="utf-8"
        )
        writer_kill_count = 0
        worker_kill_count = 0
        try:
            self._seed_store()
            self._server = PreforkServer(
                self.store_dir,
                workers=self.workers,
                cache_capacity=256,
                respawn_limit=self.faults.respawn_limit,
            ).start()
            self._note_pids()
            readers = [
                threading.Thread(
                    target=self._reader_loop, args=(index,), daemon=True
                )
                for index in range(self.workers)
            ]
            for thread in readers:
                thread.start()
            killer = threading.Thread(target=self._worker_killer, daemon=True)
            killer.start()

            writer_kill_count = self._drive_writer()

            for thread in readers:
                thread.join(timeout=self.op_timeout)
                if thread.is_alive():
                    self._record_error("reader thread failed to drain")
                    self._abort.set()
            self._readers_done.set()
            killer.join(timeout=60.0)
            worker_kill_count = self._worker_kills_done

            final = self._final_invariants()
            self._drain_pool()
        except Exception as exc:  # harness failure is still a reported run
            self._record_error(f"harness error: {type(exc).__name__}: {exc}")
            self._abort.set()
            final = {}
            try:
                self._drain_pool()
            except Exception:
                pass
        report = self._build_report(
            writer_kill_count,
            worker_kill_count,
            final,
            time.perf_counter() - started,
        )
        if not report["ok"] and self.failure_dir is not None:
            report["bundle"] = str(self._write_bundle(report))
        return report

    # ------------------------------------------------------------ seed store

    def _seed_store(self) -> None:
        """Apply the init op and checkpoint so readers recover from a
        snapshot, exactly like a production follower joining a live CVD."""
        with Store.open(self.store_dir, checkpoint_interval=0) as store:
            from repro.chaos.trace import apply_writer_op

            apply_writer_op(store.orpheus, self.plan["writer_ops"][0], self.config)
            store.checkpoint()
        self.progress_path.write_text(
            json.dumps({"index": 0, "versions": 1, "lsn": 1}) + "\n",
            encoding="utf-8",
        )

    # ---------------------------------------------------------------- writer

    def _durable_versions(self) -> int:
        with Store.open(self.store_dir, mode="ro") as store:
            if self.config.cvd not in store.orpheus.ls():
                return 0
            return store.orpheus.cvd(self.config.cvd).version_count

    def _launch_writer(self, crash_spec: str | None) -> subprocess.Popen:
        src_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop(CRASH_ENV, None)
        if crash_spec:
            env[CRASH_ENV] = crash_spec
        log = open(self.writer_log, "ab")
        try:
            return subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.chaos",
                    "--store",
                    str(self.store_dir),
                    "--plan",
                    str(self.plan_path),
                    "--progress",
                    str(self.progress_path),
                    "--pace-ms",
                    str(self.faults.pace_ms),
                ],
                env=env,
                stdout=log,
                stderr=log,
            )
        finally:
            log.close()

    def _drive_writer(self) -> int:
        """Run the writer to plan completion, SIGKILLing it at each fault
        point and proving replay determinism before every relaunch."""
        kills = sorted(set(self.faults.writer_kills))
        done_kills = 0
        while True:
            durable = self._durable_versions()
            pending = [vid for vid in kills if vid > durable]
            crash_spec = None
            if pending:
                # Each commit journals exactly one WAL record, so "die
                # after commit vid K" is the (K - durable)-th append of
                # this writer incarnation.
                crash_spec = f"wal.after_append:{pending[0] - durable}"
            proc = self._launch_writer(crash_spec)
            returncode = proc.wait()
            if returncode == 0:
                if crash_spec is not None:
                    self._record_error(
                        f"writer finished cleanly before kill target "
                        f"{pending[0]} (durable was {durable})"
                    )
                return done_kills
            if returncode == -signal.SIGKILL and crash_spec is not None:
                done_kills += 1
                metrics.registry().counter("chaos.faults.writer_kill9").inc()
                self._check_replay(f"after writer kill #{done_kills}")
                continue
            self._record_error(
                f"writer exited with unexpected code {returncode} "
                f"(crash_spec={crash_spec!r}); see {self.writer_log}"
            )
            self._abort.set()
            return done_kills

    def _check_replay(self, context: str) -> InvariantReport:
        """Crash-replay determinism: recovered store ≡ from-scratch replay
        of exactly the ops it acknowledged."""
        self._scratch_serial += 1
        scratch = self.base / f"scratch-{self._scratch_serial}"

        def rebuild(orpheus, versions_by_cvd: dict) -> None:
            replay_plan(
                orpheus,
                self.plan["writer_ops"],
                self.config,
                versions_by_cvd.get(self.config.cvd, 0),
            )

        report = check_replay_determinism(
            self.store_dir, rebuild, scratch, sample=self.DIGEST_SAMPLE
        )
        if context:
            report.details = (
                f"{context}: {report.details}" if report.details else context
            )
        self.invariants.append(report)
        self._charge_invariant(report)
        return report

    # --------------------------------------------------------------- readers

    def _versions_now(self) -> int:
        return _progress_versions(self.progress_path)

    def _wait_versions(self, needed: int) -> bool:
        deadline = time.monotonic() + self.op_timeout
        while not self._abort.is_set():
            if self._versions_now() >= needed:
                return True
            if time.monotonic() >= deadline:
                self._record_error(
                    f"timed out waiting for {needed} committed versions "
                    f"(have {self._versions_now()})"
                )
                self._abort.set()
                return False
            time.sleep(0.01)
        return False

    def _request(self, box: list, payload: dict) -> dict:
        """Send with reconnect-and-retry: a SIGKILLed worker drops the
        connection mid-request; the op must survive the fault."""
        host, port = self._server.address
        last_error: Exception | None = None
        for attempt in range(12):
            client = box[0]
            if client is None:
                try:
                    box[0] = client = ServeClient(host, port, timeout=30.0)
                except OSError as exc:
                    last_error = exc
                    time.sleep(0.05 * (attempt + 1))
                    continue
            try:
                return client.request(payload)
            except (ConnectionError, OSError, ValueError) as exc:
                last_error = exc
                try:
                    client.close()
                except Exception:
                    pass
                box[0] = None
                time.sleep(0.05 * (attempt + 1))
        raise ConnectionError(f"serve pool unreachable after retries: {last_error}")

    def _reader_loop(self, index: int) -> None:
        schedule = self.plan["reader_ops"][index :: self.workers]
        box: list = [None]
        max_lsn = 0
        ops_counter = metrics.registry().counter("chaos.ops.reader")
        try:
            for op in schedule:
                if not self._wait_versions(op["need_versions"]):
                    return
                if op["kind"] == "refresh":
                    reply = self._request(box, {"op": "refresh"})
                    if reply.get("ok"):
                        with self.state.lock:
                            self.state.refreshes += 1
                    else:
                        self._record_error(f"refresh failed: {reply}")
                    ops_counter.inc()
                    continue
                if op["kind"] == "query":
                    payload = {
                        "op": "query",
                        "sql": (
                            f"SELECT count(*) FROM VERSION {op['vid']} "
                            f"OF CVD {self.config.cvd}"
                        ),
                        "min_lsn": max_lsn,
                    }
                else:
                    payload = {
                        "op": "checkout",
                        "cvd": self.config.cvd,
                        "vids": list(op["vids"]),
                        "rows": False,
                        "min_lsn": max_lsn,
                    }
                reply = self._request(box, payload)
                ops_counter.inc()
                if not reply.get("ok"):
                    # stale_read here is a fence failure: the client's
                    # fence came from this same store lineage, and every
                    # read op refreshes to the durable tail first.
                    if reply.get("code") == "stale_read":
                        with self.state.lock:
                            self.state.fence_violations += 1
                    self._record_error(f"{op['kind']} failed: {reply}")
                    continue
                lsn = int(reply.get("lsn", 0))
                if lsn < max_lsn:
                    with self.state.lock:
                        self.state.fence_violations += 1
                max_lsn = max(max_lsn, lsn)
                with self.state.lock:
                    self.state.completed += 1
                    if op["kind"] == "query":
                        self.state.query_rows += int(reply["rows"][0][0])
                    else:
                        self.state.rows_served += int(reply["count"])
        except Exception as exc:
            self._record_error(
                f"reader {index} died: {type(exc).__name__}: {exc}"
            )
            self._abort.set()
        finally:
            client = box[0]
            if client is not None:
                try:
                    client.close()
                except Exception:
                    pass

    # ---------------------------------------------------------- worker kills

    _worker_kills_done = 0

    def _worker_killer(self) -> None:
        """SIGKILL live workers at deterministic points in reader progress;
        each kill must leave the pool back at full strength."""
        total_ops = len(self.plan["reader_ops"])
        for k in range(self.faults.worker_kills):
            threshold = (k + 1) * total_ops // (self.faults.worker_kills + 1)
            while not self._readers_done.is_set() and not self._abort.is_set():
                with self.state.lock:
                    completed = self.state.completed
                if completed >= threshold:
                    break
                time.sleep(0.01)
            if self._abort.is_set():
                return
            pids = self._server.worker_pids()
            if not pids:
                self._record_error("no live workers to kill")
                return
            victim = pids[k % len(pids)]
            try:
                os.kill(victim, signal.SIGKILL)
            except ProcessLookupError:
                pass
            metrics.registry().counter("chaos.faults.worker_kill9").inc()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                pids = self._server.worker_pids()
                if victim not in pids and len(pids) >= self.workers:
                    break
                time.sleep(0.02)
            else:
                self._record_error(
                    f"pool did not return to strength after killing {victim}"
                )
                self._abort.set()
                return
            self._note_pids()
            self._worker_kills_done = k + 1

    def _note_pids(self) -> None:
        self._seen_pids |= set(self._server.worker_pids())

    # ------------------------------------------------------ final invariants

    def _final_invariants(self) -> dict:
        """The post-trace suite; returns final durable figures."""
        final_replay = self._check_replay("final")
        digest = final_replay.figures.get("digest", {}).get(self.config.cvd, {})
        with Store.open(self.store_dir, mode="ro") as store:
            final_lsn = store.last_lsn
            final_versions = store.orpheus.cvd(self.config.cvd).version_count

        # Refresh convergence: every connection must reach the tip.
        host, port = self._server.address
        sub_reports = []
        for _ in range(self.workers):
            box: list = [None]
            seen = [0]

            def refresh(box=box, seen=seen) -> None:
                reply = self._request(box, {"op": "refresh"})
                if reply.get("ok"):
                    seen[0] = max(
                        seen[0],
                        max(s["lsn"] for s in reply["sessions"]),
                    )

            refresh()
            sub_reports.append(
                check_refresh_convergence(
                    refresh, lambda seen=seen: seen[0], final_lsn, timeout=30.0
                )
            )
            if box[0] is not None:
                box[0].close()
        convergence = InvariantReport(
            "refresh_convergence",
            all(r.ok for r in sub_reports),
            "; ".join(r.details for r in sub_reports if r.details),
            figures={"connections": len(sub_reports), "target": final_lsn},
        )
        self.invariants.append(convergence)
        self._charge_invariant(convergence)

        # Cache coherence at the stable tip: replay the trace's checkout
        # sets twice each — the second pass is served from the L1
        # cache — and compare both passes against an uncached fresh-open
        # checkout.  (Mid-run served figures are *not* comparable to the
        # final store: schema evolution is CVD-global, so rows served
        # before an ALTER legitimately had fewer columns.)
        sets: list[list[int]] = []
        seen_sets: set[tuple[int, ...]] = set()
        for op in self.plan["reader_ops"]:
            if op["kind"] != "checkout":
                continue
            key = tuple(op["vids"])
            if key not in seen_sets and len(sets) < self.COHERENCE_SAMPLE:
                seen_sets.add(key)
                sets.append(list(op["vids"]))
        if (final_versions,) not in seen_sets:
            sets.append([final_versions])
        box = [None]
        served: list[tuple[list[int], dict]] = []
        incoherent: list[str] = []
        for vids in sets:
            payload = {
                "op": "checkout",
                "cvd": self.config.cvd,
                "vids": vids,
                "rows": False,
                "min_lsn": final_lsn,
            }
            passes = []
            for _ in range(2):
                reply = self._request(box, payload)
                if not reply.get("ok"):
                    incoherent.append(f"{vids}: failed at the tip: {reply}")
                    break
                passes.append(
                    {"count": reply["count"], "checksum": reply["checksum"]}
                )
            if len(passes) < 2:
                continue
            if passes[0] != passes[1]:
                incoherent.append(
                    f"{vids}: uncached {passes[0]} != cached {passes[1]}"
                )
            served.append((vids, passes[1]))
        if box[0] is not None:
            box[0].close()
        coherence = check_cache_coherence(
            self.store_dir, self.config.cvd, served
        )
        if incoherent:
            details = "; ".join(incoherent[:5])
            coherence = InvariantReport(
                "cache_coherence",
                False,
                details + ("; " + coherence.details if coherence.details else ""),
                figures=coherence.figures,
            )
        self.invariants.append(coherence)
        self._charge_invariant(coherence)

        # Fence honesty: zero violations all run, and an impossible fence
        # must be refused as stale_read (never answered from behind it).
        probe_fence = final_lsn + 1000
        box = [None]
        probe_reply = self._request(
            box,
            {
                "op": "checkout",
                "cvd": self.config.cvd,
                "vids": [final_versions],
                "rows": False,
                "min_lsn": probe_fence,
            },
        )
        if box[0] is not None:
            box[0].close()
        with self.state.lock:
            violations = self.state.fence_violations
        fence = check_fence_honesty(violations, [(probe_fence, probe_reply)])
        self.invariants.append(fence)
        self._charge_invariant(fence)

        tip_checksum = digest.get("checksums", {}).get(str(final_versions))
        return {
            "final_lsn": final_lsn,
            "final_versions": final_versions,
            "tip_checksum": tip_checksum,
        }

    def _drain_pool(self) -> None:
        """Shutdown must leave no worker process behind (drain assertion)."""
        server = self._server
        if server is None:
            return
        self._note_pids()
        failure = server.failure
        server.shutdown()
        if failure:
            self._record_error(f"pool failed during the run: {failure}")
        leaked = []
        deadline = time.monotonic() + 10.0
        pending = set(self._seen_pids)
        while pending and time.monotonic() < deadline:
            for pid in sorted(pending):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    pending.discard(pid)
                except PermissionError:
                    pass
            time.sleep(0.02)
        leaked = sorted(pending)
        if leaked:
            self._record_error(f"workers survived shutdown: {leaked}")
        self._server = None

    # ----------------------------------------------------------- bookkeeping

    def _record_error(self, message: str) -> None:
        with self.state.lock:
            self.state.errors.append(message)

    def _charge_invariant(self, report: InvariantReport) -> None:
        registry = metrics.registry()
        registry.counter("chaos.invariants.checked").inc()
        if report.ok:
            registry.counter("chaos.invariants.passed").inc()

    def _build_report(
        self,
        writer_kills: int,
        worker_kills: int,
        final: dict,
        seconds: float,
    ) -> dict:
        with self.state.lock:
            errors = list(self.state.errors)
            state = {
                "rows_served": self.state.rows_served,
                "query_rows": self.state.query_rows,
                "refreshes": self.state.refreshes,
                "fence_violations": self.state.fence_violations,
                "completed": self.state.completed,
            }
        writer_meta = self.plan["writer_meta"]
        reader_meta = self.plan["reader_meta"]
        counters = {
            "trace_commits": writer_meta["commits"],
            "trace_branches": writer_meta["branches"],
            "trace_merges": writer_meta["merges"],
            "trace_evolutions": writer_meta["evolutions"],
            "forced_checkpoints": writer_meta["checkpoints"],
            "reader_checkouts": reader_meta["checkouts"],
            "reader_queries": reader_meta["queries"],
            "reader_refreshes": reader_meta["refreshes"],
            "writer_kills": writer_kills,
            "worker_kills": worker_kills,
            "invariants_checked": len(self.invariants),
            "invariants_passed": sum(1 for r in self.invariants if r.ok),
            "fence_violations": state["fence_violations"],
            "final_versions": final.get("final_versions", 0),
            "final_lsn": final.get("final_lsn", 0),
            "tip_checksum": final.get("tip_checksum") or 0,
            "reader_rows_served": state["rows_served"],
            "query_rows_total": state["query_rows"],
            "reader_errors": len(errors),
        }
        ok = (
            not errors
            and counters["invariants_checked"] > 0
            and counters["invariants_passed"] == counters["invariants_checked"]
            and counters["fence_violations"] == 0
            and writer_kills == len(set(self.faults.writer_kills))
            and worker_kills == self.faults.worker_kills
        )
        return {
            "ok": ok,
            "seed": self.config.seed,
            "config": self.config.to_dict(),
            "faults": self.faults.to_dict(),
            "workers": self.workers,
            "seconds": seconds,
            "counters": counters,
            "invariants": [
                {"name": r.name, "ok": r.ok, "details": r.details}
                for r in self.invariants
            ],
            "errors": errors,
        }

    # -------------------------------------------------------- failure bundle

    def _write_bundle(self, report: dict) -> Path:
        """Package seed + trace + progress + store for offline replay."""
        self.failure_dir.mkdir(parents=True, exist_ok=True)
        bundle = self.failure_dir / f"chaos-seed{self.config.seed}.tar.gz"
        report_path = self.base / "report.json"
        report_path.write_text(
            json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8"
        )
        with tarfile.open(bundle, "w:gz") as tar:
            for path in (
                self.plan_path,
                self.progress_path,
                self.writer_log,
                report_path,
            ):
                if path.exists():
                    tar.add(path, arcname=path.name)
            if self.store_dir.exists():
                tar.add(self.store_dir, arcname="store")
        return bundle


def run_chaos(
    config: TraceConfig,
    faults: FaultPlan,
    workers: int = 2,
    failure_dir: str | Path | None = None,
    base_dir: str | Path | None = None,
) -> dict:
    """Run one chaos scenario in a scratch directory; returns the report."""
    if base_dir is not None:
        return ChaosRun(
            config, faults, base_dir, workers=workers, failure_dir=failure_dir
        ).run()
    with tempfile.TemporaryDirectory(prefix="orpheus-chaos-") as tmp:
        return ChaosRun(
            config, faults, tmp, workers=workers, failure_dir=failure_dir
        ).run()
