"""The chaos harness's invariant checks, reusable outside the harness.

Four invariants, each a plain function returning an
:class:`InvariantReport` (``tests/invariants.py`` wraps them in asserts
for the unit suites; the chaos driver and ``bench_htap.py`` consume the
reports directly):

1. **Crash-replay determinism** — a store recovered after ``kill -9``
   must equal a from-scratch replay of exactly the ops it acknowledged
   as committed, digest-compared version by version.
2. **Refresh convergence** — a reader (store- or serve-level) must reach
   the writer's durable tip lsn within a bounded number of refreshes.
3. **Cache coherence** — rows served through the L1 cache must
   match an uncached checkout from a fresh read-only store open.
4. **min_lsn fence honesty** — no response may carry an lsn behind the
   fence the client sent; a probe beyond the durable tip must be
   refused as ``stale_read``, never answered stale.

Digests checksum real checked-out rows (``rows_checksum``: CRC-32 over
tuple reprs — stable across processes, runs, and Python versions), so
two stores agree only if their logical contents agree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.persist import Store
from repro.serve.server import rows_checksum


@dataclass
class InvariantReport:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    details: str = ""
    figures: dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def _sample_vids(vids: list[int], sample: int | None) -> list[int]:
    """Deterministic version sample: evenly spaced plus the tip (full-mode
    digests over a thousand versions cannot checkout every one)."""
    if sample is None or len(vids) <= sample:
        return vids
    step = len(vids) / sample
    chosen = {vids[int(i * step)] for i in range(sample)}
    chosen.add(vids[-1])
    return sorted(chosen)


def store_digest(orpheus, sample: int | None = None) -> dict:
    """Logical-content digest of every CVD: schema columns, version count,
    and per-version row checksums."""
    digest: dict = {}
    for name in sorted(orpheus.ls()):
        cvd = orpheus.cvd(name)
        vids = sorted(cvd.graph.version_ids())
        digest[name] = {
            "columns": list(cvd.data_schema.column_names),
            "version_count": len(vids),
            "checksums": {
                str(vid): rows_checksum(orpheus.checkout_rows(name, [vid]))
                for vid in _sample_vids(vids, sample)
            },
        }
    return digest


def _digest_diff(recovered: dict, replayed: dict) -> str:
    lines = []
    for name in sorted(set(recovered) | set(replayed)):
        a, b = recovered.get(name), replayed.get(name)
        if a is None or b is None:
            lines.append(f"cvd {name!r} missing on one side")
            continue
        if a["version_count"] != b["version_count"]:
            lines.append(
                f"{name}: version_count {a['version_count']} != "
                f"{b['version_count']}"
            )
        if a["columns"] != b["columns"]:
            lines.append(f"{name}: columns {a['columns']} != {b['columns']}")
        for vid in sorted(set(a["checksums"]) | set(b["checksums"]), key=int):
            left = a["checksums"].get(vid)
            right = b["checksums"].get(vid)
            if left != right:
                lines.append(f"{name} v{vid}: checksum {left} != {right}")
    return "; ".join(lines[:8])


def check_replay_determinism(
    store_path: str | Path,
    rebuild: Callable[[object, dict], None],
    scratch_path: str | Path,
    sample: int | None = None,
) -> InvariantReport:
    """Recovered store ≡ from-scratch replay of its committed ops.

    ``rebuild(orpheus, versions_by_cvd)`` must reproduce, on an empty
    engine, exactly the committed state the recovered store reports —
    for a chaos trace that is :func:`repro.chaos.trace.replay_plan` up to
    the recovered version count.
    """
    with Store.open(store_path, mode="ro") as recovered:
        recovered_digest = store_digest(recovered.orpheus, sample=sample)
        warnings = list(recovered.recovery_warnings)
    versions = {
        name: entry["version_count"] for name, entry in recovered_digest.items()
    }
    with Store.open(scratch_path, checkpoint_interval=0) as scratch:
        rebuild(scratch.orpheus, versions)
        replayed_digest = store_digest(scratch.orpheus, sample=sample)
    ok = recovered_digest == replayed_digest
    details = "" if ok else _digest_diff(recovered_digest, replayed_digest)
    if warnings:
        details = (details + "; " if details else "") + (
            f"recovery warnings: {warnings}"
        )
    return InvariantReport(
        "replay_determinism",
        ok,
        details,
        figures={"versions": versions, "digest": recovered_digest},
    )


def check_refresh_convergence(
    refresh: Callable[[], object],
    current_lsn: Callable[[], int],
    target_lsn: int,
    timeout: float = 30.0,
    interval: float = 0.02,
) -> InvariantReport:
    """A reader must reach the durable tip: call ``refresh`` until
    ``current_lsn() >= target_lsn`` or the deadline passes."""
    deadline = time.monotonic() + timeout
    refreshes = 0
    while True:
        lsn = current_lsn()
        if lsn >= target_lsn:
            return InvariantReport(
                "refresh_convergence",
                True,
                figures={"lsn": lsn, "target": target_lsn, "refreshes": refreshes},
            )
        if time.monotonic() >= deadline:
            return InvariantReport(
                "refresh_convergence",
                False,
                f"stuck at lsn {lsn} < target {target_lsn} after "
                f"{refreshes} refreshes",
                figures={"lsn": lsn, "target": target_lsn, "refreshes": refreshes},
            )
        refresh()
        refreshes += 1
        time.sleep(interval)


def check_cache_coherence(
    store_path: str | Path,
    cvd: str,
    served: Sequence[tuple[Sequence[int], dict]],
    sample: int | None = None,
) -> InvariantReport:
    """Served (cached) figures must match an uncached fresh-open checkout.

    ``served`` pairs each version set with the figures the serving tier
    returned for it: ``{"count": int, "checksum": int}`` — the exact
    ``"rows": false`` wire shape, so the check closes the loop from the
    client's view back to the bytes on disk.
    """
    entries = list(served)
    if sample is not None and len(entries) > sample:
        step = len(entries) / sample
        entries = [entries[int(i * step)] for i in range(sample)]
    mismatches = []
    with Store.open(store_path, mode="ro") as fresh:
        for vids, figures in entries:
            rows = fresh.orpheus.checkout_rows(cvd, list(vids))
            expected = {"count": len(rows), "checksum": rows_checksum(rows)}
            got = {"count": figures["count"], "checksum": figures["checksum"]}
            if got != expected:
                mismatches.append(f"{list(vids)}: served {got} != fresh {expected}")
    ok = not mismatches
    return InvariantReport(
        "cache_coherence",
        ok,
        "; ".join(mismatches[:5]),
        figures={"sets_checked": len(entries)},
    )


def check_fence_honesty(
    violations: int,
    probes: Sequence[tuple[int, dict]] = (),
) -> InvariantReport:
    """No response behind a client-observed lsn, and a fence probe past
    the durable tip must be refused as ``stale_read``.

    ``violations`` is the run-long count of responses whose lsn fell
    behind the ``min_lsn`` their request carried (the driver counts them
    on every reply).  ``probes`` pairs an impossible fence with the raw
    response it drew.
    """
    problems = []
    if violations:
        problems.append(f"{violations} fence violations during the run")
    for fence, response in probes:
        if response.get("ok") or response.get("code") != "stale_read":
            problems.append(
                f"probe min_lsn={fence} was not refused as stale_read: "
                f"{response}"
            )
    return InvariantReport(
        "fence_honesty",
        not problems,
        "; ".join(problems),
        figures={"violations": violations, "probes": len(list(probes))},
    )
