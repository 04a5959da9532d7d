"""Bitmap rid-set benchmark: checkout / diff / optimize vs the set path.

The RidSet tentpole rewrites every membership-heavy hot path — multi-
version checkout merges, version diff, and the partition optimizer's cost
evaluation — from per-row Python dict/set probing to big-int bitmap
algebra plus one batched slot fetch.  This benchmark measures exactly
those three operations at paper scale (>=100 versions x >=50k records)
against faithful inline copies of the pre-bitmap implementations (the
code on main before this change), and writes ``BENCH_checkout.json``.

Acceptance: multi-version checkout and version diff must be >=5x faster
than the legacy path at the full scale.  ``--smoke`` runs a small
configuration (for CI) that emits the JSON without asserting ratios —
wall-clock ratios on shared runners are advisory only.

Run directly for the full sweep::

    PYTHONPATH=src python benchmarks/bench_checkout.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

if __package__ in (None, ""):
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import print_header
from repro.core.cvd import CVD
from repro.partition.bipartite import BipartiteGraph
from repro.partition.dag_reduction import reduce_to_tree
from repro.partition.delta_search import search_delta
from repro.storage.engine import Database
from repro.workloads.benchmark_graph import WorkloadBuilder
from repro.workloads.datasets import load_workload

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_checkout.json"

FULL = {
    "num_versions": 100,
    "root_records": 50_000,
    "churn": 400,  # updates+inserts+deletes per derived version
    "branches": 4,
    "repeats": 3,
}
SMOKE = {
    "num_versions": 24,
    "root_records": 2_000,
    "churn": 60,
    "branches": 3,
    "repeats": 2,
}


# ----------------------------------------------------------------- workload


def build_cvd(config: dict) -> tuple[CVD, list[int]]:
    """A branched history: one root, ``branches`` chains derived from it.

    Returns the CVD plus the branch tip vids (the multi-version checkout
    targets).  Versions churn a few hundred records each, so branch tips
    share most of the root — the regime the paper's merges live in.
    """
    builder = WorkloadBuilder("bench", num_attributes=4, seed=11)
    root = builder.root(config["root_records"])
    tips = [root] * config["branches"]
    churn = config["churn"]
    for step in range(config["num_versions"] - 1):
        branch = step % config["branches"]
        tips[branch] = builder.derive(
            tips[branch],
            inserts=churn // 4,
            updates=churn // 2,
            deletes=churn // 4,
        )
    workload = builder.build(config["branches"], churn)
    cvd = load_workload(Database(), "bench", workload)
    # Generator vids map 1:1 onto CVD vids (same topological order).
    return cvd, list(dict.fromkeys(tips))


# ----------------------------------------------- legacy (pre-bitmap) paths


def legacy_checkout_rows(cvd: CVD, vids, legacy_membership) -> list:
    """The pre-RidSet multi-version merge: fetch every version in full,
    probe per row against dict/set structures (verbatim from old main)."""
    if len(vids) == 1:
        return cvd.model.fetch_version(vids[0])
    key_columns = cvd.data_schema.primary_key or tuple(cvd.data_schema.column_names)
    positions = [cvd.data_schema.position(name) + 1 for name in key_columns]
    merged = []
    taken_keys: set[tuple] = set()
    taken_rids: set[int] = set()
    for vid in vids:
        for row in cvd.model.fetch_version(vid):
            key = tuple(row[p] for p in positions)
            if key in taken_keys or row[0] in taken_rids:
                continue
            taken_keys.add(key)
            taken_rids.add(row[0])
            merged.append(row)
    return merged


def legacy_diff(cvd: CVD, vid_a: int, vid_b: int, legacy_membership):
    """The pre-RidSet diff: materialize both versions, filter per row."""
    members_a = legacy_membership[vid_a]
    members_b = legacy_membership[vid_b]
    rows_a = {
        row[0]: row
        for row in cvd.model.fetch_version(vid_a)
        if row[0] not in members_b
    }
    rows_b = {
        row[0]: row
        for row in cvd.model.fetch_version(vid_b)
        if row[0] not in members_a
    }
    return list(rows_a.values()), list(rows_b.values())


class _LegacySetBipartite:
    """The pre-RidSet BipartiteGraph: frozenset membership, set unions."""

    def __init__(self, membership):
        self._membership = {vid: frozenset(rids) for vid, rids in membership.items()}
        self._all_records = frozenset().union(*self._membership.values())

    @property
    def num_versions(self):
        return len(self._membership)

    @property
    def num_records(self):
        return len(self._all_records)

    @property
    def num_edges(self):
        return sum(len(rids) for rids in self._membership.values())

    def partition_records(self, group):
        out: set[int] = set()
        for vid in group:
            out |= self._membership[vid]
        return frozenset(out)

    def group_sizes(self, partitioning):
        """``|R_k|`` per group, the list every delta-search cost folds."""
        return [len(self.partition_records(group)) for group in partitioning.groups]


# -------------------------------------------------------------- measurement


def best_of(repeats: int, fn, *args):
    """(best seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def measure(config: dict) -> dict:
    cvd, tips = build_cvd(config)
    repeats = config["repeats"]
    legacy_membership = {
        vid: frozenset(members) for vid, members in cvd.membership.items()
    }
    out: dict = {
        "config": dict(config),
        "num_versions": cvd.version_count,
        "num_records": cvd.record_count,
        "bipartite_edges": cvd.bipartite_edge_count,
        "checkout_vids": tips,
    }

    # --- multi-version checkout (merge of all branch tips) ---------------
    new_s, new_rows = best_of(repeats, cvd.checkout_rows, tips)
    old_s, old_rows = best_of(
        repeats, legacy_checkout_rows, cvd, tips, legacy_membership
    )
    assert {r[0] for r in new_rows} == {r[0] for r in old_rows}, (
        "bitmap and legacy merges disagree"
    )
    out["checkout"] = {
        "merged_rows": len(new_rows),
        "bitmap_s": new_s,
        "legacy_s": old_s,
        "speedup": old_s / new_s if new_s > 0 else float("inf"),
    }

    # --- version diff (two branch tips) ----------------------------------
    vid_a, vid_b = tips[0], tips[-1]
    new_s, new_diff = best_of(repeats, cvd.diff, vid_a, vid_b)
    old_s, old_diff = best_of(
        repeats, legacy_diff, cvd, vid_a, vid_b, legacy_membership
    )
    assert {r[0] for r in new_diff[0]} == {r[0] for r in old_diff[0]}
    assert {r[0] for r in new_diff[1]} == {r[0] for r in old_diff[1]}
    out["diff"] = {
        "vids": [vid_a, vid_b],
        "rows_only_a": len(new_diff[0]),
        "rows_only_b": len(new_diff[1]),
        "bitmap_s": new_s,
        "legacy_s": old_s,
        "speedup": old_s / new_s if new_s > 0 else float("inf"),
    }

    # --- optimize: LyreSplit delta search cost evaluation -----------------
    gamma = 2.0 * cvd.record_count

    def run_search(bipartite):
        tree = reduce_to_tree(cvd.graph, true_record_count=bipartite.num_records)
        return search_delta(tree, gamma, bipartite=bipartite)

    new_s, new_result = best_of(repeats, run_search, BipartiteGraph.from_cvd(cvd))
    old_s, old_result = best_of(
        repeats, run_search, _LegacySetBipartite(cvd.membership)
    )
    assert new_result.storage_cost == old_result.storage_cost
    out["optimize"] = {
        "partitions": new_result.num_partitions,
        "storage_cost": new_result.storage_cost,
        "bitmap_s": new_s,
        "legacy_s": old_s,
        "speedup": old_s / new_s if new_s > 0 else float("inf"),
    }

    # --- deterministic operation counters (the CI regression gate) --------
    # Wall-clock ratios are advisory on shared runners; what the gate
    # compares is logical I/O — the records-touched accounting the paper's
    # cost model reasons in — which is identical on every machine for a
    # given code state and workload seed.
    db = cvd.db
    db.reset_stats()
    cvd.checkout_rows(tips)
    checkout_stats = db.stats.snapshot()
    db.reset_stats()
    cvd.diff(vid_a, vid_b)
    diff_stats = db.stats.snapshot()
    out["counters"] = {
        "checkout_records_scanned": checkout_stats.records_scanned,
        "checkout_index_probes": checkout_stats.index_probes,
        "checkout_total_touched": checkout_stats.total_touched,
        "diff_records_scanned": diff_stats.records_scanned,
        "diff_index_probes": diff_stats.index_probes,
        "diff_total_touched": diff_stats.total_touched,
        "optimize_search_iterations": new_result.iterations,
        "optimize_search_levels": new_result.levels,
        "touched_per_merged_row": (
            checkout_stats.total_touched / len(new_rows) if new_rows else 0.0
        ),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small configuration for CI; emits JSON, skips ratio asserts",
    )
    args = parser.parse_args(argv)
    config = SMOKE if args.smoke else FULL
    print_header(
        f"Bitmap rid-set benchmark "
        f"({config['num_versions']} versions x "
        f"{config['root_records']} root records)"
    )
    result = measure(config)
    result["mode"] = "smoke" if args.smoke else "full"
    for op in ("checkout", "diff", "optimize"):
        entry = result[op]
        print(
            f"  {op:<9} bitmap {entry['bitmap_s'] * 1e3:9.2f} ms   "
            f"legacy {entry['legacy_s'] * 1e3:9.2f} ms   "
            f"speedup {entry['speedup']:6.1f}x"
        )
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {OUTPUT}")
    if not args.smoke:
        failures = [op for op in ("checkout", "diff") if result[op]["speedup"] < 5.0]
        if failures:
            print(f"ACCEPTANCE FAILED: <5x speedup on {failures}")
            return 1
        print("acceptance: checkout and diff >=5x over the legacy path")
    return 0


# ------------------------------------------------------- pytest acceptance


class TestAcceptance:
    """Deterministic equivalence checks (timing-free, safe for CI)."""

    def test_bitmap_and_legacy_paths_agree(self):
        cvd, tips = build_cvd(SMOKE)
        legacy_membership = {
            vid: frozenset(members)
            for vid, members in cvd.membership.items()
        }
        new_rows = cvd.checkout_rows(tips)
        old_rows = legacy_checkout_rows(cvd, tips, legacy_membership)
        assert {r[0] for r in new_rows} == {r[0] for r in old_rows}
        new_diff = cvd.diff(tips[0], tips[-1])
        old_diff = legacy_diff(cvd, tips[0], tips[-1], legacy_membership)
        assert {r[0] for r in new_diff[0]} == {r[0] for r in old_diff[0]}
        assert {r[0] for r in new_diff[1]} == {r[0] for r in old_diff[1]}

    def test_delta_search_costs_match_set_implementation(self):
        cvd, _tips = build_cvd(SMOKE)
        gamma = 2.0 * cvd.record_count
        bitmap = BipartiteGraph.from_cvd(cvd)
        legacy = _LegacySetBipartite(cvd.membership)
        tree = reduce_to_tree(cvd.graph, true_record_count=bitmap.num_records)
        new_result = search_delta(tree, gamma, bipartite=bitmap)
        old_result = search_delta(tree, gamma, bipartite=legacy)
        assert new_result.storage_cost == old_result.storage_cost
        assert new_result.checkout_cost == old_result.checkout_cost


if __name__ == "__main__":
    raise SystemExit(main())
