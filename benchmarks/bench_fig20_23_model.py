"""Figures 20-23: the estimated cost model vs reality.

Figures 20/21 re-plot the Figure 9 trade-off in *model units*: estimated
storage cost S (records) against estimated checkout cost Cavg (records)
for LyreSplit / AGGLO / KMEANS sweeps.  Figures 22/23 then validate the
model: estimated checkout cost against measured checkout time should form
a straight line.

Shapes to match: the model-side trade-off mirrors the measured one
(Fig. 20/21 ~ Fig. 9), and estimated-vs-measured is strongly linear
(Fig. 22/23), which is what licenses the paper's whole optimization
formulation.
"""

from __future__ import annotations

import pytest

if __package__ in (None, ""):
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._common import fresh_cvd, print_header, sample_versions
from benchmarks.bench_fig9_tradeoff import (
    DELTAS,
    K_VALUES,
    CAPACITY_FRACTIONS,
    apply_partitioning,
)
from benchmarks.bench_fig19_cost_model import linearity
from repro.partition import BipartiteGraph, lyresplit, reduce_to_tree
from repro.partition.agglo import agglo_partition
from repro.partition.kmeans import kmeans_partition

SWEEP_DATASETS = ["SCI_10K", "SCI_50K", "CUR_10K"]


def model_curves(dataset_name: str) -> dict[str, list[tuple[int, float]]]:
    """Estimated (S, Cavg) sweeps per algorithm (Figures 20/21)."""
    cvd = fresh_cvd(dataset_name)
    bip = BipartiteGraph.from_cvd(cvd)
    tree = reduce_to_tree(cvd.graph, bip.num_records)
    curves: dict[str, list[tuple[int, float]]] = {}
    curves["LyreSplit"] = [
        (
            bip.storage_cost(p := lyresplit(tree, delta).partitioning),
            bip.checkout_cost(p),
        )
        for delta in DELTAS
    ]
    curves["AGGLO"] = [
        (
            bip.storage_cost(
                p := agglo_partition(bip, fraction * bip.num_records)
            ),
            bip.checkout_cost(p),
        )
        for fraction in CAPACITY_FRACTIONS
    ]
    curves["KMEANS"] = [
        (
            bip.storage_cost(p := kmeans_partition(bip, k)),
            bip.checkout_cost(p),
        )
        for k in K_VALUES
        if k <= bip.num_versions
    ]
    return curves


def estimated_vs_measured(
    dataset_name: str, deltas=tuple(DELTAS)
) -> list[tuple[float, float]]:
    """(estimated Cavg in records, measured avg checkout seconds) points
    across the LyreSplit sweep (Figures 22/23)."""
    from benchmarks._common import time_checkouts

    cvd = fresh_cvd(dataset_name)
    bip = BipartiteGraph.from_cvd(cvd)
    tree = reduce_to_tree(cvd.graph, bip.num_records)
    vids = sample_versions(cvd)
    points = []
    for delta in deltas:
        partitioning = lyresplit(tree, delta).partitioning
        estimated = bip.checkout_cost(partitioning)
        model = apply_partitioning(cvd, partitioning)
        saved = cvd.model
        cvd.model = model
        try:
            measured = time_checkouts(cvd, vids)
        finally:
            cvd.model = saved
            model.drop_storage()
        points.append((estimated, measured))
    return points


# ---------------------------------------------------------------- pytest


def test_benchmark_model_costs(benchmark):
    cvd = fresh_cvd("SCI_10K")
    bip = BipartiteGraph.from_cvd(cvd)
    tree = reduce_to_tree(cvd.graph, bip.num_records)
    partitioning = lyresplit(tree, 0.5).partitioning

    def both_costs():
        return bip.storage_cost(partitioning), bip.checkout_cost(partitioning)

    benchmark(both_costs)


class TestModelShape:
    @pytest.fixture(scope="class")
    def curves(self):
        return model_curves("SCI_10K")

    def test_lyresplit_model_tradeoff_monotone(self, curves):
        points = sorted(curves["LyreSplit"])
        checkouts = [c for _s, c in points]
        assert checkouts == sorted(checkouts, reverse=True)

    def test_lyresplit_dominates_in_model_units(self, curves):
        """Fig. 20/21's visual: at every baseline point's storage budget,
        LyreSplit (via its delta search) achieves a lower checkout cost."""
        from repro.partition import search_delta

        cvd = fresh_cvd("SCI_10K")
        bip = BipartiteGraph.from_cvd(cvd)
        tree = reduce_to_tree(cvd.graph, bip.num_records)
        for algo in ("AGGLO", "KMEANS"):
            for storage, checkout in curves[algo]:
                ours = search_delta(tree, storage, bip)
                assert ours.storage_cost <= storage
                assert ours.checkout_cost <= checkout * 1.05, (
                    algo,
                    storage,
                    checkout,
                )


def test_estimated_cost_predicts_measured_time():
    """Figures 22/23: estimated Cavg and wall time are strongly linear.

    Measured over a Cavg range wide enough (SCI_50K, deltas down to the
    single-partition end) that |R_k| scanning dominates the per-checkout
    constant overhead — the regime the paper's plots cover.
    """
    points = estimated_vs_measured("SCI_50K", deltas=(0.05, 0.2, 0.5, 0.95))
    assert linearity(points) > 0.9


# ------------------------------------------------------------------ main


def main(datasets=None) -> None:
    print_header("Figures 20/21: estimated storage vs estimated checkout")
    for dataset_name in datasets or SWEEP_DATASETS:
        print(f"\n### {dataset_name}")
        for algo, points in model_curves(dataset_name).items():
            print(f"\n  {algo}:")
            print(f"  {'S (records)':>12} {'Cavg (records)':>15}")
            for storage, checkout in points:
                print(f"  {storage:>12} {checkout:>15.0f}")
    print_header("Figures 22/23: estimated Cavg vs measured checkout time")
    # Wide delta range so Cavg spans the regime where |R_k| scanning
    # dominates the per-checkout constant (the paper's plotted range).
    wide = (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
    for dataset_name in datasets or SWEEP_DATASETS:
        points = estimated_vs_measured(dataset_name, deltas=wide)
        print(f"\n### {dataset_name} (pearson r = {linearity(points):.3f})")
        print(f"  {'Cavg (records)':>15} {'measured (ms)':>14}")
        for estimated, measured in points:
            print(f"  {estimated:>15.0f} {measured * 1000:>14.2f}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--datasets", nargs="*", default=None)
    main(parser.parse_args().datasets)
