"""Partition optimizer: LyreSplit, online maintenance, migration.

Problem 1 has one solver, :func:`search_delta`, weighted or not; its
costs are folds over ``|R_k|`` per group, and every physical layout, the
first included, is written by :meth:`PartitionedRlistModel.replace_partitions`.

The paper's baselines (:mod:`~repro.partition.agglo`,
:mod:`~repro.partition.kmeans`, :mod:`~repro.partition.schema_aware`,
:mod:`~repro.partition.weighted`) are imported from their modules, so
opening a partitioned store never loads them.
"""

from repro.partition.bipartite import BipartiteGraph, Partitioning
from repro.partition.dag_reduction import VersionTreeView, reduce_to_tree
from repro.partition.delta_search import DeltaSearchResult, search_delta
from repro.partition.lyresplit import LyreSplitResult, lyresplit
from repro.partition.migration import (
    MigrationPlan,
    plan_intelligent,
    plan_naive,
)
from repro.partition.online import PartitionOptimizer
from repro.partition.partition_manager import PartitionedRlistModel

__all__ = [
    "BipartiteGraph",
    "Partitioning",
    "VersionTreeView",
    "reduce_to_tree",
    "lyresplit",
    "LyreSplitResult",
    "search_delta",
    "DeltaSearchResult",
    "plan_intelligent",
    "plan_naive",
    "MigrationPlan",
    "PartitionOptimizer",
    "PartitionedRlistModel",
]
