"""Versioned relations: the paper's SQL constructs (Sections 2.2/2.3).

The parser reads three constructs as FROM items
(:class:`~repro.storage.parser.ast_nodes.VersionRef`):

* ``VERSION <v> OF CVD <name>`` — one version as a relation of the CVD's
  data attributes.  Several vids may be listed (``VERSION 2, 5 OF CVD x``);
  they are concatenated with UNION ALL, one copy of each version.
* ``ALL VERSIONS OF CVD <name>`` — a relation of ``(vid, <data attrs>)``
  with one row per (version, record) membership pair, enabling aggregates
  grouped by version and version-predicate queries.
* ``VERSIONS ANCESTOR OF <vid> OF CVD <name>`` and
  ``VERSIONS DESCENDANT OF <vid> OF CVD <name>`` — lineage predicates: a
  relation of ``(vid, num_records, commit_t, msg)`` rows for every
  version on the requested axis, answered by the version graph's
  interval index (O(log n) probes, see :mod:`repro.core.lineage`) rather
  than a graph walk.

The storage engine knows nothing of versions: its planner hands each such
item to the resolver an :class:`~repro.core.orpheus.OrpheusDB` session
registers on its Database, :meth:`QueryTranslator.translate`.  Every
construct first checks that each vid it names exists.  A model that can
express retrieval in SQL answers with its Table-1 plan, built in code
(:meth:`~repro.core.datamodels.base.DataModel.version_plan` without its
``rid`` item, or ``all_versions_plan``), as a derived table the planner
scans like any other; nothing is parsed.  A lineage axis is a scan of the
CVD's metadata table filtered to the probed vids.  The delta
model cannot express a version in SQL, so its versions are reconstructed
outside the database (the cost the paper attributes to delta storage) and
handed to the planner as rows; no catalog table is created.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.datamodels.base import union_all
from repro.storage.executor import Relation
from repro.storage.expression import ColumnRef, InSet
from repro.storage.parser import ast_nodes as ast
from repro.storage.types import DataType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cvd import CVD

_METADATA_COLUMNS = ("vid", "num_records", "commit_t", "msg")


class QueryTranslator:
    """Turns each versioned FROM item into a relation the planner scans."""

    def __init__(self, cvd_lookup: Callable[[str], "CVD"]):
        self._cvd_lookup = cvd_lookup

    def __call__(self, ref: ast.VersionRef) -> ast.SubqueryRef | Relation:
        # Looked up per call, so a wrapper on the class sees every resolve.
        return self.translate(ref)

    def translate(self, ref: ast.VersionRef) -> ast.SubqueryRef | Relation:
        """A derived table for ``ref``, or its rows when SQL cannot say it."""
        cvd = self._cvd_lookup(ref.cvd)
        for vid in ref.vids:
            cvd.version(vid)  # raises VersionNotFoundError
        if ref.kind in ("ancestor", "descendant"):
            return ast.SubqueryRef(_lineage_select(cvd, ref), ref.binding)
        model = cvd.model
        if not model.supports_sql_rewriting:
            return _reconstructed(cvd, ref)
        if ref.kind == "all":
            query = model.all_versions_plan()
        else:
            plans = [model.version_plan(vid) for vid in ref.vids]
            query = union_all([plan._replace(items=plan.items[1:]) for plan in plans])
        return ast.SubqueryRef(query, ref.binding)


def _lineage_select(cvd: "CVD", ref: ast.VersionRef) -> ast.Select:
    vid = ref.vids[0]
    if ref.kind == "ancestor":
        vids = cvd.graph.ancestors(vid)
    else:
        vids = cvd.graph.descendants(vid)
    return ast.Select(
        items=[ast.SelectItem(ColumnRef(name)) for name in _METADATA_COLUMNS],
        from_items=[ast.TableRef(cvd.metadata_table)],
        where=InSet(ColumnRef("vid"), frozenset(vids)),
    )


def _reconstructed(cvd: "CVD", ref: ast.VersionRef) -> Relation:
    """Rows of ``ref`` from the model's own reconstruction (delta)."""
    columns = cvd.model.data_schema.columns
    names = [column.name for column in columns]
    types = [column.dtype for column in columns]
    fetch = cvd.model.fetch_version
    if ref.kind != "all":
        rows = [row[1:] for vid in ref.vids for row in fetch(vid)]
        return Relation(names, rows, types)
    rows = [(vid, *row[1:]) for vid in sorted(cvd.membership) for row in fetch(vid)]
    return Relation(["vid", *names], rows, [DataType.INTEGER, *types])
