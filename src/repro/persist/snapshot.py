"""Snapshot (checkpoint) format: full state, per-table segments, atomic.

A snapshot is one directory::

    snap-00000042/
      manifest.json        catalog + middleware state + segment checksums
      seg-00000.jsonl      one table's rows, one JSON array per line
      seg-00001.jsonl
      ...

The writer builds the whole directory under a temporary name, fsyncs every
file, then atomically renames it into place — a crash mid-checkpoint leaves
only an ignorable ``*.tmp`` directory and the previous snapshot intact.

The manifest records, per table, the schema (stable name/type encoding via
:meth:`TableSchema.to_dict`), clustering, primary-key enforcement, index
definitions, and a CRC-32 of the segment bytes; plus the middleware state:
logical clock, users and session, staged-checkout provenance, checkout
frequencies, and for every CVD its version graph, membership, attribute
catalog, counters, and data-model bookkeeping
(:meth:`~repro.core.datamodels.base.DataModel.extra_state`).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zlib
from pathlib import Path

from repro.core.access import AccessController
from repro.core.cvd import CVD
from repro.core.datamodels import resolve_model
from repro.core.orpheus import OrpheusDB
from repro.core.provenance import ProvenanceManager, StagedCheckout
from repro.core.schema_evolution import AttributeCatalog, AttributeEntry
from repro.core.translator import QueryTranslator
from repro.core.version import Version
from repro.core.version_graph import VersionGraph
from repro.errors import RecoveryError
from repro.obs import metrics
from repro.storage.engine import Database
from repro.storage.ridset import RidSet
from repro.storage.schema import TableSchema
from repro.storage.types import DataType

from repro.persist.fsutil import fsync_dir as _fsync_dir

#: Manifest format history:
#:
#: 1 — PR-1/PR-2 stores: tables + middleware state; a partitioned model's
#:     extra_state carries structure only, so restore drops the live
#:     placement policy (closest-parent fallback until ``optimize`` reruns).
#: 2 — adds optimizer decision state (delta*, budget knobs, trace, pending
#:     migration plans) under the partitioned model's extra_state
#:     ``"optimizer"`` key, restored by :meth:`DataModel.bind_cvd`.
#: 3 — adds the version graph's lineage interval-label state under a
#:     per-CVD ``"lineage"`` key (``None`` when the store never built the
#:     index).  Older manifests simply lack the key and the index
#:     rebuilds lazily on the first interval probe — the same
#:     closest-parent-style fallback format 1 uses for optimizer state.
#:
#: The writer always emits the current version; the reader accepts every
#: version listed here — a format-1 manifest simply has no optimizer key
#: and restores with the documented fallback.
FORMAT_VERSION = 3
SUPPORTED_FORMATS = (1, 2, 3)
MANIFEST_NAME = "manifest.json"

# Pid-aware handles: a pre-fork serve worker charges its own registry.
_WRITES = metrics.counter("persist.snapshot.writes")
_BYTES_WRITTEN = metrics.counter("persist.snapshot.bytes_written")
_WRITE_SECONDS = metrics.histogram("persist.snapshot.write_seconds")
_LOADS = metrics.counter("persist.snapshot.loads")
_LOAD_SECONDS = metrics.histogram("persist.snapshot.load_seconds")


# --------------------------------------------------------------------- write


def write_snapshot(orpheus: OrpheusDB, directory: str | Path, last_lsn: int) -> Path:
    """Write one snapshot under ``directory``; returns the snapshot path.

    ``last_lsn`` is the highest WAL lsn already applied to ``orpheus`` —
    recovery replays only records beyond it.
    """
    started = time.perf_counter()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    generation = _next_generation(directory)
    final = directory / f"snap-{generation:08d}"
    tmp = directory / f"snap-{generation:08d}.tmp"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()

    tables = []
    for index, table in enumerate(orpheus.db.tables()):
        segment = f"seg-{index:05d}.jsonl"
        crc, row_count = _write_segment(tmp / segment, table)
        tables.append(
            {
                "name": table.name,
                "file": segment,
                "crc": crc,
                "rows": row_count,
                "schema": table.schema.to_dict(),
                "clustered_on": table.clustered_on,
                "enforce_primary_key": table.enforce_primary_key,
                "indexes": table.index_specs(),
            }
        )
    manifest = {
        "format": FORMAT_VERSION,
        "last_lsn": last_lsn,
        "join_method": orpheus.db.join_method,
        "tables": tables,
        "orpheus": _orpheus_state(orpheus),
    }
    manifest_path = tmp / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8") as handle:
        # dumps, not dump: same bytes, but one pass of the C encoder
        # instead of a Python generator frame per nested value.
        handle.write(json.dumps(manifest, separators=(",", ":")))
        handle.flush()
        os.fsync(handle.fileno())
    # The tmp directory's own entries (each seg-*.jsonl) must be durable
    # before the rename publishes it, or a power loss could leave the
    # active snapshot missing segments with the WAL already compacted.
    _fsync_dir(tmp)
    os.replace(tmp, final)
    _fsync_dir(directory)
    _WRITES.inc()
    _BYTES_WRITTEN.inc(
        sum(entry.stat().st_size for entry in final.iterdir() if entry.is_file())
    )
    _WRITE_SECONDS.observe(time.perf_counter() - started)
    return final


def _next_generation(directory: Path) -> int:
    latest = 0
    for entry in directory.iterdir():
        name = entry.name
        if name.startswith("snap-") and not name.endswith(".tmp"):
            try:
                latest = max(latest, int(name[5:]))
            except ValueError:
                continue
    return latest + 1


def _write_segment(path: Path, table) -> tuple[int, int]:
    """Write one table's rows; returns (crc32-of-bytes, row count)."""
    crc = 0
    count = 0
    with open(path, "wb") as handle:
        for row in table.dump_rows():
            line = json.dumps(list(row), separators=(",", ":")).encode("utf-8") + b"\n"
            crc = zlib.crc32(line, crc)
            handle.write(line)
            count += 1
        handle.flush()
        os.fsync(handle.fileno())
    return crc, count


def _orpheus_state(orpheus: OrpheusDB) -> dict:
    access = orpheus.access
    return {
        "clock": orpheus._clock,
        "default_model": orpheus.default_model,
        "checkout_counts": [
            [name, sorted(counts.items())]
            for name, counts in sorted(orpheus._checkout_counts.items())
        ],
        "access": {
            "users": sorted(access._users),
            "current": access._current,
            "owners": sorted(access._owners.items()),
        },
        "provenance": [
            {
                "name": staged.name,
                "cvd_name": staged.cvd_name,
                "parent_vids": list(staged.parent_vids),
                "owner": staged.owner,
                "checkout_time": staged.checkout_time,
                "is_file": staged.is_file,
            }
            for staged in (
                orpheus.provenance.lookup(name)
                for name in orpheus.provenance.staged_names()
            )
        ],
        "cvds": [
            _cvd_state(orpheus._cvds[name]) for name in sorted(orpheus._cvds)
        ],
    }


def _cvd_state(cvd: CVD) -> dict:
    graph = cvd.graph
    return {
        "name": cvd.name,
        "data_schema": cvd.data_schema.to_dict(),
        "model": cvd.model.model_name,
        "model_state": cvd.model.extra_state(),
        "next_vid": cvd._next_vid,
        "next_rid": cvd._next_rid,
        "current_attribute_ids": list(cvd._current_attribute_ids),
        "versions": [
            {
                "vid": v.vid,
                "parents": list(v.parents),
                "num_records": v.num_records,
                "checkout_time": v.checkout_time,
                "commit_time": v.commit_time,
                "message": v.message,
                "attribute_ids": list(v.attribute_ids),
            }
            for v in graph.versions()
        ],
        "edges": [[p, c, w] for p, c, w in graph.edges()],
        "membership": [
            [vid, sorted(members)]
            for vid, members in sorted(cvd.membership.items())
        ],
        "attributes": [
            [e.attr_id, e.name, e.dtype.value] for e in cvd.attributes.entries()
        ],
        # Advisory, derivable state: fresh interval labels survive the
        # round-trip so a reopened store probes without a rebuild; None
        # (index never built, or labels stale) costs one lazy rebuild.
        "lineage": graph.lineage_export(),
    }


# ---------------------------------------------------------------------- load


def load_snapshot(snapshot_dir: str | Path) -> tuple[OrpheusDB, int]:
    """Rebuild an OrpheusDB from one snapshot; returns (orpheus, last_lsn).

    Raises :class:`RecoveryError` on a missing manifest or checksum
    mismatch — a half-written snapshot never becomes the recovered state
    because the writer only renames complete directories into place.
    """
    started = time.perf_counter()
    snapshot_dir = Path(snapshot_dir)
    manifest_path = snapshot_dir / MANIFEST_NAME
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise RecoveryError(
            f"unreadable snapshot manifest {manifest_path}: {exc}"
        ) from exc
    if manifest.get("format") not in SUPPORTED_FORMATS:
        raise RecoveryError(
            f"snapshot {snapshot_dir} has unsupported format "
            f"{manifest.get('format')!r} (this reader supports "
            f"{list(SUPPORTED_FORMATS)})"
        )
    db = Database(join_method=manifest["join_method"])
    for entry in manifest["tables"]:
        rows = _read_segment(snapshot_dir / entry["file"], entry["crc"])
        db.restore_table(
            entry["name"],
            TableSchema.from_dict(entry["schema"]),
            rows,
            clustered_on=entry["clustered_on"],
            enforce_primary_key=entry["enforce_primary_key"],
            index_specs=entry["indexes"],
        )
    orpheus = _restore_orpheus(db, manifest["orpheus"])
    _LOADS.inc()
    _LOAD_SECONDS.observe(time.perf_counter() - started)
    return orpheus, manifest["last_lsn"]


def _read_segment(path: Path, expected_crc: int) -> list[list]:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise RecoveryError(f"missing snapshot segment {path}: {exc}") from exc
    if zlib.crc32(data) != expected_crc:
        raise RecoveryError(f"snapshot segment {path} failed its CRC check")
    return [json.loads(line) for line in data.splitlines() if line]


def _model_class(name: str):
    if name == "partitioned_rlist":
        from repro.partition.partition_manager import PartitionedRlistModel

        return PartitionedRlistModel
    return resolve_model(name)


def _restore_orpheus(db: Database, state: dict) -> OrpheusDB:
    orpheus = OrpheusDB.__new__(OrpheusDB)
    orpheus.db = db
    orpheus.default_model = state["default_model"]
    orpheus._cvds = {}
    orpheus.provenance = ProvenanceManager()
    orpheus.access = AccessController()
    orpheus.translator = QueryTranslator(orpheus.cvd)
    orpheus._clock = state["clock"]
    orpheus._checkout_counts = {
        name: {vid: count for vid, count in counts}
        for name, counts in state["checkout_counts"]
    }
    orpheus._journal = None
    orpheus._replaying = False
    orpheus._ephemeral_dirty = False

    access_state = state["access"]
    orpheus.access._users = set(access_state["users"])
    orpheus.access._current = access_state["current"]
    orpheus.access._owners = {name: user for name, user in access_state["owners"]}
    for staged in state["provenance"]:
        orpheus.provenance.register(
            StagedCheckout(
                name=staged["name"],
                cvd_name=staged["cvd_name"],
                parent_vids=tuple(staged["parent_vids"]),
                owner=staged["owner"],
                checkout_time=staged["checkout_time"],
                is_file=staged["is_file"],
            )
        )
    orpheus._optimizers = {}
    for cvd_state in state["cvds"]:
        cvd = _restore_cvd(db, cvd_state)
        orpheus._cvds[cvd.name] = cvd
        optimizer = getattr(cvd.model, "optimizer", None)
        if optimizer is not None:
            orpheus._register_optimizer(cvd.name, optimizer)
    return orpheus


def _restore_cvd(db: Database, state: dict) -> CVD:
    cvd = CVD.__new__(CVD)
    cvd.db = db
    cvd.name = state["name"]
    cvd.data_schema = TableSchema.from_dict(state["data_schema"])
    model_cls = _model_class(state["model"])
    cvd.model = model_cls(db, cvd.name, cvd.data_schema)
    cvd.model.restore_extra_state(state["model_state"])
    cvd.graph = _restore_graph(state["versions"], state["edges"])
    # Format >= 3: adopt the journaled interval labels.  A missing key
    # (older manifest) or a state that fails validation leaves the index
    # stale; the first probe rebuilds it lazily.
    cvd.graph.lineage_import(state.get("lineage"))
    # Boundary conversion: the manifest keeps the sorted int-array wire
    # encoding; in memory membership lives as packed bitmaps.
    cvd.membership = {
        vid: RidSet(members) for vid, members in state["membership"]
    }
    cvd.attributes = AttributeCatalog(db, cvd.name)
    cvd.attributes._entries = [
        AttributeEntry(attr_id, name, DataType(type_name))
        for attr_id, name, type_name in state["attributes"]
    ]
    cvd._next_vid = state["next_vid"]
    cvd._next_rid = state["next_rid"]
    cvd._current_attribute_ids = tuple(state["current_attribute_ids"])
    # Late-restore hook: the partitioned model resumes its optimizer (and
    # with it the live placement policy) now that the CVD is complete.
    cvd.model.bind_cvd(cvd)
    return cvd


def _restore_graph(versions: list[dict], edges: list[list]) -> VersionGraph:
    graph = VersionGraph()
    for entry in versions:
        version = Version(
            vid=entry["vid"],
            parents=tuple(entry["parents"]),
            num_records=entry["num_records"],
            checkout_time=entry["checkout_time"],
            commit_time=entry["commit_time"],
            message=entry["message"],
            attribute_ids=tuple(entry["attribute_ids"]),
        )
        graph._versions[version.vid] = version
    # Edges are stored in insertion order, so children lists rebuild in the
    # order the original graph grew them.
    for parent, child, weight in edges:
        graph._versions[parent].children.append(child)
        graph._edge_weights[(parent, child)] = weight
    return graph
