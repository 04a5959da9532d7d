"""Snapshot (checkpoint) format: full state, one segment file, atomic.

A snapshot is one directory::

    snap-00000042/
      manifest.json        catalog + middleware state + block locations
      segments.bin         one block of typed columns per table

The writer builds the whole directory under a temporary name, fsyncs both
files, then atomically renames it into place — a crash mid-checkpoint
leaves only an ignorable ``*.tmp`` directory and the previous snapshot
intact.

A table's block is its row and column counts, then its columns in schema
order (:func:`~repro.storage.types.encode_block`, the codec WAL records
carry rows in as well).  The manifest records,
per table, the schema (stable name/type encoding via
:meth:`TableSchema.to_dict`), clustering, primary-key enforcement, index
definitions, and the block's ``offset``, ``bytes``, CRC-32 and ``rows``;
plus the middleware state:
logical clock, users and session, staged-checkout provenance, checkout
frequencies, and for every CVD its versions, membership, attribute
catalog, counters, and data-model bookkeeping
(:meth:`~repro.core.datamodels.base.DataModel.extra_state`).

Each version's membership is written once, in the CVD block, as the
base64 of its packed bitmap (:meth:`RidSet.to_bytes`).  Whatever is a
function of it is derived at load instead of stored: the version graph's
edge weights (shared-record counts), a partitioned model's per-partition
record sets, and the rows of every rlist table
(:meth:`~repro.core.datamodels.base.DataModel.derived_tables`).  Such a
table's manifest entry has ``"file": null``: it keeps the schema, indexes
and clustering, and the table is refilled once its CVD is restored.
"""

from __future__ import annotations

import base64
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
from repro.errors import RecoveryError, ReproError
from repro.obs import metrics
from repro.storage.engine import Database
from repro.storage.ridset import RidSet
from repro.storage.schema import TableSchema
from repro.storage.types import DataType, block_shape, decode_block, encode_block

from repro.persist.fsutil import fsync_dir as _fsync_dir

#: The one manifest format this module writes and reads.  Format 6 keeps
#: every table's rows as typed columns in one ``segments.bin``; each
#: version's membership once, as a base64 bitmap (no graph edges, and no
#: block for a table derived from membership); a partitioned model's
#: assignment, partition counter and optimizer decision state (delta*,
#: budget knobs, trace), restored by :meth:`DataModel.restore_extra_state`
#: once the CVD is complete; and each CVD's lineage interval labels under
#: ``"lineage"`` (``None`` when never built or stale: the first interval
#: probe rebuilds them).  Any other format is refused with RecoveryError.
FORMAT_VERSION = 6
MANIFEST_NAME = "manifest.json"
SEGMENTS_NAME = "segments.bin"

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

    derived = {
        name for cvd in orpheus._cvds.values() for name in cvd.model.derived_tables()
    }
    tables, blocks, offset = [], [], 0
    for table in orpheus.db.tables():
        entry = {"name": table.name, "file": None}
        if table.name not in derived:
            rows = list(table.dump_rows())
            block = encode_block(rows, table.schema.dtypes)
            entry.update(
                file=SEGMENTS_NAME,
                offset=offset,
                bytes=len(block),
                crc=zlib.crc32(block),
                rows=len(rows),
            )
            blocks.append(block)
            offset += len(block)
        entry.update(
            schema=table.schema.to_dict(),
            clustered_on=table.clustered_on,
            enforce_primary_key=table.enforce_primary_key,
            indexes=table.index_specs(),
        )
        tables.append(entry)
    manifest = {
        "format": FORMAT_VERSION,
        "last_lsn": last_lsn,
        "join_method": orpheus.db.join_method,
        "tables": tables,
        "orpheus": _orpheus_state(orpheus),
    }
    segments = b"".join(blocks)
    _write_durably(tmp / SEGMENTS_NAME, segments)
    # dumps, not dump: same bytes, but one pass of the C encoder instead of
    # a Python generator frame per nested value.
    text = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    _write_durably(tmp / MANIFEST_NAME, text)
    # The tmp directory's own entries must be durable before the rename
    # publishes it, or a power loss could leave the active snapshot
    # missing its segments with the WAL already compacted.
    _fsync_dir(tmp)
    os.replace(tmp, final)
    _fsync_dir(directory)
    _WRITES.inc()
    _BYTES_WRITTEN.inc(len(segments) + len(text))
    _WRITE_SECONDS.observe(time.perf_counter() - started)
    return final


def _next_generation(directory: Path) -> int:
    names = [e.name[5:] for e in directory.iterdir() if e.name.startswith("snap-")]
    return max((int(name) for name in names if name.isdigit()), default=0) + 1


def _write_durably(path: Path, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


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
        "membership": [
            [vid, base64.b64encode(members.to_bytes()).decode("ascii")]
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

    Checks the format; each block's CRC, row count and every length in it
    against the bytes left; every row's width, NOT NULL columns and types
    (:meth:`Table.load_rows`); and each version's bitmap against its record
    count; trusts uniqueness.  A failure is a :class:`RecoveryError` naming
    the snapshot and table, or the CVD and version.  The writer only renames
    complete directories into place, so none is ever half-written.
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
    if manifest.get("format") != FORMAT_VERSION:
        raise RecoveryError(
            f"snapshot {snapshot_dir} has unsupported format "
            f"{manifest.get('format')!r} (this reader supports "
            f"{FORMAT_VERSION})"
        )
    try:
        segments = memoryview((snapshot_dir / SEGMENTS_NAME).read_bytes())
    except OSError as exc:
        raise RecoveryError(f"snapshot {snapshot_dir}: {exc}") from exc
    db = Database(join_method=manifest["join_method"])
    derived = set()
    for entry in manifest["tables"]:
        schema = TableSchema.from_dict(entry["schema"])
        if entry["file"] is None:  # refilled below, from membership
            derived.add(entry["name"])
        try:
            db.restore_table(
                entry["name"],
                schema,
                [] if entry["file"] is None else _decode_block(segments, entry, schema),
                clustered_on=entry["clustered_on"],
                enforce_primary_key=entry["enforce_primary_key"],
                index_specs=entry["indexes"],
            )
        except ReproError as exc:
            raise RecoveryError(
                f"snapshot {snapshot_dir} table {entry['name']}: {exc}"
            ) from exc
    orpheus = _restore_orpheus(db, manifest["orpheus"])
    for cvd in orpheus._cvds.values():
        for name, rows in cvd.model.derived_tables().items():
            if name not in derived:
                raise RecoveryError(
                    f"snapshot {snapshot_dir}: CVD {cvd.name} derives table "
                    f"{name}, which the manifest lists with a segment or not at all"
                )
            derived.remove(name)
            db.table(name).load_rows(rows)
    if derived:
        raise RecoveryError(
            f"snapshot {snapshot_dir}: no CVD derives tables {sorted(derived)}"
        )
    _LOADS.inc()
    _LOAD_SECONDS.observe(time.perf_counter() - started)
    return orpheus, manifest["last_lsn"]


def _decode_block(data: memoryview, entry: dict, schema: TableSchema) -> list:
    """One table's rows from its block in ``data``: the CRC, the counts and
    every length are checked before anything is allocated."""
    start, size = entry["offset"], entry["bytes"]
    if not 0 <= start <= start + size <= len(data):
        raise RecoveryError(f"block [{start}, +{size}) is past the file's end")
    block = data[start : start + size]
    if zlib.crc32(block) != entry["crc"]:
        raise RecoveryError("block failed its CRC check")
    rows, width = block_shape(block)
    if (rows, width) != (entry["rows"], len(schema.columns)):
        raise RecoveryError(
            f"block holds {rows} rows of {width} columns, not "
            f"{entry['rows']} of {len(schema.columns)}"
        )
    return decode_block(block, schema.dtypes)


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
    db.version_resolver = orpheus.translator
    orpheus._clock = state["clock"]
    orpheus._checkout_counts = {
        name: {vid: count for vid, count in counts}
        for name, counts in state["checkout_counts"]
    }
    orpheus._journal = None
    orpheus._ephemeral_dirty = False
    orpheus._pending_barrier = False

    access_state = state["access"]
    orpheus.access._users = set(access_state["users"])
    orpheus.access._current = access_state["current"]
    orpheus.access._owners = {name: user for name, user in access_state["owners"]}
    for staged in state["provenance"]:
        orpheus.provenance.register(
            StagedCheckout(**dict(staged, parent_vids=tuple(staged["parent_vids"])))
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
    cvd.membership = {
        vid: _bitmap(cvd.name, vid, encoded) for vid, encoded in state["membership"]
    }
    cvd.model = _model_class(state["model"])(db, cvd.name, cvd.data_schema)
    cvd.model.membership = cvd.membership
    cvd.graph = _restore_graph(state["versions"], cvd)
    # Adopt the journaled interval labels.  None, or a state that fails
    # validation, leaves the index stale; the first probe rebuilds it.
    cvd.graph.lineage_import(state["lineage"])
    cvd.attributes = AttributeCatalog(db, cvd.name)
    cvd.attributes._entries = [
        AttributeEntry(attr_id, name, DataType(type_name))
        for attr_id, name, type_name in state["attributes"]
    ]
    cvd._next_vid = state["next_vid"]
    cvd._next_rid = state["next_rid"]
    cvd._current_attribute_ids = tuple(state["current_attribute_ids"])
    # The partitioned model derives its partition record sets and resumes
    # the optimizer that places its versions: the CVD is complete.
    cvd.model.restore_extra_state(state["model_state"], cvd)
    return cvd


def _restore_graph(versions: list[dict], cvd: CVD) -> VersionGraph:
    """Re-add the versions in commit order, weighting edges from the
    restored membership the way ingest does; children lists and
    ``edges()`` order come out as the original graph grew them."""
    graph = VersionGraph()
    if sorted(cvd.membership) != sorted(entry["vid"] for entry in versions):
        raise RecoveryError(
            f"snapshot CVD {cvd.name}: membership covers versions "
            f"{sorted(cvd.membership)}, not its own"
        )
    for entry in versions:
        fields = dict(entry, parents=tuple(entry["parents"]))
        fields["attribute_ids"] = tuple(entry["attribute_ids"])
        version = Version(**fields)
        members = cvd.membership[version.vid]
        if len(members) != version.num_records:
            raise RecoveryError(
                f"snapshot CVD {cvd.name} version {version.vid}: its bitmap "
                f"holds {len(members)} records, not {version.num_records}"
            )
        graph.add_version(version, cvd.edge_weights(members, version.parents))
    return graph


def _bitmap(cvd_name: str, vid: int, encoded) -> RidSet:
    try:
        return RidSet.from_bytes(base64.b64decode(encoded, validate=True))
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise RecoveryError(
            f"snapshot CVD {cvd_name} version {vid}: bad membership bitmap: {exc}"
        ) from exc
