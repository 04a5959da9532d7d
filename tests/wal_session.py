"""A scripted durable session that journals every WAL operation kind.

``run_session`` drives one store through create_user, config, init, drop,
SQL ``run``, tracked, row-compared, merge, schema-evolving and CSV commits,
``optimize``, commits with their maintenance samples, a standalone
``maintain``, an online migration (one ``migration`` record, journaled
after it runs) and a re-optimize, then checkpoints.  It returns the decoded WAL payloads
and the snapshot manifest with the wall-clock timings blanked and the
scratch directory spelled ``<root>``, so two releases can be compared
record for record.  Records carry their rows as base64 blocks of typed
columns; :func:`unpacked` turns them back into the JSON lists the fixture
holds (``rows``; ``drop``; ``new_records`` as ``[rid, payload]`` pairs), so
the fixture shows the packed record carries exactly the old information.

``tests/fixtures/wal_session.jsonl`` holds what the release before the
prepare/apply split wrote, one WAL record per line and the manifest last;
``test_persist_apply.py`` holds every later release to it.  It was
re-recorded three times: when each ``migration_start`` +
``migration_finish`` pair became one ``migration`` record and the
optimizer state lost ``pending_migration``; when manifest format 5
wrote each version's membership as a base64 bitmap and stopped writing
segments for the rlist tables derived from it; and when format 6 put
every table's rows in one ``segments.bin`` of typed column blocks (only
``format`` and each table entry's ``file``/``offset``/``bytes``/``crc``
changed).  Records have carried their rows as column blocks since, with
the fixture's WAL lines unchanged through :func:`unpacked`.  Regenerate
(only on a deliberate format change) with::

    PYTHONPATH=src:tests python tests/wal_session.py > tests/fixtures/wal_session.jsonl
"""

from __future__ import annotations

import base64
import csv
import json
import sys
import tempfile
from pathlib import Path

from repro.partition.bipartite import Partitioning
from repro.persist import Store
from repro.persist.wal import encode_record
from repro.storage.types import DataType, block_shape, decode_column

FIXTURE = Path(__file__).parent / "fixtures" / "wal_session.jsonl"
TIMINGS = ("wall_seconds", "migration_wall_seconds")


#: A column's type by the tag after its NULL flag (and mask), so a block
#: decodes without its schema.
_TAG_TYPES = {
    **dict.fromkeys(b"bhiqx", DataType.INTEGER),
    ord("d"): DataType.DECIMAL,
    ord("?"): DataType.BOOLEAN,
    ord("s"): DataType.TEXT,
    ord("a"): DataType.INT_ARRAY,
}


def block_rows(text: str) -> list[list]:
    """The rows of a record's base64 block, as JSON lists."""
    data = memoryview(base64.b64decode(text))
    rows, width = block_shape(data)
    columns, at = [], 12
    for _ in range(width):
        dtype = _TAG_TYPES[data[at + 1 + data[at] * rows]]
        values, at = decode_column(data, at, rows, dtype)
        columns.append(values)
    assert at == len(data)
    return [list(row) for row in zip(*columns)] if columns else [[]] * rows


def unpacked(payload: dict) -> dict:
    """A WAL payload with its blocks as the JSON lists they replaced."""
    out = dict(payload)
    if out.get("op") == "init":
        out["rows"] = block_rows(out["rows"])
    elif out.get("op") == "commit":
        first = out.pop("first_rid")
        out["drop"] = [rid for (rid,) in block_rows(out["drop"])]
        out["new_records"] = [
            [rid, row] for rid, row in enumerate(block_rows(out["new_records"]), first)
        ]
    return out


class Journal:
    """A journal that keeps each record it is handed, JSON-decoded, in
    ``records`` (:func:`unpacked` reads their blocks); with a ``store`` it
    appends them there too."""

    def __init__(self, store=None):
        self.records: list[dict] = []
        self.store = store

    encode = staticmethod(encode_record)

    def append(self, body: bytes, barrier: bool) -> None:
        self.records.append(json.loads(body))
        if self.store is not None:
            self.store.append(body, barrier)


def _blank_timings(value):
    """The document with every wall-clock field set to None."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if key in TIMINGS:
                out[key] = None
            elif key == "migrations" and isinstance(item, list):
                # An optimizer trace: [at, modifications, inserted, deleted,
                # wall_seconds, strategy] per migration.
                out[key] = [event[:4] + [None] + event[5:] for event in item]
            else:
                out[key] = _blank_timings(item)
        return out
    if isinstance(value, list):
        return [_blank_timings(item) for item in value]
    return value


def _edit(orpheus, cvd: str, vid, sql: str, **commit) -> int:
    orpheus.checkout(cvd, vid, table_name="w")
    orpheus.run(sql)
    return orpheus.commit("w", **commit)


def run_session(root: Path) -> dict:
    store = Store.open(root / "store", checkpoint_interval=0)
    orpheus = store.orpheus
    orpheus.create_user("ana")
    orpheus.config("ana")
    orpheus.init(
        "p",
        [("k", "int"), ("v", "int")],
        rows=[(k, k * 10) for k in range(24)],
        primary_key=("k",),
    )
    orpheus.init("gone", [("a", "text")], rows=[("x",)], model="table_per_version")
    orpheus.drop("gone")
    orpheus.run("CREATE TABLE notes (id int, body text)")
    orpheus.run("INSERT INTO notes VALUES (1, 'a'), (2, 'b')")

    v2 = _edit(orpheus, "p", 1, "UPDATE w SET v = v + 1 WHERE k < 6", message="tracked")
    orpheus.checkout("p", 1, table_name="w")
    orpheus.run("DELETE FROM w WHERE k > 18")
    orpheus.db.table("w").changes = None  # the row-by-row path
    v3 = orpheus.commit("w", message="compared")
    orpheus.checkout("p", [v2, v3], table_name="w")
    v4 = orpheus.commit("w", message="merge")
    orpheus.checkout("p", v4, table_name="w")
    orpheus.run("ALTER TABLE w ADD COLUMN note text")
    orpheus.run("UPDATE w SET note = 'n' WHERE k = 1")
    v5 = orpheus.commit("w", message="evolve")
    path = root / "p.csv"
    orpheus.checkout_csv("p", v5, path)
    with path.open() as handle:
        rows = list(csv.reader(handle))
    rows[1][1] = "777"
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    tip = orpheus.commit_csv(path, message="csv")

    optimizer = orpheus.optimize("p", tolerance=1.05)
    for step in range(4):
        tip = _edit(
            orpheus,
            "p",
            tip,
            f"UPDATE w SET v = {step} WHERE k % 5 = {step}",
            message=f"step {step}",
        )
    cvd = orpheus.cvd("p")
    optimizer.migrate(Partitioning.single(cvd.graph.version_ids()))
    tip = _edit(orpheus, "p", tip, "DELETE FROM w WHERE k = 3", message="after")
    optimizer.after_commit()
    orpheus.optimize("p", storage_threshold=1.5)
    _edit(orpheus, "p", tip, "INSERT INTO w (k, v) VALUES (500, 5)", message="last")

    wal = [unpacked(record.payload) for _end, record in store.wal.records_from(0)]
    snapshot = store.checkpoint()
    manifest = json.loads((snapshot / "manifest.json").read_text())
    store.close()
    document = json.dumps(_blank_timings({"wal": wal, "manifest": manifest}))
    return json.loads(document.replace(str(root), "<root>"))


def load_fixture() -> dict:
    *wal, manifest = map(json.loads, FIXTURE.read_text().splitlines())
    return {"wal": wal, "manifest": manifest}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        session = run_session(Path(scratch))
    for line in [*session["wal"], session["manifest"]]:
        sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
