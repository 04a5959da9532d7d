"""Cold start: what a spawned server imports before its first checkout.

``python -m repro.cli ... serve`` imports the CLI and the serving tier,
then opens the store.  None of that may load ``dataclasses`` (its code
generator, and the ``inspect`` it pulls in, were the largest share of
the import time) or the partitioning baselines an open never runs; the
replica-tree code loads only when a weighted search runs.  The
check runs in a fresh interpreter, against an optimized (partitioned)
store on disk opened read-only, as a server opens it; modules the bare
interpreter already loads are not held against the repo.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.partition import PartitionedRlistModel
from repro.persist import Store

SRC = str(Path(__file__).resolve().parent.parent / "src")

FORBIDDEN = [
    "dataclasses",
    "inspect",
    "repro.partition.agglo",
    "repro.partition.kmeans",
    "repro.partition.weighted",
]

BARE = "import json, sys; print(json.dumps(sorted(sys.modules)))"

OPEN_AND_REPORT = """
import json, sys
import repro.cli.main, repro.serve.workers
from repro.persist import Store
store = Store.open(sys.argv[1], mode="ro")
model = type(store.orpheus.cvd("p").model).__name__
rows = store.orpheus.checkout_rows("p", [3])
print(json.dumps({"model": model, "rows": len(rows), "modules": sorted(sys.modules)}))
"""


def _json_output(*args: str):
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": SRC},
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _optimized_store(root: Path) -> None:
    store = Store.open(root)
    orpheus = store.orpheus
    rows = [(k, f"v{k}") for k in range(40)]
    orpheus.init("p", [("k", "int"), ("v", "text")], rows=rows, primary_key=("k",))
    for vid in range(2, 7):
        orpheus.checkout("p", [vid - 1], "w")
        orpheus.run(f"UPDATE w SET v = 'x{vid}' WHERE k < {vid * 5}")
        orpheus.commit("w", message=f"edit {vid}")
    orpheus.optimize("p")
    assert isinstance(orpheus.cvd("p").model, PartitionedRlistModel)
    store.checkpoint()
    store.close()


def test_serve_start_path_imports_no_dataclasses_and_no_baselines(tmp_path):
    root = tmp_path / "store"
    _optimized_store(root)
    bare = _json_output("-c", BARE)
    report = _json_output("-c", OPEN_AND_REPORT, str(root))
    assert report["model"] == "PartitionedRlistModel"
    assert report["rows"] == 40
    loaded = [name for name in FORBIDDEN if name in report["modules"]]
    assert [name for name in loaded if name not in set(bare)] == []
