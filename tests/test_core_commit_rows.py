"""A checkout table commits as read, and resolves exactly as before.

When the staged table's data columns are the CVD's own (name, dtype), in
order, every value in it was coerced by ``types.coerce`` on its way in, so
``OrpheusDB.commit`` hands the rows to ``CVD.commit_rows`` with
``rows_coerced=True``: no ``_conform_row`` rebuild, no per-row
``coerce_row``, only the NOT NULL check.  These tests hold that path to the
general one: on the same staged table (built twice, deterministically) the
journaled resolution — ``member_rids``, ``new_records``, ``parent_order`` —
is identical, value for value and type for type.
"""

import pytest

from repro.core.cvd import CVD
from repro.core.datamodels import MODEL_REGISTRY
from repro.core.orpheus import OrpheusDB
from repro.errors import ConstraintViolationError
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType

MODELS = sorted(MODEL_REGISTRY) + ["partitioned"]

SCHEMA = TableSchema(
    [
        Column("k", DataType.INTEGER),
        Column("x", DataType.DECIMAL),
        Column("t", DataType.TEXT),
        Column("b", DataType.BOOLEAN),
    ],
    ("k",),
)
NOT_NULL_SCHEMA = TableSchema(
    [Column("k", DataType.INTEGER), Column("t", DataType.TEXT, not_null=True)],
    ("k",),
)
ROOT = [
    (0, float("nan"), "naïve ☃", True),
    (1, -0.0, "ünïcödé", False),
    (2, 2.5, "plain", None),
    (3, None, "三", True),
] + [(k, k * 0.25, f"row {k}", k % 2 == 0) for k in range(4, 24)]


def staged(model: str) -> OrpheusDB:
    """A CVD (optimized for ``partitioned``) with one edited checkout ``w``."""
    orpheus = OrpheusDB()
    orpheus.init(
        "c",
        SCHEMA,
        rows=ROOT,
        model=None if model == "partitioned" else model,
        primary_key=("k",),
    )
    if model == "partitioned":
        orpheus.optimize("c")
    orpheus.checkout("c", 1, table_name="w")
    orpheus.run("UPDATE w SET x = -0.0, t = 'é→ü' WHERE k = 5")
    orpheus.run("DELETE FROM w WHERE k = 6")
    # User-inserted rows carry a NULL rid; 7 is an int in a DECIMAL column.
    orpheus.run("INSERT INTO w (k, x, t, b) VALUES (100, 7, 'ß', false)")
    orpheus.run("INSERT INTO w (k, x, t, b) VALUES (101, NULL, '∅', NULL)")
    return orpheus


def spy_commit_rows(monkeypatch, force_general: bool) -> list[dict]:
    """Record each commit_rows call; optionally force the general path."""
    calls = []
    original = CVD.commit_rows

    def spy(self, parents, rows, **kwargs):
        if force_general:
            kwargs["rows_coerced"] = False
        calls.append(kwargs)
        return original(self, parents, rows, **kwargs)

    monkeypatch.setattr(CVD, "commit_rows", spy)
    return calls


def fingerprint(resolved: dict) -> str:
    """repr keeps what == hides: nan, -0.0, 7 vs 7.0, True vs 1."""
    return repr(
        (
            resolved["member_rids"],
            sorted(resolved["new_records"].items()),
            resolved["parent_order"],
        )
    )


@pytest.mark.parametrize("model", MODELS)
class TestSameResolution:
    def test_checkout_table_resolves_like_general_path(self, model, monkeypatch):
        resolutions = []
        for force_general in (False, True):
            with monkeypatch.context() as patch:
                calls = spy_commit_rows(patch, force_general)
                orpheus = staged(model)
                orpheus.commit("w", message="edit")
            assert calls[0]["rows_coerced"] is not force_general
            resolutions.append(fingerprint(calls[0]["resolved"]))
        assert resolutions[0] == resolutions[1]

    def test_new_records_hold_canonical_values(self, model):
        orpheus = staged(model)
        vid = orpheus.commit("w")
        rows = {row[1]: row[2:] for row in orpheus.cvd("c").checkout_rows([vid])}
        assert repr(rows[100]) == repr((7.0, "ß", False))
        assert repr(rows[5]) == repr((-0.0, "é→ü", False))
        assert rows[0][0] != rows[0][0]  # NaN kept as NaN
        assert rows[101] == (None, "∅", None)

    def test_duplicated_rid_row_still_rejected(self, model, monkeypatch):
        for force_general in (False, True):
            with monkeypatch.context() as patch:
                spy_commit_rows(patch, force_general)
                orpheus = staged(model)
                orpheus.run("INSERT INTO w SELECT * FROM w WHERE k = 2")
                with pytest.raises(ConstraintViolationError, match="twice"):
                    orpheus.commit("w")

    @pytest.mark.parametrize("rows_coerced", [False, True])
    def test_null_in_not_null_column_raises(self, model, rows_coerced):
        orpheus = OrpheusDB()
        orpheus.init(
            "n",
            NOT_NULL_SCHEMA,
            rows=[(k, f"v{k}") for k in range(5)],
            model=None if model == "partitioned" else model,
            primary_key=("k",),
        )
        if model == "partitioned":
            orpheus.optimize("n")
        cvd = orpheus.cvd("n")
        rows = cvd.checkout_rows([1])
        rows[2] = rows[2][:2] + (None,)
        with pytest.raises(
            ConstraintViolationError, match="null value in NOT NULL column 't'"
        ):
            cvd.commit_rows([1], rows, rows_coerced=rows_coerced)
        # Refused while resolving the row: no rid allocated, nothing stored.
        assert (cvd.version_count, cvd.record_count) == (1, 5)


class TestGeneralPathKept:
    def test_evolved_schema_takes_general_path(self, monkeypatch):
        calls = spy_commit_rows(monkeypatch, force_general=False)
        orpheus = staged("split_by_rlist")
        orpheus.run("ALTER TABLE w ADD COLUMN extra int")
        orpheus.run("UPDATE w SET extra = k")
        vid = orpheus.commit("w")
        assert calls[-1]["rows_coerced"] is False
        assert orpheus.cvd("c").data_schema.column_names[-1] == "extra"
        assert len(orpheus.cvd("c").checkout_rows([vid])) == len(ROOT) + 1

    def test_commit_csv_takes_general_path(self, monkeypatch, tmp_path):
        calls = spy_commit_rows(monkeypatch, force_general=False)
        orpheus = staged("split_by_rlist")
        path = tmp_path / "v1.csv"
        orpheus.checkout_csv("c", 1, path)
        orpheus.commit_csv(path, message="csv")
        assert not calls[-1].get("rows_coerced")
