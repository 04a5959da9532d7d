"""The slotted record classes behave as the dataclasses they replaced.

Every subclass of :class:`repro.record.Record` in the engine, core,
persistence, serving and partitioning packages is checked against a
dataclass built from its ``_fields`` (``frozen=True`` for the hashable
flavour): the same repr text, equality only by field values and only
within one class, the same hash for frozen records, and no hash for
mutable ones.  ``_fields`` must name the ``__init__`` parameters in
order, because :func:`~repro.storage.expression.map_children` and
``_replace`` rebuild a record positionally.  Last, rebuilding every
expression of the parser fuzz corpora with the identity function gives
back an equal tree.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest
import test_core_versioned_sql_fuzz
import test_storage_parser
import test_storage_sql_fuzz

from repro.record import FrozenRecord, Record
from repro.serve.cache import Reply
from repro.storage.executor import Operator, QueryProfile
from repro.storage.expression import Expression, map_children
from repro.storage.parser.parser import parse_sql
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType

PACKAGES = ("storage", "core", "persist", "serve", "partition")


def _import_packages() -> None:
    for package in PACKAGES:
        module = importlib.import_module(f"repro.{package}")
        for info in pkgutil.walk_packages(module.__path__, f"repro.{package}."):
            importlib.import_module(info.name)


def _records() -> list[type]:
    _import_packages()
    prefixes = tuple(f"repro.{package}." for package in PACKAGES)
    found, stack = [], [Record]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith(prefixes) and cls not in found:
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


RECORDS = _records()
#: Classes with explicit hashes of their own (a subquery hashes by the
#: identity of its mutable Select).
OWN_HASH = {"ScalarSubquery", "InSubquery", "ArraySubquery"}


def _arguments(cls: type, tag: str) -> list:
    """Field values ``cls.__init__`` keeps as given: one per field."""
    if cls is TableSchema:
        return [[Column(f"c{tag}", DataType.INTEGER)], (f"c{tag}",)]
    if cls.__name__ == "VersionTreeView":
        return [1, {1: None}, {1: []}, {1: 3}, {}, f"dup{tag}"]
    values = [f"{name}-{tag}" for name in cls._fields]
    if issubclass(cls, Operator):
        values[:2] = [QueryProfile(), None]
    return values


def _oracle(cls: type, frozen: bool) -> type:
    oracle = dataclasses.make_dataclass(
        cls.__name__, [(name, object) for name in cls._fields], frozen=frozen
    )
    oracle.__qualname__ = cls.__qualname__
    return oracle


def test_the_packages_define_the_records():
    names = {cls.__name__ for cls in RECORDS}
    assert {"BinaryOp", "Select", "Sort", "IOStats", "Version", "WalRecord"} <= names
    assert {"RefreshResult", "Reply", "PartitionState", "Partitioning"} <= names
    assert len([cls for cls in RECORDS if cls._fields]) >= 70


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestRecordProtocol:
    def test_fields_are_the_init_parameters_in_order(self, cls):
        if cls.__init__ is object.__init__:
            assert cls._fields == ()
            return
        parameters = list(inspect.signature(cls.__init__).parameters)
        assert tuple(parameters[1:]) == cls._fields

    def test_repr_is_the_dataclass_repr(self, cls):
        if cls.__init__ is object.__init__:
            assert repr(cls()) == f"{cls.__qualname__}()"
            return
        values = _arguments(cls, "a")
        expected = _oracle(cls, frozen=False)(*values)
        assert repr(cls(*values)) == repr(expected)

    def test_equal_fields_make_equal_records(self, cls):
        if cls.__init__ is object.__init__:
            assert cls() == cls() and cls() != object()
            return
        values = _arguments(cls, "a")
        first, second = cls(*values), cls(*values)
        if cls is Reply:  # compares by identity, as its eq=False dataclass did
            assert first == first and first != second
            return
        assert first == second and not first != second
        other = _arguments(cls, "b")
        assert cls(*values) != cls(*other)
        assert first != _oracle(cls, frozen=False)(*values)

    def test_frozen_records_hash_like_frozen_dataclasses(self, cls):
        if cls is Reply:
            reply = cls(*_arguments(cls, "a"))
            assert hash(reply) == object.__hash__(reply)
            return
        if not issubclass(cls, FrozenRecord):
            with pytest.raises(TypeError):
                hash(cls(*_arguments(cls, "a")))
            return
        if cls.__init__ is object.__init__:
            assert hash(cls()) == hash(_oracle(cls, frozen=True)())
            return
        values = _arguments(cls, "a")
        assert hash(cls(*values)) == hash(cls(*values))
        if cls.__name__ not in OWN_HASH:
            assert hash(cls(*values)) == hash(_oracle(cls, frozen=True)(*values))


def test_mutable_defaults_are_fresh_per_instance():
    from repro.core.version import Version
    from repro.storage.parser.ast_nodes import Select

    first, second = Select([]), Select([])
    first.from_items.append("x")
    assert second.from_items == [] and second.joins == [] and second.order_by == []
    one, two = Version(1), Version(2)
    one.children.append(3)
    assert two.children == []


def test_replace_keeps_the_other_fields_and_refuses_unknown_ones():
    select = parse_sql("SELECT a FROM t WHERE a > 1 ORDER BY a LIMIT 3")[0]
    changed = select._replace(items=[])
    assert changed.items == [] and changed.where is select.where
    assert changed.from_items is select.from_items and changed.limit == 3
    with pytest.raises(TypeError, match="no field 'nope'"):
        select._replace(nope=1)


def _expressions(node, out: list) -> list:
    if isinstance(node, (list, tuple)):
        for item in node:
            _expressions(item, out)
    elif isinstance(node, Record):
        if isinstance(node, Expression):
            out.append(node)
        for name in node._fields:
            _expressions(getattr(node, name), out)
    return out


CORPUS = [
    *test_storage_sql_fuzz.VALID,
    *test_core_versioned_sql_fuzz.VALID,
    *test_storage_parser.PREFIX_CORPUS,
]


@pytest.mark.parametrize("sql", CORPUS)
def test_map_children_with_identity_rebuilds_an_equal_tree(sql):
    expressions = _expressions(parse_sql(sql), [])
    assert expressions
    for expr in expressions:
        rebuilt = map_children(expr, lambda child: child)
        assert type(rebuilt) is type(expr)
        assert rebuilt == expr
        assert repr(rebuilt) == repr(expr)
