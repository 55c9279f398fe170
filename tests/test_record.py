"""`semdiff.record.record` against `dataclasses.dataclass` as the reference.

Each class body below is built twice, once per decorator, with the option
sets the package uses: frozen, frozen + order, frozen + eq=False with its
own `__eq__`/`__hash__`, and mutable with `default_factory`.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import semdiff
from semdiff.record import FrozenRecordError, field, record


def both(body, **opts):
    """(dataclass version, record version) of the class `body()` returns."""
    return dataclasses.dataclass(**opts)(body()), record(**opts)(body())


def point_body():
    class Point:
        x: object
        y: object = 0
    return Point


def key_body():
    class Key:
        kind: str
        names: tuple

        def payload(self) -> str:
            return ",".join(self.names)
    return Key


def handle_body():
    class Handle:
        owner: object
        node: int

        def __eq__(self, other):
            return isinstance(other, Handle) and other.node == self.node

        def __hash__(self):
            return hash(self.node) * 7
    return Handle


def report_body(fresh_field):
    def body():
        class Report:
            direction: tuple
            entries: list = fresh_field(default_factory=list)
            seen: dict = fresh_field(default_factory=dict)
            exhaustive: bool = True
        return Report
    return body


def span_body():
    class Span:
        lo: int
        hi: int

        def __post_init__(self):
            if self.hi < self.lo:
                raise ValueError(f"empty span {self.lo}..{self.hi}")
    return Span


def single_body():
    class Single:
        value: object
    return Single


VALUES = [(0, 0), (1, 0), (0, 1), (1, "a"), ("a", (1, 2)), (None, frozenset({3})),
          (-5, ()), (2**70, "a")]


def test_frozen_repr_eq_hash_match_dataclass():
    dc, rc = both(point_body, frozen=True)
    for x, y in VALUES:
        a, b = dc(x, y), rc(x, y)
        assert repr(a) == repr(b)
        assert hash(a) == hash(b) == hash((x, y))
        for x2, y2 in VALUES:
            assert (a == dc(x2, y2)) == (b == rc(x2, y2))
            assert (a != dc(x2, y2)) == (b != rc(x2, y2))
    assert rc.__match_args__ == dc.__match_args__ == ("x", "y")


def test_one_field_record_hashes_a_one_tuple():
    dc, rc = both(single_body, frozen=True)
    for v in (0, "x", (1, 2), None):
        assert hash(rc(v)) == hash(dc(v)) == hash((v,))
        assert repr(rc(v)) == repr(dc(v))
        assert rc(v) == rc(v) and rc(v) != rc((v,))
    nan = float("nan")
    assert (rc(nan) == rc(nan)) == (dc(nan) == dc(nan))


def test_frozen_assignment_and_deletion_raise_attribute_errors():
    dc, rc = both(point_body, frozen=True)
    for obj in (dc(1, 2), rc(1, 2)):
        with pytest.raises(AttributeError):
            obj.x = 3
        with pytest.raises(AttributeError):
            obj.other = 3
        with pytest.raises(AttributeError):
            del obj.y
        assert (obj.x, obj.y) == (1, 2)
    with pytest.raises(FrozenRecordError):
        rc(1, 2).x = 3
    assert issubclass(FrozenRecordError, AttributeError)
    assert issubclass(dataclasses.FrozenInstanceError, AttributeError)


def test_frozen_order_sorts_like_dataclass():
    dc, rc = both(key_body, frozen=True, order=True)
    keys = [("b", ("x",)), ("a", ("y", "z")), ("a", ("y",)), ("b", ()), ("a", ("y",))]
    expected = [(k.kind, k.names) for k in sorted(dc(*k) for k in keys)]
    assert [(k.kind, k.names) for k in sorted(rc(*k) for k in keys)] == expected
    for p in keys:
        for q in keys:
            for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
                assert getattr(dc(*p), op)(dc(*q)) == getattr(rc(*p), op)(rc(*q))
    assert rc("a", ("b", "c")).payload() == "b,c"
    assert hash(rc("a", ("b",))) == hash(dc("a", ("b",)))
    with pytest.raises(TypeError):
        rc("a", ()) < ("a", ())
    with pytest.raises(TypeError):
        dc("a", ()) < ("a", ())


def test_eq_false_keeps_class_defined_eq_and_hash():
    dc = dataclasses.dataclass(frozen=True, eq=False)(handle_body())
    body = handle_body()
    own_eq, own_hash = body.__dict__["__eq__"], body.__dict__["__hash__"]
    rc = record(frozen=True, eq=False)(body)
    assert rc.__dict__["__eq__"] is own_eq and rc.__dict__["__hash__"] is own_hash
    a, b, c = rc("m", 4), rc("other", 4), rc("m", 5)
    assert a == b and a != c and hash(a) == hash(b) == hash(4) * 7
    assert (dc("m", 4) == dc("other", 4)) and hash(dc("m", 4)) == hash(4) * 7
    assert repr(a) == repr(dc("m", 4))
    with pytest.raises(AttributeError):
        a.node = 1


def test_methods_the_body_defines_are_kept():
    def body():
        class Named:
            name: str
            size: int

            def __repr__(self):
                return f"<{self.name}>"

            def __eq__(self, other):
                return isinstance(other, Named) and other.name == self.name
        return Named

    for cls in both(body, frozen=True):
        assert repr(cls("a", 1)) == "<a>" and cls("a", 1) == cls("a", 2)
        # a body's __eq__ without __hash__ still gets the field-tuple hash
        assert hash(cls("a", 1)) == hash(("a", 1))

    def hashed_body():
        class Hashed:
            name: str

            def __hash__(self):
                return 42
        return Hashed

    for cls in both(hashed_body, frozen=True):
        assert hash(cls("a")) == 42 and cls("a") == cls("a")


def test_eq_false_without_own_methods_inherits_identity():
    dc, rc = both(point_body, frozen=True, eq=False)
    for cls in (dc, rc):
        a, b = cls(1, 2), cls(1, 2)
        assert a != b and a == a
        assert hash(a) == object.__hash__(a)


def test_mutable_records_get_fresh_factory_values_and_no_hash():
    dc = dataclasses.dataclass(report_body(dataclasses.field)())
    rc = record(report_body(field)())
    a, b = rc(("L", "R")), rc(("L", "R"))
    assert a.entries == [] and a.entries is not b.entries and a.seen is not b.seen
    a.entries.append(1)
    assert b.entries == [] and a != b
    b.entries.append(1)
    assert a == b
    assert rc.__hash__ is None and dc.__hash__ is None
    with pytest.raises(TypeError):
        hash(a)
    a.exhaustive = False
    assert repr(a) == repr(dc(("L", "R"), [1], {}, False))
    assert "entries" not in rc.__dict__ and rc.exhaustive is True


def test_defaults_and_keyword_arguments_bind_like_dataclass():
    dc, rc = both(point_body, frozen=True)
    calls = [((1,), {}), ((), {"x": 1}), ((1,), {"y": 2}), ((), {"y": 2, "x": 1}),
             ((1, 2), {})]
    for args, kwargs in calls:
        assert repr(rc(*args, **kwargs)) == repr(dc(*args, **kwargs))
    bad = [((), {}), ((1, 2, 3), {}), ((1,), {"z": 2}), ((1,), {"x": 2}),
           ((), {"y": 2})]
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            dc(*args, **kwargs)
        with pytest.raises(TypeError):
            rc(*args, **kwargs)


def test_post_init_runs_last_and_its_error_propagates():
    dc, rc = both(span_body, frozen=True)
    assert repr(rc(1, 2)) == repr(dc(1, 2))
    assert rc(lo=3, hi=3) == rc(3, 3)
    for cls in (dc, rc):
        with pytest.raises(ValueError, match=r"empty span 3\.\.2"):
            cls(3, 2)
        with pytest.raises(ValueError, match=r"empty span 3\.\.2"):
            cls(hi=2, lo=3)


def test_cached_property_works_on_a_frozen_record():
    def body():
        class Diagram:
            names: tuple

            @cached_property
            def index(self):
                calls.append(1)
                return {n: i for i, n in enumerate(self.names)}
        return Diagram

    for cls in both(body, frozen=True):
        calls = []
        d = cls(("a", "b"))
        assert d.index == {"a": 0, "b": 1} and d.index["b"] == 1
        assert len(calls) == 1
        assert d == cls(("a", "b")) and hash(d) == hash((("a", "b"),))
        assert repr(d) == f"{cls.__qualname__}(names=('a', 'b'))"


def test_records_of_different_classes_are_never_equal():
    dc1, rc1 = both(point_body, frozen=True)
    dc2, rc2 = both(point_body, frozen=True)
    for c1, c2 in ((dc1, dc2), (rc1, rc2)):
        assert not (c1(1, 2) == c2(1, 2)) and c1(1, 2) != c2(1, 2)
        assert c1(1, 2) != (1, 2) and c1(1, 2).__eq__((1, 2)) is NotImplemented


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # semdiff.cli imports every module of the package
    src = str(Path(semdiff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, semdiff.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
