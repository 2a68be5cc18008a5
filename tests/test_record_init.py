"""How a record class gets its ``__init__``: a class with none of its own
gets one written from its fields at its first record, and a class keeps
any ``__init__`` that it or a class decorator gives it."""

import inspect
from dataclasses import dataclass

import pytest

from rotewords.cli import Outcome
from rotewords.words import Record

from test_records import FIELDS, NAMES, build

EMPTY = inspect.Parameter.empty


def signature(cls):
    return [(p.name, p.default)
            for p in inspect.signature(cls.__init__).parameters.values()]


def test_init_is_written_at_the_first_record():
    class Point(Record):
        x: int
        y: int = 0
        label: str = "p"

    assert "__init__" not in vars(Point)
    first = Point(1)
    init = vars(Point)["__init__"]
    assert signature(Point) == [("self", EMPTY), ("x", EMPTY), ("y", 0),
                                ("label", "p")]
    assert list(vars(first)) == ["x", "y", "label"]
    assert (first.x, first.y, first.label) == (1, 0, "p")
    assert Point(2, label="q") == Point(x=2, y=0, label="q")
    assert vars(Point)["__init__"] is init      # written once
    with pytest.raises(TypeError, match=r"Point\.__init__\(\)"):
        Point()


@pytest.mark.parametrize("name", NAMES)
def test_records_take_and_store_their_fields_in_order(name):
    record = build()[name]
    cls = type(record)
    assert list(vars(record)) == list(FIELDS[name])
    assert signature(cls) == [("self", EMPTY)] + [
        (f, vars(cls).get(f, EMPTY)) for f in FIELDS[name]]


def test_outcome_defaults_come_from_its_class():
    out = Outcome({}, None, [])
    assert (out.status, out.records) == ("ok", ())
    assert signature(Outcome)[-2:] == [("status", "ok"), ("records", ())]


def _made_here(cls):
    def __init__(self, *values):
        self.__dict__.update(zip(cls._fields, values), made_here=True)
    cls.__init__ = __init__
    return cls


def test_a_decorator_keeps_its_init():
    @_made_here
    class Marked(Record):
        x: int

    @dataclass(frozen=True)
    class Frozen(Record):
        x: int
        y: int = 5

    inits = vars(Marked)["__init__"], vars(Frozen)["__init__"]
    for _ in range(2):
        assert vars(Marked(1)) == {"x": 1, "made_here": True}
        assert (Frozen(1).y, Frozen(1, 2).y) == (5, 2)
    assert (vars(Marked)["__init__"], vars(Frozen)["__init__"]) == inits
