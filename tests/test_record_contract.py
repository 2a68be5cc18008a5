"""How every public record is constructed, for the instances that
``test_records.build`` makes: by position or by keyword alike, with
dataclass-style errors for a bad argument list, and through pickle."""

import pickle

import pytest

from rotewords import FactorClass, Word

from test_records import FIELDS, NAMES, build


def values(record, name):
    return [getattr(record, f) for f in FIELDS[name]]


@pytest.mark.parametrize("name", NAMES)
def test_positional_equals_keyword(name):
    record = build()[name]
    args = values(record, name)
    by_keyword = dict(zip(FIELDS[name], args))
    assert type(record)(*args) == record
    assert type(record)(**by_keyword) == record
    assert type(record)(*args[:1], **dict(list(by_keyword.items())[1:])) \
        == record


def test_factor_class_defaults():
    cls = FactorClass()
    assert (cls.tag, cls.compatible, cls.offenders) == (None, (), ())
    assert cls == FactorClass(None, (), ()) == FactorClass(compatible=())
    assert FactorClass(offenders=(Word(b"\0", 2),)).tag is None


@pytest.mark.parametrize("name", NAMES)
def test_bad_argument_lists_raise_type_error(name):
    record = build()[name]
    cls, args, first = type(record), values(record, name), FIELDS[name][0]
    if name != "FactorClass":       # whose fields all have defaults
        with pytest.raises(TypeError):
            cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=None)
    with pytest.raises(TypeError):
        cls(*args, **{first: args[0]})


def test_word_letters_are_bytes():
    w = Word(bytearray([0, 1, 1]), 2)
    assert type(w.letters) is bytes
    assert w == Word(b"\0\1\1", 2)


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    record = build()[name]
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)
    assert values(copy, name) == values(record, name)
