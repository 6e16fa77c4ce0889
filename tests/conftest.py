from fractions import Fraction

import pytest

from grassgeo.fields import Fp

FP_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                "__neg__", "__pow__")
FRACTION_OPERATORS = FP_OPERATORS + ("__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
                                     "__rdivmod__", "__rpow__", "__pos__", "__abs__")


def _operator_counter(monkeypatch, cls, operators, one, two):
    """A function that patches the arithmetic operators of cls when called and returns the list of their
    names called from then on; one * two checks that the patch is live."""

    def start():
        calls = []
        for name in operators:
            def counted(*args, _original=getattr(cls, name), _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(cls, name, counted)
        one * two
        assert calls == ["__mul__"]  # the patch is live
        calls.clear()
        return calls

    return start


@pytest.fixture
def count_fp_operators(monkeypatch):
    """Counts calls of the Fp arithmetic operators; see `_operator_counter`."""
    return _operator_counter(monkeypatch, Fp, FP_OPERATORS, Fp(1, 3), Fp(2, 3))


@pytest.fixture
def count_fraction_operators(monkeypatch):
    """Counts calls of the Fraction arithmetic operators; constructing a Fraction is not counted."""
    return _operator_counter(monkeypatch, Fraction, FRACTION_OPERATORS, Fraction(1, 3), Fraction(2, 3))


def _check_record(record, fields):
    """`record` is rebuilt equal from its `fields`' values by position in that order and by keyword,
    compares field by field, and keeps no per-instance dict and no settable field."""
    cls = type(record)
    values = [getattr(record, name) for name in fields]
    by_position = cls(*values)
    assert all(getattr(by_position, name) is value for name, value in zip(fields, values))
    assert by_position == record and cls(**dict(zip(fields, values))) == record
    assert cls(*values[:-1], object()) != record
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])


@pytest.fixture
def check_record():
    """Checks a record against its field names in their declared order; see `_check_record`."""
    return _check_record
