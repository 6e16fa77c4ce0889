from fractions import Fraction

import pytest

from grassgeo.contact import _chart_parts
from grassgeo.fields import Fp
from grassgeo.grassmann import adapted_basis, hyperplane_subspace, point_subspace
from grassgeo.projvar import ConormalWitness
from references import perp_dual

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


def _contact_chart(v, cfg, m=None):
    """(chart, y) for calling `contact.taylor_cone_flag` again on a sampled contact line: the chart at its
    point as `contact.sample_contact_line` builds it, (frame, pieces of f below degree m, cfg.m by default),
    and the line's direction in it, the y with q = y @ (frame rows 1..n)."""
    frame = adapted_basis(point_subspace(v.field, cfg.point)).full
    y = frame.transpose().solve(cfg.direction_point)[1:]
    return (frame, _chart_parts(v, frame, (cfg.m if m is None else m) - 1)[1]), y


@pytest.fixture
def contact_chart():
    """The chart and direction of a sampled contact line; see `_contact_chart`."""
    return _contact_chart


# -- reference: the dual-side sample of an associated sample, which only the tests draw ----------------------


def _transported_dual_sample(sample, v, dual):
    """Dual-side sample (L-perp with witness (H-dual, x-dual)) + checks.

    Returns (subspace, witness, checks) where checks is a list of
    (name, bool) verifying it is a valid associated sample of the dual
    variety at level n - ell - 1.
    """
    field = v.field
    n = v.n
    lperp = perp_dual(sample.subspace)
    xprime = sample.witness.normal
    hprime = hyperplane_subspace(field, sample.witness.point)
    checks = []
    on_dual = dual.contains_point(xprime)
    tprime = dual.smooth_tangent_space(xprime) if on_dual else None  # one Jacobian; None where singular
    checks.append(("dual point on dual variety", on_dual))
    if on_dual:
        checks.append(("dual point smooth", tprime is not None))
        if tprime is not None:
            checks.append(("dual tangent inside dual witness hyperplane", hprime.contains(tprime)))
    checks.append(("perp contains dual point", lperp.contains_point(xprime)))
    checks.append(("perp inside dual hyperplane", hprime.contains(lperp)))
    checks.append(("level", lperp.ell == n - sample.ell - 1))
    witness = ConormalWitness(
        x=point_subspace(field, xprime),
        h=hprime,
        point=tuple(xprime),
        normal=tuple(sample.witness.point),
    )
    return lperp, witness, checks


@pytest.fixture
def transported_dual_sample():
    """The dual-side sample of an associated sample and its checks; see `_transported_dual_sample`."""
    return _transported_dual_sample
