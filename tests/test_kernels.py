"""The raw-scalar kernel of each ring (`ring.kernel`) against the ring's
own element arithmetic: wrapping the result of a kernel operation gives
what the same operation on elements gives."""

import random

import pytest

from grassgeo.fields import GF, QQ
from grassgeo.jets import Jet, JetRing

RINGS = [QQ, GF(5), GF(32003), JetRing(QQ), JetRing(GF(5)), JetRing(GF(32003))]


def _elements(ring, rng, count=40):
    """Seeded elements, a quarter of them zero; over jets a quarter of the rest nilpotent."""
    base = ring.base if ring.kind == "jet" else ring
    out = []
    for _ in range(count):
        if rng.random() < 0.25:
            out.append(ring.zero)
        elif ring.kind == "jet":
            value = base.zero if rng.random() < 0.25 else base.random(rng)
            out.append(Jet(value, base.random(rng)))
        else:
            out.append(base.random(rng))
    return out


def _is_unit(x):
    return x.is_unit() if isinstance(x, Jet) else bool(x)


def _unreduced(k, x, rng):
    """A raw scalar that `k.reduce` brings back to x: x itself when k reduces nothing."""
    if k.p is None:
        return x
    if isinstance(x, tuple):
        return x[0] + k.p * rng.randrange(-3, 4), x[1] + k.p * rng.randrange(-3, 4)
    return x + k.p * rng.randrange(-3, 4)


def _wrap(k, raw):
    """k.wrap(raw), after checking that raw is reduced: unwrapping its elements gives raw back."""
    elements = k.wrap(raw)
    assert k.unwrap(elements) == list(raw)
    return elements


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_kernel_operations_match_element_arithmetic(ring):
    k = ring.kernel
    rng = random.Random(repr(ring))
    xs = _elements(ring, rng)
    ys = _elements(ring, rng)
    raw_x, raw_y = k.unwrap(xs), k.unwrap(ys)
    assert _wrap(k, raw_x) == xs
    assert _wrap(k, [k.zero, k.one]) == [ring.zero, ring.one]
    assert [k.nonzero(r) for r in raw_x] == [bool(x) for x in xs]
    assert [bool(k.unit(r)) for r in raw_x] == [_is_unit(x) for x in xs]
    assert _wrap(k, [k.mul(a, b) for a, b in zip(raw_x, raw_y)]) == [x * y for x, y in zip(xs, ys)]
    assert _wrap(k, [k.neg(a) for a in raw_x]) == [-x for x in xs]
    units = [(a, x) for a, x in zip(raw_x, xs) if _is_unit(x)]
    assert units
    assert _wrap(k, [k.inv(a) for a, _ in units]) == [ring.one / x for _, x in units]
    for (c, x), f in zip(units, ys):
        assert _wrap(k, k.scale(raw_y, c)) == [y * x for y in ys]
        assert _wrap(k, k.axpy(raw_y, k.unwrap([f])[0], raw_x)) == [y - f * z for y, z in zip(ys, xs)]
    want = ring.zero
    for x, y in zip(xs, ys):
        want = want + x * y
    assert _wrap(k, [k.dot(raw_x, raw_y)]) == [want]
    assert _wrap(k, [k.dot([], [])]) == [ring.zero]
    loose = [_unreduced(k, a, rng) for a in raw_x]
    assert _wrap(k, [k.reduce(a) for a in loose]) == xs
    assert _wrap(k, k.reduce_all(loose)) == xs


def test_each_ring_carries_its_kernel():
    assert GF(7).kernel.p == 7 and QQ.kernel.p is None
    assert JetRing(GF(7)).kernel.p == 7 and JetRing(QQ).kernel.p is None
    # unwrap does not coerce: callers pass foreign values through ring.of first
    assert QQ.kernel.unwrap(map(QQ.of, [1, 2])) == [1, 2]
    assert GF(7).kernel.unwrap(map(GF(7).of, [8, -1])) == [1, 6]
