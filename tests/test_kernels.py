"""The raw-scalar kernel of each ring (`ring.kernel`) against the ring's
own element arithmetic: wrapping the result of a kernel operation gives
what the same operation on elements gives.  The same holds for the
matrix methods: pivot steps against Gauss-Jordan elimination on
elements, products against sums of element products."""

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


def _gauss_jordan_by_kernel(k, rows, ncols, above):
    """The elimination of `Matrix._forward` on k: (number of pivots, echelon rows, determinant or None)."""
    m, d, den = k.echelon_rows(rows)
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(m)) if k.unit(m[i][c])), None)
        if sel is None:
            continue
        if sel != r:
            m[r], m[sel] = m[sel], m[r]
            den = k.neg(den)
        d = k.pivot_step(m, r, c, d, above)
        r += 1
    return r, k.echelon_wrap(m, d), k.quotient(d, den) if r == len(m) == ncols else None


def _gauss_jordan_by_elements(ring, rows, ncols, above):
    """The same on ring elements: each pivot row scaled to 1, multiples of it subtracted from the others."""
    e = [list(row) for row in rows]
    det = ring.one
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(e)) if _is_unit(e[i][c])), None)
        if sel is None:
            continue
        if sel != r:
            e[r], e[sel] = e[sel], e[r]
            det = -det
        pivot = e[r][c]
        det = det * pivot
        e[r] = [x / pivot for x in e[r]]
        for i in range(0 if above else r + 1, len(e)):
            if i != r:
                e[i] = [x - e[i][c] * y for x, y in zip(e[i], e[r])]
        r += 1
    return r, tuple(tuple(row) for row in e), det if r == len(e) == ncols else None


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_pivot_steps_match_gauss_jordan_on_elements(ring):
    k = ring.kernel
    rng = random.Random(repr(ring) + "pivot")
    full = 0
    for nrows, ncols in [(3, 3), (4, 4), (2, 5), (4, 3), (1, 1), (0, 2)] * 4:
        rows = [_elements(ring, rng, ncols) for _ in range(nrows)]
        for above in (True, False):
            rank, echelon, det = _gauss_jordan_by_kernel(k, rows, ncols, above)
            want_rank, want_echelon, want_det = _gauss_jordan_by_elements(ring, rows, ncols, above)
            assert rank == want_rank
            assert det == want_det
            full += det is not None
            if above:
                assert echelon == want_echelon
    assert full >= 10


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_products_match_element_arithmetic(ring):
    k = ring.kernel
    rng = random.Random(repr(ring) + "product")
    for nrows, inner, ncols in [(3, 4, 2), (1, 1, 1), (2, 0, 3), (0, 3, 2), (3, 2, 0)]:
        rows = [_elements(ring, rng, inner) for _ in range(nrows)]
        cols = [_elements(ring, rng, inner) for _ in range(ncols)]
        want = tuple(tuple(sum((x * y for x, y in zip(r, c)), ring.zero) for c in cols) for r in rows)
        assert k.product(rows, cols) == want
