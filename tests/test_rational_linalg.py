"""Linear algebra over Q, which runs fraction-free on Python ints, checked
against sympy, an independent implementation: `rref`, `det`, `nullspace`,
`inverse`, `solve` and products on seeded matrices of every shape the
library meets (empty on either side, 1 x 1, square, wide and tall, many
of them rank-deficient), with denominators up to 10 and numerators up to
10^30."""

import random
from fractions import Fraction

import pytest

from grassgeo.fields import QQ
from grassgeo.linalg import Matrix

sympy = pytest.importorskip("sympy")

SHAPES = [(0, 3), (3, 0), (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (3, 5), (2, 6), (4, 7), (5, 3), (6, 2)]


def _entry(rng, height):
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-height, height), rng.randint(1, 10))


def _matrices(seed):
    """Eight matrices per shape: every other one with numerators up to 10^30, and from the third on, where
    there are two rows, the last row a combination of the first two or zero."""
    rng = random.Random(seed)
    for nrows, ncols in SHAPES:
        for trial in range(8):
            height = 10 ** 30 if trial % 2 else 10
            rows = [[_entry(rng, height) for _ in range(ncols)] for _ in range(nrows)]
            if trial >= 2 and nrows >= 2:
                a, b = _entry(rng, 10), _entry(rng, height)
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
            yield Matrix(QQ, rows, ncols)


def _to_sympy(m):
    return sympy.Matrix(m.nrows, m.ncols, [sympy.Rational(x.numerator, x.denominator) for r in m.rows for x in r])


def _from_sympy(s):
    return Matrix(QQ, [[Fraction(int(x.p), int(x.q)) for x in s.row(i)] for i in range(s.rows)], s.cols)


def _rref_rows(s):
    """The nonzero rows of sympy's reduced echelon form of s."""
    red, piv = s.rref()
    return _from_sympy(red[: len(piv), :]) if piv else Matrix.zero(QQ, 0, s.cols)


@pytest.mark.parametrize("seed", range(3))
def test_rref_det_and_products_match_sympy(seed):
    rng = random.Random(100 + seed)
    deficient = 0
    for m in _matrices(seed):
        s = _to_sympy(m)
        piv, red = m.rref()
        s_red, s_piv = s.rref()
        assert piv == tuple(s_piv)
        assert red == _from_sympy(s_red)
        deficient += len(piv) < min(m.nrows, m.ncols)
        if m.nrows == m.ncols:
            assert m.det() == Fraction(int(s.det().p), int(s.det().q))
        for width in (0, 1, 3):
            other = Matrix(QQ, [[_entry(rng, 10 ** 30) for _ in range(width)] for _ in range(m.ncols)], width)
            assert m @ other == _from_sympy(s * _to_sympy(other))
    assert deficient >= 30


@pytest.mark.parametrize("seed", range(3))
def test_nullspace_inverse_and_solve_match_sympy(seed):
    rng = random.Random(200 + seed)
    singular = solvable = unsolvable = 0
    for m in _matrices(seed):
        s = _to_sympy(m)
        kernel = [v.T for v in s.nullspace()]
        expected = _rref_rows(sympy.Matrix.vstack(*kernel)) if kernel else Matrix.zero(QQ, 0, m.ncols)
        assert m.nullspace() == expected
        if m.nrows == m.ncols and m.nrows:
            if s.det():
                assert m.inverse() == _from_sympy(s.inv())
            else:
                singular += 1
                with pytest.raises(ValueError, match="not invertible"):
                    m.inverse()
        b = [_entry(rng, 10 ** 30) for _ in range(m.nrows)]
        x = m.solve(b)
        try:
            solution, params = s.gauss_jordan_solve(_to_sympy(Matrix(QQ, [[y] for y in b], 1)))
        except ValueError:
            unsolvable += 1
            assert x is None
            continue
        solvable += 1
        # solve sets the free variables to zero
        particular = solution.subs({p: 0 for p in params})
        assert x == tuple(Fraction(int(y.p), int(y.q)) for y in particular)
    assert singular and solvable and unsolvable
