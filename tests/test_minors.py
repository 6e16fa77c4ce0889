"""The one maximal-minors routine (`linalg.exterior_minors`, and
`Matrix.maximal_minors` on the field's kernel) against independent
oracles: one determinant per column set over fields and jets, and over
polynomials the cofactor expansion that `osc.dual_curve` used before.
Its callers, Pluecker vectors and adapted bases, are checked too."""

import random
from itertools import combinations, permutations

import pytest

from grassgeo.errors import NonGeneralConfiguration
from grassgeo.fields import GF, QQ
from grassgeo.grassmann import Subspace, adapted_basis
from grassgeo.jets import Jet, JetRing
from grassgeo.linalg import Matrix, exterior_minors
from grassgeo.osc import ParamCurve, dual_curve
from grassgeo.poly import PolyRing

RINGS = [QQ, GF(2), GF(3), GF(32003), JetRing(GF(32003)), JetRing(QQ)]


def _entry(ring, rng):
    """Seeded entries, a third of them zero; over jets some of the rest nilpotent."""
    base = ring.base if ring.kind == "jet" else ring
    if rng.random() < 0.33:
        return ring.zero
    if ring.kind == "jet":
        value = base.zero if rng.random() < 0.2 else base.random(rng)
        return Jet(value, base.random(rng))
    return base.random(rng)


def _leibniz(m):
    acc = m.field.zero
    for perm in permutations(range(m.nrows)):
        inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
        term = m.field.of(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * m[i, j]
        acc = acc + term
    return acc


def _random_matrix(ring, rng, nrows, ncols):
    rows = [[_entry(ring, rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.3:
        rows[-1] = list(rows[0])
    return Matrix(ring, rows, ncols)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_maximal_minors_equal_one_det_per_column_set(ring):
    rng = random.Random(repr(ring))
    nonzero = nilpotent = 0
    for ncols in range(1, 7):
        for nrows in range(ncols + 1):
            for _ in range(3):
                m = _random_matrix(ring, rng, nrows, ncols)
                minors = m.maximal_minors()
                column_sets = list(combinations(range(ncols), nrows))
                assert len(minors) == len(column_sets)
                for cols, minor in zip(column_sets, minors):
                    assert minor == ring.of(minor)  # an element of the ring itself
                    square = m.submatrix(range(nrows), cols)
                    try:
                        expected = square.det()
                    except NonGeneralConfiguration:
                        # elimination refuses a square jet matrix whose rank drops to first order
                        assert not minor.is_unit()
                        assert minor == _leibniz(square)
                        nilpotent += 1
                        continue
                    assert minor == expected
                    nonzero += bool(minor)
    assert nonzero > 50
    if ring.kind == "jet":
        assert nilpotent > 0


def test_no_rows_have_the_one_empty_minor():
    assert Matrix.zero(QQ, 0, 4).maximal_minors() == (QQ.one,)
    assert Subspace(GF(5), 3, Matrix.zero(GF(5), 0, 4), check=False).pluecker == (GF(5).one,)
    with pytest.raises(ValueError):
        Matrix.identity(QQ, 3).stack(Matrix.identity(QQ, 3)).maximal_minors()


def _poly_det(rows):
    """Cofactor expansion along the first column."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = rows[0][0].ring.zero()
    for i in range(n):
        term = rows[i][0] * _poly_det([r[1:] for r in rows[:i] + rows[i + 1:]])
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def _random_poly(ring, rng, degree):
    base = ring.field
    return ring.from_terms([((k,), base.random(rng)) for k in range(degree + 1) if rng.random() < 0.7])


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_polynomial_minors_equal_the_cofactor_expansion(field):
    ring = PolyRing(field, ("t",))
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(2):
            rows = [[_random_poly(ring, rng, 3) for _ in range(n + 1)] for _ in range(n)]
            expected = [_poly_det([[r[c] for c in cols] for r in rows]) for cols in combinations(range(n + 1), n)]
            assert exterior_minors(rows, n + 1) == expected


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_dual_curve_is_the_cofactor_vector_of_the_derivatives(field):
    rng = random.Random(8)
    for n in range(1, 6):
        coeffs = [[field.random(rng) for _ in range(n + 1)] for _ in range(n + 2)]
        c = ParamCurve.from_coeff_rows(field, coeffs)
        rows = [list(c.coords)]
        for _ in range(n - 1):
            rows.append([p.diff(0) for p in rows[-1]])
        expected = []
        for j in range(n + 1):
            minor = _poly_det([[r[jj] for jj in range(n + 1) if jj != j] for r in rows])
            expected.append(minor if j % 2 == 0 else -minor)
        assert c.span().ell == n
        assert list(dual_curve(c).coords) == expected


def _first_completion_by_det(s):
    """The complement that adapted bases used before: one determinant per complement, lexicographically."""
    k, n = s.ell + 1, s.n
    for comp in combinations(range(n + 1), n + 1 - k):
        kept = tuple(c for c in range(n + 1) if c not in comp)
        if s.basis.submatrix(range(k), kept).det():
            return comp
    return None


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(32003)], ids=repr)
def test_adapted_basis_picks_the_complement_of_the_det_scan(field):
    rng = random.Random(repr(field) + "adapted")
    later = 0
    for _ in range(60):
        n = rng.randrange(1, 6)
        k = rng.randrange(0, n + 2)
        # zero trailing columns push the completion away from the first complement
        width = n + 1 - rng.randrange(0, n + 2 - k)
        m = Matrix(field, [[_entry(field, rng) if c < width else field.zero for c in range(n + 1)]
                           for _ in range(k)], n + 1)
        s = Subspace(field, n, m, check=False)
        expected = _first_completion_by_det(s)
        if m.rank() < k:
            assert expected is None
            with pytest.raises(ValueError, match="no completion"):
                adapted_basis(s)
            continue
        a = adapted_basis(s)
        assert a.complement_columns == expected
        later += expected != tuple(range(n + 1 - k))
        assert a.full @ a.full_inv == Matrix.identity(field, n + 1)
    assert later >= 10
