"""The one elimination pass behind rref and det, checked against oracles
that do not eliminate: the Leibniz formula and, over small prime fields,
row spaces enumerated element by element."""

import random
from itertools import combinations, permutations, product

import pytest

from grassgeo.errors import NonGeneralConfiguration
from grassgeo.fields import GF, QQ
from grassgeo.jets import JetRing
from grassgeo.linalg import Matrix

FIELDS = [GF(2), GF(3), GF(5), GF(32003), QQ]


def _sign(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _leibniz(m):
    n = m.nrows
    acc = m.field.zero
    for perm in permutations(range(n)):
        term = m.field.of(_sign(perm))
        for i, j in enumerate(perm):
            term = term * m[i, j]
        acc = acc + term
    return acc


def _random_matrix(field, rng, nrows, ncols):
    """Seeded entries; about a third of the matrices get a repeated or zero row."""
    rows = [[field.random(rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.35:
        rows[rng.randrange(nrows)] = list(rows[0]) if rng.random() < 0.5 else [field.zero] * ncols
    return Matrix(field, rows, ncols)


def _span(field, rows, ncols):
    """Every vector of the row space, by enumerating coefficients (small fields only)."""
    elems = [field.of(x) for x in range(field.p)]
    out = set()
    for coeffs in product(elems, repeat=len(rows)):
        out.add(tuple(sum((c * r[j] for c, r in zip(coeffs, rows)), field.zero) for j in range(ncols)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_matches_leibniz(field):
    rng = random.Random(11)
    singular = 0
    for n in range(5):
        for _ in range(25):
            m = _random_matrix(field, rng, n, n)
            expected = _leibniz(m)
            assert m.det() == expected
            singular += not expected
    assert singular > 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_is_multiplicative(field):
    rng = random.Random(12)
    for n in range(5):
        for _ in range(10):
            a, b = _random_matrix(field, rng, n, n), _random_matrix(field, rng, n, n)
            assert (a @ b).det() == a.det() * b.det()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rank_is_transpose_invariant_and_matches_leibniz_minors(field):
    rng = random.Random(13)
    for _ in range(40):
        m = _random_matrix(field, rng, rng.randrange(5), rng.randrange(5))
        minor_rank = max(
            (
                k
                for k in range(1, min(m.nrows, m.ncols) + 1)
                for ri in combinations(range(m.nrows), k)
                for ci in combinations(range(m.ncols), k)
                if _leibniz(m.submatrix(ri, ci))
            ),
            default=0,
        )
        assert m.rank() == m.transpose().rank() == minor_rank


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_is_reduced_idempotent_and_spans_the_row_space(field):
    rng = random.Random(14)
    for _ in range(40):
        m = _random_matrix(field, rng, rng.randrange(1, 5), rng.randrange(5))
        piv, red = m.rref()
        assert red.rref() == (piv, red)
        for r, c in enumerate(piv):
            assert red.col(c) == tuple(field.one if i == r else field.zero for i in range(m.nrows))
            assert not any(red[r, j] for j in range(c))
        assert all(not x for row in red.rows[len(piv):] for x in row)
        if field.kind == "fp" and field.p <= 5:
            assert _span(field, red.rows, m.ncols) == _span(field, m.rows, m.ncols)
        else:
            assert m.stack(red).rank() == m.rank() == len(piv)


def test_jets_skip_a_nilpotent_column():
    jr = JetRing(QQ)
    eps = jr.variable(0)
    m = Matrix(jr, [[eps, 1]])
    assert m.rref()[0] == (1,)
    assert m.nullspace() == Matrix(jr, [[1, -eps]])
    assert Matrix(jr, [[eps, 1], [0, 0]]).det() == 0


def test_jets_raise_when_rank_drops_to_first_order():
    jr = JetRing(QQ)
    eps = jr.variable(0)
    with pytest.raises(NonGeneralConfiguration, match="first order"):
        Matrix(jr, [[1, 0], [0, eps]]).rref()
    with pytest.raises(NonGeneralConfiguration, match="first order"):
        Matrix(jr, [[1, 0], [0, eps]]).det()


def test_jet_det_matches_leibniz_or_raises_on_singular_values():
    rng = random.Random(15)
    base = GF(5)
    jr = JetRing(base)
    raised = 0
    for n in range(1, 4):
        for _ in range(40):
            rows = [[jr.variable(base.random(rng), base.random(rng)) for _ in range(n)] for _ in range(n)]
            m = Matrix(jr, rows, n)
            expected = _leibniz(m)
            try:
                got = m.det()
            except NonGeneralConfiguration:
                raised += 1
                assert not expected.a  # only a singular value part leaves a first-order rank drop
                continue
            assert got == expected
    assert raised > 0
