"""The one elimination pass behind rref and det, checked against oracles
that do not eliminate: the Leibniz formula and, over small prime fields,
row spaces enumerated element by element.  The F_p and jets-over-F_p
kernels are also checked against the same operations over Q reduced
mod p and for running without Fp arithmetic, and the Q kernel for
running without Fraction arithmetic."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from grassgeo.errors import FieldMismatch, NonGeneralConfiguration
from grassgeo.fields import GF, QQ, Fp
from grassgeo.grassmann import Subspace
from grassgeo.jets import Jet, JetRing
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


def _random_matrix(field, rng, nrows, ncols, entry=None):
    """Seeded entries (field.random by default); about a third of the matrices get a repeated or zero row."""
    entry = entry or (lambda: field.random(rng))
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
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


PRIMES = [2, 3, 5, 32003, 2**31 - 1]
KINDS = [QQ, GF(32003), JetRing(QQ), JetRing(GF(32003))]


def _int_det(rows):
    acc = 0
    for perm in permutations(range(len(rows))):
        term = _sign(perm)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        acc += term
    return acc


def _value(x):
    return x.a if isinstance(x, Jet) else x


def _reduce(m, field):
    """The Q (or Jet(Q)) matrix m reduced into field, or None where a denominator vanishes mod p."""
    try:
        return Matrix(field, m.rows, m.ncols)
    except ZeroDivisionError:
        return None


def _rref_mod(m, field, p):
    """(pivots, rref) of m over Q reduced mod p, when m's image over field must have that rref.

    With R the rref over Q and P its pivot columns, m = m[:, P] @ R.  When R
    reduces mod p and the value parts of m[:, P] keep their rank mod p, the
    image of m has the row space (row module, over jets) of R mod p, whose
    reduced form is unique.  Otherwise None.
    """
    try:
        piv, red = m.rref()
    except NonGeneralConfiguration:
        return None
    red_p = _reduce(red, field)
    cols = [[_value(r[c]) for c in piv] for r in m.rows]
    keeps_rank = not piv or any(_int_det([cols[i] for i in ri]) % p for ri in combinations(range(m.nrows), len(piv)))
    return (piv, red_p) if red_p is not None and keeps_rank else None


def _check_against_q(m, field, p, rng):
    """Compare every operation on m's image over field with m's result over Q mod p; False if skipped."""
    ref = _rref_mod(m, field, p)
    if ref is None:
        return False
    mp = _reduce(m, field)
    assert mp.rref() == ref
    null = _reduce(m.nullspace(), field)
    if null is not None:
        assert mp.nullspace() == null
    if m.nrows == m.ncols:
        assert mp.det() == field.of(m.det())
        if len(ref[0]) == m.nrows:
            assert mp.inverse() == _reduce(m.inverse(), field)
        else:
            with pytest.raises(ValueError, match="not invertible"):
                mp.inverse()
    b = [rng.randint(-3, 3) for _ in range(m.nrows)]
    aug = Matrix(m.field, [r + (m.field.of(x),) for r, x in zip(m.rows, b)], m.ncols + 1)
    if _rref_mod(aug, field, p) is not None:
        x = m.solve(b)
        assert mp.solve(b) == (None if x is None else tuple(field.of(c) for c in x))
    return True


def _int(rng):
    """Mostly small integers, so many matrices are singular or drop rank mod small p; a few large ones."""
    return rng.randint(-2, 3) if rng.random() < 0.85 else rng.randrange(-(2**40), 2**40)


@pytest.mark.parametrize("p", PRIMES)
def test_prime_field_results_equal_rational_results_mod_p(p):
    rng = random.Random(p)
    compared = singular = 0
    for _ in range(80):
        nrows = rng.randint(1, 4)
        ncols = nrows if rng.random() < 0.5 else rng.randint(1, 5)
        m = _random_matrix(QQ, rng, nrows, ncols, lambda: _int(rng))
        if _check_against_q(m, GF(p), p, rng):
            compared += 1
            singular += m.rank() < min(nrows, ncols)
    assert compared >= 35 and singular >= 5


@pytest.mark.parametrize("p", PRIMES)
def test_prime_jet_results_equal_rational_jet_results_mod_p(p):
    rng = random.Random(p + 1)
    jq = JetRing(QQ)
    compared = singular = 0
    for _ in range(80):
        nrows = rng.randint(1, 3)
        ncols = nrows if rng.random() < 0.5 else rng.randint(1, 4)
        m = _random_matrix(jq, rng, nrows, ncols, lambda: jq.variable(_int(rng), _int(rng)))
        if _check_against_q(m, JetRing(GF(p)), p, rng):
            compared += 1
            singular += m.rank() < min(nrows, ncols)
    assert compared >= 30 and singular >= 5


@pytest.mark.parametrize("p", PRIMES)
def test_jet_rules_hold_over_prime_fields(p):
    jr = JetRing(GF(p))
    eps = jr.variable(0)
    assert Matrix(jr, [[eps, 1]]).nullspace() == Matrix(jr, [[1, -eps]])
    with pytest.raises(NonGeneralConfiguration, match="first order"):
        Matrix(jr, [[1, 0], [0, eps]]).rref()
    with pytest.raises(NonGeneralConfiguration, match="first order"):
        Matrix(jr, [[1, 0], [0, eps]]).det()


@pytest.mark.parametrize("field", KINDS, ids=repr)
def test_pivot_is_the_first_unit_at_or_below_the_current_row(field):
    eps = field.variable(0) if field.kind == "jet" else field.zero
    m = Matrix(field, [[eps, 1, 1], [2, 3, 0], [1, 0, 1]])
    k = field.kernel
    piv, rows, d, _ = m._forward(k)
    # column 0: eps is no unit, so row 1 is the pivot, not row 2; column 1: the old row 0
    expected = Matrix(field, [[1, Fraction(3, 2), 0], [0, 1, 1 + field.of(Fraction(3, 2)) * eps], [0, 0, 1]])
    assert piv == [0, 1, 2]
    # the fraction-free pass over Q leaves each echelon row a multiple of the one scaled to its pivot
    rows = k.echelon_wrap(rows, d)
    assert Matrix(field, [[x / r[c] for x in r] for r, c in zip(rows, piv)]) == expected


def _in_own_field(field, x):
    if field.kind == "jet":
        return type(x) is Jet and _in_own_field(field.base, x.a) and _in_own_field(field.base, x.b)
    if field.kind == "fp":
        return type(x) is Fp and x.p == field.p and 0 <= x.v < field.p
    return type(x) is Fraction


@pytest.mark.parametrize("field", KINDS, ids=repr)
def test_every_result_holds_elements_of_its_own_field(field):
    def entry(a, b):
        return field.variable(a, b) if field.kind == "jet" else field.of(a)

    a = Matrix(field, [[entry(1, 2), entry(2, 0), entry(0, 1)], [entry(3, 1), entry(4, 3), entry(1, 0)],
                       [entry(1, 2), entry(2, 0), entry(0, 1)]])
    sq = Matrix(field, [[entry(2, 1), entry(1, 0)], [entry(1, 5), entry(1, 1)]])
    matrices = [
        a.rref()[1], a @ a.transpose(), a.transpose(), a.stack(a), a.submatrix([0, 2], [1, 2]),
        a.row_space_basis(), a.nullspace(), sq.inverse(), a.scale(3), a + a, a - a,
        Matrix.identity(field, 2), Matrix.zero(field, 2, 3),
    ]
    for m in matrices:
        assert m.field == field
        assert all(_in_own_field(field, x) for r in m.rows for x in r)
    assert a.nullspace().nrows == 1
    for v in (a.apply_row([1, 2, 3]), sq.solve([1, 1]), [sq.det()]):
        assert all(_in_own_field(field, x) for x in v)


def test_public_constructor_still_coerces_and_rejects_other_fields():
    m = Matrix(GF(5), [[Fraction(1, 2)]])
    assert m.rows == ((Fp(3, 5),),) and type(m[0, 0]) is Fp
    with pytest.raises(FieldMismatch):
        Matrix(GF(5), [[Fp(1, 7)]])
    with pytest.raises(FieldMismatch):
        Matrix(JetRing(GF(5)), [[JetRing(GF(7)).variable(1)]])
    with pytest.raises(FieldMismatch):
        Matrix.identity(GF(5), 2) @ Matrix.identity(GF(7), 2)


@pytest.mark.parametrize("field", [GF(32003), JetRing(GF(32003))], ids=repr)
def test_prime_field_elimination_runs_without_fp_arithmetic(field, count_fp_operators):
    rng = random.Random(16)
    base = GF(32003)

    def entry():
        value = base.random(rng)
        return field.variable(value, base.random(rng)) if field.kind == "jet" else value

    mats = []
    for nrows, ncols in [(4, 4), (3, 5), (5, 3), (4, 4)]:
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        rows[-1] = rows[0]  # singular
        mats.append(Matrix(field, rows, ncols))
    calls = count_fp_operators()
    for m in mats:
        m.rref()
        m.nullspace()
        if m.nrows == m.ncols:
            assert m.det() == 0
    # nullspace negates entries of the wrapped RREF, after elimination
    assert [name for name in calls if name != "__neg__"] == []


def test_rational_elimination_products_and_minors_run_without_fraction_arithmetic(count_fraction_operators):
    rng = random.Random(17)
    mats = []
    for nrows, ncols in [(4, 4), (3, 5), (5, 3), (4, 4), (0, 3), (3, 0)]:
        rows = [[QQ.random(rng) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1:
            rows[-1] = rows[0]  # singular
        mats.append(Matrix(QQ, rows, ncols))
    calls = count_fraction_operators()
    for m in mats:
        m.rref()
        m.rank()
        m @ m.transpose()
        if m.nrows == m.ncols:
            m.det()
        if m.nrows <= m.ncols:
            Subspace(QQ, m.ncols - 1, m, check=False).pluecker
    assert Matrix(QQ, [[1, 2], [3, 4]], 2).det() == -2
    assert calls == []
