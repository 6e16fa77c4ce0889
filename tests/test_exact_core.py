import random
from fractions import Fraction
from itertools import combinations

import pytest

from grassgeo import univariate
from grassgeo.errors import FieldMismatch
from grassgeo.fields import GF, QQ, Fp, is_prime
from grassgeo.groebner import buchberger, eliminate, groebner, normal_form
from grassgeo.hilbert import _numerator, hilbert_dim_degree
from grassgeo.isoclass import affine_points_zero_dim
from grassgeo.jets import JetRing
from grassgeo.linalg import Matrix
from grassgeo.poly import DEGREVLEX, LEX, Ideal, PolyRing
from grassgeo.varieties import segre
from references import local_multiplicity


F = GF(101)


def rank_kernel(m: Matrix):
    """Reference: (rank, kernel basis rows, row space basis rows), all reduced echelon."""
    piv, red = m.rref()
    rank = len(piv)
    row_basis = Matrix(m.field, red.rows[:rank], m.ncols)
    return rank, m.nullspace(), row_basis


def fp_sqrt(x):
    """Reference: the smallest square root of x in F_p, by `univariate.roots` of t^2 - x, or None if there is none."""
    field = GF(x.p)
    found = univariate.roots([-x, field.zero, field.one], field)
    return found[0] if found else None


def test_fp_arithmetic():
    a, b = Fp(7, 101), Fp(95, 101)
    assert a + b == 1
    assert a * b == (7 * 95) % 101
    assert (a / b) * b == a
    assert -a == 94
    with pytest.raises(FieldMismatch):
        a + Fp(1, 7)
    with pytest.raises(FieldMismatch):
        a + Fraction(1, 2)


@pytest.mark.parametrize("base", [QQ, GF(5)], ids=repr)
def test_jet_divided_by_an_int_stays_in_the_base_field(base):
    jr = JetRing(base)
    x = jr.variable(3, 1)
    for got in (x / 2, x / base.of(2), x * (base.one / 2)):
        assert (got.a, got.b) == (base.of(3) / base.of(2), base.one / base.of(2))
        assert type(got.a) is type(got.b) is type(base.one)
    inv = 2 / x  # 2/3 - (2/9) eps
    assert (inv.a, inv.b) == (base.of(2) / base.of(3), -base.of(2) / base.of(9))
    assert type(inv.a) is type(inv.b) is type(base.one)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_against_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if _trial_division_is_prime(n)
    ]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    assert not any(is_prime(n) for n in carmichael)
    # strong pseudoprimes to every prime base up to 23, and up to 37
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime((2**61 - 1) * 1000003)
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)


def test_fp_sqrt():
    rng = random.Random(0)
    for p in (101, 32003):
        f = GF(p)
        for _ in range(30):
            x = f.random(rng)
            s = fp_sqrt(x * x)
            assert s is not None and s * s == x * x


def test_rank_kernel_identity():
    m = Matrix.identity(QQ, 2)
    rank, ker, rows = rank_kernel(m)
    assert rank == 2 and ker.nrows == 0
    assert (ker.nrows, ker.ncols) == (0, 2) and m.nullspace() == ker


def test_matrices_keep_width_at_zero_rows():
    empty = Matrix.zero(QQ, 0, 3)
    assert (empty.nrows, empty.ncols) == (0, 3)
    t = empty.transpose()
    assert (t.nrows, t.ncols) == (3, 0)
    assert Matrix.zero(QQ, 3, 0) @ Matrix.zero(QQ, 0, 2) == Matrix.zero(QQ, 3, 2)
    assert Matrix.zero(QQ, 0, 0).det() == 1
    assert empty != Matrix.zero(QQ, 0, 2)
    assert empty.stack(Matrix(QQ, [[1, 2, 3]])).rank() == 1
    with pytest.raises(ValueError):
        Matrix(QQ, [])


def test_rank_kernel_zero_matrix():
    m = Matrix.zero(QQ, 3, 4)
    rank, ker, rows = rank_kernel(m)
    assert rank == 0 and ker.nrows == 4


def test_rank_kernel_rank_one():
    m = Matrix(QQ, [[1, 2, 3], [2, 4, 6]])
    rank, ker, rows = rank_kernel(m)
    assert rank == 1 and ker.nrows == 2
    for v in ker.rows:
        assert all(not sum(a * b for a, b in zip(row, v)) for row in m.rows)


def _det_minor_rank(m):
    """Independent oracle: rank = largest k with a nonzero k-minor."""
    best = 0
    for k in range(1, min(m.nrows, m.ncols) + 1):
        found = False
        for ri in combinations(range(m.nrows), k):
            for ci in combinations(range(m.ncols), k):
                if m.submatrix(ri, ci).det():
                    found = True
                    break
            if found:
                break
        if found:
            best = k
    return best


def test_rank_matches_minor_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n, c = rng.randrange(1, 5), rng.randrange(1, 5)
        m = Matrix(F, [[F.random(rng) for _ in range(c)] for _ in range(n)])
        assert m.rank() == _det_minor_rank(m)


def test_inverse_and_solve():
    rng = random.Random(3)
    for _ in range(20):
        m = Matrix(F, [[F.random(rng) for _ in range(3)] for _ in range(3)])
        if not m.det():
            continue
        assert m @ m.inverse() == Matrix.identity(F, 3)
        b = [F.random(rng) for _ in range(3)]
        x = m.solve(b)
        assert list(m.apply_row(x)) != None  # noqa: E711  (smoke)
        got = [sum((m[i, j] * x[j] for j in range(3)), F.zero) for i in range(3)]
        assert got == [F.of(v) for v in b]


def _ring(*names, field=QQ, order=DEGREVLEX):
    return PolyRing(field, names, order)


def test_poly_basicss():
    R = _ring("x", "y")
    x, y = R.gens()
    f = (x + y) ** 2
    assert f == x**2 + 2 * x * y + y**2
    assert f.diff(0) == 2 * x + 2 * y
    assert f.evaluate([QQ.of(1), QQ.of(2)]) == 9
    assert f.is_homogeneous()
    assert not (f + 1).is_homogeneous()


def test_polys_from_different_rings_do_not_mix():
    x = _ring("x").var(0)
    same = _ring("x").var(0)  # an equal ring, another object
    assert x + same == 2 * x and x * same == x**2
    for other in (_ring("x", field=GF(5)), _ring("y"), _ring("x", order=LEX)):
        y = other.var(0)
        with pytest.raises(FieldMismatch):
            x + y
        with pytest.raises(FieldMismatch):
            x * y


def test_substitute_is_composition():
    rng = random.Random(4)
    R = _ring("x", "y", "z", field=F)
    S = _ring("s", "t", field=F)
    s, t = S.gens()
    for _ in range(10):
        f = R.from_terms(([rng.randrange(4) for _ in range(3)], rng.randrange(1, 101)) for _ in range(6))
        images = [s + rng.randrange(101) * t, s * t - rng.randrange(101), t**2 + rng.randrange(101)]
        g = f.substitute(S, images)
        for _ in range(3):
            pt = [F.random(rng), F.random(rng)]
            assert g.evaluate(pt) == f.evaluate([img.evaluate(pt) for img in images])


def test_groebner_single_gen():
    R = _ring("x")
    x = R.var(0)
    gb = buchberger([x - 1])
    assert gb == [x - 1]


def test_groebner_monomials_already_basis():
    R = _ring("x", "y")
    x, y = R.gens()
    gb = buchberger([x**2, x * y])
    assert gb == [x * y, x**2] or gb == [x**2, x * y]


def test_groebner_lex_elimination_univariate():
    R = _ring("x", "y", order=LEX)
    x, y = R.gens()
    gb = buchberger([x**2 - y, y**2 - x])
    target = y**4 - y
    assert any(g == target.monic() for g in gb)


def test_groebner_deterministic():
    R = _ring("x", "y", "z", field=GF(32003))
    x, y, z = R.gens()
    gens = [x * y - z**2, y**2 - x * z, x**2 * z - y * z**2]
    a = buchberger(list(gens))
    b = buchberger(list(gens))
    assert a == b


def test_eliminate_parabola():
    R = _ring("t", "x", "y")
    t, x, y = R.gens()
    out = eliminate(Ideal(R, [x - t, y - t**2]), ["x", "y"])
    # substitution oracle: y - x^2 after t = x
    S = out.ring
    xs, ys = S.var("x"), S.var("y")
    assert list(out.gens) == [(ys - xs**2).monic()] or list(out.gens) == [(-(ys - xs**2)).monic()]


def test_eliminate_keep_all_is_groebner():
    R = _ring("x", "y")
    x, y = R.gens()
    i = Ideal(R, [x**2 - y, y**2 - x])
    out = eliminate(i, ["x", "y"])
    gb = groebner(i)
    assert set(out.gens) == set(gb.gens)


def test_eliminate_torus_trick():
    R = _ring("t", "x", "y")
    t, x, y = R.gens()
    out = eliminate(Ideal(R, [t * x - 1, t * y]), ["x", "y"])
    S = out.ring
    assert list(out.gens) == [S.var("y")]


def test_normal_form_membership():
    R = _ring("x", "y", "z")
    x, y, z = R.gens()
    i = Ideal(R, [x * z - y**2, x**2 - y * z])
    assert not normal_form(x * z - y**2, i)
    assert normal_form(R.one(), i) == R.one()
    # nf(p*q + r, i) == nf(r, i) for p in i
    rng = random.Random(5)
    for _ in range(10):
        q = R.from_terms(
            [((rng.randrange(3), rng.randrange(2), rng.randrange(2)), rng.randrange(-4, 5)) for _ in range(4)]
        )
        r = R.from_terms(
            [((rng.randrange(2), rng.randrange(3), rng.randrange(2)), rng.randrange(-4, 5)) for _ in range(4)]
        )
        assert normal_form((x * z - y**2) * q + r, i) == normal_form(r, i)


def test_normal_form_rejects_a_polynomial_of_another_ring():
    a, b = _ring("a", "b").gens()
    x, y = _ring("x", "y").gens()
    with pytest.raises(FieldMismatch):
        normal_form(a**2 - b, Ideal(x.ring, [x - y]))
    with pytest.raises(FieldMismatch):
        normal_form(x**2 - y, Ideal(x.ring.with_order(LEX), [x.ring.with_order(LEX).var(0)]))


def _twisted_cubic_ideal(field=QQ):
    R = PolyRing(field, ("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = R.gens()
    return Ideal(R, [x0 * x2 - x1**2, x0 * x3 - x1 * x2, x1 * x3 - x2**2])


def _graded_piece_dim(ideal, d):
    """Brute-force dimension of (R/I)_d via normal forms of monomials."""
    R = ideal.ring
    from itertools import combinations_with_replacement

    monos = []
    for c in combinations_with_replacement(range(R.nvars), d):
        e = [0] * R.nvars
        for i in c:
            e[i] += 1
        monos.append(R.monomial(tuple(e)))
    reduced = [normal_form(m, ideal) for m in monos]
    seen = {}
    cols = sorted({e for q in reduced for e in q.terms})
    rows = []
    for q in reduced:
        rows.append([q.terms.get(e, R.field.zero) for e in cols])
    if not cols:
        return 0
    return Matrix(R.field, rows).rank()


def test_hilbert_twisted_cubic():
    i = _twisted_cubic_ideal()
    assert hilbert_dim_degree(i) == (1, 3)
    # independent oracle: Hilbert function of degree-3 rational normal curve is 3d+1
    for d in (1, 2, 3, 4):
        assert _graded_piece_dim(i, d) == 3 * d + 1


def test_hilbert_hyperplane_and_irrelevant():
    R = _ring("x0", "x1", "x2", "x3")
    gens = R.gens()
    assert hilbert_dim_degree(Ideal(R, [gens[0]])) == (2, 1)
    assert hilbert_dim_degree(Ideal(R, list(gens))) == (-1, 0)


def test_hilbert_rejects_inhomogeneous():
    R = _ring("x0", "x1")
    x0, x1 = R.gens()
    with pytest.raises(ValueError):
        hilbert_dim_degree(Ideal(R, [x0**2 - x1]))


# -- the local-multiplicity oracle (tests/references.py) and the solver on the classical cases ----------


def test_local_multiplicity_univariate():
    R = _ring("t")
    t = R.var(0)
    assert local_multiplicity(Ideal(R, [t**2]), [QQ.of(0)]) == 2
    assert local_multiplicity(Ideal(R, [t**3, t**4]), [QQ.of(0)]) == 3
    # shifted point
    assert local_multiplicity(Ideal(R, [(t - 2) ** 3]), [QQ.of(2)]) == 3


def test_local_multiplicity_bivariate():
    R = _ring("s", "t")
    s, t = R.gens()
    i = Ideal(R, [s**2, s * t, t**2])
    assert local_multiplicity(i, [QQ.of(0), QQ.of(0)]) == 3
    node = Ideal(R, [s * t])
    with pytest.raises(ValueError, match="not isolated"):
        local_multiplicity(node, [QQ.of(0), QQ.of(0)], cap=8)


def test_local_multiplicity_arity_guard():
    R = _ring("a", "b", "c")
    a, b, c = R.gens()
    with pytest.raises(ValueError, match="at most 2"):
        local_multiplicity(Ideal(R, [a, b, c]), [QQ.of(0)] * 3)


def test_budget_exceeded():
    from grassgeo.errors import BudgetExceeded

    R = _ring("x", "y", "z", field=GF(32003))
    x, y, z = R.gens()
    gens = [x**3 * y - z**4 + x * z**2, y**3 * z - x**4 + y, x * y * z - x - y - z]
    with pytest.raises(BudgetExceeded):
        buchberger(gens, budget=10)


def test_eliminate_then_hilbert_matches_substitution_oracle():
    # chart parametrization (1, t, t^2) of the conic: elimination yields
    # x0*x2 - x1^2, whose degree matches the substitution oracle's 2
    R = _ring("t", "x0", "x1", "x2")
    t, x0, x1, x2 = R.gens()
    out = eliminate(Ideal(R, [x1 - t * x0, x2 - t * x1]), ["x0", "x1", "x2"])
    homogeneous = [g for g in out.gens if g.is_homogeneous()]
    conic = [g for g in homogeneous if g.total_degree() == 2]
    S = out.ring
    y0, y1, y2 = S.gens()
    assert any(g == (y0 * y2 - y1**2).monic() for g in conic)
    dim, deg = hilbert_dim_degree(Ideal(S, conic))
    assert (dim, deg) == (1, 2)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=repr)
def test_local_multiplicity_classical_plane_curves(field):
    R = _ring("s", "t", field=field)
    s, t = R.gens()
    cases = [
        ([t - s**2, t], (0, 0), 2),  # tangent conic against its tangent line: contact of order 2
        ([s**3 - t**2, t], (0, 0), 3),  # cusp against a transverse line through the singular point
        ([s * t, s - t], (0, 0), 2),  # node against a generic line
        ([(s - 1) ** 2, (s - 1) * (t - 2), (t - 2) ** 2], (1, 2), 3),  # a shifted point
    ]
    for gens, point, mult in cases:
        point = tuple(field.of(c) for c in point)
        assert local_multiplicity(Ideal(R, gens), point) == mult
        # the solver reads the same multiplicity off the quotient algebra, and finds no other point
        assert affine_points_zero_dim(Ideal(R, gens)) == ([(point, mult)], True)


def test_hilbert_unit_ideal():
    R = _ring("x0", "x1")
    x0, x1 = R.gens()
    assert hilbert_dim_degree(Ideal(R, [R.one()])) == (-1, 0)
    # homogeneous generators whose basis reveals the unit ideal
    assert hilbert_dim_degree(Ideal(R, [x0, x1, R.one()])) == (-1, 0)


def _brute_force_numerator(gens, n):
    """(sum_d H(d) t^d) * (1-t)^n by counting standard monomials up to the degree of the lcm of gens."""
    top = sum(max(e[i] for e in gens) for i in range(n))
    hilb = [0] * (top + 1)
    for d in range(top + 1):
        for c in combinations(range(n + d - 1), n - 1):  # stars and bars: the monomials of degree d
            cuts = (-1,) + c + (n + d - 1,)
            e = tuple(cuts[i + 1] - cuts[i] - 1 for i in range(n))
            if not any(all(a <= b for a, b in zip(g, e)) for g in gens):
                hilb[d] += 1
    num = hilb
    for _ in range(n):
        num = [num[0]] + [num[d] - num[d - 1] for d in range(1, top + 1)]
    return {d: c for d, c in enumerate(num) if c}


def test_hilbert_numerator_matches_brute_force():
    # the linear and pure-power generators are the ones a pivot on their own variable would give back
    assert _numerator([(1, 0, 0), (0, 1, 1)]) == _brute_force_numerator([(1, 0, 0), (0, 1, 1)], 3)
    rng = random.Random(20)
    for _ in range(150):
        n = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 4)):
            e = [0] * n
            kind = rng.random()
            if kind < 0.3:
                e[rng.randrange(n)] = 1
            elif kind < 0.5:
                e[rng.randrange(n)] = rng.randint(2, 3)
            else:
                for i in rng.sample(range(n), rng.randint(2, n)):
                    e[i] = rng.randint(1, 2)
            gens.append(tuple(e))
        assert _numerator(gens) == _brute_force_numerator(gens, n), gens


def test_segre_p2_times_p2_has_dimension_four_and_degree_six():
    assert segre(GF(32003), 3, 3).dim_degree() == (4, 6)


def test_groebner_idempotent():
    R = _ring("x", "y", "z", field=GF(32003))
    x, y, z = R.gens()
    i = Ideal(R, [x * y - z**2, y**2 - x * z])
    gb = groebner(i)
    again = groebner(Ideal(R, list(gb.gens)))
    assert list(again.gens) == list(gb.gens)
