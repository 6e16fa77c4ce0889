import random
from fractions import Fraction

import pytest

from grassgeo import univariate as U
from grassgeo.fields import GF, QQ, Fp
from grassgeo.poly import PolyRing

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 31, 101)


# -- reference: the kernel division on field elements, which only these tests call -------------------


def quo_rem(f, g):
    """(q, r) with f = q*g + r and deg r < deg g, for nonzero g."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    field = GF(g[-1].p) if isinstance(g[-1], Fp) else QQ
    k = field.kernel
    q, r = U._quo_rem(U._unwrap(field, f), U._unwrap(field, g), k)
    return k.wrap(q), k.wrap(r)


def fp_sqrt(x):
    """The smallest square root of x in F_p, by `univariate.roots` of t^2 - x, or None if there is none."""
    field = GF(x.p)
    found = U.roots([-x, field.zero, field.one], field)
    return found[0] if found else None


def _brute_force_roots(f, field):
    return [field.of(x) for x in range(field.p) if not U.evaluate(f, field.of(x))]


def _random_poly(rng, field, degree):
    f = [field.of(rng.randrange(field.p)) for _ in range(degree)]
    return f + [field.of(rng.randrange(1, field.p))]


def _seeded_fp_polys(field, rng):
    t = PolyRing(field, ("t",)).var(0)
    for degree in range(1, 8):
        for _ in range(6):
            yield _random_poly(rng, field, degree)
        # zero constant term and repeated roots
        r, s = rng.randrange(field.p), rng.randrange(field.p)
        yield U.coeffs(t ** rng.randrange(1, 3) * (t - r) ** 2 * (t - s) ** (degree % 3))
        yield U.coeffs((t - r) ** degree)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_fp_roots_match_brute_force(p):
    field = GF(p)
    rng = random.Random(p)
    checked = 0
    for f in _seeded_fp_polys(field, rng):
        assert U.roots(f, field) == _brute_force_roots(f, field)
        checked += len(f) - 1 >= p
    assert checked or p > 7  # degrees reach 7


def test_rational_roots_of_known_factors():
    R = PolyRing(QQ, ("t",))
    t = R.var(0)
    rng = random.Random(5)
    for _ in range(20):
        want = {Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))}
        f = R.const(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for r in want:
            f = f * (t - R.const(r)) ** rng.randint(1, 2)
        for _ in range(rng.randint(0, 2)):
            f = f * (t**2 + R.const(rng.randint(1, 7)))  # no real roots
        f = f * (t**2 - 2)  # irrational roots
        got = U.roots(U.coeffs(f), QQ)
        zero = [Fraction(0)] if 0 in want else []
        assert got == zero + sorted(want - {0})
        assert all(type(r) is Fraction for r in got)


def test_fp_roots_are_rational_roots_mod_p():
    rng = random.Random(11)
    R = PolyRing(QQ, ("t",))
    t = R.var(0)
    for p in (7, 31, 101, 32003):
        field = GF(p)
        for _ in range(10):
            want = {rng.randint(-40, 40) for _ in range(rng.randint(1, 5))}
            if len({r % p for r in want}) != len(want):
                continue
            f = R.one()
            for r in want:
                f = f * (t - r)
            q_roots = U.roots(U.coeffs(f), QQ)
            fp_roots = U.roots([field.of(c) for c in U.coeffs(f)], field)
            assert [r.v for r in fp_roots] == sorted(int(r) % p for r in q_roots)


def test_roots_at_large_prime():
    field = GF(2**31 - 1)
    R = PolyRing(field, ("t",))
    t = R.var(0)
    f = (t - 3) * (t - 2**30) ** 2 * (t**2 - 7)  # 7 is not a square mod 2^31 - 1
    assert [r.v for r in U.roots(U.coeffs(f), field)] == [3, 2**30]


def test_zero_polynomial_has_every_root():
    with pytest.raises(ValueError):
        U.roots([], GF(5))


def test_gcd_and_valuation():
    for field in (QQ, GF(101)):
        R = PolyRing(field, ("t",))
        t = R.var(0)
        f = 3 * t**2 * (t - 1) * (t - 2)
        g = 5 * t * (t - 2) * (t + 3)
        assert U.poly_gcd([f, g]) == U.coeffs(t * (t - 2))
        assert U.poly_gcd([f, R.zero()]) == U.poly_gcd([R.zero(), f]) == U.coeffs(t**2 * (t - 1) * (t - 2))
        assert U.poly_gcd([R.zero(), R.zero()]) == U.poly_gcd([]) == []
        assert U.poly_gcd([f, t + 5]) == [field.one]
        f, g = U.coeffs(f), U.coeffs(g)
        assert U.valuation(f) == 2 and U.valuation(g) == 1
        assert U.valuation(U.coeffs(t + 5)) == 0 and U.valuation([]) is None


def test_quo_rem_identity():
    rng = random.Random(3)
    field = GF(31)
    R = PolyRing(field, ("t",))
    for _ in range(50):
        f = _random_poly(rng, field, rng.randrange(0, 8))
        g = _random_poly(rng, field, rng.randrange(0, 4))
        q, r = quo_rem(f, g)
        assert len(r) < len(g)
        as_poly = [R.from_terms(((i,), c) for i, c in enumerate(h)) for h in (f, g, q, r)]
        assert as_poly[0] == as_poly[2] * as_poly[1] + as_poly[3]
    with pytest.raises(ZeroDivisionError):
        quo_rem([field.one], [])


def test_restrict_to_line():
    field = GF(101)
    R = PolyRing(field, ("x", "y", "z"))
    x, y, z = R.gens()
    f = x**3 + 2 * x * y * z - z**2 * y + 7
    a, b = [3, 5, 9], [1, 0, 4]
    got = U.restrict(f, a, b)
    for t in range(10):
        point = [field.of(ai + t * bi) for ai, bi in zip(a, b)]
        assert U.evaluate(got, field.of(t)) == f.evaluate(point)
    assert U.restrict(x * y - y * x, a, b) == []


@pytest.mark.parametrize("p", (2, 3, 5, 13, 101))
def test_fp_sqrt_is_smallest_root(p):
    field = GF(p)
    for a in range(p):
        squares = [x for x in range(p) if x * x % p == a]
        s = fp_sqrt(field.of(a))
        assert (s.v if s is not None else None) == (squares[0] if squares else None)


def _brute_force_multiplicities(f, p):
    """(x, m) for each x in F_p with (t - x)^m the largest power dividing f, by synthetic division."""
    found = []
    for x in range(p):
        work, mult = [c.v for c in f], 0
        while len(work) > 1:
            acc, steps = 0, []
            for c in reversed(work):
                acc = (acc * x + c) % p
                steps.append(acc)
            if acc:  # the remainder f(x)
                break
            work, mult = steps[-2::-1], mult + 1
        if mult:
            found.append((x, mult))
    return found


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_root_multiplicities_match_repeated_division(p):
    field = GF(p)
    rng = random.Random(p)
    R = PolyRing(field, ("t",))
    t = R.var(0)
    repeated = 0
    for f in _seeded_fp_polys(field, rng):
        found, cofactor = U.root_multiplicities(f, field)
        want = _brute_force_multiplicities(f, p)
        assert [(r.v, m) for r, m in found] == want
        assert [r for r, _ in found] == U.roots(f, field)
        assert all(type(r) is Fp and r.p == p for r, _ in found)
        assert not _brute_force_roots(cofactor, field)
        product = R.from_terms(((i,), c) for i, c in enumerate(cofactor))
        for r, m in found:
            product = product * (t - r) ** m
        assert U.coeffs(product) == f
        repeated += any(m > 1 for _, m in found)
    assert repeated >= 10


def _random_int_poly(rng, ring, terms, degree):
    exps = [[rng.randrange(degree + 1) for _ in range(ring.nvars)] for _ in range(terms)]
    return ring.from_terms((e, rng.randint(-50, 50)) for e in exps if sum(e) <= degree)


@pytest.mark.parametrize("p", (2, 3, 5, 32003, 2**31 - 1))
def test_restrict_over_fp_is_restrict_over_q_mod_p(p):
    field = GF(p)
    rng = random.Random(p)
    names = ("x", "y", "z", "w")
    for _ in range(40):
        f = _random_int_poly(rng, PolyRing(QQ, names), rng.randrange(1, 9), rng.randrange(1, 6))
        fp = PolyRing(field, names).from_terms(f.terms.items())
        a = [rng.randint(-10**6, 10**6) for _ in names]
        b = [rng.randint(-10**6, 10**6) for _ in names]
        want = [field.of(c) for c in U.restrict(f, a, b)]
        while want and not want[-1]:
            want.pop()
        assert U.restrict(fp, a, b) == want  # int points
        got = U.restrict(fp, [field.of(x) for x in a], [field.of(x) for x in b])
        assert got == want
        assert all(type(c) is Fp and c.p == p for c in got)
        # the cached powers: a term x^k is (a + t b)^k however k splits across terms
        q = U.restrict(f, a, b)
        for t in range(3):
            point = [QQ.of(ai + t * bi) for ai, bi in zip(a, b)]
            assert U.evaluate(q, QQ.of(t)) == f.evaluate(point)


def test_prime_field_univariate_runs_without_fp_arithmetic(count_fp_operators):
    field = GF(32003)
    rng = random.Random(17)
    R = PolyRing(field, ("x", "y", "z"))
    x, y, z = R.gens()
    surface = x**3 + 5 * x * y * z - 7 * y**2 * z + z**3 - 11
    t = PolyRing(field, ("t",)).var(0)
    common = [(t - 3) ** 2 * (t - 5) * (t**2 - 7) * t, (t - 3) * (t + 5) * t]
    polys = [U.coeffs(common[0]), U.coeffs(t**2 - 2)]
    polys += [_random_poly(rng, field, degree) for degree in range(1, 7)]
    points = [[field.random(rng) for _ in range(3)] for _ in range(4)]
    calls = count_fp_operators()
    for f in polys:
        U.roots(f, field)
        U.root_multiplicities(f, field)
    U.restrict(surface, points[0], points[1])
    U.restrict(surface, [1, 2, 3], [4, 5, 6])
    U.poly_gcd(common)
    quo_rem(polys[0], polys[3])
    assert calls == []


def _shift_powers(roots, p, start, restart):
    """The powers (t + a)^((p-1)/2) that splitting the nonzero roots needs, trying shifts from start.

    By Euler's criterion the shift a separates the roots r with r + a a
    nonzero square from the others.  With restart every factor tries
    shifts from 0 again; without it, from the shift after the one that
    split its parent.
    """
    if len(roots) < 2:
        return 0
    e = (p - 1) // 2
    a = start
    while True:
        squares = {r for r in roots if pow(r + a, e, p) == 1}
        if squares and squares != roots:
            break
        a += 1
    after = 0 if restart else a + 1
    return a - start + 1 + sum(_shift_powers(part, p, after, restart) for part in (squares, roots - squares))


@pytest.mark.parametrize("p", SMALL_PRIMES + (32003,))
def test_split_goes_on_from_the_parents_shift(p, monkeypatch):
    field = GF(p)
    rng = random.Random(p)
    t = PolyRing(field, ("t",)).var(0)
    e = (p - 1) // 2
    shifts = []
    powmod = U._powmod

    def counted(base, exp, m, k):
        shifts.append(exp == e)
        return powmod(base, exp, m, k)

    monkeypatch.setattr(U, "_powmod", counted)
    made = restarted = 0
    for _ in range(50 if p == 32003 else 10):
        want = sorted(rng.sample(range(p), min(6, p)))
        f = t ** 0 * rng.randrange(1, p)
        for r in want:
            f = f * (t - r)
        shifts.clear()
        got = U.roots(U.coeffs(f), field)
        assert [r.v for r in got] == want
        if p < 32003:
            assert got == _brute_force_roots(U.coeffs(f), field)
        nonzero = set(want) - {0}
        assert sum(shifts) == _shift_powers(nonzero, p, 0, restart=False)
        made += sum(shifts)
        restarted += _shift_powers(nonzero, p, 0, restart=True)
    assert made <= restarted
    if p == 32003:
        assert made < restarted


def _roots_by_own_powers(f, k):
    """Reference: `_roots` with t^p and every splitting shift raised to its own power, as before
    t^p came from t^((p-1)/2)."""
    v = U.valuation(f)
    f = f[v:]
    found = [k.zero] if v else []
    if len(f) == 1:
        return found
    f = U._monic(f, k)
    h = U._powmod(0, k.p, f, k) + [0, 0]
    h[1] = k.reduce(h[1] - 1)
    return found + sorted(_split_by_own_powers(U._gcd(f, U._trim(h), k), k))


def _split_by_own_powers(g, k, a=0):
    if len(g) <= 2:
        return [k.reduce(-g[0])] if len(g) == 2 else []
    e = (k.p - 1) // 2
    while True:
        h = U._powmod(a, e, g, k) + [0]
        h[0] = k.reduce(h[0] - 1)
        d = U._gcd(g, U._trim(h), k)
        a += 1
        if 1 < len(d) < len(g):
            return _split_by_own_powers(d, k, a) + _split_by_own_powers(U._quo_rem(g, d, k)[0], k, a)


def _split_heavy_polys(field, rng):
    """Products of distinct linear factors, some times t or an irreducible-looking cofactor, and random polynomials."""
    t = PolyRing(field, ("t",)).var(0)
    for _ in range(12):
        f = t ** rng.randrange(2) * rng.randrange(1, field.p)
        for r in rng.sample(range(field.p), min(rng.randrange(1, 8), field.p)):
            f = f * (t - r)
        if rng.random() < 0.5:
            f = f * (t ** 2 + rng.randrange(field.p) * t + rng.randrange(1, field.p))
        yield U.coeffs(f)
    for degree in range(1, 9):
        yield _random_poly(rng, field, degree)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_roots_from_the_half_power_match_brute_force(p):
    field = GF(p)
    rng = random.Random("half-power/%d" % p)
    for f in _split_heavy_polys(field, rng):
        assert U.roots(f, field) == _brute_force_roots(f, field)


def test_roots_from_the_half_power_match_roots_by_own_powers_at_32003():
    field = GF(32003)
    k = field.kernel
    rng = random.Random("half-power/32003")
    split = 0
    for _ in range(4):
        for f in _split_heavy_polys(field, rng):
            raw = k.unwrap(f)
            want = _roots_by_own_powers(raw, k)
            assert U._roots(raw, k) == want
            split += len(want) >= 3
    assert split >= 20
