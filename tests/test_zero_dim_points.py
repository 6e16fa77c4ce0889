"""The zero-dimensional solver against oracles that share none of its linear algebra.

`isoclass.affine_points_zero_dim` reads points and multiplicities off the
quotient algebra R/I.  Here its points are compared with a brute-force
search over F_p^k, its order with the order the docstring states (last
coordinate first), its completeness flag with the nilpotency of
x_i^p - x_i modulo I, and its multiplicities with the local quotients of
`references.local_multiplicity` in up to two variables and with the
size of the normal set in any number.
"""

import itertools
import random

import pytest

from grassgeo.errors import CertificateNotApplicable
from grassgeo.fields import GF, QQ
from grassgeo.groebner import groebner, normal_form
from grassgeo.isoclass import affine_points_zero_dim
from grassgeo.linalg import Matrix
from grassgeo.poly import Ideal, PolyRing, monomial_divides
from references import local_multiplicity

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _ring(field, k):
    return PolyRing(field, ("x", "y", "z")[:k])


def _quotient_dim(ideal):
    """Number of monomials outside the lead ideal, counted inside the box of the pure powers."""
    leads = [g.lead()[0] for g in groebner(ideal).gens]
    k = ideal.ring.nvars
    if not any(map(any, leads)):  # the unit ideal
        return 0
    bounds = [min(e[i] for e in leads if e[i] == sum(e) and e[i]) for i in range(k)]
    return sum(1 for e in itertools.product(*map(range, bounds)) if not any(monomial_divides(l, e) for l in leads))


def _brute_force_points(ideal):
    """The zeros in F_p^k, last coordinate first, then the one before it, each by value."""
    field = ideal.ring.field
    k = ideal.ring.nvars
    found = [pt for pt in itertools.product([field.of(x) for x in range(field.p)], repeat=k)
             if not any(g.evaluate(list(pt)) for g in ideal.gens)]
    return sorted(found, key=lambda pt: [c.v for c in reversed(pt)])


def _all_points_rational(ideal, dim):
    """Every zero over the algebraic closure lies in F_p^k iff each x_i^p - x_i is nilpotent modulo I,
    and a nilpotent element of R/I has its dim-th power in I."""
    ring = ideal.ring
    gb = groebner(ideal)
    for x in ring.gens():
        frobenius = x ** ring.field.p - x
        power = normal_form(ring.one(), gb)
        for _ in range(dim):
            power = normal_form(power * frobenius, gb)
        if power:
            return False
    return True


def _irreducible_quadratic(t, p):
    """t^2 + b t + c without a root in F_p, for the first such (c, b)."""
    c, b = next((c, b) for c in range(p) for b in range(p) if all((x * x + b * x + c) % p for x in range(p)))
    return t * t + b * t + c


def _piece(ring, rng, kind):
    """Generators of an ideal supported at one seeded point (or, for "irrational", at two conjugate
    points off the field) in coordinates centred there."""
    field = ring.field
    xs = [x - field.random(rng) for x in ring.gens()]
    if kind == "point":
        return xs
    if kind == "fat":  # multiplicity e along the first axis
        return [xs[0] ** rng.randrange(2, 4)] + xs[1:]
    if kind == "square":  # the square of the maximal ideal: multiplicity k + 1
        return [a * b for a, b in itertools.combinations_with_replacement(xs, 2)]
    return [_irreducible_quadratic(xs[0], field.p)] + xs[1:]


def _seeded_system(field, rng, k):
    """A product of one to three pieces, read in seeded linear coordinates, or k random quadrics."""
    ring = _ring(field, k)
    if rng.random() < 0.25:
        return Ideal(ring, [ring.from_terms(([rng.randrange(3) for _ in range(k)], field.random(rng))
                                            for _ in range(rng.randrange(2, 6))) for _ in range(k)])
    kinds = ["point", "fat", "irrational"] + (["square"] if k < 3 else [])
    gens = [ring.one()]
    for _ in range(rng.randrange(1, 4 if k < 3 else 3)):
        piece = _piece(ring, rng, rng.choice(kinds))
        gens = [g * h for g in gens for h in piece]
    while True:
        rows = [[field.random(rng) for _ in range(k)] for _ in range(k)]
        if Matrix(field, rows).rank() == k:
            break
    images = [sum((x * c for x, c in zip(ring.gens(), row)), ring.zero()) for row in rows]
    return Ideal(ring, [g.substitute(ring, images) for g in gens])


@pytest.mark.parametrize("k", (1, 2, 3))
def test_points_order_and_completeness_equal_brute_force(k):
    shapes = {"complete": 0, "incomplete": 0, "multiple": 0, "refused": 0}
    for p, trial in itertools.product(SMALL_PRIMES, range(12 if k < 3 else 6)):
        field = GF(p)
        rng = random.Random("zero-dim/%d/%d/%d" % (p, k, trial))
        ideal = _seeded_system(field, rng, k)
        if not ideal.gens:
            continue
        try:
            points, complete = affine_points_zero_dim(ideal)
        except CertificateNotApplicable:
            shapes["refused"] += 1
            continue
        dim = _quotient_dim(ideal)
        assert [pt for pt, _ in points] == _brute_force_points(ideal)
        assert complete == _all_points_rational(ideal, dim)
        # the multiplicities are the local quotients, which make up R/I when every point is rational
        assert all(mult >= 1 for _, mult in points)
        assert complete == (sum(mult for _, mult in points) == dim)
        if k <= 2:
            assert [mult for _, mult in points] == [local_multiplicity(ideal, pt) for pt, _ in points]
        shapes["complete" if complete else "incomplete"] += 1
        shapes["multiple"] += any(mult > 1 for _, mult in points)
    assert min(shapes["complete"], shapes["incomplete"], shapes["multiple"]) >= 8, shapes


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_known_three_variable_quotients(field):
    R = _ring(field, 3)
    x, y, z = R.gens()
    o = field.of

    def solve(*gens):
        return affine_points_zero_dim(Ideal(R, gens))

    assert solve(x**2, y**2, z**2) == ([((o(0), o(0), o(0)), 8)], True)
    assert solve(x**2, y**2, z**2, x * y * z) == ([((o(0), o(0), o(0)), 7)], True)
    assert solve(x, y, z**3) == ([((o(0), o(0), o(0)), 3)], True)
    # ordered by the last coordinate first
    assert solve((x - 1) ** 2, y - 2, z**2 - z) == ([((o(1), o(2), o(0)), 2), ((o(1), o(2), o(1)), 2)], True)
    assert solve((x - 2) * (x - 1), y * (y - 1), z - 3) == (
        [((o(1), o(0), o(3)), 1), ((o(2), o(0), o(3)), 1), ((o(1), o(1), o(3)), 1), ((o(2), o(1), o(3)), 1)], True)
    # 2 is not a square modulo 32003 (which is 3 mod 8) and not a rational square
    assert solve((x**2 - 2) * (x - 1), y, z - x) == ([((o(1), o(0), o(1)), 1)], False)
    assert solve(R.one()) == ([], True)
    for gens in ([x * y, z], [x - y], [x**2, y**2]):
        with pytest.raises(CertificateNotApplicable, match="not zero-dimensional"):
            solve(*gens)
    with pytest.raises(ValueError, match="zero ideal"):
        solve()
