"""The packed monomials of `groebner` checked against the exponent tuples they replace.

A monomial packs into E (exponent slots with guard bits) and K (the
order's linear weight).  K must compare as `order.key` does, and the
guard-bit tricks on E must agree with the tuple operations, right up to
the largest exponent a slot holds.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from grassgeo.errors import Unsupported
from grassgeo.fields import GF, QQ
from grassgeo.groebner import SLOT_BITS, _Packing, buchberger, normal_form
from grassgeo.poly import DEGREVLEX, LEX, BlockOrder, Ideal, PolyRing, monomial_divides

LIMIT = (1 << SLOT_BITS) - 1  # the largest exponent a slot holds


def _orders(n):
    return [DEGREVLEX, LEX] + [BlockOrder(s) for s in range(n + 1)]


def _exponents(rng, n, count):
    """Seeded exponent vectors: small ones, ones just below the slot limit, and mixtures."""
    pools = [range(4), range(LIMIT - 3, LIMIT + 1), [0, 1, LIMIT - 1, LIMIT]]
    return [tuple(rng.choice(pools[k % 3]) for _ in range(n)) for k in range(count)]


def _packed(pk, e):
    """(K, E) of the monomial with exponents e."""
    k, packed, _ = pk.pack(pk.ring.monomial(e)).terms[0]
    return k, packed


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_weights_compare_as_the_order_key(n):
    rng = random.Random("packed-order/%d" % n)
    monomials = _exponents(rng, n, 30)
    for order in _orders(n):
        pk = _Packing(PolyRing(QQ, ["x%d" % i for i in range(n)], order))
        packed = {e: _packed(pk, e) for e in monomials}
        for a, b in combinations(monomials, 2):
            ka, kb = packed[a][0], packed[b][0]
            assert (ka < kb) == (order.key(a) < order.key(b)), (order, a, b)
            assert (ka == kb) == (a == b)
        for e, (k, packed_e) in packed.items():
            assert pk.key(packed_e) == k
            assert pk.exponents(packed_e) == e
            assert pk.degree(packed_e) == sum(e)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_divisibility_lcm_and_support_match_the_tuples(n):
    rng = random.Random("packed-swar/%d" % n)
    monomials = _exponents(rng, n, 30)
    pk = _Packing(PolyRing(GF(32003), ["x%d" % i for i in range(n)], DEGREVLEX))
    packed = {e: _packed(pk, e)[1] for e in monomials}
    for a in monomials:
        for b in monomials:
            pa, pb = packed[a], packed[b]
            assert pk.divides(pa, pb) == monomial_divides(a, b)
            lcm = pk.lcm(pa, pb)
            assert pk.exponents(lcm) == tuple(map(max, a, b))
            # disjoint supports, the product criterion's test
            assert (lcm == pa + pb) == (not any(x and y for x, y in zip(a, b)))
            if pk.divides(pa, pb) and a != b:
                assert pa < pb


def test_round_trip_keeps_terms_and_coefficients():
    rng = random.Random("packed-round-trip")
    for field in (QQ, GF(32003)):
        ring = PolyRing(field, ("x", "y", "z"), BlockOrder(1))
        pk = _Packing(ring)
        terms = [(e, rng.randint(-9, 9)) for e in _exponents(rng, 3, 12)]
        p = ring.from_terms(terms)
        packed = pk.pack(p)
        assert [t for t, _, _ in packed.terms] == sorted((t for t, _, _ in packed.terms), reverse=True)
        assert pk.unpack(packed) == p


def test_an_exponent_at_the_limit_raises():
    ring = PolyRing(QQ, ("y", "x"), LEX)
    y, x = ring.gens()
    pk = _Packing(ring)
    pk.pack(ring.monomial((0, LIMIT)))
    with pytest.raises(Unsupported, match=r"2\^%d - 1" % SLOT_BITS):
        pk.pack(ring.monomial((0, LIMIT + 1)))
    # reducing y*x^LIMIT by y - x makes x^(LIMIT + 1)
    with pytest.raises(Unsupported, match=r"2\^%d - 1" % SLOT_BITS):
        normal_form(y * ring.monomial((0, LIMIT)), Ideal(ring, [y - x]))
    # the S-polynomial of z*y - x^LIMIT and z*x - 1 shifts x^LIMIT by x
    ring = PolyRing(QQ, ("z", "y", "x"), LEX)
    z, y, x = ring.gens()
    with pytest.raises(Unsupported, match=r"2\^%d - 1" % SLOT_BITS):
        buchberger([z * y - ring.monomial((0, 0, LIMIT)), z * x - 1])


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["q", "fp"])
def test_high_exponent_lex_ideal_matches_sympy(field):
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(field, ("x", "y"), LEX)
    x, y = ring.gens()
    gens = [x**300 - y**2, x * y - 1]
    got = set(buchberger(gens))
    sx, sy = sympy.symbols("x y")
    options = {"modulus": field.p} if field.kind == "fp" else {}
    basis = sympy.groebner([sx**300 - sy**2, sx * sy - 1], sx, sy, order="lex", **options)
    expected = set()
    for g in basis.exprs:
        terms = sympy.Poly(g, sx, sy).terms()
        expected.add(ring.from_terms((e, Fraction(int(c.p), int(c.q))) for e, c in terms).monic())
    assert got == expected
    assert max(max(e) for g in got for e in g.terms) == 302
