"""Reduced Groebner bases checked against sympy, an independent implementation.

The reduced basis of an ideal under a monomial order is unique.  So
whatever S-pairs the Gebauer-Moeller criteria skip, `buchberger` must
return exactly the basis sympy computes, once both are made monic (over
Q sympy returns primitive integer polynomials instead).
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402

from grassgeo import associated, projvar  # noqa: E402
from grassgeo.fields import GF, QQ  # noqa: E402
from grassgeo.groebner import buchberger, eliminate  # noqa: E402
from grassgeo.poly import DEGREVLEX, LEX, PolyRing  # noqa: E402
from grassgeo.varieties import quadric_surface, twisted_cubic  # noqa: E402
from references import plane_conic  # noqa: E402

P = 32003
FIELDS = {"q": QQ, "fp": GF(P)}
ORDERS = {"degrevlex": (DEGREVLEX, "grevlex"), "lex": (LEX, "lex")}


def _sympy_options(field):
    return {"modulus": field.p} if field.kind == "fp" else {}


def _to_sympy(p, syms):
    out = sympy.Integer(0)
    for e, c in p.terms.items():
        coeff = sympy.Integer(c.v) if p.ring.field.kind == "fp" else sympy.Rational(c.numerator, c.denominator)
        out += coeff * sympy.Mul(*[s**k for s, k in zip(syms, e)])
    return out


def _from_sympy(expr, ring, syms):
    terms = sympy.Poly(expr, *syms).terms()
    return ring.from_terms((e, Fraction(int(c.p), int(c.q))) for e, c in terms).monic()


def _sympy_basis(gens, ring, syms, order):
    basis = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order=order, **_sympy_options(ring.field))
    return {_from_sympy(g, ring, syms) for g in basis.exprs}


def _seeded_gens(ring, seed):
    """Three or four polynomials of degree at most 3 with 2 to 4 terms and small coefficients."""
    rng = random.Random("groebner-oracle/%d" % seed)
    gens = []
    for _ in range(rng.randint(3, 4)):
        terms = []
        for _ in range(rng.randint(2, 4)):
            e = [0] * ring.nvars
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(ring.nvars)] += 1
            terms.append((e, rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])))
        gens.append(ring.from_terms(terms))
    return gens


# without the B criterion's test lcm(g_j, h) != lcm(g_i, g_j), seeds 42
# (lex) and 47 (degrevlex) lose part of their basis
SEEDS = list(range(12)) + [42, 47]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_seeded_ideals_match_sympy(field_name, order_name, seed):
    order, sympy_order = ORDERS[order_name]
    ring = PolyRing(FIELDS[field_name], ("w", "x", "y", "z"), order)
    syms = sympy.symbols(ring.vars)
    gens = _seeded_gens(ring, seed)
    assert set(buchberger(gens)) == _sympy_basis(gens, ring, syms, sympy_order)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_generator_order_does_not_change_the_basis(field_name, order_name, seed):
    ring = PolyRing(FIELDS[field_name], ("w", "x", "y", "z"), ORDERS[order_name][0])
    gens = _seeded_gens(ring, seed)
    shuffled = list(gens)
    random.Random(seed).shuffle(shuffled)
    basis = buchberger(gens)
    assert buchberger(shuffled) == basis
    assert buchberger(gens[::-1]) == basis


# the elimination ideals behind the dual, Chow, Hurwitz and polar-degree tests
ELIMINATIONS = {
    "dual-quadric": lambda f: projvar.dual_variety(quadric_surface(f)),
    "dual-conic": lambda f: projvar.dual_variety(plane_conic(f)),
    "chow-twisted-cubic": lambda f: associated.chow_hurwitz_ideal(twisted_cubic(f), 1),
    "hurwitz-twisted-cubic": lambda f: associated.chow_hurwitz_ideal(twisted_cubic(f), 2),
    "chow-quadric": lambda f: associated.chow_hurwitz_ideal(quadric_surface(f), 0),
    "hurwitz-quadric": lambda f: associated.chow_hurwitz_ideal(quadric_surface(f), 1),
}


@pytest.mark.parametrize("case", sorted(ELIMINATIONS))
@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_elimination_ideals_match_sympy(field_name, case, monkeypatch):
    calls = []

    def recording_eliminate(ideal, keep_vars):
        calls.append((ideal, list(keep_vars)))
        return eliminate(ideal, keep_vars)

    monkeypatch.setattr(associated, "eliminate", recording_eliminate)
    monkeypatch.setattr(projvar, "eliminate", recording_eliminate)
    ELIMINATIONS[case](FIELDS[field_name])
    assert len(calls) == 1
    ideal, keep = calls[0]
    ring = ideal.ring
    ours = eliminate(ideal, keep)

    syms = sympy.symbols(ring.vars)
    drop = [s for s, v in zip(syms, ring.vars) if v not in keep]
    kept = [s for s, v in zip(syms, ring.vars) if v in keep]
    k = len(drop)
    block = ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))
    options = _sympy_options(ring.field)
    full = sympy.groebner([_to_sympy(g, syms) for g in ideal.gens], *(drop + kept), order=block, **options)
    eliminant = [g for g in full.exprs if not g.free_symbols & set(drop)]
    assert eliminant
    reduced = sympy.groebner(eliminant, *kept, order="grevlex", **options)
    assert set(ours.gens) == {_from_sympy(g, ours.ring, kept) for g in reduced.exprs}
