"""Hilbert series, projective dimension/degree, local multiplicity.

The dimension and degree of a homogeneous ideal are read off the
Hilbert series of its leading-term ideal: with numerator N(t) over
(1-t)^n and N = (1-t)^r Q, Q(1) != 0, the affine cone has dimension
n - r, so the projective dimension is n - r - 1 and the degree is
Q(1).  Local multiplicities are supported in at most two parameters:
univariate via the valuation of the gcd, bivariate via the staircase
count of the ideal truncated by increasing powers of the maximal
ideal (the count stabilizes at the local dimension for isolated
points and grows without bound otherwise).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import univariate
from .errors import NotIsolated, UnsupportedArity
from .groebner import buchberger, groebner
from .poly import Ideal, monomial_divides


def _minimalize(gens):
    """Minimal generators of a monomial ideal (exponent tuples)."""
    out = []
    for e in sorted(set(gens), key=lambda e: (sum(e), e)):
        if not any(monomial_divides(f, e) for f in out):
            out.append(e)
    return out


def _series_add(a, b):
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + c
        if out[d] == 0:
            del out[d]
    return out


def _series_shift(a, k):
    return {d + k: c for d, c in a.items()}


def _numerator(gens):
    """Hilbert series numerator of S/I for a monomial ideal I."""
    gens = _minimalize(gens)
    if not gens:
        return {0: 1}
    # pure powers on distinct variables: product of (1 - t^a)
    supports = [tuple(i for i, x in enumerate(e) if x) for e in gens]
    if all(len(s) == 1 for s in supports):
        num = {0: 1}
        for e in gens:
            d = sum(e)
            num = _series_add(num, {k + d: -c for k, c in num.items()})
        return num
    # pivot on the most frequent variable of a mixed generator: a variable whose only generator is its
    # own power would give back the same ideal
    counts = {}
    for s in supports:
        if len(s) > 1:
            for i in s:
                counts[i] = counts.get(i, 0) + 1
    pivot = max(sorted(counts), key=lambda i: counts[i])
    n = len(gens[0])
    pvt = tuple(1 if i == pivot else 0 for i in range(n))
    plus = [e for e in gens if e[pivot] == 0] + [pvt]
    colon = [tuple(x - 1 if i == pivot and x > 0 else x for i, x in enumerate(e)) for e in gens]
    return _series_add(_numerator(plus), _series_shift(_numerator(colon), 1))


def _divide_one_minus_t(num):
    """num / (1-t); requires num(1) == 0."""
    out = {}
    acc = 0
    for d in range(max(num) + 1):
        acc += num.get(d, 0)
        if acc:
            out[d] = acc
    return out


def hilbert_dim_degree(ideal: Ideal):
    """(projective dimension, degree) of Z(ideal); (-1, 0) when empty.

    Requires homogeneous generators.
    """
    for g in ideal.gens:
        if not g.is_homogeneous():
            raise ValueError("hilbert_dim_degree requires homogeneous generators")
    gb = groebner(ideal)
    n = ideal.ring.nvars
    if any(g.is_constant() for g in gb.gens):
        return -1, 0  # unit ideal: empty zero set
    leads = [g.lead()[0] for g in gb.gens]
    num = _numerator(leads)
    r = 0
    while num and sum(num.values()) == 0:
        num = _divide_one_minus_t(num)
        r += 1
    if not num:
        # zero ideal numerator cannot vanish identically
        raise AssertionError("unreachable: zero Hilbert numerator")
    affine_dim = n - r
    if affine_dim == 0:
        return -1, 0
    return affine_dim - 1, sum(num.values())


def _staircase_count(leads, cap):
    """Number of monomials under the staircase in <= 2 variables."""
    nv = len(leads[0]) if leads else 2
    count = 0
    for a in range(cap + 1):
        for b in range(cap + 1) if nv == 2 else [0]:
            e = (a, b) if nv == 2 else (a,)
            if not any(monomial_divides(l, e) for l in leads):
                count += 1
    return count


def local_multiplicity(ideal: Ideal, point, cap=24):
    """Vector-space dimension of the local quotient at the point.

    Supports one or two local parameters.  The point must lie on the
    zero set; a positive-dimensional component through it raises
    NotIsolated.
    """
    ring = ideal.ring
    nv = ring.nvars
    if nv > 2:
        raise UnsupportedArity("local multiplicity supports at most 2 parameters")
    pt = [ring.field.of(x) for x in point]
    for g in ideal.gens:
        if g.evaluate(pt):
            raise ValueError("point is not on the zero set")
    # translate the point to the origin
    gens = []
    images = [ring.var(i) + ring.const(pt[i]) for i in range(nv)]
    for g in ideal.gens:
        gens.append(g.substitute(ring, images))
    gens = [g for g in gens if g]
    if not gens:
        raise NotIsolated("zero ideal")
    if nv == 1:
        v = univariate.valuation(univariate.poly_gcd(gens))
        if v == 0:
            raise ValueError("point is not on the zero set")
        return v
    prev = None
    for depth in range(2, cap + 1):
        trunc = [
            ring.monomial(e)
            for e in (
                tuple(sum(1 for x in c if x == i) for i in range(nv))
                for c in combinations_with_replacement(range(nv), depth)
            )
        ]
        gb = buchberger(gens + trunc)
        leads = [g.lead()[0] for g in gb]
        count = _staircase_count(leads, depth)
        if prev is not None and count == prev:
            return count
        prev = count
    raise NotIsolated("staircase count did not stabilize (cap %d)" % cap)
