"""Hilbert series and the projective dimension and degree they give.

The dimension and degree of a homogeneous ideal are read off the
Hilbert series of its leading-term ideal: with numerator N(t) over
(1-t)^n and N = (1-t)^r Q, Q(1) != 0, the affine cone has dimension
n - r, so the projective dimension is n - r - 1 and the degree is
Q(1).  Local multiplicities at points come with the points, from
`isoclass.affine_points_zero_dim`.
"""

from __future__ import annotations

from .groebner import groebner
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
