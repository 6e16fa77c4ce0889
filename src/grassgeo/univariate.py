"""Dense univariate polynomials over an exact field.

A polynomial is a list of field elements, constant term first, without
trailing zeros; the zero polynomial is the empty list.  This module is
the one home of univariate division, gcd, valuation, Horner evaluation,
restriction of a multivariate `Poly` to a line, and root finding.

Over F_p the roots of f are those of g = gcd(f, t^p - t), with t^p mod f
computed by square-and-multiply; g is split by equal-degree splitting
(Cantor & Zassenhaus 1981; von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 14) with the deterministic shifts (t + a)^((p-1)/2) - 1,
a = 0, 1, 2, ...  Two distinct roots are separated by some shift a < p,
because no proper nonempty subset of F_p (here the squares) is invariant
under translation.  The cost is polynomial in deg f and log p.  Over Q
the candidates come from the rational root theorem.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def coeffs(poly):
    """Dense coefficients of a `Poly` in a one-variable ring."""
    out = [poly.ring.field.zero] * (poly.degree_in(0) + 1)
    for e, c in poly.terms.items():
        out[e[0]] = c
    return out


def restrict(poly, a, b):
    """Coefficients of t |-> poly(a + t*b) for points a, b of the ring's field."""
    zero = poly.ring.field.zero
    out = [zero] * (poly.total_degree() + 1)
    for e, c in poly.terms.items():
        term = [c]
        for ai, bi, k in zip(a, b, e):
            for _ in range(k):
                # term * (ai + t*bi)
                term = [x * ai + y * bi for x, y in zip(term + [zero], [zero] + term)]
        for j, x in enumerate(term):
            out[j] = out[j] + x
    return _trim(out)


def valuation(f):
    """Order of vanishing at t = 0; None for the zero polynomial."""
    for i, c in enumerate(f):
        if c:
            return i
    return None


def evaluate(f, x):
    """f(x) by Horner's rule."""
    acc = x - x
    for c in reversed(f):
        acc = acc * x + c
    return acc


def quo_rem(f, g):
    """(q, r) with f = q*g + r and deg r < deg g, for nonzero g."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    dg = len(g) - 1
    inv = 1 / g[-1]
    r = list(f)
    q = [None] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg] * inv
        q[k] = c
        if c:
            for j in range(dg):
                r[k + j] = r[k + j] - c * g[j]
    return _trim(q), _trim(r[:dg])


def gcd(f, g):
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while g:
        f, g = g, quo_rem(f, g)[1]
    if not f:
        return f
    inv = 1 / f[-1]
    return [c * inv for c in f]


def roots(f, field):
    """Distinct roots of a nonzero f in the field.

    0 comes first when it is a root, then the other roots in ascending
    order (elements of F_p by their value).
    """
    if not f:
        raise ValueError("zero polynomial has every root")
    v = valuation(f)
    f = f[v:]
    found = [field.zero] if v else []
    if len(f) == 1:
        return found
    if field.kind != "fp":
        return found + _rational_roots(f)
    zero, one = field.zero, field.one
    # gcd(f, t^p - t) is the product of the distinct linear factors of f
    h = _powmod([zero, one], field.p, f, field) + [zero, zero]
    h[1] = h[1] - one
    return found + sorted(_split(gcd(f, _trim(h)), field), key=lambda r: r.v)


def _mul(f, g, zero):
    if not f or not g:
        return []
    out = [zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    return out


def _powmod(base, e, m, field):
    """base^e mod m by square-and-multiply."""
    base = quo_rem(base, m)[1]
    out = [field.one]
    for bit in bin(e)[2:]:
        out = quo_rem(_mul(out, out, field.zero), m)[1]
        if bit == "1":
            out = quo_rem(_mul(out, base, field.zero), m)[1]
    return out


def _split(g, field):
    """Roots of a monic g that is a product of distinct linear factors."""
    if len(g) <= 2:
        return [-g[0]] if len(g) == 2 else []
    # p is odd here: over F_2 the factor t has been removed, so g divides t - 1
    e = (field.p - 1) // 2
    a = 0
    while True:
        h = _powmod([field.of(a), field.one], e, g, field) + [field.zero]
        h[0] = h[0] - field.one
        d = gcd(g, _trim(h))
        if 1 < len(d) < len(g):
            return _split(d, field) + _split(quo_rem(g, d)[0], field)
        a += 1


def _divisors(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def _rational_roots(f):
    """Ascending rational roots of f with f(0) != 0, by the rational root theorem."""
    den = lcm(*(c.denominator for c in f))
    const, lead = abs(int(f[0] * den)), abs(int(f[-1] * den))
    found = set()
    for num in _divisors(const):
        for d in _divisors(lead):
            for cand in (Fraction(num, d), Fraction(-num, d)):
                if not evaluate(f, cand):
                    found.add(cand)
    return sorted(found)
