"""Dense univariate polynomials over an exact field.

A polynomial is a list of field elements, constant term first, without
trailing zeros; the zero polynomial is the empty list.  This module is
the one home of univariate division, gcd, valuation, Horner evaluation,
restriction of a multivariate `Poly` to a line, root finding and root
multiplicities.

Division, gcd, products and powers mod a polynomial are written once,
on the raw scalars of `field.kernel` (see `fields`): ints mod p over
F_p, reduced once per computed coefficient, and Fractions over Q.  Each
public function passes its arguments through `field.of`, unwraps them
once and wraps its result into field elements once, so no `Fp`
arithmetic runs inside.

Over F_p the roots of f are those of g = gcd(f, t^p - t), with t^p mod f
computed by square-and-multiply (for odd p as t * h^2 with
h = t^((p-1)/2) mod f, and h mod g serves as the first shift below); g is split by equal-degree splitting
(Cantor & Zassenhaus 1981; von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 14) with the deterministic shifts (t + a)^((p-1)/2) - 1,
a = 0, 1, 2, ...  Two distinct roots are separated by some shift a < p,
because no proper nonempty subset of F_p (here the squares) is invariant
under translation.  A shift that fails on, or splits, a polynomial fails
on each of its factors, so the factors go on from the next shift.  The
cost is polynomial in deg f and log p.  Over Q the candidates come from
the rational root theorem.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm



def _unwrap(field, f):
    """The kernel scalars of f's coefficients, each coerced into field first."""
    return field.kernel.unwrap(map(field.of, f))


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


# stays apart from Poly.substitute and Poly.evaluate: through substitute, contact-roots measured 7.6 % slower
# (CHANGES.md, "Groebner bases from their invariants")
def restrict(poly, a, b):
    """Coefficients of t |-> poly(a + t*b) for points a, b of the ring's field."""
    field = poly.ring.field
    k = field.kernel
    # powers[i][n] = (a_i + t*b_i)^n, built as the terms ask for them
    powers = [[[k.one], [ai, bi]] for ai, bi in zip(_unwrap(field, a), _unwrap(field, b))]
    out = [k.zero] * (poly.total_degree() + 1)
    for e, c in zip(poly.terms, _unwrap(field, poly.terms.values())):
        term = [c]
        for pw, n in zip(powers, e):
            if n:
                while len(pw) <= n:
                    pw.append(k.reduce_all(_mul(pw[-1], pw[1], k)))
                term = k.reduce_all(_mul(term, pw[n], k))
        for j, x in enumerate(term):
            out[j] += x
    return k.wrap(_trim(k.reduce_all(out)))


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


def poly_gcd(polys):
    """Monic gcd of the coefficient lists of one-variable `Poly`s; [] when all are zero."""
    if not polys:
        return []
    field = polys[0].ring.field
    k = field.kernel
    acc = []
    for g in polys:
        acc = _gcd(acc, _unwrap(field, coeffs(g)), k)
    return k.wrap(acc)


def roots(f, field):
    """Distinct roots of a nonzero f in the field.

    0 comes first when it is a root, then the other roots in ascending
    order (elements of F_p by their value).
    """
    k = field.kernel
    return k.wrap(_roots(_unwrap(field, f), k))


def root_multiplicities(f, field):
    """((root, multiplicity) list, cofactor) for a nonzero f in the field.

    The roots come in the order of `roots`; the cofactor is f divided by
    (t - r)^multiplicity for every root r, so it has no root in the field.
    """
    k = field.kernel
    work = _unwrap(field, f)
    found = _roots(work, k)
    mults, cofactor = _divide_out(work, found, k)
    return list(zip(k.wrap(found), mults)), k.wrap(cofactor)


# ---------------------------------------------------------------------------
# the algorithms, on kernel scalars


def _mul(f, g, k):
    """f*g, each coefficient a sum of unreduced products: the caller reduces."""
    if not f or not g:
        return []
    out = [k.zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    return out


def _quo_rem(f, g, k):
    """(q, r) reduced, for f with unreduced coefficients and g reduced and nonzero."""
    dg = len(g) - 1
    inv = k.one if g[-1] == k.one else k.inv(g[-1])
    r = list(f)
    q = [k.zero] * max(len(f) - dg, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = k.reduce(r[i + dg] * inv)
        if c:
            for j in range(dg):
                r[i + j] -= c * g[j]
    return _trim(q), _trim(k.reduce_all(r[:dg]))


def _divide_out(f, found, k):
    """(multiplicity of each root in found, f divided by (t - r)^multiplicity for each)."""
    mults = []
    for r in found:
        mult = 0
        while True:
            q, rem = _quo_rem(f, [k.reduce(-r), k.one], k)
            if rem:
                break
            f, mult = q, mult + 1
        mults.append(mult)
    return mults, f


def _gcd(f, g, k):
    while g:
        f, g = g, _quo_rem(f, g, k)[1]
    return _monic(f, k) if f else f


def _monic(f, k):
    inv = k.inv(f[-1])
    return k.reduce_all([c * inv for c in f])


def _powmod(a, e, m, k):
    """(t + a)^e mod a monic m by square-and-multiply; a step by t + a is a shift plus a times."""
    out = [k.one]
    for bit in bin(e)[2:]:
        out = _quo_rem(_mul(out, out, k), m, k)[1]
        if bit == "1":
            step = [k.zero] + out
            for i, c in enumerate(out):
                step[i] += a * c
            out = _quo_rem(step, m, k)[1]
    return out


def _roots(f, k):
    if not f:
        raise ValueError("zero polynomial has every root")
    v = valuation(f)
    f = f[v:]
    found = [k.zero] if v else []
    if len(f) == 1:
        return found
    if k.p is None:
        return found + _rational_roots(f)
    f = _monic(f, k)  # so that no division by f inverts its lead
    if k.p == 2:
        half, h = None, _powmod(0, 2, f, k)
    else:
        # t^p = t * (t^((p-1)/2))^2, and t^((p-1)/2) is the power of the first shift of _split, a = 0
        half = _powmod(0, (k.p - 1) // 2, f, k)
        h = _quo_rem([k.zero] + _mul(half, half, k), f, k)[1]
    # gcd(f, t^p - t) is the product of the distinct linear factors of f
    h = h + [0, 0]
    h[1] = k.reduce(h[1] - 1)
    return found + sorted(_split(_gcd(f, _trim(h), k), k, half=half))


def _split(g, k, a=0, half=None):
    """Roots of a monic g over F_p that is a product of distinct linear factors.

    No shift below a splits g.  half, if given, is t^((p-1)/2) modulo a
    multiple of g, the power of the shift a = 0.
    """
    if len(g) <= 2:
        return [k.reduce(-g[0])] if len(g) == 2 else []
    # p is odd here: over F_2 the factor t has been removed, so g divides t - 1
    e = (k.p - 1) // 2
    while True:
        h = (_quo_rem(half, g, k)[1] if half is not None else _powmod(a, e, g, k)) + [0]
        half = None
        h[0] = k.reduce(h[0] - 1)
        d = _gcd(g, _trim(h), k)
        a += 1
        if 1 < len(d) < len(g):
            return _split(d, k, a) + _split(_quo_rem(g, d, k)[0], k, a)


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
