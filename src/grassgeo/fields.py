"""Exact scalars: arbitrary-precision rationals and prime fields.

Two coefficient fields are supported, Q (via fractions.Fraction) and
F_p for a prime p (default 32003).  Field descriptors (`QQ`, `GF(p)`)
carry the construction/coercion protocol used by matrices and
polynomial rings; the elements themselves are plain Fractions or `Fp`
instances with overloaded operators.  Arithmetic never mixes fields:
Fp operations insist on a common modulus and refuse Fractions.

Hot loops (elimination and products in `linalg`, division and root
finding in `univariate`) run on raw scalars instead of field elements,
through the one kernel that each ring descriptor carries as
`ring.kernel`: `GF(p).kernel` holds Python ints in [0, p), `QQ.kernel`
the Fractions themselves, and `JetRing(base).kernel` (in `jets`) int
pairs (a, b) for a + b*eps over F_p, or the jets themselves over Q.  A
kernel offers

* `zero`, `one`, and `p`: the modulus, or None when nothing is reduced;
* `unwrap(xs)` and `wrap(xs)`: a list of raw scalars from a sequence of
  ring elements, and a list of ring elements from raw scalars.
  `unwrap` does not coerce: a caller that may hold ints or elements of
  another ring passes them through `ring.of` first;
* `inv`, `mul`, `neg`, and the row operations `scale(row, c)`,
  `axpy(row, f, pivot_row)` (row - f * pivot_row) and `dot(u, v)`, all
  with reduced results;
* `reduce(x)` and `reduce_all(xs)`: the canonical form of a sum of
  products built with Python's operators (ints over F_p, Fractions
  over Q), so such sums may be left unreduced until the end;
* `unit(x)`, true for an invertible x, and `nonzero(x)`.

Matrices reach their kernel through six more methods, which `Kernel`
writes once on top of the scalar methods above:

* `echelon_rows(rows)`, `pivot_step(m, r, c, d, above)`,
  `echelon_wrap(m, d)` and `quotient(d, den)`: the row update of the one
  elimination pass in `linalg`, which keeps the pivot search to itself;
* `product(rows, cols)`: the entries of a matrix product;
* `wedge_rows(rows)`: rows that `linalg.exterior_minors` can expand,
  with the means to bring its minors back into the ring.

`Kernel` scales each pivot row to 1 and subtracts multiples of it, on
raw scalars (F_p, jets over F_p) or on the elements (jets over Q).  Over
Q, `RationalKernel` instead clears each row's denominators once and
runs fraction-free Gauss-Jordan elimination on Python ints (Bareiss
1968): with pivot p, every other row becomes
(p * row - row[c] * pivot_row) // d, where d is the previous pivot and
the division is exact.  At the end every entry x is wrapped once, as
Fraction(x, d).  Products and minors over Q are int dot products and int
expansions of the cleared rows, wrapped once in the same way.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul, neg

from .errors import FieldMismatch, InvalidInput


# Miller-Rabin to the first 13 prime bases is exact below the least
# strong pseudoprime to all of them (Sorenson & Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality test; InvalidInput for n the test cannot decide."""
    if n >= _MR_LIMIT:
        raise InvalidInput("primality of %d is not decided: moduli must be below %d" % (n, _MR_LIMIT))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """An element of F_p; immutable, operator-overloaded."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatch("mixed moduli %d and %d" % (self.p, other.p))
            return other.v
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            raise FieldMismatch("cannot mix F_%d with rationals" % self.p)
        return NotImplemented

    def __add__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Fp(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Fp(self.v - w, self.p)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Fp(w - self.v, self.p)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return Fp(self.v * w, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        if w % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return Fp(self.v * pow(w, -1, self.p), self.p)

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return Fp(w * pow(self.v, -1, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __pow__(self, e: int):
        return Fp(pow(self.v, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d" % self.v


class Kernel:
    """The matrix methods of a kernel, written once on its scalar methods."""

    def echelon_rows(self, rows):
        """(m, d, den) for an elimination pass over rows of ring elements.

        m holds the rows as fresh lists of raw scalars, d is the pass's
        d before its first pivot, and det(rows) = det(m) / den.
        """
        return [self.unwrap(r) for r in rows], self.one, self.one

    def pivot_step(self, m, r, c, d, above):
        """Clear column c of m in place with its pivot m[r][c], a unit; returns the next d.

        The rows below r are cleared, and the rows above r too when
        `above`.  Here the pivot row is scaled to 1 and every other row
        loses a multiple of it; d is the product of the pivots.
        """
        pivot = m[r][c]
        pr = m[r] = self.scale(m[r], self.inv(pivot))
        nonzero, axpy = self.nonzero, self.axpy
        for i in range(0 if above else r + 1, len(m)):
            if i != r and nonzero(m[i][c]):
                m[i] = axpy(m[i], m[i][c], pr)
        return self.mul(d, pivot)

    def echelon_wrap(self, m, d):
        """Row tuples of ring elements from the rows m of a finished pass whose last d is d."""
        wrap = self.wrap
        return tuple(tuple(wrap(r)) for r in m)

    def quotient(self, d, den):
        """The ring element d / den, for a pass's determinant."""
        return self.wrap([self.mul(d, self.inv(den))])[0]

    def kernel_rows(self, m, piv, ncols):
        """(rows, d): raw rows spanning the kernel of a matrix, and the d to start a pass on them.

        m holds the matrix's RREF, pivot columns piv, as a finished
        Gauss-Jordan pass leaves it or as `echelon_rows` makes it of an
        RREF.  Here m is the RREF itself, so the row of a free column f is
        the unit at f less the RREF's column f at the pivot columns.
        """
        return _free_column_rows(m, piv, ncols, self.zero, self.one, self.neg), self.one

    def product(self, rows, cols):
        """Row tuples of the product of the matrix with these rows and the one with these columns."""
        cols = [self.unwrap(c) for c in cols]
        dot, wrap = self.dot, self.wrap
        return tuple(tuple(wrap([dot(r, c) for c in cols])) for r in map(self.unwrap, rows))

    def wedge_rows(self, rows):
        """(rows, reduce, wrap) for `linalg.exterior_minors`: the rows to expand, the canonical form of a
        sum of their products (or None), and the ring elements of a list of minors.

        Here the rows are the ring elements themselves.
        """
        return rows, None, list


class IntKernel(Kernel):
    """Kernel of F_p: Python ints in [0, p)."""

    zero, one = 0, 1
    unit = nonzero = staticmethod(bool)

    def __init__(self, p):
        self.p = p

    @staticmethod
    def unwrap(xs):
        return [x.v for x in xs]

    def wrap(self, xs):
        p = self.p
        return [Fp(x, p) for x in xs]

    def inv(self, x):
        return pow(x, -1, self.p)

    def reduce(self, x):
        return x % self.p

    def reduce_all(self, xs):
        p = self.p
        return [x % p for x in xs]

    def mul(self, x, y):
        return x * y % self.p

    def neg(self, x):
        return -x % self.p

    def scale(self, row, c):
        p = self.p
        return [x * c % p for x in row]

    def axpy(self, row, f, pivot_row):
        p = self.p
        return [(a - f * b) % p for a, b in zip(row, pivot_row)]

    def dot(self, u, v):
        return sum(map(mul, u, v)) % self.p

    def wedge_rows(self, rows):
        return [self.unwrap(r) for r in rows], self.reduce, self.wrap


class ElementKernel(Kernel):
    """Kernel of a ring whose elements serve as their own raw scalars: jets over Q, and Q (see RationalKernel)."""

    p = None
    nonzero = staticmethod(bool)
    mul = staticmethod(mul)
    neg = staticmethod(neg)
    # fresh lists, which callers may change in place
    unwrap = wrap = staticmethod(list)

    def __init__(self, ring, unit=bool):
        self.zero, self.one = ring.zero, ring.one
        self.unit = unit

    def inv(self, x):
        return self.one / x

    @staticmethod
    def reduce(x):
        return x

    @staticmethod
    def reduce_all(xs):
        return xs

    # Both row operations skip zero entries: a Fraction product costs a
    # gcd even when one factor is 0.
    @staticmethod
    def scale(row, c):
        return [x * c if x else x for x in row]

    @staticmethod
    def axpy(row, f, pivot_row):
        """row - f * pivot_row; the zeros of pivot_row (its leading columns) cost nothing."""
        return [a - f * b if b else a for a, b in zip(row, pivot_row)]

    def dot(self, u, v):
        products = map(mul, u, v)
        return sum(products, next(products, self.zero))


def _free_column_rows(m, piv, ncols, zero, lead, neg):
    """For each free column f: lead at f, neg(m[r][f]) at the r-th pivot column, zero elsewhere."""
    rows = []
    pivots = set(piv)
    for f in range(ncols):
        if f not in pivots:
            v = [zero] * ncols
            v[f] = lead
            for r, c in enumerate(piv):
                v[c] = neg(m[r][f])
            rows.append(v)
    return rows


def _cleared(row):
    """(ints, l): the row of Fractions times l, its least common denominator."""
    pairs = [x.as_integer_ratio() for x in row]
    l = lcm(*[d for _, d in pairs])
    return [n * (l // d) for n, d in pairs], l


_ZERO = Fraction(0)


def _over(xs, d):
    """The Fractions x / d, made once each."""
    return [Fraction(x, d) if x else _ZERO for x in xs]


class RationalKernel(ElementKernel):
    """Kernel of Q.  Its scalars are the Fractions themselves; its matrix
    methods clear denominators once and work on Python ints."""

    @staticmethod
    def echelon_rows(rows):
        m, den = [], 1
        for r in rows:
            ints, l = _cleared(r)
            m.append(ints)
            den *= l
        return m, 1, den

    @staticmethod
    def pivot_step(m, r, c, d, above):
        """Fraction-free Gauss-Jordan: each other row becomes (p * row - row[c] * pivot_row) // d
        for the pivot p, exactly (Bareiss 1968), and p is the next d.

        With `above`, the rows that have had their pivots then hold p
        times what Gauss-Jordan on the Fractions would leave in them.
        """
        pr = m[r]
        p = pr[c]
        for i in range(0 if above else r + 1, len(m)):
            row = m[i]
            f = row[c]
            if f and i != r:
                m[i] = [(p * a - f * b) // d for a, b in zip(row, pr)]
            elif not f and p != d:
                m[i] = [p * a // d for a in row]
        return p

    @staticmethod
    def echelon_wrap(m, d):
        return tuple(tuple(_over(row, d)) for row in m)

    @staticmethod
    def kernel_rows(m, piv, ncols):
        """Each pivot row of m is its pivot entry times the RREF row: the last d after a pass, the row's
        least common denominator for a cleared RREF.  Brought to the lcm l of those entries, the kernel
        rows times l are int rows; a pass on them starts at 1."""
        scales = [m[r][c] for r, c in enumerate(piv)]
        l = lcm(*scales)
        m = [row if s == l else [x * (l // s) for x in row] for row, s in zip(m, scales)]
        return _free_column_rows(m, piv, ncols, 0, l, neg), 1

    @staticmethod
    def quotient(d, den):
        return Fraction(d, den)

    @staticmethod
    def product(rows, cols):
        cols = [_cleared(c) for c in cols]
        out = []
        for r in rows:
            a, da = _cleared(r)
            dots = [sum(map(mul, a, b)) for b, _ in cols]
            out.append(tuple(Fraction(x, da * db) if x else _ZERO for x, (_, db) in zip(dots, cols)))
        return tuple(out)

    def wedge_rows(self, rows):
        m, _, den = self.echelon_rows(rows)
        return m, None, lambda minors: _over(minors, den)


class RationalField:
    """Descriptor for Q."""

    kind = "q"
    p = None

    def __init__(self):
        self.kernel = RationalKernel(self)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def of(self, x):
        """Coerce an int/Fraction/Fp-free value into the field."""
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fp):
            raise FieldMismatch("cannot coerce F_%d element into Q" % x.p)
        raise FieldMismatch("cannot coerce %r into Q" % (x,))

    def random(self, rng, height=20):
        """Small-height rational, deterministic in rng."""
        num = rng.randrange(-height, height + 1)
        den = rng.randrange(1, height + 1)
        return Fraction(num, den)

    def format(self, x) -> str:
        return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else "%d" % x.numerator

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """Descriptor for F_p, p prime."""

    kind = "fp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise InvalidInput("%d is not prime" % p)
        self.p = p
        self.kernel = IntKernel(p)

    @property
    def zero(self):
        return Fp(0, self.p)

    @property
    def one(self):
        return Fp(1, self.p)

    def of(self, x):
        if isinstance(x, Fp):
            if x.p != self.p:
                raise FieldMismatch("mixed moduli %d and %d" % (self.p, x.p))
            return x
        if isinstance(x, int):
            return Fp(x, self.p)
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return Fp(x.numerator * pow(den, -1, self.p), self.p)
        raise FieldMismatch("cannot coerce %r into F_%d" % (x, self.p))

    def random(self, rng, height=None):
        return Fp(rng.randrange(self.p), self.p)

    def format(self, x) -> str:
        return "%d" % x.v

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

DEFAULT_PRIME = 32003


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def int_from_string(s: str) -> int:
    """int(s) for a decimal literal; one longer than Python converts is an InvalidInput."""
    digits = s.strip().lstrip("+-")
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise InvalidInput("integer literal of %d digits exceeds the limit of %d" % (len(digits), limit))
    return int(s)


def field_from_tag(tag: str):
    """Parse a CLI field tag: 'q' or 'fp:<prime>'."""
    if tag == "q":
        return QQ
    if tag.startswith("fp:") and tag[3:].isdecimal():
        return GF(int_from_string(tag[3:]))
    if tag == "fp":
        return GF(DEFAULT_PRIME)
    raise InvalidInput("unknown field tag %r (expected 'q' or 'fp:<prime>')" % tag)


def scalar_from_string(field, s: str):
    """Parse 'num/den' or integer literals into a field element.

    A denominator that is zero in the field, or a literal longer than
    Python converts to an int, is an InvalidInput.
    """
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        den = int_from_string(den)
        if den == 0 or field.p and den % field.p == 0:
            raise InvalidInput("%r has a zero denominator in %r" % (s, field))
        return field.of(Fraction(int_from_string(num), den))
    return field.of(int_from_string(s))
