"""First-order jets (dual numbers) over an exact base field.

A jet a + b*eps with eps^2 = 0 tracks a value and its derivative along
a one-parameter path.  Elimination over jets pivots only on units
(value part nonzero) and skips a column that holds only nilpotents, so
kernels stay exact to first order: the kernel of [[eps, 1]] is
(1, -eps).  Only a nonzero row left below the pivots - a rank that
drops to first order - raises NonGeneralConfiguration, and the callers
reseed.

`JetRing(base).kernel` is the raw-scalar kernel of `fields` for jets:
int pairs (a, b) mod p over F_p, and the jets themselves over Q.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import NonGeneralConfiguration
from .fields import ElementKernel, Fp, Kernel


class Jet:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def _co(self, other):
        if isinstance(other, Jet):
            return other
        return Jet(other, other * 0)

    def __add__(self, other):
        o = self._co(other)
        return Jet(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        return Jet(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._co(other)
        return Jet(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._co(other)
        return Jet(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other
        if not isinstance(o, Jet):
            # lift a scalar divisor into the base field: o.a / o.a would be a float for an int
            zero = self.a * 0
            o = Jet(zero + other, zero)
        if not o.a:
            raise NonGeneralConfiguration("division by a non-unit jet")
        inv = (o.a / o.a) / o.a
        return Jet(self.a * inv, (self.b * o.a - self.a * o.b) * inv * inv)

    def __rtruediv__(self, other):
        return self._co(other) / self

    def __neg__(self):
        return Jet(-self.a, -self.b)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative jet power")
        if e == 0:
            # 0-th power only meaningful for nonzero value part
            if not self.a:
                raise NonGeneralConfiguration("jet^0 with nilpotent value")
            one = self.a / self.a
            return Jet(one, one * 0)
        out = self
        for _ in range(e - 1):
            out = out * self
        return out

    def __eq__(self, other):
        o = other if isinstance(other, Jet) else self._co(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def is_unit(self):
        return bool(self.a)

    def __repr__(self):
        return "(%r + %r*eps)" % (self.a, self.b)


class PairKernel(Kernel):
    """Kernel of jets over F_p: a + b*eps as the int pair (a, b) in [0, p)^2."""

    zero, one = (0, 0), (1, 0)
    unit = staticmethod(itemgetter(0))  # the value part
    nonzero = staticmethod(any)

    def __init__(self, p):
        self.p = p

    @staticmethod
    def unwrap(xs):
        return [(x.a.v, x.b.v) for x in xs]

    def wrap(self, xs):
        p = self.p
        return [Jet(Fp(a, p), Fp(b, p)) for a, b in xs]

    def inv(self, x):
        a, b = x
        inv = pow(a, -1, self.p)
        return inv, -b * inv * inv % self.p

    def reduce(self, x):
        return x[0] % self.p, x[1] % self.p

    def reduce_all(self, xs):
        p = self.p
        return [(a % p, b % p) for a, b in xs]

    def mul(self, x, y):
        (a, b), (c, d) = x, y
        return a * c % self.p, (a * d + b * c) % self.p

    def neg(self, x):
        return -x[0] % self.p, -x[1] % self.p

    def scale(self, row, c):
        p = self.p
        c, d = c
        return [(a * c % p, (a * d + b * c) % p) for a, b in row]

    def axpy(self, row, f, pivot_row):
        p = self.p
        f, g = f
        return [((a - f * c) % p, (b - f * d - g * c) % p) for (a, b), (c, d) in zip(row, pivot_row)]

    def dot(self, u, v):
        x = y = 0
        for (a, b), (c, d) in zip(u, v):
            x += a * c
            y += a * d + b * c
        return x % self.p, y % self.p


class JetRing:
    """Field-descriptor-compatible wrapper for jets over a base field."""

    kind = "jet"

    def __init__(self, base):
        self.base = base
        self.kernel = PairKernel(base.p) if base.kind == "fp" else ElementKernel(self, unit=Jet.is_unit)

    @property
    def zero(self):
        return Jet(self.base.zero, self.base.zero)

    @property
    def one(self):
        return Jet(self.base.one, self.base.zero)

    def of(self, x):
        if isinstance(x, Jet):
            return Jet(self.base.of(x.a), self.base.of(x.b))
        return Jet(self.base.of(x), self.base.zero)

    def variable(self, value, slope=None):
        """value + slope*eps (slope defaults to 1)."""
        if slope is None:
            slope = self.base.one
        return Jet(self.base.of(value), self.base.of(slope))

    def __repr__(self):
        return "Jet(%r)" % self.base

    def __eq__(self, other):
        return isinstance(other, JetRing) and other.base == self.base

    def __hash__(self):
        return hash(("jet", self.base))
