"""Sparse multivariate polynomials over an exact field.

A ring fixes the variable names, the coefficient field and a monomial
order.  Each order has a sort key `key`, which ascends with the order,
and `weights(n, w)`: integer weights of a linear form sum_i e_i w_i that
compares exactly as `key` does while every exponent is below w (the
packed monomials of `groebner`).
Polynomials are immutable dicts {exponent tuple: coefficient}
with no zero coefficients stored.  Orders provided: degrevlex (the
default), lex, and block (product) orders used for elimination.
"""

from __future__ import annotations

from math import inf
from operator import add, le

from .errors import FieldMismatch


class DegRevLex:
    name = "degrevlex"

    @staticmethod
    def key(e):
        return (sum(e), tuple(-x for x in reversed(e)))

    @staticmethod
    def weights(n, w):
        # the degree weighs w^n, above every sum_i e_i w^i, which breaks ties reversed
        return [w**n - w**i for i in range(n)]

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is DegRevLex

    def __hash__(self):
        return hash(self.name)


class Lex:
    name = "lex"

    @staticmethod
    def key(e):
        return e

    @staticmethod
    def weights(n, w):
        return [w ** (n - 1 - i) for i in range(n)]

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is Lex

    def __hash__(self):
        return hash(self.name)


class BlockOrder:
    """Product order: first block dominates; degrevlex inside blocks.

    With the eliminated variables in the first block this is an
    elimination order: any monomial using a first-block variable is
    larger than every monomial in the remaining variables alone.
    """

    name = "block"

    def __init__(self, split: int):
        self.split = split

    def key(self, e):
        a, b = e[: self.split], e[self.split :]
        return (DegRevLex.key(a), DegRevLex.key(b))

    def weights(self, n, w):
        m = n - self.split
        # a second-block degrevlex sum is below m * w^(m+1) <= w^(m+2)
        scale = w ** (m + 2)
        return [x * scale for x in DegRevLex.weights(self.split, w)] + DegRevLex.weights(m, w)

    def __repr__(self):
        return "block(%d)" % self.split

    def __eq__(self, other):
        return isinstance(other, BlockOrder) and other.split == self.split

    def __hash__(self):
        return hash((self.name, self.split))


DEGREVLEX = DegRevLex()
LEX = Lex()


class PolyRing:
    __slots__ = ("field", "vars", "order", "_var_index")

    def __init__(self, field, variables, order=DEGREVLEX):
        self.field = field
        self.vars = tuple(variables)
        self.order = order
        self._var_index = {v: i for i, v in enumerate(self.vars)}

    @property
    def nvars(self):
        return len(self.vars)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.vars == other.vars
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.vars, self.order))

    def __repr__(self):
        return "%r[%s] (%r)" % (self.field, ", ".join(self.vars), self.order)

    def with_order(self, order):
        return PolyRing(self.field, self.vars, order)

    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {(0,) * self.nvars: self.field.one})

    def const(self, c):
        c = self.field.of(c)
        if not c:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name_or_index):
        i = name_or_index if isinstance(name_or_index, int) else self._var_index[name_or_index]
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): self.field.one})

    def gens(self):
        return tuple(self.var(i) for i in range(self.nvars))

    def monomial(self, exps, coeff=None):
        c = self.field.one if coeff is None else self.field.of(coeff)
        if not c:
            return self.zero()
        return Poly(self, {tuple(exps): c})

    def from_terms(self, terms):
        d = {}
        for e, c in terms:
            c = self.field.of(c)
            e = tuple(e)
            if e in d:
                c = d[e] + c
            if c:
                d[e] = c
            elif e in d:
                del d[e]
        return Poly(self, d)


class Poly:
    __slots__ = ("ring", "terms", "_lt")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._lt = None

    # -- queries ---------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def lead(self):
        """(exponent, coefficient) of the leading term in the ring order."""
        if self._lt is None:
            if not self.terms:
                raise ValueError("leading term of zero")
            key = self.ring.order.key
            self._lt = max(self.terms, key=key)
        return self._lt, self.terms[self._lt]

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise FieldMismatch("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        self._check(other)
        d = dict(self.terms)
        for e, c in other.terms.items():
            s = d.get(e)
            s = c if s is None else s + c
            if s:
                d[e] = s
            elif e in d:
                del d[e]
        return Poly(self.ring, d)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + self.ring.const(other)

    # stays apart from _raw_product: on it, elimination measured 6.1 % slower
    # (CHANGES.md, "Groebner bases from their invariants")
    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = self.ring.field.of(other)
            if not c:
                return self.ring.zero()
            return Poly(self.ring, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        d = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = d.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    d[e] = s
                elif e in d:
                    del d[e]
        return Poly(self.ring, d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def monic(self):
        if not self.terms:
            return self
        _, c = self.lead()
        inv = self.ring.field.one / c
        return Poly(self.ring, {e: v * inv for e, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus / evaluation ----------------------------------------------
    def diff(self, i):
        d = {}
        f = self.ring.field
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                d[tuple(e2)] = c * f.of(e[i])
        return Poly(self.ring, d)

    def gradient(self):
        return tuple(self.diff(i) for i in range(self.ring.nvars))

    # stays apart from substitute and univariate.restrict: through either, sampling measured 26-54 % slower
    # (CHANGES.md, "Groebner bases from their invariants")
    def evaluate(self, point):
        """Evaluate at scalars (field elements or jets); Horner-free."""
        if len(point) != self.ring.nvars:
            raise ValueError("point arity mismatch")
        acc = None
        for e, c in self.terms.items():
            t = c
            for x, k in zip(point, e):
                if k:
                    t = t * x**k
            acc = t if acc is None else acc + t
        return self.ring.field.zero if acc is None else acc

    def substitute(self, target_ring, images, max_degree=None):
        """Ring map sending var i to images[i] (Poly in target_ring over a field).

        With max_degree (>= 0), only the terms of total degree <= max_degree
        are computed: degrees add in a product, so no dropped term feeds a
        kept one.  The work runs on the raw scalars of the field's kernel:
        the images are unwrapped once and their powers cached, and each
        coefficient of the result is reduced and wrapped once.
        """
        if len(images) != self.ring.nvars:
            raise ValueError("need an image for every variable")
        field = target_ring.field
        k = field.kernel
        top = inf if max_degree is None else max_degree
        # powers[i][n] = images[i]**n as {exponent: raw scalar}, reduced, built as the terms ask
        powers = [[None, {e: c for e, c in zip(img.terms, k.unwrap(img.terms.values())) if sum(e) <= top}]
                  for img in images]
        out = {}
        for e, c in zip(self.terms, k.unwrap(map(field.of, self.terms.values()))):
            t = None  # c times the powers so far; the first power is only scaled
            for pw, n in zip(powers, e):
                if n:
                    while len(pw) <= n:
                        pw.append(_reduced(_raw_product(pw[-1], pw[1], top), k))
                    t = {x: c * v for x, v in pw[n].items()} if t is None else _raw_product(t, pw[n], top)
            if t is None:
                t = {(0,) * target_ring.nvars: c}
            for x, v in t.items():
                out[x] = out.get(x, 0) + v
        return _from_raw(target_ring, out)

    def map_to(self, target_ring):
        """Inclusion/renaming by variable name into target_ring."""
        idx = []
        for v in self.ring.vars:
            if v in target_ring._var_index:
                idx.append(target_ring._var_index[v])
            else:
                idx.append(None)
        d = {}
        for e, c in self.terms.items():
            e2 = [0] * target_ring.nvars
            for i, k in enumerate(e):
                if k:
                    if idx[i] is None:
                        raise ValueError("variable %s missing in target" % self.ring.vars[i])
                    e2[idx[i]] = k
            d[tuple(e2)] = target_ring.field.of(c)
        return Poly(target_ring, d)

    def homogeneous_parts(self):
        """dict degree -> homogeneous Poly."""
        parts = {}
        for e, c in self.terms.items():
            parts.setdefault(sum(e), {})[e] = c
        return {d: Poly(self.ring, t) for d, t in sorted(parts.items())}

    # -- printing -------------------------------------------------------------
    def __repr__(self):
        return self.format()

    def format(self):
        if not self.terms:
            return "0"
        key = self.ring.order.key
        fld = self.ring.field
        parts = []
        for e in sorted(self.terms, key=key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                "%s^%d" % (v, k) if k > 1 else v
                for v, k in zip(self.ring.vars, e)
                if k
            )
            cs = fld.format(c)
            if mono:
                body = mono if cs == "1" else ("-" + mono if cs == "-1" else "%s*%s" % (cs, mono))
            else:
                body = cs
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


class Ideal:
    """Generators in a common ring, with a cached Groebner basis."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring, gens):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.ring != ring:
                raise FieldMismatch("generator outside the ideal's ring")
        self.ring = ring
        self.gens = gens
        self._gb = {}

    def cache_basis(self, order, basis):
        self._gb[order] = basis

    def cached_basis(self, order):
        return self._gb.get(order)

    def __repr__(self):
        return "Ideal(%d gens in %r)" % (len(self.gens), self.ring)


# stays apart from Poly.__mul__: moving that product here measured 6.1 % slower on elimination
# (CHANGES.md, "Groebner bases from their invariants")
def _raw_product(f, g, top):
    """The product of two {exponent: raw scalar} dicts without its terms of degree above top, unreduced."""
    out = {}
    get = out.get
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            if sum(e) <= top:
                out[e] = get(e, 0) + c1 * c2
    return out


def _reduced(d, k):
    """The nonzero terms of an unreduced {exponent: raw scalar} dict, reduced, still raw."""
    return {e: c for e, c in zip(d, k.reduce_all(list(d.values()))) if c}


def _from_raw(ring, d):
    """The Poly in ring whose terms an unreduced {exponent: raw scalar} dict over its field's kernel holds."""
    k = ring.field.kernel
    d = _reduced(d, k)
    return Poly(ring, dict(zip(d, k.wrap(list(d.values())))))


def linear_combinations(polys, rows):
    """[sum_i polys[i] * rows[i][j] for each column j]; polys must not be empty.

    Runs on the field's kernel, like `Poly.substitute`.
    """
    ring = polys[0].ring
    field = ring.field
    k = field.kernel
    raw = [list(zip(g.terms, k.unwrap(g.terms.values()))) for g in polys]
    out = []
    for col in zip(*rows):
        acc = {}
        for terms, c in zip(raw, k.unwrap(map(field.of, col))):
            if c:
                for e, v in terms:
                    acc[e] = acc.get(e, 0) + c * v
        out.append(_from_raw(ring, acc))
    return out


def normalized_generators(polys):
    """The nonconstant polys made monic, without repeats, by (total degree, lead in the ring order)."""
    out = list(dict.fromkeys(g.monic() for g in polys if not g.is_constant()))
    out.sort(key=lambda g: (g.total_degree(), g.ring.order.key(g.lead()[0])))
    return out


def monomial_divides(a, b):
    return all(map(le, a, b))


def standard_ring(field, n, order=DEGREVLEX, prefix="x"):
    return PolyRing(field, tuple("%s%d" % (prefix, i) for i in range(n)), order)
