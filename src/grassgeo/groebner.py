"""Buchberger's algorithm, normal forms, and elimination ideals.

Reduced Groebner bases with normal-pair selection and the coprime /
chain criteria, guarded by a configurable reduction-step budget.  No
F4/F5: the intended inputs are desk-scale (few variables, low degree).
Everything is deterministic: pair selection and tie-breaking use the
ring's monomial order only.
"""

from __future__ import annotations

from .errors import BudgetExceeded, FieldMismatch
from .poly import (
    BlockOrder,
    Ideal,
    Poly,
    PolyRing,
    monomial_divides,
    monomial_lcm,
    monomial_sub,
)

DEFAULT_BUDGET = 400_000


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self, k=1):
        self.left -= k
        if self.left < 0:
            raise BudgetExceeded("Groebner reduction budget exceeded")


def _reduce_full(p: Poly, basis, budget: _Budget) -> Poly:
    """Full normal form of p modulo the (monic) basis."""
    ring = p.ring
    key = ring.order.key
    work = dict(p.terms)
    rem = {}
    leads = [(g.lead()[0], g) for g in basis]
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        hit = None
        for le, g in leads:
            if monomial_divides(le, e):
                hit = (le, g)
                break
        if hit is None:
            rem[e] = c
            continue
        budget.spend()
        le, g = hit
        shift = monomial_sub(e, le)
        for ge, gc in g.terms.items():
            if ge == le:
                continue
            te = tuple(a + b for a, b in zip(ge, shift))
            s = work.get(te)
            s = -(c * gc) if s is None else s - c * gc
            if s:
                work[te] = s
            elif te in work:
                del work[te]
    return Poly(ring, rem)


def _spoly(f: Poly, g: Poly) -> Poly:
    ring = f.ring
    ef, cf = f.lead()
    eg, cg = g.lead()
    l = monomial_lcm(ef, eg)
    mf = ring.monomial(monomial_sub(l, ef), ring.field.one / cf)
    mg = ring.monomial(monomial_sub(l, eg), ring.field.one / cg)
    return mf * f - mg * g


def buchberger(gens, budget=DEFAULT_BUDGET):
    """Groebner basis (monic, interreduced) of the given generators."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise FieldMismatch("mixed rings in Groebner input")
    bud = _Budget(budget)
    key = ring.order.key

    basis = []
    for g in sorted(gens, key=lambda q: key(q.lead()[0])):
        r = _reduce_full(g, basis, bud)
        if r:
            basis.append(r.monic())

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    done = set()
    while pairs:
        # normal selection: smallest lcm in the monomial order
        best = min(
            pairs,
            key=lambda ij: key(
                monomial_lcm(basis[ij[0]].lead()[0], basis[ij[1]].lead()[0])
            )
            + ij,
        )
        pairs.discard(best)
        i, j = best
        done.add(best)
        ei, ej = basis[i].lead()[0], basis[j].lead()[0]
        l = monomial_lcm(ei, ej)
        # coprime criterion
        if all(a + b == c for a, b, c in zip(ei, ej, l)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if monomial_divides(basis[k].lead()[0], l):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        r = _reduce_full(_spoly(basis[i], basis[j]), basis, bud)
        if r:
            r = r.monic()
            new = len(basis)
            basis.append(r)
            for k in range(new):
                pairs.add((k, new))
    return _autoreduce(basis, bud)


def _autoreduce(basis, bud):
    """Interreduce to the unique reduced basis; sort by (degree, order)."""
    ring = basis[0].ring if basis else None
    changed = True
    basis = list(basis)
    while changed:
        changed = False
        out = []
        for i, g in enumerate(basis):
            others = out + basis[i + 1 :]
            r = _reduce_full(g, others, bud)
            if r:
                r = r.monic()
                out.append(r)
            if r != g:
                changed = True
        basis = out
    key = ring.order.key if ring else None
    basis.sort(key=lambda g: (sum(g.lead()[0]), key(g.lead()[0])))
    return basis


def groebner(ideal: Ideal, order=None) -> Ideal:
    """Reduced Groebner basis of the ideal as a new Ideal (cached)."""
    ring = ideal.ring if order is None else ideal.ring.with_order(order)
    cached = ideal.cached_basis(ring.order)
    if cached is not None:
        return cached
    gens = [g if g.ring == ring else Poly(ring, dict(g.terms)) for g in ideal.gens]
    gb = buchberger(gens)
    out = Ideal(ring, gb)
    out.cache_basis(ring.order, out)
    ideal.cache_basis(ring.order, out)
    return out


def normal_form(p: Poly, ideal: Ideal) -> Poly:
    """Remainder of p modulo the ideal's Groebner basis; 0 iff p is a member."""
    gb = groebner(ideal, order=ideal.ring.order)
    q = p if p.ring == gb.ring else Poly(gb.ring, dict(p.terms))
    if q.ring != gb.ring:
        raise FieldMismatch("polynomial not in the ideal's ring")
    r = _reduce_full(q, list(gb.gens), _Budget(DEFAULT_BUDGET))
    return r if p.ring == r.ring else Poly(p.ring, dict(r.terms))


def eliminate(ideal: Ideal, keep_vars) -> Ideal:
    """Elimination ideal in the subring of keep_vars.

    Uses a block order with the eliminated variables in the leading
    block; generators of the result are the basis elements supported on
    keep_vars, rewritten into the smaller ring.
    """
    ring = ideal.ring
    keep = list(keep_vars)
    for v in keep:
        if v not in ring._var_index:
            raise ValueError("unknown variable %r" % v)
    drop = [v for v in ring.vars if v not in keep]
    reordered = PolyRing(ring.field, tuple(drop) + tuple(k for k in ring.vars if k in keep), BlockOrder(len(drop)))
    moved = [g.map_to(reordered) for g in ideal.gens]
    gb = buchberger(moved)
    kept_ring = PolyRing(ring.field, tuple(v for v in ring.vars if v in keep), ring.order)
    ndrop = len(drop)
    out = []
    for g in gb:
        if all(all(x == 0 for x in e[:ndrop]) for e in g.terms):
            out.append(g.map_to(kept_ring))
    return Ideal(kept_ring, out)
