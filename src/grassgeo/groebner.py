"""Buchberger's algorithm, normal forms, and elimination ideals.

Reduced Groebner bases by Buchberger's algorithm.  Pending S-pairs sit
in a heap, and the one with the smallest lcm in the ring's order (ties
broken by the pair's indices) is reduced next.  Reduction pops terms
from a heap, largest first.  When a basis element is added, the
Gebauer-Moeller criteria (Gebauer & Moeller 1988, "On an installation
of Buchberger's algorithm") decide which new pairs to keep and which
pending pairs to drop.  No F4/F5: the intended inputs are desk-scale
(few variables, low degree).  Everything is deterministic: pair
selection and tie-breaking use the ring's monomial order only.

The basis keeps two invariants.  Every element is monic, so an
S-polynomial needs no inverse.  Every element is fully reduced by the
earlier ones before it is added, so no added lead is divisible by an
earlier lead.  Hence interreduction takes one pass: it drops each
element whose lead another lead divides and reduces each survivor once
by the other survivors.

A budget bounds the work of each call, counted in term operations: each
reduction step costs the number of terms of the basis element it
subtracts, and each S-pair taken from the heap costs one.  Running out
raises `BudgetExceeded` with the amount spent and the limit.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add

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

# Term operations per call.  The largest call of the test suite and of
# the benchmark workloads spends under 2 000, and the known runaway bases
# (the Chow levels of the rational normal quartic and of the Segre 2x4)
# exhaust this in a few seconds.
DEFAULT_BUDGET = 200_000


class _Budget:
    __slots__ = ("limit", "left")

    def __init__(self, n):
        self.limit = n
        self.left = n

    def spend(self, k=1):
        self.left -= k
        if self.left < 0:
            raise BudgetExceeded(
                "Groebner budget exceeded: spent %d of %d term operations"
                % (self.limit - self.left, self.limit)
            )


def _reduce_full(p: Poly, basis, budget: _Budget) -> Poly:
    """Full normal form of p modulo the (monic) basis.

    Terms wait in a heap of `desc_key`s, so the largest is popped next.
    A term that cancels stays in the heap and is skipped when popped; one
    that comes back is pushed again, and its older entry finds nothing.
    """
    dkey = p.ring.order.desc_key
    work = dict(p.terms)
    heap = [(dkey(e), e) for e in work]
    heapify(heap)
    rem = {}
    leads = [(g.lead()[0], g) for g in basis]
    while heap:
        e = heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue
        for le, g in leads:
            if monomial_divides(le, e):
                break
        else:
            rem[e] = c
            continue
        budget.spend(len(g.terms))
        shift = monomial_sub(e, le)
        for ge, gc in g.terms.items():
            if ge == le:
                continue
            te = tuple(map(add, ge, shift))
            s = work.get(te)
            if s is None:
                work[te] = -(c * gc)
                heappush(heap, (dkey(te), te))
            else:
                s = s - c * gc
                if s:
                    work[te] = s
                else:
                    del work[te]
    return Poly(p.ring, rem)


def _spoly(f: Poly, g: Poly) -> Poly:
    """x^(l - lead f)*f - x^(l - lead g)*g for l = lcm(lead f, lead g); f and g are monic."""
    ring = f.ring
    ef, eg = f.lead()[0], g.lead()[0]
    l = monomial_lcm(ef, eg)
    return ring.monomial(monomial_sub(l, ef)) * f - ring.monomial(monomial_sub(l, eg)) * g


def _coprime(a, b):
    return not any(x and y for x, y in zip(a, b))


def _update(leads, live, heap, key):
    """Gebauer-Moeller update after appending a basis element with lead leads[-1].

    `live` maps each pending pair (i, j) to its lcm; `heap` orders the
    pairs by key(lcm) + (i, j).  Old pairs that the new lead makes
    redundant (criterion B) leave `live` and are skipped when popped.
    Of the new pairs, those whose lcm is a proper multiple of another new
    pair's lcm go (M), a class of equal lcms goes whole when one of its
    pairs has coprime leads (product criterion) and keeps one pair
    otherwise (F).
    """
    new = len(leads) - 1
    h = leads[new]
    for (i, j), l in list(live.items()):
        if (
            monomial_divides(h, l)
            and monomial_lcm(leads[i], h) != l
            and monomial_lcm(leads[j], h) != l
        ):
            del live[i, j]
    classes = {}
    for k in range(new):
        classes.setdefault(monomial_lcm(leads[k], h), []).append(k)
    # a proper divisor has a lower degree, and divisibility is transitive,
    # so M only needs the lcms already found minimal
    minimal = []
    for l in sorted(classes, key=sum):
        if any(monomial_divides(m, l) for m in minimal):
            continue
        minimal.append(l)
        ks = classes[l]
        if not any(_coprime(leads[k], h) for k in ks):
            live[ks[0], new] = l
            heappush(heap, key(l) + (ks[0], new))


def buchberger(gens, budget=DEFAULT_BUDGET):
    """Groebner basis (monic, interreduced) of the given generators.

    Normal selection: the pending pair with the smallest lcm in the
    ring's order is reduced next, ties broken by its indices.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise FieldMismatch("mixed rings in Groebner input")
    bud = _Budget(budget)
    key = ring.order.key

    basis, leads, live, heap = [], [], {}, []

    def insert(r):
        r = r.monic()
        basis.append(r)
        leads.append(r.lead()[0])
        _update(leads, live, heap, key)

    for g in sorted(gens, key=lambda q: key(q.lead()[0])):
        r = _reduce_full(g, basis, bud)
        if r:
            insert(r)
    while heap:
        bud.spend()
        i, j = heappop(heap)[-2:]
        if live.pop((i, j), None) is None:
            continue
        r = _reduce_full(_spoly(basis[i], basis[j]), basis, bud)
        if r:
            insert(r)
    return _autoreduce(basis, bud)


def _autoreduce(basis, bud):
    """The reduced basis from `buchberger`'s basis in one pass, sorted by (degree, order).

    No other lead divides a survivor's lead, so reducing a survivor once
    by the others keeps its lead and leaves a standard tail.
    """
    leads = [g.lead()[0] for g in basis]
    keep = [g for g, e in zip(basis, leads) if not any(d != e and monomial_divides(d, e) for d in leads)]
    out = [_reduce_full(g, keep[:i] + keep[i + 1 :], bud) for i, g in enumerate(keep)]
    key = basis[0].ring.order.key
    out.sort(key=lambda g: (sum(g.lead()[0]), key(g.lead()[0])))
    return out


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
    if p.ring != ideal.ring:
        raise FieldMismatch("polynomial not in the ideal's ring")
    return _reduce_full(p, list(groebner(ideal).gens), _Budget(DEFAULT_BUDGET))


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
