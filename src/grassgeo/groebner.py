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
element whose lead a later lead divides (no earlier one can) and
reduces each survivor once by the other survivors.

`buchberger` packs its input once and unpacks its result once (Monagan
& Pearce 2007, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors").  In between, a monomial is two Python ints,
each linear in its exponent vector e, so a shift by a monomial is two
int additions:

* E holds e_i in bits [i*S, i*S + B) with S = B + 1; the bit above each
  slot is its guard bit, and G is the mask of all guard bits.  a
  divides b iff ((b | G) - a) & G == G: no slot borrows, and a slot
  keeps its guard bit iff a_i <= b_i.  The same subtraction selects the
  slots of the lcm, and a and b have disjoint supports iff their lcm is
  a + b.  As an int, E grows with divisibility.
* K is the order's linear weight sum_i e_i w_i (`order.weights`), which
  compares exactly as `order.key` does while every exponent is below
  W = 2^B.  Term heaps hold -K, and the pair heap holds (K(lcm), i, j).

An exponent that reaches 2^B would carry into a guard bit and make K
ambiguous.  So packing checks every exponent, and every shift of an
element is checked against the element's slotwise largest exponents
before any shifted term is made; a term at the limit raises
`Unsupported`, naming the limit.  Coefficients are the raw scalars of
the field's kernel (ints mod p, Fractions), and a reduction leaves the
sums unreduced until their term is popped.

A reduction starts from two maps, K -> unreduced coefficient and K -> E,
and pushes their keys onto its term heap.  An S-pair enters it as the
two shifted tails written straight into those maps, at the K(lcm) its
pair-heap entry holds; nothing is sorted, reduced or packed first.
The basis is kept as (lead E, element) pairs, the form in which a
reduction tries its reducers, so no reduction rebuilds a list of leads.
When an element is added, its lcm with each earlier lead is computed
once and serves criterion B, the lcm classes and criteria M and F.

A budget bounds the work of each call, counted in term operations: each
reduction step costs the number of terms of the basis element it
subtracts, and each S-pair taken from the heap costs one.  Running out
raises `BudgetExceeded` with the amount spent and the limit.
"""

from __future__ import annotations

from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import islice
from operator import mul

from .errors import BudgetExceeded, FieldMismatch, Unsupported
from .poly import BlockOrder, Ideal, Poly, PolyRing

# Term operations per call.  The largest call of the test suite and of
# the benchmark workloads spends under 2 000, and the known runaway bases
# (the Chow levels of the rational normal quartic and of the Segre 2x4)
# exhaust this in a few seconds.
DEFAULT_BUDGET = 200_000

# Bits of an exponent slot: exponents up to 2^40 - 1
SLOT_BITS = 40


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


def _overflow():
    return Unsupported("Groebner exponents are limited to 2^%d - 1" % SLOT_BITS)


class _Packing:
    """Packed monomials of one ring: the slots of E, the guard mask G and the weights of K."""

    __slots__ = ("ring", "kernel", "shifts", "guard", "weights")

    def __init__(self, ring):
        n = ring.nvars
        self.ring = ring
        self.kernel = ring.field.kernel
        self.shifts = [i * (SLOT_BITS + 1) for i in range(n)]
        self.guard = sum(1 << (s + SLOT_BITS) for s in self.shifts)
        self.weights = ring.order.weights(n, 1 << SLOT_BITS)

    def divides(self, a, b):
        g = self.guard
        return ((b | g) - a) & g == g

    def lcm(self, a, b):
        g = self.guard
        sel = ((a | g) - b) & g  # the guard bits of the slots where a_i >= b_i
        m = sel - (sel >> SLOT_BITS)
        return (a & m) | (b & ~m)

    def exponents(self, e):
        m = (1 << SLOT_BITS) - 1
        return tuple((e >> s) & m for s in self.shifts)

    def key(self, e):
        return sum(map(mul, self.exponents(e), self.weights))

    def degree(self, e):
        return sum(self.exponents(e))

    def pack(self, p: Poly) -> _Packed:
        terms = []
        for e, c in zip(p.terms, self.kernel.unwrap(p.terms.values())):
            if max(e, default=0) >> SLOT_BITS:
                raise _overflow()
            packed = sum(x << s for x, s in zip(e, self.shifts))
            terms.append((sum(map(mul, e, self.weights)), packed, c))
        terms.sort(reverse=True)
        return _Packed(self, terms)

    def unpack(self, p: _Packed) -> Poly:
        cs = self.kernel.wrap([c for _, _, c in p.terms])
        return Poly(self.ring, dict(zip([self.exponents(e) for _, e, _ in p.terms], cs)))


class _Packed:
    """A polynomial on packed monomials: terms (K, E, c), K descending, c raw and nonzero."""

    __slots__ = ("packing", "terms", "_top")

    def __init__(self, packing, terms):
        self.packing = packing
        self.terms = terms
        self._top = None

    def __bool__(self):
        return bool(self.terms)

    @property
    def top(self):
        """E of the slotwise largest exponents of the terms: a shift of every term is checked at once."""
        if self._top is None:
            self._top = reduce(self.packing.lcm, [e for _, e, _ in self.terms], 0)
        return self._top

    def maps(self):
        """K -> c and K -> E of the terms, the input of `_reduce_full`."""
        return {t: c for t, _, c in self.terms}, {t: e for t, e, _ in self.terms}

    def monic(self):
        k = self.packing.kernel
        cs = k.scale([c for _, _, c in self.terms], k.inv(self.terms[0][2]))
        return _Packed(self.packing, [(t, e, c) for (t, e, _), c in zip(self.terms, cs)])


def _reduce_full(pk: _Packing, work, mono, reducers, budget: _Budget) -> _Packed:
    """Full normal form of the polynomial with terms work and mono modulo a monic basis.

    work maps K to the term's unreduced coefficient and mono maps K to its
    E; both are consumed.  reducers holds a (lead E, element) pair for
    each basis element, in the order they are tried.  Terms wait in a
    heap of -K, so the largest is popped next.  A reduction step only
    makes terms below the one it removes, so each monomial is pushed once
    and popped once; its coefficient is reduced when popped, and one that
    has cancelled is skipped.
    """
    guard = pk.guard
    norm = pk.kernel.reduce
    heap = [-t for t in work]
    heapify(heap)
    rem = []
    while heap:
        t = -heappop(heap)
        c = norm(work.pop(t))
        if not c:
            continue
        e = mono.pop(t)
        eg = e | guard
        for le, g in reducers:
            if (eg - le) & guard == guard:
                break
        else:
            rem.append((t, e, c))
            continue
        budget.spend(len(g.terms))
        de = e - le
        if (g.top + de) & guard:
            raise _overflow()
        dt = t - g.terms[0][0]
        c = -c
        for gt, ge, gc in islice(g.terms, 1, None):
            tt = gt + dt
            s = work.get(tt)
            if s is None:
                work[tt] = c * gc
                mono[tt] = ge + de
                heappush(heap, -tt)
            else:
                work[tt] = s + c * gc
    return _Packed(pk, rem)


def _spoly(f: _Packed, g: _Packed, tl):
    """x^(l - lead f)*f - x^(l - lead g)*g for l = lcm(lead f, lead g), as `_reduce_full`'s term maps.

    f and g are monic and tl is K(l), so both leads cancel: the result is
    the shifted tail of f minus the shifted tail of g, with coefficients
    left unreduced.
    """
    pk = f.packing
    (tf, ef, _), (tg, eg, _) = f.terms[0], g.terms[0]
    l = pk.lcm(ef, eg)
    sf, sg = l - ef, l - eg
    if (f.top + sf) & pk.guard or (g.top + sg) & pk.guard:
        raise _overflow()
    dtf, dtg = tl - tf, tl - tg
    work = {t + dtf: c for t, _, c in islice(f.terms, 1, None)}
    mono = {t + dtf: e + sf for t, e, _ in islice(f.terms, 1, None)}
    for t, e, c in islice(g.terms, 1, None):
        t += dtg
        s = work.get(t)
        if s is None:
            work[t] = -c
            mono[t] = e + sg
        else:
            work[t] = s - c
    return work, mono


def _update(basis, live, heap, pk):
    """Gebauer-Moeller update after appending a basis element.

    `basis` holds (lead E, element) pairs, the new one last.  `live`
    maps each pending pair (i, j) to its lcm; `heap` orders the pairs by
    (K(lcm), i, j).  Old pairs that the new lead makes redundant
    (criterion B) leave `live` and are skipped when popped.  Of the new
    pairs, those whose lcm is a proper multiple of another new pair's
    lcm go (M), a class of equal lcms goes whole when one of its pairs
    has coprime leads (product criterion) and keeps one pair otherwise
    (F).  Each lcm with the new lead is computed once and serves all
    three.
    """
    new = len(basis) - 1
    h = basis[new][0]
    lcm, guard = pk.lcm, pk.guard
    lcms = [lcm(e, h) for e, _ in islice(basis, new)]
    for (i, j), l in list(live.items()):
        if ((l | guard) - h) & guard == guard and lcms[i] != l and lcms[j] != l:
            del live[i, j]
    classes = {}
    for k, l in enumerate(lcms):
        classes.setdefault(l, []).append(k)
    # a proper divisor is a smaller int, and divisibility is transitive,
    # so M only needs the lcms already found minimal
    minimal = []
    for l in sorted(classes):
        lg = l | guard
        for m in minimal:
            if (lg - m) & guard == guard:
                break
        else:
            minimal.append(l)
            ks = classes[l]
            if not any(basis[k][0] + h == l for k in ks):  # coprime leads: the lcm is the product
                live[ks[0], new] = l
                heappush(heap, (pk.key(l), ks[0], new))


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
    pk = _Packing(ring)

    basis, live, heap = [], {}, []  # basis: (lead E, element) pairs, as `_reduce_full` tries them

    def insert(r):
        r = r.monic()
        basis.append((r.terms[0][1], r))
        _update(basis, live, heap, pk)

    for g in sorted(map(pk.pack, gens), key=lambda q: q.terms[0][0]):
        r = _reduce_full(pk, *g.maps(), basis, bud)
        if r:
            insert(r)
    while heap:
        bud.spend()
        tl, i, j = heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        r = _reduce_full(pk, *_spoly(basis[i][1], basis[j][1], tl), basis, bud)
        if r:
            insert(r)
    return [pk.unpack(g) for g in _autoreduce([g for _, g in basis], bud)]


def _autoreduce(basis, bud):
    """The reduced basis from `buchberger`'s basis in one pass, sorted by (degree, order).

    No earlier lead divides a later one, so an element goes when a later
    lead divides its lead.  No other lead divides a survivor's lead, so
    reducing a survivor once by the others keeps its lead and leaves a
    standard tail.
    """
    pk = basis[0].packing
    leads = [g.terms[0][1] for g in basis]
    keep = [(e, g) for i, (e, g) in enumerate(zip(leads, basis)) if not any(pk.divides(d, e) for d in leads[i + 1 :])]
    out = [_reduce_full(pk, *g.maps(), keep[:i] + keep[i + 1 :], bud) for i, (_, g) in enumerate(keep)]
    out.sort(key=lambda g: (pk.degree(g.terms[0][1]), g.terms[0][0]))
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
    pk = _Packing(p.ring)
    reducers = [(g.terms[0][1], g) for g in map(pk.pack, groebner(ideal).gens)]
    return pk.unpack(_reduce_full(pk, *pk.pack(p).maps(), reducers, _Budget(DEFAULT_BUDGET)))


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
