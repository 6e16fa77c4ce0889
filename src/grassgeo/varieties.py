"""Stock varieties used across tests, demos and the CLI."""

from __future__ import annotations

from itertools import combinations_with_replacement

from .poly import PolyRing, standard_ring
from .projvar import ProjVariety
from .rng import Stream


def rational_normal_curve(field, n) -> ProjVariety:
    """Degree-n rational normal curve in P^n, minors ideal + chart map t -> (1, t, ..., t^n)."""
    ring = standard_ring(field, n + 1)
    xs = ring.gens()
    gens = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            gens.append(xs[i] * xs[j + 1] - xs[i + 1] * xs[j])
    pring = PolyRing(field, ("t",))
    t = pring.var(0)
    coords = tuple(t**k for k in range(n + 1))
    return ProjVariety(ring, gens, parametrization=(pring, coords))


def twisted_cubic(field) -> ProjVariety:
    return rational_normal_curve(field, 3)


def quadric_surface(field) -> ProjVariety:
    """The smooth quadric x0*x3 - x1*x2 in P^3 with its chart map."""
    ring = standard_ring(field, 4)
    x0, x1, x2, x3 = ring.gens()
    pring = PolyRing(field, ("s", "t"))
    s, t = pring.gens()
    coords = (pring.one(), s, t, s * t)
    return ProjVariety(ring, [x0 * x3 - x1 * x2], parametrization=(pring, coords))


def segre(field, a, b) -> ProjVariety:
    """Rank-one (a x b)-matrices in P^{ab-1}; chart map by outer product."""
    ring = standard_ring(field, a * b)
    xs = ring.gens()

    def entry(i, j):
        return xs[b * i + j]

    gens = []
    for i1 in range(a):
        for i2 in range(i1 + 1, a):
            for j1 in range(b):
                for j2 in range(j1 + 1, b):
                    gens.append(entry(i1, j1) * entry(i2, j2) - entry(i1, j2) * entry(i2, j1))
    pnames = tuple("u%d" % i for i in range(1, a)) + tuple("v%d" % j for j in range(1, b))
    pring = PolyRing(field, pnames)
    u = [pring.one()] + [pring.var("u%d" % i) for i in range(1, a)]
    v = [pring.one()] + [pring.var("v%d" % j) for j in range(1, b)]
    coords = tuple(u[i] * v[j] for i in range(a) for j in range(b))
    return ProjVariety(ring, gens, parametrization=(pring, coords))


def random_hypersurface(field, n, degree, seed) -> ProjVariety:
    """Dense hypersurface of the given degree with seeded coefficients."""
    ring = standard_ring(field, n + 1)
    stream = Stream(seed, "hypersurface", n, degree)
    terms = []
    for c in combinations_with_replacement(range(n + 1), degree):
        e = [0] * (n + 1)
        for i in c:
            e[i] += 1
        terms.append((tuple(e), stream.scalar(field)))
    f = ring.from_terms(terms)
    if not f or f.total_degree() != degree:
        # vanishing leading data is astronomically unlikely; reseed deterministically
        return random_hypersurface(field, n, degree, seed + 911)
    return ProjVariety(ring, [f])
