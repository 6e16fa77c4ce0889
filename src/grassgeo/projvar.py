"""Projective varieties as homogeneous ideals.

A variety differentiates its generators once, when it is made, and
keeps the gradients and which of them are constant; the Hessians it
derives on first use.  One Jacobian evaluates the gradients over the
field or over its jets; it serves the one smoothness test (the tangent
space, or None at a singular point) and the jet probes of
`associated`.  A weighted sum of Hessians at a point gives the second
fundamental form behind `associated`.  Also: exact sampling of smooth
points with their tangent spaces (parametrizations over any field,
roots of random line restrictions over prime fields for
hypersurfaces), the tangent-hyperplane witnesses that `associated`
builds, and dual varieties of complete intersections by Lagrange
elimination.
"""

from __future__ import annotations

from collections import namedtuple

from . import univariate
from .errors import InvalidInput, SamplingError, Unsupported
from .grassmann import Subspace
from .groebner import eliminate
from .hilbert import hilbert_dim_degree
from .linalg import Matrix
from .poly import DEGREVLEX, Ideal, PolyRing, normalized_generators, standard_ring
from .rng import Stream

SAMPLE_RETRIES = 200


class ProjVariety:
    """Z(gens) in P^n, optionally with a polynomial parametrization."""

    def __init__(self, ring, gens, parametrization=None):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.ring != ring:
                raise InvalidInput("generator outside the ambient ring")
            if not g.is_homogeneous():
                raise InvalidInput("generators must be homogeneous")
        self.ring = ring
        self.gens = gens
        self.gradients = tuple(g.gradient() for g in gens)
        # constant partials evaluate to field scalars, which a Jacobian over jets lifts
        self._constant = tuple(tuple(d.is_constant() for d in grad) for grad in self.gradients)
        self._hessians = None
        self.ideal = Ideal(ring, gens)
        self.parametrization = parametrization
        if parametrization is not None:
            pring, coords = parametrization
            if len(coords) != ring.nvars:
                raise InvalidInput("parametrization needs %d coordinates" % ring.nvars)
            for g in gens:
                if g.substitute(pring, list(coords)):
                    raise InvalidInput("parametrization does not satisfy the ideal")
        self._dim_deg = None
        self._dual = None
        self.polar_range = None  # kept by associated.hypersurface_range

    @property
    def n(self):
        return self.ring.nvars - 1

    @property
    def field(self):
        return self.ring.field

    def dim_degree(self):
        if self._dim_deg is None:
            if len(self.gens) == 1:
                # hypersurface shortcut
                self._dim_deg = (self.n - 1, self.gens[0].total_degree())
            else:
                self._dim_deg = hilbert_dim_degree(self.ideal)
        return self._dim_deg

    def dimension(self):
        return self.dim_degree()[0]

    def degree(self):
        return self.dim_degree()[1]

    def codim(self):
        return self.n - self.dimension()

    def contains_point(self, x) -> bool:
        pt = [self.field.of(v) for v in x]
        return all(not g.evaluate(pt) for g in self.gens)

    def jacobian_at(self, x, ring=None):
        """The gradients at x, one row per generator, over the field or `ring` (its jets)."""
        ring = self.field if ring is None else ring
        pt = [ring.of(v) for v in x]
        rows = tuple(
            tuple(ring.of(d.evaluate(pt)) if c else d.evaluate(pt) for d, c in zip(grad, constant))
            for grad, constant in zip(self.gradients, self._constant)
        )
        return Matrix._of(ring, rows, self.ring.nvars)

    @property
    def hessians(self):
        """Per generator g, its nonzero second partials (j, k, d_j d_k g) with j <= k, derived on first use."""
        if self._hessians is None:
            self._hessians = tuple(
                tuple((j, k, d) for j, dj in enumerate(grad) for k, d in enumerate(dj.gradient()) if k >= j and d)
                for grad in self.gradients
            )
        return self._hessians

    def hessian_at(self, x, weights):
        """sum_i weights[i] * Hess g_i(x), the symmetric (n+1)-square matrix, over the field."""
        field, size = self.field, self.ring.nvars
        pt = [field.of(v) for v in x]
        q = [[field.zero] * size for _ in range(size)]
        for w, entries in zip(weights, self.hessians):
            if w:
                for j, k, d in entries:
                    q[j][k] = q[j][k] + w * d.evaluate(pt)
        rows = tuple(tuple(q[j][k] if j <= k else q[k][j] for k in range(size)) for j in range(size))
        return Matrix._of(field, rows, size)

    def smooth_tangent_space(self, x):
        """The embedded tangent space at x, a point of the variety (unchecked), from one Jacobian;
        None where x is singular."""
        ker = self.jacobian_at(x).nullspace()
        # smooth <=> Jacobian rank = codim <=> kernel dimension = dim + 1
        return Subspace(self.field, self.n, ker, check=False) if ker.nrows == self.dimension() + 1 else None

    def parametrize(self, theta):
        pring, coords = self.parametrization
        pt = [pring.field.of(v) for v in theta]
        return tuple(c.evaluate(pt) for c in coords)

    def __repr__(self):
        return "ProjVariety(n=%d, %d gens)" % (self.n, len(self.gens))


class ConormalWitness(namedtuple("ConormalWitness", (
    "x",  # Subspace
    "h",  # Subspace
    "point",  # x's coordinates
    "normal",  # H's coefficients
))):
    """A smooth point x together with a tangent hyperplane H."""

    __slots__ = ()


def sample_smooth_point(v: ProjVariety, seed, height=12):
    """(x, embedded tangent space at x) for a verified smooth point x, deterministic in the seed.

    Parametrized varieties draw parameter values; otherwise, over a
    prime field, hypersurfaces are sliced with random lines and the
    first smooth point among the roots of the restriction, in
    ascending order of the line parameter, is taken.  Other varieties
    raise `Unsupported`: no seed can help them.
    """
    stream = Stream(seed, "smooth-point")
    if v.parametrization is not None:
        pring, _ = v.parametrization
        for k in range(SAMPLE_RETRIES):
            s = stream.spawn("try%d" % k)
            theta = [pring.field.of(x) for x in s.vector(pring.field, pring.nvars, height)]
            x = v.parametrize(theta)
            if all(not c for c in x):
                continue
            tangent = v.smooth_tangent_space(x)
            if tangent is not None:
                return x, tangent
        raise SamplingError("no smooth point found within budget")
    if v.field.kind != "fp":
        raise Unsupported("sampling needs a parametrization or a prime field")
    if len(v.gens) != 1:
        raise Unsupported("line scanning supports hypersurfaces only")
    f = v.gens[0]
    field = v.field
    for k in range(SAMPLE_RETRIES):
        s = stream.spawn("line%d" % k)
        a = [field.of(s.randrange(field.p)) for _ in range(v.n + 1)]
        b = [field.of(s.randrange(field.p)) for _ in range(v.n + 1)]
        g = univariate.restrict(f, a, b)
        # a line inside the hypersurface: every t is a root
        ts = univariate.roots(g, field) if g else map(field.of, range(field.p))
        for t in ts:
            x = tuple(ai + t * bi for ai, bi in zip(a, b))
            tangent = v.smooth_tangent_space(x) if any(x) else None
            if tangent is not None:
                return x, tangent
    raise SamplingError("no smooth point found within budget")


def dual_variety(v: ProjVariety) -> ProjVariety:
    """Projectively dual variety of a smooth complete intersection.

    Encodes y ~ sum_j lambda_j grad f_j(x) on X with a Rabinowitsch
    factor keeping the multipliers nontrivial, then eliminates the
    point, multiplier and scaling variables.  The result is cached.
    """
    if v._dual is not None:
        return v._dual
    c = v.codim()
    if len(v.gens) != c:
        raise Unsupported("dual variety implemented for complete intersections only")
    n = v.n
    field = v.field
    xs = ["x%d" % i for i in range(n + 1)]
    ls = ["l%d" % j for j in range(c)]
    ys = ["y%d" % i for i in range(n + 1)]
    big = PolyRing(field, tuple(xs + ls + ["s"] + ys), DEGREVLEX)
    xv = [big.var(nm) for nm in xs]
    lv = [big.var(nm) for nm in ls]
    sv = big.var("s")
    yv = [big.var(nm) for nm in ys]
    gens = [g.substitute(big, xv) for g in v.gens]
    for i in range(n + 1):
        expr = big.zero()
        for j, grad in enumerate(v.gradients):
            expr = expr + lv[j] * grad[i].substitute(big, xv)
        gens.append(sv * yv[i] - expr)
    mu = big.zero()
    for j in range(c):
        mu = mu + big.const(j + 1) * lv[j]
    gens.append(big.one() - sv * mu)
    elim = eliminate(Ideal(big, gens), ys)
    dual_ring = standard_ring(field, n + 1)
    images = list(dual_ring.gens())
    parts = [part for g in elim.gens for part in g.substitute(dual_ring, images).homogeneous_parts().values()]
    dual = ProjVariety(dual_ring, normalized_generators(parts))
    v._dual = dual
    return dual
