"""Higher associated varieties: planes meeting a variety non-transversely.

A sample of the level-ell family is an ell-plane L through a smooth
point x of X inside a tangent hyperplane H = Z(h).  Conormal spaces
come in two closed forms, both read off data at the sample: below
codim X every map kills (T+L)/L and sends the quotient into the span
of x; from codim X on the maps are h (x) w for w in L and in the cone
over the contact locus of H, the kernel on the tangent space of the
second fundamental form in the direction h (Griffiths-Harris).
Tangent spaces are produced independently by differentiating the
(x, H, L) incidence construction with first-order jets and pushing
along the row-space chart.  Chow/Hurwitz forms are computed by
eliminating the parameters from Pluecker-linear incidence equations;
polar degrees read deg X and the second fundamental form instead.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .errors import InvalidInput, NonGeneralConfiguration, SamplingError, Unsupported
from .grassmann import (
    CONORMAL,
    TANGENT,
    AdaptedBasis,
    HomSpace,
    Subspace,
    adapted_basis,
    hyperplane_subspace,
    pluecker_relations,
    pluecker_ring,
    pluecker_var_name,
    point_subspace,
    stiefel_differential,
    _sorted_index_sign,
)
from .groebner import eliminate, groebner, normal_form
from .jets import JetRing
from .linalg import Matrix
from .poly import DEGREVLEX, Ideal, PolyRing, normalized_generators
from .projvar import ConormalWitness, ProjVariety, dual_variety, sample_smooth_point
from .rng import Stream

SAMPLE_RETRIES = 60
RANGE_SAMPLES = 3  # smooth points read for the dual dimension, which keeps the largest reading


class WitnessConfig(namedtuple("WitnessConfig", (
    "theta",
    "h_coeffs",
    "l_coeffs",  # ell rows of coefficients over the hyperplane basis
))):
    """Seeded free data behind one (x, H, L) configuration."""

    __slots__ = ()


class AssociatedSample(namedtuple("AssociatedSample", (
    "ell",
    "subspace",  # L
    "witness",  # ConormalWitness (x, H)
    "config",  # the WitnessConfig it was built from
    "tangent_at_x",
    "jacobian",  # at x, one row per generator
))):
    __slots__ = ()


def _build_configuration(v: ProjVariety, ell, ring, cfg: WitnessConfig):
    """Evaluate the configuration over a field or jet ring.

    Returns (x, Jacobian at x, tangent rows, h, L rows).
    Raises NonGeneralConfiguration when ranks degenerate.
    """
    _, coords = v.parametrization
    theta = [ring.of(c) for c in cfg.theta]
    x = tuple(c.evaluate(theta) for c in coords)
    if not any(x):
        raise NonGeneralConfiguration("parametrization hit the base locus")
    jacobian = v.jacobian_at(x, ring)
    tangent = jacobian.nullspace()
    if tangent.nrows != v.dimension() + 1:
        raise NonGeneralConfiguration("tangent rank drop at sample")
    normals = tangent.nullspace()
    h = normals.apply_row([ring.of(c) for c in cfg.h_coeffs])
    if not any(h):
        raise NonGeneralConfiguration("degenerate tangent hyperplane choice")
    hbasis = Matrix(ring, [h]).nullspace()
    l_rows = [list(x)]
    for row in cfg.l_coeffs:
        l_rows.append(list(hbasis.apply_row([ring.of(c) for c in row])))
    lmat = Matrix(ring, l_rows)
    return x, jacobian, tangent, h, lmat


def _draw_configuration(v: ProjVariety, ell, s: Stream) -> WitnessConfig:
    """The free data of one draw from the stream s."""
    field, n = v.field, v.n
    pring, _ = v.parametrization
    theta = tuple(field.of(c) for c in s.vector(field, pring.nvars, 10))
    h_coeffs = tuple(field.of(c) for c in s.vector(field, n - v.dimension(), 10))
    l_coeffs = tuple(tuple(field.of(c) for c in s.vector(field, n, 10)) for _ in range(ell))
    return WitnessConfig(theta, h_coeffs, l_coeffs)


def sample_associated(v: ProjVariety, ell, seed) -> AssociatedSample:
    """Seeded L = span(x, ell directions inside H); invariants verified."""
    n = v.n
    if not (0 <= ell <= n - 1):
        raise InvalidInput("need 0 <= ell <= n-1")
    if v.parametrization is None:
        raise Unsupported("associated sampling needs a parametrized variety")
    field = v.field
    stream = Stream(seed, "associated", ell)
    for k in range(SAMPLE_RETRIES):
        cfg = _draw_configuration(v, ell, stream.spawn(k))
        try:
            x, jacobian, tangent, h, lmat = _build_configuration(v, ell, field, cfg)
        except NonGeneralConfiguration:
            continue
        if lmat.rank() != ell + 1:
            continue
        # L must meet the tangent space only in x: a special L spans less with it
        if tangent.stack(lmat).rank() != min(v.dimension() + 1 + ell, n):
            continue
        sub = Subspace(field, n, lmat, check=False)
        hsub = hyperplane_subspace(field, h)
        witness = ConormalWitness(
            x=point_subspace(field, x),
            h=hsub,
            point=tuple(x),
            normal=tuple(h),
        )
        tsub = Subspace(field, n, tangent, check=False)
        assert hsub.contains(tsub) and hsub.contains(sub) and sub.contains_point(x)
        return AssociatedSample(ell, sub, witness, cfg, tsub, jacobian)
    raise SamplingError("no general associated sample found")


def _rank_one_conormals(adapted: AdaptedBasis, kernel_quotient_rows: Matrix, image_point):
    """Conormal maps c (x) x_A with the quotient classes whose coordinates are these rows in the kernel."""
    a = adapted
    x_a = a.subspace_coords(Matrix._of(a.field, (tuple(image_point),), a.n + 1)).rows[0]
    mats = []
    for c in kernel_quotient_rows.nullspace().rows:
        mats.append(Matrix._of(a.field, tuple(tuple(ci * xj for xj in x_a) for ci in c), a.ell + 1))
    return HomSpace(CONORMAL, a, mats)


def associated_conormal(sample: AssociatedSample, v: ProjVariety) -> HomSpace:
    """Conormal space of the level-ell family at the sampled plane, in closed form.

    Below codim X (ell <= codim-1) every map kills (T+L)/L and maps into
    the span of x: dimension n - ell - dim X, all ranks <= 1.

    From codim X on, with H = Z(h) and h = lambda . J(x), let
    Q = sum_i lambda_i Hess g_i(x) and let Lambda be the w in T with
    Q(w, T) = 0: the cone over the contact locus of H, which contains x
    by Euler's formula.  The maps are h (x) w for w in L and Lambda,
    each killing H/L.  Through the dual dimension L meets Lambda in x
    alone and the space is spanned by h (x) x; above it the dimension is
    ell + 1 - dim X^dual.  Everything is read off the sample: its
    Jacobian, its tangent space and its normal h, which vanishes on L,
    so h's entries at the complement columns are the quotient functional.
    """
    a = adapted_basis(sample.subspace)
    if sample.ell <= v.codim() - 1:
        return _rank_one_conormals(a, a.quotient_coords(sample.tangent_at_x.basis), sample.witness.point)
    jacobian, h = sample.jacobian, sample.witness.normal
    lam = jacobian.transpose().solve(h)  # h is in J's row space: the tangent space is J's kernel
    form = sample.tangent_at_x.basis @ v.hessian_at(sample.witness.point, lam)
    on_l = jacobian.stack(form) @ sample.subspace.basis.transpose()  # its kernel: L meet Lambda
    hbar = tuple(h[col] for col in a.complement_columns)
    k = a.ell + 1
    mats = [Matrix._of(a.field, tuple(tuple(hc * wj for wj in w) for hc in hbar), k) for w in on_l.nullspace().rows]
    return HomSpace(CONORMAL, a, mats)


def associated_tangent_pushforward(sample: AssociatedSample, v: ProjVariety, seed=0) -> HomSpace:
    """Span of tangent vectors from jet probes of the (x, H, L) chart.

    Each probe perturbs all free data (parameters, hyperplane choice,
    plane choice) to first order and pushes the moving row matrix along
    the row-space chart.  Probing stops when the span is stable for
    three extra probes; exhausting the budget first raises.
    """
    field = v.field
    jr = JetRing(field)
    a = adapted_basis(sample.subspace)
    cfg = sample.config
    pring, _ = v.parametrization
    total = (sample.ell + 1) * (v.n - sample.ell)
    stream = Stream(seed, "pushforward", sample.ell)
    mats = []
    rank = 0
    stable = 0
    for k in range(4 * total + 8):
        s = stream.spawn(k)
        theta = tuple(
            jr.variable(c, d) for c, d in zip(cfg.theta, s.vector(field, len(cfg.theta)))
        )
        h_coeffs = tuple(
            jr.variable(c, d) for c, d in zip(cfg.h_coeffs, s.vector(field, len(cfg.h_coeffs)))
        )
        l_coeffs = tuple(
            tuple(jr.variable(c, d) for c, d in zip(row, s.vector(field, len(row))))
            for row in cfg.l_coeffs
        )
        jcfg = WitnessConfig(theta, h_coeffs, l_coeffs)
        try:
            lmat = _build_configuration(v, sample.ell, jr, jcfg)[-1]
        except NonGeneralConfiguration:
            continue
        values = Matrix(field, [[e.a for e in row] for row in lmat.rows])
        if values != sample.subspace.basis:
            raise NonGeneralConfiguration("jet replay drifted from the base sample")
        slopes = Matrix(field, [[e.b for e in row] for row in lmat.rows])
        mats.append(stiefel_differential(a, slopes).matrix)
        space = HomSpace(TANGENT, a, mats)
        if space.dim == rank:
            stable += 1
            if stable >= 3:
                return space
        else:
            rank = space.dim
            stable = 0
        mats = list(space.mats)
    raise NonGeneralConfiguration("probe budget too small: span did not stabilize")


def point_in_plane_contractions(big_ring, x_polys, ell, n, pvar_of):
    """x in L as Pluecker-linear equations: one per (ell+2)-subset."""
    out = []
    for j_set in combinations(range(n + 1), ell + 2):
        acc = big_ring.zero()
        for pos, jj in enumerate(j_set):
            rest = tuple(t for t in j_set if t != jj)
            term = x_polys[jj] * pvar_of[rest]
            acc = acc + term if pos % 2 == 0 else acc - term
        if acc:
            out.append(acc)
    return out


def plane_in_hyperplane_contractions(big_ring, w_polys, ell, n, pvar_of):
    """L inside Z(w) as Pluecker-linear equations: one per ell-subset."""
    out = []
    for i_set in combinations(range(n + 1), ell):
        acc = big_ring.zero()
        for j in range(n + 1):
            if j in i_set:
                continue
            sign, sorted_idx = _sorted_index_sign(i_set + (j,))
            if sign == 0:
                continue
            term = w_polys[j] * pvar_of[sorted_idx]
            acc = acc + term if sign > 0 else acc - term
        if acc:
            out.append(acc)
    return out


def chow_hurwitz_ideal(v: ProjVariety, ell) -> Ideal:
    """Chow (ell = codim-1) or Hurwitz (ell = codim) ideal in Pluecker
    coordinates, reduced modulo the Pluecker relations.

    Without a parametrization the cone's vertex x = 0 lies on every
    plane, so the eliminant would be zero.  Tangency is encoded with the
    gradient hyperplane for hypersurfaces and with tangent-line
    containment for curves; other shapes are out of scope.
    """
    n = v.n
    c = v.codim()
    if ell not in (c - 1, c) or not (0 <= ell <= n - 1):
        raise Unsupported("supported levels are codim-1 (Chow) and codim (Hurwitz)")
    if v.parametrization is None:
        raise Unsupported("associated forms are eliminated from a parametrization")
    field = v.field
    pring = pluecker_ring(field, ell, n)
    pnames = pring.vars
    hurwitz = ell == c

    par, coords = v.parametrization
    big = PolyRing(field, par.vars + pnames, DEGREVLEX)
    x_polys = [g.map_to(big) for g in coords]

    pvar_of = {}
    for idxs in combinations(range(n + 1), ell + 1):
        pvar_of[idxs] = big.var(pluecker_var_name(idxs))

    gens = point_in_plane_contractions(big, x_polys, ell, n, pvar_of)
    if hurwitz:
        if v.dimension() == n - 1:
            w_polys = [d.substitute(big, x_polys) for d in v.gradients[0]]
            gens += plane_in_hyperplane_contractions(big, w_polys, ell, n, pvar_of)
        elif v.dimension() == 1:
            # tangent line = span(x(t), x'(t)) inside L
            dx = [g.diff(0).map_to(big) for g in coords]
            gens += point_in_plane_contractions(big, dx, ell, n, pvar_of)
        else:
            raise Unsupported("tangency encoding needs a hypersurface or a parametrized curve")

    elim = eliminate(Ideal(big, gens), pnames)
    moved = [g.map_to(pring) for g in elim.gens]
    rel = pluecker_relations(field, ell, n)
    if rel.gens:
        rel_gb = groebner(rel)
        moved = [normal_form(g, rel_gb) for g in moved]
    return Ideal(pring, normalized_generators(moved))


def hypersurface_range(v: ProjVariety):
    """(codim-1, dim of the dual variety): the levels with positive polar degree.

    dim X^dual = n - 1 - dim X + rank T Q T^t (Griffiths-Harris), T the
    tangent basis at a smooth point x, Q = sum_i lambda_i Hess g_i(x)
    for seeded weights.  Special points read low, so the largest of
    RANGE_SAMPLES readings at parametrized points is kept; line-scan
    points can all be special, and in characteristic 2 all points are.
    The seeds are fixed, so the range is read once per variety and kept
    on it (`v.polar_range`).
    """
    if v.polar_range is not None:
        return v.polar_range
    if v.parametrization is None:
        raise Unsupported("the dual dimension is read at parametrized points only")
    field = v.field
    if field.kind == "fp" and field.p == 2:
        raise Unsupported("the dual dimension is not read in characteristic 2")
    rank = 0
    for k in range(RANGE_SAMPLES):
        stream = Stream(k, "dual-dimension")
        x, tangent = sample_smooth_point(v, stream.spawn("point").seed)
        weights = stream.spawn("weights").vector(field, len(v.gens), 10)
        t = tangent.basis
        rank = max(rank, (t @ v.hessian_at(x, weights) @ t.transpose()).rank())
    v.polar_range = (v.codim() - 1, v.n - 1 - v.dimension() + rank)
    return v.polar_range


def polar_degree(v: ProjVariety, ell):
    """Degree of the level-ell associated form, deg X at the Chow level
    (GKZ ch. 3); 0 outside the hypersurface range."""
    lo, hi = hypersurface_range(v)
    if not (lo <= ell <= hi):
        return 0
    c = v.codim()
    if ell == c - 1:
        return v.degree()
    if ell == c:
        ideal = chow_hurwitz_ideal(v, ell)
        if not ideal.gens:
            raise NonGeneralConfiguration("empty associated ideal")
        return ideal.gens[0].total_degree()
    if ell == v.n - 1:
        return dual_variety(v).degree()
    raise Unsupported("polar degree at interior levels beyond codim is out of scope")

