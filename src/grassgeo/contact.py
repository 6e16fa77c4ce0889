"""Contact-line families of a hypersurface: lines with m-fold tangency.

For a line L meeting Z(f) at a smooth point p with multiplicity m, the
affine chart centered at p (framed by p and its unit completion) splits
f into graded pieces f_1 + f_2 + ...; the direction y of L in that
chart solves f_1 = ... = f_{m-1} = 0, and the cones cut out by
(f_1, ..., f_{k-1}) carry the tangent flag along L, whose members are
read from the gradients of the f_k at y.  The family's tangent space at
L is computed from the kernel of the Jacobian of the coefficient system
of f(a + t*b), pushed along the row-space chart, and its trace
annihilator gives the conormal space whose rank-one structure the
verification checks point by point.  A sampled line keeps its adapted
basis (rows p, q and a unit completion, in which its homs are written),
the tangent space drawn with p, the pieces of f in the chart at p and
the partials of f restricted to the line, which give both the flag and
the family's tangent space; f is substituted into one chart per sampled
point.
"""

from __future__ import annotations

from collections import namedtuple

from . import univariate
from .errors import CertificateNotApplicable, InvalidInput, NonGeneralConfiguration, SamplingError
from .grassmann import (
    CONORMAL,
    TANGENT,
    Hom,
    HomSpace,
    Subspace,
    adapted_basis,
    point_subspace,
    stiefel_differential,
    subspace_from_rows,
    trace_annihilator,
)
from .hilbert import hilbert_dim_degree
from .isoclass import (
    ClassificationReport,
    _affine_chart,
    affine_points_zero_dim,
    classify,
    rank_one_locus,
    segre_tangency_certificate,
)
from .linalg import Matrix
from .poly import Ideal, PolyRing, linear_combinations
from .projvar import ProjVariety, sample_smooth_point
from .rng import Stream

CONTACT_RETRIES = 120


class ContactConfig(namedtuple("ContactConfig", (
    "variety",
    "m",
    "point",  # p, the contact point
    "direction_point",  # q, a second point of the line
    "line_gradient",  # rows j < m: the t^j coefficient of grad f(p + t*q)
    "line",
    "adapted",  # the line's adapted basis, rows p, q and a unit completion: the homs at L are written in it
    "chart_parts",  # degree -> graded piece of f, for degrees below m, in the chart at p that found q
    "flag",  # [T_L C_k for k = 2..m], nested subspaces of P^n
    "tangent_at_p",
))):
    __slots__ = ()


def _chart_parts(v: ProjVariety, frame: Matrix, top):
    """Graded pieces of degree <= top of f in the affine chart x = p + sum y_i * frame_i."""
    yring = PolyRing(v.field, tuple("y%d" % i for i in range(1, v.n + 1)))
    images = linear_combinations((yring.one(),) + yring.gens(), frame.rows)
    return yring, v.gens[0].substitute(yring, images, top).homogeneous_parts()


def _gradient_along(v: ProjVariety, p, q, top):
    """Rows j < top: the t^j coefficient of grad f(p + t*q), from the partials v took when it was made."""
    zero = v.field.zero
    along = [univariate.restrict(d, p, q) for d in v.gradients[0]]
    return tuple(tuple(f[j] if j < len(f) else zero for f in along) for j in range(top))


def line_contact_order(v: ProjVariety, p, q):
    """Intersection multiplicity of span(p, q) with Z(f) at p.

    Infinite contact (line inside the hypersurface) returns None.
    """
    return univariate.valuation(univariate.restrict(v.gens[0], p, q))


def _check_contact_order(v: ProjVariety, m):
    if len(v.gens) != 1:
        raise InvalidInput("contact lines need a hypersurface")
    if not (2 <= m <= min(v.n, v.gens[0].total_degree())):
        raise InvalidInput("need 2 <= m <= min(n, deg f)")


def taylor_cone_flag(v: ProjVariety, sample, chart, y, m) -> ContactConfig:
    """The tangent flag of the contact cones along the line from p in the chart direction y.

    sample is (p, tangent space at p), as `sample_smooth_point` draws it;
    chart is (frame, pieces) for the chart x = p + sum y_i * frame_i at p
    that `sample_contact_line` builds, frame row 0 being p, and the line
    is spanned by p and q = y @ (frame rows 1..n).  Verifies: contact
    order of the line at p is exactly m; each flag member is a
    hyperplane in the previous one.
    """
    _check_contact_order(v, m)
    field = v.field
    n = v.n
    p, tangent = sample
    frame, parts = chart
    directions = frame.submatrix(range(1, n + 1), range(n + 1))  # chart y maps to p + y @ directions
    q = directions.apply_row(y)
    order = line_contact_order(v, p, q)
    if order != m:
        raise NonGeneralConfiguration("line has contact order %r, wanted %d" % (order, m))
    line = subspace_from_rows(field, n, [p, q])
    along = _gradient_along(v, p, q, m)
    # row k - 1 is grad f_k(y): by the chain rule, the t^(k-1) coefficient of grad f(p + t q) on the directions
    grad_rows = Matrix._of(field, along[: m - 1], n + 1) @ directions.transpose()
    flag = []
    for k in range(2, m + 1):
        rows = grad_rows.submatrix(range(k - 1), range(n))
        if rows.rank() != k - 1:
            raise NonGeneralConfiguration("non-general configuration, reseed (flag rank)")
        sub_rows = Matrix(field, [p]).stack(rows.nullspace() @ directions)
        flag.append(Subspace(field, n, sub_rows.row_space_basis(), check=False))
    for a, b in zip(flag, flag[1:]):
        if not (a.contains(b) and a.ell == b.ell + 1):
            raise NonGeneralConfiguration("non-general configuration, reseed (flag step)")
    for sub in flag:
        if not sub.contains(line):
            raise NonGeneralConfiguration("flag member lost the line")
    if not flag[0].same_as(tangent):
        raise NonGeneralConfiguration("chart tangent disagrees with Jacobian tangent")
    return ContactConfig(
        variety=v,
        m=m,
        point=p,
        direction_point=q,
        line_gradient=along,
        line=line,
        adapted=adapted_basis(line),
        chart_parts=parts,
        flag=flag,
        tangent_at_p=tangent,
    )


def sample_contact_line(v: ProjVariety, m, seed) -> ContactConfig:
    """Seeded point + direction with contact order exactly m.

    Directions solve f_1 = ... = f_{m-1} = 0 inside seeded linear
    slices; no base-field solution triggers a retry with a new point.
    """
    _check_contact_order(v, m)
    field = v.field
    n = v.n
    stream = Stream(seed, "contact", m)
    for k in range(CONTACT_RETRIES):
        s = stream.spawn(k)
        try:
            p, tangent = sample_smooth_point(v, s.spawn("pt").seed, height=10)
        except SamplingError:
            continue
        # chart at p with unit completion, the one chart f is substituted into for this point
        frame = adapted_basis(point_subspace(field, p)).full
        _, parts = _chart_parts(v, frame, m - 1)
        # linear constraints: f_1, whose coefficients are its gradient, plus n-m seeded slices
        rows = [[parts[1].coeff([int(i == j) for i in range(n)]) for j in range(n)]]
        slicer = s.spawn("slice")
        for _ in range(n - m):
            rows.append([field.of(c) for c in slicer.vector(field, n, 10)])
        lin = Matrix(field, rows)
        if lin.rank() != len(rows):
            continue
        span = lin.nullspace()  # (m-1) rows spanning candidate directions
        if span.nrows != m - 1:
            continue
        y = _solve_direction(parts, span, m, field)
        if y is None:
            continue
        # f_m(y) = 0 means contact order above m, which taylor_cone_flag rejects
        try:
            return taylor_cone_flag(v, (p, tangent), (frame, parts), y, m)
        except NonGeneralConfiguration:
            continue
    raise SamplingError("no rational contact line found within budget")


def _solve_direction(parts, span, m, field):
    """A direction y in the sliced span with f_1(y) = ... = f_{m-1}(y) = 0."""
    k = span.nrows  # = m - 1
    if k == 1:
        return tuple(span.rows[0])
    aring = PolyRing(field, tuple("a%d" % i for i in range(k)))
    images = linear_combinations(aring.gens(), span.rows)
    gens = [g.substitute(aring, images) for deg, g in parts.items() if 1 < deg < m]
    gens = [g for g in gens if g]
    if not gens:  # the forms vanish on the whole span, which singles out no direction: draw again
        return None
    # projective solutions in P^{k-1}, one search each: the chart a_j = 1 sets the coordinates
    # after j to 0, since the charts tried before it (a_{k-1} = 1, ..., a_{j+1} = 1) held the rest
    for chart in range(k - 1, -1, -1):
        small, sub = _affine_chart(aring, gens, chart, zero=range(chart + 1, k))
        if any(g.is_constant() for g in sub):
            continue
        if not sub:  # with no equation left every point of the chart solves: take the one whose coordinates are 0
            return span.apply_row([field.zero] * chart + [field.one] + [field.zero] * (k - 1 - chart))
        try:
            pts = affine_points_zero_dim(Ideal(small, sub))[0]
        except CertificateNotApplicable:  # the slice meets a curve of directions: draw again
            return None
        if pts:
            return span.apply_row(list(pts[0][0]) + [field.one] + [field.zero] * (k - 1 - chart))
    return None


def contact_tangent_space(cfg: ContactConfig) -> HomSpace:
    """Tangent space of the contact family at the sampled line.

    Kernel of the Jacobian of {t^j-coefficients of f(a + t b)}_{j<m}
    at (p, q), pushed along the row-space chart; its dimension must be
    2(n-1) - (m-1).
    """
    v = cfg.variety
    field = v.field
    n = v.n
    m = cfg.m
    grad = cfg.line_gradient
    rows = tuple(g + (grad[j - 1] if j else (field.zero,) * (n + 1)) for j, g in enumerate(grad))
    jac = Matrix._of(field, rows, 2 * (n + 1))
    if jac.rank() != m:
        raise NonGeneralConfiguration("non-general configuration, reseed (Jacobian rank)")
    ker = jac.nullspace()
    a = cfg.adapted
    mats = []
    for vrow in ker.rows:
        mats.append(stiefel_differential(a, Matrix._of(field, (vrow[: n + 1], vrow[n + 1 :]), n + 1)).matrix)
    space = HomSpace(TANGENT, a, mats)
    expected = 2 * (n - 1) - (m - 1)
    if space.dim != expected:
        raise NonGeneralConfiguration(
            "tangent dimension %d, expected %d" % (space.dim, expected)
        )
    return space


def structural_kernel_homs(cfg: ContactConfig) -> HomSpace:
    """Tangent directions fixing p with image inside T_L C_m / L.

    The line's basis rows are p and q, so the hom p -> 0, q -> w + L is
    the matrix with rows 0 and w in quotient coordinates.
    """
    a = cfg.adapted
    qrows = a.quotient_coords(cfg.flag[-1].basis).row_space_basis()  # T_L C_m / L
    zero_row = (a.field.zero,) * qrows.ncols
    return HomSpace(TANGENT, a, [Matrix._of(a.field, (zero_row, w), qrows.ncols) for w in qrows.rows])


def cone_ideal(cfg: ContactConfig) -> Ideal:
    """(f_1, ..., f_{m-1}) in the coordinates of the chart at p."""
    some = next(iter(cfg.chart_parts.values()))
    yring = some.ring
    gens = [cfg.chart_parts[k] for k in range(1, cfg.m) if k in cfg.chart_parts]
    return Ideal(yring, gens)


def cone_dim_degree(cfg: ContactConfig):
    """(codimension in P^n, degree) of the cone: (m-1, (m-1)!) when general.

    The graded pieces live in the n direction variables; the
    projectivized direction variety sits in P^{n-1} and the cone over
    it (with vertex p) has the same codimension inside P^n.
    """
    ideal = cone_ideal(cfg)
    dim, deg = hilbert_dim_degree(ideal)
    n = cfg.variety.n
    return (n - 1) - dim, deg


def verify_contact_theorem(cfg: ContactConfig) -> ClassificationReport:
    """Point-by-point verification of the contact-line structure.

    Checks recorded in the report: conormal dimension m-1; a unique
    rank-one conormal direction with image the contact point and
    kernel the tangent hyperplane; Segre intersection multiplicity
    m-1; structural kernel directions inside the tangent space.
    """
    v = cfg.variety
    m = cfg.m
    tangent = contact_tangent_space(cfg)
    conormal = trace_annihilator(tangent)
    rep = classify(conormal, "coisotropic", family_dim=(tangent.dim))
    rep.checks.add("conormal dimension = m-1", conormal.dim == m - 1, "dim %d" % conormal.dim)
    locus = rank_one_locus(conormal)
    rep.checks.add("unique rank-one conormal", len(locus.points) == 1 and locus.complete)
    if len(locus.points) == 1:
        lam, matr, _ = locus.points[0]
        h = Hom(CONORMAL, matr, conormal.adapted)
        image_ok = h.image_subspace().same_as(point_subspace(v.field, cfg.point))
        rep.checks.add("rank-one image is the contact point", image_ok)
        rep.checks.add("rank-one kernel is the tangent hyperplane", h.kernel_subspace().same_as(cfg.tangent_at_p))
    try:
        cert = segre_tangency_certificate(conormal)
        rep.checks.add("Segre multiplicity = m-1", cert.multiplicity == m - 1, "mult %r" % (cert.multiplicity,))
        rep.checks.add("Segre Bezout total", cert.bezout_total_ok)
        rep.flags["segre_tangency"] = cert.multiplicity == m - 1 and cert.unique_point
        if rep.flags["segre_tangency"]:
            rep.verdict = "coisotropic"
    except CertificateNotApplicable as exc:  # recorded, not thrown
        rep.checks.add("Segre certificate", False, str(exc))
    struct = structural_kernel_homs(cfg)
    ok = all(tangent.contains(h) for h in struct.homs())
    rep.checks.add("kernel-direction homs inside the tangent space", ok)
    return rep
