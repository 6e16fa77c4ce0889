"""Rank-one structure classifier for tangent/conormal Hom spaces.

The verdict "coisotropic"/"isotropic" is only ever issued through one
of the implemented certificates: a rank-one hypersurface conormal, a
strong space (every combination rank <= 1), an explicit rank-one
spanning set, the low-dimension fallback, or (for contact-line
families, via the contact module) the Segre tangency certificate.
Anything else is reported as inconclusive, never as a refutation.
A Hom space keeps its minor ideal and rank-one locus, so every check
that reads them shares one analysis.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from . import univariate
from .errors import CertificateNotApplicable, NotIsolated
from .grassmann import HomSpace
from .groebner import groebner
from .hilbert import hilbert_dim_degree, local_multiplicity
from .linalg import Matrix
from .poly import LEX, Ideal, PolyRing


# ---------------------------------------------------------------------------
# small exact solvers


def univariate_roots(poly):
    """((root, multiplicity) list, fully_split flag) over the base field."""
    found, cofactor = univariate.root_multiplicities(univariate.coeffs(poly), poly.ring.field)
    return found, len(cofactor) == 1


def affine_points_zero_dim(ideal: Ideal):
    """Rational points of a zero-dimensional affine ideal in <= 2 vars.

    Returns (points, complete flag); complete is False when roots fall
    outside the base field.
    """
    ring = ideal.ring
    nv = ring.nvars
    if nv == 0:
        ok = all(not g.constant_coeff() for g in ideal.gens)
        return ([()] if ok else []), True
    if nv > 2:
        raise CertificateNotApplicable("point solver limited to 2 variables")
    if nv == 1:
        roots, split = _gcd_roots(ideal.gens)
        return [(r,) for r in roots], split
    gb = groebner(ideal, order=LEX)
    if not gb.gens:
        raise ValueError("zero ideal is not zero-dimensional")
    # lex with u > v: the last basis element is univariate in v
    univ = [g for g in gb.gens if all(e[0] == 0 for e in g.terms)]
    if not univ:
        raise CertificateNotApplicable("unexpected lex basis shape")
    vring = PolyRing(ring.field, (ring.vars[1],), ring.order)
    gv = univ[0].map_to(vring)
    roots, complete = univariate.split_roots(univariate.coeffs(gv), ring.field)
    pts = []
    uring = PolyRing(ring.field, (ring.vars[0],), ring.order)
    for r in roots:
        # substitute v = r, solve for u
        subbed = []
        for g in gb.gens:
            img = g.substitute(ring, [ring.var(0), ring.const(r)])
            if img:
                subbed.append(img.map_to(uring))
        if not subbed:
            raise CertificateNotApplicable("fiber not finite")
        uroots, usplit = _gcd_roots(subbed)
        complete = complete and usplit
        pts.extend((u, r) for u in uroots)
    return pts, complete


def _gcd_roots(polys):
    """(distinct roots in the field, whether all roots are there) of the common roots of
    polys in one variable, read from their monic gcd: the reduced lex basis of their ideal."""
    gcd = univariate.poly_gcd(polys)
    if not gcd:
        raise ValueError("zero ideal is not zero-dimensional")
    return univariate.split_roots(gcd, polys[0].ring.field)


def _affine_chart(ring, gens, chart, zero=()):
    """(chart ring, nonzero images of gens) under x_chart = 1 and x_i = 0 for i in zero.

    The chart ring keeps the other variables in their order.  Setting the
    variables before the chart to 0 gives each projective point one
    representative: its first nonzero coordinate is 1.
    """
    keep = [v for i, v in enumerate(ring.vars) if i != chart and i not in zero]
    small = PolyRing(ring.field, tuple(keep), ring.order)
    images = [small.one() if i == chart else small.zero() if i in zero else small.var(v)
              for i, v in enumerate(ring.vars)]
    return small, [img for img in (g.substitute(small, images) for g in gens) if img]


# ---------------------------------------------------------------------------
# rank-one locus of a projectivized span


class RankOneLocus(namedtuple("RankOneLocus", (
    "points",  # (lambda tuple, Hom matrix, multiplicity or None)
    "dim",  # projective dimension of the minor scheme, -1 when it is empty
    "degree",  # its degree, 0 when it is empty
    "complete",  # False when solutions exist outside the field
), defaults=(True,))):
    __slots__ = ()

    @property
    def positive_dimensional(self):
        return self.dim >= 1


def rank_one_locus(space: HomSpace) -> RankOneLocus:
    """Projective rank-one elements of the span over the base field.

    Solved once per space and kept on it (`space.rank_one`).  Spans of
    dimension >= 4 with a zero-dimensional locus are out of the
    solver's scope and raise CertificateNotApplicable.
    """
    if space.rank_one is None:
        space.rank_one = _solve_rank_one_locus(space)
    return space.rank_one


def _solve_rank_one_locus(space: HomSpace) -> RankOneLocus:
    k = space.dim
    fld = space.adapted.field
    if k == 0:
        return RankOneLocus(points=[], dim=-1, degree=0)
    ideal = space.minor_ideal
    if not ideal.gens:
        # the whole span is rank <= 1
        if k == 1:
            return RankOneLocus(points=[((fld.one,), space.mats[0], 1)], dim=0, degree=1)
        return RankOneLocus(points=[], dim=k - 1, degree=1)
    if k == 1:
        # single projective point: rank-one iff all minors vanish (they don't here)
        return RankOneLocus(points=[], dim=-1, degree=0)
    dim, deg = hilbert_dim_degree(ideal)
    if dim != 0:
        return RankOneLocus(points=[], dim=dim, degree=deg)
    pts = []
    complete = True
    for chart in range(k):
        # canonical representatives: first nonzero coordinate = chart position
        small, sub_gens = _affine_chart(ideal.ring, ideal.gens, chart, zero=range(chart))
        if any(g.is_constant() for g in sub_gens):
            continue
        if len(small.vars) > 2:
            raise CertificateNotApplicable("rank-one solver limited to spans of dimension <= 3")
        chart_pts, chart_complete = affine_points_zero_dim(Ideal(small, sub_gens))
        complete = complete and chart_complete
        for cp in chart_pts:
            lam = [fld.zero] * chart + [fld.one] + list(cp)
            pts.append(tuple(lam))
    out = []
    for lam in pts:
        mult = _point_multiplicity(ideal, lam)
        out.append((lam, space.element(lam), mult))
    return RankOneLocus(points=out, dim=dim, degree=deg, complete=complete)


def _point_multiplicity(ideal: Ideal, lam):
    """Local multiplicity of the minor scheme at a projective point."""
    k = len(lam)
    chart = next(i for i, c in enumerate(lam) if c)
    fld = ideal.ring.field
    inv = fld.one / lam[chart]
    if k > 3:  # the local quotient takes at most two chart variables
        return None
    small, gens = _affine_chart(ideal.ring, ideal.gens, chart)
    point = [lam[i] * inv for i in range(k) if i != chart]
    try:
        return local_multiplicity(Ideal(small, gens), point)
    except NotIsolated:
        return None


# ---------------------------------------------------------------------------
# classification


class CheckList(list):
    """Named checks in the order they were made, each {"name", "ok", "detail"}; a report prints the list."""

    __slots__ = ()

    def add(self, name, ok, detail=""):
        self.append({"name": name, "ok": bool(ok), "detail": str(detail)})
        return ok

    def all_ok(self):
        return all(c["ok"] for c in self)


class ClassificationReport:
    """A verdict with the flags, witnesses and checks behind it; `classify`
    and the contact verification fill it in."""

    __slots__ = ("mode", "space_dim", "ell", "n", "flags", "type_tag", "verdict", "witnesses", "checks")

    def __init__(self, mode, space_dim, ell, n):
        self.mode = mode
        self.space_dim = space_dim
        self.ell = ell
        self.n = n
        self.flags = {}
        self.type_tag = "none"
        self.verdict = "inconclusive"
        self.witnesses = []
        self.checks = CheckList()

    def to_jsonable(self, field_desc=None):
        def fmt(x):
            if field_desc is not None:
                return field_desc.format(x)
            return str(x)

        return {
            "mode": self.mode,
            "space_dim": self.space_dim,
            "ambient": {"ell": self.ell, "n": self.n},
            "flags": {k: bool(v) for k, v in sorted(self.flags.items())},
            "type": self.type_tag,
            "verdict": self.verdict,
            "witnesses": [
                {
                    "lambda": [fmt(c) for c in w["lambda"]],
                    "rank": w["rank"],
                    "multiplicity": w["multiplicity"],
                }
                for w in self.witnesses
            ],
            "checks": self.checks,
        }


def is_strong(space: HomSpace) -> bool:
    """Every combination rank <= 1: all 2x2 minors of the generic
    element vanish identically."""
    return space.dim == 0 or not space.minor_ideal.gens


def alpha_beta_type(space: HomSpace):
    """("alpha", hyperplane) | ("beta", line) for a strong span of dim >= 2.

    The returned subspace is in P^n terms: for alpha, the common
    kernel as a subspace (tangent: inside L; conormal: containing L);
    for beta, the common image (tangent: an (ell+1)-plane over L;
    conormal: a point of L).
    """
    if space.dim < 2:
        raise ValueError("type detection needs dimension >= 2")
    if not is_strong(space):
        raise ValueError("rank-2 element present")
    homs = space.homs()
    kernels = [h.kernel_subspace() for h in homs]
    if all(k.same_as(kernels[0]) for k in kernels[1:]):
        return "alpha", kernels[0]
    images = [h.image_subspace() for h in homs]
    if all(im.same_as(images[0]) for im in images[1:]):
        return "beta", images[0]
    raise AssertionError("strong span with neither common kernel nor common image")


def classify(space: HomSpace, mode: str, family_dim=None) -> ClassificationReport:
    """Certificate-based verdict for the family behind a Hom space.

    mode "coisotropic" expects a conormal space, "isotropic" a tangent
    space.  family_dim (the dimension of the family inside the
    Grassmannian) defaults to the value implied by the span dimension.
    """
    if mode not in ("coisotropic", "isotropic"):
        raise ValueError("mode must be 'coisotropic' or 'isotropic'")
    a = space.adapted
    ell, n = a.ell, a.n
    total = (ell + 1) * (n - ell)
    if family_dim is None:
        family_dim = total - space.dim if mode == "coisotropic" else space.dim
    rep = ClassificationReport(mode=mode, space_dim=space.dim, ell=ell, n=n)
    strong = is_strong(space)
    rep.flags["strong"] = strong
    if mode == "coisotropic":
        rep.flags["low_dim_fallback"] = family_dim <= n - 1
    else:
        rep.flags["low_dim_fallback"] = total - family_dim <= n - 1
    hyp = space.dim == 1 and strong  # one generator: strong means rank <= 1
    rep.flags["hypersurface_rank_one"] = hyp
    spanned = False
    if strong:
        spanned = True
        for h in space.homs():
            rep.witnesses.append({"lambda": (), "rank": h.rank(), "multiplicity": None})
    else:
        try:
            locus = rank_one_locus(space)
        except CertificateNotApplicable:
            locus = None
        if locus is not None:
            if locus.positive_dimensional:
                rep.checks.add("rank-one locus positive dimensional", True, "flagged")
            flat = []
            for lam, matr, mult in locus.points:
                flat.append([x for r in matr.rows for x in r])
                rep.witnesses.append({"lambda": lam, "rank": matr.rank(), "multiplicity": mult})
            if flat and Matrix(a.field, flat).rank() == space.dim:
                spanned = True
            if not locus.complete:
                rep.checks.add("rank-one locus rational", False, "irrational locus")
    rep.flags["rank_one_spanned"] = spanned
    # type tag
    if hyp:
        rep.type_tag = "hypersurface"
    elif strong and space.dim >= 2:
        tag, witness_sub = alpha_beta_type(space)
        rep.type_tag = tag
        rep.checks.add("alpha/beta witness dimension", witness_sub.ell >= -1)
    elif spanned and not strong:
        rep.type_tag = "mixed"
    else:
        rep.type_tag = "none"
    if spanned or rep.flags["low_dim_fallback"]:
        rep.verdict = mode
    else:
        rep.verdict = "inconclusive"
    return rep


# ---------------------------------------------------------------------------
# Segre tangency certificate


class SegreCertificate(namedtuple("SegreCertificate", (
    "points",  # (lambda, multiplicity)
    "unique_point",
    "multiplicity",
    "segre_degree",
    "bezout_total_ok",
    "reduced_shape",
    "kernel_quotient_dim",
))):
    __slots__ = ()


def _common_kernel_rows(space: HomSpace):
    """Intersection of the kernels of all generators (domain coords)."""
    mats = space.mats
    if not mats:
        raise ValueError("empty span")
    stacked_cols = []
    for m in mats:
        stacked_cols.extend(m.transpose().rows)
    return Matrix(space.adapted.field, stacked_cols).nullspace()


def segre_tangency_certificate(space: HomSpace) -> SegreCertificate:
    """Unique-rank-one-point certificate with intersection multiplicity.

    The generators' common kernel is quotiented out first (when it is
    zero the projection is the identity, and the space itself, with the
    rank-one locus it keeps, is used); the projectivized span must then
    have dimension equal to the reduced Segre codimension.  Multiplicity
    comes from the local quotient at the unique point (spans of dim <=
    3), with the Bezout total cross-checked against the Segre degree.
    """
    k = space.dim
    if k == 0:
        raise CertificateNotApplicable("empty span")
    fld = space.adapted.field
    common = _common_kernel_rows(space)
    red_space = space
    if common.nrows:
        # restrict to a complement of the common kernel
        keep = _complement_projection(common, space.mats[0].nrows, fld)
        red_space = HomSpace(space.direction, space.adapted, [keep @ m for m in space.mats], reduce=False)
    nr = space.mats[0].nrows - common.nrows
    nc = space.mats[0].ncols
    seg_codim = (nr - 1) * (nc - 1)
    if k - 1 != seg_codim:
        raise CertificateNotApplicable("span dimension %d != reduced Segre codimension %d" % (k - 1, seg_codim))
    seg_degree = comb((nr - 1) + (nc - 1), nr - 1)
    locus = rank_one_locus(red_space)
    if locus.dim != 0:
        raise CertificateNotApplicable("minor scheme not zero-dimensional (dim %d)" % locus.dim)
    deg = locus.degree
    pts = [(lam, mult) for lam, _, mult in locus.points]
    unique = len(pts) == 1 and locus.complete
    mult = pts[0][1] if pts else 0
    if mult is None:
        # Bezout fallback: proper dimension + unique support
        mult = deg if unique else None
    total_ok = deg == seg_degree and unique and mult == deg
    return SegreCertificate(
        points=pts,
        unique_point=unique,
        multiplicity=mult if mult is not None else -1,
        segre_degree=seg_degree,
        bezout_total_ok=bool(total_ok),
        reduced_shape=(nr, nc),
        kernel_quotient_dim=common.nrows,
    )


def _complement_projection(kernel_rows: Matrix, dim, fld):
    """Diagonal projection onto the unit vectors off the kernel's pivots.

    A row of a generator at a pivot column of the (reduced echelon)
    common kernel is a combination of its rows off the pivots, so
    zeroing those rows keeps every rank and every nonzero 2x2 minor of
    the rows that remain, while the matrices keep their Hom shape.
    """
    piv = set(kernel_rows.rref()[0])
    z, o = fld.zero, fld.one
    return Matrix(fld, [[o if i == j and j not in piv else z for j in range(dim)] for i in range(dim)], dim)
