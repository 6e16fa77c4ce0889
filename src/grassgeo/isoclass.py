"""Rank-one structure classifier for tangent/conormal Hom spaces.

The verdict "coisotropic"/"isotropic" is only ever issued through one
of the implemented certificates: a rank-one hypersurface conormal, a
strong space (every combination rank <= 1), an explicit rank-one
spanning set, the low-dimension fallback, or (for contact-line
families, via the contact module) the Segre tangency certificate.
Anything else is reported as inconclusive, never as a refutation.
A Hom space keeps its minor ideal and rank-one locus, so every check
that reads them shares one analysis.  The rank-one locus is solved
chart by chart by one solver for zero-dimensional ideals in any number
of variables, which reads the points and their multiplicities off the
quotient algebra.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from . import univariate
from .errors import CertificateNotApplicable
from .grassmann import HomSpace
from .groebner import groebner, normal_form
from .hilbert import hilbert_dim_degree
from .linalg import Matrix
from .poly import Ideal, PolyRing, monomial_divides


# ---------------------------------------------------------------------------
# small exact solvers


def univariate_roots(poly):
    """((root, multiplicity) list, fully_split flag) over the base field."""
    found, cofactor = univariate.root_multiplicities(univariate.coeffs(poly), poly.ring.field)
    return found, len(cofactor) == 1


def affine_points_zero_dim(ideal: Ideal):
    """Points of a zero-dimensional affine ideal over the base field, each with its multiplicity.

    Returns ((point, multiplicity) list, complete flag).  The quotient
    R/I has the normal set of the Groebner basis as its basis, and
    multiplication by x_i acts on it by a matrix M_i; the points are the
    joint eigenvalues of the M_i, and a point's multiplicity (the
    dimension of the local quotient there) is the dimension of its joint
    generalized eigenspace (Cox, Little & O'Shea, Using Algebraic
    Geometry, ch. 2 and 4; Auzinger & Stetter 1988).  complete is False
    when points fall outside the base field.  Points come ordered by
    their last coordinate in `univariate.roots` order, then by the one
    before it, and so on.  An ideal that is not zero-dimensional raises
    CertificateNotApplicable.
    """
    ring = ideal.ring
    field = ring.field
    if not ideal.gens:
        raise ValueError("zero ideal is not zero-dimensional")
    if ring.nvars == 1:
        # the reduced basis is the gcd, and M_0 is its companion matrix
        found, cofactor = univariate.root_multiplicities(univariate.poly_gcd(ideal.gens), field)
        return [((r,), mult) for r, mult in found], len(cofactor) == 1
    gb = groebner(ideal)
    normal = _normal_set([g.lead()[0] for g in gb.gens], ring.nvars)
    if not normal:  # the unit ideal
        return [], True
    unit = Matrix.identity(field, len(normal))
    spaces = [((), unit)]  # (the coordinates fixed so far, a basis of their joint generalized eigenspace)
    for i in reversed(range(ring.nvars)):
        m_i = _multiplication_matrix(gb, normal, i)
        roots, _ = univariate.root_multiplicities(_eliminant(m_i), field)
        shifts = [(r, e, m_i - unit.scale(r)) for r, e in roots]
        refined = []
        for coords, basis in spaces:
            for r, e, shifted in shifts:
                image = basis
                for _ in range(e):
                    image = image @ shifted
                kept = image.left_nullspace()  # the part of the space that (M_i - r)^e kills
                if kept.nrows:
                    refined.append(((r,) + coords, kept @ basis))
        spaces = refined
    points = [(coords, basis.nrows) for coords, basis in spaces]
    return points, sum(mult for _, mult in points) == len(normal)


def _normal_set(leads, nvars):
    """{monomial outside the lead ideal: its index}, 1 first; CertificateNotApplicable when infinite."""
    if any(not any(e) for e in leads):
        return {}
    for i in range(nvars):
        if not any(e[i] == sum(e) for e in leads if e[i]):
            raise CertificateNotApplicable("ideal is not zero-dimensional")
    normal = {(0,) * nvars: 0}
    todo = list(normal)
    for e in todo:
        for i in range(nvars):
            up = e[:i] + (e[i] + 1,) + e[i + 1:]
            if up not in normal and not any(monomial_divides(lead, up) for lead in leads):
                normal[up] = len(todo)
                todo.append(up)
    return normal


def _multiplication_matrix(gb: Ideal, normal, i):
    """Row j: the normal form of x_i times the j-th normal monomial, on the normal set."""
    ring = gb.ring
    zero = ring.field.zero
    rows = []
    for e in normal:
        up = e[:i] + (e[i] + 1,) + e[i + 1:]
        row = [zero] * len(normal)
        if up in normal:
            row[normal[up]] = ring.field.one
        else:
            for t, c in normal_form(ring.monomial(up), gb).terms.items():
                row[normal[t]] = c
        rows.append(tuple(row))
    return Matrix._of(ring.field, tuple(rows), len(normal))


def _eliminant(m_i: Matrix):
    """The monic generator of I meet k[x_i], constant term first: the first linear dependence among the
    images of 1, x_i, x_i^2, ... in the quotient, a Krylov sequence of the unit under M_i."""
    field, d = m_i.field, m_i.nrows
    powers = [(field.one,) + (field.zero,) * (d - 1)]
    for _ in range(d):
        powers.append((Matrix._of(field, (powers[-1],), d) @ m_i).rows[0])
    piv, red = Matrix._of(field, tuple(powers), d).transpose().rref()
    # the pivots are the first len(piv) powers; the next one is their combination in column len(piv)
    return [-red.rows[j][len(piv)] for j in range(len(piv))] + [field.one]


def _affine_chart(ring, gens, chart, zero=()):
    """(chart ring, nonzero images of gens) under x_chart = 1 and x_i = 0 for i in zero.

    The chart ring keeps the other variables in their order.  Setting to 0
    the variables whose charts were searched before gives each
    projective point one representative.
    """
    keep = [v for i, v in enumerate(ring.vars) if i != chart and i not in zero]
    small = PolyRing(ring.field, tuple(keep), ring.order)
    images = [small.one() if i == chart else small.zero() if i in zero else small.var(v)
              for i, v in enumerate(ring.vars)]
    return small, [img for img in (g.substitute(small, images) for g in gens) if img]


# ---------------------------------------------------------------------------
# rank-one locus of a projectivized span


class RankOneLocus(namedtuple("RankOneLocus", (
    "points",  # (lambda tuple, Hom matrix, multiplicity)
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

    Solved once per space and kept on it (`space.rank_one`).
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
    out = []
    found = 0
    for chart in range(k):
        # a point's chart is the first one where its coordinate is nonzero, so it is kept there alone
        small, sub_gens = _affine_chart(ideal.ring, ideal.gens, chart)
        for cp, mult in affine_points_zero_dim(Ideal(small, sub_gens))[0]:
            if not any(cp[:chart]):
                lam = cp[:chart] + (fld.one,) + cp[chart:]
                out.append((lam, space.element(lam), mult))
                found += mult
        if found == deg:  # the multiplicities account for the whole scheme: no point is left, rational or not
            break
    return RankOneLocus(points=out, dim=dim, degree=deg, complete=found == deg)


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
    comes from the local quotient at the unique point, with the Bezout
    total cross-checked against the Segre degree.
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
    total_ok = deg == seg_degree and unique and mult == deg
    return SegreCertificate(
        points=pts,
        unique_point=unique,
        multiplicity=mult,
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
