"""Osculating spaces of rational curves and strongly isotropic families.

A parametrized curve carries, at each non-stationary parameter value,
the flag of osculating k-planes (row spaces of derivative matrices).
A sample keeps the derivative rows it evaluated, and reads its plane,
the neighbouring planes and its tangent hom from them.
The tangent direction of the osculating family is a single rank-one
map whose kernel/image are the neighbouring osculating planes; the
shift maps recover those neighbours from any isotropic curve sample.
Families of dimension >= 2 with rank-one tangent spaces are pinned to
a unique alpha/beta variety, whose center the classifier returns.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidInput, NonGeneralConfiguration
from .grassmann import (
    TANGENT,
    Hom,
    HomSpace,
    Subspace,
    adapted_basis,
    stiefel_differential,
)
from .isoclass import alpha_beta_type, is_strong
from .linalg import Matrix, exterior_minors
from .poly import PolyRing


class ParamCurve:
    """A polynomial map t -> (c_0(t) : ... : c_n(t))."""

    def __init__(self, field, coords):
        coords = tuple(coords)
        if not coords:
            raise InvalidInput("empty coordinate list")
        ring = coords[0].ring
        if ring.nvars != 1:
            raise InvalidInput("coordinates must be univariate")
        for c in coords:
            if c.ring != ring:
                raise InvalidInput("mixed coordinate rings")
        if all(not c for c in coords):
            raise InvalidInput("identically zero curve")
        self.field = field
        self.ring = ring
        self.coords = coords
        self.n = len(coords) - 1
        # the coordinates and their derivatives of order 1..n, each taken once
        derivatives = [coords]
        for _ in range(self.n):
            derivatives.append(tuple(c.diff(0) for c in derivatives[-1]))
        self.derivatives = tuple(derivatives)

    @classmethod
    def from_coeff_rows(cls, field, rows):
        """Curve with coords[j] = sum_k rows[k][j] t^k."""
        ring = PolyRing(field, ("t",))
        coords = []
        ncols = len(rows[0])
        for j in range(ncols):
            coords.append(ring.from_terms([((k,), rows[k][j]) for k in range(len(rows))]))
        return cls(field, coords)

    def coefficient_rows(self):
        d = max(c.total_degree() for c in self.coords)
        rows = []
        for k in range(d + 1):
            rows.append([c.coeff((k,)) for c in self.coords])
        return Matrix(self.field, rows)

    def span(self) -> Subspace:
        """Projective linear span of the curve."""
        return Subspace(self.field, self.n, self.coefficient_rows().row_space_basis(), check=False)

    def point(self, t):
        tv = [self.field.of(t)]
        return tuple(c.evaluate(tv) for c in self.coords)

    def derivative_rows(self, t, k):
        """Rows c(t), c'(t), ..., c^{(k)}(t), for 0 <= k <= n."""
        if not (0 <= k <= self.n):
            raise InvalidInput("derivatives are kept up to order n")
        tv = [self.field.of(t)]
        return Matrix(self.field, [[c.evaluate(tv) for c in ds] for ds in self.derivatives[: k + 1]])

    def __repr__(self):
        return "ParamCurve(n=%d)" % self.n


class OscSample(namedtuple("OscSample", (
    "t",
    "k",
    "rows",  # c(t), c'(t), ..., c^(k+1)(t)
    "subspace",
    "prev",
    "next",  # None when k = n-1 has no defined successor
))):
    __slots__ = ()

    def tangent_hom(self) -> Hom:
        """Rank-one tangent of the osculating family: kernel the previous
        plane, image the next one."""
        k, n = self.k, self.subspace.n
        if self.next is None and k <= n - 2:
            raise NonGeneralConfiguration("stationary point at order k+1")
        m = self.rows.submatrix(range(1, k + 2), range(n + 1))
        return stiefel_differential(adapted_basis(self.subspace), m)


def osculating_space(c: ParamCurve, t, k) -> OscSample:
    """Osculating k-plane at c(t); raises at stationary points."""
    if not (0 <= k <= c.n - 1):
        raise InvalidInput("need 0 <= k <= n-1")
    rows = c.derivative_rows(t, k + 1)
    top = rows.submatrix(range(k + 1), range(c.n + 1))
    if top.rank() != k + 1:
        raise NonGeneralConfiguration("stationary/hyperosculating point")
    sub = Subspace(c.field, c.n, top, check=False)
    prev = Subspace(c.field, c.n, rows.submatrix(range(k), range(c.n + 1)), check=False)
    span = rows.row_space_basis()
    nxt = Subspace(c.field, c.n, span, check=False) if span.nrows == k + 2 else None
    return OscSample(t=t, k=k, rows=rows, subspace=sub, prev=prev, next=nxt)


def osc_tangent_hom(c: ParamCurve, t, k) -> Hom:
    """The tangent hom of the osculating k-plane at c(t) (OscSample.tangent_hom)."""
    return osculating_space(c, t, k).tangent_hom()


def osc_family_space(c: ParamCurve, t, k) -> HomSpace:
    h = osc_tangent_hom(c, t, k)
    return HomSpace(TANGENT, h.adapted, [h.matrix])


def sigma_shift(samples, direction):
    """Shift isotropic-curve samples: '-' takes kernels, '+' images.

    samples: list of (Subspace, HomSpace) with one-dimensional
    rank-one tangent spaces.
    """
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    out = []
    for sub, space in samples:
        if space.dim != 1:
            raise ValueError("shift needs one-dimensional tangent spaces")
        h = space.homs()[0]
        if h.rank() != 1:
            raise NonGeneralConfiguration("not isotropic at sample")
        out.append(h.kernel_subspace() if direction == "-" else h.image_subspace())
    return out


def dual_curve(c: ParamCurve) -> ParamCurve:
    """The moving hyperplane of top osculating spaces, as a curve in
    the dual space.

    Degenerate curves are rewritten inside their span first; the
    result then lives in the dual of the span and carries the span
    basis in .span_basis.
    """
    span = c.span()
    if span.ell < 1:
        raise InvalidInput("curve is a point")
    if span.ell < c.n:
        gamma = _rewrite_in_span(c, span)
        d = dual_curve(gamma)
        d.span_basis = span.basis
        return d
    n = c.n
    # cofactor vector: signed maximal minors of c, c', ..., c^{(n-1)}; the
    # minor without column j is the (n - j)-th in lexicographic order
    minors = exterior_minors(c.derivatives[:n], n + 1)
    coords = [m if j % 2 == 0 else -m for j, m in enumerate(reversed(minors))]
    out = ParamCurve(c.field, coords)
    out.span_basis = None
    return out


def _rewrite_in_span(c: ParamCurve, span: Subspace) -> ParamCurve:
    b = span.basis
    coeffs = c.coefficient_rows()
    bt = b.transpose()
    gamma_rows = []
    for row in coeffs.rows:
        x = bt.solve(row)
        if x is None:
            raise ValueError("span computation inconsistent")
        gamma_rows.append(list(x))
    return ParamCurve.from_coeff_rows(c.field, gamma_rows)


def projective_equal_points(x, y):
    """Projective equality of coordinate tuples."""
    pivot = None
    for i, (a, b) in enumerate(zip(x, y)):
        if a or b:
            if not (a and b):
                return False
            if pivot is None:
                pivot = (a, b)
                continue
            if a * pivot[1] != b * pivot[0]:
                return False
    return pivot is not None


def classify_strongly_isotropic_family(samples):
    """("alpha", P) | ("beta", P2) | ("curve", None) | ("inconclusive", None).

    samples: list of (Subspace, tangent HomSpace).  Every sample must
    be strongly isotropic (all ranks <= 1); mixed alpha/beta structure
    across samples of a >= 2-dimensional family contradicts the
    classification and raises.
    """
    if not samples:
        raise InvalidInput("no samples")
    for _, space in samples:
        if not space.dim or not is_strong(space):
            raise InvalidInput("sample tangent space is zero or has a rank-2 element")
    dims = {space.dim for _, space in samples}
    if dims == {1}:
        return "curve", None
    if len(dims) != 1:
        return "inconclusive", None
    results = [alpha_beta_type(space) for _, space in samples]
    tags = {tag for tag, _ in results}
    if len(tags) != 1:
        raise InvalidInput("mixed alpha/beta structure across samples")
    tag = tags.pop()
    witness = results[0][1]
    for _, w in results[1:]:
        if not w.same_as(witness):
            raise InvalidInput("witness subspace varies across samples")
    return tag, witness
