"""Grassmannian model: Pluecker coordinates, adapted bases, Hom tangents.

Conventions (fixed once, recorded here so reports are bit-stable):

* A projective ell-plane L in P^n is the row space of a full-rank
  (ell+1) x (n+1) matrix.  Pluecker coordinates are the maximal minors
  taken over column subsets in lexicographic order.
* An adapted basis extends the rows of L by unit vectors at the
  lexicographically first column set that completes them to a basis
  of K^{n+1}; the classes of those unit vectors are the working basis
  of the quotient K^{n+1}/L.  Its inverse comes from the square block
  of L's rows at the kept columns, and coordinates in it are read for
  a whole matrix of vectors in one product (see `AdaptedBasis`).
* A tangent vector at L is a map L -> K^{n+1}/L stored as an
  (ell+1) x (n-ell) matrix (rows: basis of L, columns: quotient
  classes).  A conormal vector is a map K^{n+1}/L -> L stored as an
  (n-ell) x (ell+1) matrix.  The two sides pair by the trace:
  <phi, psi> = tr(psi o phi) = sum_ij Mphi[i,j] * Mpsi[j,i].
* The empty subspace has projective dimension -1 (0 x (n+1) basis).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import FieldMismatch
from .linalg import Matrix, exterior_minors, row_space_contains
from .poly import Ideal, PolyRing, linear_combinations, normalized_generators


class Subspace:
    """A projective subspace of P^n with cached Pluecker coordinates."""

    __slots__ = ("field", "n", "ell", "basis", "_pluecker")

    def __init__(self, field, n, basis: Matrix, check=True):
        if basis.ncols != n + 1:
            raise ValueError("basis must have n+1 columns")
        if check and basis.rank() != basis.nrows:
            raise ValueError("basis matrix is rank deficient")
        self.field = field
        self.n = n
        self.ell = basis.nrows - 1
        self.basis = basis
        self._pluecker = None

    @property
    def pluecker(self):
        if self._pluecker is None:
            self._pluecker = self.basis.maximal_minors()
        return self._pluecker

    def column_sets(self):
        return tuple(combinations(range(self.n + 1), self.ell + 1))

    def contains_point(self, v) -> bool:
        return row_space_contains(self.basis, [self.field.of(x) for x in v])

    def contains(self, other: "Subspace") -> bool:
        return self.basis.stack(other.basis).rank() == self.basis.rank()

    def same_as(self, other: "Subspace") -> bool:
        if self.n != other.n or self.ell != other.ell:
            return False
        return self.basis.row_space_basis() == other.basis.row_space_basis()

    def __repr__(self):
        return "Subspace(ell=%d, n=%d)" % (self.ell, self.n)


def subspace_from_rows(field, n, rows) -> Subspace:
    return Subspace(field, n, Matrix(field, rows))


def point_subspace(field, v) -> Subspace:
    return Subspace(field, len(v) - 1, Matrix(field, [v]))


def hyperplane_subspace(field, normal) -> Subspace:
    """Z(normal . x) as a subspace of dimension n-1."""
    m = Matrix(field, [normal])
    return Subspace(field, len(normal) - 1, m.nullspace(), check=False)


def pluecker_embed(field, basis_matrix: Matrix) -> Subspace:
    """Subspace with Pluecker vector from a full-row-rank matrix."""
    n = basis_matrix.ncols - 1
    s = Subspace(field, n, basis_matrix)
    _ = s.pluecker
    return s


def pluecker_var_name(idxs) -> str:
    return "p" + "_".join(str(i) for i in idxs)


@lru_cache(maxsize=None)
def pluecker_ring(field, ell, n) -> PolyRing:
    return PolyRing(field, tuple(pluecker_var_name(c) for c in combinations(range(n + 1), ell + 1)))


def _sorted_index_sign(idxs):
    """(sign, sorted tuple) of an index sequence; sign 0 on repeats."""
    idxs = list(idxs)
    sign = 1
    for i in range(len(idxs)):
        for j in range(len(idxs) - 1 - i):
            if idxs[j] == idxs[j + 1]:
                return 0, ()
            if idxs[j] > idxs[j + 1]:
                idxs[j], idxs[j + 1] = idxs[j + 1], idxs[j]
                sign = -sign
    return sign, tuple(idxs)


def pluecker_relations(field, ell, n) -> Ideal:
    """Three-term/shuffle quadrics cutting out Gr(ell, P^n).

    Not claimed minimal; every pluecker_embed output is a common zero.
    """
    if not (0 <= ell <= n):
        raise ValueError("need 0 <= ell <= n")
    ring = pluecker_ring(field, ell, n)
    k = ell + 1
    out = []
    idx_of = {c: i for i, c in enumerate(combinations(range(n + 1), k))}
    nv = ring.nvars
    for alpha in combinations(range(n + 1), k - 1):
        for beta in combinations(range(n + 1), k + 1):
            terms = {}
            for pos, b in enumerate(beta):
                s1, left = _sorted_index_sign(alpha + (b,))
                if s1 == 0:
                    continue
                right = tuple(x for x in beta if x != b)
                coeff = s1 * (-1) ** pos
                e = [0] * nv
                e[idx_of[left]] += 1
                e[idx_of[right]] += 1
                e = tuple(e)
                terms[e] = terms.get(e, 0) + coeff
            out.append(ring.from_terms(list(terms.items())))
    # every relation is a quadric, so the degree ties and the lead orders them
    return Ideal(ring, normalized_generators(out))


def evaluate_pluecker(poly, subspace: Subspace):
    """Evaluate a Pluecker-variable polynomial at a subspace's coordinates."""
    return poly.evaluate(list(subspace.pluecker))


class AdaptedBasis:
    """Rows of L completed by unit vectors at complement columns.

    Up to the order of its columns the full matrix is [A_K A_C; 0 I],
    A_K the square block of L's rows at the kept columns K and A_C the
    rest, so up to the order of its rows its inverse is [B -B A_C; 0 I]
    with B the inverse of A_K:
    one (ell+1)-square inverse and one product, computed the first time
    it is read (a basis that only frames a chart never needs it).
    Coordinates are read for a whole matrix of vectors at once, in one
    product with that inverse.
    """

    __slots__ = ("subspace", "complement_columns", "full", "_full_inv")

    def __init__(self, subspace, complement_columns, full):
        self.subspace = subspace
        self.complement_columns = complement_columns
        self.full = full
        self._full_inv = None

    @property
    def full_inv(self):
        if self._full_inv is None:
            field, n, comp = self.field, self.n, self.complement_columns
            basis = self.subspace.basis
            k = basis.nrows
            kept = [c for c in range(n + 1) if c not in comp]
            b = basis.submatrix(range(k), kept).inverse()
            b_ac = b @ basis.submatrix(range(k), comp)
            rows = [None] * (n + 1)
            for c, b_row, m_row in zip(kept, b.rows, b_ac.rows):
                rows[c] = b_row + tuple(-x for x in m_row)
            z, o = field.zero, field.one
            for t, c in enumerate(comp):
                rows[c] = (z,) * k + tuple(o if j == t else z for j in range(n + 1 - k))
            self._full_inv = Matrix._of(field, tuple(rows), n + 1)
        return self._full_inv

    @property
    def ell(self):
        return self.subspace.ell

    @property
    def n(self):
        return self.subspace.n

    @property
    def field(self):
        return self.subspace.field

    def quotient_coords(self, m: Matrix) -> Matrix:
        """Row i: the coordinates of (row i of m) + L in the unit-class basis of K^{n+1}/L."""
        k = self.ell + 1
        x = m @ self.full_inv
        return Matrix._of(self.field, tuple(r[k:] for r in x.rows), self.n + 1 - k)

    def subspace_coords(self, m: Matrix) -> Matrix:
        """Row i: the coordinates of row i of m in the rows of L; every row must lie in L."""
        k = self.ell + 1
        x = m @ self.full_inv
        if any(c for r in x.rows for c in r[k:]):
            raise ValueError("vector not in the subspace")
        return Matrix._of(self.field, tuple(r[:k] for r in x.rows), k)

    def lift_quotient(self, qcoords):
        """A representative in K^{n+1} of the class with these coordinates."""
        z = self.field.zero
        v = [z] * (self.n + 1)
        for c, col in zip(qcoords, self.complement_columns):
            v[col] = v[col] + c
        return tuple(v)

    def __repr__(self):
        return "AdaptedBasis(ell=%d, n=%d, complement=%r)" % (
            self.ell,
            self.n,
            self.complement_columns,
        )


def adapted_basis(s: Subspace) -> AdaptedBasis:
    """Deterministic adapted basis: lexicographically first completion.

    The complements of column sets in lexicographic order are in reverse
    lexicographic order, so the first completion is the complement of
    the last column set with a nonzero Pluecker coordinate.
    """
    n = s.n
    field = s.field
    z, o = field.zero, field.one
    for kept, minor in zip(reversed(s.column_sets()), reversed(s.pluecker)):
        if minor:
            comp = tuple(c for c in range(n + 1) if c not in kept)
            unit_rows = tuple(tuple(o if j == col else z for j in range(n + 1)) for col in comp)
            full = s.basis.stack(Matrix._of(field, unit_rows, n + 1))
            return AdaptedBasis(s, comp, full)
    raise ValueError("no completion found (rank-deficient basis?)")


TANGENT = "tangent"
CONORMAL = "conormal"


def _hom_shape(direction, ell, n):
    """Matrix shape of a tangent or conormal vector at an ell-plane of P^n."""
    return (ell + 1, n - ell) if direction == TANGENT else (n - ell, ell + 1)


def _flat(m: Matrix):
    return tuple(x for r in m.rows for x in r)


def _unflat(field, v, shape):
    """The matrix of this shape whose rows, read in turn, are the tuple v of field elements."""
    nr, nc = shape
    return Matrix._of(field, tuple(v[i * nc : (i + 1) * nc] for i in range(nr)), nc)


def _span_in_subspace(a: AdaptedBasis, coords: Matrix) -> Subspace:
    """Span of the vectors with these coordinates in the rows of L."""
    return Subspace(a.field, a.n, (coords @ a.subspace.basis).row_space_basis(), check=False)


def _subspace_plus_lifts(a: AdaptedBasis, qcoords: Matrix) -> Subspace:
    """L plus lifts of the quotient classes with these coordinates."""
    lifts = Matrix._of(a.field, tuple(a.lift_quotient(v) for v in qcoords.rows), a.n + 1)
    return Subspace(a.field, a.n, a.subspace.basis.stack(lifts).row_space_basis(), check=False)


class Hom:
    """A tangent or conormal vector at L, as a matrix in an adapted basis."""

    __slots__ = ("direction", "matrix", "adapted")

    def __init__(self, direction, matrix: Matrix, adapted: AdaptedBasis):
        want = _hom_shape(direction, adapted.ell, adapted.n)
        if (matrix.nrows, matrix.ncols) != want:
            raise ValueError("hom matrix shape %r, expected %r" % ((matrix.nrows, matrix.ncols), want))
        self.direction = direction
        self.matrix = matrix
        self.adapted = adapted

    def rank(self):
        return self.matrix.rank()

    def kernel_subspace(self) -> Subspace:
        """Tangent: kernel inside L.  Conormal: preimage in P^n of the
        quotient kernel (a subspace containing L)."""
        ker = self.matrix.left_nullspace()  # coordinates in the domain basis
        if self.direction == TANGENT:
            return _span_in_subspace(self.adapted, ker)
        return _subspace_plus_lifts(self.adapted, ker)

    def image_subspace(self) -> Subspace:
        """Tangent: preimage in P^n of the quotient image (contains L).
        Conormal: image inside L."""
        img = self.matrix.row_space_basis()  # coordinates in the codomain basis
        if self.direction == TANGENT:
            return _subspace_plus_lifts(self.adapted, img)
        return _span_in_subspace(self.adapted, img)

    def flatten(self):
        return _flat(self.matrix)

    def __repr__(self):
        return "Hom(%s, %d x %d)" % (self.direction, self.matrix.nrows, self.matrix.ncols)


class HomSpace:
    """A linear space of Homs over one adapted basis (canonical basis).

    It keeps its rank-one analysis once made, as a Subspace keeps its Pluecker
    vector: the minor ideal, and the locus `isoclass.rank_one_locus` solves from it.
    """

    __slots__ = ("direction", "adapted", "mats", "_minor_ideal", "rank_one")

    def __init__(self, direction, adapted, mats, reduce=True):
        self.direction = direction
        self.adapted = adapted
        shape = self.shape()
        if any((m.nrows, m.ncols) != shape for m in mats):
            raise ValueError("hom matrix shape differs from %r" % (shape,))
        if reduce:
            red = self._flat_matrix(mats).row_space_basis()
            mats = [_unflat(adapted.field, row, shape) for row in red.rows]
        self.mats = tuple(mats)
        self._minor_ideal = None
        self.rank_one = None  # the rank-one locus, kept by isoclass.rank_one_locus

    def _flat_matrix(self, mats):
        nr, nc = self.shape()
        return Matrix._of(self.adapted.field, tuple(_flat(m) for m in mats), nr * nc)

    @property
    def dim(self):
        return len(self.mats)

    def homs(self):
        return [Hom(self.direction, m, self.adapted) for m in self.mats]

    def shape(self):
        return _hom_shape(self.direction, self.adapted.ell, self.adapted.n)

    def contains(self, hom: Hom) -> bool:
        return row_space_contains(self._flat_matrix(self.mats), hom.flatten())

    def element(self, coeffs) -> Matrix:
        """The matrix sum_i coeffs[i] * mats[i]."""
        return _unflat(self.adapted.field, self._flat_matrix(self.mats).apply_row(coeffs), self.shape())

    def generic_element_poly_matrix(self, ring):
        """Matrix of linear forms sum_i lambda_i * mats[i] over ring (dim >= 1)."""
        nr, nc = self.shape()
        flat = linear_combinations(ring.gens(), [_flat(m) for m in self.mats])
        return [flat[i * nc : (i + 1) * nc] for i in range(nr)]

    @property
    def minor_ideal(self) -> Ideal:
        """The 2x2 minors of the generic element sum_i l_i * mats[i] (dim >= 1): its rank <= 1 scheme."""
        if self._minor_ideal is None:
            ring = PolyRing(self.adapted.field, tuple("l%d" % i for i in range(self.dim)))
            rows = self.generic_element_poly_matrix(ring)
            ncols = len(rows[0]) if rows else 0
            minors = [m for pair in combinations(rows, 2) for m in exterior_minors(pair, ncols)] if ncols >= 2 else []
            self._minor_ideal = Ideal(ring, minors)
        return self._minor_ideal

    def __repr__(self):
        return "HomSpace(%s, dim=%d)" % (self.direction, self.dim)


def stiefel_differential(adapted: AdaptedBasis, m: Matrix) -> Hom:
    """Tangent vector sending each basis row A_i to the class of m's row i.

    The kernel of this assignment is exactly the matrices whose row
    space lies inside the subspace.
    """
    if (m.nrows, m.ncols) != (adapted.ell + 1, adapted.n + 1):
        raise ValueError("direction matrix must be (ell+1) x (n+1)")
    if m.field != adapted.field:
        raise FieldMismatch("field mismatch in stiefel differential")
    return Hom(TANGENT, adapted.quotient_coords(m), adapted)


def trace_annihilator(space: HomSpace) -> HomSpace:
    """Full annihilator under the trace pairing, in the other direction.

    dim(space) + dim(annihilator) = (ell+1)(n-ell); applying the
    operation twice returns the original span.
    """
    a = space.adapted
    out_dir = CONORMAL if space.direction == TANGENT else TANGENT
    out_shape = _hom_shape(out_dir, a.ell, a.n)
    # coefficient of unknown[j,i] (row-major in the output shape) is m[i,j]
    rows = tuple(_flat(m.transpose()) for m in space.mats)
    ker = Matrix._of(a.field, rows, out_shape[0] * out_shape[1]).nullspace()
    return HomSpace(out_dir, a, [_unflat(a.field, v, out_shape) for v in ker.rows])
