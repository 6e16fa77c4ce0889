"""Dense exact linear algebra over a field (or jet ring).

Matrices are immutable tuples of tuples together with their width, so
a matrix with no rows still has a column count: the kernel of an
invertible k x k matrix is 0 x k, its transpose k x 0, a product over
an empty inner dimension is a zero matrix and a 0 x 0 determinant is 1.
One elimination pass, `_eliminate`, does all the pivoting on raw rows:
`rref` runs it as Gauss-Jordan (each pivot clears its column above and
below), `det` and `rank` run it downwards only, and inverses and
solutions go through `rref`.  `nullspace` reads its kernel rows off the
raw rows of one Gauss-Jordan pass and reduces them by a second pass,
with nothing wrapped or cleared between.  The pivot is the first unit
at or below the current row, so reduced echelon forms, kernels and
ranks are bit-stable across runs.  A matrix keeps the pivot columns of
its first elimination, and one that `rref`, `row_space_basis` or
`nullspace` returns knows that it is its own RREF, so its `rank`,
`rref` and `row_space_basis` eliminate nothing and its `nullspace`
makes only the second pass.

Elimination and products run on the raw scalars of `field.kernel` (see
`fields`), which also owns the row update of a pivot step: over F_p and
over jets the pivot row is scaled to 1, and over Q the rows are cleared
of denominators once and eliminated fraction-free on Python ints.  Rows
are unwrapped once and results wrapped into field elements once, and a
matrix built from rows that are already in its field is not coerced
again.

All maximal minors come from one routine, `exterior_minors`: it builds
v_1 ^ ... ^ v_k row by row, each minor a Laplace expansion over minors
of one row fewer that are computed once.  It divides nothing, so it
runs on ints (Q after clearing, F_p reduced mod p) and on polynomials.
Pluecker coordinates, adapted bases and dual curves all read it.
"""

from __future__ import annotations

from itertools import combinations
from operator import add, sub

from .errors import FieldMismatch, NonGeneralConfiguration


class Matrix:
    # _piv: the pivot columns of the RREF once an elimination has found them;
    # _reduced: the rows are their own RREF, so rref, rank and row_space_basis eliminate nothing
    __slots__ = ("field", "rows", "nrows", "ncols", "_piv", "_reduced")

    def __init__(self, field, rows, ncols=None):
        """Entries are coerced into field; ncols may be left out when there is at least one row."""
        rows = tuple(tuple(field.of(x) for x in r) for r in rows)
        if ncols is None:
            if not rows:
                raise ValueError("a matrix without rows needs its column count")
            ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._piv = None
        self._reduced = False

    @classmethod
    def _of(cls, field, rows, ncols, piv=None):
        """A matrix from a tuple of row tuples whose entries are already elements of field.

        Pass piv only for rows that are their own RREF with these pivot columns.
        """
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        m._piv = piv
        m._reduced = piv is not None
        return m

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls._of(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), n, tuple(range(n)))

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls._of(field, ((field.zero,) * ncols,) * nrows, ncols, ())

    # -- basics --------------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return "Matrix(%d x %d, %r)" % (self.nrows, self.ncols, self.field)

    def transpose(self):
        # zip of no rows gives no columns, hence the explicit empty ones
        return Matrix._of(self.field, tuple(zip(*self.rows)) or ((),) * self.ncols, self.nrows)

    def submatrix(self, row_idx, col_idx):
        rows = tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx)
        return Matrix._of(self.field, rows, len(col_idx))

    def _check_same_field(self, other, what):
        if other.field != self.field:
            raise FieldMismatch("%s of matrices over different fields" % what)

    def stack(self, other):
        if other.ncols != self.ncols:
            raise ValueError("column mismatch in stack")
        self._check_same_field(other, "stack")
        return Matrix._of(self.field, self.rows + other.rows, self.ncols)

    def _entrywise(self, op, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        self._check_same_field(other, "sum")
        rows = tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        return Matrix._of(self.field, rows, self.ncols)

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def scale(self, c):
        c = self.field.of(c)
        return Matrix._of(self.field, tuple(tuple(c * x for x in r) for r in self.rows), self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        self._check_same_field(other, "product")
        rows = self.field.kernel.product(self.rows, other.transpose().rows)
        return Matrix._of(self.field, rows, other.ncols)

    def apply_row(self, v):
        """Row vector times matrix: v @ self."""
        if len(v) != self.nrows:
            raise ValueError("length mismatch")
        return (Matrix(self.field, [v], self.nrows) @ self).rows[0]

    # -- elimination ----------------------------------------------------
    def _forward(self, k, above=False):
        """`_eliminate` on k's raw scalars of the rows, keeping the pivot columns: (pivot columns, rows, d, den).

        When every row has a pivot the determinant is d / den.
        """
        m, d, den = k.echelon_rows(self.rows)
        piv_cols, d, den = _eliminate(m, self.ncols, k, d, den, above)
        if self._piv is None:
            self._piv = tuple(piv_cols)
        return piv_cols, m, d, den

    def rref(self):
        """Reduced row echelon form; returns (pivot columns, Matrix)."""
        if self._reduced:
            return self._piv, self
        k = self.field.kernel
        _, m, d, _ = self._forward(k, above=True)
        return self._piv, Matrix._of(self.field, k.echelon_wrap(m, d), self.ncols, self._piv)

    def rank(self):
        if self._piv is None:
            self._forward(self.field.kernel)
        return len(self._piv)

    def row_space_basis(self):
        """Nonzero rows of the RREF."""
        piv, red = self.rref()
        if len(piv) == red.nrows:
            return red
        return Matrix._of(self.field, red.rows[: len(piv)], self.ncols, piv)

    def nullspace(self):
        """Basis (as rows, reduced echelon) of {v : self @ v = 0}.

        The kernel rows are read off the raw rows of one Gauss-Jordan pass,
        which a matrix that is its own RREF skips, and reduced by a second
        pass on them, with nothing wrapped between.
        """
        k = self.field.kernel
        if self._reduced:
            piv, m = self._piv, k.echelon_rows(self.rows)[0]
        else:
            piv, m, _, _ = self._forward(k, above=True)
        basis, d = k.kernel_rows(m, piv, self.ncols)
        kpiv, d, _ = _eliminate(basis, self.ncols, k, d, d, True)
        return Matrix._of(self.field, k.echelon_wrap(basis, d), self.ncols, tuple(kpiv))

    def left_nullspace(self):
        return self.transpose().nullspace()

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        k = self.field.kernel
        piv_cols, _, d, den = self._forward(k)
        return k.quotient(d, den) if len(piv_cols) == self.nrows else self.field.zero

    def maximal_minors(self):
        """Every maximal minor of a k x n matrix, k <= n, its column sets in lexicographic order."""
        if self.nrows > self.ncols:
            raise ValueError("more rows than columns")
        if not self.nrows:
            return (self.field.one,)
        rows, reduce, wrap = self.field.kernel.wedge_rows(self.rows)
        return tuple(wrap(exterior_minors(rows, self.ncols, reduce)))

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        eye = Matrix.identity(self.field, n).rows
        aug = Matrix._of(self.field, tuple(r + e for r, e in zip(self.rows, eye)), 2 * n)
        piv, red = aug.rref()
        if list(piv[:n]) != list(range(n)):
            raise ValueError("matrix not invertible")
        return Matrix._of(self.field, tuple(r[n:] for r in red.rows), n)

    def solve(self, b):
        """One solution x of self @ x = b (b a vector), or None."""
        bb = [self.field.of(x) for x in b]
        aug = Matrix._of(self.field, tuple(r + (x,) for r, x in zip(self.rows, bb)), self.ncols + 1)
        piv, red = aug.rref()
        if self.ncols in piv:
            return None
        z = self.field.zero
        x = [z] * self.ncols
        for r, pc in enumerate(piv):
            x[pc] = red.rows[r][self.ncols]
        return tuple(x)


def _eliminate(m, ncols, k, d, den, above):
    """The one elimination pass, in place on the rows m of k's raw scalars: (pivot columns, d, den).

    The pivot of each column is the first unit at or below the current
    row, and `k.pivot_step` clears the column with it below the pivot,
    and above it too when `above`.  A column without a unit is skipped.
    Over a field the rows left below the pivots are then zero; over jets
    a skipped column may hold nilpotents, and a nonzero row left below
    the pivots means the rank drops only to first order, which raises.
    d and den start as `k.echelon_rows` or `k.kernel_rows` leave them;
    den is negated at each row swap.
    """
    unit, nonzero, step = k.unit, k.nonzero, k.pivot_step
    nr = len(m)
    piv_cols = []
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        for sel in range(r, nr):
            if unit(m[sel][c]):
                break
        else:
            continue
        if sel != r:
            m[r], m[sel] = m[sel], m[r]
            den = k.neg(den)
        d = step(m, r, c, d, above)
        piv_cols.append(c)
        r += 1
    if any(nonzero(x) for row in m[r:] for x in row):
        raise NonGeneralConfiguration("rank drops to first order")
    return piv_cols, d, den


def row_space_contains(a: Matrix, v) -> bool:
    """Is the vector v in the row space of a?"""
    ext = a.stack(Matrix(a.field, [v]))
    return ext.rank() == a.rank()


def exterior_minors(rows, ncols, reduce=None):
    """The coordinates of v_1 ^ ... ^ v_k for the rows v_i (1 <= k <= ncols): every maximal minor,
    column sets in lexicographic order.

    The wedge is built row by row: the minor of the first j rows on a
    column set S is the Laplace expansion along row j over the minors
    of the first j - 1 rows on S less one column, each computed once
    and looked up by its column bitmask.  Nothing is divided, so the
    entries may come from any commutative ring with Python's +, -, *
    and truth value (ints, polynomials, jets); `reduce`, if given,
    brings each minor to canonical form (x % p over F_p).
    """
    units = [(c, 1 << c) for c in range(ncols)]
    layer = {b: x for (_, b), x in zip(units, rows[0])}
    for j in range(1, len(rows)):
        v = rows[j]
        nxt = {}
        for cols in combinations(units, j + 1):
            mask = sum(b for _, b in cols)
            acc = None
            for t, (c, b) in enumerate(cols):
                x, w = v[c], layer[mask ^ b]
                if x and w:
                    term = x * w
                    if (j + t) & 1:  # the sign of entry (j, t) of the square minor
                        term = -term
                    acc = term if acc is None else acc + term
            if acc is None:  # every term vanishes: a zero of the entries' own kind
                c, b = cols[0]
                acc = v[c] * layer[mask ^ b]
            nxt[mask] = acc if reduce is None else reduce(acc)
        layer = nxt
    return list(layer.values())
