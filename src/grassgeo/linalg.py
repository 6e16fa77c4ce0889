"""Dense exact linear algebra over a field (or jet ring).

Matrices are immutable tuples of tuples together with their width, so
a matrix with no rows still has a column count: the kernel of an
invertible k x k matrix is 0 x k, its transpose k x 0, a product over
an empty inner dimension is a zero matrix and a 0 x 0 determinant is 1.
One forward elimination pass does all the pivoting: `rref` adds the
back substitution to it, `det` reads the signed product of its pivots,
and rank, kernels, inverses and solutions all go through `rref`.  The
pivot is the first unit at or below the current row, so reduced
echelon forms, kernels and ranks are bit-stable across runs.

Elimination and products run on the raw scalars of `field.kernel` (see
`fields`): rows are unwrapped once and results wrapped into field
elements once, and a matrix built from rows that are already in its
field is not coerced again.
"""

from __future__ import annotations

from operator import add, sub

from .errors import FieldMismatch, NonGeneralConfiguration


def _wrap(k, rows):
    """Row tuples of field elements from rows of k's raw scalars."""
    wrap = k.wrap
    return tuple(tuple(wrap(r)) for r in rows)


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

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

    @classmethod
    def _of(cls, field, rows, ncols):
        """A matrix from a tuple of row tuples whose entries are already elements of field."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls._of(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), n)

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls._of(field, ((field.zero,) * ncols,) * nrows, ncols)

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
        k = self.field.kernel
        cols = list(map(k.unwrap, other.transpose().rows))
        dot = k.dot
        rows = _wrap(k, [[dot(r, c) for c in cols] for r in map(k.unwrap, self.rows)])
        return Matrix._of(self.field, rows, other.ncols)

    def apply_row(self, v):
        """Row vector times matrix: v @ self."""
        if len(v) != self.nrows:
            raise ValueError("length mismatch")
        return (Matrix(self.field, [v], self.nrows) @ self).rows[0]

    # -- elimination ----------------------------------------------------
    def _forward(self, k):
        """The one elimination pass, on k's raw scalars: (pivot columns, rows, signed pivot product).

        The pivot of each column is the first unit at or below the
        current row; its row is scaled to 1 and the entries below it are
        cleared.  A column without a unit is skipped.  Over a field the
        rows left below the pivots are then zero; over jets a skipped
        column may hold nilpotents, and a nonzero row left below the
        pivots means the rank drops only to first order, which raises.
        """
        m = list(map(k.unwrap, self.rows))
        unit, nonzero, axpy = k.unit, k.nonzero, k.axpy
        nr = self.nrows
        piv_cols = []
        prod = k.one
        r = 0
        for c in range(self.ncols):
            if r == nr:
                break
            for sel in range(r, nr):
                if unit(m[sel][c]):
                    break
            else:
                continue
            if sel != r:
                m[r], m[sel] = m[sel], m[r]
                prod = k.neg(prod)
            prod = k.mul(prod, m[r][c])
            pr = m[r] = k.scale(m[r], k.inv(m[r][c]))
            for i in range(r + 1, nr):
                if nonzero(m[i][c]):
                    m[i] = axpy(m[i], m[i][c], pr)
            piv_cols.append(c)
            r += 1
        if any(nonzero(x) for row in m[r:] for x in row):
            raise NonGeneralConfiguration("rank drops to first order")
        return piv_cols, m, prod

    def rref(self):
        """Reduced row echelon form; returns (pivot columns, Matrix)."""
        k = self.field.kernel
        piv_cols, m, _ = self._forward(k)
        for r in reversed(range(len(piv_cols))):
            c = piv_cols[r]
            for i in range(r):
                if k.nonzero(m[i][c]):
                    m[i] = k.axpy(m[i], m[i][c], m[r])
        return tuple(piv_cols), Matrix._of(self.field, _wrap(k, m), self.ncols)

    def rank(self):
        return len(self.rref()[0])

    def row_space_basis(self):
        """Nonzero rows of the RREF."""
        piv, red = self.rref()
        return Matrix._of(self.field, red.rows[: len(piv)], self.ncols)

    def nullspace(self):
        """Basis (as rows, reduced echelon) of {v : self @ v = 0}."""
        piv, red = self.rref()
        free = [c for c in range(self.ncols) if c not in piv]
        z, o = self.field.zero, self.field.one
        basis = []
        for fc in free:
            v = [z] * self.ncols
            v[fc] = o
            for r, pc in enumerate(piv):
                v[pc] = -red.rows[r][fc]
            basis.append(tuple(v))
        return Matrix._of(self.field, tuple(basis), self.ncols).row_space_basis()

    def left_nullspace(self):
        return self.transpose().nullspace()

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        k = self.field.kernel
        piv_cols, _, prod = self._forward(k)
        return k.wrap([prod])[0] if len(piv_cols) == self.nrows else self.field.zero

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

    def is_zero(self):
        return all(not x for r in self.rows for x in r)


def rank_kernel(m: Matrix):
    """(rank, kernel basis rows, row space basis rows), all reduced echelon."""
    piv, red = m.rref()
    rank = len(piv)
    row_basis = Matrix._of(m.field, red.rows[:rank], m.ncols)
    return rank, m.nullspace(), row_basis


def row_space_contains(a: Matrix, v) -> bool:
    """Is the vector v in the row space of a?"""
    ext = a.stack(Matrix(a.field, [v]))
    return ext.rank() == a.rank()
