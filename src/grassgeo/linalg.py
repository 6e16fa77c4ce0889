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
"""

from __future__ import annotations

from operator import mul

from .errors import FieldMismatch, NonGeneralConfiguration


def _is_unit(x):
    if hasattr(x, "is_unit"):
        return x.is_unit()
    return bool(x)


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, ncols=None):
        """ncols may be left out when there is at least one row."""
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

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

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
        return Matrix(self.field, list(zip(*self.rows)) or [()] * self.ncols, self.nrows)

    def submatrix(self, row_idx, col_idx):
        return Matrix(self.field, [[self.rows[i][j] for j in col_idx] for i in row_idx], len(col_idx))

    def stack(self, other):
        if other.ncols != self.ncols:
            raise ValueError("column mismatch in stack")
        if other.field != self.field:
            raise FieldMismatch("stacking matrices over different fields")
        return Matrix(self.field, self.rows + other.rows, self.ncols)

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            self.field,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def scale(self, c):
        c = self.field.of(c)
        return Matrix(self.field, [[c * x for x in r] for r in self.rows], self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        cols = other.transpose().rows
        z = self.field.zero
        return Matrix(
            self.field,
            [[_dot(r, c, z) for c in cols] for r in self.rows],
            other.ncols,
        )

    def apply_row(self, v):
        """Row vector times matrix: v @ self."""
        if len(v) != self.nrows:
            raise ValueError("length mismatch")
        cols = self.transpose().rows
        z = self.field.zero
        return tuple(_dot(v, c, z) for c in cols)

    # -- elimination ----------------------------------------------------
    def _forward(self):
        """The one elimination pass: (pivot columns, row lists, signed pivot product).

        The pivot of each column is the first unit at or below the
        current row; its row is scaled to 1 and the entries below it are
        cleared.  A column without a unit is skipped.  Over a field the
        rows left below the pivots are then zero; over jets a skipped
        column may hold nilpotents, and a nonzero row left below the
        pivots means the rank drops only to first order, which raises.
        """
        m = [list(r) for r in self.rows]
        nr = self.nrows
        one = self.field.one
        piv_cols = []
        prod = one
        r = 0
        for c in range(self.ncols):
            if r == nr:
                break
            for sel in range(r, nr):
                if _is_unit(m[sel][c]):
                    break
            else:
                continue
            if sel != r:
                m[r], m[sel] = m[sel], m[r]
                prod = -prod
            prod = prod * m[r][c]
            inv = one / m[r][c]
            pr = m[r] = [x * inv if x else x for x in m[r]]
            for i in range(r + 1, nr):
                if m[i][c]:
                    m[i] = _subtract_multiple(m[i], m[i][c], pr)
            piv_cols.append(c)
            r += 1
        if any(x for row in m[r:] for x in row):
            raise NonGeneralConfiguration("rank drops to first order")
        return piv_cols, m, prod

    def rref(self):
        """Reduced row echelon form; returns (pivot columns, Matrix)."""
        piv_cols, m, _ = self._forward()
        for r in reversed(range(len(piv_cols))):
            c = piv_cols[r]
            for i in range(r):
                if m[i][c]:
                    m[i] = _subtract_multiple(m[i], m[i][c], m[r])
        return tuple(piv_cols), Matrix(self.field, m, self.ncols)

    def rank(self):
        return len(self.rref()[0])

    def row_space_basis(self):
        """Nonzero rows of the RREF."""
        piv, red = self.rref()
        return Matrix(self.field, red.rows[: len(piv)], self.ncols)

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
            basis.append(v)
        return Matrix(self.field, basis, self.ncols).row_space_basis()

    def left_nullspace(self):
        return self.transpose().nullspace()

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        piv_cols, _, prod = self._forward()
        return prod if len(piv_cols) == self.nrows else self.field.zero

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        aug = Matrix(
            self.field,
            [list(r) + list(e) for r, e in zip(self.rows, Matrix.identity(self.field, self.nrows).rows)],
            2 * self.nrows,
        )
        piv, red = aug.rref()
        if list(piv[: self.nrows]) != list(range(self.nrows)):
            raise ValueError("matrix not invertible")
        return Matrix(self.field, [r[self.nrows :] for r in red.rows], self.nrows)

    def solve(self, b):
        """One solution x of self @ x = b (b a vector), or None."""
        bb = [self.field.of(x) for x in b]
        aug = Matrix(self.field, [list(r) + [x] for r, x in zip(self.rows, bb)], self.ncols + 1)
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


def _subtract_multiple(row, f, pivot_row):
    """row - f * pivot_row; the zeros of pivot_row (its leading columns, over a field) cost nothing."""
    return [a - f * b if b else a for a, b in zip(row, pivot_row)]


def _dot(u, v, zero):
    products = map(mul, u, v)
    return sum(products, next(products, zero))


def rank_kernel(m: Matrix):
    """(rank, kernel basis rows, row space basis rows), all reduced echelon."""
    piv, red = m.rref()
    rank = len(piv)
    row_basis = Matrix(m.field, red.rows[:rank], m.ncols)
    return rank, m.nullspace(), row_basis


def row_space_contains(a: Matrix, v) -> bool:
    """Is the vector v in the row space of a?"""
    ext = a.stack(Matrix(a.field, [v]))
    return ext.rank() == a.rank()
