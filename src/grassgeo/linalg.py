"""Dense exact linear algebra over a field (or jet ring).

Matrices are immutable tuples of tuples together with their width, so
a matrix with no rows still has a column count: the kernel of an
invertible k x k matrix is 0 x k, its transpose k x 0, a product over
an empty inner dimension is a zero matrix and a 0 x 0 determinant is 1.
All pivoting is deterministic: the pivot is the first unit in column
order, so reduced echelon forms, kernels and ranks are bit-stable
across runs.
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
    def rref(self):
        """Reduced row echelon form; returns (pivot columns, Matrix)."""
        m = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        piv_cols = []
        r = 0
        for c in range(nc):
            if r == nr:
                break
            sel = None
            for i in range(r, nr):
                if _is_unit(m[i][c]):
                    sel = i
                    break
            if sel is None:
                for i in range(r, nr):
                    if m[i][c]:
                        # nonzero non-unit: only possible over jets
                        raise NonGeneralConfiguration(
                            "nilpotent pivot in column %d" % c
                        )
                continue
            if sel != r:
                m[r], m[sel] = m[sel], m[r]
            inv = self.field.one / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(nr):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            piv_cols.append(c)
            r += 1
        return tuple(piv_cols), Matrix(self.field, m, nc)

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
        m = [list(r) for r in self.rows]
        n = self.nrows
        sign = 1
        acc = self.field.one
        for c in range(n):
            sel = None
            for i in range(c, n):
                if _is_unit(m[i][c]):
                    sel = i
                    break
            if sel is None:
                for i in range(c, n):
                    if m[i][c]:
                        raise NonGeneralConfiguration("nilpotent pivot in det")
                return self.field.zero
            if sel != c:
                m[c], m[sel] = m[sel], m[c]
                sign = -sign
            acc = acc * m[c][c]
            inv = self.field.one / m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return acc if sign == 1 else -acc

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
