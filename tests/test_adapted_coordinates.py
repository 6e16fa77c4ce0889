"""Adapted coordinates come from one kept-block inverse and one product per matrix, and each matrix is
eliminated once.

The oracles: `full.inverse()` for the closed-form inverse of an adapted
basis, per-row products with it for the coordinate matrices, and the
kernel read off a wrapped RREF and reduced by a second `rref` for
`nullspace`.  The counts pin one `sample-associated` report over Q and
one `contact` report over F_32003.
"""

import contextlib
import io
import random

import pytest

from grassgeo import cli, fields, linalg
from grassgeo.errors import NonGeneralConfiguration
from grassgeo.fields import GF, QQ, PrimeField
from grassgeo.grassmann import adapted_basis, subspace_from_rows
from grassgeo.jets import JetRing
from grassgeo.linalg import Matrix

FIELDS = [QQ, GF(2), GF(3), GF(32003)]
LEVELS = [(n, ell) for n in (2, 3, 4, 5) for ell in range(n)]


def _seeded_bases(field, rng):
    """(n, ell, rows) for full-rank bases of ell-planes in P^n, most of them zero at some columns, so that
    their complements are seldom the first columns."""
    for n, ell in LEVELS:
        for _ in range(8):
            zero = set(rng.sample(range(n + 1), rng.randrange(n - ell + 1)))
            rows = [[0 if j in zero else rng.randrange(-4, 5) for j in range(n + 1)] for _ in range(ell + 1)]
            if Matrix(field, rows).rank() == ell + 1:
                yield n, ell, rows


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_the_closed_form_inverse_is_the_inverse(field):
    rng = random.Random("adapted-inverse/%r" % field)
    levels, moved = set(), 0
    for n, ell, rows in _seeded_bases(field, rng):
        a = adapted_basis(subspace_from_rows(field, n, rows))
        assert a.full_inv == a.full.inverse()
        levels.add((n, ell))
        comp = a.complement_columns
        moved += comp != tuple(range(n - ell)) and comp != tuple(range(ell + 1, n + 1))
    assert levels == set(LEVELS)
    assert moved >= 20  # complements that are neither the first nor the last columns


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_coordinates_by_matrix_are_per_row_products_with_the_inverse(field):
    rng = random.Random("adapted-coords/%r" % field)
    for n, ell, rows in _seeded_bases(field, rng):
        a = adapted_basis(subspace_from_rows(field, n, rows))
        inv, k = a.full.inverse(), ell + 1

        def per_row(v):
            return (Matrix(field, [v]) @ inv).rows[0]

        vectors = Matrix(field, [[rng.randrange(-5, 6) for _ in range(n + 1)] for _ in range(rng.randrange(4))], n + 1)
        q = a.quotient_coords(vectors)
        assert (q.nrows, q.ncols) == (vectors.nrows, n - ell)
        assert q.rows == tuple(per_row(v)[k:] for v in vectors.rows)
        for v in vectors.rows:  # a single vector is the one-row case
            assert a.quotient_coords(Matrix(field, [v])).rows == (per_row(v)[k:],)

        coeffs = Matrix(field, [[rng.randrange(-5, 6) for _ in range(k)] for _ in range(rng.randrange(1, 4))])
        inside = coeffs @ a.subspace.basis
        s = a.subspace_coords(inside)
        assert s == coeffs
        assert s.rows == tuple(per_row(v)[:k] for v in inside.rows)
        assert a.quotient_coords(inside) == Matrix.zero(field, inside.nrows, n - ell)
        if ell < n:
            outside = Matrix(field, [[int(j == a.complement_columns[0]) for j in range(n + 1)]])
            with pytest.raises(ValueError, match="not in the subspace"):
                a.subspace_coords(inside.stack(outside))


# -- nullspace against the two-rref path --------------------------------------------------------------


def _two_rref_nullspace(m):
    """Reference: kernel rows read off the wrapped RREF, then reduced by a second rref."""
    piv, red = m.rref()
    z, o = m.field.zero, m.field.one
    basis = []
    for fc in range(m.ncols):
        if fc not in piv:
            v = [z] * m.ncols
            v[fc] = o
            for r, pc in enumerate(piv):
                v[pc] = -red.rows[r][fc]
            basis.append(v)
    return Matrix(m.field, basis, m.ncols).row_space_basis()


def _entry(field, rng):
    if field.kind == "jet":
        base = field.base
        value = base.of(rng.randrange(-2, 3)) if rng.random() < 0.8 else base.zero
        return field.variable(value, base.of(rng.randrange(-2, 3)))
    return field.of(rng.randrange(-3, 4))


@pytest.mark.parametrize(
    "field", [QQ, GF(2), GF(3), GF(32003), JetRing(QQ), JetRing(GF(32003))], ids=repr
)
def test_nullspace_is_the_two_rref_kernel(field):
    rng = random.Random("nullspace/%r" % field)
    compared = 0
    for _ in range(80):
        nrows, ncols = rng.randrange(5), rng.randrange(6)
        rows = [[_entry(field, rng) for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 2 and rng.random() < 0.4:
            rows[-1] = list(rows[0])
        try:
            want = _two_rref_nullspace(Matrix(field, rows, ncols))
        except NonGeneralConfiguration:
            with pytest.raises(NonGeneralConfiguration, match="first order"):
                Matrix(field, rows, ncols).nullspace()
            continue
        assert Matrix(field, rows, ncols).nullspace() == want
        # the known-RREF path reads the kernel off the matrix itself
        assert Matrix(field, rows, ncols).rref()[1].nullspace() == want
        assert Matrix(field, rows, ncols).row_space_basis().nullspace() == want
        compared += 1
    assert compared >= 60


@pytest.mark.parametrize("base", [QQ, GF(32003)], ids=repr)
def test_a_first_order_rank_drop_still_raises_in_nullspace(base):
    jr = JetRing(base)
    eps = jr.variable(0)
    with pytest.raises(NonGeneralConfiguration, match="first order"):
        Matrix(jr, [[1, 0], [0, eps]]).nullspace()
    assert Matrix(jr, [[eps, 1]]).nullspace() == Matrix(jr, [[1, -eps]])


def test_a_known_rref_is_not_eliminated_again(monkeypatch):
    passes = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda m, *args: passes.append(len(m)) or eliminate(m, *args))
    m = Matrix(QQ, [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 1]])
    piv, red = m.rref()
    assert passes == [3]
    assert m.rank() == 2 and passes == [3]  # the pivots of an elimination are kept
    assert red.rref() == (piv, red) and red.rank() == 2
    basis = red.row_space_basis()
    assert basis.rows == red.rows[:2] and basis.rref() == (piv, basis)
    assert passes == [3]
    ker = red.nullspace()  # one pass, on the kernel rows
    assert passes == [3, 2]
    assert ker.rank() == 2 and ker.rref() == ((0, 1), ker) and ker.row_space_basis() is ker
    assert m.nullspace() == ker  # two passes: m, then its kernel rows
    assert passes == [3, 2, 3, 2]


# -- counts per report ---------------------------------------------------------------------------------

ASSOCIATED_REPORT = "sample-associated --variety segre-2x4 --ell %d --field q"
CONTACT_REPORT = ["contact", "--f", "x0^3 + x1^3 + x2^3 + x3^3 + 13041*x0*x1*x2", "--n", "3", "--m", "3",
                  "--field", "fp:32003", "--samples", "10", "--seed", "130362"]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_an_associated_report_inverts_kept_blocks_and_eliminates_each_matrix_once(monkeypatch):
    inverted, eliminated, reduced, cleared = [], [], [], []

    def recorded(name, record):
        original = getattr(Matrix, name)

        def wrapper(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            record(self, out)
            return out

        monkeypatch.setattr(Matrix, name, wrapper)

    recorded("inverse", lambda self, out: inverted.append(self.nrows))
    recorded("_forward", lambda self, out: eliminated.append(self))
    recorded("rref", lambda self, out: reduced.append(out[1]))
    recorded("row_space_basis", lambda self, out: reduced.append(out))
    recorded("nullspace", lambda self, out: reduced.append(out))
    clear = fields._cleared
    monkeypatch.setattr(fields, "_cleared", lambda row: cleared.append(1) or clear(row))
    # below codim X = 3 the conormal maps read quotient coordinates: one 3-square kept block per
    # sample's adapted basis, where the 8-square full matrix was inverted before
    # from codim X on they are read off the sample's normal and Jacobian, with no inverse: at level 4
    # the witness formula inverted a 5-square block per sample with 785 clearings
    for ell, inverses, clearings in ((2, [3] * 5, 625), (4, [], 805)):
        for record in (inverted, eliminated, reduced, cleared):
            record.clear()
        _run((ASSOCIATED_REPORT % ell).split())
        assert inverted == inverses
        known = {id(m) for m in reduced}  # `reduced` keeps them alive, so their ids stay theirs
        assert eliminated and not any(id(m) in known for m in eliminated)
        assert len(cleared) == clearings


def test_a_contact_report_coerces_only_its_inputs(monkeypatch):
    coerced = []
    of = PrimeField.of
    monkeypatch.setattr(PrimeField, "of", lambda self, x: coerced.append(1) or of(self, x))
    _run(CONTACT_REPORT)
    # the cone flag reads the tangent space sampled with its point, and a Jacobian lifts only its
    # constant partials, of which this surface has none; the flag's rows restrict the partials of f
    # to the line once, and the family's tangent space reads that restriction off the contact line
    assert len(coerced) == 3133  # 6473 before kept blocks, 3985 before these two, 3633 with the second
    # chart, 3603 with a second restriction for the tangent space, 3213 while the rank-one point's
    # multiplicity came from a separate local quotient that coerced the point
