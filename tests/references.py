"""Reference constructions that only the tests use.

Hom transport by an action, the alpha- and beta-spaces, the duality
L -> Ann(L) on subspaces and Homs, two stock varieties, and the local
multiplicity of an ideal at a point in at most two variables.  No
command computes them; the tests check the paper's facts and the
zero-dimensional solver with them.  Test files import them as
`from references import ...`.
"""

from itertools import combinations_with_replacement

from grassgeo import univariate
from grassgeo.grassmann import (
    CONORMAL,
    TANGENT,
    AdaptedBasis,
    Hom,
    HomSpace,
    Subspace,
    adapted_basis,
    stiefel_differential,
)
from grassgeo.groebner import buchberger
from grassgeo.linalg import Matrix
from grassgeo.poly import Ideal, monomial_divides, standard_ring
from grassgeo.projvar import ProjVariety
from grassgeo.varieties import rational_normal_curve


def same_span(a: HomSpace, b: HomSpace) -> bool:
    """Equal spans of two Hom spaces in one adapted basis: both keep the canonical basis."""
    assert a.adapted.subspace.basis == b.adapted.subspace.basis, "spaces at different subspace bases"
    assert a.adapted.complement_columns == b.adapted.complement_columns, "spaces at different complements"
    return a.direction == b.direction and a.mats == b.mats


def tangent_from_action(adapted: AdaptedBasis, domain_rows: Matrix, image_rows: Matrix) -> Hom:
    """Tangent hom defined by row_i(domain) |-> class of row_i(image).

    domain_rows must be a basis of the subspace (ValueError otherwise);
    the action is rewritten on the adapted rows by inverting the change
    of basis.
    """
    change = adapted.subspace_coords(domain_rows).inverse()  # adapted row i = sum_j change[i,j] * domain_j
    return stiefel_differential(adapted, change @ image_rows)


def conormal_from_action(adapted: AdaptedBasis, domain_lifts: Matrix, image_rows: Matrix) -> Hom:
    """Conormal hom defined on quotient classes of the given lifts.

    domain_lifts: (n-ell) vectors of K^{n+1} whose classes span the
    quotient; image_rows: their images inside the subspace.
    """
    e = adapted.quotient_coords(domain_lifts).inverse()  # unit class j = sum_k e[j,k] * class(domain_k)
    return Hom(CONORMAL, adapted.subspace_coords(e @ image_rows), adapted)


def homs_with_kernel_containing(adapted: AdaptedBasis, inner: Subspace) -> HomSpace:
    """All tangent homs vanishing on a subspace of L (an alpha-space
    when inner is a hyperplane of L)."""
    a = adapted
    left = a.subspace_coords(inner.basis).nullspace()
    z = a.field.zero
    nc = a.n - a.ell
    mats = []
    for u in left.rows:
        for j in range(nc):
            rows = tuple(tuple(x if t == j else z for t in range(nc)) for x in u)
            mats.append(Matrix._of(a.field, rows, nc))
    return HomSpace(TANGENT, a, mats)


def homs_with_image_in(adapted: AdaptedBasis, outer: Subspace) -> HomSpace:
    """All tangent homs with image inside (outer + L)/L (a beta-space
    when outer has dimension ell+1 and contains L)."""
    a = adapted
    q = a.quotient_coords(outer.basis).row_space_basis()
    zero_row = (a.field.zero,) * (a.n - a.ell)
    mats = []
    for i in range(a.ell + 1):
        for w in q.rows:
            rows = tuple(w if k == i else zero_row for k in range(a.ell + 1))
            mats.append(Matrix._of(a.field, rows, a.n - a.ell))
    return HomSpace(TANGENT, a, mats)


def perp_dual(s: Subspace) -> Subspace:
    """Annihilator subspace in the dual space: L |-> Ann(L).

    perp_dual(perp_dual(s)) has the same row space as s; the perp of
    the full space is the empty subspace (dimension -1).
    """
    return Subspace(s.field, s.n, s.basis.nullspace(), check=False)


def perp_dual_hom(h: Hom) -> Hom:
    """Transport of a tangent/conormal vector along L |-> Ann(L).

    Tangent vectors go to tangent vectors of the dual Grassmannian,
    conormal to conormal; rank is preserved, and kernels/images swap:
    an alpha-structure becomes a beta-structure.
    """
    a = h.adapted
    field = a.field
    ell, n = a.ell, a.n
    ga = a.full_inv.transpose()  # rows: dual basis of the adapted rows
    dual_sub = ga.submatrix(range(ell + 1, n + 1), range(n + 1))  # basis of Ann(L)
    dual_quot = ga.submatrix(range(ell + 1), range(n + 1))  # classes spanning K*/Ann(L)
    pa = adapted_basis(Subspace(field, n, dual_sub, check=False))
    m = h.matrix
    if h.direction == TANGENT:
        # phi*(dual of quotient class j) = sum_i M[i,j] * (dual of A_i)
        return tangent_from_action(pa, dual_sub, m.transpose() @ dual_quot)
    # conormal: psi*(class of dual A_i) = sum_j M[j,i] * (dual of quotient class j)
    return conormal_from_action(pa, dual_quot, m.transpose() @ dual_sub)


def plane_conic(field) -> ProjVariety:
    return rational_normal_curve(field, 2)


def fermat_hypersurface(field, n, degree) -> ProjVariety:
    ring = standard_ring(field, n + 1)
    f = ring.zero()
    for x in ring.gens():
        f = f + x**degree
    return ProjVariety(ring, [f])


def _staircase_count(leads, cap):
    """Number of monomials under the staircase in <= 2 variables."""
    nv = len(leads[0]) if leads else 2
    count = 0
    for a in range(cap + 1):
        for b in range(cap + 1) if nv == 2 else [0]:
            e = (a, b) if nv == 2 else (a,)
            if not any(monomial_divides(lead, e) for lead in leads):
                count += 1
    return count


def local_multiplicity(ideal: Ideal, point, cap=24):
    """Vector-space dimension of the local quotient at the point, in one or two variables.

    One variable: the valuation at the point of the gcd.  Two: the
    staircase count of the ideal truncated by increasing powers of the
    maximal ideal, which stabilizes at the local dimension for an
    isolated point and grows without bound otherwise.  A point off the
    zero set, more than two variables and a point that is not isolated
    raise ValueError.
    """
    ring = ideal.ring
    nv = ring.nvars
    if nv > 2:
        raise ValueError("local multiplicity supports at most 2 parameters")
    pt = [ring.field.of(x) for x in point]
    for g in ideal.gens:
        if g.evaluate(pt):
            raise ValueError("point is not on the zero set")
    # translate the point to the origin
    images = [ring.var(i) + ring.const(pt[i]) for i in range(nv)]
    gens = [g for g in (g.substitute(ring, images) for g in ideal.gens) if g]
    if not gens:
        raise ValueError("zero ideal: the point is not isolated")
    if nv == 1:
        return univariate.valuation(univariate.poly_gcd(gens))
    prev = None
    for depth in range(2, cap + 1):
        trunc = [
            ring.monomial(e)
            for e in (
                tuple(sum(1 for x in c if x == i) for i in range(nv))
                for c in combinations_with_replacement(range(nv), depth)
            )
        ]
        leads = [g.lead()[0] for g in buchberger(gens + trunc)]
        count = _staircase_count(leads, depth)
        if prev is not None and count == prev:
            return count
        prev = count
    raise ValueError("staircase count did not stabilize (cap %d): the point is not isolated" % cap)
