import random

import pytest

from grassgeo.fields import GF, QQ
from grassgeo.grassmann import (
    CONORMAL,
    TANGENT,
    Hom,
    HomSpace,
    Subspace,
    adapted_basis,
    evaluate_pluecker,
    hyperplane_subspace,
    pluecker_embed,
    point_subspace,
    pluecker_relations,
    stiefel_differential,
    subspace_from_rows,
    trace_annihilator,
)
from grassgeo.isoclass import alpha_beta_type
from grassgeo.linalg import Matrix
from references import (
    conormal_from_action,
    homs_with_image_in,
    homs_with_kernel_containing,
    perp_dual,
    perp_dual_hom,
    same_span,
    tangent_from_action,
)


# -- references: subspace operations only these tests use ---------------------------------------------


def empty_subspace(field, n) -> Subspace:
    return Subspace(field, n, Matrix.zero(field, 0, n + 1), check=False)


def sum_subspaces(a: Subspace, b: Subspace) -> Subspace:
    return Subspace(a.field, a.n, a.basis.stack(b.basis).row_space_basis(), check=False)


def intersect_subspaces(a: Subspace, b: Subspace) -> Subspace:
    """Row-space intersection: solve x*A = y*B."""
    stacked = a.basis.stack(b.basis).transpose()  # columns: A rows then B rows
    ker = stacked.nullspace()  # rows (x, -y) with x*A = y*B
    xs = ker.submatrix(range(ker.nrows), range(a.basis.nrows))
    return Subspace(a.field, a.n, (xs @ a.basis).row_space_basis(), check=False)


def trace_pairing(phi: Hom, psi: Hom):
    """tr(psi o phi) for a tangent/conormal pair at the same L."""
    if phi.direction == psi.direction:
        raise ValueError("trace pairing needs opposite directions")
    t, c = (phi, psi) if phi.direction == TANGENT else (psi, phi)
    composite = t.matrix @ c.matrix
    return sum((composite[i, i] for i in range(composite.nrows)), t.adapted.field.zero)


def _rand_full_rank(field, rng, rows, cols):
    while True:
        m = Matrix(field, [[field.random(rng) for _ in range(cols)] for _ in range(rows)])
        if m.rank() == rows:
            return m


def test_pluecker_embed_units():
    s = subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert list(s.pluecker) == [1, 0, 0, 0, 0, 0]
    s2 = subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert list(s2.pluecker) == [0, 1, 0, 0, 0, 0]


def test_pluecker_embed_minors():
    s = subspace_from_rows(QQ, 3, [[1, 2, 3, 4], [5, 6, 7, 8]])
    assert list(s.pluecker) == [-4, -8, -12, -4, -8, -4]


def test_pluecker_embed_rejects_rank_deficient():
    with pytest.raises(ValueError):
        pluecker_embed(QQ, Matrix(QQ, [[1, 2, 3, 4], [2, 4, 6, 8]]))


def test_pluecker_scaling_covariance():
    rng = random.Random(11)
    F = GF(101)
    for _ in range(10):
        a = _rand_full_rank(F, rng, 2, 4)
        g = _rand_full_rank(F, rng, 2, 2)
        s1 = pluecker_embed(F, a)
        s2 = pluecker_embed(F, g @ a)
        d = g.det()
        assert list(s2.pluecker) == [d * x for x in s1.pluecker]


def test_pluecker_relations_gr13():
    i = pluecker_relations(QQ, 1, 3)
    assert len(i.gens) == 1
    g = i.gens[0]
    R = i.ring
    p01, p02, p03, p12, p13, p23 = R.gens()
    target = p01 * p23 - p02 * p13 + p03 * p12
    assert g == target.monic() or g == (-target).monic()


def test_pluecker_relations_point_space():
    assert len(pluecker_relations(QQ, 0, 4).gens) == 0


def test_pluecker_relations_gr14_count_and_vanishing():
    i = pluecker_relations(GF(32003), 1, 4)
    assert len(i.gens) == 5
    rng = random.Random(2)
    F = GF(32003)
    for _ in range(100):
        s = pluecker_embed(F, _rand_full_rank(F, rng, 2, 5))
        assert all(not evaluate_pluecker(g, s) for g in i.gens)


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_pluecker_relations_vanish_on_embeds(field):
    rng = random.Random(5)
    i = pluecker_relations(field, 1, 3)
    for _ in range(100):
        s = pluecker_embed(field, _rand_full_rank(field, rng, 2, 4))
        assert all(not evaluate_pluecker(g, s) for g in i.gens)


def test_adapted_basis_lexicographic_first():
    s = subspace_from_rows(QQ, 3, [[0, 0, 1, 0], [0, 0, 0, 1]])
    a = adapted_basis(s)
    assert a.complement_columns == (0, 1)
    assert a.full.rank() == 4


def test_stiefel_kernel_rows_inside_subspace():
    s = subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    a = adapted_basis(s)
    m = Matrix(QQ, [[3, 4, 0, 0], [1, -1, 0, 0]])
    h = stiefel_differential(a, m)
    assert h.matrix == Matrix.zero(QQ, 2, 2)


def test_stiefel_basic_action():
    s = subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    a = adapted_basis(s)
    m = Matrix(QQ, [[0, 0, 1, 0], [0, 0, 0, 0]])
    h = stiefel_differential(a, m)
    assert h.matrix == Matrix(QQ, [[1, 0], [0, 0]])
    assert h.rank() == 1


def test_stiefel_change_of_basis_consistency():
    rng = random.Random(9)
    F = GF(101)
    for _ in range(20):
        a_mat = _rand_full_rank(F, rng, 2, 4)
        m = Matrix(F, [[F.random(rng) for _ in range(4)] for _ in range(2)])
        g = _rand_full_rank(F, rng, 2, 2)
        s = Subspace(F, 3, a_mat)
        ab = adapted_basis(s)
        h1 = stiefel_differential(ab, m)
        # same abstract hom from the transformed pair, rebased to rows of A
        h2 = tangent_from_action(ab, g @ a_mat, g @ m)
        assert h1.matrix == h2.matrix


def test_stiefel_surjective():
    rng = random.Random(4)
    F = GF(101)
    s = Subspace(F, 4, _rand_full_rank(F, rng, 2, 5))
    a = adapted_basis(s)
    seen = []
    for _ in range(40):
        m = Matrix(F, [[F.random(rng) for _ in range(5)] for _ in range(2)])
        seen.append(stiefel_differential(a, m).flatten())
    assert Matrix(F, seen).rank() == (s.ell + 1) * (s.n - s.ell)


def _tangent_space_constrained():
    # L = <e0, e1> in P3; T = {phi : phi(e0) in <e2-class>}
    s = subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    a = adapted_basis(s)
    mats = [
        Matrix(QQ, [[1, 0], [0, 0]]),
        Matrix(QQ, [[0, 0], [1, 0]]),
        Matrix(QQ, [[0, 0], [0, 1]]),
    ]
    return a, HomSpace(TANGENT, a, mats)


def test_trace_annihilator_example():
    a, t = _tangent_space_constrained()
    ann = trace_annihilator(t)
    assert ann.dim == 1
    psi = ann.homs()[0]
    assert psi.direction == CONORMAL
    assert psi.rank() == 1
    # e3-class |-> e0, e2-class |-> 0
    assert psi.matrix == Matrix(QQ, [[0, 0], [1, 0]])


def test_trace_annihilator_extremes():
    a, t = _tangent_space_constrained()
    full = trace_annihilator(HomSpace(CONORMAL, a, []))
    assert full.dim == 4 and full.direction == TANGENT
    zero = trace_annihilator(full)
    assert zero.dim == 0


def test_trace_annihilator_involution_random():
    rng = random.Random(17)
    F = GF(101)
    s = Subspace(F, 4, _rand_full_rank(F, rng, 2, 5))
    a = adapted_basis(s)
    total = (s.ell + 1) * (s.n - s.ell)
    for _ in range(10):
        k = rng.randrange(1, total)
        mats = [Matrix(F, [[F.random(rng) for _ in range(3)] for _ in range(2)]) for _ in range(k)]
        sp = HomSpace(TANGENT, a, mats)
        ann = trace_annihilator(sp)
        assert sp.dim + ann.dim == total
        back = trace_annihilator(ann)
        assert same_span(back, sp)


def test_perp_dual_units():
    s = subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    d = perp_dual(s)
    assert d.ell == 1
    assert d.same_as(subspace_from_rows(QQ, 3, [[0, 0, 1, 0], [0, 0, 0, 1]]))
    assert perp_dual(d).same_as(s)


def test_perp_dual_full_space_is_empty():
    s = subspace_from_rows(QQ, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    d = perp_dual(s)
    assert d.ell == -1
    assert perp_dual(d).same_as(s)
    d3 = perp_dual(Subspace(QQ, 3, Matrix.identity(QQ, 4)))
    assert d3.ell == -1 and d3.basis.ncols == 4
    assert d3.same_as(empty_subspace(QQ, 3))


def test_perp_dual_hom_rank_preserved():
    rng = random.Random(23)
    F = GF(101)
    for _ in range(100):
        # an RREF basis of s comes back from Ann(Ann(s)) as it was, so the hom does too, with no rebasing
        s = Subspace(F, 4, _rand_full_rank(F, rng, rng.randrange(1, 4), 5).row_space_basis())
        a = adapted_basis(s)
        ell, n = s.ell, s.n
        for direction in (TANGENT, CONORMAL):
            m = Matrix(F, [[F.random(rng) for _ in range(n - ell)] for _ in range(ell + 1)])
            h = Hom(direction, m if direction == TANGENT else m.transpose(), a)
            hd = perp_dual_hom(h)
            assert hd.direction == direction
            assert hd.rank() == h.rank()
            # involution: transporting back recovers the same hom in the same adapted basis
            hb = perp_dual_hom(hd)
            assert hb.adapted.full == a.full and hb.matrix == h.matrix


def test_perp_dual_hom_swaps_alpha_beta():
    # alpha space at L (kernel contains P) maps to a beta space at Ann(L)
    F = QQ
    s = subspace_from_rows(F, 3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    a = adapted_basis(s)
    p = subspace_from_rows(F, 3, [[1, 0, 0, 0]])
    alpha = homs_with_kernel_containing(a, p)
    assert alpha.dim == 2
    duals = [perp_dual_hom(h) for h in alpha.homs()]
    images = [h.image_subspace() for h in duals]
    for im in images[1:]:
        assert im.same_as(images[0]) or im.contains(images[0]) or images[0].contains(im)
    # all dual homs share one image line in the quotient => common L^+
    common = images[0]
    for im in images[1:]:
        common = sum_subspaces(common, im)
    assert common.ell == duals[0].adapted.subspace.ell + 1


def test_conormal_from_action_roundtrip():
    rng = random.Random(31)
    F = GF(101)
    s = Subspace(F, 3, _rand_full_rank(F, rng, 2, 4))
    a = adapted_basis(s)
    n_mat = Matrix(F, [[F.random(rng) for _ in range(2)] for _ in range(2)])
    h = Hom(CONORMAL, n_mat, a)
    lifts = Matrix(F, [a.lift_quotient(v) for v in Matrix.identity(F, 2).rows])
    images = n_mat @ s.basis
    h2 = conormal_from_action(a, lifts, images)
    assert h2.matrix == h.matrix


def test_subspace_sum_intersection():
    a = subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = subspace_from_rows(QQ, 3, [[0, 1, 0, 0], [0, 0, 1, 0]])
    s = sum_subspaces(a, b)
    i = intersect_subspaces(a, b)
    assert s.ell == 2 and i.ell == 0
    assert i.contains_point([0, 1, 0, 0])


def test_hyperplane_and_membership():
    h = hyperplane_subspace(QQ, [0, 0, 0, 1])
    assert h.ell == 2
    assert h.contains_point([1, 2, 3, 0])
    assert not h.contains_point([0, 0, 0, 1])
    e = empty_subspace(QQ, 3)
    assert not e.contains(point_subspace(QQ, [1, 0, 0, 0]))
    assert not e.contains_point([1, 0, 0, 0])
    assert e.contains(e) and h.contains(e)


def test_beta_space_dimension():
    s = subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    a = adapted_basis(s)
    p2 = subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    beta = homs_with_image_in(a, p2)
    assert beta.dim == 2  # (ell+1) * dim(quotient image) = 2 * 1
    for h in beta.homs():
        assert h.rank() == 1
        assert h.image_subspace().contains(s)
    tag, witness = alpha_beta_type(beta)
    assert tag == "beta" and witness.same_as(p2)


def test_same_span_rejects_equal_matrices_at_different_planes():
    # equal matrices at two planes are different spaces: the helper refuses to compare them
    m = Matrix(QQ, [[1, 0], [0, 0]])
    at_l = HomSpace(TANGENT, adapted_basis(subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0]])), [m])
    at_other = HomSpace(TANGENT, adapted_basis(subspace_from_rows(QQ, 3, [[1, 1, 0, 0], [0, 0, 1, 0]])), [m])
    with pytest.raises(AssertionError):
        same_span(at_l, at_other)
    with pytest.raises(AssertionError):
        same_span(at_other, at_l)


@pytest.mark.parametrize("direction", [TANGENT, CONORMAL])
def test_same_span_at_one_adapted_basis(direction):
    rng = random.Random(23)
    F = GF(101)
    a = adapted_basis(subspace_from_rows(F, 4, [[1, 0, 1, 0, 2], [0, 1, 0, 1, 3]]))
    shape = (2, 3) if direction == TANGENT else (3, 2)
    mats = [Matrix(F, [[F.random(rng) for _ in range(shape[1])] for _ in range(shape[0])]) for _ in range(2)]
    sp = HomSpace(direction, a, mats)
    # a second spanning set of the same space reduces to the same canonical basis
    other = [mats[0] + mats[1], mats[0] + mats[0] + mats[1]]
    again = HomSpace(direction, a, other)
    assert same_span(sp, again) and same_span(again, sp)
    assert not same_span(sp, HomSpace(direction, a, mats[:1]))
    assert not same_span(sp, HomSpace(TANGENT if direction == CONORMAL else CONORMAL, a, []))


def test_trace_pairing_values():
    a, t = _tangent_space_constrained()
    phi = t.homs()[0]
    psi = Hom(CONORMAL, Matrix(QQ, [[1, 0], [0, 0]]), a)
    assert trace_pairing(phi, psi) == 1
