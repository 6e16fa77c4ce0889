import random

import pytest

from grassgeo.errors import CertificateNotApplicable
from grassgeo.fields import GF, QQ
from grassgeo.grassmann import (
    CONORMAL,
    TANGENT,
    Hom,
    HomSpace,
    adapted_basis,
    subspace_from_rows,
)
from grassgeo.isoclass import (
    CheckList,
    ClassificationReport,
    RankOneLocus,
    alpha_beta_type,
    classify,
    is_strong,
    rank_one_locus,
    segre_tangency_certificate,
    univariate_roots,
)
from grassgeo.linalg import Matrix
from grassgeo.poly import PolyRing
from references import homs_with_kernel_containing, perp_dual, perp_dual_hom


def perp_dual_space(space: HomSpace) -> HomSpace:
    """Reference: the hom space transported along L |-> Ann(L), hom by hom."""
    homs = [perp_dual_hom(h) for h in space.homs()]
    if not homs:
        perp = perp_dual(space.adapted.subspace)
        return HomSpace(space.direction, adapted_basis(perp), [])
    return HomSpace(homs[0].direction, homs[0].adapted, [h.matrix for h in homs])


def _line_adapted(field=QQ, n=3):
    rows = [[1 if j == i else 0 for j in range(n + 1)] for i in range(2)]
    return adapted_basis(subspace_from_rows(field, n, rows))


def _tangent_space(a, mats):
    return HomSpace(TANGENT, a, [Matrix(a.field, m) for m in mats])


def _conormal_space(a, mats):
    return HomSpace(CONORMAL, a, [Matrix(a.field, m) for m in mats])


def test_univariate_roots_rational():
    R = PolyRing(QQ, ("u",))
    u = R.var(0)
    roots, split = univariate_roots((u - 1) * (u + 2) ** 2 * u)
    assert split
    assert sorted((r, m) for r, m in roots) == [(-2, 2), (0, 1), (1, 1)]
    roots, split = univariate_roots(u**2 - 2)
    assert roots == [] and not split


def test_univariate_roots_fp():
    F = GF(101)
    R = PolyRing(F, ("u",))
    u = R.var(0)
    f = (u - 3) * (u - 3) * (u - 7)
    roots, split = univariate_roots(f)
    assert split
    assert sorted((r.v, m) for r, m in roots) == [(3, 2), (7, 1)]


def test_rank_one_locus_single_point():
    a = _line_adapted()
    sp = _tangent_space(a, [[[1, 0], [0, 0]]])
    loc = rank_one_locus(sp)
    assert len(loc.points) == 1 and not loc.positive_dimensional


def test_rank_one_locus_two_coordinate_points():
    a = _line_adapted()
    e00 = [[1, 0], [0, 0]]
    e11 = [[0, 0], [0, 1]]
    sp = _tangent_space(a, [e00, e11])
    loc = rank_one_locus(sp)
    # minor of l0*E00 + l1*E11 is l0*l1: exactly the two coordinate points
    assert len(loc.points) == 2 and loc.complete
    lams = sorted(tuple(bool(c) for c in lam) for lam, _, _ in loc.points)
    assert lams == [(False, True), (True, False)]


def test_rank_one_locus_empty_for_rank_two():
    a = _line_adapted()
    sp = _tangent_space(a, [[[1, 0], [0, 1]]])
    loc = rank_one_locus(sp)
    assert loc.points == []


def test_is_strong_alpha_space():
    a = _line_adapted()
    p = subspace_from_rows(QQ, 3, [[1, 0, 0, 0]])
    alpha = homs_with_kernel_containing(a, p)
    assert is_strong(alpha)
    tag, witness = alpha_beta_type(alpha)
    assert tag == "alpha"
    assert witness.same_as(p)


def test_alpha_beta_duality_swap():
    a = _line_adapted()
    p = subspace_from_rows(QQ, 3, [[1, 0, 0, 0]])
    alpha = homs_with_kernel_containing(a, p)
    dual = perp_dual_space(alpha)
    tag, witness = alpha_beta_type(dual)
    assert tag == "beta"


def test_alpha_beta_rejects_rank_two():
    a = _line_adapted()
    sp = _tangent_space(a, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    with pytest.raises(ValueError):
        alpha_beta_type(sp)


def test_classify_hypersurface_rank_one():
    a = _line_adapted()
    sp = _conormal_space(a, [[[0, 1], [0, 0]]])
    rep = classify(sp, "coisotropic")
    assert rep.flags["hypersurface_rank_one"]
    assert rep.type_tag == "hypersurface"
    assert rep.verdict == "coisotropic"


def test_classify_strong_beta():
    # conormal maps with a common image line: beta type
    a = _line_adapted()
    sp = _conormal_space(a, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
    rep = classify(sp, "coisotropic", family_dim=2)
    assert rep.flags["strong"]
    assert rep.type_tag == "beta"
    assert rep.verdict == "coisotropic"


def test_classify_pencil_spanned_by_two_rank_ones():
    a = _line_adapted()
    # different kernels and images: spanned by rank ones but not strong
    sp = _conormal_space(a, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    rep = classify(sp, "coisotropic", family_dim=3)
    assert not rep.flags["strong"]
    assert rep.flags["rank_one_spanned"]
    assert rep.type_tag == "mixed"
    assert rep.verdict == "coisotropic"


def test_classify_low_dim_fallback():
    a = _line_adapted()
    # a rank-two conormal direction, but the declared family is a curve
    sp = _conormal_space(a, [[[1, 0], [0, 1]]])
    rep = classify(sp, "coisotropic", family_dim=1)
    assert rep.flags["low_dim_fallback"]
    assert rep.verdict == "coisotropic"
    rep2 = classify(sp, "coisotropic", family_dim=3)
    assert rep2.verdict == "inconclusive"


def test_classify_isotropic_mode_tangent_curve():
    a = _line_adapted()
    sp = _tangent_space(a, [[[0, 0], [1, 0]]])
    rep = classify(sp, "isotropic", family_dim=1)
    assert rep.verdict == "isotropic"


def test_secant_sum_closure_property():
    # two rank-one-spanned spaces: the concatenated span stays spanned
    a = _line_adapted()
    s1 = _conormal_space(a, [[[1, 0], [0, 0]]])
    s2 = _conormal_space(a, [[[0, 0], [0, 1]]])
    joint = HomSpace(CONORMAL, a, list(s1.mats) + list(s2.mats))
    rep = classify(joint, "coisotropic", family_dim=3)
    assert rep.flags["rank_one_spanned"]


def test_strong_agrees_with_random_combination_scan():
    rng = random.Random(13)
    F = GF(101)
    rows = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
    a = adapted_basis(subspace_from_rows(F, 4, rows))
    p = subspace_from_rows(F, 4, [[1, 0, 0, 0, 0]])
    strong_space = homs_with_kernel_containing(a, p)
    weak_space = HomSpace(
        TANGENT,
        a,
        [Matrix(F, [[1, 0, 0], [0, 0, 0]]), Matrix(F, [[0, 0, 0], [0, 1, 0]])],
    )
    for sp, expected in ((strong_space, True), (weak_space, False)):
        assert is_strong(sp) == expected
        seen_rank2 = False
        for _ in range(200):
            lam = [F.random(rng) for _ in range(sp.dim)]
            combo = [
                [
                    sum((c * m[i, j] for c, m in zip(lam, sp.mats)), F.zero)
                    for j in range(sp.shape()[1])
                ]
                for i in range(sp.shape()[0])
            ]
            if Matrix(F, combo).rank() > 1:
                seen_rank2 = True
        assert seen_rank2 != expected


def test_segre_certificate_single_point():
    # dim-1 conormal on a line in P3 whose reduced Segre is the ambient space
    a = _line_adapted()
    sp = _conormal_space(a, [[[0, 1], [0, 0]]])
    cert = segre_tangency_certificate(sp)
    assert cert.unique_point and cert.multiplicity == 1


def test_segre_certificate_tangent_pencil():
    # pencil tangent to the 2x2 Segre: det(l0*A + l1*B) with a double root
    a = _line_adapted()
    A = [[1, 0], [0, 0]]
    B = [[0, 1], [1, 0]]
    # det(l0*A + l1*B) = -l1^2: unique point (1:0) with multiplicity 2
    sp = _conormal_space(a, [A, B])
    cert = segre_tangency_certificate(sp)
    assert cert.unique_point
    assert cert.multiplicity == 2
    assert cert.segre_degree == 2
    assert cert.bezout_total_ok


def test_segre_certificate_rejects_improper_dimension():
    a = _line_adapted(n=4)
    # pencil in Hom(K^3, K^2) with trivial common kernel: reduced Segre
    # codimension 2 != projective span dimension 1
    sp = _conormal_space(a, [[[1, 0], [0, 1], [0, 0]], [[0, 0], [1, 0], [0, 1]]])
    with pytest.raises(CertificateNotApplicable):
        segre_tangency_certificate(sp)


def test_classify_duality_equivariance():
    # classify(space) and classify(perp transport) agree with alpha/beta swapped
    a = _line_adapted()
    p = subspace_from_rows(QQ, 3, [[1, 0, 0, 0]])
    alpha = homs_with_kernel_containing(a, p)
    rep = classify(alpha, "isotropic", family_dim=2)
    dual_space = perp_dual_space(alpha)
    rep_dual = classify(dual_space, "isotropic", family_dim=2)
    assert rep.flags["strong"] and rep_dual.flags["strong"]
    assert {rep.type_tag, rep_dual.type_tag} == {"alpha", "beta"}
    assert rep.verdict == rep_dual.verdict == "isotropic"


def test_rank_one_loci_and_segre_certificates_are_records_in_their_field_order(check_record):
    a = _line_adapted()
    loc = rank_one_locus(_tangent_space(a, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]))
    check_record(loc, ("points", "dim", "degree", "complete"))
    assert RankOneLocus(loc.points, loc.dim, loc.degree).complete is True
    assert RankOneLocus(loc.points, loc.dim, loc.degree, False) != loc
    cert = segre_tangency_certificate(_conormal_space(a, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]))
    fields = ("points", "unique_point", "multiplicity", "segre_degree", "bezout_total_ok", "reduced_shape",
              "kernel_quotient_dim")
    check_record(cert, fields)


def test_classification_reports_share_no_mutable_fields():
    first, second = ClassificationReport("coisotropic", 1, 1, 3), ClassificationReport("coisotropic", 1, 1, 3)
    first.flags["strong"] = True
    first.witnesses.append({"lambda": (), "rank": 1, "multiplicity": None})
    first.checks.add("first only", False)
    assert (second.flags, second.witnesses, second.checks) == ({}, [], [])
    assert (second.type_tag, second.verdict) == ("none", "inconclusive") and second.checks.all_ok()
    # classify fills a new report on every call
    a = _line_adapted()
    space = _conormal_space(a, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    reports = [classify(space, "coisotropic") for _ in range(2)]
    reports[0].checks.add("first only", False)
    assert reports[1].checks.all_ok() and len(reports[1].checks) == len(reports[0].checks) - 1
    for name in ("flags", "witnesses", "checks"):
        assert getattr(reports[0], name) is not getattr(reports[1], name)


def test_check_list_records_checks_in_order_with_text_details():
    checks = CheckList()
    assert checks.all_ok() and checks == []
    assert checks.add("one", 1, 3) == 1
    assert checks.add("two", 0) == 0
    assert checks == [{"name": "one", "ok": True, "detail": "3"}, {"name": "two", "ok": False, "detail": ""}]
    assert not checks.all_ok()
