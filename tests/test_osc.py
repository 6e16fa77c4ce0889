import pytest

from grassgeo.errors import NonGeneralConfiguration
from grassgeo.fields import GF, QQ
from grassgeo.grassmann import (
    TANGENT,
    HomSpace,
    Subspace,
    adapted_basis,
    subspace_from_rows,
)
from grassgeo.linalg import Matrix
from grassgeo.osc import (
    ParamCurve,
    classify_strongly_isotropic_family,
    dual_curve,
    osc_family_space,
    osc_tangent_hom,
    osculating_space,
    projective_equal_points,
    sigma_shift,
)
from grassgeo.poly import PolyRing
from grassgeo.rng import Stream
from references import homs_with_image_in, homs_with_kernel_containing


# -- references: curve and projection helpers only these tests use -----------------------------------


def span_dim(c: ParamCurve):
    return c.span().ell


def project_away(subspace: Subspace, center_adapted) -> Subspace:
    """Image of a subspace containing the center under the projection
    away from the center (coordinates: the adapted quotient)."""
    a = center_adapted
    m = a.quotient_coords(subspace.basis).row_space_basis()
    return Subspace(a.field, a.n - a.ell - 1, m, check=False)


def _rnc(field, n):
    ring = PolyRing(field, ("t",))
    t = ring.var(0)
    return ParamCurve(field, [t**k for k in range(n + 1)])


def test_osculating_spaces_twisted_cubic_at_zero():
    c = _rnc(QQ, 3)
    s1 = osculating_space(c, 0, 1)
    assert s1.subspace.same_as(subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    s2 = osculating_space(c, 0, 2)
    # osculating plane Z(x3)
    assert s2.subspace.same_as(
        subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    )
    s0 = osculating_space(c, 0, 0)
    assert s0.subspace.ell == 0 and s0.subspace.contains_point([1, 0, 0, 0])


def test_osculating_nested():
    c = _rnc(QQ, 4)
    t = QQ.of(3)
    subs = [osculating_space(c, t, k).subspace for k in range(4)]
    for small, big in zip(subs, subs[1:]):
        assert big.contains(small)


def test_stationary_point_detected():
    ring = PolyRing(QQ, ("t",))
    t = ring.var(0)
    # cusp-like: derivative drops rank at t = 0
    c = ParamCurve(QQ, [ring.one(), t**2, t**3, t**4])
    with pytest.raises(NonGeneralConfiguration):
        osculating_space(c, 0, 1)


def test_osc_tangent_hom_twisted_cubic():
    c = _rnc(QQ, 3)
    h = osc_tangent_hom(c, 0, 1)
    assert h.rank() == 1
    assert h.kernel_subspace().same_as(subspace_from_rows(QQ, 3, [[1, 0, 0, 0]]))
    img = h.image_subspace()
    assert img.same_as(osculating_space(c, 0, 2).subspace)


def test_osc_tangent_hom_rank_one_many_samples():
    stream = Stream(77)
    for n in (3, 4):
        c = _rnc(GF(32003), n)
        for k in range(n - 1):
            for i in range(10):
                t = stream.spawn("%d-%d-%d" % (n, k, i)).randrange(1, 32003)
                h = osc_tangent_hom(c, t, k)
                assert h.rank() == 1
                sm = osculating_space(c, t, k)
                assert h.kernel_subspace().same_as(sm.prev)
                assert h.image_subspace().same_as(sm.next)


def test_osc_tangent_hom_k0_kernel_is_empty():
    c = _rnc(QQ, 3)
    h = osc_tangent_hom(c, 1, 0)
    assert h.rank() == 1
    assert h.kernel_subspace().ell == -1


def test_sigma_shift_round_trips():
    c = _rnc(QQ, 3)
    ts = [QQ.of(v) for v in (0, 1, 2, -1, 5)]
    k = 1
    samples = [(osculating_space(c, t, k).subspace, osc_family_space(c, t, k)) for t in ts]
    minus = sigma_shift(samples, "-")
    plus = sigma_shift(samples, "+")
    for t, m, p in zip(ts, minus, plus):
        assert m.same_as(osculating_space(c, t, 0).subspace)
        assert p.same_as(osculating_space(c, t, 2).subspace)
    # round trips: (L^-)^+ = L and (L^+)^- = L
    minus_samples = [
        (osculating_space(c, t, 0).subspace, osc_family_space(c, t, 0)) for t in ts
    ]
    back_up = sigma_shift(minus_samples, "+")
    for t, b in zip(ts, back_up):
        assert b.same_as(osculating_space(c, t, 1).subspace)
    plus_samples = [
        (osculating_space(c, t, 2).subspace, osc_family_space(c, t, 2)) for t in ts
    ]
    back_down = sigma_shift(plus_samples, "-")
    for t, b in zip(ts, back_down):
        assert b.same_as(osculating_space(c, t, 1).subspace)


def test_dual_curve_twisted_cubic():
    c = _rnc(QQ, 3)
    d = dual_curve(c)
    # (-t^3, 3t^2, -3t, 1) up to scale
    for tv in (0, 1, 2, -3):
        t = QQ.of(tv)
        got = d.point(t)
        want = (-(t**3), 3 * t**2, -3 * t, QQ.of(1))
        assert projective_equal_points(got, want)


def test_dual_curve_plane_conic():
    ring = PolyRing(QQ, ("t",))
    t = ring.var(0)
    c = ParamCurve(QQ, [ring.one(), t, t**2])
    d = dual_curve(c)
    for tv in (0, 1, 3):
        s = QQ.of(tv)
        assert projective_equal_points(d.point(s), (s**2, -2 * s, QQ.of(1)))


def test_dual_curve_biduality():
    for n in (2, 3, 4):
        c = _rnc(QQ, n)
        dd = dual_curve(dual_curve(c))
        for tv in (0, 1, 2, -1, 4, 7, -5, 9, 11, 13):
            t = QQ.of(tv)
            assert projective_equal_points(dd.point(t), c.point(t))


def test_dual_of_degenerate_curve_inside_span():
    ring = PolyRing(QQ, ("t",))
    t = ring.var(0)
    # plane conic embedded in P3 (last coordinate a combination)
    c = ParamCurve(QQ, [ring.one(), t, t**2, t**2 + t])
    assert span_dim(c) == 2
    d = dual_curve(c)
    assert d.n == 2
    assert d.span_basis is not None


def test_classify_family_alpha():
    field = QQ
    p = subspace_from_rows(field, 3, [[1, 0, 0, 0]])
    samples = []
    for row in ([0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 1]):
        l = subspace_from_rows(field, 3, [[1, 0, 0, 0], row])
        a = adapted_basis(l)
        samples.append((l, homs_with_kernel_containing(a, p)))
    tag, witness = classify_strongly_isotropic_family(samples)
    assert tag == "alpha" and witness.same_as(p)


def test_classify_family_beta():
    field = QQ
    p2 = subspace_from_rows(field, 3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    samples = []
    for rows in (
        [[1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 1, 0, 0], [0, 0, 1, 0]],
        [[1, 0, 1, 0], [0, 1, 1, 0]],
    ):
        l = subspace_from_rows(field, 3, rows)
        a = adapted_basis(l)
        samples.append((l, homs_with_image_in(a, p2)))
    tag, witness = classify_strongly_isotropic_family(samples)
    assert tag == "beta" and witness.same_as(p2)


def test_classify_family_curve():
    c = _rnc(QQ, 3)
    samples = [
        (osculating_space(c, QQ.of(t), 1).subspace, osc_family_space(c, QQ.of(t), 1))
        for t in (0, 1, 2)
    ]
    tag, witness = classify_strongly_isotropic_family(samples)
    assert tag == "curve" and witness is None


def test_classify_family_rejects_rank_two():
    field = QQ
    l = subspace_from_rows(field, 3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    a = adapted_basis(l)
    bad = HomSpace(TANGENT, a, [Matrix(field, [[1, 0], [0, 1]])])
    # dimension-1 spans bypass alpha/beta, but a rank-2 element is not isotropic
    with pytest.raises(ValueError):
        classify_strongly_isotropic_family([(l, bad)])


def test_projection_of_cone_family_recovers_curve_osculating_spaces():
    # cone in P4 over a twisted cubic in the last four coordinates,
    # vertex P = (1:0:0:0); projecting the cone's osculating planes away
    # from P gives the curve's osculating lines
    field = QQ
    ring = PolyRing(field, ("t",))
    t = ring.var(0)
    curve5 = ParamCurve(field, [ring.zero(), ring.one(), t, t**2, t**3])
    p = subspace_from_rows(field, 4, [[1, 0, 0, 0, 0]])
    pa = adapted_basis(p)
    curve3 = ParamCurve(field, [ring.one(), t, t**2, t**3])
    for tv in (0, 1, 2):
        tt = QQ.of(tv)
        osc1 = osculating_space(curve5, tt, 1).subspace
        cone_plane = subspace_from_rows(
            field, 4, [[1, 0, 0, 0, 0]] + [list(r) for r in osc1.basis.rows]
        )
        image = project_away(cone_plane, pa)
        want = osculating_space(curve3, tt, 1).subspace
        assert image.same_as(want)


def test_an_osculating_sample_is_a_record_in_its_field_order(check_record):
    s = osculating_space(_rnc(QQ, 3), QQ.of(2), 1)
    check_record(s, ("t", "k", "rows", "subspace", "prev", "next"))
    rebuilt = type(s)(s.t, s.k, s.rows, s.subspace, s.prev, s.next)
    assert rebuilt.tangent_hom().matrix == s.tangent_hom().matrix
