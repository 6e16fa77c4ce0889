import pytest

from grassgeo.errors import SamplingError
from grassgeo.fields import GF, QQ
from grassgeo.grassmann import hyperplane_subspace, point_subspace
from grassgeo.groebner import normal_form
from grassgeo.poly import Ideal, standard_ring
from grassgeo.projvar import (
    SAMPLE_RETRIES,
    ConormalWitness,
    ProjVariety,
    dual_variety,
    sample_smooth_point,
)
from grassgeo.rng import Stream
from grassgeo.varieties import (
    quadric_surface,
    rational_normal_curve,
    twisted_cubic,
)
from references import fermat_hypersurface


def test_quadric_smooth_point_and_tangent():
    v = quadric_surface(QQ)
    t = v.smooth_tangent_space([1, 0, 0, 0])
    # tangent plane is Z(x3)
    assert t is not None and t.ell == 2
    assert t.contains_point([1, 0, 0, 0]) and t.contains_point([0, 1, 0, 0])
    assert not t.contains_point([0, 0, 0, 1])


def test_cone_vertex_singular():
    ring = standard_ring(QQ, 4)
    x0, x1, x2, x3 = ring.gens()
    v = ProjVariety(ring, [x1**2 - x0 * x2])
    assert v.smooth_tangent_space([0, 0, 0, 1]) is None
    assert v.jacobian_at([0, 0, 0, 1]).rank() == 0  # the Zariski tangent space is all of P^3


def test_hyperplane_always_smooth():
    ring = standard_ring(QQ, 4)
    v = ProjVariety(ring, [ring.var(0)])
    t = v.smooth_tangent_space([0, 1, 2, 3])
    assert t is not None and t.same_as(v.smooth_tangent_space([0, 5, 0, 1]))  # linear: tangent = itself


def test_twisted_cubic_tangent_line():
    v = twisted_cubic(QQ)
    assert v.dim_degree() == (1, 3)
    t = v.smooth_tangent_space([1, 0, 0, 0])
    assert t.ell == 1
    assert t.contains_point([1, 0, 0, 0]) and t.contains_point([0, 1, 0, 0])


def test_parametrize_twisted_cubic():
    v = twisted_cubic(QQ)
    assert v.parametrize([QQ.of(2)]) == (1, 2, 4, 8)


def test_sample_smooth_point_parametrized():
    v = rational_normal_curve(GF(32003), 4)
    x, t = sample_smooth_point(v, seed=7)
    assert v.contains_point(x) and t.ell == 1 and t.same_as(v.smooth_tangent_space(x))
    assert sample_smooth_point(v, seed=7)[0] == x  # deterministic


def test_sample_smooth_point_line_scan():
    ring = standard_ring(GF(101), 4)
    x0, x1, x2, x3 = ring.gens()
    v = ProjVariety(ring, [x0 * x3 - x1 * x2])
    x, t = sample_smooth_point(v, seed=3)
    assert v.contains_point(x) and t.ell == 2 and t.same_as(v.smooth_tangent_space(x))


def test_sample_smooth_point_singular_only_errors():
    ring = standard_ring(GF(101), 3)
    x0, x1, x2 = ring.gens()
    v = ProjVariety(ring, [x0**2])
    with pytest.raises(SamplingError):
        sample_smooth_point(v, seed=1)


# -- reference: a tangent-hyperplane witness only these tests draw ---------------------------------------


def conormal_witness_sample(v, seed):
    """(x, H) with the tangent space at x inside H, seeded choice of H."""
    stream = Stream(seed, "witness")
    x, tangent = sample_smooth_point(v, stream.spawn("pt").seed, height=12)
    normals = tangent.basis.nullspace()
    s = stream.spawn("hyp")
    for _ in range(SAMPLE_RETRIES):
        coeffs = s.vector(v.field, normals.nrows, 12)
        h = normals.apply_row(coeffs)
        if any(h):
            return ConormalWitness(
                x=point_subspace(v.field, x),
                h=hyperplane_subspace(v.field, h),
                point=tuple(x),
                normal=tuple(h),
            )
    raise SamplingError("no tangent hyperplane found (degenerate tangent?)")


def test_conormal_witness_quadric_forced():
    v = quadric_surface(QQ)
    w = conormal_witness_sample(v, seed=5)
    assert v.contains_point(w.point)
    t = v.smooth_tangent_space(w.point)
    assert w.h.contains(t)
    # hypersurface: the tangent hyperplane is unique, H = Z(grad f(x))
    grad = [v.gens[0].diff(i).evaluate([v.field.of(c) for c in w.point]) for i in range(4)]
    assert w.h.same_as(hyperplane_subspace(v.field, grad))


def test_conormal_witness_curve_family():
    v = twisted_cubic(QQ)
    w1 = conormal_witness_sample(v, seed=1)
    assert w1.h.contains(v.smooth_tangent_space(w1.point))
    w2 = conormal_witness_sample(v, seed=2)
    assert w1.h.contains(w1.x)
    assert not (w1.point == w2.point and w1.normal == w2.normal)


def test_dual_of_sphere_quadric():
    v = fermat_hypersurface(QQ, 3, 2)
    d = dual_variety(v)
    assert len(d.gens) == 1
    g = d.gens[0]
    ring = d.ring
    y = ring.gens()
    target = (y[0] ** 2 + y[1] ** 2 + y[2] ** 2 + y[3] ** 2).monic()
    assert g == target


def test_dual_of_segre_quadric_self_dual():
    v = quadric_surface(QQ)
    d = dual_variety(v)
    assert len(d.gens) == 1
    y = d.ring.gens()
    assert d.gens[0] == (y[0] * y[3] - y[1] * y[2]).monic()


def test_dual_of_hyperplane_is_point():
    ring = standard_ring(QQ, 4)
    v = ProjVariety(ring, [ring.var(0)])
    d = dual_variety(v)
    # the point (1:0:0:0) in the dual space
    assert d.contains_point([1, 0, 0, 0])
    assert not d.contains_point([1, 1, 0, 0])
    assert d.dimension() == 0


def test_biduality_on_quadrics():
    v = fermat_hypersurface(QQ, 2, 2)
    d = dual_variety(v)
    dd = dual_variety(d)
    # equality of ideals by mutual reduction
    for g in dd.gens:
        assert not normal_form(g.substitute(v.ring, list(v.ring.gens())), Ideal(v.ring, list(v.gens)))
    for g in v.gens:
        assert not normal_form(g.substitute(dd.ring, list(dd.ring.gens())), Ideal(dd.ring, list(dd.gens)))


def test_tangent_dimension_matches_variety_dimension():
    for v, seeds in ((twisted_cubic(QQ), range(3)), (quadric_surface(QQ), range(3))):
        for s in seeds:
            x, t = sample_smooth_point(v, seed=s)
            assert t.ell == v.dimension() and t.same_as(v.smooth_tangent_space(x))
