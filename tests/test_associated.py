import pytest

from grassgeo.associated import (
    _build_configuration,
    _draw_configuration,
    associated_conormal,
    associated_tangent_pushforward,
    chow_hurwitz_ideal,
    hypersurface_range,
    polar_degree,
    sample_associated,
)
from grassgeo.errors import Unsupported
from grassgeo.fields import GF, QQ
from grassgeo.grassmann import (
    evaluate_pluecker,
    pluecker_embed,
    pluecker_relations,
    trace_annihilator,
)
from grassgeo.groebner import normal_form
from grassgeo.linalg import Matrix, row_space_contains
from grassgeo.poly import Ideal, standard_ring
from grassgeo.projvar import ProjVariety, dual_variety
from grassgeo.rng import Stream
from grassgeo.varieties import (
    quadric_surface,
    rational_normal_curve,
    segre,
    twisted_cubic,
)
from references import plane_conic, same_span

F = GF(32003)


def test_sample_level_zero_is_on_the_variety():
    v = twisted_cubic(F)
    s = sample_associated(v, 0, seed=1)
    assert s.subspace.ell == 0
    assert v.contains_point(s.subspace.basis.rows[0])


def test_sample_level_max_is_tangent_hyperplane():
    v = twisted_cubic(F)
    s = sample_associated(v, 2, seed=1)
    assert s.subspace.ell == 2
    assert s.subspace.same_as(s.witness.h)


def test_sample_line_through_point_in_hyperplane():
    v = twisted_cubic(F)
    s = sample_associated(v, 1, seed=3)
    assert s.subspace.ell == 1
    assert s.subspace.contains_point(s.witness.point)
    assert s.witness.h.contains(s.subspace)
    assert s.witness.h.contains(s.tangent_at_x)


def test_conormal_beta_range_rational_normal_quartic():
    v = rational_normal_curve(QQ, 4)
    s = sample_associated(v, 1, seed=5)
    con = associated_conormal(s, v)
    assert con.dim == 2  # n - ell - dim X = 4 - 1 - 1
    for h in con.homs():
        assert h.rank() <= 1
    images = [h.image_subspace() for h in con.homs()]
    assert all(im.same_as(images[0]) for im in images)
    assert images[0].contains_point(s.witness.point) and images[0].ell == 0


def test_conormal_level_zero_kills_tangent_directions():
    v = twisted_cubic(QQ)
    s = sample_associated(v, 0, seed=2)
    con = associated_conormal(s, v)
    assert con.dim == v.n - 0 - v.dimension()
    a = con.adapted
    tq = a.quotient_coords(s.tangent_at_x.basis)
    for h in con.homs():
        for trow in tq.rows:
            img = [
                sum((trow[j] * h.matrix[j, i] for j in range(a.n - a.ell)), QQ.zero)
                for i in range(a.ell + 1)
            ]
            assert all(not x for x in img)


def test_conormal_hypersurface_range_chow_of_twisted_cubic():
    v = twisted_cubic(F)
    s = sample_associated(v, 1, seed=7)
    con = associated_conormal(s, v)
    assert con.dim == 1
    h = con.homs()[0]
    assert h.rank() == 1
    assert h.image_subspace().contains_point(s.witness.point)
    assert h.kernel_subspace().same_as(s.witness.h)


def test_two_route_agreement_beta_and_hypersurface_range():
    for v, ell in ((rational_normal_curve(F, 4), 1), (twisted_cubic(F), 1)):
        for seed in range(10):
            s = sample_associated(v, ell, seed=seed)
            push = associated_tangent_pushforward(s, v, seed=seed)
            con = associated_conormal(s, v)
            assert same_span(trace_annihilator(push), con)


def test_pushforward_level_zero_is_variety_tangent():
    v = twisted_cubic(F)
    s = sample_associated(v, 0, seed=9)
    push = associated_tangent_pushforward(s, v, seed=1)
    assert push.dim == v.dimension()
    for h in push.homs():
        assert s.tangent_at_x.contains(h.image_subspace())


def test_pushforward_dimension_beta_range():
    v = rational_normal_curve(F, 4)
    s = sample_associated(v, 1, seed=4)
    push = associated_tangent_pushforward(s, v, seed=2)
    assert push.dim == 1 * (4 - 1) + v.dimension()


def test_segre_hypersurface_range_is_two_to_four():
    v = segre(F, 2, 4)
    for ell, expected_codim in ((1, 2), (2, 1), (4, 1), (5, 2)):
        s = sample_associated(v, ell, seed=13)
        push = associated_tangent_pushforward(s, v, seed=5)
        total = (ell + 1) * (7 - ell)
        assert total - push.dim == expected_codim


def test_conormal_alpha_range_transported_segre():
    v = segre(F, 2, 4)
    for ell in (5, 6):
        s = sample_associated(v, ell, seed=3)
        con = associated_conormal(s, v)
        push = associated_tangent_pushforward(s, v, seed=8)
        assert same_span(trace_annihilator(push), con)
        for h in con.homs():
            assert h.rank() <= 1
        kernels = [h.kernel_subspace() for h in con.homs()]
        assert all(k.same_as(kernels[0]) for k in kernels)


AGREEMENT_VARIETIES = {
    "twisted-cubic": twisted_cubic,
    "quadric-surface": quadric_surface,
    "rational-normal-quartic": lambda field: rational_normal_curve(field, 4),
    "segre-2x3": lambda field: segre(field, 2, 3),
    "segre-2x4": lambda field: segre(field, 2, 4),
    "segre-3x3": lambda field: segre(field, 3, 3),
}


@pytest.mark.parametrize(
    "name, field_tag",
    [(name, "fp") for name in AGREEMENT_VARIETIES]
    + [(name, "q") for name in AGREEMENT_VARIETIES if name != "segre-3x3"],
)
def test_the_closed_form_is_the_jet_probe_conormal_at_every_level(name, field_tag):
    # the annihilator of the tangent space that jets push forward is the oracle; segre-3x3 over Q
    # is left out for its time alone
    v = AGREEMENT_VARIETIES[name](F if field_tag == "fp" else QQ)
    for ell in range(v.n):
        for seed in (1, 2):
            s = sample_associated(v, ell, seed=seed)
            push = associated_tangent_pushforward(s, v, seed=seed)
            assert same_span(trace_annihilator(push), associated_conormal(s, v)), (ell, seed)


@pytest.mark.parametrize("field", [F, QQ], ids=["fp", "q"])
def test_above_the_dual_dimension_the_maps_kill_the_hyperplane_and_their_images_hold_the_point(field):
    # segre-2x4 has dual dimension 4 and segre-2x3 dual dimension 3: dimension ell + 1 - dim X^dual above it
    for v, ells, dual_dim in ((segre(field, 2, 4), (5, 6), 4), (segre(field, 2, 3), (4,), 3)):
        for ell in ells:
            s = sample_associated(v, ell, seed=4)
            con = associated_conormal(s, v)
            assert con.dim == ell + 1 - dual_dim
            images = None
            for h in con.homs():
                assert h.rank() == 1 and h.kernel_subspace().same_as(s.witness.h)
                image = h.image_subspace().basis
                images = image if images is None else images.stack(image)
            assert images.rank() == con.dim and row_space_contains(images, s.witness.point)


def test_chow_twisted_cubic_principal_degree_three():
    v = twisted_cubic(F)
    ideal = chow_hurwitz_ideal(v, 1)
    assert ideal.gens
    chow = ideal.gens[0]
    assert chow.total_degree() == 3
    rel = pluecker_relations(F, 1, 3)
    big = Ideal(ideal.ring, list(rel.gens) + [chow])
    for g in ideal.gens[1:]:
        assert not normal_form(g, big)


def test_chow_vanishing_oracle():
    v = twisted_cubic(F)
    chow = chow_hurwitz_ideal(v, 1).gens[0]
    stream = Stream(2024)
    hits = misses = 0
    for k in range(50):
        s = stream.spawn("sec%d" % k)
        p1 = v.parametrize([F.of(s.randrange(32003))])
        p2 = v.parametrize([F.of(s.randrange(32003))])
        m = Matrix(F, [p1, p2])
        if m.rank() < 2:
            continue
        assert not evaluate_pluecker(chow, pluecker_embed(F, m))
        hits += 1
    for k in range(50):
        s = stream.spawn("rnd%d" % k)
        m = Matrix(F, [[F.random(s._r) for _ in range(4)] for _ in range(2)])
        if m.rank() < 2:
            continue
        if evaluate_pluecker(chow, pluecker_embed(F, m)):
            misses += 1
    assert hits >= 45 and misses >= 45


def test_hurwitz_quadric_principal_degree_two():
    v = quadric_surface(F)
    ideal = chow_hurwitz_ideal(v, 1)
    hur = ideal.gens[0]
    assert hur.total_degree() == 2
    rel = pluecker_relations(F, 1, 3)
    big = Ideal(ideal.ring, list(rel.gens) + [hur])
    for g in ideal.gens[1:]:
        assert not normal_form(g, big)
    # tangent lines satisfy it
    stream = Stream(5)
    for k in range(10):
        s = stream.spawn(k)
        samp = sample_associated(v, 1, seed=s.seed)
        assert not evaluate_pluecker(hur, samp.subspace)


def test_chow_of_plane_conic_is_the_conic():
    v = plane_conic(F)
    ideal = chow_hurwitz_ideal(v, 0)
    assert ideal.gens
    g = ideal.gens[0]
    assert g.total_degree() == 2
    # same zero locus as the conic in the point coordinates
    subs = g.substitute(v.ring, list(v.ring.gens()))
    assert not normal_form(subs, Ideal(v.ring, [v.gens[0]]))
    assert not normal_form(v.gens[0].substitute(ideal.ring, list(ideal.ring.gens())), Ideal(ideal.ring, [g]))


def test_polar_degrees_twisted_cubic():
    v = twisted_cubic(F)
    assert hypersurface_range(v) == (1, 2)
    assert [polar_degree(v, l) for l in range(3)] == [0, 3, 4]


def test_polar_degrees_quadric():
    v = quadric_surface(F)
    assert hypersurface_range(v) == (0, 2)
    assert [polar_degree(v, l) for l in range(3)] == [2, 2, 2]


# parametrized varieties and the dimensions of their duals: a rational normal curve of degree d has a
# hypersurface as dual, so has Segre 3x3 (the determinant), and P^1 x P^{b-1} has dual dimension b
DUAL_DIMENSIONS = [
    (plane_conic, 1),
    (twisted_cubic, 2),
    (quadric_surface, 2),
    (lambda f: rational_normal_curve(f, 4), 3),
    (lambda f: rational_normal_curve(f, 5), 4),
    (lambda f: segre(f, 2, 3), 3),
    (lambda f: segre(f, 2, 4), 4),
    (lambda f: segre(f, 3, 3), 7),
]


@pytest.mark.parametrize("field", [GF(3), GF(5), GF(7), GF(11), F, QQ], ids=repr)
def test_the_range_ends_at_the_sampled_dual_dimension(field):
    for make, dual_dim in DUAL_DIMENSIONS:
        v = make(field)
        assert hypersurface_range(v) == (v.codim() - 1, dual_dim)
    for v in (plane_conic(field), quadric_surface(field)):  # the complete intersections: the eliminated dual
        assert hypersurface_range(v)[1] == dual_variety(v).dimension()


def test_the_chow_level_has_the_degree_of_the_variety():
    for field in (F, QQ):
        for v in (twisted_cubic(field), quadric_surface(field), plane_conic(field)):
            ell = v.codim() - 1
            assert chow_hurwitz_ideal(v, ell).gens[0].total_degree() == v.degree() == polar_degree(v, ell)


def test_associated_forms_need_a_parametrization_and_the_range_an_odd_characteristic():
    ring = standard_ring(F, 4)
    x0, x1, x2, x3 = ring.gens()
    bare = ProjVariety(ring, [x0 * x3 - x1 * x2])
    for call in (hypersurface_range, lambda v: chow_hurwitz_ideal(v, 0), lambda v: sample_associated(v, 1, 0)):
        with pytest.raises(Unsupported, match="parametriz"):
            call(bare)
    with pytest.raises(Unsupported, match="characteristic 2"):
        hypersurface_range(twisted_cubic(GF(2)))


def test_duality_transport_quadric(transported_dual_sample):
    v = quadric_surface(QQ)
    dual = dual_variety(v)
    for seed in range(5):
        s = sample_associated(v, 1, seed=seed)
        lperp, witness, checks = transported_dual_sample(s, v, dual)
        assert all(ok for _, ok in checks), checks
        assert lperp.ell == v.n - 1 - 1


def test_conormal_top_level_dual_point_of_quadric():
    # level n-1: the sample is a tangent hyperplane; conormal dim 1
    v = quadric_surface(F)
    s = sample_associated(v, 2, seed=8)
    con = associated_conormal(s, v)
    assert con.dim == 1
    h = con.homs()[0]
    assert h.rank() == 1
    assert h.image_subspace().contains_point(s.witness.point)


def test_pushforward_matches_conormal_at_top_level():
    v = quadric_surface(F)
    s = sample_associated(v, 2, seed=9)
    push = associated_tangent_pushforward(s, v, seed=1)
    con = associated_conormal(s, v)
    assert same_span(trace_annihilator(push), con)


def test_a_plane_meeting_the_tangent_space_in_a_line_is_redrawn():
    # sample 0 of `sample-associated --variety segre-2x4 --ell 2 --field q --seed 144182`
    v = segre(QQ, 2, 4)
    seed = Stream(144182, "s", 0).seed
    first = _draw_configuration(v, 2, Stream(seed, "associated", 2).spawn(0))
    _, _, tangent, _, lmat = _build_configuration(v, 2, QQ, first)
    assert lmat.rank() == 3
    assert tangent.stack(lmat).rank() == 6  # not dim X + 1 + ell = 7: L is special
    s = sample_associated(v, 2, seed=seed)
    assert s.config != first
    assert s.tangent_at_x.basis.stack(s.subspace.basis).rank() == 7
    assert associated_conormal(s, v).dim == 1  # n - ell - dim X, where the special L gave 2


def test_an_associated_sample_and_its_parts_are_records_in_their_field_order(check_record):
    s = sample_associated(twisted_cubic(F), 1, seed=1)
    check_record(s, ("ell", "subspace", "witness", "config", "tangent_at_x", "jacobian"))
    check_record(s.witness, ("x", "h", "point", "normal"))
    check_record(s.config, ("theta", "h_coeffs", "l_coeffs"))
