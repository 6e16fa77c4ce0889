import pytest

from grassgeo.contact import (
    cone_dim_degree,
    contact_tangent_space,
    line_contact_order,
    sample_contact_line,
    structural_kernel_homs,
    taylor_cone_flag,
    verify_contact_theorem,
)
from grassgeo.errors import NonGeneralConfiguration
from grassgeo.fields import GF, QQ
from grassgeo.grassmann import trace_annihilator
from grassgeo.poly import standard_ring
from grassgeo.projvar import ProjVariety
from grassgeo.rng import Stream
from grassgeo.varieties import fermat_hypersurface, random_hypersurface

F = GF(32003)


def _fermat_cubic(field):
    return fermat_hypersurface(field, 3, 3)


def test_m2_flag_is_tangent_plane():
    v = _fermat_cubic(F)
    cfg = sample_contact_line(v, 2, seed=3)
    assert len(cfg.flag) == 1
    assert cfg.flag[0].same_as(v.smooth_tangent_space(cfg.point))


def test_fermat_cubic_m3_nested_flag():
    v = _fermat_cubic(F)
    cfg = sample_contact_line(v, 3, seed=5)
    assert [s.ell for s in cfg.flag] == [2, 1]
    assert cfg.flag[0].contains(cfg.flag[1])
    assert cfg.flag[1].contains(cfg.line)


def test_contact_valuation_exact():
    for field in (F, GF(2**31 - 1)):
        v = _fermat_cubic(field)
        for m in (2, 3):
            cfg = sample_contact_line(v, m, seed=11 + m)
            assert line_contact_order(v, cfg.point, cfg.direction_point) == m


def test_m_exceeding_degree_rejected():
    v = fermat_hypersurface(F, 3, 2)
    with pytest.raises(ValueError):
        sample_contact_line(v, 3, seed=1)


def test_wrong_contact_order_rejected():
    v = _fermat_cubic(F)
    cfg = sample_contact_line(v, 2, seed=9)
    with pytest.raises(NonGeneralConfiguration):
        taylor_cone_flag(v, (cfg.point, cfg.tangent_at_p), cfg.direction_point, 3)


def test_tangent_space_dimensions():
    v = _fermat_cubic(F)
    for m, want in ((2, 3), (3, 2)):
        cfg = sample_contact_line(v, m, seed=20 + m)
        space = contact_tangent_space(cfg)
        assert space.dim == want == 2 * (v.n - 1) - (m - 1)


def test_structural_homs_inside_tangent_space():
    v = random_hypersurface(F, 3, 3, seed=8)
    cfg = sample_contact_line(v, 3, seed=2)
    tangent = contact_tangent_space(cfg)
    struct = structural_kernel_homs(cfg)
    assert struct.dim == v.n - cfg.m  # matches the fiber dimension at fixed p
    for h in struct.homs():
        assert tangent.contains(h)
        assert h.kernel_subspace().contains_point(cfg.point)
        assert cfg.flag[-1].contains(h.image_subspace())


def test_conormal_annihilates_tangent_and_has_dim_m_minus_1():
    v = random_hypersurface(F, 3, 3, seed=15)
    for m in (2, 3):
        cfg = sample_contact_line(v, m, seed=Stream(40, m).seed)
        tangent = contact_tangent_space(cfg)
        con = trace_annihilator(tangent)
        assert con.dim == m - 1
        assert trace_annihilator(con).same_span(tangent)


def test_verify_contact_theorem_quadric_m2():
    ring = standard_ring(F, 4)
    x0, x1, x2, x3 = ring.gens()
    v = ProjVariety(ring, [x0 * x3 - x1 * x2])
    cfg = sample_contact_line(v, 2, seed=6)
    rep = verify_contact_theorem(cfg)
    assert rep.passed()
    assert rep.flags["hypersurface_rank_one"]


def test_cone_degree_over_two_seeds():
    from math import factorial

    for seed in (1, 2):
        v = random_hypersurface(F, 3, 3, seed=seed)
        for m in (2, 3):
            cfg = sample_contact_line(v, m, seed=seed)
            codim, deg = cone_dim_degree(cfg)
            assert codim == m - 1 and deg == factorial(m - 1)


def test_a_contact_line_is_a_record_in_its_field_order(check_record):
    cfg = sample_contact_line(_fermat_cubic(F), 3, seed=5)
    fields = ("variety", "m", "point", "direction_point", "line", "adapted", "chart_parts", "flag", "tangent_at_p")
    check_record(cfg, fields)
