import pytest

from grassgeo.contact import (
    _chart_parts,
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
from grassgeo.grassmann import TANGENT, HomSpace, adapted_basis, trace_annihilator
from grassgeo.linalg import Matrix
from grassgeo.poly import standard_ring
from grassgeo.projvar import ProjVariety
from grassgeo.rng import Stream
from grassgeo.varieties import random_hypersurface
from references import fermat_hypersurface, same_span, tangent_from_action

F = GF(32003)


# -- references: the flag read in a second chart, and the structural homs by a change of basis --------------


def _gradient_at_e1(fk, k):
    """The gradient at e_1 of f_k, a form of degree k in y_1..y_n, read from its terms: only y_1^k and
    the y_1^(k-1) y_j have partials that do not vanish at e_1, so the row is
    (k c(y_1^k), c(y_1^(k-1) y_j) for j = 2..n)."""
    n = fk.ring.nvars
    row = [fk.coeff([k - 1 + (j == 0)] + [int(i == j) for i in range(1, n)]) for j in range(n)]
    row[0] = k * row[0]
    e1 = [fk.ring.field.one] + [fk.ring.field.zero] * (n - 1)
    assert row == [d.evaluate(e1) for d in fk.gradient()]
    return row


def _line_chart_flag(cfg):
    """Bases of T_L C_2, ..., T_L C_m read in the chart framed by the line's adapted basis, rows p, q and
    a unit completion, where the line's direction is e_1: f is substituted into this chart afresh."""
    v, m = cfg.variety, cfg.m
    field, n = v.field, v.n
    frame = adapted_basis(cfg.line).full
    yring, parts = _chart_parts(v, frame, m - 1)
    grad_rows = [_gradient_at_e1(parts.get(k, yring.zero()), k) for k in range(1, m)]
    directions = frame.submatrix(range(1, n + 1), range(n + 1))
    flag = []
    for k in range(2, m + 1):
        rows = Matrix(field, grad_rows[: k - 1])
        assert rows.rank() == k - 1
        flag.append(Matrix(field, [cfg.point]).stack(rows.nullspace() @ directions).row_space_basis())
    return flag


def _structural_homs_by_action(cfg):
    """The homs p -> 0, q -> w + L for w spanning T_L C_m / L, rewritten on the adapted rows by
    `tangent_from_action`."""
    a, field = cfg.adapted, cfg.variety.field
    qrows = a.quotient_coords(cfg.flag[-1].basis).row_space_basis()
    domain = Matrix(field, [cfg.point, cfg.direction_point])
    zero_row = [field.zero] * (a.n + 1)
    mats = [tangent_from_action(a, domain, Matrix(field, [zero_row, a.lift_quotient(w)])).matrix for w in qrows.rows]
    return HomSpace(TANGENT, a, mats)


def _seeded_lines(field, n, degree, surfaces):
    """(variety, contact line) pairs: two seeded lines for every m from 2 to min(n, degree) on each of
    `surfaces` seeded hypersurfaces."""
    for s in range(surfaces):
        v = random_hypersurface(field, n, degree, seed=Stream(23, n, s).seed)
        for m in range(2, min(n, degree) + 1):
            for k in range(2):
                yield v, sample_contact_line(v, m, seed=Stream(23, n, s, m, k).seed)


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


def test_wrong_contact_order_rejected(contact_chart):
    v = _fermat_cubic(F)
    cfg = sample_contact_line(v, 2, seed=9)
    chart, y = contact_chart(v, cfg, m=3)
    with pytest.raises(NonGeneralConfiguration):
        taylor_cone_flag(v, (cfg.point, cfg.tangent_at_p), chart, y, 3)


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
        assert same_span(trace_annihilator(con), tangent)


def test_verify_contact_theorem_quadric_m2():
    ring = standard_ring(F, 4)
    x0, x1, x2, x3 = ring.gens()
    v = ProjVariety(ring, [x0 * x3 - x1 * x2])
    cfg = sample_contact_line(v, 2, seed=6)
    rep = verify_contact_theorem(cfg)
    assert rep.checks.all_ok()
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
    fields = (
        "variety", "m", "point", "direction_point", "line_gradient", "line", "adapted", "chart_parts", "flag",
        "tangent_at_p",
    )
    check_record(cfg, fields)


@pytest.mark.parametrize("field", [F, GF(101)], ids=["GF32003", "GF101"])
@pytest.mark.parametrize("n, degree, surfaces", [(3, 3, 3), (4, 4, 1)], ids=["cubic-surfaces", "quartic-threefold"])
def test_the_flag_read_in_the_chart_at_p_equals_the_line_chart_flag(field, n, degree, surfaces):
    seen = set()
    for _, cfg in _seeded_lines(field, n, degree, surfaces):
        assert [sub.basis for sub in cfg.flag] == _line_chart_flag(cfg)
        seen.add(cfg.m)
    assert seen == set(range(2, min(n, degree) + 1))


@pytest.mark.parametrize("field", [F, GF(101)], ids=["GF32003", "GF101"])
def test_structural_homs_are_written_without_a_change_of_basis(field):
    v = random_hypersurface(field, 4, 4, seed=Stream(23, 4, 0).seed)
    for k in range(3):
        cfg = sample_contact_line(v, 3, seed=Stream(23, "structural", k).seed)
        struct = structural_kernel_homs(cfg)
        assert struct.dim == v.n - cfg.m == 1
        assert struct.mats == _structural_homs_by_action(cfg).mats
        assert contact_tangent_space(cfg).contains(struct.homs()[0])
