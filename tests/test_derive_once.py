"""Each object derived from a sample is computed once and read by every check.

An osculating sample keeps its derivative rows, a contact line its
adapted basis and the tangent space at its point, and a Hom space its
2x2-minor ideal and rank-one locus; a contact report solves each
direction once.  The counts below pin that down; the oracles check that
what is kept equals what a fresh computation gives.
"""

import json
import random
from math import comb

import pytest

from grassgeo import associated, contact, grassmann, isoclass, univariate
from grassgeo.associated import associated_conormal, sample_associated
from grassgeo.cli import main
from grassgeo.contact import (
    contact_tangent_space,
    sample_contact_line,
    taylor_cone_flag,
    verify_contact_theorem,
)
from grassgeo.errors import CertificateNotApplicable
from grassgeo.fields import GF, QQ
from grassgeo.grassmann import CONORMAL, TANGENT, HomSpace, adapted_basis, subspace_from_rows, trace_annihilator
from grassgeo.hilbert import hilbert_dim_degree
from grassgeo.isoclass import (
    SegreCertificate,
    _common_kernel_rows,
    _complement_projection,
    classify,
    rank_one_locus,
    segre_tangency_certificate,
)
from grassgeo.linalg import Matrix
from grassgeo.osc import ParamCurve
from grassgeo.projvar import ProjVariety, dual_variety
from grassgeo.rng import Stream
from grassgeo.varieties import quadric_surface, random_hypersurface, segre

F = GF(32003)


def _counter(monkeypatch, owner, name, calls=None):
    """Patch owner.name to record the receiver (first argument) of each call in `calls`, a new list
    unless given; returns the list."""
    calls = [] if calls is None else calls
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _contact_lines(count, m=3):
    """(surface, contact line) pairs on seeded cubic surfaces over F_32003."""
    out = []
    for s in range(count):
        v = random_hypersurface(F, 3, 3, seed=100 + s)
        out.append((v, sample_contact_line(v, m, seed=Stream(7, s).seed)))
    return out


# -- osculating samples ------------------------------------------------------------------------------


def test_osc_command_evaluates_the_derivative_rows_once_per_sample(tmp_path, monkeypatch, capsys):
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps({"coords": ["1", "p0", "p0^2", "p0^3", "p0^4"]}))
    calls = _counter(monkeypatch, ParamCurve, "derivative_rows")
    for k in (1, 2):
        calls.clear()
        assert main(["osc", "--curve", str(path), "--k", str(k), "--samples", "4", "--seed", "3"]) == 0
        assert len(calls) == 4
    capsys.readouterr()


# -- contact lines -----------------------------------------------------------------------------------


def test_verify_contact_theorem_analyses_the_conormal_space_once(monkeypatch):
    for _, cfg in _contact_lines(3):
        minor_ideals = _counter(monkeypatch, HomSpace, "generic_element_poly_matrix")
        solves = _counter(monkeypatch, isoclass, "affine_points_zero_dim")
        schemes = _counter(monkeypatch, isoclass, "hilbert_dim_degree")
        rep = verify_contact_theorem(cfg)
        assert rep.checks.all_ok() and rep.verdict == "coisotropic"
        # one minor ideal, one Hilbert series of it, one solve that finds its single point and multiplicity
        assert (len(minor_ideals), len(schemes), len(solves)) == (1, 1, 1)
        monkeypatch.undo()


def test_a_contact_line_has_one_adapted_basis(monkeypatch, contact_chart):
    for v, cfg in _contact_lines(3):
        chart, y = contact_chart(v, cfg)
        calls = _counter(monkeypatch, contact, "adapted_basis")
        _counter(monkeypatch, grassmann, "adapted_basis", calls)
        line = taylor_cone_flag(v, (cfg.point, cfg.tangent_at_p), chart, y, cfg.m)
        assert line.adapted.subspace is line.line
        verify_contact_theorem(line)
        assert calls == [line.line]
        monkeypatch.undo()


def test_a_contact_point_evaluates_one_jacobian(monkeypatch, contact_chart):
    # the cone flag reads the tangent space that came with the sampled point
    for v, cfg in _contact_lines(3):
        chart, y = contact_chart(v, cfg)
        calls = _counter(monkeypatch, ProjVariety, "jacobian_at")
        line = taylor_cone_flag(v, (cfg.point, cfg.tangent_at_p), chart, y, cfg.m)
        assert calls == []
        assert line.tangent_at_p.same_as(v.smooth_tangent_space(cfg.point))
        monkeypatch.undo()
    # sampling and flag together: one Jacobian per point drawn, the accepted one included (the surfaces
    # are smooth, so each draw takes its first root)
    for s in range(3):
        v = random_hypersurface(F, 3, 3, seed=100 + s)
        jacobians = _counter(monkeypatch, ProjVariety, "jacobian_at")
        points = _counter(monkeypatch, contact, "sample_smooth_point")
        sample_contact_line(v, 3, seed=Stream(7, s).seed)
        assert len(jacobians) == len(points) >= 1
        monkeypatch.undo()


def test_a_contact_point_substitutes_f_into_one_chart(monkeypatch):
    # the direction is found and the flag read in the chart at p: one `_chart_parts` per point drawn
    for s in range(3):
        v = random_hypersurface(F, 3, 3, seed=100 + s)
        for m in (2, 3):
            charts = _counter(monkeypatch, contact, "_chart_parts")
            points = _counter(monkeypatch, contact, "sample_smooth_point")
            sample_contact_line(v, m, seed=Stream(7, s).seed)
            assert len(charts) == len(points) >= 1
            monkeypatch.undo()


def test_the_dual_side_evaluates_one_jacobian(monkeypatch, transported_dual_sample):
    v = quadric_surface(QQ)
    dual = dual_variety(v)
    for seed in range(3):
        s = sample_associated(v, 1, seed=seed)
        calls = _counter(monkeypatch, ProjVariety, "jacobian_at")
        _, _, checks = transported_dual_sample(s, v, dual)
        assert all(ok for _, ok in checks) and len(checks) == 6
        assert calls == [dual]
        monkeypatch.undo()
    v = segre(F, 2, 4)
    for ell in (5, 6):
        s = sample_associated(v, ell, seed=3)
        calls = _counter(monkeypatch, ProjVariety, "jacobian_at")
        assert associated_conormal(s, v).dim
        assert calls == []  # the sample keeps the Jacobian it was drawn with
        monkeypatch.undo()


def test_a_conormal_space_evaluates_no_jacobian_and_no_dual_variety(monkeypatch):
    for v in (quadric_surface(QQ), segre(F, 2, 4)):
        for ell in range(v.n):
            s = sample_associated(v, ell, seed=5)
            jacobians = _counter(monkeypatch, ProjVariety, "jacobian_at")
            duals = _counter(monkeypatch, associated, "dual_variety")
            assert associated_conormal(s, v).dim
            assert jacobians == [] and duals == []
            monkeypatch.undo()


# -- contact sampling does only the algebra it reads -------------------------------------------------

@pytest.mark.parametrize("variety", ["segre-2x4", "quadric-surface"])
def test_a_polar_degrees_report_reads_the_range_once(variety, monkeypatch, capsys):
    points = _counter(monkeypatch, associated, "sample_smooth_point")
    assert main(["polar-degrees", "--variety", variety]) == 0
    capsys.readouterr()
    # before: once for the report and once more per level, n + 1 readings in all
    assert len(points) == associated.RANGE_SAMPLES


# one report of the contact-roots benchmark workload
CONTACT_REPORT = ["contact", "--f", "x0^3 + x1^3 + x2^3 + x3^3 + 13041*x0*x1*x2", "--n", "3", "--m", "3",
                  "--field", "fp:32003", "--samples", "10", "--seed", "130362"]


def test_a_contact_report_solves_each_direction_once_without_groebner(monkeypatch, capsys):
    directions = _counter(monkeypatch, contact, "_solve_direction")
    point_solves = _counter(monkeypatch, contact, "affine_points_zero_dim")
    lex_bases = _counter(monkeypatch, isoclass, "groebner")
    inverses = _counter(monkeypatch, Matrix, "inverse")
    powers = _counter(monkeypatch, univariate, "_powmod")
    assert main(CONTACT_REPORT) == 0
    capsys.readouterr()
    # before: 38 point solves for the 24 directions, 48 lex bases, 34 inverses and 99 powers
    assert len(directions) == len(point_solves) == 24
    assert not lex_bases  # every point set solved here has one variable: a gcd, not Buchberger
    assert len(inverses) == 10  # one per accepted line; the frames of the sampled points need none
    # 85 before t^p came from t^((p-1)/2), which is also the first splitting shift
    assert len(powers) == 69


def test_the_lazy_adapted_inverse_is_the_inverse():
    rng = random.Random("derive-once/inverse")
    checked = 0
    for field in (QQ, F):
        for n in (2, 3, 4):
            for ell in range(n):
                rows = [[rng.randrange(-3, 4) for _ in range(n + 1)] for _ in range(ell + 1)]
                if Matrix(field, rows).rank() <= ell:
                    continue
                a = adapted_basis(subspace_from_rows(field, n, rows))
                assert a._full_inv is None
                assert a.full_inv == a.full.inverse()
                assert a.full_inv is a.full_inv
                checked += 1
    assert checked >= 15


# -- the rank-one analysis a space keeps -------------------------------------------------------------


def _seeded_spans(field, rng):
    """Spans of tangent and conormal homs on a line and a plane, some with a common kernel."""
    out = []
    for n, ell in ((3, 1), (4, 1), (4, 2)):
        rows = [[int(i == j) for j in range(n + 1)] for i in range(ell + 1)]
        a = adapted_basis(subspace_from_rows(field, n, rows))
        for direction in (TANGENT, CONORMAL):
            nr, nc = (ell + 1, n - ell) if direction == TANGENT else (n - ell, ell + 1)
            for dim in (1, 2, 3):
                zero_row = rng.randrange(nr + 1)  # == nr: no common kernel from a zero row
                mats = [
                    Matrix(field, [[0 if i == zero_row else rng.randrange(-2, 3) for _ in range(nc)] for i in range(nr)])
                    for _ in range(dim)
                ]
                space = HomSpace(direction, a, mats)
                if space.dim:
                    out.append(space)
    return out


def _locus_fields(locus):
    return locus.points, locus.dim, locus.degree, locus.complete


def _analysed_spaces():
    rng = random.Random("derive-once/spans")
    spaces = [s for field in (QQ, F) for s in _seeded_spans(field, rng)]
    for _, cfg in _contact_lines(4):
        spaces.append(trace_annihilator(contact_tangent_space(cfg)))
    return spaces


def test_the_kept_rank_one_locus_equals_a_fresh_recomputation():
    solved = 0
    for space in _analysed_spaces():
        classify(space, "coisotropic" if space.direction == CONORMAL else "isotropic")
        try:
            kept = rank_one_locus(space)
        except CertificateNotApplicable:
            continue
        solved += 1
        assert rank_one_locus(space) is kept is space.rank_one
        fresh = HomSpace(space.direction, space.adapted, list(space.mats), reduce=False)
        assert fresh.rank_one is None
        assert _locus_fields(rank_one_locus(fresh)) == _locus_fields(kept)
        assert hilbert_dim_degree(fresh.minor_ideal) == (kept.dim, kept.degree)
    assert solved >= 30


def _projected_certificate(space):
    """The Segre certificate as computed before the shortcut: always project, on fresh spaces."""
    k = space.dim
    fld = space.adapted.field
    common = _common_kernel_rows(space)
    keep = _complement_projection(common, space.mats[0].nrows, fld)
    reduced = [keep @ m for m in space.mats]
    nr, nc = reduced[0].nrows - common.nrows, reduced[0].ncols
    seg_codim = (nr - 1) * (nc - 1)
    if k - 1 != seg_codim:
        raise CertificateNotApplicable("span dimension %d != reduced Segre codimension %d" % (k - 1, seg_codim))
    seg_degree = comb((nr - 1) + (nc - 1), nr - 1)
    red_space = HomSpace(space.direction, space.adapted, reduced, reduce=False)
    if seg_codim == 0:
        if k != 1:
            raise CertificateNotApplicable("ambient Segre with a positive-dimensional span")
        if reduced[0].rank() > 1:
            raise CertificateNotApplicable("generator has rank >= 2 after reduction")
        return SegreCertificate([((fld.one,), 1)], True, 1, seg_degree, seg_degree == 1, (nr, nc), common.nrows)
    dim, deg = hilbert_dim_degree(red_space.minor_ideal)
    if dim != 0:
        raise CertificateNotApplicable("minor scheme not zero-dimensional (dim %d)" % dim)
    locus = rank_one_locus(red_space)
    pts = [(lam, mult) for lam, _, mult in locus.points]
    unique = len(pts) == 1 and locus.complete
    mult = pts[0][1] if pts else 0
    total_ok = deg == seg_degree and unique and mult == deg
    return SegreCertificate(pts, unique, mult, seg_degree, bool(total_ok), (nr, nc), common.nrows)


def _certificate_or_refusal(space):
    try:
        return segre_tangency_certificate(space)
    except CertificateNotApplicable as exc:
        return str(exc)


def _reference_or_refusal(space):
    try:
        return _projected_certificate(space)
    except CertificateNotApplicable as exc:
        return str(exc)


def test_the_segre_certificate_equals_the_projected_path():
    paths = {"shortcut": 0, "projected": 0, "certified": 0}
    for space in _analysed_spaces():
        classify(space, "coisotropic" if space.direction == CONORMAL else "isotropic")
        got = _certificate_or_refusal(space)
        assert got == _reference_or_refusal(space)
        paths["projected" if _common_kernel_rows(space).nrows else "shortcut"] += 1
        paths["certified"] += isinstance(got, SegreCertificate)
    assert min(paths.values()) >= 5, paths
