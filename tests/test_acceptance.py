"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact; the only tolerances are the stated
wall-clock budgets.
"""

import io
import json
import time
from contextlib import redirect_stdout
from math import factorial

from grassgeo.associated import (
    _rank_one_conormals,
    associated_conormal,
    associated_tangent_pushforward,
    chow_hurwitz_ideal,
    hypersurface_range,
    polar_degree,
    sample_associated,
)
from grassgeo.contact import (
    cone_dim_degree,
    sample_contact_line,
    verify_contact_theorem,
)
from grassgeo.fields import GF, QQ
from grassgeo.grassmann import (
    CONORMAL,
    TANGENT,
    Hom,
    HomSpace,
    adapted_basis,
    evaluate_pluecker,
    pluecker_embed,
    pluecker_relations,
    subspace_from_rows,
    trace_annihilator,
)
from grassgeo.groebner import normal_form
from grassgeo.hilbert import hilbert_dim_degree
from grassgeo.isoclass import alpha_beta_type, classify, rank_one_locus
from grassgeo.linalg import Matrix
from grassgeo.osc import (
    classify_strongly_isotropic_family,
    dual_curve,
    osc_family_space,
    osc_tangent_hom,
    osculating_space,
    projective_equal_points,
    ParamCurve,
)
from grassgeo.poly import Ideal, PolyRing, linear_combinations
from grassgeo.projvar import ProjVariety, dual_variety
from grassgeo.rng import Stream
from grassgeo.varieties import (
    quadric_surface,
    random_hypersurface,
    rational_normal_curve,
    segre,
    twisted_cubic,
)
from references import homs_with_image_in, homs_with_kernel_containing, same_span

F = GF(32003)


# -- reference: a coordinate change only these tests apply ----------------------------------------------


def projective_transform(v: ProjVariety, matrix_rows) -> ProjVariety:
    """Image of a parametrized variety under an invertible coordinate change.

    The ideal transforms by substituting x -> x * M^{-1}; the
    parametrization composes with M on the right.
    """
    m = Matrix(v.field, matrix_rows)
    ring = v.ring
    images = linear_combinations(ring.gens(), m.inverse().rows)
    gens = [g.substitute(ring, images) for g in v.gens]
    param = None
    if v.parametrization is not None:
        pring, coords = v.parametrization
        param = (pring, tuple(linear_combinations(coords, m.rows)))
    return ProjVariety(ring, gens, parametrization=param)


def _verdict(num, name, ok):
    print("ACCEPTANCE %2d %-58s %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (num, name)


def test_criterion_01_chow_twisted_cubic():
    t0 = time.time()
    v = twisted_cubic(F)
    ideal = chow_hurwitz_ideal(v, 1)
    form = ideal.gens[0]
    ok = form.total_degree() == 3
    rel = pluecker_relations(F, 1, 3)
    big = Ideal(ideal.ring, list(rel.gens) + [form])
    ok = ok and all(not normal_form(g, big) for g in ideal.gens[1:])
    stream = Stream(101)
    vanish = 0
    made = 0
    while made < 50:
        s = stream.spawn("sec%d" % made)
        p1 = v.parametrize([F.of(s.randrange(32003))])
        p2 = v.parametrize([F.of(s.randrange(32003))])
        m = Matrix(F, [p1, p2])
        if m.rank() < 2:
            continue
        made += 1
        if not evaluate_pluecker(form, pluecker_embed(F, m)):
            vanish += 1
    nonzero = 0
    made = 0
    while made < 50:
        s = stream.spawn("rnd%d" % made)
        m = Matrix(F, [[F.random(s._r) for _ in range(4)] for _ in range(2)])
        if m.rank() < 2:
            continue
        made += 1
        if evaluate_pluecker(form, pluecker_embed(F, m)):
            nonzero += 1
    elapsed = time.time() - t0
    ok = ok and vanish == 50 and nonzero == 50 and elapsed < 10
    _verdict(1, "Chow form of twisted cubic: principal, degree 3, 50/50", ok)


def test_criterion_02_hurwitz_quadric():
    t0 = time.time()
    v = quadric_surface(F)
    ideal = chow_hurwitz_ideal(v, 1)
    form = ideal.gens[0]
    ok = form.total_degree() == 2
    rel = pluecker_relations(F, 1, 3)
    big = Ideal(ideal.ring, list(rel.gens) + [form])
    ok = ok and all(not normal_form(g, big) for g in ideal.gens[1:])
    for k in range(20):
        s = sample_associated(v, 1, seed=Stream(7, "tangent", k).seed)
        con = associated_conormal(s, v)
        ok = ok and con.dim == 1
        h = con.homs()[0]
        ok = ok and h.rank() == 1
        ok = ok and h.image_subspace().same_as(
            subspace_from_rows(F, 3, [s.witness.point])
        )
        ok = ok and h.kernel_subspace().same_as(s.tangent_at_x)
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    _verdict(2, "Hurwitz of quadric: principal deg 2, 20 rank-one conormals", ok)


def test_criterion_03_polar_degree_range():
    tc = twisted_cubic(F)
    qd = quadric_surface(F)
    ok = True
    for v, expect in ((tc, {0: 0, 1: 3, 2: 4}), (qd, {0: 2, 1: 2, 2: 2})):
        lo, hi = hypersurface_range(v)
        for ell in range(v.n):
            d = polar_degree(v, ell)
            ok = ok and d == expect[ell]
            ok = ok and (d > 0) == (lo <= ell <= hi)
    _verdict(3, "polar degrees positive exactly on [codim-1, dim dual]", ok)


def test_criterion_04_strong_beta_rational_normal_quartic():
    v = rational_normal_curve(F, 4)
    ok = True
    for k in range(20):
        s = sample_associated(v, 1, seed=Stream(4, "rnq", k).seed)
        con = associated_conormal(s, v)
        ok = ok and con.dim == 2
        ok = ok and all(h.rank() <= 1 for h in con.homs())
        images = [h.image_subspace() for h in con.homs()]
        ok = ok and all(im.same_as(images[0]) for im in images) and images[0].ell == 0
        rep = classify(con, "coisotropic")
        ok = ok and rep.flags["strong"] and rep.type_tag == "beta"
        ok = ok and rep.verdict == "coisotropic"
    _verdict(4, "level-1 family of rational normal quartic: strong, beta", ok)


def test_criterion_05_duality_transport_quadric(transported_dual_sample):
    v = quadric_surface(QQ)
    dual = dual_variety(v)
    ok = True
    for k in range(20):
        s = sample_associated(v, 1, seed=Stream(5, "dt", k).seed)
        lperp, witness, checks = transported_dual_sample(s, v, dual)
        ok = ok and all(flag for _, flag in checks)
        ok = ok and lperp.ell == 1
    _verdict(5, "duality transport of 20 quadric samples to the dual", ok)


def test_criterion_06_segre_2x4_levels():
    t0 = time.time()
    v = segre(F, 2, 4)
    dual = segre(F, 2, 4)
    ok = True
    for ell in range(7):
        for k in range(5):
            s = sample_associated(v, ell, seed=Stream(6, "sg", ell, k).seed)
            push = associated_tangent_pushforward(s, v, seed=Stream(6, "pf", ell, k).seed)
            con = trace_annihilator(push)
            ok = ok and (con.dim == 1) == (2 <= ell <= 4)
            if ell in (0, 1, 5, 6):
                tag, _ = alpha_beta_type(con)
                want = "beta" if ell in (0, 1) else "alpha"
                ok = ok and tag == want
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    _verdict(6, "Segre 2x4: hypersurface levels {2,3,4}, beta/alpha types", ok)


def test_criterion_07_contact_lines_cubic_surface():
    ok = True
    for seed in (31, 77):
        v = random_hypersurface(F, 3, 3, seed=seed)
        for m in (2, 3):
            for k in range(5):
                cfg = sample_contact_line(v, m, seed=Stream(seed, "cl", m, k).seed)
                rep = verify_contact_theorem(cfg)
                ok = ok and rep.checks.all_ok() and rep.verdict == "coisotropic"
                con_dim = next(
                    c for c in rep.checks if c["name"].startswith("conormal dimension")
                )
                ok = ok and con_dim["ok"]
    _verdict(7, "contact-line theorem on seeded cubics, m in {2,3}", ok)


def test_criterion_07s_stretch_contact_m4_quartic():
    v = random_hypersurface(F, 4, 4, seed=5)
    ok = True
    cfg = sample_contact_line(v, 4, seed=9)
    rep = verify_contact_theorem(cfg)
    mult = next(c for c in rep.checks if c["name"].startswith("Segre multiplicity"))
    ok = ok and rep.checks.all_ok() and mult["ok"]
    _verdict(7, "stretch (non-gating): m=4 quartic in P4, multiplicity 3", ok)


def test_criterion_08_cone_degrees():
    ok = True
    cases = [(3, 3, 2), (3, 3, 3), (4, 4, 2), (4, 4, 3), (4, 4, 4)]
    for n, d, m in cases:
        for seed in (11, 12):
            v = random_hypersurface(F, n, d, seed=seed)
            cfg = sample_contact_line(v, m, seed=Stream(8, "cone", n, m, seed).seed)
            codim, deg = cone_dim_degree(cfg)
            ok = ok and codim == m - 1 and deg == factorial(m - 1)
    _verdict(8, "contact cones: codim m-1 and degree (m-1)! for m <= 4", ok)


def test_criterion_09_osculating_curves():
    ok = True
    stream = Stream(9)
    for n in (3, 4):
        ring = PolyRing(F, ("t",))
        t = ring.var(0)
        c = ParamCurve(F, [t**k for k in range(n + 1)])
        ts = []
        while len(ts) < 20:
            cand = stream.spawn("t%d-%d" % (n, len(ts))).randrange(1, 32003)
            ts.append(F.of(cand))
        for k in range(n):
            for tv in ts:
                h = osc_tangent_hom(c, tv, k)
                sm = osculating_space(c, tv, k)
                ok = ok and h.rank() == 1
                ok = ok and h.kernel_subspace().same_as(sm.prev)
                if sm.next is not None:
                    ok = ok and h.image_subspace().same_as(sm.next)
        # shift round trips at level 1: (L^-)^+ = L and (L^+)^- = L
        from grassgeo.osc import sigma_shift

        for tv in ts[:5]:
            level1 = osculating_space(c, tv, 1).subspace
            down = sigma_shift([(level1, osc_family_space(c, tv, 1))], "-")[0]
            back = sigma_shift([(down, osc_family_space(c, tv, 0))], "+")[0]
            ok = ok and back.same_as(level1)
            up = sigma_shift([(level1, osc_family_space(c, tv, 1))], "+")[0]
            back2 = sigma_shift([(up, osc_family_space(c, tv, 2))], "-")[0]
            ok = ok and back2.same_as(level1)
        # dual-curve biduality pointwise
        cq = ParamCurve(QQ, [PolyRing(QQ, ("t",)).var(0) ** k for k in range(n + 1)])
        dd = dual_curve(dual_curve(cq))
        for tv in (1, 2, 3, -1, 5):
            ok = ok and projective_equal_points(dd.point(QQ.of(tv)), cq.point(QQ.of(tv)))
    _verdict(9, "osculating curves in P3/P4: rank-one, shifts, biduality", ok)


def test_criterion_10_strongly_isotropic_classification():
    ok = True
    # alpha(P) and beta(P2) in Gr(1, P3)
    p = subspace_from_rows(QQ, 3, [[1, 0, 0, 0]])
    samples = []
    for row in ([0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 1]):
        l = subspace_from_rows(QQ, 3, [[1, 0, 0, 0], row])
        samples.append((l, homs_with_kernel_containing(adapted_basis(l), p)))
    tag, wit = classify_strongly_isotropic_family(samples)
    ok = ok and tag == "alpha" and wit.same_as(p)
    p2 = subspace_from_rows(QQ, 3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    samples = []
    for rows in ([[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 1, 0, 0], [0, 0, 1, 0]], [[1, 0, 1, 0], [0, 1, 1, 0]]):
        l = subspace_from_rows(QQ, 3, rows)
        samples.append((l, homs_with_image_in(adapted_basis(l), p2)))
    tag, wit = classify_strongly_isotropic_family(samples)
    ok = ok and tag == "beta" and wit.same_as(p2)
    # alpha(P) and beta(P2) in Gr(2, P4)
    p = subspace_from_rows(QQ, 4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    samples = []
    for row in ([0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 1, 1]):
        l = subspace_from_rows(QQ, 4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], row])
        samples.append((l, homs_with_kernel_containing(adapted_basis(l), p)))
    tag, wit = classify_strongly_isotropic_family(samples)
    ok = ok and tag == "alpha" and wit.same_as(p)
    p2 = subspace_from_rows(
        QQ, 4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
    )
    samples = []
    for rows in (
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]],
        [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
        [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 0, 1, 0]],
    ):
        l = subspace_from_rows(QQ, 4, rows)
        samples.append((l, homs_with_image_in(adapted_basis(l), p2)))
    tag, wit = classify_strongly_isotropic_family(samples)
    ok = ok and tag == "beta" and wit.same_as(p2)
    # tangent-line family of the twisted cubic is a curve
    ring = PolyRing(QQ, ("t",))
    t = ring.var(0)
    c = ParamCurve(QQ, [t**k for k in range(4)])
    samples = [
        (osculating_space(c, QQ.of(tv), 1).subspace, osc_family_space(c, QQ.of(tv), 1))
        for tv in (0, 1, 2)
    ]
    tag, wit = classify_strongly_isotropic_family(samples)
    ok = ok and tag == "curve"
    _verdict(10, "alpha/beta recovery in Gr(1,P3), Gr(2,P4); curve case", ok)


def test_criterion_11_transverse_intersection_pencil():
    v1 = twisted_cubic(F)
    stream = Stream(11)
    ok = False
    for attempt in range(20):
        s = stream.spawn(attempt)
        rows = [[F.random(s._r) for _ in range(4)] for _ in range(4)]
        g = Matrix(F, rows)
        if not g.det():
            continue
        v2 = projective_transform(v1, rows)
        # disjointness: the sum of the ideals has empty projective zero set
        joint = Ideal(v1.ring, list(v1.gens) + list(v2.gens))
        if hilbert_dim_degree(joint)[0] != -1:
            continue
        t1 = F.of(s.randrange(1, 32003))
        t2 = F.of(s.randrange(1, 32003))
        x1 = v1.parametrize([t1])
        x2 = v2.parametrize([t2])
        lmat = Matrix(F, [x1, x2])
        if lmat.rank() != 2:
            continue
        line = subspace_from_rows(F, 3, [list(x1), list(x2)])
        a = adapted_basis(line)
        con1 = _rank_one_conormals(a, a.quotient_coords(v1.smooth_tangent_space(x1).basis), x1)
        con2 = _rank_one_conormals(a, a.quotient_coords(v2.smooth_tangent_space(x2).basis), x2)
        if con1.dim != 1 or con2.dim != 1:
            continue
        joint_space = HomSpace(CONORMAL, a, list(con1.mats) + list(con2.mats))
        if joint_space.dim != 2:
            continue
        rep = classify(joint_space, "coisotropic", family_dim=2)
        locus = rank_one_locus(joint_space)
        ok = (
            rep.flags["rank_one_spanned"]
            and len(locus.points) == 2
            and all(m.rank() == 1 for _, m, _ in locus.points)
            and rep.verdict == "coisotropic"
        )
        break
    _verdict(11, "line meeting two disjoint cubics: rank-one spanned pencil", ok)


def test_criterion_12_infrastructure_properties():
    ok = True
    # Pluecker vanishing: 100 random embeds over both fields
    for field in (QQ, GF(32003)):
        rel = pluecker_relations(field, 1, 3)
        stream = Stream(12, repr(field))
        made = 0
        while made < 100:
            s = stream.spawn(made)
            m = Matrix(field, [[field.random(s._r) for _ in range(4)] for _ in range(2)])
            if m.rank() < 2:
                continue
            made += 1
            sub = pluecker_embed(field, m)
            ok = ok and all(not evaluate_pluecker(g, sub) for g in rel.gens)
    # trace annihilator: involution and dimension complement
    stream = Stream(12, "trace")
    for k in range(10):
        s = stream.spawn("m%d" % k)
        rows = [[F.random(s._r) for _ in range(5)] for _ in range(2)]
        m = Matrix(F, rows)
        if m.rank() < 2:
            continue
        sub = subspace_from_rows(F, 4, rows)
        a = adapted_basis(sub)
        total = 2 * 3
        dim = 1 + (k % (total - 1))
        mats = [Matrix(F, [[F.random(s._r) for _ in range(3)] for _ in range(2)]) for _ in range(dim)]
        sp = HomSpace(TANGENT, a, mats)
        ann = trace_annihilator(sp)
        ok = ok and sp.dim + ann.dim == total
        ok = ok and same_span(trace_annihilator(ann), sp)
    # determinism: byte-identical CLI reports
    from grassgeo.cli import main as cli_main

    argv = ["chow", "--variety", "twisted-cubic", "--samples", "5", "--seed", "3"]
    buf1, buf2 = io.StringIO(), io.StringIO()
    with redirect_stdout(buf1):
        code1 = cli_main(argv)
    with redirect_stdout(buf2):
        code2 = cli_main(argv)
    ok = ok and code1 == code2 == 0 and buf1.getvalue() == buf2.getvalue()
    ok = ok and json.loads(buf1.getvalue())["ok"]
    _verdict(12, "infrastructure: Pluecker, trace involution, determinism", ok)
