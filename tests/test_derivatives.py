"""Derivatives are taken once, and one Jacobian serves the field and its jets.

A variety differentiates its generators when it is made and a curve its
coordinates; sampling then only evaluates.  The one Jacobian,
`ProjVariety.jacobian_at`, is checked against reduction mod p and, over
jets, against the Hessian built from a second `gradient()`; the
weighted Hessian `ProjVariety.hessian_at` against the same second
gradients.
`Poly.evaluate` is checked against a term-by-term reference.
"""

import random

import pytest

from grassgeo.associated import associated_tangent_pushforward, sample_associated
from grassgeo.cli import BUILTIN_VARIETIES
from grassgeo.contact import contact_tangent_space, sample_contact_line, taylor_cone_flag
from grassgeo.errors import InvalidInput
from grassgeo.fields import GF, QQ
from grassgeo.grassmann import TANGENT, HomSpace, adapted_basis, subspace_from_rows, trace_annihilator
from grassgeo.isoclass import classify
from grassgeo.jets import JetRing
from grassgeo.linalg import Matrix
from grassgeo.osc import ParamCurve, osc_tangent_hom, osculating_space
from grassgeo.poly import Poly, PolyRing, standard_ring
from grassgeo.projvar import ProjVariety
from grassgeo.rng import Stream
from grassgeo.varieties import rational_normal_curve, segre
from references import fermat_hypersurface

F = GF(32003)


@pytest.fixture
def count_diff(monkeypatch):
    """A function that starts counting `Poly.diff` calls and returns the list they are appended to."""

    def start():
        calls = []

        def counted(self, i, _original=Poly.diff):
            calls.append(i)
            return _original(self, i)

        monkeypatch.setattr(Poly, "diff", counted)
        return calls

    return start


# -- derivatives are taken only when the variety or curve is made ------------------------------------


def test_associated_sampling_and_jet_probes_differentiate_nothing(count_diff):
    v = segre(F, 2, 4)
    calls = count_diff()
    for ell in (1, 2):
        s = sample_associated(v, ell, seed=Stream(5, "s", ell).seed)
        associated_tangent_pushforward(s, v, seed=Stream(5, "p", ell).seed)
    assert calls == []


def test_classify_differentiates_nothing(count_diff):
    v = rational_normal_curve(F, 4)
    calls = count_diff()
    for k in range(2):
        s = sample_associated(v, 1, seed=Stream(3, "s", k).seed)
        push = associated_tangent_pushforward(s, v, seed=Stream(3, "p", k).seed)
        rep = classify(trace_annihilator(push), "coisotropic", family_dim=push.dim)
        assert rep.verdict == "coisotropic"
    assert calls == []


def test_osculating_tangents_differentiate_nothing(count_diff):
    ring = PolyRing(F, ("t",))
    t = ring.var(0)
    c = ParamCurve(F, [ring.one(), t + 3, t**2 - t, t**3 + 2 * t, t**4 + t**2 + 7])
    calls = count_diff()
    for k in (1, 2, 3):
        for tv in (2, 11, 40):
            h = osc_tangent_hom(c, tv, k)
            assert h.rank() == 1 and h.kernel_subspace().same_as(osculating_space(c, tv, k).prev)
    assert calls == []


def test_contact_tangent_space_differentiates_nothing(count_diff):
    v = fermat_hypersurface(F, 3, 3)
    cfg = sample_contact_line(v, 3, seed=5)
    calls = count_diff()
    assert contact_tangent_space(cfg).dim == 2 * (v.n - 1) - (cfg.m - 1)
    assert calls == []


def test_contact_sampling_and_the_cone_flag_differentiate_nothing(count_diff, contact_chart):
    v = fermat_hypersurface(F, 3, 3)
    calls = count_diff()
    for m in (2, 3):
        cfg = sample_contact_line(v, m, seed=5)
        chart, y = contact_chart(v, cfg)
        assert len(taylor_cone_flag(v, (cfg.point, cfg.tangent_at_p), chart, y, m).flag) == m - 1
    assert calls == []


# -- one Jacobian --------------------------------------------------------------------------------


def _integer_points(v, rng, count):
    """Integer points: images of integer parameters where there is a chart, else any integer vectors."""
    pts = [[rng.randrange(-9, 10) for _ in range(v.n + 1)] for _ in range(count)]
    if v.parametrization is not None:
        pring, coords = v.parametrization
        for _ in range(count):
            theta = [QQ.of(rng.randrange(-9, 10)) for _ in range(pring.nvars)]
            pts.append([int(c.evaluate(theta)) for c in coords])
    return pts


@pytest.mark.parametrize("name", sorted(BUILTIN_VARIETIES))
def test_rational_jacobian_reduces_to_the_prime_field_jacobian(name):
    vq, vp = BUILTIN_VARIETIES[name](QQ), BUILTIN_VARIETIES[name](F)
    rng = random.Random("jacobian-mod-p/" + name)
    for x in _integer_points(vq, rng, 6):
        jq, jp = vq.jacobian_at(x), vp.jacobian_at(x)
        assert (jq.nrows, jq.ncols) == (len(vq.gens), vq.n + 1)
        assert Matrix(F, jq.rows, jq.ncols) == jp


def _plane_conic_in_p3(field):
    """A conic in a plane of P^3: its linear generator has constant partials, which a jet Jacobian lifts."""
    x0, x1, x2, x3 = standard_ring(field, 4).gens()
    return ProjVariety(x0.ring, [x0 + 2 * x1 - x3, x0 * x3 - x1 * x2])


JET_VARIETIES = dict(BUILTIN_VARIETIES, **{"plane-conic-in-p3": _plane_conic_in_p3})


@pytest.mark.parametrize("field", [QQ, F], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", sorted(JET_VARIETIES))
def test_jet_jacobian_is_the_jacobian_plus_the_hessian_along_the_slope(name, field):
    v = JET_VARIETIES[name](field)
    jr = JetRing(field)
    rng = random.Random("jacobian-jets/%s/%r" % (name, field))
    hessians = [[d.gradient() for d in grad] for grad in v.gradients]
    for _ in range(4):
        x = [field.of(rng.randrange(-9, 10)) for _ in range(v.n + 1)]
        w = [field.of(rng.randrange(-9, 10)) for _ in range(v.n + 1)]
        jet = v.jacobian_at([jr.variable(a, b) for a, b in zip(x, w)], jr)
        assert [[e.a for e in row] for row in jet.rows] == [list(r) for r in v.jacobian_at(x).rows]
        slopes = [
            [sum((hij.evaluate(x) * wj for hij, wj in zip(hi, w)), field.zero) for hi in h] for h in hessians
        ]
        assert [[e.b for e in row] for row in jet.rows] == slopes


HESSIAN_VARIETIES = dict(BUILTIN_VARIETIES, **{"fermat-cubic": lambda field: fermat_hypersurface(field, 3, 3)})


@pytest.mark.parametrize("field", [QQ, F], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("name", sorted(HESSIAN_VARIETIES))
def test_the_weighted_hessian_is_the_weighted_sum_of_second_gradients(name, field):
    v = HESSIAN_VARIETIES[name](field)
    rng = random.Random("hessian/%s/%r" % (name, field))
    hessians = [[d.gradient() for d in grad] for grad in v.gradients]
    assert v.hessians is v.hessians  # derived once
    for _ in range(4):
        x = [field.of(rng.randrange(-9, 10)) for _ in range(v.n + 1)]
        weights = [field.of(rng.randrange(-3, 4)) for _ in v.gens]
        want = [
            [sum((wi * h[j][k].evaluate(x) for wi, h in zip(weights, hessians)), field.zero) for k in range(v.n + 1)]
            for j in range(v.n + 1)
        ]
        assert v.hessian_at(x, weights) == Matrix(field, want)


def test_tangent_space_needs_a_smooth_point_of_the_variety():
    v = rational_normal_curve(QQ, 3)
    assert v.smooth_tangent_space([1, 2, 4, 8]).ell == 1
    ring = standard_ring(QQ, 3)
    x0, x1, x2 = ring.gens()
    cusp = ProjVariety(ring, [x0 * x2**2 - x1**3])
    assert cusp.smooth_tangent_space([1, 1, 1]).ell == 1
    assert cusp.smooth_tangent_space([1, 0, 0]) is None


# -- evaluation ----------------------------------------------------------------------------------


def _reference_evaluate(poly, point):
    """Term by term in sorted order, each power by repeated multiplication."""
    acc = poly.ring.field.zero
    for e, c in sorted(poly.terms.items()):
        t = c
        for x, k in zip(point, e):
            for _ in range(k):
                t = t * x
        acc = acc + t
    return acc


def _random_poly(ring, rng, nterms, degree):
    terms = []
    for _ in range(nterms):
        e = [0] * ring.nvars
        for _ in range(rng.randrange(degree + 1)):
            e[rng.randrange(ring.nvars)] += 1
        terms.append((e, rng.randrange(-20, 21)))
    return ring.from_terms(terms)


@pytest.mark.parametrize("field", [QQ, GF(2), F], ids=["QQ", "GF2", "GF32003"])
def test_evaluate_equals_the_term_by_term_reference(field):
    ring = standard_ring(field, 3)
    jr = JetRing(field)
    rng = random.Random("evaluate/%r" % field)
    polys = [ring.zero(), ring.one(), ring.const(7), ring.const(-3)]
    polys += [_random_poly(ring, rng, rng.randrange(1, 9), 6) for _ in range(30)]
    for f in polys:
        for _ in range(3):
            x = [field.of(rng.randrange(-50, 51)) for _ in range(3)]
            jx = [jr.variable(a, rng.randrange(-50, 51)) for a in x]
            assert f.evaluate(x) == _reference_evaluate(f, x)
            assert f.evaluate(jx) == _reference_evaluate(f, jx)
    assert ring.zero().evaluate([field.one] * 3) == field.zero


# -- derivative tables of curves ------------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, F], ids=["QQ", "GF32003"])
def test_derivative_rows_are_iterated_derivatives(field):
    ring = PolyRing(field, ("t",))
    rng = random.Random("derivative-rows/%r" % field)
    for n in (1, 2, 3, 4):
        coords = [_random_poly(ring, rng, 4, n + 2) for _ in range(n + 1)]
        coords[0] = coords[0] + ring.one()
        c = ParamCurve(field, coords)
        t = field.of(rng.randrange(-30, 31))
        for k in range(n + 1):
            rows, ds = [], list(coords)
            for _ in range(k + 1):
                rows.append([d.evaluate([t]) for d in ds])
                ds = [d.diff(0) for d in ds]
            assert c.derivative_rows(t, k) == Matrix(field, rows)
        with pytest.raises(InvalidInput):
            c.derivative_rows(t, n + 1)


# -- 2x2 minors ----------------------------------------------------------------------------------


def _reference_minor_gens(rows):
    nr, nc = len(rows), len(rows[0]) if rows else 0
    out = []
    for i1 in range(nr):
        for i2 in range(i1 + 1, nr):
            for j1 in range(nc):
                for j2 in range(j1 + 1, nc):
                    m = rows[i1][j1] * rows[i2][j2] - rows[i1][j2] * rows[i2][j1]
                    if m:
                        out.append(m)
    return out


@pytest.mark.parametrize("field", [QQ, F], ids=["QQ", "GF32003"])
def test_minor_ideal_lists_the_two_by_two_minors_in_order(field):
    rng = random.Random("minors/%r" % field)
    for n, ell in ((3, 0), (3, 1), (4, 1), (4, 2), (5, 3)):
        a = adapted_basis(subspace_from_rows(field, n, [[int(i == j) for j in range(n + 1)] for i in range(ell + 1)]))
        for dim in (1, 2, 3):
            mats = [
                Matrix(field, [[rng.randrange(-3, 4) for _ in range(n - ell)] for _ in range(ell + 1)])
                for _ in range(dim)
            ]
            space = HomSpace(TANGENT, a, mats)
            if not space.dim:
                continue
            ideal = space.minor_ideal
            assert ideal.ring.vars == tuple("l%d" % i for i in range(space.dim))
            rows = space.generic_element_poly_matrix(ideal.ring)
            assert list(ideal.gens) == _reference_minor_gens(rows)
