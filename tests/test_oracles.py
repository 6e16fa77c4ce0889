"""Cross-validation of eliminated forms against independent constructions.

The Hurwitz form of a quadric is compared with the discriminant of the
restricted quadratic form; the Chow form of the twisted cubic with a
Sylvester resultant of the line's two hyperplane equations pulled back
through the parametrization.  Both oracles avoid Groebner bases
entirely.
"""

import random

from grassgeo.associated import chow_hurwitz_ideal
from grassgeo.fields import GF
from grassgeo.grassmann import evaluate_pluecker, pluecker_embed, subspace_from_rows
from grassgeo.linalg import Matrix
from grassgeo.varieties import quadric_surface, twisted_cubic
from references import perp_dual

F = GF(32003)


def _quadric_gram():
    half = F.one / F.of(2)
    z = F.zero
    # x0*x3 - x1*x2 as a symmetric matrix
    return Matrix(
        F,
        [
            [z, z, z, half],
            [z, z, -half, z],
            [z, -half, z, z],
            [half, z, z, z],
        ],
    )


def _restriction_discriminant(a, u, v):
    def q(x, y):
        xa = a.apply_row(x)
        return sum((c * yc for c, yc in zip(xa, y)), F.zero)

    return q(u, v) * q(u, v) - q(u, u) * q(v, v)


def test_hurwitz_quadric_matches_restriction_discriminant():
    v = quadric_surface(F)
    form = chow_hurwitz_ideal(v, 1).gens[0]
    gram = _quadric_gram()
    rng = random.Random(6)
    ratio = None
    checked = 0
    while checked < 50:
        u = [F.random(rng) for _ in range(4)]
        w = [F.random(rng) for _ in range(4)]
        m = Matrix(F, [u, w])
        if m.rank() < 2:
            continue
        sub = pluecker_embed(F, m)
        lhs = evaluate_pluecker(form, sub)
        rhs = _restriction_discriminant(gram, u, w)
        if not rhs:
            assert not lhs
            continue
        assert lhs
        r = lhs / rhs
        if ratio is None:
            ratio = r
        assert r == ratio
        checked += 1


def _sylvester_resultant(f, g):
    """Resultant of two univariate polynomials over the field."""
    df, dg = f.total_degree(), g.total_degree()
    size = df + dg
    rows = []
    fc = [f.coeff((k,)) for k in range(df, -1, -1)]
    gc = [g.coeff((k,)) for k in range(dg, -1, -1)]
    for i in range(dg):
        rows.append([F.zero] * i + fc + [F.zero] * (size - len(fc) - i))
    for i in range(df):
        rows.append([F.zero] * i + gc + [F.zero] * (size - len(gc) - i))
    return Matrix(F, rows).det()


def test_chow_twisted_cubic_zero_set_matches_resultant():
    v = twisted_cubic(F)
    form = chow_hurwitz_ideal(v, 1).gens[0]
    pring, coords = v.parametrization
    rng = random.Random(13)
    agree = 0
    zeros_seen = 0
    while agree < 100:
        u = [F.random(rng) for _ in range(4)]
        w = [F.random(rng) for _ in range(4)]
        m = Matrix(F, [u, w])
        if m.rank() < 2:
            continue
        if rng.random() < 0.4:
            # force an incident line through a curve point for coverage
            t0 = F.of(rng.randrange(32003))
            u = list(v.parametrize([t0]))
            m = Matrix(F, [u, w])
            if m.rank() < 2:
                continue
        sub = pluecker_embed(F, m)
        duals = perp_dual(subspace_from_rows(F, 3, [u, w]))
        h1, h2 = duals.basis.rows
        f1 = sum((pring.const(c) * coords[j] for j, c in enumerate(h1)), pring.zero())
        f2 = sum((pring.const(c) * coords[j] for j, c in enumerate(h2)), pring.zero())
        if f1.total_degree() < 3 or f2.total_degree() < 3:
            # degenerate restriction (line through the chart's missing point)
            continue
        res = _sylvester_resultant(f1, f2)
        val = evaluate_pluecker(form, sub)
        assert bool(res) == bool(val)
        agree += 1
        if not val:
            zeros_seen += 1
    assert zeros_seen >= 20
