"""Contact sampling computes only what it reads, and what it reads is unchanged.

`Poly.substitute` and `linear_combinations` run on the field's kernel,
the substitution can stop at a total degree, the chart parts stop below
degree m, a direction is searched once per projective point, one-variable
point sets come from a gcd, and the Frobenius powers of root finding step
by t + a.  Each new path is
checked against the path it replaced, kept here as a reference, and
seeded contact lines are pinned to the points and lines they gave
before.
"""

import random

import pytest

from grassgeo import univariate as U
from grassgeo.contact import _chart_parts, _solve_direction, sample_contact_line
from grassgeo.errors import CertificateNotApplicable
from grassgeo.fields import GF, QQ
from grassgeo.grassmann import adapted_basis, point_subspace
from grassgeo.groebner import groebner
from grassgeo.isoclass import _affine_chart, affine_points_zero_dim, univariate_roots
from grassgeo.linalg import Matrix
from grassgeo.poly import LEX, Ideal, Poly, PolyRing, linear_combinations
from grassgeo.rng import Stream
from grassgeo.varieties import random_hypersurface

FIELDS = [QQ, GF(2), GF(3), GF(32003)]


def _scalar(field, rng):
    return field.of(rng.randrange(-9, 10)) if field is QQ else field.random(rng)


def _random_poly(ring, rng, nterms, degree):
    return ring.from_terms(
        ([rng.randrange(degree + 1) for _ in range(ring.nvars)], _scalar(ring.field, rng)) for _ in range(nterms)
    )


# -- substitution on the kernel ----------------------------------------------------------------------


def _element_substitute(f, target, images):
    """The element-level substitution that the kernel path replaced."""
    powers = [[target.one()] for _ in images]
    out = target.zero()
    for e, c in sorted(f.terms.items()):
        t = target.const(c)
        for img, pw, k in zip(images, powers, e):
            if k:
                while len(pw) <= k:
                    pw.append(pw[-1] * img)
                t = t * pw[k]
        out = out + t
    return out


def _below(poly, top):
    return Poly(poly.ring, {e: c for e, c in poly.terms.items() if sum(e) <= top})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_substitute_equals_the_element_reference(field):
    rng = random.Random("substitute/%r" % field)
    source = PolyRing(field, ("x", "y", "z"))
    target = PolyRing(field, ("s", "t"))
    capped = 0
    for trial in range(40):
        f = _random_poly(source, rng, rng.randrange(0, 8), 3)
        if trial % 10 == 0:
            f = source.const(_scalar(field, rng))
        images = [_random_poly(target, rng, rng.randrange(0, 4), 2) for _ in range(3)]
        want = _element_substitute(f, target, images)
        assert f.substitute(target, images) == want
        for top in range(0, 7):
            got = f.substitute(target, images, top)
            assert got == _below(want, top)
            capped += got != want
    assert capped >= 20


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_linear_combinations_equal_the_element_sums(field):
    rng = random.Random("combinations/%r" % field)
    ring = PolyRing(field, ("s", "t", "u"))
    for _ in range(30):
        polys = [_random_poly(ring, rng, rng.randrange(0, 5), 2) for _ in range(rng.randrange(1, 5))]
        rows = [[_scalar(field, rng) for _ in range(rng.randrange(1, 5))] for _ in polys]
        want = [sum((g * c for g, c in zip(polys, col)), ring.zero()) for col in zip(*rows)]
        assert linear_combinations(polys, rows) == want


@pytest.mark.parametrize("field", [GF(101), GF(32003), QQ], ids=repr)
def test_capped_chart_parts_are_the_low_parts_of_the_full_chart(field):
    for seed in range(4):
        for n, degree in ((3, 3), (4, 4)):
            v = random_hypersurface(field, n, degree, seed=seed)
            rng = random.Random(seed)
            p = [field.of(rng.randrange(1, 20)) for _ in range(n + 1)]
            frame = adapted_basis(point_subspace(field, p)).full
            yring, full = _chart_parts(v, frame, degree)
            images = linear_combinations((yring.one(),) + yring.gens(), frame.rows)
            assert sum(full.values(), yring.zero()) == _element_substitute(v.gens[0], yring, images)
            for top in range(degree + 1):
                ring, parts = _chart_parts(v, frame, top)
                assert ring == yring
                assert parts == {d: g for d, g in full.items() if d <= top}


# -- Frobenius powers --------------------------------------------------------------------------------


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13, 32003))
def test_powmod_equals_repeated_multiplication(p):
    k = GF(p).kernel
    rng = random.Random("powmod/%d" % p)
    for _ in range(4 if p == 32003 else 12):
        m = [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [1]
        a = rng.randrange(p)
        exponents = sorted({0, 1, 2, 3, rng.randrange(4, 300), (p - 1) // 2, p})
        power, e = [1], 0
        for target in exponents:
            while e < target:
                power = U._quo_rem(U._mul(power, [a, 1], k), m, k)[1]
                e += 1
            assert U._powmod(a, e, m, k) == power


# -- one-variable points -----------------------------------------------------------------------------


def _groebner_points(ideal):
    """The one-variable path that the gcd replaced: the reduced lex basis, then its roots with their
    multiplicities."""
    gb = groebner(ideal, order=LEX)
    if not gb.gens:
        raise ValueError("zero ideal is not zero-dimensional")
    roots, split = univariate_roots(gb.gens[0])
    return [((r,), mult) for r, mult in roots], split


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(32003)], ids=repr)
def test_one_variable_points_equal_the_groebner_path(field):
    rng = random.Random("points/%r" % field)
    ring = PolyRing(field, ("a",))
    a = ring.var(0)
    shapes = {"points": 0, "no points": 0, "unsplit": 0, "multiple": 0}
    for _ in range(60):
        common = ring.one()
        for _ in range(rng.randrange(0, 4)):
            common = common * (a - _scalar(field, rng))
        if rng.random() < 0.4:
            common = common * (a * a - a - 1)  # no root over Q or F_2; over F_7 and F_32003 it may split
        gens = [common * _random_poly(ring, rng, rng.randrange(1, 4), 3) for _ in range(rng.randrange(1, 4))]
        ideal = Ideal(ring, gens)
        if not ideal.gens:
            continue
        got = affine_points_zero_dim(ideal)
        assert got == _groebner_points(ideal)
        shapes["points" if got[0] else "no points"] += 1
        shapes["unsplit"] += not got[1]
        shapes["multiple"] += any(mult > 1 for _, mult in got[0])
    assert min(shapes.values()) >= 3, shapes
    with pytest.raises(ValueError, match="zero ideal"):
        affine_points_zero_dim(Ideal(ring, []))


# -- one chart search per direction ------------------------------------------------------------------


def _all_charts_direction(parts, span, m, field):
    """The direction search that the one-search-per-point loop replaced: each chart a_j = 1 with the
    other coordinates free; also returns the chart that answered."""
    k = span.nrows
    aring = PolyRing(field, tuple("a%d" % i for i in range(k)))
    images = linear_combinations(aring.gens(), span.rows)
    gens = []
    for deg in range(2, m):
        g = parts.get(deg)
        if g is None:
            continue
        gg = g.substitute(aring, images)
        if gg:
            gens.append(gg)
    for chart in range(k - 1, -1, -1):
        small, sub = _affine_chart(aring, gens, chart)
        if not sub or any(g.is_constant() for g in sub):
            continue
        pts, _ = affine_points_zero_dim(Ideal(small, sub))
        for cp, _ in pts:
            y = span.apply_row(list(cp[:chart]) + [field.one] + list(cp[chart:]))
            if any(y):
                return y, chart
    return None, None


def _seeded_direction_problem(field, rng, n, m):
    """Graded forms f_2..f_{m-1} in y_1..y_n and a rank m-1 span.  A third of the spans are unit rows, a
    third of the forms are a power of the last span coordinate on them, and a third have no y_1^deg term,
    so that later charts answer too."""
    yring = PolyRing(field, tuple("y%d" % i for i in range(1, n + 1)))
    k = m - 1
    while True:
        if rng.random() < 0.33:
            span = Matrix(field, [[field.one if j == i else field.zero for j in range(n)] for i in range(k)])
        else:
            span = Matrix(field, [[_scalar(field, rng) for _ in range(n)] for _ in range(k)])
        if span.rank() == k:
            break
    parts = {}
    for deg in range(2, m):
        terms = []
        for _ in range(rng.randrange(1, 7)):
            e = [0] * n
            for _ in range(deg):
                e[rng.randrange(n)] += 1
            terms.append((e, _scalar(field, rng)))
        if rng.random() < 0.33:
            terms.append(([0] * (k - 1) + [deg] + [0] * (n - k), field.one))
            terms = [(e, c) for e, c in terms if not any(e[:k - 1]) or any(e[k:])]
        elif rng.random() < 0.5:
            terms = [(e, c) for e, c in terms if e[0] != deg]  # on unit rows, e_1 solves this form
        parts[deg] = yring.from_terms(terms)
    return {d: g for d, g in parts.items() if g}, span


@pytest.mark.parametrize("m", (3, 4))
def test_solve_direction_equals_the_all_charts_search(m):
    answered = {}
    solved_refusals = 0
    for field in (GF(2), GF(3), GF(5), GF(101), GF(32003)):
        rng = random.Random("direction/%r/%d" % (field, m))
        for _ in range(120):
            parts, span = _seeded_direction_problem(field, rng, rng.randrange(m - 1, 5), m)
            try:
                want, chart = _all_charts_direction(parts, span, m, field)
            except CertificateNotApplicable:
                # a chart with free coordinates met a curve of solutions: the search with fewer free
                # coordinates may still refuse, or answer with a solution
                try:
                    got = _solve_direction(parts, span, m, field)
                except CertificateNotApplicable:
                    continue
                assert got is None or not any(g.evaluate(list(got)) for d, g in parts.items() if d > 1)
                solved_refusals += got is not None
                continue
            assert _solve_direction(parts, span, m, field) == want
            answered[chart] = answered.get(chart, 0) + 1
    # every chart answered some search, and some searches found nothing
    assert set(answered) == set(range(m - 1)) | {None}, answered
    assert min(answered.values()) >= 5, answered
    if m == 4:
        assert solved_refusals >= 20


# -- contact lines pinned to the lines they gave before ----------------------------------------------

# (p, n, surface, m, draw) -> the contact point, and the second row of the line's basis, on the
# hypersurface random_hypersurface(GF(p), n, n, seed=200 + surface) at Stream(11, p, surface, m, draw)
PINNED = [
    ((32003, 3, 0, 2, 0), "16323 20152 2153 11910", "1 26648 4896 0"),
    ((32003, 3, 0, 2, 1), "3014 19050 19212 1930", "1 14446 13619 0"),
    ((32003, 3, 0, 3, 0), "20112 18265 15261 19830", "2234 1 6749 0"),
    ((32003, 3, 0, 3, 1), "17830 6058 26495 2529", "5116 1 28710 0"),
    ((32003, 3, 1, 2, 0), "31721 9145 31974 16230", "1 11886 30448 0"),
    ((32003, 3, 1, 2, 1), "8227 17932 22994 26394", "1 16569 924 0"),
    ((32003, 3, 1, 3, 0), "12588 26020 2675 17188", "25726 1 10639 0"),
    ((32003, 3, 1, 3, 1), "9351 10678 22584 23979", "9123 1 29759 0"),
    ((101, 3, 0, 2, 0), "28 93 31 75", "1 16 44 0"),
    ((101, 3, 0, 2, 1), "4 52 89 12", "1 10 77 0"),
    ((101, 3, 0, 3, 0), "39 22 68 21", "77 1 75 0"),
    ((101, 3, 0, 3, 1), "83 38 39 75", "18 1 17 0"),
    ((101, 3, 1, 2, 0), "0 44 31 31", "1 6 72 0"),
    ((101, 3, 1, 2, 1), "34 81 15 1", "1 82 21 0"),
    ((101, 3, 1, 3, 0), "57 19 48 40", "31 1 19 0"),
    ((101, 3, 1, 3, 1), "12 10 67 77", "21 1 62 0"),
    ((32003, 4, 0, 3, 0), "1960 29290 23173 2237 15152", "16640 1 27389 21457 0"),
    ((32003, 4, 0, 3, 1), "24461 30470 22210 31963 22498", "3039 1 23040 23819 0"),
    ((32003, 4, 0, 4, 0), "27069 23877 25634 4607 11671", "30348 268 1 20271 0"),
    ((32003, 4, 0, 4, 1), "14481 15392 5685 15496 26123", "28057 18773 1 6754 0"),
    ((32003, 4, 1, 3, 0), "27226 15424 18918 31032 31376", "16411 1 1027 14985 0"),
    ((32003, 4, 1, 3, 1), "8282 16696 23259 1564 5881", "13464 1 28795 30219 0"),
    ((32003, 4, 1, 4, 0), "14081 3344 5109 25510 18069", "3506 5472 1 12091 0"),
    ((32003, 4, 1, 4, 1), "4890 23332 10779 8238 8397", "12841 23660 1 26428 0"),
]


@pytest.mark.parametrize("key, point, second", PINNED, ids=["F%d-P%d-surface%d-m%d-draw%d" % c[0] for c in PINNED])
def test_seeded_contact_lines_are_unchanged(key, point, second):
    p, n, surface, m, draw = key
    field = GF(p)
    v = random_hypersurface(field, n, n, seed=200 + surface)
    cfg = sample_contact_line(v, m, seed=Stream(11, p, surface, m, draw).seed)
    first, row = ([field.format(c) for c in r] for r in cfg.line.basis.rows)
    assert (" ".join(map(field.format, cfg.point)), " ".join(row)) == (point, second)
    assert first == point.split()
