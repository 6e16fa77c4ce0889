"""Independent checks of grassgeo reports.

Nothing here imports grassgeo.  The checks parse the report strings
themselves and recompute what they test with plain `int` arithmetic
mod p or with `Fraction`, from the inputs in the workload plan or from
facts the paper's method must satisfy.  `check(report, entry)` returns
a list of problems; an empty list means the report checked out.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations

_NUMBER = re.compile(r"-?\d+(/\d+)?\Z")


class Field:
    """Q (p is None) or F_p, on Fraction or on int residues."""

    def __init__(self, tag):
        self.p = None if tag == "q" else int(tag.split(":")[1])

    def of(self, x):
        if isinstance(x, str):
            if not _NUMBER.match(x.strip()):
                raise ValueError("not a scalar: %r" % x)
            x = Fraction(x.strip())
        if self.p is None:
            return Fraction(x)
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def r(self, x):
        return x % self.p if self.p is not None else x

    def inv(self, x):
        return pow(x, -1, self.p) if self.p is not None else 1 / Fraction(x)

    def random(self, rng, nonzero=False):
        if self.p is not None:
            return rng.randrange(1 if nonzero else 0, self.p)
        while True:
            x = Fraction(rng.randint(-50, 50))
            if x or not nonzero:
                return x


# -- linear algebra ---------------------------------------------------------


def _echelon(rows, fld):
    """(rank, determinant-with-sign of the leading square block) by elimination."""
    m = [[fld.r(x) for x in row] for row in rows]
    rank, det = 0, 1
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det = fld.r(det * m[rank][c])
        inv = fld.inv(m[rank][c])
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = fld.r(m[i][c] * inv)
                m[i] = [fld.r(a - f * b) for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank, det


def rank(rows, fld):
    return _echelon(rows, fld)[0]


def det(rows, fld):
    rk, d = _echelon(rows, fld)
    return fld.r(d) if rk == len(rows) else 0


def column_sets(k, ncols):
    return list(combinations(range(ncols), k))


def pluecker(rows, fld):
    """Maximal minors over lexicographically ordered column sets."""
    return [det([[row[j] for j in cols] for row in rows], fld) for cols in column_sets(len(rows), len(rows[0]))]


def pluecker_point(rows, fld):
    """Plücker coordinates keyed by grassgeo's variable names p<i>_<j>..."""
    sets = column_sets(len(rows), len(rows[0]))
    return {"p" + "_".join(map(str, cols)): v for cols, v in zip(sets, pluecker(rows, fld))}


def dot(u, v, fld):
    return fld.r(sum(a * b for a, b in zip(u, v)))


# -- polynomials --------------------------------------------------------------


def parse_poly(text, fld):
    """{monomial: coefficient} of a grassgeo polynomial string.

    A monomial is a sorted tuple of (variable, exponent) pairs.
    """
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = re.split(r" ([+-]) ", text)
    terms = {}
    signs = [sign] + [1 if op == "+" else -1 for op in parts[1::2]]
    for s, body in zip(signs, parts[0::2]):
        coef = fld.of(s)
        mono = {}
        for factor in body.split("*"):
            if _NUMBER.match(factor):
                coef = fld.r(coef * fld.of(factor))
                continue
            var, _, exp = factor.partition("^")
            if not re.fullmatch(r"[xp]\d+(_\d+)*", var):
                raise ValueError("bad factor %r in %r" % (factor, text))
            mono[var] = mono.get(var, 0) + int(exp or 1)
        key = tuple(sorted(mono.items()))
        if key in terms:
            raise ValueError("repeated monomial in %r" % text)
        terms[key] = coef
    return terms


def total_degrees(poly):
    return {sum(e for _, e in mono) for mono in poly}


def evaluate(poly, point, fld):
    acc = 0
    for mono, coef in poly.items():
        term = coef
        for var, e in mono:
            term = fld.r(term * pow(point[var], e, fld.p) if fld.p else term * point[var] ** e)
        acc = fld.r(acc + term)
    return acc


def _poly_mul(a, b, fld):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = fld.r(out[i + j] + x * y)
    return out


# -- shared report checks --------------------------------------------------


def _subspace_problems(sub, fld, ell, ncols, tag):
    """The basis has full rank and the Plücker vector equals its minors."""
    out = []
    rows = [[fld.of(x) for x in row] for row in sub["basis"]]
    if sub["ell"] != ell or len(rows) != ell + 1 or any(len(r) != ncols for r in rows):
        return ["%s: basis shape %dx%s for ell %s" % (tag, len(rows), len(rows[0]) if rows else 0, sub["ell"])]
    if rank(rows, fld) != ell + 1:
        out.append("%s: basis is rank deficient" % tag)
    sets = ["".join(map(str, c)) for c in column_sets(ell + 1, ncols)]
    if sub["index_sets"] != sets:
        out.append("%s: index sets are not lexicographic" % tag)
    if [fld.of(x) for x in sub["pluecker"]] != pluecker(rows, fld):
        out.append("%s: Plücker vector is not the minors of the basis" % tag)
    return out


def _rows(matrix, fld):
    return [[fld.of(x) for x in row] for row in matrix]


# -- elimination ------------------------------------------------------------


def check_dualize(report, meta):
    """The dual of sum a_i x_i^2 is sum y_i^2 / a_i up to scale, of dimension 2 and degree 2."""
    fld = Field(meta["field"])
    res = report["results"]
    out = []
    if res["dimension"] != 2 or res["degree"] != 2:
        out.append("dual dimension/degree %s/%s, expected 2/2" % (res["dimension"], res["degree"]))
    if len(res["generators"]) != 1:
        return out + ["%d dual generators, expected 1" % len(res["generators"])]
    poly = parse_poly(res["generators"][0], fld)
    expected = {(("x%d" % i, 2),): fld.inv(fld.of(a)) for i, a in enumerate(meta["a"])}
    if set(poly) != set(expected):
        return out + ["dual generator has monomials %s" % sorted(poly)]
    scale = fld.r(poly[(("x0", 2),)] * fld.inv(expected[(("x0", 2),)]))
    if not scale or any(poly[m] != fld.r(scale * c) for m, c in expected.items()):
        out.append("dual generator is not sum y_i^2/a_i up to scale")
    return out


def _curve_point(u, fld, order=0):
    """The order-th derivative of u -> (1, u, u^2, u^3)."""
    if order == 0:
        return [fld.r(u**i) for i in range(4)]
    return [0, 1, fld.r(2 * u), fld.r(3 * u * u)]


def _quadric_point(rng, fld):
    a, b = fld.random(rng), fld.random(rng)
    return [fld.of(1), a, b, fld.r(a * b)]


def _quadric_tangent(x, rng, fld):
    """A vector v with grad(x0*x3 - x1*x2)(x) . v = 0 (here x0 = 1)."""
    v = [fld.random(rng) for _ in range(3)]
    v3 = fld.r(-x[3] * v[0] + x[2] * v[1] + x[1] * v[2])
    return v + [v3]


def _tangent_members(variety, command, rng, fld):
    """Rows of a subspace on the form's variety in the Grassmannian."""
    if variety == "twisted-cubic":
        s = fld.random(rng, nonzero=True)
        if command == "chow":  # secant line span(x(s), x(t))
            t = fld.random(rng, nonzero=True)
            while t == s:
                t = fld.random(rng, nonzero=True)
            return [_curve_point(s, fld), _curve_point(t, fld)]
        w = [fld.random(rng) for _ in range(4)]  # plane span(x(s), x'(s), w)
        return [_curve_point(s, fld), _curve_point(s, fld, 1), w]
    x = _quadric_point(rng, fld)
    if command == "chow":  # a point of the quadric
        return [x]
    return [x, _quadric_tangent(x, rng, fld)]  # line span(x, v), v in T_xQ


# level and degree of the Chow and Hurwitz forms of the builtin varieties
FORMS = {
    ("chow", "twisted-cubic"): (1, 3),
    ("hurwitz", "twisted-cubic"): (2, 4),
    ("chow", "quadric-surface"): (0, 2),
    ("hurwitz", "quadric-surface"): (1, 2),
}
FORM_PROBES = 12


def check_form(report, meta):
    """Degree; vanishing on subspaces built on/tangent to the variety; nonzero on random ones."""
    fld = Field(meta["field"])
    command, variety = report["command"], meta["variety"]
    level, degree = FORMS[(command, variety)]
    res = report["results"]
    out = []
    if res["level"] != level:
        out.append("level %s, expected %d" % (res["level"], level))
    if not res["generators"] or res["form"] != res["generators"][0]:
        out.append("form is not the first generator")
    form = parse_poly(res["form"] or "0", fld)
    if total_degrees(form) != {degree} or res["degree"] != degree:
        out.append("form degree %s (reported %s), expected %d" % (sorted(total_degrees(form)), res["degree"], degree))
    rng = random.Random(meta["check_seed"])
    vanish = 0
    for _ in range(FORM_PROBES):
        rows = _tangent_members(variety, command, rng, fld)
        if rank(rows, fld) == len(rows) and evaluate(form, pluecker_point(rows, fld), fld) == 0:
            vanish += 1
    if vanish < FORM_PROBES - 1:
        out.append("form vanishes on only %d/%d constructed subspaces" % (vanish, FORM_PROBES))
    nonzero = 0
    for _ in range(FORM_PROBES):
        rows = [[fld.random(rng) for _ in range(4)] for _ in range(level + 1)]
        if evaluate(form, pluecker_point(rows, fld), fld) != 0:
            nonzero += 1
    if nonzero < FORM_PROBES - 1:
        out.append("form is nonzero on only %d/%d random subspaces" % (nonzero, FORM_PROBES))
    return out


POLAR_DEGREES = {
    "twisted-cubic": {"0": 0, "1": 3, "2": 4},
    "quadric-surface": {"0": 2, "1": 2, "2": 2},
}


def check_polar(report, meta):
    expected = POLAR_DEGREES[meta["variety"]]
    res = report["results"]
    out = []
    if res["degrees"] != expected:
        out.append("polar degrees %s, expected %s" % (res["degrees"], expected))
    positive = [int(k) for k, d in expected.items() if d > 0]
    if res["range"] != [min(positive), max(positive)]:
        out.append("hypersurface range %s, expected [%d, %d]" % (res["range"], min(positive), max(positive)))
    return out


# -- sampling ---------------------------------------------------------------


def check_classify(report, meta):
    res = report["results"]
    out = []
    if res["ell"] != meta["ell"] or len(res["reports"]) != meta["samples"]:
        return ["ell %s with %d reports" % (res["ell"], len(res["reports"]))]
    space_dim = meta["n"] - meta["ell"] - meta["dim"]
    for k, rep in enumerate(res["reports"]):
        got = (rep["verdict"], rep["type"], rep["space_dim"], rep["ambient"])
        want = ("coisotropic", "beta", space_dim, {"ell": meta["ell"], "n": meta["n"]})
        if got != want:
            out.append("sample %d: verdict/type/space_dim/ambient %s, expected %s" % (k, got, want))
    return out


def check_sample_associated(report, meta):
    """Segre 2x4: conormal dimension, rank-one witness in the plane, witness normal, Plücker vector."""
    fld = Field(meta["field"])
    ell = meta["ell"]
    res = report["results"]
    if res["ell"] != ell or len(res["samples"]) != meta["samples"]:
        return ["ell %s with %d samples" % (res["ell"], len(res["samples"]))]
    out = []
    for k, s in enumerate(res["samples"]):
        tag = "sample %d" % k
        if s["conormal_dim"] != max(3 - ell, 1):
            out.append("%s: conormal_dim %s, expected %d" % (tag, s["conormal_dim"], max(3 - ell, 1)))
        sub = s["subspace"]
        out += _subspace_problems(sub, fld, ell, 8, tag)
        basis = _rows(sub["basis"], fld)
        x = [fld.of(c) for c in s["witness_point"]]
        h = [fld.of(c) for c in s["witness_normal"]]
        xm = [x[0:4], x[4:8]]
        hm = [h[0:4], h[4:8]]
        if rank(xm, fld) != 1:
            out.append("%s: witness point is not a rank-one 2x4 matrix" % tag)
            continue
        if rank(basis + [x], fld) != ell + 1:
            out.append("%s: witness point is not in the plane" % tag)
        if not any(h) or any(dot(row, h, fld) for row in basis):
            out.append("%s: witness normal does not annihilate the plane" % tag)
        w = next(row for row in xm if any(row))  # x = u w^T
        u = next([xm[0][j], xm[1][j]] for j in range(4) if xm[0][j] or xm[1][j])
        hw = [dot(row, w, fld) for row in hm]
        htu = [fld.r(hm[0][j] * u[0] + hm[1][j] * u[1]) for j in range(4)]
        if any(hw) or any(htu):
            out.append("%s: witness normal does not annihilate the Segre tangent space" % tag)
    return out


def _derivative_rows(m, t, k, fld):
    """Rows c(t), c'(t), ..., c^(k)(t) of c(t) = m (1, t, ..., t^d)."""
    rows = []
    for r in range(k + 1):
        row = []
        for coeffs in m:
            acc = 0
            for i, a in enumerate(coeffs):
                if i >= r:
                    falling = 1
                    for f in range(i - r + 1, i + 1):
                        falling *= f
                    acc += a * falling * t ** (i - r)
            row.append(fld.r(fld.of(acc) if fld.p is None else acc % fld.p))
        rows.append(row)
    return rows


def check_osc(report, meta):
    """The osculating subspace is span(c(t), ..., c^(k)(t)) and the shift map has rank one."""
    fld = Field(meta["field"])
    k, m = meta["k"], meta["matrix"]
    res = report["results"]
    if res["k"] != k or len(res["samples"]) != meta["samples"]:
        return ["k %s with %d samples" % (res["k"], len(res["samples"]))]
    out = []
    for i, s in enumerate(res["samples"]):
        tag = "sample %d" % i
        t = fld.of(s["t"])
        if s["hom_rank"] != 1:
            out.append("%s: hom_rank %s" % (tag, s["hom_rank"]))
        sub = s["subspace"]
        out += _subspace_problems(sub, fld, k, len(m), tag)
        derivs = _derivative_rows(m, t, k, fld)
        basis = _rows(sub["basis"], fld)
        if rank(derivs, fld) != k + 1 or rank(basis + derivs, fld) != k + 1:
            out.append("%s: subspace is not span(c(t), ..., c^(k)(t))" % tag)
    return out


# -- contact ----------------------------------------------------------------


def _cubic_along(c, x, w, fld):
    """Coefficients in t of f(x + t w) for f = x0^3 + x1^3 + x2^3 + x3^3 + c x0 x1 x2."""
    lines = [[x[i], w[i]] for i in range(4)]
    acc = [0, 0, 0, 0]
    for lin in lines:
        cube = _poly_mul(_poly_mul(lin, lin, fld), lin, fld)
        acc = [fld.r(a + b) for a, b in zip(acc, cube)]
    prod = _poly_mul(_poly_mul(lines[0], lines[1], fld), lines[2], fld)
    return [fld.r(a + c * b) for a, b in zip(acc, prod)]


def check_contact(report, meta):
    """The point is on the surface and the line meets it there with order exactly m."""
    fld = Field(meta["field"])
    c, m = meta["c"], meta["m"]
    res = report["results"]
    if res["m"] != m or len(res["reports"]) != meta["samples"]:
        return ["m %s with %d reports" % (res["m"], len(res["reports"]))]
    out = []
    for k, rep in enumerate(res["reports"]):
        tag = "sample %d" % k
        x = [fld.of(v) for v in rep["point"]]
        line = rep["line"]
        out += _subspace_problems(line, fld, 1, 4, tag)
        basis = _rows(line["basis"], fld)
        if not any(x) or _cubic_along(c, x, [0] * 4, fld)[0]:
            out.append("%s: point is not on the surface" % tag)
            continue
        if rank(basis + [x], fld) != 2:
            out.append("%s: point is not on the line" % tag)
            continue
        w = next(row for row in basis if rank([row, x], fld) == 2)
        g = _cubic_along(c, x, w, fld)
        order = next((i for i, gi in enumerate(g) if gi), None)
        if order != m:
            out.append("%s: contact order %s, expected %d" % (tag, order, m))
    return out


CHECKS = {
    "dualize": check_dualize,
    "chow": check_form,
    "hurwitz": check_form,
    "polar-degrees": check_polar,
    "classify": check_classify,
    "sample-associated": check_sample_associated,
    "osc": check_osc,
    "contact": check_contact,
}


def check(report, entry):
    """Problems found in `report` (a parsed CLI report) for the plan entry that produced it."""
    command = entry["argv"][0]
    problems = []
    if report.get("command") != command or report.get("ok") is not True:
        problems.append("command %r, ok %r" % (report.get("command"), report.get("ok")))
    try:
        problems += CHECKS[command](report, entry["meta"])
    except (KeyError, IndexError, TypeError, ValueError, StopIteration, ZeroDivisionError) as exc:
        problems.append("malformed report: %s: %s" % (type(exc).__name__, exc))
    return problems
