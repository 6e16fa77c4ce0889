import random
from fractions import Fraction

import pytest

from grassgeo.errors import ParseError
from grassgeo.fields import GF, QQ
from grassgeo.parse import poly_from_string
from grassgeo.poly import PolyRing

RING = PolyRing(QQ, ("x0", "x1", "x2", "x3"))


def _same(f, g):
    """Equal polynomials with their terms in the same order."""
    return f == g and list(f.terms.items()) == list(g.terms.items())


def test_parse_basic_shapes():
    x0, x1, x2, x3 = RING.gens()
    assert _same(poly_from_string("x0*x3 - x1*x2", RING), x0 * x3 - x1 * x2)
    assert _same(poly_from_string("x0^3 + 3/2*x1^2*x2", RING), x0**3 + RING.const(Fraction(3, 2)) * x1**2 * x2)


def test_poly_from_string():
    f = poly_from_string("3/2*x0^2 - x1", RING)
    assert f.coeff((2, 0, 0, 0)) == Fraction(3, 2) and f.coeff((0, 1, 0, 0)) == -1
    assert len(f.terms) == 2


def test_precedence_and_associativity():
    x0, x1, x2, _ = RING.gens()
    assert _same(poly_from_string("-x0^2", RING), -(x0**2))
    assert _same(poly_from_string("x0 - x1 - x2", RING), (x0 - x1) - x2)
    assert _same(poly_from_string("2*x0^2*x1", RING), RING.const(2) * x0**2 * x1)
    assert _same(poly_from_string("-(x0 + x1)*x2", RING), -(x0 + x1) * x2)


def test_parse_errors_with_position():
    for text, pos in [("x0^-1", 3), ("(x0 + x1", 8), ("foo + 1", 0), ("x0 + ", 5), ("x0 + x7", 5)]:
        with pytest.raises(ParseError) as e:
            poly_from_string(text, RING)
        assert e.value.pos == pos, text


def test_unknown_ring_variable_has_a_position():
    ring = PolyRing(QQ, ("x0", "x1"))
    with pytest.raises(ParseError) as e:
        poly_from_string("x7 + 1", ring)
    assert e.value.pos == 0
    assert "not in ring" in str(e.value)


def test_zero_denominators_are_parse_errors_at_the_literal():
    ring = PolyRing(GF(32003), ("x0", "x1"))
    for r, text, pos in [(RING, "x0 + 1/0", 5), (ring, "x0 + 1/0", 5), (ring, "x1 - x0*1/32003", 8)]:
        with pytest.raises(ParseError) as e:
            poly_from_string(text, r)
        assert e.value.pos == pos, text
        assert "zero denominator" in str(e.value)
    # a multiple of p is no zero denominator over Q, and 0/d is zero
    assert poly_from_string("1/32003", RING) == RING.const(Fraction(1, 32003))
    assert not poly_from_string("0/5*x0", ring)


def test_whitespace_insensitive():
    assert _same(poly_from_string(" x0 *x1+ 2 ", RING), poly_from_string("x0*x1+2", RING))
    assert _same(poly_from_string("3 / 2*x0", RING), poly_from_string("3/2*x0", RING))


def test_pluecker_variable_names():
    ring = PolyRing(QQ, ("p0_1", "p2_3", "p12"))
    p01, p23, p12 = ring.gens()
    assert _same(poly_from_string("p0_1*p2_3 - p12", ring), p01 * p23 - p12)


# -- reference: random expression trees, their printer and their evaluation by ring operations ---------

_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5
_PREC = {"add": _ADD, "sub": _ADD, "mul": _MUL, "neg": _NEG, "pow": _POW, "var": _ATOM, "const": _ATOM}
_NAMES = ("x0", "x1", "x2", "p0_1", "p12")


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ("var", rng.choice(_NAMES))
        return ("const", Fraction(rng.randrange(0, 30), rng.randrange(1, 9)))
    kind = rng.choice(["add", "sub", "mul", "neg", "pow"])
    if kind in ("add", "sub", "mul"):
        return (kind, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "neg":
        return (kind, _random_expr(rng, depth - 1))
    return (kind, _random_expr(rng, depth - 1), rng.randrange(0, 5))


def _fmt(node, context):
    kind = node[0]
    if kind == "var":
        s = node[1]
    elif kind == "const":
        v = node[1]
        s = "%d/%d" % (v.numerator, v.denominator) if v.denominator != 1 else "%d" % v.numerator
        return "(%s)" % s if v.denominator != 1 and context >= _POW else s
    elif kind in ("add", "sub"):
        s = "%s %s %s" % (_fmt(node[1], _ADD), "+" if kind == "add" else "-", _fmt(node[2], _ADD + 1))
    elif kind == "mul":
        s = "%s*%s" % (_fmt(node[1], _MUL), _fmt(node[2], _MUL + 1))
    elif kind == "neg":
        s = "-%s" % _fmt(node[1], _NEG)
    else:
        s = "%s^%d" % (_fmt(node[1], _ATOM), node[2])
    return "(%s)" % s if _PREC[kind] < context else s


def _evaluate(node, ring):
    kind = node[0]
    if kind == "var":
        return ring.var(node[1])
    if kind == "const":
        return ring.const(node[1])
    if kind == "add":
        return _evaluate(node[1], ring) + _evaluate(node[2], ring)
    if kind == "sub":
        return _evaluate(node[1], ring) - _evaluate(node[2], ring)
    if kind == "mul":
        return _evaluate(node[1], ring) * _evaluate(node[2], ring)
    if kind == "neg":
        return -_evaluate(node[1], ring)
    return _evaluate(node[1], ring) ** node[2]


def test_round_trip_500_random_trees():
    """Printed, each tree parses to the polynomial its ring operations build."""
    rings = [PolyRing(field, _NAMES) for field in (QQ, GF(32003))]
    rng = random.Random(99)
    for _ in range(500):
        tree = _random_expr(rng, 4)
        text = _fmt(tree, 0)
        for ring in rings:
            assert _same(poly_from_string(text, ring), _evaluate(tree, ring)), text
