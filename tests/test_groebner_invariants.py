"""The invariants `buchberger` keeps, and the steps that rely on them.

Every basis element is monic, and no lead of the unreduced basis divides
a later lead.  So `_spoly` needs no inverse and `_autoreduce` needs one
pass; both are compared here with the general formulas they replace.
The helpers run on packed polynomials; the tests convert at their own
boundary with the module's `_Packing.pack` and `_Packing.unpack`.  The
work of each `buchberger` call of the `elimination` benchmark's reports
is pinned, so a change that moves a budget charge or alters the basis
it interreduces shows.
"""

import contextlib
import io
import json
import random
from operator import sub

import pytest

from grassgeo import associated, groebner
from grassgeo.cli import main
from grassgeo.fields import GF, QQ
from grassgeo.groebner import _Budget, _autoreduce, _Packing, _reduce_full, _spoly, buchberger
from grassgeo.poly import DEGREVLEX, LEX, BlockOrder, PolyRing, monomial_divides
from grassgeo.varieties import twisted_cubic

FIELDS = {"q": QQ, "gf2": GF(2), "gf3": GF(3), "gf32003": GF(32003)}
ORDERS = {"lex": LEX, "degrevlex": DEGREVLEX, "block": BlockOrder(2)}
SEEDS = range(8)


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def monomial_sub(a, b):
    return tuple(map(sub, a, b))


def _reduce_full_poly(p, basis, bud):
    """`_reduce_full` on Polys."""
    pk = _Packing(p.ring)
    reducers = [(g.terms[0][1], g) for g in map(pk.pack, basis)]
    return pk.unpack(_reduce_full(pk, *pk.pack(p).maps(), reducers, bud))


def _fixpoint_autoreduce(basis, bud):
    """Interreduction for any finite basis: whole passes until none changes an element."""
    ring = basis[0].ring if basis else None
    changed = True
    basis = list(basis)
    while changed:
        changed = False
        out = []
        for i, g in enumerate(basis):
            others = out + basis[i + 1 :]
            r = _reduce_full_poly(g, others, bud)
            if r:
                r = r.monic()
                out.append(r)
            if r != g:
                changed = True
        basis = out
    key = ring.order.key if ring else None
    basis.sort(key=lambda g: (sum(g.lead()[0]), key(g.lead()[0])))
    return basis


def _general_spoly(f, g):
    """The S-polynomial of any two nonzero polynomials."""
    ring = f.ring
    ef, cf = f.lead()
    eg, cg = g.lead()
    l = monomial_lcm(ef, eg)
    mf = ring.monomial(monomial_sub(l, ef), ring.field.one / cf)
    mg = ring.monomial(monomial_sub(l, eg), ring.field.one / cg)
    return mf * f - mg * g


def _spoly_poly(pk, f, g):
    """`_spoly` on Polys: its term maps, reduced by an empty basis, which charges nothing."""
    pf, pg = pk.pack(f), pk.pack(g)
    tl = pk.key(pk.lcm(pf.terms[0][1], pg.terms[0][1]))
    return pk.unpack(_reduce_full(pk, *_spoly(pf, pg, tl), [], _Budget(0)))


def _seeded_gens(ring, seed):
    rng = random.Random("groebner-invariants/%d" % seed)
    gens = []
    for _ in range(rng.randint(3, 4)):
        terms = []
        for _ in range(rng.randint(2, 4)):
            e = [0] * ring.nvars
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(ring.nvars)] += 1
            terms.append((e, rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])))
        gens.append(ring.from_terms(terms))
    return gens


def _captured_bases(field, order, monkeypatch):
    """The bases `buchberger` hands to `_autoreduce` on the seeded ideals, packed."""
    captured = []

    def capture(basis, bud):
        captured.append(list(basis))
        return _autoreduce(basis, bud)

    monkeypatch.setattr(groebner, "_autoreduce", capture)
    ring = PolyRing(field, ("w", "x", "y", "z"), order)
    for seed in SEEDS:
        buchberger(_seeded_gens(ring, seed))
    return captured


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_one_pass_matches_fixpoint_interreduction(field_name, order_name, monkeypatch):
    bases = _captured_bases(FIELDS[field_name], ORDERS[order_name], monkeypatch)
    redundant = 0
    for packed in bases:
        pk = packed[0].packing
        basis = [pk.unpack(g) for g in packed]
        leads = [g.lead()[0] for g in basis]
        assert all(g.lead()[1] == g.ring.field.one for g in basis)
        assert not any(monomial_divides(a, b) for i, a in enumerate(leads) for b in leads[i + 1 :])
        redundant += any(a != b and monomial_divides(a, b) for a in leads for b in leads)
        expected = _fixpoint_autoreduce(basis, _Budget(10**9))
        assert [pk.unpack(g) for g in _autoreduce(packed, _Budget(10**9))] == expected
    assert redundant


def test_interreduction_reduces_each_survivor_once(monkeypatch):
    budgets, reductions = [], []
    in_autoreduce = [False]

    class RecordedBudget(_Budget):
        def __init__(self, n):
            super().__init__(n)
            budgets.append(self)

    def counted_reduce(pk, work, mono, reducers, bud):
        if in_autoreduce[0]:
            reductions[-1] += 1
        return _reduce_full(pk, work, mono, reducers, bud)

    def counted_autoreduce(basis, bud):
        reductions.append(0)
        in_autoreduce[0] = True
        try:
            out = _autoreduce(basis, bud)
        finally:
            in_autoreduce[0] = False
        assert reductions[-1] == len(out)
        return out

    monkeypatch.setattr(groebner, "_Budget", RecordedBudget)
    monkeypatch.setattr(groebner, "_reduce_full", counted_reduce)
    monkeypatch.setattr(groebner, "_autoreduce", counted_autoreduce)
    associated.chow_hurwitz_ideal(twisted_cubic(QQ), 1)
    assert sum(reductions) == 17
    assert sum(b.limit - b.left for b in budgets) == 1414


# reports of the `elimination` benchmark plan, one per command and field; the quadric is a
# diagonal quadric surface with coefficients in [1, 60], as the plan draws them
ELIMINATION_REPORTS = {
    "dualize": ["dualize", "--variety", "quadric.json"],
    "chow": ["chow", "--variety", "twisted-cubic", "--samples", "2", "--seed", "5"],
    "hurwitz": ["hurwitz", "--variety", "twisted-cubic", "--samples", "2", "--seed", "5"],
}

# (term operations spent, length of the basis handed to `_autoreduce`) of each `buchberger` call:
# the twisted cubic's own ideal (read for its codimension), the elimination and, for chow, the
# Pluecker relation and the ideal of its principality check
CHOW = [(6, 3), (1405, 32), (0, 1), (59, 4)]
HURWITZ = [(6, 3), (40, 6)]
BUCHBERGER_WORK = {
    ("dualize", "q"): [(1613, 65)],
    ("dualize", "fp:32003"): [(1613, 65)],
    ("chow", "q"): CHOW,
    ("chow", "fp:32003"): CHOW,
    ("hurwitz", "q"): HURWITZ,
    ("hurwitz", "fp:32003"): HURWITZ,
}


@pytest.mark.parametrize("command, field", sorted(BUCHBERGER_WORK))
def test_elimination_reports_pin_the_work_of_each_buchberger_call(command, field, tmp_path, monkeypatch):
    work = []

    def counted_autoreduce(basis, bud):
        out = _autoreduce(basis, bud)
        work.append((bud.limit - bud.left, len(basis)))
        return out

    monkeypatch.setattr(groebner, "_autoreduce", counted_autoreduce)
    (tmp_path / "quadric.json").write_text(json.dumps({"n": 3, "generators": ["17*x0^2 + 4*x1^2 + 39*x2^2 + 52*x3^2"]}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in ELIMINATION_REPORTS[command]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + ["--field", field]) == 0
    assert work == BUCHBERGER_WORK[command, field]


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_spoly_of_monic_elements_divides_nothing(field_name, count_fp_operators, monkeypatch):
    field = FIELDS[field_name]
    ring = PolyRing(field, ("w", "x", "y", "z"), DEGREVLEX)
    pk = _Packing(ring)
    pairs = []
    for seed in SEEDS:
        gens = [g.monic() for g in _seeded_gens(ring, seed) if g]
        pairs += [(f, g) for f in gens for g in gens if f is not g]
    expected = [_general_spoly(f, g) for f, g in pairs]
    inverses = []
    monkeypatch.setattr(type(field.kernel), "inv", lambda k, x: inverses.append(x))
    calls = count_fp_operators()
    got = [_spoly_poly(pk, f, g) for f, g in pairs]
    assert "__truediv__" not in calls and "__rtruediv__" not in calls
    assert got == expected
    # the coefficients are raw kernel scalars: no Fp operator runs, and no kernel inverse is taken
    assert not calls and not inverses
