"""Command-line interface: variety ingestion, dispatch, JSON reports.

All input/output is JSON.  Reports are deterministic given (inputs,
seed, field): keys are sorted, rationals are printed as "num/den"
strings, Pluecker vectors follow the recorded lexicographic index-set
order, and wall time goes to stderr, never into the payload.  Exit
codes: 0 all checks pass, 1 failed checks; a GrassgeoError ends the
command with its own exit_code (see grassgeo.errors): 2 for rejected,
unparsable or out-of-scope input, 3 for an exhausted budget or an
unlucky seed.  Any other exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from hashlib import sha256

from .associated import (
    associated_conormal,
    associated_tangent_pushforward,
    chow_hurwitz_ideal,
    hypersurface_range,
    polar_degree,
    sample_associated,
)
from .contact import sample_contact_line, verify_contact_theorem
from .errors import GrassgeoError, InvalidInput, Unsupported
from .fields import field_from_tag, scalar_from_string
from .grassmann import (
    TANGENT,
    HomSpace,
    Subspace,
    adapted_basis,
    evaluate_pluecker,
    pluecker_relations,
    subspace_from_rows,
    trace_annihilator,
)
from .groebner import normal_form
from .isoclass import CheckList, classify
from .linalg import Matrix
from .osc import (
    ParamCurve,
    classify_strongly_isotropic_family,
    dual_curve,
    osculating_space,
    projective_equal_points,
)
from .parse import poly_from_string
from .poly import Ideal, PolyRing, standard_ring
from .projvar import ProjVariety, dual_variety
from .rng import Stream
from .varieties import (
    quadric_surface,
    rational_normal_curve,
    segre,
    twisted_cubic,
)

SCHEMA_VERSION = "1"

BUILTIN_VARIETIES = {
    "twisted-cubic": lambda f: twisted_cubic(f),
    "quadric-surface": lambda f: quadric_surface(f),
    "rational-normal-quartic": lambda f: rational_normal_curve(f, 4),
    "segre-2x4": lambda f: segre(f, 2, 4),
}


def _read_input(path, parse):
    """parse(JSON contents of path); any failure is an InvalidInput naming the file."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, LookupError, TypeError, ValueError) as exc:
        raise InvalidInput("cannot read %s: %s %s" % (path, type(exc).__name__, exc)) from exc


def load_variety(path_or_name, field) -> ProjVariety:
    """Variety from a JSON description file or a builtin name."""
    if path_or_name in BUILTIN_VARIETIES:
        return BUILTIN_VARIETIES[path_or_name](field)

    def parse(data):
        ring = standard_ring(field, int(data["n"]) + 1)
        gens = [poly_from_string(s, ring) for s in data.get("generators", [])]
        param = None
        if data.get("parametrization"):
            pd = data["parametrization"]
            pring = PolyRing(field, tuple(pd["params"]))
            param = (pring, tuple(poly_from_string(s, pring) for s in pd["coords"]))
        return ProjVariety(ring, gens, parametrization=param)

    return _read_input(path_or_name, parse)


def load_curve(path, field) -> ParamCurve:
    pring = PolyRing(field, ("p0",))
    return _read_input(path, lambda data: ParamCurve(field, [poly_from_string(s, pring) for s in data["coords"]]))


def fmt_scalar(field, x):
    return field.format(x)


def fmt_vector(field, v):
    return [fmt_scalar(field, c) for c in v]


def fmt_matrix(field, m: Matrix):
    return [fmt_vector(field, r) for r in m.rows]


def fmt_subspace(field, s: Subspace):
    return {
        "ell": s.ell,
        "basis": fmt_matrix(field, s.basis),
        "pluecker": fmt_vector(field, s.pluecker),
        "index_sets": ["".join(str(i) for i in c) for c in s.column_sets()],
    }


def _digest(payload) -> str:
    return sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _sampled_members(v, ell, count, seed):
    """Subspaces on the associated family, one per seeded sample."""
    out = []
    for k in range(count):
        s = sample_associated(v, ell, seed=Stream(seed, "member", k).seed)
        out.append(s.subspace)
    return out


def _random_subspaces(v, ell, count, seed):
    field = v.field
    out = []
    stream = Stream(seed, "random-planes")
    k = 0
    while len(out) < count:
        s = stream.spawn(k)
        k += 1
        m = Matrix(field, [s.vector(field, v.n + 1) for _ in range(ell + 1)])
        if m.rank() == ell + 1:
            out.append(Subspace(field, v.n, m, check=False))
    return out


def cmd_form(args, field):
    """Chow (level codim-1) or Hurwitz (level codim) form of the variety."""
    v = load_variety(args.variety, field)
    checks = CheckList()
    ell = v.codim() - 1 if args.command == "chow" else v.codim()
    ideal = chow_hurwitz_ideal(v, ell)
    checks.add("nonempty ideal", bool(ideal.gens))
    form = ideal.gens[0] if ideal.gens else None
    results = {
        "level": ell,
        "generators": [g.format() for g in ideal.gens],
        "form": form.format() if form else None,
        "degree": form.total_degree() if form else None,
    }
    if form is not None:
        rel = pluecker_relations(v.field, ell, v.n)
        big = Ideal(ideal.ring, list(rel.gens) + [form])
        principal = all(not normal_form(g, big) for g in ideal.gens[1:])
        checks.add("principal modulo Pluecker relations", principal)
        members = _sampled_members(v, ell, args.samples, args.seed)
        vanish = sum(1 for s in members if not evaluate_pluecker(form, s))
        checks.add("vanishes on sampled members", vanish == len(members), "%d/%d" % (vanish, len(members)))
        randoms = _random_subspaces(v, ell, args.samples, args.seed + 1)
        nonzero = sum(1 for s in randoms if evaluate_pluecker(form, s))
        checks.add(
            "nonzero on random planes", nonzero >= len(randoms) - 1, "%d/%d" % (nonzero, len(randoms))
        )
    return results, checks


def cmd_polar_degrees(args, field):
    v = load_variety(args.variety, field)
    checks = CheckList()
    lo, hi = hypersurface_range(v)
    values = {}
    for ell in range(v.n):
        try:
            values[str(ell)] = polar_degree(v, ell)
        except Unsupported:
            values[str(ell)] = None  # interior level out of scope
    known = {k: d for k, d in values.items() if d is not None}
    checks.add(
        "positive exactly on the hypersurface range",
        all((lo <= int(k) <= hi) == (d > 0) for k, d in known.items()),
        "range [%d, %d]" % (lo, hi),
    )
    return {"range": [lo, hi], "degrees": values}, checks


def cmd_sample_associated(args, field):
    v = load_variety(args.variety, field)
    checks = CheckList()
    out = []
    for k in range(args.samples):
        s = sample_associated(v, args.ell, seed=Stream(args.seed, "s", k).seed)
        con = associated_conormal(s, v)
        ranks = [h.rank() for h in con.homs()]
        checks.add("sample %d rank-one law" % k, all(r <= 1 for r in ranks), str(ranks))
        out.append(
            {
                "subspace": fmt_subspace(field, s.subspace),
                "witness_point": fmt_vector(field, s.witness.point),
                "witness_normal": fmt_vector(field, s.witness.normal),
                "conormal_dim": con.dim,
            }
        )
    return {"ell": args.ell, "samples": out}, checks


def cmd_classify(args, field):
    v = load_variety(args.variety, field)
    checks = CheckList()
    out = []
    for k in range(args.samples):
        s = sample_associated(v, args.ell, seed=Stream(args.seed, "s", k).seed)
        push = associated_tangent_pushforward(s, v, seed=Stream(args.seed, "p", k).seed)
        con = trace_annihilator(push)
        rep = classify(con, "coisotropic", family_dim=push.dim)
        checks.add("sample %d coisotropy certificate" % k, rep.verdict == "coisotropic", rep.type_tag)
        out.append(rep.to_jsonable(field))
    return {"ell": args.ell, "reports": out}, checks


def cmd_contact(args, field):
    checks = CheckList()
    if args.f in BUILTIN_VARIETIES:
        v = BUILTIN_VARIETIES[args.f](field)
    else:
        if not args.n:
            raise InvalidInput("contact needs --n (ambient dimension) with --f")
        ring = standard_ring(field, args.n + 1)
        v = ProjVariety(ring, [poly_from_string(args.f, ring)])
    out = []
    for k in range(args.samples):
        cfg = sample_contact_line(v, args.m, seed=Stream(args.seed, "c", k).seed)
        rep = verify_contact_theorem(cfg)
        checks.add("sample %d contact theorem" % k, rep.checks.all_ok() and rep.verdict == "coisotropic")
        payload = rep.to_jsonable(field)
        payload["point"] = fmt_vector(field, cfg.point)
        payload["line"] = fmt_subspace(field, cfg.line)
        out.append(payload)
    return {"m": args.m, "reports": out}, checks


def cmd_osc(args, field):
    c = load_curve(args.curve, field)
    checks = CheckList()
    stream = Stream(args.seed, "osc")
    out = []
    for i in range(args.samples):
        t = field.of(stream.spawn(i).randrange(1, 10_000))
        sample = osculating_space(c, t, args.k)
        h = sample.tangent_hom()
        rank = h.rank()
        ok = rank == 1 and h.kernel_subspace().same_as(sample.prev)
        if sample.next is not None:
            ok = ok and h.image_subspace().same_as(sample.next)
        checks.add("sample %d rank-one with predicted kernel/image" % i, ok)
        out.append({"t": fmt_scalar(field, t), "subspace": fmt_subspace(field, sample.subspace), "hom_rank": rank})
    return {"k": args.k, "samples": out}, checks


def cmd_dual_curve(args, field):
    c = load_curve(args.curve, field)
    checks = CheckList()
    d = dual_curve(c)
    dd = dual_curve(d) if d.n == c.n else None
    stream = Stream(args.seed, "dual-curve")
    if dd is not None:
        ok = True
        for i in range(10):
            t = field.of(stream.spawn(i).randrange(1, 10_000))
            ok = ok and projective_equal_points(dd.point(t), c.point(t))
        checks.add("biduality at sampled parameters", ok)
    return {"dual_coords": [p.format() for p in d.coords]}, checks


def cmd_dualize(args, field):
    v = load_variety(args.variety, field)
    checks = CheckList()
    d = dual_variety(v)
    checks.add("nonempty dual ideal", bool(d.gens))
    return {
        "generators": [g.format() for g in d.gens],
        "dimension": d.dimension(),
        "degree": d.degree(),
    }, checks


def cmd_classify_family(args, field):
    def parse(data):
        n = int(data["n"])
        samples = []
        for item in data["samples"]:
            rows = [[scalar_from_string(field, x) for x in row] for row in item["subspace"]]
            sub = subspace_from_rows(field, n, rows)
            mats = [
                Matrix(field, [[scalar_from_string(field, x) for x in row] for row in hm])
                for hm in item["homs"]
            ]
            samples.append((sub, HomSpace(TANGENT, adapted_basis(sub), mats)))
        return samples

    checks = CheckList()
    tag, witness = classify_strongly_isotropic_family(_read_input(args.input, parse))
    checks.add("classified", tag != "inconclusive", tag)
    return {
        "type": tag,
        "witness": fmt_subspace(field, witness) if witness is not None else None,
    }, checks


# every subcommand takes --field and --seed, which every report prints
OPTIONS = {
    "field": {"default": "fp:32003", "help": "q or fp:<prime>"},
    "seed": {"type": int, "default": 0},
    "samples": {"type": int, "default": 5},
    "variety": {"help": "JSON file or builtin name"},
    "curve": {"help": "curve JSON file"},
    "input": {"help": "samples JSON file"},
    "f": {"help": "hypersurface polynomial"},
    "n": {"type": int, "help": "ambient dimension for --f"},
    "ell": {"type": int, "default": 1},
    "m": {"type": int, "default": 2},
    "k": {"type": int, "default": 1},
}
# handler and the options it reads
COMMANDS = {
    "chow": (cmd_form, ("variety", "samples", "seed")),
    "hurwitz": (cmd_form, ("variety", "samples", "seed")),
    "polar-degrees": (cmd_polar_degrees, ("variety",)),
    "sample-associated": (cmd_sample_associated, ("variety", "ell", "samples", "seed")),
    "classify": (cmd_classify, ("variety", "ell", "samples", "seed")),
    "contact": (cmd_contact, ("f", "n", "m", "samples", "seed")),
    "osc": (cmd_osc, ("curve", "k", "samples", "seed")),
    "dual-curve": (cmd_dual_curve, ("curve", "seed")),
    "dualize": (cmd_dualize, ("variety",)),
    "classify-family": (cmd_classify_family, ("input",)),
}


@lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once per process: parsing does not change it."""
    ap = argparse.ArgumentParser(prog="grassgeo", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, used) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)  # else --f would abbreviate --field outside contact
        for option in dict.fromkeys(("field", "seed") + used):
            p.add_argument("--" + option, **OPTIONS[option])
    return ap


def run(argv=None):
    args = build_parser().parse_args(argv)
    started = time.time()
    field = field_from_tag(args.field)
    handler, used = COMMANDS[args.command]
    results, checks = handler(args, field)
    elapsed_ms = int((time.time() - started) * 1000)
    # contact's --n is left out: hashing it changes the digest of every saved contact report
    # (CHANGES.md, the FOUND line on `--n`)
    inputs = {k: getattr(args, k) for k in used if k != "n"}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "field": args.field,
        "seed": args.seed,
        "inputs_digest": _digest({"command": args.command, "inputs": inputs, "field": args.field, "seed": args.seed}),
        "results": results,
        "checks": checks,
        "ok": checks.all_ok(),
    }
    print(json.dumps(report, sort_keys=True, indent=1))
    print("elapsed %d ms" % elapsed_ms, file=sys.stderr)
    return 0 if checks.all_ok() else 1


def main(argv=None):
    try:
        return run(argv)
    except GrassgeoError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
