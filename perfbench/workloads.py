"""Seeded inputs of the four benchmark workloads.

`build(workload, seed, directory)` writes every input file the workload
needs into `directory` and returns its plan: a list of reports, each an
argv for `grassgeo.cli.main` plus the facts the oracles need to check
the report (`meta`).  Nothing here imports grassgeo, so the same seed
gives byte-identical inputs whatever the program does.
"""

from __future__ import annotations

import json
import os
import random

FP = 32003
CONTACT_P = 32003  # not a prime near 10^5: see README.md
WORKLOADS = ("elimination", "sampling-fp", "sampling-q", "contact-roots")

# a pass of about 20 s: one pass per 30 s run whether the machine runs 25 % faster or 40 % slower
QUADRICS = 2
CHOW_SAMPLES = 10
# the twisted cubic's Chow form takes about 0.4 s, like its polar degrees: with three seeds of it
# the median report time rests on eight such reports spread over the pass, not on two
CUBIC_CHOW_REPORTS = 3
CLASSIFY_SAMPLES = 10
ASSOCIATED_SAMPLES = 10
ASSOCIATED_LEVELS = range(5)  # segre-2x4 levels 5 and 6 are misreported, see CHANGES.md
OSC_SAMPLES = 20
OSC_DEGREES = (3, 4)
OSC_ORDERS = (1, 2)
CONTACT_SURFACES = 30
CONTACT_SAMPLES = 10


def _stream(workload, seed, tag):
    # str seeds are hashed with sha512, independent of PYTHONHASHSEED
    return random.Random("%s/%d/%s" % (workload, seed, tag))


def _seed(rng):
    return rng.randrange(1, 10**6)


def _write_json(directory, name, data):
    with open(os.path.join(directory, name), "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return name


def _report(label, argv, **meta):
    return {"label": label, "argv": argv, "meta": meta}


def resolve(argv, directory):
    """The argv with its input file names (the *.json arguments) placed in `directory`."""
    return [os.path.join(directory, a) if a.endswith(".json") else a for a in argv]


def diagonal_quadric(a):
    """'a0*x0^2 + ... + a3*x3^2' for positive integer coefficients."""
    return " + ".join("%d*x%d^2" % (c, i) for i, c in enumerate(a))


def cubic_surface(c):
    return "x0^3 + x1^3 + x2^3 + x3^3 + %d*x0*x1*x2" % c


def rational_normal_map(rng, d):
    """Seeded (d+1)x(d+1) integer matrix L*U with unit triangular factors.

    Its determinant is 1, so it is invertible over Q and every F_p.
    """
    size = d + 1
    low = [[1 if i == j else (rng.randint(-3, 3) if j < i else 0) for j in range(size)] for i in range(size)]
    up = [[1 if i == j else (rng.randint(-3, 3) if j > i else 0) for j in range(size)] for i in range(size)]
    return [[sum(low[i][k] * up[k][j] for k in range(size)) for j in range(size)] for i in range(size)]


def curve_coords(m):
    """Coordinate strings of t -> m (1, t, ..., t^d), in the CLI's variable p0."""
    return [" + ".join(["%d" % row[0]] + ["%d*p0^%d" % (c, i) for i, c in enumerate(row) if i and c]) for row in m]


def _elimination(seed, directory):
    plan = []
    quadrics = _stream("elimination", seed, "quadrics")
    rng = _stream("elimination", seed, "forms")
    for field in ("q", "fp:%d" % FP):
        duals, forms = [], []
        for k in range(QUADRICS):
            a = [quadrics.randint(1, 60) for _ in range(4)]
            name = _write_json(directory, "quadric-%s-%d.json" % (field.replace(":", ""), k),
                               {"n": 3, "generators": [diagonal_quadric(a)]})
            duals.append(_report("dualize %s %d" % (field, k), ["dualize", "--variety", name, "--field", field],
                                 field=field, a=a))
        for variety in ("twisted-cubic", "quadric-surface"):
            for command in ("chow", "hurwitz"):
                for k in range(CUBIC_CHOW_REPORTS if (command, variety) == ("chow", "twisted-cubic") else 1):
                    argv = [command, "--variety", variety, "--field", field,
                            "--samples", str(CHOW_SAMPLES), "--seed", str(_seed(rng))]
                    forms.append(_report("%s %s %s %d" % (command, variety, field, k), argv, field=field,
                                         variety=variety, check_seed=_seed(rng)))
            argv = ["polar-degrees", "--variety", variety, "--field", field]
            forms.append(_report("polar-degrees %s %s" % (variety, field), argv, field=field, variety=variety))
        # the short reports follow each dualize in turn, so the median report time samples the whole pass
        chunk = -(-len(forms) // len(duals))
        for i, dual in enumerate(duals):
            plan += [dual] + forms[i * chunk:(i + 1) * chunk]
    return plan


def _sampling(workload, seed, directory, field):
    plan = []
    rng = _stream(workload, seed, "commands")
    if field != "q":
        # classify over Q is left out: the probe budget runs out on some seeds, see CHANGES.md
        argv = ["classify", "--variety", "rational-normal-quartic", "--ell", "1", "--field", field,
                "--samples", str(CLASSIFY_SAMPLES), "--seed", str(_seed(rng))]
        plan.append(_report("classify rational-normal-quartic", argv, field=field, n=4, ell=1, dim=1,
                            samples=CLASSIFY_SAMPLES))
    for ell in ASSOCIATED_LEVELS:
        argv = ["sample-associated", "--variety", "segre-2x4", "--ell", str(ell), "--field", field,
                "--samples", str(ASSOCIATED_SAMPLES), "--seed", str(_seed(rng))]
        plan.append(_report("sample-associated segre-2x4 ell=%d" % ell, argv, field=field, ell=ell,
                            samples=ASSOCIATED_SAMPLES))
    curves = _stream(workload, seed, "curves")
    for d in OSC_DEGREES:
        m = rational_normal_map(curves, d)
        name = _write_json(directory, "curve-d%d.json" % d, {"coords": curve_coords(m)})
        for k in OSC_ORDERS:
            argv = ["osc", "--curve", name, "--k", str(k), "--field", field,
                    "--samples", str(OSC_SAMPLES), "--seed", str(_seed(rng))]
            plan.append(_report("osc d=%d k=%d" % (d, k), argv, field=field, k=k, matrix=m,
                                samples=OSC_SAMPLES))
    return plan


def _contact(seed, directory):
    plan = []
    rng = _stream("contact-roots", seed, "surfaces")
    field = "fp:%d" % CONTACT_P
    while len(plan) < CONTACT_SURFACES:
        c = rng.randrange(CONTACT_P)
        s = _seed(rng)
        if pow(c, 3, CONTACT_P) == (-27) % CONTACT_P:
            continue  # c^3 = -27 makes the surface singular: not a valid input
        argv = ["contact", "--f", cubic_surface(c), "--n", "3", "--m", "3", "--field", field,
                "--samples", str(CONTACT_SAMPLES), "--seed", str(s)]
        plan.append(_report("contact c=%d" % c, argv, field=field, c=c, m=3, samples=CONTACT_SAMPLES))
    return plan


def build(workload, seed, directory):
    """Write the workload's input files into `directory` and return its plan."""
    os.makedirs(directory, exist_ok=True)
    if workload == "elimination":
        plan = _elimination(seed, directory)
    elif workload == "sampling-fp":
        plan = _sampling(workload, seed, directory, "fp:%d" % FP)
    elif workload == "sampling-q":
        plan = _sampling(workload, seed, directory, "q")
    elif workload == "contact-roots":
        plan = _contact(seed, directory)
    else:
        raise ValueError("unknown workload %r (expected one of %s)" % (workload, ", ".join(WORKLOADS)))
    _write_json(directory, "plan.json", plan)
    return plan
