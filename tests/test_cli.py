import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import grassgeo.cli
import grassgeo.contact
from grassgeo.cli import main
from grassgeo.errors import CertificateNotApplicable

ROOT = Path(__file__).resolve().parent.parent

def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_chow_builtin_variety(capsys):
    code, rep = _run(capsys, ["chow", "--variety", "twisted-cubic", "--samples", "5"])
    assert code == 0
    assert rep["ok"] and rep["results"]["degree"] == 3
    assert rep["schema_version"] == "1"


def test_variety_json_file(tmp_path, capsys):
    spec = {
        "n": 3,
        "generators": ["x0*x3 - x1*x2"],
        "parametrization": {"params": ["p0", "p1"], "coords": ["1", "p0", "p1", "p0*p1"]},
    }
    path = tmp_path / "quadric.json"
    path.write_text(json.dumps(spec))
    code, rep = _run(capsys, ["hurwitz", "--variety", str(path), "--samples", "4"])
    assert code == 0
    assert rep["results"]["degree"] == 2


def test_polar_degrees_command(capsys):
    code, rep = _run(capsys, ["polar-degrees", "--variety", "twisted-cubic"])
    assert code == 0
    assert rep["results"]["degrees"] == {"0": 0, "1": 3, "2": 4}


@pytest.mark.parametrize("field", ["q", "fp:32003"])
@pytest.mark.parametrize(
    "variety, lo_hi, degrees",
    [
        # the Chow level 2 is deg X, where its elimination spends the budget (see groebner-budget)
        ("rational-normal-quartic", [2, 3], [0, 0, 4, 6]),
        # levels 3 (Hurwitz, not a curve or hypersurface) and 4 (interior) are out of scope
        ("segre-2x4", [2, 4], [0, 0, 4, None, None, 0, 0]),
    ],
)
def test_polar_degrees_read_the_range_off_sampled_points(variety, lo_hi, degrees, field, capsys):
    started = time.monotonic()
    code, rep = _run(capsys, ["polar-degrees", "--variety", variety, "--field", field])
    assert time.monotonic() - started < 1
    assert code == 0 and rep["ok"]
    assert rep["results"]["range"] == lo_hi
    assert rep["results"]["degrees"] == {str(ell): d for ell, d in enumerate(degrees)}


# varieties given by generators alone: every associated-form command is out of scope, whatever the seed
UNPARAMETRIZED = {
    "quadric": {"n": 3, "generators": ["x0*x3-x1*x2"]},
    "conic": {"n": 2, "generators": ["x0*x2-x1^2"]},
    "plane-cubic": {"n": 2, "generators": ["x0^3+x1^3+x2^3"]},
    "cubic-surface": {"n": 3, "generators": ["x0^3+x1^3+x2^3+x3^3"]},
}


@pytest.mark.parametrize("field", ["q", "fp:32003"])
@pytest.mark.parametrize("command", ["chow", "hurwitz", "polar-degrees", "sample-associated", "classify"])
@pytest.mark.parametrize("name", sorted(UNPARAMETRIZED))
def test_unparametrized_varieties_exit_2(name, command, field, tmp_path, capsys):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(UNPARAMETRIZED[name]))
    started = time.monotonic()
    code = main([command, "--variety", str(path), "--field", field])
    assert time.monotonic() - started < 0.5
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "parametriz" in captured.err


def test_contact_command(capsys):
    code, rep = _run(
        capsys,
        ["contact", "--f", "x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2", "--n", "3",
         "--m", "3", "--samples", "2", "--seed", "7"],
    )
    assert code == 0
    assert all(r["verdict"] == "coisotropic" for r in rep["results"]["reports"])


def test_contact_command_large_prime(capsys):
    code, rep = _run(
        capsys,
        ["contact", "--f", "x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2", "--n", "3",
         "--m", "3", "--samples", "5", "--seed", "3", "--field", "fp:2305843009213693951"],
    )
    assert code == 0 and rep["ok"]


def test_osc_and_dual_curve_commands(tmp_path, capsys):
    curve = {"coords": ["1", "p0", "p0^2", "p0^3"]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    code, rep = _run(capsys, ["osc", "--curve", str(path), "--k", "1", "--samples", "3"])
    assert code == 0 and rep["ok"]
    code, rep = _run(capsys, ["dual-curve", "--curve", str(path), "--field", "q"])
    assert code == 0 and rep["ok"]
    assert len(rep["results"]["dual_coords"]) == 4


def test_classify_family_command(tmp_path, capsys):
    # samples from the alpha-variety of P = (1:0:0:0) in Gr(1, P3)
    samples = []
    for second in ([0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 2, 3]):
        subspace = [[1, 0, 0, 0], second]
        # tangent homs vanishing on P: rows (for p, for the second point)
        homs = [
            [["0", "0"], ["1", "0"]],
            [["0", "0"], ["0", "1"]],
        ]
        samples.append({"subspace": [[str(c) for c in row] for row in subspace], "homs": homs})
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"n": 3, "samples": samples}))
    code, rep = _run(capsys, ["classify-family", "--input", str(path), "--field", "q"])
    assert code == 0
    assert rep["results"]["type"] == "alpha"
    assert rep["results"]["witness"]["ell"] == 0


def test_determinism_byte_identical(capsys):
    argv = ["sample-associated", "--variety", "twisted-cubic", "--ell", "1", "--samples", "3", "--seed", "11"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_classify_over_q_survives_first_order_rank_drops(capsys):
    # jet probes of this sample meet columns holding only nilpotents
    argv = ["classify", "--variety", "rational-normal-quartic", "--ell", "1",
            "--samples", "5", "--field", "q", "--seed", "1"]
    code, rep = _run(capsys, argv)
    assert code == 0 and rep["ok"]
    reports = rep["results"]["reports"]
    assert len(reports) == 5
    assert all((r["verdict"], r["type"], r["space_dim"]) == ("coisotropic", "beta", 2) for r in reports)


def _contact_checks(rep):
    return [c for r in rep["results"]["reports"] for c in r["checks"]]


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_contact_lines_of_a_quintic_fourfold(seed, capsys):
    # four direction variables per line and three per chart of the rank-one locus
    argv = ["contact", "--f", "x0^5 + x1^5 + x2^5 + x3^5 + x4^5 + x5^5 + x0*x1*x2*x3*x4", "--n", "5", "--m", "5",
            "--samples", "3", "--seed", str(seed)]
    code, rep = _run(capsys, argv)
    checks = _contact_checks(rep)
    assert code == 0 and rep["ok"] and all(c["ok"] for c in checks)
    segre = [c["detail"] for c in checks if c["name"] == "Segre multiplicity = m-1"]
    assert segre == ["mult 4"] * 3


def test_a_slice_through_a_curve_of_directions_draws_again(capsys, monkeypatch):
    # at seed 2 over F_11 a seeded slice meets a curve of directions, which is not an input error
    refusals = []
    solve = grassgeo.contact.affine_points_zero_dim

    def counted(ideal):
        try:
            return solve(ideal)
        except CertificateNotApplicable:
            refusals.append(ideal)
            raise

    monkeypatch.setattr(grassgeo.contact, "affine_points_zero_dim", counted)
    argv = ["contact", "--f", "x0^4+x1^4+x2^4+x3^4+x4^4+1*x0*x1*x2*x3", "--n", "4", "--m", "4", "--samples", "3",
            "--seed", "2", "--field", "fp:11"]
    code, rep = _run(capsys, argv)
    checks = _contact_checks(rep)
    assert code == 0 and rep["ok"] and len(checks) == 21 and all(c["ok"] for c in checks)
    assert refusals


EXIT_CASES = {
    "missing-file": (["chow", "--variety", "/nonexistent/file.json"], 2, "file.json"),
    "bad-poly": (["contact", "--f", "x0^-1", "--n", "3", "--m", "2"], 2, "position"),
    "variety-without-n": (["chow", "--variety", "{no_n}"], 2, "'n'"),
    "variety-as-list": (["chow", "--variety", "{as_list}"], 2, "as_list.json"),
    "truncated-json": (["chow", "--variety", "{truncated}"], 2, "truncated.json"),
    "composite-modulus": (["chow", "--variety", "twisted-cubic", "--field", "fp:4"], 2, "not prime"),
    "non-numeric-modulus": (["chow", "--variety", "twisted-cubic", "--field", "fp:abc"], 2, "fp:abc"),
    "hurwitz-segre": (["hurwitz", "--variety", "segre-2x4"], 2, "tangency encoding"),
    # rank is read low in characteristic 2 at every point (the twisted cubic reads 1, not 2)
    "polar-degrees-fp2": (["polar-degrees", "--variety", "twisted-cubic", "--field", "fp:2"], 2, "characteristic 2"),
    # the conormal span of a contact line has dimension m - 1; at m = 6 its minor ideal outruns the budget
    "contact-m6": (
        ["contact", "--f", "x0^6 + x1^6 + x2^6 + x3^6 + x4^6 + x5^6 + x6^6", "--n", "6", "--m", "6",
         "--samples", "1"],
        3,
        "spent",
    ),
    # over Q with no parametrization there is no point sampler, whatever the seed
    "contact-q-unparametrized": (
        ["contact", "--f", "x0^3 + x1^3 + x2^3 + x3^3", "--n", "3",
         "--m", "2", "--samples", "1", "--field", "q"],
        2,
        "prime field",
    ),
    # its elimination basis grows past 100 elements
    "groebner-budget": (["chow", "--variety", "rational-normal-quartic"], 3, "spent"),
    # an internal bug is not an input error: main lets it propagate
    "internal-bug": (["dualize", "--variety", "quadric-surface"], KeyError, None),
}


def _broken_dual_variety(v):
    raise KeyError("internal")


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_codes(case, tmp_path, capsys, monkeypatch):
    files = {"no_n": '{"generators": []}', "as_list": "[3]", "truncated": '{"n": 3, "gen'}
    for name, text in files.items():
        (tmp_path / (name + ".json")).write_text(text)
    argv, want, message = EXIT_CASES[case]
    argv = [a.format(**{k: str(tmp_path / (k + ".json")) for k in files}) for a in argv]
    if want is KeyError:
        monkeypatch.setattr(grassgeo.cli, "dual_variety", _broken_dual_variety)
        with pytest.raises(KeyError):
            main(argv)
        return
    started = time.monotonic()
    code = main(argv)
    assert time.monotonic() - started < 10
    assert code == want
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# each text input with a literal {c} whose denominator is zero in the field
ZERO_DENOMINATOR_INPUTS = {
    "contact-f": (["contact", "--f", "x0^3 + x1^3 + x2^3 + {c}*x3^3", "--n", "3", "--m", "3"], None),
    "variety-generators": (["chow", "--variety", "{file}"], {"n": 3, "generators": ["x0*x3 - {c}*x1*x2"]}),
    "variety-coords": (
        ["chow", "--variety", "{file}"],
        {
            "n": 3,
            "generators": ["x0*x3 - x1*x2"],
            "parametrization": {"params": ["p0", "p1"], "coords": ["1", "p0", "p1", "{c}*p0*p1"]},
        },
    ),
    "curve": (["osc", "--curve", "{file}", "--k", "1"], {"coords": ["1", "p0", "{c}*p0^2", "p0^3"]}),
    "classify-family-scalar": (
        ["classify-family", "--input", "{file}"],
        {"n": 3, "samples": [{"subspace": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
                              "homs": [[["0", "0"], ["{c}", "0"]]]}]},
    ),
}


@pytest.mark.parametrize("literal, field", [("1/0", "q"), ("1/0", "fp:32003"), ("1/32003", "fp:32003")])
@pytest.mark.parametrize("case", sorted(ZERO_DENOMINATOR_INPUTS))
def test_a_zero_denominator_is_an_input_error(case, literal, field, tmp_path, capsys):
    argv, spec = ZERO_DENOMINATOR_INPUTS[case]
    path = tmp_path / "input.json"
    if spec is not None:
        path.write_text(json.dumps(spec).replace("{c}", literal))
    argv = [a.replace("{c}", literal).replace("{file}", str(path)) for a in argv]
    assert main(argv + ["--field", field]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "%r has a zero denominator in" % literal in err


# a literal of 5 000 digits in each place where an int is read from text, under Python's default limit
LONG_LITERAL_INPUTS = {
    "coefficient": ["contact", "--f", "{c}*x0^3 + x1^3 + x2^3 + x3^3", "--n", "3", "--m", "3"],
    "exponent": ["contact", "--f", "x0^{c} + x1^3 + x2^3 + x3^3", "--n", "3", "--m", "3"],
    "field-modulus": ["contact", "--f", "x0^3 + x1^3 + x2^3 + x3^3", "--n", "3", "--m", "3", "--field", "fp:{c}"],
}


@pytest.mark.parametrize("case", sorted(LONG_LITERAL_INPUTS))
def test_an_integer_literal_too_long_to_convert_is_an_input_error(case, capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main([a.replace("{c}", "1" * 5000) for a in LONG_LITERAL_INPUTS[case]])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: integer literal of 5000 digits exceeds the limit of 4300")


def test_the_union_of_two_lines_dualizes(tmp_path, capsys):
    path = tmp_path / "two-lines.json"
    path.write_text(json.dumps({"n": 3, "generators": ["x0", "x1*x2"]}))
    code, rep = _run(capsys, ["dualize", "--variety", str(path)])
    assert code == 0
    assert rep["results"]["generators"] == ["x3", "x1*x2"]


def test_each_command_takes_only_the_options_it_reads(capsys):
    parser = grassgeo.cli.build_parser()
    for name, (_, used) in grassgeo.cli.COMMANDS.items():
        for option in grassgeo.cli.OPTIONS:
            argv = [name, "--" + option, "1"]
            if option in ("field", "seed") + used:
                assert getattr(parser.parse_args(argv), option) in ("1", 1)
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2
                assert "unrecognized arguments: --%s" % option in capsys.readouterr().err


def test_chow_and_hurwitz_share_one_handler_at_their_two_levels(capsys):
    levels = {}
    for command in ("chow", "hurwitz"):
        code, rep = _run(capsys, [command, "--variety", "twisted-cubic", "--samples", "2"])
        assert code == 0
        levels[command] = rep["results"]["level"]
    assert levels == {"chow": 1, "hurwitz": 2}
    assert grassgeo.cli.COMMANDS["chow"][0] is grassgeo.cli.COMMANDS["hurwitz"][0]


def test_one_parser_serves_every_report_of_a_process(capsys):
    argvs = [
        ["contact", "--f", "x0^3 + x1^3 + x2^3 + x3^3", "--n", "3", "--m", "3", "--samples", "2", "--seed", "4"],
        ["sample-associated", "--variety", "twisted-cubic", "--ell", "1", "--samples", "2"],
        ["contact", "--f", "x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2", "--n", "3", "--m", "2", "--samples", "2"],
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-m", "grassgeo.cli"] + argv, env=env, capture_output=True,
                               text=True, timeout=120)
        assert main(argv) == fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--variety", "twisted-cubic"] if argv[0] == "contact" else argv + ["--f", "x0"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert grassgeo.cli.build_parser() is grassgeo.cli.build_parser()
