import json
import os
import subprocess
import sys

import pytest

from slopelab.seifert import (
    load_presentation,
    presentation_to_dict,
    save_presentation,
    stabilize,
)
from slopelab.datasets import builtin_path


def _run(*args, timeout=None, env=None):
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "slopelab", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        timeout=timeout,
    )


def test_version():
    p = _run("--version")
    assert p.returncode == 0
    assert "slopelab" in p.stdout


def test_validate_builtin():
    p = _run("validate", "--in", "whitehead.json")
    assert p.returncode == 0
    assert "ok" in p.stdout


def test_validate_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mu": 1, "n": 1}')
    p = _run("validate", "--in", str(bad))
    assert p.returncode == 2


def test_validate_broken_symmetry(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "mu": 1,
                "n": 1,
                "theta": {"+": [[1]], "-": [[2]]},
                "kappa": [0],
            }
        )
    )
    p = _run("validate", "--in", str(bad))
    assert p.returncode == 2
    assert "transpose" in p.stdout
    ok = _run("validate", "--in", str(bad), "--no-transpose-check")
    assert ok.returncode == 0


def test_slope_symbolic_golden():
    p = _run("slope", "--in", "whitehead.json", "--char", "symbolic")
    assert p.returncode == 0
    assert "value: -w1^-1 + 2 - w1" in p.stdout


def test_slope_pointwise_golden():
    p = _run("slope", "--in", "whitehead.json", "--char", "zeta:2:1")
    assert p.returncode == 0
    assert "value: 4" in p.stdout


def test_slope_kappa_zero():
    p = _run("slope", "--in", "kappa_zero.json", "--char", "symbolic")
    assert p.returncode == 0
    assert "value: 0" in p.stdout


def test_slope_json_format():
    p = _run("slope", "--in", "whitehead.json", "--char", "zeta:2:1", "--format", "json")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["tool"] == "slopelab"
    assert payload["result"]["slope"]["kind"] == "finite"
    assert payload["result"]["slope"]["value"] == "4"
    assert payload["result"]["slope"]["approximate"] is False
    assert payload["config"]["command"] == "slope"


@pytest.mark.parametrize("spec", ["num:-0+1i", "num:0+1i"])
def test_numeric_character_prints_no_negative_zero(spec):
    p = _run("slope", "--in", "whitehead.json", "--char", spec)
    assert p.returncode == 0
    assert "character: num:0+1i\n" in p.stdout


def test_slope_vanishing_character_exit_3():
    p = _run("slope", "--in", "whitehead.json", "--char", "zeta:4:0")
    assert p.returncode == 3


def test_slope_nonzero_linking_exit_3(tmp_path):
    data = {
        "mu": 1,
        "n": 1,
        "theta": {"+": [[1]]},
        "kappa": [0],
        "lambda": [2],
    }
    f = tmp_path / "linked.json"
    f.write_text(json.dumps(data))
    p = _run("slope", "--in", str(f), "--char", "symbolic")
    assert p.returncode == 3


def test_signature_trefoil():
    p = _run("signature", "--in", "trefoil.json", "--char", "zeta:2:1")
    assert p.returncode == 0
    assert "sigma=-2" in p.stdout
    assert "eta=0" in p.stdout


def test_signature_empty_dataset(tmp_path):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"mu": 1, "n": 0, "theta": {"+": []}, "kappa": []}))
    p = _run("signature", "--in", str(f), "--char", "zeta:2:1")
    assert p.returncode == 0
    assert "sigma=0" in p.stdout
    assert "eta=0" in p.stdout


def test_signature_grid_mode():
    p = _run("signature", "--in", "trefoil.json", "--char", "zeta:12:*", "--format", "json")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    rows = payload["result"]["rows"]
    assert len(rows) == 11
    assert [r["character"] for r in rows] == [f"zeta:12:{k}" for k in range(1, 12)]


def test_signature_non_unitary_exit_3():
    p = _run("signature", "--in", "trefoil.json", "--char", "num:2+0i")
    assert p.returncode == 3


def test_compare_obstructed():
    p = _run("compare", "--in", "whitehead.json", "--vs", "kappa_zero.json")
    assert p.returncode == 1
    assert "OBSTRUCTED" in p.stdout
    assert "zeta:2:1" in p.stdout


def test_compare_self_no_obstruction():
    p = _run("compare", "--in", "whitehead.json", "--vs", "whitehead.json")
    assert p.returncode == 0
    assert "NO OBSTRUCTION FOUND" in p.stdout
    assert "does not prove concordance" in p.stdout


def test_compare_against_transforms(tmp_path):
    from slopelab.seifert import change_basis

    base = load_presentation(builtin_path("whitehead.json"))
    moved = change_basis(base, [[1, 1], [0, 1]])
    f1 = tmp_path / "moved.json"
    save_presentation(moved, f1)
    p = _run("compare", "--in", "whitehead.json", "--vs", str(f1))
    assert p.returncode == 0
    assert "NO OBSTRUCTION FOUND" in p.stdout

    f2 = tmp_path / "stab.json"
    save_presentation(stabilize(base), f2)
    p = _run("compare", "--in", "whitehead.json", "--vs", str(f2))
    assert p.returncode == 0
    assert "NO OBSTRUCTION FOUND" in p.stdout


def test_characters_components():
    p = _run("characters", "--components", "--lambda", "4,-2")
    assert p.returncode == 0
    assert "d=1" in p.stdout and "d=2" in p.stdout


def test_characters_root_status():
    p = _run("characters", "--root-status", "zeta:6:1", "--format", "json")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["result"]["status"] == "root"
    assert payload["result"]["witness_verified"] is True
    not_root = _run("characters", "--root-status", "zeta:8:1", "--format", "json")
    assert json.loads(not_root.stdout)["result"]["status"] == "not_root"


def test_characters_sample():
    p = _run("characters", "--sample", "3", "--mu", "1", "--format", "json")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert len(payload["result"]["characters"]) == 3


def test_conway_golden():
    p = _run("conway", "--in", "l10n36_conway.json", "--char", "zeta:5:1", "--sqrt", "zeta:10:1")
    assert p.returncode == 0
    assert p.stdout.strip().endswith("0")


def test_conway_inconsistent_sqrt_rejected():
    p = _run("conway", "--in", "l10n36_conway.json", "--char", "zeta:5:1", "--sqrt", "zeta:8:1")
    assert p.returncode == 2


def test_conway_inconclusive_reported():
    p = _run("conway", "--in", "l10n36_conway.json", "--sqrt", "zeta:6:1", "--format", "json")
    assert p.returncode == 0
    assert json.loads(p.stdout)["result"]["kind"] == "inconclusive"


def test_round_trip_via_files(tmp_path):
    base = load_presentation(builtin_path("whitehead.json"))
    f = tmp_path / "copy.json"
    save_presentation(base, f)
    again = load_presentation(f)
    assert again == base
    assert presentation_to_dict(again) == presentation_to_dict(base)


def test_missing_input_exit_2():
    p = _run("slope", "--in", "no_such_file.json", "--char", "symbolic")
    assert p.returncode == 2


# -- compare: full output and refusal paths ----------------------------------------

WHITEHEAD_VS_KAPPA_ZERO = [
    ("zeta:2:1", "4"),
    ("zeta:3:1", "3"),
    ("zeta:4:3", "2"),
    ("zeta:5:1", "3 + z^2 + z^3"),
    ("zeta:7:5", "2 - z^2 - z^5"),
    ("zeta:8:7", "2 - z + z^3"),
    ("zeta:9:4", "2 - z^4 - z^5"),
    ("zeta:11:1", "3 + z^2 + z^3 + z^4 + z^5 + z^6 + z^7 + z^8 + z^9"),
]
NOT_CONCORDANT = "slopes differ at a safe character: the links are not concordant"


def test_compare_obstructed_full_text():
    p = _run("compare", "--in", "whitehead.json", "--vs", "kappa_zero.json")
    assert p.returncode == 1
    assert p.stderr == ""
    assert p.stdout == "\n".join(
        [
            "first: Whitehead link, distinguished unknotted component",
            "second: boundary-style data: kappa = 0",
            *(
                f"{ch}  first=finite:{v}  second=finite:0  DIFFER"
                for ch, v in WHITEHEAD_VS_KAPPA_ZERO
            ),
            "OBSTRUCTED at zeta:2:1",
            NOT_CONCORDANT,
            "",
        ]
    )


def test_compare_obstructed_full_json():
    p = _run("compare", "--in", "whitehead.json", "--vs", "kappa_zero.json", "--format", "json")
    assert p.returncode == 1
    expected = {
        "tool": "slopelab",
        "version": "0.1.0",
        "command": "compare",
        "config": {
            "command": "compare",
            "inputs": ["whitehead.json", "kappa_zero.json"],
            "char_spec": None,
            "sqrt_spec": None,
            "linking": None,
            "budget": 8,
            "trials": None,
            "seed": 0,
            "tol": None,
            "tol_sig": 1e-08,
            "no_transpose_check": False,
            "output_format": "json",
        },
        "exit_code": 1,
        "result": {
            "first": "Whitehead link, distinguished unknotted component",
            "second": "boundary-style data: kappa = 0",
            "verdict": "OBSTRUCTED",
            "witness_character": "zeta:2:1",
            "points": [
                {
                    "character": ch,
                    "first": {"kind": "finite", "value": v},
                    "second": {"kind": "finite", "value": "0"},
                    "equal": False,
                }
                for ch, v in WHITEHEAD_VS_KAPPA_ZERO
            ],
            "note": NOT_CONCORDANT,
            "sampled": 8,
        },
    }
    assert p.stdout == json.dumps(expected, indent=2) + "\n"


def _write(tmp_path, name, data):
    f = tmp_path / name
    f.write_text(json.dumps(data))
    return str(f)


BROKEN_SYMMETRY = {"mu": 1, "n": 1, "theta": {"+": [[1]], "-": [[2]]}, "kappa": [0]}
TWO_COLORS = {"mu": 2, "n": 1, "theta": {"++": [[1]], "-+": [[0]]}, "kappa": [1]}
LINKED = {"mu": 1, "n": 1, "theta": {"+": [[1]]}, "kappa": [0], "lambda": [2]}
SYMMETRY_VIOLATION = 'theta["-"] != transpose(theta["+"])'


def test_compare_refuses_invalid_side(tmp_path):
    bad = _write(tmp_path, "bad.json", BROKEN_SYMMETRY)
    p = _run("compare", "--in", "whitehead.json", "--vs", bad)
    assert (p.returncode, p.stdout, p.stderr) == (
        2,
        f"violation: second: {SYMMETRY_VIOLATION}\n",
        "",
    )
    p = _run("compare", "--in", bad, "--vs", bad, "--format", "json")
    assert p.returncode == 2
    assert json.loads(p.stdout)["result"] == {
        "violations": [f"first: {SYMMETRY_VIOLATION}", f"second: {SYMMETRY_VIOLATION}"]
    }


def test_compare_refuses_different_mu(tmp_path):
    two = _write(tmp_path, "two.json", TWO_COLORS)
    p = _run("compare", "--in", "whitehead.json", "--vs", two)
    assert (p.returncode, p.stdout, p.stderr) == (
        2,
        "",
        "error: datasets have different numbers of colors\n",
    )


def test_compare_refuses_nonzero_linking(tmp_path):
    linked = _write(tmp_path, "linked.json", LINKED)
    p = _run("compare", "--in", "whitehead.json", "--vs", linked, "--format", "json")
    assert p.returncode == 3
    assert json.loads(p.stdout)["error"] == {
        "kind": "unsupported hypothesis",
        "messages": ["the comparator requires vanishing linking vectors on both sides"],
    }


def test_compare_check_order(tmp_path):
    # validation comes before the mu check, which comes before the linking check
    bad = _write(tmp_path, "bad.json", BROKEN_SYMMETRY)
    two = _write(tmp_path, "two.json", TWO_COLORS)
    linked = _write(tmp_path, "linked.json", LINKED)
    p = _run("compare", "--in", two, "--vs", bad)
    assert (p.returncode, p.stdout) == (2, f"violation: second: {SYMMETRY_VIOLATION}\n")
    p = _run("compare", "--in", linked, "--vs", two)
    assert (p.returncode, p.stderr) == (2, "error: datasets have different numbers of colors\n")


# -- malformed input is refused with exit 2, naming the field -------------------------

MINIMAL = {"mu": 1, "n": 1, "theta": {"+": [[1]]}, "kappa": [0]}


@pytest.mark.parametrize(
    "field, value",
    [
        ("mu", "abc"),
        ("kappa", 5),
        ("lambda", ["a"]),
        ("b0", None),
        ("theta", {"+": 7}),
        ("lambda", [0.5]),
        ("mu", 1.9),
        ("n", 1.0),
        ("b0", "1"),
        ("mu", True),
    ],
)
def test_malformed_presentation_exit_2(tmp_path, field, value):
    path = _write(tmp_path, "bad.json", {**MINIMAL, field: value})
    p = _run("validate", "--in", path)
    assert p.returncode == 2
    assert "Traceback" not in p.stderr
    assert field in p.stderr


@pytest.mark.parametrize("field, value", [("mu", "x"), ("nabla_KL", 3), ("mu", 1.5)])
def test_malformed_conway_exit_2(tmp_path, field, value):
    data = {"mu": 1, "nabla_KL": [], "nabla_L": [], field: value}
    path = _write(tmp_path, "bad.json", data)
    p = _run("conway", "--in", path, "--sqrt", "zeta:6:1")
    assert p.returncode == 2
    assert "Traceback" not in p.stderr
    assert field in p.stderr


@pytest.mark.parametrize("exps", [[-1.5], "0", [True]])
def test_malformed_conway_exponent_exit_2(tmp_path, exps):
    # before the check the exponents went through int() and each case
    # answered with exit 0
    with open(builtin_path("l10n36_conway.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["nabla_L"][0]["exps"] = exps
    path = _write(tmp_path, "bad.json", data)
    p = _run("conway", "--in", path, "--sqrt", "zeta:10:1")
    assert p.returncode == 2
    assert "Traceback" not in p.stderr
    assert "nabla_L" in p.stderr and "exps" in p.stderr


NUMPY_PROBE = """
import sys
import slopelab, slopelab.cli as cli
codes = [
    cli.main(["validate", "--in", "whitehead.json"]),
    cli.main(["slope", "--in", "whitehead.json", "--char", "symbolic"]),
    cli.main(["compare", "--in", "whitehead.json", "--vs", "kappa_zero.json"]),
    cli.main(["characters", "--root-status", "zeta:6:1"]),
    cli.main(["signature", "--in", "trefoil.json", "--char", "zeta:12:1"]),
    cli.main(["signature", "--in", "whitehead.json", "--char", "zeta:5:*"]),
]
before = "numpy" in sys.modules
codes.append(cli.main(["signature", "--in", "trefoil.json", "--char", "num:0.6+0.8i"]))
print("probe", codes, before, "numpy" in sys.modules, file=sys.stderr)
"""


def test_numpy_imported_only_for_signatures():
    # torsion signatures are exact and leave numpy unloaded; only a numeric
    # character's eigenvalue count imports it
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    p = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert p.returncode == 0, p.stderr
    assert p.stderr == "probe [0, 0, 1, 0, 0, 0, 0] False True\n"


FOOTPRINT_PROBE = """
import sys
import slopelab.cli as cli
codes = [
    cli.main(["validate", "--in", "whitehead.json"]),
    cli.main(["slope", "--in", "whitehead.json", "--char", "zeta:5:1"]),
    cli.main(["characters", "--root-status", "zeta:6:1"]),
]
heavy = ("dataclasses", "inspect", "importlib.resources", "slopelab.conway")
loaded = [name for name in heavy if name in sys.modules]
import slopelab
quotient = slopelab.conway_quotient
conway = sys.modules.get("slopelab.conway")
same = quotient is conway.conway_quotient and cli.cross_check is conway.cross_check
from slopelab import *
print("probe", codes, loaded, conway is not None, same, ConwayData.__module__, file=sys.stderr)
"""


def test_conway_and_dataclasses_not_imported_by_other_commands():
    # -S keeps the interpreter's site hooks, which may import modules of
    # their own, out of the footprint
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    p = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT_PROBE],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert p.returncode == 0, p.stderr
    assert p.stderr == "probe [0, 0, 0] [] True True slopelab.conway\n"


def test_malformed_grid_spec_exit_2():
    p = _run("characters", "--root-status", "zeta:5:*,x")
    assert (p.returncode, p.stderr) == (2, "error: bad exponents in 'zeta:5:*,x'\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ("signature", "--in", "trefoil.json", "--char", "zeta:1000001:*"),
            "grid 'zeta:1000001:*' has 1000000 points, above the limit of 4096",
        ),
        (
            ("characters", "--root-status", "zeta:1000001:*,*,*"),
            "--root-status takes a single character",
        ),
        (
            ("slope", "--in", "whitehead.json", "--char", "zeta:1000001:*"),
            "slope takes a single character, not a grid",
        ),
        (
            ("conway", "--in", "l10n36_conway.json", "--sqrt", "zeta:1000001:*"),
            "--sqrt takes a single character",
        ),
        (
            ("conway", "--in", "l10n36_conway.json", "--sqrt", "zeta:10:1", "--char", "zeta:1000001:*"),
            "--char takes a single character",
        ),
    ],
)
def test_grid_refused_before_expansion(args, message):
    # expanding these grids would build 10^6 or 10^18 characters; the timeout catches it
    p = _run(*args, timeout=60)
    assert (p.returncode, p.stdout, p.stderr) == (2, "", f"error: {message}\n")


def test_grid_limit_counts_points_before_expansion():
    from slopelab.cli import GRID_LIMIT, parse_character_spec
    from slopelab.errors import UsageError

    assert GRID_LIMIT == 4096
    assert len(parse_character_spec("zeta:4097:*")) == 4096
    assert len(parse_character_spec("zeta:65:*,*,1", mu=3)) == 4096
    for spec, count in [
        ("zeta:4098:*", "4097"),
        ("zeta:66:*,*,1", "65^2"),
        ("zeta:3:" + ",".join(["*"] * 13), "2^13"),
        ("zeta:1000001:*,*,*", "1000000^3"),
    ]:
        with pytest.raises(UsageError) as exc:
            parse_character_spec(spec)
        assert str(exc.value) == (
            f"grid {spec!r} has {count} points, above the limit of 4096"
        )


@pytest.mark.parametrize(
    "args",
    [
        ("slope", "--in", "whitehead.json", "--char", "num:1e999+0i"),
        ("slope", "--in", "whitehead.json", "--char", "num:nan"),
        ("conway", "--in", "l10n36_conway.json", "--sqrt", "num:1e999+0i"),
    ],
)
def test_non_finite_numeric_character_exit_2(args):
    # before the check: "slope: infinity" with exit 0, a "vanishing character
    # coordinate" refusal with exit 3, and an OverflowError traceback with exit 1
    p = _run(*args)
    assert (p.returncode, p.stdout, p.stderr) == (
        2,
        "",
        "error: character coordinates must be finite\n",
    )


@pytest.mark.parametrize(
    "args, tol, expected",
    [
        # 1 + 1e-11 is a non-vanishing coordinate at tolerance 1e-12
        (
            ("slope", "--in", "whitehead.json", "--char", "num:1.00000000001+0i"),
            "1e-12",
            "slope: finite",
        ),
        # zeta_6 rotated by 1e-6: within 1e-3 of the root where the nullity jumps
        (
            ("signature", "--in", "trefoil.json", "--char",
             "num:0.49999913397434637+0.8660259037840056i"),
            "1e-3",
            "eta=1 (approximate)",
        ),
        # the same point as a square root: the numerator is 0 and the
        # denominator 6e-12, zero at the default tolerance (inconclusive)
        # but not at 1e-13; the last line, the value, is 0
        (
            ("conway", "--in", "l10n36_conway.json", "--sqrt",
             "num:0.49999913397434637+0.8660259037840056i"),
            "1e-13",
            "\n0\n",
        ),
    ],
)
def test_tol_flag_acts_like_environment_tolerance(args, tol, expected):
    # --tol once reached only the approximate context: slope refused the first
    # point as vanishing (exit 3) and signature printed eta=0 at the second
    flag = _run(*args, "--tol", tol)
    environment = _run(*args, env={"SLOPELAB_TOL": tol})
    assert (flag.returncode, flag.stdout, flag.stderr) == (
        environment.returncode,
        environment.stdout,
        environment.stderr,
    )
    assert flag.returncode == 0 and expected in flag.stdout


TOL_ZERO = "error: tolerance must be positive\n"
TOL_NOT_FLOAT = "error: SLOPELAB_TOL is not a float: 'abc'\n"


@pytest.mark.parametrize(
    "args, env, code, stderr",
    [
        # a num: character reads the tolerance, before the linking check
        (("slope", "--in", "linked", "--char", "num:0.6+0.8i", "--tol", "0"), {}, 2, TOL_ZERO),
        (("slope", "--in", "whitehead.json", "--char", "num:0.6+0.8i"),
         {"SLOPELAB_TOL": "abc"}, 2, TOL_NOT_FLOAT),
        (("conway", "--in", "l10n36_conway.json", "--sqrt", "num:0.6+0.8i", "--tol", "0"),
         {}, 2, TOL_ZERO),
        # the exact fields never read it
        (("slope", "--in", "whitehead.json", "--char", "zeta:5:1", "--tol", "0"), {}, 0, ""),
        (("slope", "--in", "whitehead.json", "--char", "zeta:5:1"),
         {"SLOPELAB_TOL": "abc"}, 0, ""),
        (("conway", "--in", "l10n36_conway.json", "--sqrt", "zeta:10:1", "--tol", "0"),
         {}, 0, ""),
        # every signature reads it for its floating-point eigenvalue count
        (("signature", "--in", "trefoil.json", "--char", "zeta:5:1", "--tol", "0"),
         {}, 2, TOL_ZERO),
        (("signature", "--in", "trefoil.json", "--char", "zeta:5:1"),
         {"SLOPELAB_TOL": "abc"}, 2, TOL_NOT_FLOAT),
    ],
)
def test_bad_tolerance_refused_where_it_is_read(tmp_path, args, env, code, stderr):
    linked = _write(tmp_path, "linked.json", LINKED)
    p = _run(*(linked if a == "linked" else a for a in args), env=env)
    assert (p.returncode, p.stderr) == (code, stderr)


TOL_SIG_BAD = "error: signature tolerance must be non-negative and finite\n"
WHITEHEAD_NUM = ("slope", "--in", "whitehead.json", "--char", "num:0.6+0.8i")
TREFOIL_NUM = ("signature", "--in", "trefoil.json", "--char", "num:0.6+0.8i")


@pytest.mark.parametrize(
    "args, env, stderr",
    [
        # the unitarity and sqrt checks read the tolerance through the same check
        (TREFOIL_NUM + ("--tol", "-1"), {}, TOL_ZERO),
        (("conway", "--in", "l10n36_conway.json", "--char", "num:0.36+0.48i",
          "--sqrt", "num:0.6+0.4i", "--tol", "-1"), {}, TOL_ZERO),
        # nan passed a `<= 0` test, and an infinite tolerance makes every value zero
        (WHITEHEAD_NUM + ("--tol", "nan"), {}, TOL_ZERO),
        (WHITEHEAD_NUM + ("--tol", "inf"), {}, "error: tolerance must be finite\n"),
        (WHITEHEAD_NUM, {"SLOPELAB_TOL": "nan"}, "error: SLOPELAB_TOL must be positive\n"),
        (WHITEHEAD_NUM, {"SLOPELAB_TOL": "inf"}, "error: SLOPELAB_TOL must be finite\n"),
        # a negative --tol-sig counted an eigenvalue both positive and negative
        (TREFOIL_NUM + ("--tol-sig", "-1"), {}, TOL_SIG_BAD),
        (TREFOIL_NUM + ("--tol-sig", "nan"), {}, TOL_SIG_BAD),
        (TREFOIL_NUM + ("--tol-sig", "inf"), {}, TOL_SIG_BAD),
    ],
)
def test_tolerance_not_positive_and_finite_refused(args, env, stderr):
    p = _run(*args, env=env)
    assert (p.returncode, p.stdout, p.stderr) == (2, "", stderr)


def test_zero_signature_tolerance_is_accepted():
    assert _run(*TREFOIL_NUM, "--tol-sig", "0").stdout == _run(*TREFOIL_NUM).stdout


SQRT_NEAR = ("conway", "--in", "l10n36_conway.json", "--char", "num:0.6+0.8i",
             "--sqrt", "num:0.8944271912235227+0.4472135956117614i")


def test_sqrt_check_uses_the_numeric_tolerance():
    # the squares of --sqrt differ from --char by about 5e-10; the check
    # once used 1e-9 without --tol, whatever SLOPELAB_TOL said
    refused = [
        _run(*SQRT_NEAR),
        _run(*SQRT_NEAR, env={"SLOPELAB_TOL": "1e-12"}),
        _run(*SQRT_NEAR, "--tol", "1e-12"),
    ]
    for p in refused:
        assert p.returncode == 2
        assert "--sqrt squared does not equal --char" in p.stderr
    for p in (_run(*SQRT_NEAR, env={"SLOPELAB_TOL": "1e-9"}), _run(*SQRT_NEAR, "--tol", "1e-9")):
        assert p.returncode == 0, p.stderr


def test_conway_numeric_zero_has_no_sign():
    # 0 divided by a complex denominator is -0.0, once printed as "-0"
    args = ("conway", "--in", "l10n36_conway.json",
            "--sqrt", "num:0.8944271912235227+0.4472135956117614i")
    text = _run(*args)
    assert text.returncode == 0
    assert text.stdout.splitlines()[-1] == "0"
    out = json.loads(_run(*args, "--format", "json").stdout)["result"]
    assert (out["value"], out["numerator"]) == ("0", "0")


@pytest.mark.parametrize(
    "argv",
    [
        ["slope", "--in", "whitehead.json", "--char", "symbolic"],
        ["slope", "--in", "whitehead.json", "--char", "zeta:5:2"],
        ["slope", "--in", "whitehead.json", "--char", "num:0.6+0.8i", "--no-transpose-check"],
        ["signature", "--in", "trefoil.json", "--char", "zeta:12:*"],
        ["signature", "--in", "trefoil.json", "--char", "num:0.6+0.8i"],
    ],
)
def test_slope_and_signature_validate_once_per_run(monkeypatch, capsys, argv):
    import slopelab.cli as cli
    import slopelab.seifert as seifert
    import slopelab.slope as slope

    calls = []

    def counting(presentation, *args, **kwargs):
        calls.append(kwargs)
        return seifert.validate(presentation, *args, **kwargs)

    monkeypatch.setattr(cli, "validate", counting)
    monkeypatch.setattr(slope, "validate", counting)
    assert cli.main(argv) == 0
    check = "--no-transpose-check" not in argv
    assert calls == [{"check_transpose": check}]
    assert "violation" not in capsys.readouterr().out


def test_compare_validates_each_dataset_once(monkeypatch, capsys):
    import slopelab.cli as cli
    import slopelab.seifert as seifert
    import slopelab.slope as slope

    calls = []

    def counting(presentation, *args, **kwargs):
        calls.append(presentation.label)
        return seifert.validate(presentation, *args, **kwargs)

    monkeypatch.setattr(cli, "validate", counting)
    monkeypatch.setattr(slope, "validate", counting)
    assert cli.main(["compare", "--in", "whitehead.json", "--vs", "kappa_zero.json"]) == 1
    assert len(calls) == 2 and calls[0] != calls[1]
    assert "OBSTRUCTED" in capsys.readouterr().out
