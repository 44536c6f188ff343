"""The scripts and the benchmark tracer keep working against the library,
which imports no numpy."""

import ast
import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import slopelab.slope as slope_module
from slopelab.characters import Character, evaluate_at_torsion
from slopelab.fields import CyclotomicNumber, RatFunc
from slopelab.laurent import LaurentPoly

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_bench_module(name):
    path = os.path.join(ROOT, "slopebench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"slopebench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_obstruction_sweep_runs_without_test_dependencies():
    # pytest and the test helpers are made unimportable inside the script's process
    runner = (
        "import runpy, sys; sys.modules['pytest'] = sys.modules['conftest'] = None; "
        "sys.argv = ['obstruction_sweep.py', '--seed', '3']; "
        "runpy.run_path('scripts/obstruction_sweep.py', run_name='__main__')"
    )
    env = dict(os.environ, PYTHONPATH="src")
    p = subprocess.run(
        [sys.executable, "-c", runner], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert p.returncode == 0, p.stderr
    assert [line.strip() for line in p.stdout.splitlines()] == [
        "base presentation: mu=1, n=3, kappa=[2, -2, 1]",
        "basis change: no obstruction found",
        "stabilization: no obstruction found",
        "double stabilization: no obstruction found",
        "corrupted kappa: OBSTRUCTED at zeta:2:1",
    ]


@pytest.mark.parametrize("budget", ["0", "-4"])
def test_obstruction_sweep_refuses_non_positive_budget(budget):
    env = dict(os.environ, PYTHONPATH="src")
    p = subprocess.run(
        [sys.executable, "scripts/obstruction_sweep.py", "--budget", budget],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert (p.returncode, p.stdout) == (2, "")
    assert p.stderr.endswith(
        f"obstruction_sweep.py: error: --budget must be a positive integer, got {budget}\n"
    )


def test_whitehead_demo_runs_without_test_dependencies():
    runner = (
        "import runpy, sys; sys.modules['pytest'] = sys.modules['conftest'] = None; "
        "sys.argv = ['whitehead_demo.py']; "
        "runpy.run_path('scripts/whitehead_demo.py', run_name='__main__')"
    )
    env = dict(os.environ, PYTHONPATH="src")
    p = subprocess.run(
        [sys.executable, "-c", runner], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines() == [
        "dataset: Whitehead link, distinguished unknotted component (mu=1, n=2, b0=1)",
        "theta[+] = [[0, 0], [1, 1]]",
        "theta[-] = [[0, 1], [0, 1]]",
        "kappa = [1, 0]",
        "",
        "A(w):",
        "  [0, -w1]",
        "  [1, 1 - w1]",
        "E(w):",
        "  [0, (-w1^-1)/(-w1^-1 + 1)]",
        "  [(1)/(-w1^-1 + 1), 1]",
        "",
        "symbolic slope: finite = -w1^-1 + 2 - w1",
        "",
        "order  slope        sigma  eta",
        "    2  4                0    0",
        "    3  3                0    0",
        "    4  2                0    0",
        "    5  3 + z^2 + z^3      0    0",
        "    6  1                0    0",
        "    8  2 - z + z^3      0    0",
        "   12  2 - 2*z + z^3      0    0",
    ]


def test_source_lines_counts_code_without_comments_or_docstrings():
    path = os.path.join(ROOT, "scripts", "source_lines.py")
    spec = importlib.util.spec_from_file_location("source_lines", path)
    source_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(source_lines)
    source = (
        '"""Module\n\ndoc."""\n\n# comment\nx = 1  # trailing\n\n\nclass A:\n'
        '    """Doc."""\n\n    def f(self):\n        s = """not a\n\ndocstring"""\n'
        '        return s\n'
    )
    assert source_lines.count(source) == (10, 6)
    p = subprocess.run(
        [sys.executable, "scripts/source_lines.py"], capture_output=True, text=True, cwd=ROOT
    )
    assert p.returncode == 0, p.stderr
    non_blank, code = (int(line.split(": ")[1]) for line in p.stdout.splitlines())
    assert 0 < code < non_blank


def test_every_mutant_applies_to_this_tree():
    # the suite runs pytest once per mutant, so it stays a script; this
    # only checks that no entry has gone stale
    path = os.path.join(ROOT, "scripts", "mutants.py")
    spec = importlib.util.spec_from_file_location("mutants", path)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    table = mutants.MUTANTS
    assert [m.name for m in table if mutants.occurrences(ROOT, m) != 1] == []
    assert len({m.name for m in table}) == len(table)
    assert all(m.old != m.new for m in table)
    assert all(os.path.exists(os.path.join(ROOT, t)) for m in table for t in m.tests)
    assert {m.expect.split(":")[0] for m in table} == {"killed", "equivalent"}


def test_benchmark_tracer_bindings_resolve():
    # install() raises when a module:name binding the tracer patches is gone
    import slopelab.cli

    tracer = _load_bench_module("tracer")
    original = slopelab.cli.slope_at
    t = tracer.Tracer()
    try:
        t.install()
        assert slopelab.cli.slope_at is not original
    finally:
        t.uninstall()
    assert slopelab.cli.slope_at is original


# Mirrors slopebench/cli_child.py: a process that has imported only
# slopelab.cli installs the tracer, so every module a binding names loads
# inside install() and every cli: binding is first resolved there.
TRACER_IN_CLI_PROCESS = """
import sys
sys.path.insert(0, "slopebench")
import slopelab.cli as cli
from tracer import TARGETS, Tracer

def traced(fn):
    return getattr(fn, "__name__", "") == "traced"

cli_names = [b[4:] for bs in TARGETS.values() for b in bs if b.startswith("cli:")]
homes = [bs[0].split(":") for bs in TARGETS.values()]
t = Tracer()
t.install()
unpatched = [name for name in cli_names if not traced(getattr(cli, name))]
undo = list(t._undo)
code = cli.main(["validate", "--in", "whitehead.json"])
calls = {name: row["calls"] for name, row in t.summary().items()}
t.uninstall()
spans = len(t.start)
cli.main(["validate", "--in", "whitehead.json"])
print("patched", len(cli_names), unpatched, code, file=sys.stderr)
print("calls", [calls.get(n) for n in
                ("datasets.resolve_input", "seifert.load", "seifert.validate")], file=sys.stderr)
restored = all(getattr(owner, attr) is original for owner, attr, original in reversed(undo))
homes_traced = [m + ":" + a for m, a in homes
                if "." not in a and traced(getattr(sys.modules["slopelab." + m], a))]
print("restored", restored, homes_traced, len(t.start) - spans, file=sys.stderr)
"""


def test_benchmark_tracer_installs_in_a_cli_only_process():
    # in-process tests see every module already loaded; a cli binding that
    # cannot be resolved there makes install() raise in every CLI child
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    p = subprocess.run(
        [sys.executable, "-S", "-c", TRACER_IN_CLI_PROCESS],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert p.returncode == 0, p.stderr
    assert p.stderr.splitlines()[-3:] == [
        "patched 10 [] 0",
        # the handlers run the defining modules' bindings: each call is one span
        "calls [1, 1, 1]",
        # every binding holds what install() found; no defining module keeps
        # a wrapper, and after uninstall() a command records no span
        "restored True [] 0",
    ]


def test_benchmark_value_stats_reads_cyclotomic_coords(monkeypatch):
    # workloads.py imports its sibling gen.py, as it does inside the worker
    monkeypatch.syspath_prepend(os.path.join(ROOT, "slopebench"))
    workloads = _load_bench_module("workloads")
    x = CyclotomicNumber(5, [Fraction(1, 1000), 0, Fraction(-7, 4), 3])
    y = CyclotomicNumber(3, [Fraction(-300, 7), 1])
    # (terms, bits): the most nonzero coordinates and the widest numerator or denominator
    assert workloads.value_stats([x]) == (3, 10)
    assert workloads.value_stats([x, y, 1j]) == (3, 10)
    assert workloads.value_stats([y]) == (2, 9)


def test_benchmark_value_stats_reads_mixed_laurent_coefficients(monkeypatch):
    # RatFunc terms hold ints when integral and Fractions otherwise; value_stats
    # reads .numerator and .denominator of both
    monkeypatch.syspath_prepend(os.path.join(ROOT, "slopebench"))
    workloads = _load_bench_module("workloads")
    w = LaurentPoly.var(1, 0)
    # reduced to (1000 w^-1 - 7/4 + 3 w) / (1 + w^-1)
    x = RatFunc(1000 - Fraction(7, 4) * w + 3 * w ** 2, w + 1)
    assert sorted(type(c).__name__ for c in x.num.terms.values()) == ["Fraction", "int", "int"]
    # reduced to (1/2050 w^-1) / 1
    y = RatFunc(LaurentPoly.const(1, Fraction(1, 1025)), 2 * w)
    assert y.num.terms == {(-1,): Fraction(1, 2050)} and y.den.terms == {(0,): 1}
    assert workloads.value_stats([x]) == (5, 10)
    assert workloads.value_stats([x, y, 1j]) == (5, 12)
    assert workloads.value_stats([y]) == (2, 12)


def _replay_seed_0(monkeypatch, tmp_path, name):
    """The benchmark's query set of one workload at seed 0, replayed
    in-process: (query count, failed, notes, digest, recorded digest,
    queries, solves), solves holding, per call of
    ``_Elimination.solve_at``, whether det vanishes at its character."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "slopebench"))
    workloads = _load_bench_module("workloads")
    worker = _load_bench_module("worker")
    solves = []
    solve_at = slope_module._Elimination.solve_at

    def counting(record, omega):
        solves.append(evaluate_at_torsion(record.det, omega).is_zero())
        return solve_at(record, omega)

    monkeypatch.setattr(slope_module._Elimination, "solve_at", counting)
    wl = getattr(workloads, name.capitalize())()
    wl.setup(random.Random(0), 12, str(tmp_path))
    queries = list(wl.iter_queries())
    results = [wl.run(q) for q in queries]
    failed, notes, digest = worker.check_all(wl, queries, results, wl.expected)
    recorded = worker.recorded_digest(name, 0, 12)
    return len(queries), failed, notes, digest, recorded, queries, solves


def _det_zeros(pairs):
    """How many of the (presentation, character) pairs have det(omega) = 0,
    det taken from a fresh elimination of each presentation."""
    dets = {}
    zeros = 0
    for p, omega in pairs:
        if id(p) not in dets:
            dets[id(p)] = slope_module._Elimination(p).det
        zeros += evaluate_at_torsion(dets[id(p)], omega).is_zero()
    return zeros


def test_compare_seed_0_digest_matches_the_record(monkeypatch, tmp_path):
    # every rendered slope must hash to the digest slopebench/digests.json
    # records, and a solve runs exactly where det vanishes
    count, failed, notes, digest, recorded, queries, solves = _replay_seed_0(
        monkeypatch, tmp_path, "compare"
    )
    assert (count, failed, notes) == (280, 0, [])
    assert digest == recorded
    pairs = [(p, omega) for first, second, omega in queries for p in (first, second)]
    assert solves == [True] * _det_zeros(pairs) == [True] * 6


@pytest.mark.parametrize("name, count", [("symbolic", 120), ("certify", 100)])
def test_symbolic_path_seed_0_digest_matches_the_record(monkeypatch, tmp_path, name, count):
    # the two workloads whose every query takes a symbolic slope off a record;
    # certify solves exactly at the battery characters where det vanishes
    got = _replay_seed_0(monkeypatch, tmp_path, name)
    assert got[:3] == (count, 0, [])
    assert got[3] == got[4]
    if name == "certify":
        pairs = [
            (p, Character.root_of_unity(*point))
            for p in got[5]
            for point in slope_module._battery(p.mu)
        ]
        assert got[6] == [True] * _det_zeros(pairs) == [True] * 10


def test_cli_seed_0_digest_matches_the_record(monkeypatch, tmp_path, capsys):
    """The ``cli`` workload's seed-0 commands, run in process through
    ``cli.main`` from the set-up directory, each on an empty record memo as
    in a fresh child: the text, JSON and exit codes hash to the recorded
    digest."""
    import signal

    import slopelab.slope as slope_module
    from slopelab import cli

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "slopebench"))
    workloads = _load_bench_module("workloads")
    worker = _load_bench_module("worker")
    wl = workloads.Cli()
    # the set-up installs an alarm handler for its children; none run here
    handler = signal.getsignal(signal.SIGALRM)
    try:
        wl.setup(random.Random(0), 12, str(tmp_path))
    finally:
        signal.signal(signal.SIGALRM, handler)
    monkeypatch.chdir(tmp_path)
    queries = list(wl.iter_queries())
    results = []
    for q in queries:
        slope_module._RECORDS.clear()
        capsys.readouterr()
        code = cli.main(q["argv"])
        results.append((code, capsys.readouterr().out))
    failed, notes, digest = worker.check_all(wl, queries, results, wl.expected)
    assert (len(queries), failed, notes) == (112, 0, [])
    assert digest == worker.recorded_digest("cli", 0, 12)


def _numpy_imports(tree):
    """Line numbers of the imports of numpy (or a submodule) in a module's AST."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            names = [node.args[0].value] if name in ("__import__", "import_module") else []
        else:
            continue
        if any(isinstance(n, str) and n.split(".")[0] == "numpy" for n in names):
            found.append(node.lineno)
    return found


def test_library_does_not_import_numpy():
    # numpy is a test-only oracle; tests/ and slopebench/ may import it
    package = os.path.join(ROOT, "src", "slopelab")
    modules = sorted(
        os.path.relpath(os.path.join(d, name), package)
        for d, _, names in os.walk(package)
        for name in names
        if name.endswith(".py")
    )
    assert "linalg.py" in modules
    hits = {}
    for name in modules:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            lines = _numpy_imports(ast.parse(fh.read(), filename=name))
        if lines:
            hits[name] = lines
    assert hits == {}
    assert _numpy_imports(ast.parse("import numpy.linalg as la")) == [1]
    assert _numpy_imports(ast.parse("from numpy import linalg")) == [1]
    assert _numpy_imports(ast.parse("importlib.import_module('numpy')")) == [1]
    assert _numpy_imports(ast.parse("import numbers\nfrom .numpyish import x")) == []


def test_runtime_dependencies_are_empty():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    assert any(dep.startswith("numpy") for dep in project["optional-dependencies"]["test"])
