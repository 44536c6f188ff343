"""The scripts and the benchmark tracer keep working against the library."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def test_benchmark_tracer_bindings_resolve():
    # install() raises when a module:name binding the tracer patches is gone
    import slopelab.cli

    path = os.path.join(ROOT, "slopebench", "tracer.py")
    spec = importlib.util.spec_from_file_location("slopebench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = slopelab.cli.slope_at
    t = tracer.Tracer()
    try:
        t.install()
        assert slopelab.cli.slope_at is not original
    finally:
        t.uninstall()
    assert slopelab.cli.slope_at is original
