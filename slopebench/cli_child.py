"""The slopelab CLI under the benchmark's tracer, for the traced cli pass.

    python3 slopebench/cli_child.py SPANS_OUT SUBCOMMAND [ARG...]

Runs ``slopelab.cli.main`` like ``python -m slopelab`` does, with every
TARGETS binding wrapped, then writes its spans and import times to
SPANS_OUT as JSON and exits with the CLI's exit code.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy  # noqa: E402,F401

t_numpy = time.perf_counter()
import slopelab.cli  # noqa: E402

t_import = time.perf_counter()
from tracer import Tracer  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    tr.install()
    try:
        with tr.span(f"cli.main.{argv[0]}"):
            code = slopelab.cli.main(argv)
    finally:
        tr.uninstall()
    payload = tr.payload()
    payload["import_s"] = t_import - t0
    payload["import_numpy_s"] = t_numpy - t0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
