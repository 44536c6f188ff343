"""Run the committed mutation suite against a copy of the tree.

    python3 scripts/mutants.py [--root DIR] [NAME ...]

Each entry of ``MUTANTS`` names a file, an exact text that must occur in it
once, the text that replaces it, the test files that should fail on the
result, and the expectation: ``killed``, or ``equivalent`` with the reason
no test can fail.  The tree at ``--root`` (default: the checkout holding
this script) is copied once to a temporary directory; the working tree is
never written.  Each mutant in turn is applied to the copy, pytest runs on
its test files (``-x``, one run after another, never in parallel), and the
file is put back.

A mutant is killed when pytest exits nonzero, survived when it passes, and
stale when its old text does not occur exactly once (the code it mutates
has changed; update the entry).  One line per mutant reports the outcome
and the time.  The exit status is 1 when a mutant expected ``killed``
survives, else 0.  NAME arguments run only the named mutants.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KILLED = "killed"
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple
    expect: str = KILLED


SLOPE = "src/slopelab/slope.py"
SEIFERT = "src/slopelab/seifert.py"
LINALG = "src/slopelab/linalg.py"
FIELDS = "src/slopelab/fields.py"
CHARACTERS = "src/slopelab/characters.py"

MUTANTS = [
    # the presentation's rows (seifert.symbolic_rows)
    Mutant("kappa-factor-1-minus-w", SEIFERT,
           "for f, c in ((e[:i] + (1,) + e[i + 1:], v), (e, -v))}",
           "for f, c in ((e[:i] + (1,) + e[i + 1:], -v), (e, v))}",
           ("tests/test_seifert.py",)),
    Mutant("symbolic-rows-no-shift", SEIFERT,
           "        if any(shift):\n            row = [",
           "        if False:\n            row = [",
           ("tests/test_seifert.py",)),
    Mutant("symbolic-rows-shift-ignores-kappa", SEIFERT,
           "m = tuple(int(i in keep and not k and not any(",
           "m = tuple(int(i in keep and not any(",
           ("tests/test_seifert.py",)),
    Mutant("f-divides-on-equal-terms", SEIFERT,
           "e[:i] + (-1 - e[i],) + e[i + 1:], 0) == -v for",
           "e[:i] + (-1 - e[i],) + e[i + 1:], 0) == v for",
           ("tests/test_seifert.py",)),
    Mutant("build-E-scales-by-P", SEIFERT,
           "    scale = ctx.invert(pi)\n",
           "    scale = pi\n",
           ("tests/test_seifert.py",)),
    # the fraction-free kernel (linalg._echelon_fraction_free)
    Mutant("unscaled-ignores-shift", LINALG,
           "    return kronecker_unpack(k, radix, width).shift(shift)",
           "    return kronecker_unpack(k, radix, width)",
           ("tests/test_linalg.py",)),
    Mutant("units-not-swapped-with-rows", LINALG,
           "        units[r], units[sel] = units[sel], units[r]\n",
           "",
           ("tests/test_linalg.py",)),
    Mutant("pivot-rows-without-det", LINALG,
           "        row[own] = pivot_polys[-1]\n",
           "",
           ("tests/test_linalg.py",)),
    Mutant("known-entries-recomputed", LINALG,
           "unknown = [j for j in range(ncols) if j != c and j not in pivots]",
           "unknown = [j for j in range(ncols) if j != c]",
           ("tests/test_linalg.py",)),
    Mutant("layout-width-bit-length-H", LINALG,
           "((2 * h * h).bit_length() + 8) // 8",
           "(h.bit_length() + 8) // 8",
           ("tests/test_linalg.py",)),
    # the record's read-offs (slope._Elimination)
    Mutant("pairing-numerator-sign", SLOPE,
           "acc = acc - rows[r][f] * kappa[c]",
           "acc = acc + rows[r][f] * kappa[c]",
           ("tests/test_slope.py",)),
    Mutant("annihilator-always-passes", SLOPE,
           "in_annihilator = not any(any(_at_torsion(p, n, ks)[0]) for p in self.pairings)",
           "in_annihilator = True",
           ("tests/test_slope.py",)),
    Mutant("read-off-at-det-zeros", SLOPE,
           "        if not any(det):\n            return self.solve_at(omega)\n",
           "",
           ("tests/test_slope.py",)),
    Mutant("value-sign-flipped", SLOPE,
           "value = over_det(self.value, -det_den)",
           "value = over_det(self.value, det_den)",
           ("tests/test_slope.py",)),
    Mutant("witness-sign-flipped", SLOPE,
           "witness[c] = over_det(num, det_den)",
           "witness[c] = over_det(num, -det_den)",
           ("tests/test_slope.py",)),
    Mutant("solve-at-pairs-with-scaled-kappa", SLOPE,
           "return _read_off(sol, [ctx.from_int(k) for k in self.kappa], ctx)",
           "return _read_off(sol, [row[-1] for row in rows], ctx)",
           ("tests/test_slope.py",)),
    Mutant("second-request-rule", SLOPE,
           "        return _record(presentation).at(omega)\n",
           "        if _key(presentation) not in _RECORDS:\n"
           "            _record(presentation)\n"
           "            return _direct(presentation, omega, ctx)\n"
           "        return _record(presentation).at(omega)\n",
           ("tests/test_slope.py",)),
    # certify_zero_slope
    Mutant("certify-ignores-V", SLOPE,
           "if record.numerators is None or any(record.pairings) or record.value:",
           "if record.numerators is None or any(record.pairings):",
           ("tests/test_slope.py",)),
    Mutant("certify-ignores-pairings", SLOPE,
           "if record.numerators is None or any(record.pairings) or record.value:",
           "if record.numerators is None or record.value:",
           ("tests/test_slope.py",),
           "equivalent: certify validates with the transpose check, and on a "
           "transpose-symmetric presentation kappa is in the image iff it is in "
           "the annihilator"),
    Mutant("certify-skips-every-solve", SLOPE,
           "        if _nonzero_at_torsion(record.det, conductor, exponents):\n"
           "            continue\n",
           "        continue\n",
           ("tests/test_slope.py",)),
    # integer coordinates at torsion characters
    Mutant("adjugate-signed-norm", FIELDS,
           "        coeffs[-j % n] = 1 if c > 0 else -1\n"
           "        return _reduce_mod_phi(coeffs, n), abs(c)\n",
           "        coeffs[-j % n] = 1\n"
           "        return _reduce_mod_phi(coeffs, n), c\n",
           ("tests/test_fields.py", "tests/test_slope.py")),
    Mutant("adjugate-one-term-unrotated", FIELDS,
           "        coeffs[-j % n] = 1 if c > 0 else -1\n",
           "        coeffs[j % n] = 1 if c > 0 else -1\n",
           ("tests/test_fields.py", "tests/test_slope.py")),
    Mutant("hermitian-conjugated-exponents", CHARACTERS,
           "            s = e * k % n\n",
           "            s = -e * k % n\n",
           ("tests/test_characters.py", "tests/test_slope.py")),
    # the CLI's numeric characters
    Mutant("cli-every-i-is-imaginary", "src/slopelab/cli.py",
           'complex(z[:-1] + "j" if z.endswith("i") else z)',
           'complex(z.replace("i", "j"))',
           ("tests/test_cli.py",)),
]


def occurrences(root, mutant):
    """How often the mutant's old text occurs in its file under root."""
    path = os.path.join(root, mutant.path)
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as f:
        return f.read().count(mutant.old)


def run(copy, mutant):
    """(outcome, seconds) of one mutant applied to the copy."""
    if occurrences(copy, mutant) != 1:
        return "stale", 0.0
    path = os.path.join(copy, mutant.path)
    with open(path, encoding="utf-8") as f:
        original = f.read()
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(original.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
        outcome = "survived" if proc.returncode == 0 else KILLED
    except subprocess.TimeoutExpired:
        outcome = KILLED
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(original)
    return outcome, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="the tree to mutate (a copy of it)")
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {', '.join(sorted(unknown))}")
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "tree")
        shutil.copytree(args.root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        for mutant in chosen:
            outcome, seconds = run(copy, mutant)
            expected = mutant.expect.split(":")[0]
            unexpected = outcome == "survived" and expected == KILLED
            failures += unexpected
            note = "  UNEXPECTED" if unexpected else ""
            print(f"{mutant.name:36} {outcome:9} {seconds:6.1f} s  expected {expected}{note}",
                  flush=True)
    print(f"{len(chosen)} mutants, {failures} expected killed but survived")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
