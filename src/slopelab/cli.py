"""Command-line interface.

Subcommands map one-to-one onto the library: validate, slope, signature,
compare, characters, conway.  Exit codes: 0 success or no obstruction,
1 obstruction found, 2 invalid input, 3 unsupported hypothesis.  Output is
text by default, or machine-readable JSON with --format json (including a
provenance block: tool version, the effective configuration, and whether
the computation was exact).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import __version__
from .characters import (
    Character,
    components,
    concordance_root_status,
    default_context_for,
    sample_safe_characters,
    verify_root_witness,
)
from .datasets import resolve_input
from .errors import InvalidPresentationError, UnsupportedHypothesisError, UsageError
from .fields import CyclotomicNumber, RatFunc, format_complex, resolve_tolerance
from .laurent import LaurentPoly
from .seifert import load_presentation, validate
# The handlers validate each dataset once, at load, and then call the
# slope module's helpers for validated presentations.  slope_at,
# slope_symbolic and signature_nullity are not called here but stay bound,
# for tools that patch this module's bindings (slopebench/tracer.py).
from .slope import (
    _compare_in,
    _signature_in,
    _slope_in,
    signature_nullity,
    slope_at,
    slope_symbolic,
)

# Only the conway subcommand needs the conway module, so it is imported
# there.  slopebench/tracer.py's TARGETS patch cli:conway_quotient and
# cli:cross_check, so those two names stay reachable as attributes of this
# module (PEP 562).  cmd_conway calls them through the conway module, so a
# patch of that module's bindings is what runs.
_CONWAY = ("conway_quotient", "cross_check")


def __getattr__(name):
    if name in _CONWAY:
        from . import conway

        return getattr(conway, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_OBSTRUCTED = 1
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3

# Most characters a zeta:N:* grid may expand to; the point count
# (N-1)^(number of '*') is checked before anything is built.
GRID_LIMIT = 4096


def parse_character_spec(spec, mu=None, single=None):
    """Parse a character spec: symbolic | zeta:N:k1,..,kmu | num:re+imi,..

    Exponent entries may be '*' (grid over 1..N-1); the result is then a
    list of characters, otherwise a single character.  A grid above
    GRID_LIMIT points is refused before expansion, and so is any grid when
    ``single`` (the refusal message) is given.
    """
    spec = spec.strip()
    if spec == "symbolic":
        if mu is None:
            raise UsageError("symbolic character needs a dataset to fix mu")
        return Character.symbolic(mu)
    if spec.startswith("zeta:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad character spec {spec!r}; expected zeta:N:k1,..,kmu")
        try:
            conductor = int(parts[1])
        except ValueError as exc:
            raise UsageError(f"bad conductor in {spec!r}") from exc
        raw = parts[2].split(",")
        if mu is not None and len(raw) != mu:
            raise UsageError(
                f"character has {len(raw)} coordinates but the dataset has mu={mu}"
            )
        grid = "*" in raw
        if grid and conductor < 2:
            raise UsageError("grid mode needs a conductor of at least 2")
        try:
            pools = [range(1, conductor) if r == "*" else [int(r)] for r in raw]
        except ValueError as exc:
            raise UsageError(f"bad exponents in {spec!r}") from exc
        if not grid:
            return Character.root_of_unity(conductor, [k for (k,) in pools])
        if single is not None:
            raise UsageError(single)
        stars = raw.count("*")
        points = 1
        for _ in range(stars):
            points = min(points * (conductor - 1), GRID_LIMIT + 1)
        if points > GRID_LIMIT:
            count = f"{conductor - 1}^{stars}" if stars > 1 else f"{conductor - 1}"
            raise UsageError(
                f"grid {spec!r} has {count} points, above the limit of {GRID_LIMIT}"
            )
        return [
            Character.root_of_unity(conductor, exps) for exps in itertools.product(*pools)
        ]
    if spec.startswith("num:"):
        raw = spec[4:].split(",")
        if mu is not None and len(raw) != mu:
            raise UsageError(
                f"character has {len(raw)} coordinates but the dataset has mu={mu}"
            )
        values = []
        for r in raw:
            try:
                values.append(complex(r.strip().replace("i", "j")))
            except ValueError as exc:
                raise UsageError(f"bad complex coordinate {r!r}") from exc
        return Character.numeric(values)
    raise UsageError(f"unrecognized character spec {spec!r}")


def render_value(value):
    if value is None:
        return None
    if isinstance(value, (RatFunc, CyclotomicNumber, LaurentPoly)):
        return value.render()
    if isinstance(value, complex):
        return format_complex(value)
    return str(value)


def _slope_result(sv):
    out = {
        "kind": sv.kind,
        "value": render_value(sv.value),
        "witness": [render_value(x) for x in sv.witness] if sv.witness else None,
        "case": {
            "kappa_in_image": sv.case_report.kappa_in_image,
            "kappa_in_annihilator": sv.case_report.kappa_in_annihilator,
        },
        "approximate": sv.approximate,
    }
    if sv.valid_away_from is not None and not sv.valid_away_from.is_constant():
        out["valid_away_from"] = sv.valid_away_from.render()
    else:
        out["valid_away_from"] = None
    return out


def _parse_linking(raw):
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad linking vector {raw!r}") from exc


def _load_checked(args, dests, check_transpose=True):
    """Resolve, load and validate the datasets named by the ``dests`` of args.

    Returns (paths, presentations, violations).  With two datasets each
    violation is prefixed "first: " or "second: ".
    """
    paths = [resolve_input(getattr(args, dest)) for dest in dests]
    presentations = [load_presentation(path) for path in paths]
    prefixes = ("first: ", "second: ") if len(dests) == 2 else ("",)
    violations = [
        prefix + v
        for prefix, p in zip(prefixes, presentations)
        for v in validate(p, check_transpose=check_transpose)
    ]
    return paths, presentations, violations


def _refusal(violations):
    return EXIT_INVALID, {"violations": violations}, [f"violation: {v}" for v in violations]


# -- subcommand handlers ----------------------------------------------------------


def cmd_validate(args):
    [path], [presentation], violations = _load_checked(
        args, ["input"], check_transpose=not args.no_transpose_check
    )
    dataset = presentation.label or path
    result = {"dataset": dataset, "violations": violations, "ok": not violations}
    lines = [f"dataset: {dataset}"] + ([f"violation: {v}" for v in violations] or ["ok"])
    return (EXIT_INVALID if violations else EXIT_OK), result, lines


def cmd_slope(args):
    [path], [presentation], violations = _load_checked(
        args, ["input"], check_transpose=not args.no_transpose_check
    )
    if violations:
        return _refusal(violations)
    omega = parse_character_spec(
        args.char, mu=presentation.mu, single="slope takes a single character, not a grid"
    )
    sv = _slope_in(presentation, omega, default_context_for(omega, args.tol))
    result = {
        "dataset": presentation.label or path,
        "character": omega.describe(),
        "slope": _slope_result(sv),
    }
    lines = [
        f"dataset: {result['dataset']}",
        f"character: {result['character']}",
        f"slope: {sv.kind}",
    ]
    if sv.kind == "finite":
        lines.append(f"value: {render_value(sv.value)}")
        lines.append(f"witness: {result['slope']['witness']}")
    lines.append(
        "case: kappa in image: %s; kappa in annihilator of kernel: %s"
        % (sv.case_report.kappa_in_image, sv.case_report.kappa_in_annihilator)
    )
    if result["slope"]["valid_away_from"]:
        lines.append(f"valid away from zeros of: {result['slope']['valid_away_from']}")
    lines.append("exact" if not sv.approximate else "approximate")
    return EXIT_OK, result, lines


def cmd_signature(args):
    [path], [presentation], violations = _load_checked(
        args, ["input"], check_transpose=not args.no_transpose_check
    )
    if violations:
        return _refusal(violations)
    parsed = parse_character_spec(args.char, mu=presentation.mu)
    grid = parsed if isinstance(parsed, list) else [parsed]
    grid.sort(key=lambda ch: (ch.conductor, ch.exponents) if ch.kind == "zeta" else (0,))
    rows = []
    lines = [f"dataset: {presentation.label or path}"]
    for omega in grid:
        sig = _signature_in(presentation, omega, args.tol_sig, args.tol)
        rows.append(
            {
                "character": omega.describe(),
                "sigma": sig.sigma,
                "eta": sig.eta,
                "sigma_approximate": sig.sigma_approximate,
                "eta_exact": sig.eta_exact,
            }
        )
        lines.append(
            f"{omega.describe()}  sigma={sig.sigma} (approximate)  "
            f"eta={sig.eta} ({'exact' if sig.eta_exact else 'approximate'})"
        )
    result = {"dataset": presentation.label or path, "rows": rows}
    return EXIT_OK, result, lines


def cmd_compare(args):
    (path_a, path_b), (first, second), violations = _load_checked(args, ["input", "vs"])
    if violations:
        return _refusal(violations)
    comparison = _compare_in(first, second, args.budget, args.seed)
    points = [
        {
            "character": pt.omega.describe(),
            "first": {"kind": pt.first.kind, "value": render_value(pt.first.value)},
            "second": {"kind": pt.second.kind, "value": render_value(pt.second.value)},
            "equal": pt.equal,
        }
        for pt in comparison.points
    ]
    witness = comparison.witness.describe() if comparison.witness else None
    obstructed = witness is not None
    note = (
        "slopes differ at a safe character: the links are not concordant"
        if obstructed
        else "agreement at the sampled characters does not prove concordance"
    )
    result = {
        "first": first.label or path_a,
        "second": second.label or path_b,
        "verdict": "OBSTRUCTED" if obstructed else "NO OBSTRUCTION FOUND",
        "witness_character": witness,
        "points": points,
        "note": note,
        "sampled": len(points),
    }
    lines = [f"first: {result['first']}", f"second: {result['second']}"]
    lines += [
        f"{pt['character']}  first={pt['first']['kind']}:{pt['first']['value']}  "
        f"second={pt['second']['kind']}:{pt['second']['value']}  "
        + ("agree" if pt["equal"] else "DIFFER")
        for pt in points
    ]
    if not points:
        lines.append("no admissible safe characters found within the search bound")
    lines.append(result["verdict"] + (f" at {witness}" if witness else ""))
    lines.append(note)
    return (EXIT_OBSTRUCTED if obstructed else EXIT_OK), result, lines


def cmd_characters(args):
    if args.components:
        if args.linking is None:
            raise UsageError("--components needs --lambda")
        linking = _parse_linking(args.linking)
        comps = components(linking)
        rows = []
        lines = [f"lambda: {linking}"]
        for comp in comps:
            rows.append(
                {
                    "d": comp.d,
                    "defining_poly": comp.defining_poly.render(),
                    "lambda_prime": list(comp.lambda_prime),
                    "multiplicity": comp.multiplicity,
                }
            )
            lines.append(
                f"d={comp.d}: {comp.defining_poly.render()} "
                f"(lambda' = {list(comp.lambda_prime)}, n = {comp.multiplicity})"
            )
        return EXIT_OK, {"components": rows}, lines
    if args.root_status:
        omega = parse_character_spec(
            args.root_status, single="--root-status takes a single character"
        )
        status = concordance_root_status(omega)
        witness = status.witness.render() if status.witness is not None else None
        verified = (
            verify_root_witness(omega, status.witness)
            if status.witness is not None
            else None
        )
        result = {
            "character": omega.describe(),
            "status": status.status,
            "order": status.order,
            "witness": witness,
            "witness_verified": verified,
            "detail": status.detail,
        }
        lines = [f"character: {omega.describe()}", f"status: {status.status}"]
        if status.order:
            lines.append(f"exact order: {status.order}")
        if witness:
            lines.append(f"witness: {witness} (verified: {verified})")
        if status.detail:
            lines.append(status.detail)
        return EXIT_OK, result, lines
    if args.sample is not None:
        if args.mu is None:
            raise UsageError("--sample needs --mu")
        linking = _parse_linking(args.linking) if args.linking else [0] * args.mu
        chars = sample_safe_characters(args.mu, linking, args.sample, seed=args.seed)
        result = {"characters": [c.describe() for c in chars]}
        lines = [c.describe() for c in chars]
        if not chars:
            lines = ["no admissible safe characters found within the search bound"]
        return EXIT_OK, result, lines
    raise UsageError("characters needs one of --components, --root-status, --sample")


def cmd_conway(args):
    from . import conway

    path = resolve_input(args.input)
    data = conway.load_conway(path)
    if args.cross_check:
        presentation = load_presentation(resolve_input(args.cross_check))
        report = conway.cross_check(presentation, data, args.trials, seed=args.seed)
        points = [
            {
                "character": pt.omega.describe(),
                "sqrt": pt.sqrt.describe(),
                "slope": {"kind": pt.slope_kind, "value": render_value(pt.slope_value)},
                "conway": {"kind": pt.conway_kind, "value": render_value(pt.conway_value)},
                "agree": pt.agree,
            }
            for pt in report.points
        ]
        result = {
            "dataset": data.label or path,
            "points": points,
            "agreements": report.agreements,
            "disagreements": report.disagreements,
            "skipped": report.skipped,
        }
        lines = []
        for pt in points:
            tag = {True: "agree", False: "DIFFER", None: "skipped (inconclusive)"}[pt["agree"]]
            lines.append(
                f"{pt['character']} (sqrt {pt['sqrt']})  "
                f"slope={pt['slope']['kind']}:{pt['slope']['value']}  "
                f"conway={pt['conway']['kind']}:{pt['conway']['value']}  {tag}"
            )
        lines.append(
            f"agreements={report.agreements} disagreements={report.disagreements} "
            f"skipped={report.skipped}"
        )
        return EXIT_OK, result, lines
    if not args.sqrt:
        raise UsageError("conway needs explicit square roots via --sqrt")
    sqrt_char = parse_character_spec(
        args.sqrt, mu=data.mu, single="--sqrt takes a single character"
    )
    if args.char:
        omega = parse_character_spec(
            args.char, mu=data.mu, single="--char takes a single character"
        )
        _check_sqrt_consistency(omega, sqrt_char, args.tol)
    value = conway.conway_quotient(data, sqrt_char, tol=args.tol)
    result = {
        "dataset": data.label or path,
        "sqrt": sqrt_char.describe(),
        "kind": value.kind,
        "value": render_value(value.value),
        "numerator": render_value(value.numerator),
        "denominator": render_value(value.denominator),
    }
    lines = [f"dataset: {result['dataset']}", f"sqrt: {result['sqrt']}"]
    if value.kind == "finite":
        lines.append(f"{render_value(value.value)}")
    else:
        lines.append(value.kind)
    return EXIT_OK, result, lines


def _check_sqrt_consistency(omega, sqrt_char, tol):
    if omega.mu != sqrt_char.mu:
        raise UsageError("--char and --sqrt have different lengths")
    if omega.kind == "zeta" and sqrt_char.kind == "zeta":
        squared = Character.root_of_unity(
            sqrt_char.conductor, tuple(2 * k for k in sqrt_char.exponents)
        ).reduced()
        if squared != omega.reduced():
            raise UsageError("--sqrt squared does not equal --char")
        return
    wv = omega.complex_values()
    sv = sqrt_char.complex_values()
    eps = resolve_tolerance(tol)
    if any(abs(s * s - w) > eps for s, w in zip(sv, wv)):
        raise UsageError("--sqrt squared does not equal --char")


# -- parser and entry point ---------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slopelab",
        description="Exact slope, signature, and concordance-obstruction "
        "computations for colored links from C-complex Seifert data.",
    )
    parser.add_argument("--version", action="version", version=f"slopelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--tol", type=float, default=None, help="numeric zero tolerance")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="check a dataset against the invariants")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--no-transpose-check", action="store_true")
    common(p)

    p = sub.add_parser("slope", help="slope at a character (or symbolically)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--char", required=True)
    p.add_argument("--no-transpose-check", action="store_true")
    common(p)

    p = sub.add_parser("signature", help="signature and nullity at unitary characters")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--char", required=True, help="supports grids like zeta:12:*")
    p.add_argument("--tol-sig", type=float, default=1e-8)
    p.add_argument("--no-transpose-check", action="store_true")
    common(p)

    p = sub.add_parser("compare", help="concordance obstruction between two datasets")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--vs", required=True)
    p.add_argument("--budget", type=int, default=8)
    common(p)

    p = sub.add_parser("characters", help="admissible-variety utilities")
    p.add_argument("--components", action="store_true")
    p.add_argument("--lambda", dest="linking", default=None)
    p.add_argument("--root-status", default=None)
    p.add_argument("--sample", type=int, default=None, help="budget of safe characters")
    p.add_argument("--mu", type=int, default=None)
    common(p)

    p = sub.add_parser("conway", help="evaluate the Conway quotient")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--char", default=None)
    p.add_argument("--sqrt", default=None, help="explicit square roots of the character")
    p.add_argument("--cross-check", default=None, help="Seifert dataset to compare against")
    p.add_argument("--trials", type=int, default=5)
    common(p)

    return parser


HANDLERS = {
    "validate": cmd_validate,
    "slope": cmd_slope,
    "signature": cmd_signature,
    "compare": cmd_compare,
    "characters": cmd_characters,
    "conway": cmd_conway,
}


def _config(args):
    """The effective configuration, as reported in JSON provenance."""
    inputs = (getattr(args, dest, None) for dest in ("input", "vs", "cross_check"))
    return {
        "command": args.command,
        "inputs": [p for p in inputs if p],
        "char_spec": getattr(args, "char", None),
        "sqrt_spec": getattr(args, "sqrt", None),
        "linking": getattr(args, "linking", None),
        "budget": getattr(args, "budget", None),
        "trials": getattr(args, "trials", None),
        "seed": args.seed,
        "tol": args.tol,
        "tol_sig": getattr(args, "tol_sig", 1e-8),
        "no_transpose_check": getattr(args, "no_transpose_check", False),
        "output_format": args.format,
    }


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, result, lines = HANDLERS[args.command](args)
    except InvalidPresentationError as exc:
        _emit_error(args, "invalid input", exc.violations)
        return EXIT_INVALID
    except UnsupportedHypothesisError as exc:
        _emit_error(args, "unsupported hypothesis", [str(exc)])
        return EXIT_UNSUPPORTED
    except UsageError as exc:
        _emit_error(args, "invalid input", [str(exc)])
        return EXIT_INVALID
    if args.format == "json":
        payload = {
            "tool": "slopelab",
            "version": __version__,
            "command": args.command,
            "config": _config(args),
            "exit_code": code,
            "result": result,
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def _emit_error(args, kind, messages):
    if args.format == "json":
        print(
            json.dumps(
                {
                    "tool": "slopelab",
                    "version": __version__,
                    "command": args.command,
                    "error": {"kind": kind, "messages": messages},
                },
                indent=2,
            )
        )
    else:
        for m in messages:
            print(f"error: {m}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
