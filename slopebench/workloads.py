"""The four workloads: their inputs, one query each, and its correctness check.

A workload object is built in the worker process after ``import slopelab``.
``setup`` generates the inputs from the seed (and writes datasets where the
workload reads files); ``run`` executes one query and returns its result;
``check`` decides, outside every timed region, whether a result is right;
``render`` gives the canonical text that goes into the run's digest.

Every library call goes through a module attribute (``slope.slope_at``,
not a name imported here), so the tracer's patches see the calls.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile

import gen
import slopelab.characters as characters
import slopelab.fields as fields
import slopelab.seifert as seifert
import slopelab.slope as slope

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Small prime-power characters at which a symbolic slope is spot-checked.
SPOT_CONDUCTORS = (5, 7, 8, 9, 11, 13, 16, 17)


def _scaled(seconds, per_second, block=1):
    """Query count for a run: ``per_second`` per second of ``seconds``, a
    whole number of blocks so that every run has the same mix, and never
    fewer than 100 so that at least ten samples lie beyond the 90th
    percentile."""
    blocks = max(-(-100 // block), round(per_second * seconds / block))
    return blocks * block


def value_stats(values):
    """(terms, max coefficient bits) of exact field values."""
    terms = 0
    bits = 0
    for v in values:
        if isinstance(v, fields.RatFunc):
            coeffs = list(v.num.terms.values()) + list(v.den.terms.values())
        elif isinstance(v, fields.CyclotomicNumber):
            coeffs = [c for c in v.coords if c]
        else:
            continue
        terms = max(terms, len(coeffs))
        for c in coeffs:
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return terms, bits


def _render_slope(sv):
    parts = [sv.kind]
    if sv.value is not None:
        parts.append(sv.value.render())
    if sv.witness is not None:
        parts.append(",".join(x.render() for x in sv.witness))
    if sv.valid_away_from is not None:
        parts.append(sv.valid_away_from.render())
    return "|".join(parts)


class Symbolic:
    """slope_symbolic on generated presentations.

    Per block of ten queries: five mu=1 (n = 4, 5, 5, 5, 6) and two mu=2
    n=2 with kappa fully supported, one mu=2 n=3 and two mu=3 n=2 with one
    nonzero kappa entry.  Each shape's cost varies little with the entries,
    and the fixed mix puts query_s.p50 inside the mu=1 n=5 queries and
    query_s.p90 inside the mu=3 ones, the slowest class.  Shapes whose cost
    runs to seconds and varies tenfold with the entries (mu=3 with two
    nonzero kappa entries, mu=2 n=3 with full kappa) are left out: a few of
    them would decide a run's wall time.
    """

    name = "symbolic"
    cold_start = False
    BLOCK = [(1, 4, None), (1, 5, None), (1, 5, None), (1, 5, None), (1, 6, None),
             (2, 2, None), (2, 2, None), (2, 3, 1), (3, 2, 1), (3, 2, 1)]

    def setup(self, rng, seconds, workdir):
        count = _scaled(seconds, 10.0, len(self.BLOCK))
        shapes = self.BLOCK * (count // len(self.BLOCK))
        rng.shuffle(shapes)
        self.queries = []
        for mu, n, support in shapes:
            data = gen.presentation_dict(rng, mu, n, kappa_support=support)
            self.queries.append(seifert.presentation_from_dict(data))
        self.expected = len(self.queries)

    def iter_queries(self):
        return iter(self.queries)

    def run(self, p):
        return slope.slope_symbolic(p)

    def check(self, p, sv):
        """The symbolic answer, specialized at a small prime-power character
        off the certificate's zero locus, equals the pointwise slope."""
        for omega in _spot_characters(p.mu):
            ctx = fields.Cyclotomic(omega.conductor)
            point = characters.embed_character(omega, ctx)
            if ctx.is_zero(sv.valid_away_from.evaluate(point, ctx.zero)):
                continue
            if sv.value is not None and ctx.is_zero(sv.value.den.evaluate(point, ctx.zero)):
                continue
            pointwise = slope.slope_at(p, omega)
            if pointwise.kind != sv.kind:
                return False
            if sv.kind != slope.FINITE:
                return True
            return sv.value.evaluate(point, ctx.zero) == pointwise.value
        return False

    def render(self, p, sv):
        return _render_slope(sv)

    def witnesses(self, sv):
        return sv.witness or ()


def _spot_characters(mu):
    for conductor in SPOT_CONDUCTORS:
        for shift in range(1, conductor):
            exps = tuple((shift + 2 * i) % conductor or 1 for i in range(mu))
            yield characters.Character.root_of_unity(conductor, exps)


class Compare:
    """The comparator loop of ``slopelab compare``: sample safe characters
    with the library's default conductor bound and evaluate slope_at on a
    presentation and on a slope-preserving disguise of it.  One query is
    one character on both sides.  A budget of 14 characters reaches
    conductors 23 and 25, so phi(N)^2 shows without one character deciding
    the run."""

    name = "compare"
    cold_start = False
    BUDGET = 14
    # (mu, n, disguise) per pair, cycled
    PAIRS = [
        (1, 3, "basis"),
        (1, 4, "basis+stabilize"),
        (2, 3, "basis"),
        (1, 3, "stabilize"),
        (2, 3, "basis+stabilize"),
    ]

    def setup(self, rng, seconds, workdir):
        count = _scaled(seconds, 23.5, self.BUDGET * len(self.PAIRS)) // self.BUDGET
        self.pairs = []
        for k in range(count):
            mu, n, disguise = self.PAIRS[k % len(self.PAIRS)]
            first = seifert.presentation_from_dict(gen.presentation_dict(rng, mu, n))
            second = first
            if "basis" in disguise:
                second = seifert.change_basis(second, gen.unimodular(rng, n))
            if "stabilize" in disguise:
                second = seifert.stabilize(second)
            self.pairs.append((first, second, rng.randrange(1 << 30)))
        self.expected = len(self.pairs) * self.BUDGET

    def iter_queries(self):
        """Sampling runs here, inside the run's wall time but outside the
        latency of any one query."""
        for first, second, seed in self.pairs:
            for omega in characters.sample_safe_characters(
                first.mu, first.linking, self.BUDGET, seed=seed
            ):
                yield first, second, omega

    def run(self, query):
        first, second, omega = query
        return slope.slope_at(first, omega), slope.slope_at(second, omega)

    def check(self, query, result):
        a, b = result
        if a.kind != b.kind:
            return False
        return a.kind != slope.FINITE or a.value == b.value

    def render(self, query, result):
        a, b = result
        return f"{query[2].describe()}|{_render_slope(a)}|{_render_slope(b)}"

    def witnesses(self, result):
        return tuple(w for sv in result for w in (sv.witness or ()))


class Certify:
    """certify_zero_slope on kappa-zero presentations (true by construction).

    Per block of ten: eight mu=1 (n = 3, 3, 4, 4, 4, 4, 5, 6; battery
    conductors up to 9) and two mu=2 n=2, whose 36 battery characters reach
    composite conductors up to lcm(8, 9) = 72.  The fixed mix puts
    query_s.p50 inside the mu=1 n=4 queries and query_s.p90 inside the
    mu=2 ones."""

    name = "certify"
    cold_start = False
    BLOCK = [(1, 3), (1, 3), (1, 4), (1, 4), (1, 4), (1, 4), (1, 5), (1, 6), (2, 2), (2, 2)]

    def setup(self, rng, seconds, workdir):
        count = _scaled(seconds, 8.0, len(self.BLOCK))
        shapes = self.BLOCK * (count // len(self.BLOCK))
        rng.shuffle(shapes)
        self.queries = []
        for mu, n in shapes:
            data = gen.presentation_dict(rng, mu, n, kappa_zero=True)
            self.queries.append(seifert.presentation_from_dict(data))
        self.expected = len(self.queries)

    def iter_queries(self):
        return iter(self.queries)

    def run(self, p):
        return slope.certify_zero_slope(p)

    def check(self, p, result):
        return result is True

    def render(self, p, result):
        return str(result)

    def witnesses(self, result):
        return ()


# -- cli ----------------------------------------------------------------------

# README commands on the bundled datasets: (argv, expected exit code, text
# that the output must contain).  Exit codes: 0 success or no obstruction,
# 1 obstruction found, 2 invalid input, 3 unsupported hypothesis.
README_COMMANDS = [
    (["validate", "--in", "whitehead.json"], 0, "ok"),
    (["slope", "--in", "whitehead.json", "--char", "symbolic"], 0, "value: -w1^-1 + 2 - w1"),
    (["slope", "--in", "whitehead.json", "--char", "zeta:2:1"], 0, "value: 4"),
    (["signature", "--in", "trefoil.json", "--char", "zeta:12:*"], 0, "zeta:12:11"),
    (["compare", "--in", "whitehead.json", "--vs", "kappa_zero.json"], 1, "OBSTRUCTED"),
    (["characters", "--components", "--lambda", "4,-2"], 0, "d=2:"),
    (["characters", "--root-status", "zeta:6:1"], 0, "(verified: True)"),
    (["characters", "--sample", "3", "--mu", "1"], 0, "zeta:2:1"),
    (
        ["conway", "--in", "l10n36_conway.json", "--char", "zeta:5:1", "--sqrt", "zeta:10:1"],
        0,
        "sqrt: zeta:10:1",
    ),
    (
        ["conway", "--in", "l10n36_conway.json", "--cross-check", "whitehead.json", "--trials", "5"],
        0,
        "agreements=",
    ),
]


class Cli:
    """Cold-start ``python -m slopelab`` subprocesses, one at a time: every
    README command on the bundled datasets plus commands on datasets the
    set-up writes (a generated presentation, a disguise of it, one with
    broken transpose symmetry and one with nonzero linking).  The
    arithmetic is trivial; import, argparse, load, validate, render and
    JSON are the cost."""

    name = "cli"
    cold_start = True
    GROUPS = 4
    CHILD_TIMEOUT_S = 60

    def setup(self, rng, seconds, workdir):
        self.workdir = workdir
        generated = []
        for g in range(self.GROUPS):
            base = gen.presentation_dict(rng, 1, 3)
            p = seifert.presentation_from_dict(base)
            disguised = seifert.stabilize(seifert.change_basis(p, gen.unimodular(rng, 3)))
            # theta^- must be the transpose of theta^+; bumping one diagonal
            # entry breaks that whatever theta^+ is
            plus = base["theta"]["+"]
            bumped = [[x + (i == j == 0) for j, x in enumerate(row)] for i, row in enumerate(plus)]
            broken = dict(base, theta={"+": plus, "-": bumped})
            linked = dict(base, **{"lambda": [2]})
            names = {k: f"g{g}_{k}.json" for k in ("base", "disguised", "broken", "linked")}
            _write_json(os.path.join(workdir, names["base"]), base)
            seifert.save_presentation(disguised, os.path.join(workdir, names["disguised"]))
            _write_json(os.path.join(workdir, names["broken"]), broken)
            _write_json(os.path.join(workdir, names["linked"]), linked)
            generated.append((p, names))
        kinds = [("readme", i) for i in range(len(README_COMMANDS))]
        kinds += [(kind, None) for kind in ("validate", "symbolic", "signature", "compare",
                                            "broken", "linked")]
        self.queries = []
        for _ in range(_scaled(seconds, 6.0, len(kinds)) // len(kinds)):
            cycle = list(kinds)
            rng.shuffle(cycle)
            for kind, index in cycle:
                p, names = generated[rng.randrange(self.GROUPS)]
                self.queries.append(_cli_query(kind, index, p, names))
        self.expected = len(self.queries)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.command = [sys.executable, "-m", "slopelab"]
        self.peak_rss_kib = 0
        signal.signal(signal.SIGALRM, _child_timeout)

    def iter_queries(self):
        return iter(self.queries)

    def run(self, query):
        """(exit code, stdout) of one child.  The child is reaped with
        wait4 so that its own peak RSS is read, apart from the probes'."""
        with tempfile.TemporaryFile(dir=self.workdir) as out:
            proc = subprocess.Popen(self.command + query["argv"], cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=subprocess.DEVNULL)
            signal.alarm(self.CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            out.seek(0)
            return proc.returncode, out.read().decode()

    def check(self, query, result):
        code, out = result
        if code != query["exit"]:
            return False
        expect = query["expect"]
        if callable(expect):
            return expect(json.loads(out))
        return expect in out

    def render(self, query, result):
        code, out = result
        return f"{' '.join(query['argv'])}|{code}|{out}"

    def witnesses(self, result):
        return ()


def _child_timeout(signum, frame):
    raise TimeoutError("CLI child still running after its timeout")


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _cli_query(kind, index, p, names):
    """argv, expected exit code and an expectation on the output.  Expected
    values of generated datasets come from the library in this process,
    computed only when the check runs."""
    if kind == "readme":
        argv, code, text = README_COMMANDS[index]
        return {"argv": argv, "exit": code, "expect": text}
    base = names["base"]
    if kind == "validate":
        return {"argv": ["validate", "--in", base, "--format", "json"], "exit": 0,
                "expect": lambda out: out["result"]["ok"] is True}
    if kind == "symbolic":
        return {"argv": ["slope", "--in", base, "--char", "symbolic", "--format", "json"],
                "exit": 0,
                "expect": lambda out: out["result"]["slope"]["value"]
                == _render_or_none(slope.slope_symbolic(p).value)}
    if kind == "signature":
        def expect(out):
            rows = out["result"]["rows"]
            if len(rows) != 6:
                return False
            for k, row in enumerate(rows, start=1):
                sig = slope.signature_nullity(p, characters.Character.root_of_unity(7, (k,)))
                if (row["sigma"], row["eta"]) != (sig.sigma, sig.eta):
                    return False
            return True

        return {"argv": ["signature", "--in", base, "--char", "zeta:7:*", "--format", "json"],
                "exit": 0, "expect": expect}
    if kind == "compare":
        return {"argv": ["compare", "--in", base, "--vs", names["disguised"], "--budget", "6"],
                "exit": 0, "expect": "NO OBSTRUCTION FOUND"}
    if kind == "broken":
        return {"argv": ["validate", "--in", names["broken"]], "exit": 2, "expect": "transpose"}
    if kind == "linked":
        return {"argv": ["slope", "--in", names["linked"], "--char", "zeta:3:1"], "exit": 3,
                "expect": ""}
    raise ValueError(kind)


def _render_or_none(value):
    return None if value is None else value.render()


WORKLOADS = {w.name: w for w in (Symbolic, Compare, Certify, Cli)}

