"""One workload in one fresh process: set up, run the timed loop, check.

run.py starts this script; it is not meant to be run by hand.  It prints
one JSON line of raw measurements on standard output:

    python3 slopebench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 slopebench/worker.py --workload W --seed N --seconds S --setup-only

The loop is closed: one caller, no threads, each query sent only after the
previous one returned.  With --trace 1 the query set runs twice, untraced
and then traced, so the tracing overhead is measured on the same inputs.
Correctness checks and the digest run after both passes, outside every
timed region.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402  (imports slopelab, and numpy with it)
from workloads import WORKLOADS, value_stats  # noqa: E402

# A pass that has not finished by then stops; its unrun queries count as
# failed.  Two passes plus set-up and checks stay under the 180 s a run may
# take.
PASS_CAP_S = 150.0
TRACED_PASS_CAP_S = 75.0

COLD_PROBE_EVERY = 2  # queries between child probes on a cold-start workload

CLI_SUBCOMMANDS = ("validate", "slope", "signature", "compare", "characters", "conway")


def run_pass(wl, cap_s, tracer=None):
    """Run the query set once, with speed probes between queries.

    Returns a dict: queries, results (the exception instance when a query
    raised), raw per-query latencies, and the same latencies and the pass's
    wall time in reference-host seconds (see speed.normalize).  The
    in-process probe runs before every query; on a workload of cold-start
    children, the child probe runs before every COLD_PROBE_EVERY-th."""
    if wl.cold_start:
        ref, every = speed.REF_CHILD_S, COLD_PROBE_EVERY

        def take_probe():
            return speed.timed_child_probe(wl.env)
    else:
        take_probe, ref, every = speed.timed_probe, speed.REF_PROBE_S, 1
    queries, results, latencies, stamps = [], [], [], []
    gc.collect()
    probes = [take_probe()]
    t_start = time.perf_counter()
    deadline = t_start + cap_s
    for i, q in enumerate(wl.iter_queries()):
        if time.perf_counter() > deadline:
            break
        if i and i % every == 0:
            probes.append(take_probe())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                r = wl.run(q)
            else:
                tracer.current_query = i
                with tracer.span("bench.query") as span:
                    r = wl.run(q)
                tracer.current_query = -1
        except Exception as exc:  # a failed query is a measurement, not a crash
            r = exc
        t1 = time.perf_counter()
        if tracer is not None and wl.name == "cli":
            _merge_child_spans(tracer, wl, i, span)
        latencies.append(t1 - t0)
        stamps.append((t0, t1))
        queries.append(q)
        results.append(r)
    wall = time.perf_counter() - t_start
    probes.append(take_probe())
    norm = speed.normalize(stamps, probes, ref)
    probe_median = statistics.median(d for _, _, d in probes)
    # time between queries (sampling on compare, span merging when tracing cli)
    gaps = wall - sum(latencies) - sum(d for _, _, d in probes[1:-1])
    return {
        "queries": queries,
        "results": results,
        "raw_latencies": latencies,
        "raw_wall_s": wall,
        "latencies": norm,
        "wall_s": sum(norm) + gaps * ref / probe_median,
        "probe_median_s": probe_median,
        "probe_ref_s": ref,
    }


def _merge_child_spans(tracer, wl, query, root):
    """Adopt the spans a traced CLI child wrote, under the query's span."""
    try:
        with open(wl.spans_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        os.remove(wl.spans_path)
    except FileNotFoundError:
        return
    tracer.add_spans(payload, query, root)
    wl.child_imports.append((payload["import_s"], payload["import_numpy_s"]))


def check_all(wl, queries, results, expected):
    """Failed query count, a few failure notes, and the digest text."""
    failed = expected - len(queries)
    notes = []
    lines = []
    for q, r in zip(queries, results):
        if isinstance(r, Exception):
            ok = False
            note = f"raised {type(r).__name__}: {r}"
            lines.append(f"error|{type(r).__name__}")
        else:
            try:
                ok = wl.check(q, r)
                note = "wrong answer"
            except Exception as exc:
                ok = False
                note = f"check raised {type(exc).__name__}: {exc}"
            lines.append(wl.render(q, r))
        if not ok:
            failed += 1
            if len(notes) < 5:
                notes.append(note)
    if expected > len(queries):
        notes.append(f"{expected - len(queries)} queries not run before the pass cap")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return failed, notes, digest


def recorded_digest(workload, seed, seconds):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        entry = json.load(fh).get(workload)
    if entry and entry["seed"] == seed and entry["seconds"] == seconds:
        return entry["sha256"]
    return None


def per_layer(tr, wl, traced, untraced_wall):
    """The per-layer metrics of BENCHMARK.json, from one traced pass."""
    results, n_queries = traced["results"], len(traced["queries"])
    s = tr.summary()
    c = tr.counters

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    gcd_calls = get("laurent.poly_gcd", "calls")
    from_op_total = get("slope.slope_from_operator", "total_s")
    solve_under_op, _ = tr.child_time("slope.slope_from_operator", "linalg.solve")
    _, direct_solves = tr.child_time("slope.certify_zero_slope", "slope.slope_at")
    terms = bits = 0
    for r in results:
        if not isinstance(r, Exception):
            t, b = value_stats(wl.witnesses(r))
            terms, bits = max(terms, t), max(bits, b)
    imports = getattr(wl, "child_imports", [])
    m = {
        "laurent.poly_gcd.calls": (gcd_calls, "count"),
        "laurent.poly_gcd.self_s": (get("laurent.poly_gcd", "self_s"), "s"),
        "laurent.poly_gcd.total_s": (get("laurent.poly_gcd", "total_s"), "s"),
        "laurent.poly_gcd.nontrivial_ratio": (
            c["laurent.poly_gcd.nontrivial"] / gcd_calls if gcd_calls else 0.0,
            "ratio",
        ),
        "laurent.mul.calls": (get("laurent.mul", "calls"), "count"),
        "laurent.mul.term_products": (c["laurent.mul.term_products"], "count"),
        "laurent.mul.self_s": (get("laurent.mul", "self_s"), "s"),
        "laurent.exact_div.calls": (get("laurent.exact_div", "calls"), "count"),
        "laurent.exact_div.self_s": (get("laurent.exact_div", "self_s"), "s"),
        "fields.ratfunc.add.calls": (get("fields.ratfunc.add", "calls"), "count"),
        "fields.ratfunc.add.total_s": (get("fields.ratfunc.add", "total_s"), "s"),
        "slope.pair_s": (from_op_total - solve_under_op, "s"),
        "fields.cyclotomic.mul.calls": (get("fields.cyclotomic.mul", "calls"), "count"),
        "fields.cyclotomic.mul.self_s": (get("fields.cyclotomic.mul", "self_s"), "s"),
        "fields.cyclotomic.mul.coeff_ops": (c["fields.cyclotomic.mul.coeff_ops"], "count"),
        "fields.cyclotomic.invert.calls": (get("fields.cyclotomic.invert", "calls"), "count"),
        "fields.cyclotomic.invert.self_s": (get("fields.cyclotomic.invert", "self_s"), "s"),
        "linalg.solve.calls": (get("linalg.solve", "calls"), "count"),
        "linalg.solve.total_s": (get("linalg.solve", "total_s"), "s"),
        "linalg.solve.self_s": (get("linalg.solve", "self_s"), "s"),
        "linalg.rank.total_s": (get("linalg.rank", "total_s"), "s"),
        "linalg.hermitian_signature.total_s": (get("linalg.hermitian_signature", "total_s"), "s"),
        "seifert.build_E.calls": (get("seifert.build_E", "calls"), "count"),
        "seifert.build_E.total_s": (get("seifert.build_E", "total_s"), "s"),
        "seifert.validate.calls_per_query": (
            get("seifert.validate", "calls") / n_queries if n_queries else 0.0,
            "count",
        ),
        "slope.certify.direct_solves": (direct_solves, "count"),
        "slope.witness.max_terms": (terms, "count"),
        "slope.witness.max_coeff_bits": (bits, "bits"),
        "characters.sample_safe_characters.total_s": (
            get("characters.sample_safe_characters", "total_s"),
            "s",
        ),
        "characters.phi_sum": (c["characters.phi_sum"], "count"),
        "conway.cross_check.total_s": (get("conway.cross_check", "total_s"), "s"),
        "cli.import_s": (statistics.median(i for i, _ in imports) if imports else 0.0, "s"),
        "cli.import_numpy_s": (
            statistics.median(n for _, n in imports) if imports else 0.0,
            "s",
        ),
        "cli.main.total_s": (sum(get(f"cli.main.{sub}", "total_s") for sub in CLI_SUBCOMMANDS), "s"),
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main.{sub}.total_s"] = (get(f"cli.main.{sub}", "total_s"), "s")
    # span times are raw wall-clock; bring them to reference-host seconds
    scale = traced["probe_ref_s"] / traced["probe_median_s"]
    m = {k: (v * scale if unit == "s" else v, unit) for k, (v, unit) in m.items()}
    m["trace.overhead_ratio"] = (traced["wall_s"] / untraced_wall, "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description="one benchmark workload (started by run.py)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload]()
        wl.setup(random.Random(args.seed), args.seconds, workdir)
        t_ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"t_ready": t_ready}))
            return 0
        cap = TRACED_PASS_CAP_S if args.trace else PASS_CAP_S
        plain = run_pass(wl, cap)
        out = {k: plain[k] for k in ("wall_s", "latencies", "raw_wall_s", "raw_latencies",
                                     "probe_median_s", "probe_ref_s")}
        out["t_ready"] = t_ready
        # on cli, the largest of the CLI children's own peaks (not the probes')
        if wl.cold_start:
            peak_kib = wl.peak_rss_kib
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mib"] = peak_kib / 1024.0
        if args.trace:
            tr = tracing.Tracer()
            if wl.name == "cli":
                wl.spans_path = os.path.join(workdir, "child-spans.json")
                wl.child_imports = []
                wl.command = [sys.executable, os.path.join(HERE, "cli_child.py"), wl.spans_path]
            else:
                tr.install()
            try:
                traced = run_pass(wl, cap, tr)
            finally:
                tr.uninstall()
            out["per_layer"] = per_layer(tr, wl, traced, plain["wall_s"])
            out["traced_queries"] = len(traced["queries"])
            out["spans"] = len(tr.start)
            spans_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(spans_dir, exist_ok=True)
            out["spans_file"] = os.path.join(
                spans_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            )
            tr.write(out["spans_file"])
        queries = plain["queries"]
        failed, notes, digest = check_all(wl, queries, plain["results"], wl.expected)
        out.update(
            attempted=max(wl.expected, len(queries)),
            failed=failed,
            notes=notes,
            digest=digest,
            recorded_digest=recorded_digest(args.workload, args.seed, args.seconds),
        )
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
