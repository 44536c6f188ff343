"""slopelab benchmark: one workload, one seed, one run.

    python3 slopebench/run.py --workload {symbolic,compare,certify,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
The workload runs in a fresh worker process (worker.py) with a closed loop.
Before the run, set-up alone is repeated in further fresh processes and
setup_s is the median.

Times are reported in reference-host seconds.  The host's speed drifts
(identical runs have differed by half their time within minutes), so a
fixed speed probe (speed.py) runs between queries and every timed interval
is scaled by the probe's reference time over its local reading.  Cold
starts (a set-up process, a CLI child) are scaled by a child probe, a
fixed cold start run just before and just after them; in-process queries
by the in-process probe.  The raw wall-clock figures and the probe
readings before, during and after the run are printed beside the
metrics.

The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics.  Exit status 0
means the run completed (``correct`` says whether every answer was right);
any other status means the run itself could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# names only: this process never imports slopelab, so that it can refuse
# to run where the sources are missing
WORKLOADS = ("symbolic", "compare", "certify", "cli")

SETUP_PROBES = 3  # set-up-only worker processes whose median is setup_s
RUN_TIMEOUT_S = 170


def speed_probe():
    """Median of five speed probes, in seconds."""
    return statistics.median(speed.probe() for _ in range(5))


def spawn(args, timeout):
    """Run the worker; returns (spawn time, decoded last stdout line)."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """Inclusive linear-interpolation quantile of a sample."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "slopelab", "__init__.py")):
        sys.stderr.write(f"no slopelab sources under {ROOT}/src; run from a checkout\n")
        return 2

    t_begin = time.monotonic()
    probe_before = speed_probe()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups, raw_setups = [], []
    if not args.trace:
        probes = [speed.timed_child_probe()]
        for _ in range(SETUP_PROBES):
            t_spawn, out = spawn([*common, "--setup-only"], 60)
            raw_setups.append(out["t_ready"] - t_spawn)
            probes.append(speed.timed_child_probe())
        # each set-up time scaled by the child probes just before and after it
        setups = [raw * speed.REF_CHILD_S / ((a[2] + b[2]) / 2)
                  for raw, a, b in zip(raw_setups, probes, probes[1:])]
    remaining = RUN_TIMEOUT_S - (time.monotonic() - t_begin)
    _, out = spawn([*common, "--trace", str(args.trace)], remaining)
    probe_after = speed_probe()

    lat = out["latencies"]
    p50, p90 = quantile(lat, 0.5), quantile(lat, 0.9)
    digest_ok = out["recorded_digest"] in (None, out["digest"])
    correct = out["failed"] == 0 and digest_ok
    print(f"slopebench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"speed probe: before {probe_before:.5f} s, after {probe_after:.5f} s "
          f"(reference {speed.REF_PROBE_S} s); during the run, the "
          f"{'child' if out['probe_ref_s'] == speed.REF_CHILD_S else 'in-process'} probe's "
          f"median {out['probe_median_s']:.5f} s (reference {out['probe_ref_s']} s)")
    if setups:
        print(f"child probe around set-up: median {statistics.median(p[2] for p in probes):.5f} s "
              f"(reference {speed.REF_CHILD_S} s)")
    if args.trace:
        metrics = out["per_layer"]
        print(f"traced pass: {out['traced_queries']} queries, {out['spans']} spans "
              f"written to {os.path.relpath(out['spans_file'], ROOT)}")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (out["wall_s"], "s"),
            "query_s.p50": (p50, "s"),
            "query_s.p90": (p90, "s"),
            "peak_rss_mib": (out["peak_rss_mib"], "MiB"),
        }
    for name, (value, unit) in metrics.items():
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<44} {shown} {unit}")
    raw = out["raw_latencies"]
    print(f"  raw (not normalized): wall_s {out['raw_wall_s']:.6g}, "
          f"query_s.p50 {quantile(raw, 0.5):.6g}, query_s.p90 {quantile(raw, 0.9):.6g}"
          + (f", setup_s {statistics.median(raw_setups):.6g}" if raw_setups else ""))
    print(f"  {'failed_ratio':<44} {out['failed'] / out['attempted']:>14.6g} "
          f"({out['failed']} of {out['attempted']} queries)")
    print(f"  samples: {len(lat)} timed queries, {sum(x > p90 for x in lat)} beyond p90; "
          f"setup samples: {len(setups)}")
    recorded = out["recorded_digest"]
    print(f"  digest {out['digest']}"
          + ("" if recorded is None else (" matches the record" if digest_ok else " DIFFERS from the record")))
    for note in out["notes"]:
        print(f"  failure: {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        sys.exit(1)
