"""Fixed speed probes: one in-process, one a cold start.

The host's speed drifts: identical runs of one seed have differed by half
their time within minutes, and CPU time drifts with wall time.  The
in-process probe repeats the library's innermost kind of work, a sparse
polynomial product with tuple exponents and Fraction coefficients, written
here with the standard library only so that no change to slopelab changes
the probe.

A cold start does not track that probe: the time of a fresh interpreter
that imports numpy moves with the host's process start-up and page-mapping
costs, which the in-process probe does not see (on one 112-child run, a
CLI child's time correlated 0.86 with the next child probe and 0.12 with
the in-process probe).  The child probe is this file run as a script: a
fresh interpreter imports numpy and the standard modules a CLI uses, runs
the in-process probe once and exits.  It imports nothing of slopelab.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

_A = {(i, j): Fraction(i - j, i + j + 1) for i in range(6) for j in range(5)}
_B = {(i, -j): Fraction(j + 1, i + 2) for i in range(5) for j in range(4)}


def probe(repeats=3):
    """Seconds taken by a fixed piece of work (about 5 ms on a fast host)."""
    t0 = perf_counter()
    for _ in range(repeats):
        out = {}
        for e1, c1 in _A.items():
            for e2, c2 in _B.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
    return perf_counter() - t0


# The probe's time on a fast 2-vCPU host with CPython 3.11 (its fast state).
REF_PROBE_S = 0.0065


# The child probe's wall time on the same host in the same state.
REF_CHILD_S = 0.13


def timed_probe():
    """(start, end, seconds) of one probe."""
    t0 = perf_counter()
    d = probe()
    return t0, perf_counter(), d


def timed_child_probe(env=None):
    """(start, end, seconds) of one child probe, started with ``env``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, __file__], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    t1 = perf_counter()
    return t0, t1, t1 - t0


def normalize(stamps, probes, ref=REF_PROBE_S):
    """Times in reference-host seconds.

    Each interval (t0, t1) is scaled by ``ref`` (the probe's reference
    time) over the mean of the last probe that ended before t0 and the
    first that started after t1, so a stretch run while the host was slow
    counts as it would have on the reference host.  ``probes`` are
    timed_probe() or timed_child_probe() results in time order; the first
    precedes every interval and the last follows them.
    """
    out = []
    k = 0
    for t0, t1 in stamps:
        while k + 1 < len(probes) and probes[k + 1][1] <= t0:
            k += 1
        j = k + 1
        while probes[j][0] < t1:
            j += 1
        local = (probes[k][2] + probes[j][2]) / 2
        out.append((t1 - t0) * ref / local)
    return out


if __name__ == "__main__":
    # the child probe (see the module docstring)
    import argparse  # noqa: F401
    import json  # noqa: F401

    import numpy  # noqa: F401

    probe()
