"""Seeded input generator for the benchmark.

It is kept apart from the test suite's helpers on purpose: an edit to the
tests must never change what the benchmark measures.  Everything here is a
pure function of a ``random.Random`` instance.
"""

from __future__ import annotations


def sign_vectors(mu):
    """Sign strings with last sign '+': the half of theta a dataset gives."""
    out = [""]
    for _ in range(mu - 1):
        out = [s + c for s in out for c in "+-"]
    return [s + "+" for s in out]


def presentation_dict(rng, mu, n, bound=2, kappa_zero=False, kappa_support=None):
    """A dataset dict in the JSON format the library loads.

    ``kappa_support`` caps how many entries of kappa are nonzero; the
    pairing cost of the symbolic slope grows with it.
    """
    theta = {
        s: [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        for s in sign_vectors(mu)
    }
    kappa = [0] * n
    if not kappa_zero:
        support = n if kappa_support is None else min(kappa_support, n)
        for i in rng.sample(range(n), support):
            kappa[i] = rng.choice([k for k in range(-bound, bound + 1) if k])
    return {
        "mu": mu,
        "n": n,
        "theta": theta,
        "kappa": kappa,
        "b0": 1,
        "lambda": [0] * mu,
        "label": f"bench mu={mu} n={n}",
    }


def unimodular(rng, n, steps=6):
    """Product of elementary integer row operations, so det is +-1."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            f = rng.choice((-2, -1, 1, 2))
            u[i] = [a + f * b for a, b in zip(u[i], u[j])]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        elif kind == 2:
            u[i] = [-x for x in u[i]]
    return u
