"""Obstruction sweep over disguised transforms of a random presentation.

Generates a random presentation, disguises it by unimodular basis changes
and stabilizations (slope-preserving moves), corrupts one copy, and runs
the safe-character comparator against each variant.
"""

import argparse
import random

from slopelab.seifert import (
    change_basis,
    random_presentation,
    random_unimodular,
    stabilize,
)
from slopelab.slope import compare_slopes


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mu", type=int, default=1)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--budget", type=int, default=8)
    args = parser.parse_args()
    if args.budget <= 0:
        parser.error(f"--budget must be a positive integer, got {args.budget}")

    rng = random.Random(args.seed)
    base = random_presentation(rng, mu=args.mu, n=args.n)
    variants = {
        "basis change": change_basis(base, random_unimodular(rng, args.n)),
        "stabilization": stabilize(base),
        "double stabilization": stabilize(stabilize(base)),
        "corrupted kappa": base.replace(kappa=(base.kappa[0] + 1,) + base.kappa[1:]),
    }

    print(f"base presentation: mu={base.mu}, n={base.n}, kappa={list(base.kappa)}")
    for name, variant in variants.items():
        witness = compare_slopes(base, variant, args.budget, args.seed).witness
        verdict = f"OBSTRUCTED at {witness.describe()}" if witness else "no obstruction found"
        print(f"{name:>22}: {verdict}")


if __name__ == "__main__":
    main()
