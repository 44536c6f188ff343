"""Characters on the torus and admissible-variety utilities.

A character assigns a nonzero complex number to each color.  Three kinds
are supported: the symbolic one (coordinates are the field generators
w1..wmu), torsion characters given by a conductor N and exponent vector k
(coordinate i is zeta_N^(k_i)), and numeric complex vectors.

The admissible variety for a linking vector lambda is {w : w^lambda = 1};
for lambda = n*lambda' with lambda' primitive it splits over Q into one
component per divisor d of n, cut out by Phi_d(w^lambda').

Torsion characters are classified as concordance roots or not.  A
character w is a concordance root when some integral Laurent polynomial p
with p(1,...,1) = +-1 vanishes on it.  For w of exact order M:

* if M has at least two distinct prime factors, Phi_M(1) = 1, so
  p = Phi_M(monomial) with monomial(w) a primitive M-th root of unity is
  such a polynomial and w is a root;
* if M = q^k is a prime power, substituting a common root-of-unity
  parametrization turns any integral p vanishing on w into a univariate
  Laurent polynomial divisible by Phi_M, hence p(1,...,1) is divisible by
  Phi_M(1) = q and can never be a unit, so w is not a root.

The classification of characters of infinite order is out of reach here
and reported as unknown.
"""

from __future__ import annotations

import cmath
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd

from .errors import ContextMismatchError, UsageError
from .fields import (
    ApproxComplex,
    Cyclotomic,
    RationalFunctionField,
    default_tolerance,
)
from .laurent import (
    LaurentPoly,
    cyclotomic_minimal_poly,
    divisors,
    is_prime_power,
)

SYMBOLIC = "symbolic"
ROOT_OF_UNITY = "zeta"
NUMERIC = "numeric"


@dataclass(frozen=True)
class Character:
    """A character on the mu-dimensional torus."""

    kind: str
    mu: int
    conductor: int | None = None
    exponents: tuple | None = None
    values: tuple | None = None

    @staticmethod
    def symbolic(mu):
        if mu < 1:
            raise UsageError("mu must be at least 1")
        return Character(SYMBOLIC, mu)

    @staticmethod
    def root_of_unity(conductor, exponents):
        conductor = int(conductor)
        if conductor < 1:
            raise UsageError("conductor must be a positive integer")
        exponents = tuple(int(k) % conductor for k in exponents)
        if not exponents:
            raise UsageError("a character needs at least one coordinate")
        return Character(ROOT_OF_UNITY, len(exponents), conductor, exponents)

    @staticmethod
    def numeric(values):
        values = tuple(complex(v) for v in values)
        if not values:
            raise UsageError("a character needs at least one coordinate")
        if any(v == 0 for v in values):
            raise UsageError("character coordinates must be nonzero")
        if not all(cmath.isfinite(v) for v in values):
            raise UsageError("character coordinates must be finite")
        return Character(NUMERIC, len(values), values=values)

    # -- predicates ---------------------------------------------------------

    def is_nonvanishing(self, tol=None):
        """True when no coordinate equals 1."""
        if self.kind == SYMBOLIC:
            return True
        if self.kind == ROOT_OF_UNITY:
            return all(k != 0 for k in self.exponents)
        tol = default_tolerance() if tol is None else tol
        return all(abs(v - 1) > tol for v in self.values)

    def is_unitary(self, tol=None):
        if self.kind == ROOT_OF_UNITY:
            return True
        if self.kind == NUMERIC:
            tol = default_tolerance() if tol is None else tol
            return all(abs(abs(v) - 1) <= tol for v in self.values)
        return False

    # -- companions ---------------------------------------------------------

    def inverse(self):
        if self.kind == ROOT_OF_UNITY:
            return Character.root_of_unity(
                self.conductor, tuple((-k) % self.conductor for k in self.exponents)
            )
        if self.kind == NUMERIC:
            return Character.numeric(tuple(1 / v for v in self.values))
        raise UsageError("the symbolic character has no pointwise inverse")

    def conjugate(self):
        if self.kind == ROOT_OF_UNITY:
            return self.inverse()
        if self.kind == NUMERIC:
            return Character.numeric(tuple(v.conjugate() for v in self.values))
        raise UsageError("the symbolic character has no pointwise conjugate")

    def exact_order(self):
        """Order of a torsion character as an element of the torus."""
        if self.kind != ROOT_OF_UNITY:
            raise UsageError("exact_order only applies to root-of-unity characters")
        return self.reduced().conductor

    def reduced(self):
        """The same torsion character at its minimal conductor."""
        if self.kind != ROOT_OF_UNITY:
            return self
        g = self.conductor
        for k in self.exponents:
            g = _int_gcd(g, k)
        return Character.root_of_unity(
            self.conductor // g, tuple(k // g for k in self.exponents)
        )

    def complex_values(self):
        if self.kind == ROOT_OF_UNITY:
            return tuple(
                cmath.exp(2j * cmath.pi * k / self.conductor) for k in self.exponents
            )
        if self.kind == NUMERIC:
            return self.values
        raise UsageError("the symbolic character has no complex values")

    def describe(self):
        if self.kind == SYMBOLIC:
            return "symbolic"
        if self.kind == ROOT_OF_UNITY:
            return f"zeta:{self.conductor}:" + ",".join(str(k) for k in self.exponents)
        return "num:" + ",".join(
            f"{v.real:.12g}{'+' if v.imag >= 0 else '-'}{abs(v.imag):.12g}i"
            for v in self.values
        )


def embed_character(omega, ctx):
    """Coordinates of a character as scalars of the given field context."""
    if omega.kind == SYMBOLIC:
        if not isinstance(ctx, RationalFunctionField) or ctx.num_vars != omega.mu:
            raise ContextMismatchError(
                "the symbolic character needs the rational function field in mu variables"
            )
        return ctx.variables()
    if omega.kind == ROOT_OF_UNITY:
        if isinstance(ctx, Cyclotomic):
            if ctx.conductor % omega.conductor:
                raise ContextMismatchError(
                    f"conductor {omega.conductor} does not embed in Q(zeta_{ctx.conductor})"
                )
            m = ctx.conductor // omega.conductor
            return [ctx.zeta(k * m) for k in omega.exponents]
        if isinstance(ctx, ApproxComplex):
            return list(omega.complex_values())
        raise ContextMismatchError(f"cannot embed a torsion character into {ctx!r}")
    if omega.kind == NUMERIC:
        if isinstance(ctx, ApproxComplex):
            return list(omega.values)
        raise ContextMismatchError("numeric characters only embed into ApproxComplex")
    raise UsageError(f"unknown character kind {omega.kind!r}")


def default_context_for(omega):
    if omega.kind == SYMBOLIC:
        return RationalFunctionField(omega.mu)
    if omega.kind == ROOT_OF_UNITY:
        return Cyclotomic(omega.conductor)
    return ApproxComplex()


# -- admissible variety ---------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleComponent:
    """A rational irreducible component of the admissible variety.

    For linking vector lambda = n*lambda' (lambda' primitive, first
    nonzero entry positive) the component with label d | n is cut out by
    Phi_d(w^lambda').  The label d = 0 stands for the whole torus when
    lambda = 0.
    """

    d: int
    defining_poly: LaurentPoly
    lambda_prime: tuple
    multiplicity: int


def is_admissible(omega, linking):
    """True iff prod_i omega_i^(lambda_i) = 1."""
    linking = tuple(int(x) for x in linking)
    if len(linking) != omega.mu:
        raise UsageError("linking vector length does not match the character")
    if all(x == 0 for x in linking):
        return True
    if omega.kind == SYMBOLIC:
        return False
    if omega.kind == ROOT_OF_UNITY:
        return sum(l * k for l, k in zip(linking, omega.exponents)) % omega.conductor == 0
    prod = 1 + 0j
    for v, l in zip(omega.values, linking):
        prod *= v ** l
    return abs(prod - 1) <= default_tolerance()


def components(linking):
    """The rational irreducible components of the admissible variety."""
    linking = tuple(int(x) for x in linking)
    mu = len(linking)
    if mu == 0:
        raise UsageError("linking vector must have at least one entry")
    if all(x == 0 for x in linking):
        return [AdmissibleComponent(0, LaurentPoly.zero(mu), (0,) * mu, 0)]
    g = 0
    for x in linking:
        g = _int_gcd(g, abs(x))
    first = next(x for x in linking if x)
    n = g if first > 0 else -g
    lam_prime = tuple(x // n for x in linking)
    out = []
    for d in divisors(abs(n)):
        monomial = LaurentPoly.monomial(mu, lam_prime)
        defining = cyclotomic_minimal_poly(d).evaluate([monomial], zero=LaurentPoly.zero(mu))
        out.append(AdmissibleComponent(d, defining, lam_prime, n))
    return out


# -- concordance roots ----------------------------------------------------------


ROOT = "root"
NOT_ROOT = "not_root"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class RootStatus:
    status: str
    order: int | None = None
    witness: LaurentPoly | None = None
    detail: str = ""


def concordance_root_status(omega):
    """Classify a character as a concordance root, a non-root, or unknown.

    Torsion characters are decided by their exact order M: composite M
    with two distinct prime factors gives a verifiable witness polynomial
    Phi_M(monomial); prime-power M can never be killed by a polynomial
    that is a unit at (1,...,1).  Non-torsion characters are unknown.
    """
    if omega.kind != ROOT_OF_UNITY:
        return RootStatus(UNKNOWN, detail="not a torsion character")
    reduced = omega.reduced()
    order = reduced.conductor
    if order == 1:
        return RootStatus(UNKNOWN, order=1, detail="trivial (vanishing) character")
    if is_prime_power(order):
        return RootStatus(
            NOT_ROOT,
            order=order,
            detail=f"order {order} is a prime power; any annihilator is divisible "
            f"by Phi_{order}, whose value at 1 is a prime",
        )
    # find c with sum(c_i k_i) = 1 mod order, via an iterated extended gcd
    ks = reduced.exponents
    g = order
    coeffs = [0] * len(ks)
    for i, k in enumerate(ks):
        r0, r1 = g, k
        x0, x1 = 1, 0
        y0, y1 = 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        # r0 = x0*g + y0*k
        coeffs = [c * x0 for c in coeffs]
        coeffs[i] = y0
        g = r0
    assert g == 1, "exponents and order must be coprime after reduction"
    coeffs = [c % order for c in coeffs]
    monomial = LaurentPoly.monomial(omega.mu, coeffs)
    witness = cyclotomic_minimal_poly(order).evaluate(
        [monomial], zero=LaurentPoly.zero(omega.mu)
    )
    return RootStatus(
        ROOT,
        order=order,
        witness=witness,
        detail=f"Phi_{order} composed with a monomial of the coordinates",
    )


# conductors searched by sample_safe_characters
SAMPLE_MAX_CONDUCTOR = 64


def _prime_powers_up_to(bound):
    return [n for n in range(2, bound + 1) if is_prime_power(n)]


def sample_safe_characters(mu, linking, budget, seed=0):
    """Torsion characters that are admissible, non-vanishing, and not
    concordance roots (prime-power order), deterministically from a seed.

    Returns up to ``budget`` characters; the list is empty when nothing
    admissible exists up to conductor ``SAMPLE_MAX_CONDUCTOR``.
    """
    mu = int(mu)
    if mu < 1:
        raise UsageError("mu must be at least 1")
    linking = tuple(int(x) for x in linking)
    if len(linking) != mu:
        raise UsageError("linking vector length does not match mu")
    budget = int(budget)
    if budget <= 0:
        return []
    rng = random.Random(seed)
    conductors = _prime_powers_up_to(SAMPLE_MAX_CONDUCTOR)
    pools = {}
    positions = {}

    def pool_for(conductor):
        if conductor not in pools:
            space = (conductor - 1) ** mu
            if space <= 4096:
                candidates = list(itertools.product(range(1, conductor), repeat=mu))
                rng.shuffle(candidates)
            else:
                candidates = [
                    tuple(rng.randrange(1, conductor) for _ in range(mu))
                    for _ in range(4096)
                ]
            pools[conductor] = candidates
            positions[conductor] = 0
        return pools[conductor]

    out = []
    seen = set()
    # round-robin over conductors so small budgets see diverse orders
    progressed = True
    while len(out) < budget and progressed:
        progressed = False
        for conductor in conductors:
            pool = pool_for(conductor)
            pos = positions[conductor]
            while pos < len(pool):
                exps = pool[pos]
                pos += 1
                ch = Character.root_of_unity(conductor, exps)
                reduced = ch.reduced()
                key = (reduced.conductor, reduced.exponents)
                if key in seen:
                    continue
                if not is_admissible(ch, linking):
                    continue
                if not ch.is_nonvanishing():
                    continue
                if concordance_root_status(ch).status != NOT_ROOT:
                    continue
                seen.add(key)
                out.append(ch)
                progressed = True
                break
            positions[conductor] = pos
            if len(out) >= budget:
                break
    return out


def verify_root_witness(omega, witness):
    """Check a concordance-root witness exactly: unit at 1 and zero at omega."""
    at_one = witness.evaluate([Fraction(1)] * omega.mu)
    if at_one not in (1, -1):
        return False
    if omega.kind != ROOT_OF_UNITY:
        raise UsageError("witness verification needs a torsion character")
    ctx = Cyclotomic(omega.conductor)
    values = embed_character(omega, ctx)
    return witness.evaluate(values, zero=ctx.zero).is_zero()
