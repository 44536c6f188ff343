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
from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from operator import attrgetter, mul

from .errors import ContextMismatchError, UsageError
from .fields import (
    ApproxComplex,
    Cyclotomic,
    CyclotomicNumber,
    RationalFunctionField,
    _reduce_mod_phi,
    resolve_tolerance,
)
from .laurent import (
    LaurentPoly,
    _cyclotomic_coeffs,
    cyclotomic_minimal_poly,
    divisors,
    euler_phi,
    is_prime_power,
)
from .record import Record

SYMBOLIC = "symbolic"
ROOT_OF_UNITY = "zeta"
NUMERIC = "numeric"

_denominator = attrgetter("denominator")


class Character(Record):
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
        tol = resolve_tolerance(tol)
        return all(abs(v - 1) > tol for v in self.values)

    def is_unitary(self, tol=None):
        if self.kind == ROOT_OF_UNITY:
            return True
        if self.kind == NUMERIC:
            tol = resolve_tolerance(tol)
            return all(abs(abs(v) - 1) <= tol for v in self.values)
        return False

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
        # adding 0.0 turns a negative zero into 0.0, as in format_complex
        parts = ((v.real + 0.0, v.imag + 0.0) for v in self.values)
        return "num:" + ",".join(
            f"{re:.12g}{'+' if im >= 0 else '-'}{abs(im):.12g}i" for re, im in parts
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


def evaluate_at_torsion(p, omega):
    """The exact value p(omega) in Q(zeta_N), N the conductor of omega,
    from ``_at_torsion``, brought to lowest terms."""
    if omega.kind != ROOT_OF_UNITY:
        raise UsageError("evaluate_at_torsion needs a torsion character")
    if p.num_vars != omega.mu:
        raise UsageError("wrong number of variables for the character")
    num, den = _at_torsion(p, omega.conductor, omega.exponents)
    return CyclotomicNumber._from_ints(omega.conductor, num, den)


def _at_torsion(p, conductor, exponents):
    """p at the torsion character with coordinates zeta_N^k, N the
    conductor and k the exponents, on integer coordinates: (num, den), the
    value being num / den, num its phi(N) power-basis coordinates and den
    the lcm of the coefficients' denominators, not in lowest terms.

    The term c * w^e goes to c * zeta_N^(e . k), so the value is one
    length-N coefficient list over den, reduced once modulo Phi_N: no field
    multiplication, no inversion and no power.  Nothing is checked.
    """
    terms = p.terms
    den = _int_lcm(*map(_denominator, terms.values()))
    coeffs = [0] * conductor
    for e, c in terms.items():
        coeffs[sum(map(mul, e, exponents)) % conductor] += c.numerator * (den // c.denominator)
    return _reduce_mod_phi(coeffs, conductor), den


# the product of the primes below 100, a sieve ahead of the Fermat test
_SMALL_PRIMES = 2305567963945518424753102147331756070


@lru_cache(maxsize=None)
def _modular_root(conductor):
    """(q, powers) for ``_nonzero_at_torsion`` at conductor N: q = 1 (mod N)
    above 2^61, and powers[j] = g^j mod q for j < N, with g = h^((q - 1) / N)
    for the least h >= 2 that passes both checks g^N = 1 and Phi_N(g) = 0
    (mod q) (Phi_N from ``laurent._cyclotomic_coeffs``).

    The test relies on those two checks alone, not on q being prime; the
    sieve and the Fermat test only steer the search toward primes, where
    such a g exists (for prime q, Phi_N(g) = 0 exactly when g has order
    N, as it does for most h).
    """
    phi = _cyclotomic_coeffs(conductor)
    q = (1 << 61) // conductor * conductor + 1
    while True:
        if q > 1 << 61 and _int_gcd(q, _SMALL_PRIMES) == 1 and pow(2, q - 1, q) == 1:
            for h in range(2, 64):
                g = pow(h, (q - 1) // conductor, q)
                powers = [1]
                for _ in range(conductor):
                    powers.append(powers[-1] * g % q)
                if powers[conductor] == 1 and sum(map(mul, phi, powers)) % q == 0:
                    return q, powers[:conductor]
        q += conductor


def _nonzero_at_torsion(p, conductor, exponents):
    """Whether p(omega) != 0 at the torsion character with coordinates
    zeta_N^k, N the conductor and k the exponents: decided by one residue
    modulo q when it is nonzero, and by ``_at_torsion`` when it is zero.

    Proof.  With (q, powers) from ``_modular_root``, t -> g is a ring
    homomorphism Z[t] -> Z/q that kills Phi_N, since Phi_N(g) = 0 (mod q),
    so it factors through Z[t]/(Phi_N) = Z[zeta_N]; and g^N = 1 (mod q), so
    t^j and t^(j mod N) have one image.  Let den be the lcm of the
    coefficients' denominators, the scaling of ``_at_torsion`` (den = 1
    when every coefficient is an ``int``).  den * p(omega) is in Z[zeta_N],
    and its image is den times the sum of c * g^(e . k mod N) over the
    terms c w^e, reduced modulo q.  A ring homomorphism sends 0 to 0, so
    a nonzero image proves den * p(omega), hence p(omega), nonzero.  No
    primality of q enters: the checked g alone makes the map well defined.
    A zero image proves nothing, since p(omega) may be a nonzero element
    of the kernel (q itself is one), and the exact coordinates decide.
    """
    q, powers = _modular_root(conductor)
    image = 0
    for e, c in p.terms.items():
        image += c * powers[sum(map(mul, e, exponents)) % conductor]
    if type(image) is Fraction:
        image = (image * _int_lcm(*map(_denominator, p.terms.values()))).numerator
    return image % q != 0 or any(_at_torsion(p, conductor, exponents)[0])


def hermitian_at_torsion(presentation, omega):
    """The rows of the Cimasoni-Florens matrix at a torsion character,
    H(omega) = sum_eps prod_i (1 - omega_i^eps_i) theta^eps, in Q(zeta_N),
    N the conductor of omega.  With no coordinate 1, H = |P|^2 E(omega),
    P = prod_i (1 - omega_i^-1):

    * In A(omega^-1) sign vector eps carries prod over the i with
      eps_i = -1 of (-omega_i^-1).  Times prod_i (1 - omega_i), factor by
      factor, that is prod_i (1 - omega_i^eps_i), as
      (1 - omega_i)(-omega_i^-1) = 1 - omega_i^-1.  So
      H = prod_i (1 - omega_i) A(omega^-1).
    * |omega_i| = 1 makes 1 - omega_i = conj(1 - omega_i^-1), so
      H = conj(P) P E(omega), and |P|^2 > 0 as no omega_i is 1.

    A positive multiple has the same inertia and nullity (Sylvester's
    law), and H is exactly Hermitian iff E(omega) is.  Cimasoni and
    Florens ("Generalized Seifert surfaces and signatures of colored
    links", Trans. AMS 2008) write H_CF(omega) = prod_i (1 - conj(omega_i))
    A(omega); A has integer coefficients, so H = conj(H_CF), with the same
    eigenvalues.  prod_i (1 - zeta_N^(eps_i k_i)), k the exponents, is one
    cyclic integer vector per sign vector, reduced once modulo Phi_N, and
    each entry an integer combination of them: no field operation.
    """
    n = omega.conductor
    parts = []
    for eps, theta in presentation.theta.items():
        vec = [1] + [0] * (n - 1)
        for e, k in zip(eps, omega.exponents):
            # times 1 - zeta_N^s: subtract the vector rotated by s
            s = e * k % n
            vec = [v - vec[p - s] for p, v in enumerate(vec)]
        parts.append((theta, _reduce_mod_phi(vec, n)))
    zero = [0] * euler_phi(n)
    rows = []
    for r in range(presentation.n):
        row = []
        for c in range(presentation.n):
            acc = zero
            for theta, vec in parts:
                k = theta[r][c]
                if k:
                    acc = [x + k * v for x, v in zip(acc, vec)]
            row.append(CyclotomicNumber._from_ints(n, acc))
        rows.append(row)
    return rows


def default_context_for(omega, tol=None):
    """The field every computation at ``omega`` runs in.

    This is the one rule that maps a character to its field: the rational
    function field in mu variables for the symbolic character, Q(zeta_N)
    at its conductor N for a torsion character, and ApproxComplex for a
    numeric one.  ``tol`` acts only on a numeric character, where it is
    the zero tolerance (default: ``resolve_tolerance()``); the exact
    fields never read it.
    """
    if omega.kind == SYMBOLIC:
        return RationalFunctionField(omega.mu)
    if omega.kind == ROOT_OF_UNITY:
        return Cyclotomic(omega.conductor)
    return ApproxComplex(tol)


# -- admissible variety ---------------------------------------------------------


class AdmissibleComponent(Record):
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


class RootStatus(Record):
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


# conductors searched by sample_safe_characters, and the most candidate
# exponent tuples it takes from any one conductor
SAMPLE_MAX_CONDUCTOR = 64
SAMPLE_POOL_CAP = 4096


def _prime_powers_up_to(bound):
    return [n for n in range(2, bound + 1) if is_prime_power(n)]


def sample_safe_characters(mu, linking, budget, seed=0):
    """Torsion characters that are admissible, non-vanishing, and not
    concordance roots (prime-power order), deterministically from a seed.

    Only admissibility is tested.  Conductors are prime powers p^a and
    exponents are drawn from 1..p^a - 1, so no coordinate equals 1, and
    the exact order divides p^a and exceeds 1: a prime power, which is
    never a concordance root.

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

    def pool_for(conductor):
        """The conductor's candidate exponent tuples, as one iterator: all
        of them shuffled when there are at most SAMPLE_POOL_CAP, else up to
        SAMPLE_POOL_CAP random draws, each made when it is asked for."""
        if conductor not in pools:
            if (conductor - 1) ** mu <= SAMPLE_POOL_CAP:
                candidates = list(itertools.product(range(1, conductor), repeat=mu))
                rng.shuffle(candidates)
                pools[conductor] = iter(candidates)
            else:
                pools[conductor] = (
                    tuple(rng.randrange(1, conductor) for _ in range(mu))
                    for _ in range(SAMPLE_POOL_CAP)
                )
        return pools[conductor]

    out = []
    seen = set()
    # round-robin over conductors so small budgets see diverse orders
    progressed = True
    while len(out) < budget and progressed:
        progressed = False
        for conductor in conductors:
            for exps in pool_for(conductor):
                # admissibility does not change under reduction: test it first
                if sum(l * k for l, k in zip(linking, exps)) % conductor:
                    continue
                ch = Character.root_of_unity(conductor, exps)
                reduced = ch.reduced()
                key = (reduced.conductor, reduced.exponents)
                if key in seen:
                    continue
                seen.add(key)
                out.append(ch)
                progressed = True
                break
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
    return evaluate_at_torsion(witness, omega).is_zero()
