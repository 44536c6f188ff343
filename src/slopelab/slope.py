"""The slope trichotomy, signatures and nullities, zero certification.

At a character w with every coordinate away from 1 the slope of the
distinguished component is decided by two memberships of the class kappa
with respect to the operator E(w):

* kappa in the image and in the annihilator of the kernel: the slope is
  finite and equals -<alpha, kappa> for any preimage alpha (the
  annihilator condition makes the pairing independent of the choice);
* kappa in neither: the slope is infinite;
* exactly one: the slope is undefined at w.

Authoritative answers come from exact contexts (symbolic or cyclotomic);
results computed in ApproxComplex carry an ``approximate`` flag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from .characters import Character, default_context_for, sample_safe_characters
from .errors import (
    InvalidPresentationError,
    UnsupportedHypothesisError,
    UsageError,
)
from .fields import ApproxComplex, Cyclotomic, RatFunc, RationalFunctionField
from .laurent import LaurentPoly
from .linalg import (
    INCONSISTENT,
    certificate_polys,
    hermitian_signature,
    rank,
    solve,
)
from .seifert import build_E, validate

FINITE = "finite"
INFINITY = "infinity"
UNDEFINED = "undefined"


@dataclass(frozen=True)
class CaseReport:
    kappa_in_image: bool
    kappa_in_annihilator: bool


@dataclass(frozen=True)
class SlopeValue:
    """Outcome of a slope computation.

    ``value`` is a field scalar (or reduced rational function in the
    symbolic context) when finite, None otherwise.  ``witness`` is a
    preimage alpha with E(w) alpha = kappa in the finite case.  In
    symbolic runs ``valid_away_from`` is a polynomial whose non-vanishing
    guarantees that the generic computation specializes at a point.
    """

    kind: str
    value: object | None
    witness: tuple | None
    case_report: CaseReport
    approximate: bool = False
    valid_away_from: LaurentPoly | None = None

    def is_finite(self):
        return self.kind == FINITE


def _check_slope_preconditions(presentation, omega, check_transpose=True):
    violations = validate(presentation, check_transpose=check_transpose)
    if violations:
        raise InvalidPresentationError(violations)
    if not presentation.linking_is_zero():
        raise UnsupportedHypothesisError(
            "slope computations require a vanishing linking vector (lambda = 0)"
        )
    if omega.mu != presentation.mu:
        raise UsageError("character length does not match the presentation")
    # build_E refuses a vanishing coordinate, at the computing context's tolerance


def slope_from_operator(e_matrix, kappa_scalars):
    """The trichotomy applied to an explicit operator matrix and class.

    The image is the column span of E, the kernel is the right kernel
    {v : E v = 0} as returned by ``linalg.solve``, and the pairing is the
    bilinear <a, b> = sum_i a_i b_i (no conjugation).  When E is Hermitian,
    as E(w) is at a unitary character, and kappa is an integer vector, the
    two memberships coincide (the image is the Hermitian orthogonal of the
    kernel, and conjugating the pairing with a real kappa does not change
    whether it vanishes), so Undefined needs an operator that is not
    self-adjoint, such as one passed in directly.

    Over the rational function field the pairing is formed on the
    numerators of the fraction-free solution, alpha_i = num_i / det, as
    -(sum_i kappa_i num_i) / det.  With polynomial kappa (always the case
    for ``slope_at``) the sum stays a polynomial, and the division is the
    one gcd reduction instead of a reduced product and sum per term.  Both
    are the same rational function, and a ``RatFunc`` is stored in the
    canonical reduced form, so the value is structurally identical to the
    term-by-term sum.  The same context also returns ``valid_away_from``,
    the product of the non-unit pivot polynomials.
    """
    ctx = e_matrix.ctx
    kappa = list(kappa_scalars)
    sol = solve(e_matrix, kappa)
    in_image = sol.status != INCONSISTENT
    in_annihilator = True
    for v in sol.kernel_basis:
        acc = ctx.zero
        for a, b in zip(kappa, v):
            acc = acc + a * b
        if not ctx.is_zero(acc):
            in_annihilator = False
            break
    report = CaseReport(in_image, in_annihilator)
    approximate = not ctx.is_exact
    certificate = None
    if isinstance(ctx, RationalFunctionField):
        polys = certificate_polys(sol.pivot_polys)
        certificate = LaurentPoly.one(ctx.num_vars)
        for p in polys:
            certificate = certificate * p
    if in_image and in_annihilator:
        alpha = sol.particular
        if sol.particular_numerators is not None:
            det = sol.pivot_polys[-1] if sol.pivot_polys else LaurentPoly.one(ctx.num_vars)
            pairing = ctx.zero
            for num, k in zip(sol.particular_numerators, kappa):
                pairing = pairing + k * RatFunc.from_poly(num)
            pairing = pairing / RatFunc.from_poly(det)
        else:
            pairing = ctx.zero
            for a, k in zip(alpha, kappa):
                pairing = pairing + a * k
        return SlopeValue(FINITE, -pairing, tuple(alpha), report, approximate, certificate)
    if not in_image and not in_annihilator:
        return SlopeValue(INFINITY, None, None, report, approximate, certificate)
    return SlopeValue(UNDEFINED, None, None, report, approximate, certificate)


def slope_at(presentation, omega, ctx=None, check_transpose=True):
    """The slope at one character.

    The context defaults to the exact home of the character: the rational
    function field for the symbolic character, Q(zeta_N) for torsion
    characters, ApproxComplex for numeric ones.
    """
    _check_slope_preconditions(presentation, omega, check_transpose)
    if ctx is None:
        ctx = default_context_for(omega)
    e = build_E(presentation, omega, ctx)
    kappa = [ctx.from_int(k) for k in presentation.kappa]
    return slope_from_operator(e, kappa)


def slope_symbolic(presentation, check_transpose=True):
    """The slope as a reduced rational function of the character.

    A finite result describes the slope on the Zariski-open set where the
    returned ``valid_away_from`` polynomial does not vanish; the pointwise
    value can differ (jump to infinity or become undefined) on its zero
    locus.
    """
    ctx = RationalFunctionField(presentation.mu)
    return slope_at(
        presentation, Character.symbolic(presentation.mu), ctx, check_transpose
    )


@dataclass(frozen=True)
class SignatureResult:
    sigma: int
    eta: int
    counts: tuple
    sigma_approximate: bool = True
    eta_exact: bool = True


def signature_nullity(presentation, omega, tol_sig=1e-8, check_transpose=True, tol=None):
    """Signature and nullity of E(omega) at a unitary non-vanishing character.

    The nullity (kernel dimension plus b0 - 1) is computed exactly in the
    cyclotomic field for torsion characters; the signature always goes
    through floating-point eigenvalues of the (exactly constructed when
    possible) Hermitian matrix.  ``tol`` (default: ``default_tolerance()``)
    is the numeric zero tolerance of the unitarity and non-vanishing checks
    and of the approximate context.
    """
    violations = validate(presentation, check_transpose=check_transpose)
    if violations:
        raise InvalidPresentationError(violations)
    if omega.mu != presentation.mu:
        raise UsageError("character length does not match the presentation")
    if not omega.is_unitary(tol):
        raise UnsupportedHypothesisError(
            "signature and nullity need a unitary character"
        )
    if not omega.is_nonvanishing(tol):
        raise UnsupportedHypothesisError(
            "vanishing character coordinate (omega_i = 1) is not supported"
        )
    approx_ctx = ApproxComplex(tol)
    if omega.kind == "zeta":
        exact_ctx = Cyclotomic(omega.conductor)
        e_exact = build_E(presentation, omega, exact_ctx)
        eta = (presentation.n - rank(e_exact)) + presentation.b0 - 1
        e_num = e_exact.map(lambda x: x.to_complex(), ctx=approx_ctx)
        eta_exact = True
    else:
        e_num = build_E(presentation, omega, approx_ctx)
        eta = (presentation.n - rank(e_num)) + presentation.b0 - 1
        eta_exact = False
    counts = hermitian_signature(e_num, tol_sig=tol_sig)
    return SignatureResult(counts[0] - counts[1], eta, counts, True, eta_exact)


ZERO_CERT_ORDERS = (2, 3, 4, 5, 8, 9)


def certify_zero_slope(presentation):
    """True iff the symbolic slope is the zero function and every pointwise
    check at the battery of prime-power torsion characters (all coordinate
    orders in {2,3,4,5,8,9}) is exactly zero.

    This certifies that the computed slope function vanishes; it does not
    certify sliceness.
    """
    symbolic = slope_symbolic(presentation)
    if not symbolic.is_finite() or not symbolic.value.is_zero():
        return False
    for orders in itertools.product(ZERO_CERT_ORDERS, repeat=presentation.mu):
        conductor = lcm(*orders)
        exponents = tuple(conductor // o for o in orders)
        omega = Character.root_of_unity(conductor, exponents)
        point = slope_at(presentation, omega)
        if not point.is_finite() or not point.value.is_zero():
            return False
    return True


@dataclass(frozen=True)
class ComparisonPoint:
    omega: Character
    first: SlopeValue
    second: SlopeValue
    equal: bool


@dataclass(frozen=True)
class Comparison:
    """Both slopes at each sampled character, in sampling order, and the
    first character where they differ (None when they agree throughout)."""

    points: tuple
    witness: Character | None


def compare_slopes(first, second, budget, seed=0):
    """Compare the slopes of two presentations at sampled safe characters.

    The slope is invariant under colored concordance at every character
    that is not a concordance root.  Safe characters (admissible,
    non-vanishing, of prime-power order) are never roots, so a difference
    at any sampled point proves the links are not concordant; agreement
    at every point proves nothing.
    """
    if first.mu != second.mu:
        raise UsageError("datasets have different numbers of colors")
    if not (first.linking_is_zero() and second.linking_is_zero()):
        raise UnsupportedHypothesisError(
            "the comparator requires vanishing linking vectors on both sides"
        )
    points = []
    for omega in sample_safe_characters(first.mu, first.linking, budget, seed=seed):
        a = slope_at(first, omega)
        b = slope_at(second, omega)
        equal = a.kind == b.kind and (a.kind != FINITE or a.value == b.value)
        points.append(ComparisonPoint(omega, a, b, equal))
    witness = next((pt.omega for pt in points if not pt.equal), None)
    return Comparison(tuple(points), witness)
