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
from math import lcm

from .characters import (
    Character,
    default_context_for,
    evaluate_at_torsion,
    sample_safe_characters,
)
from .errors import (
    InvalidPresentationError,
    UnsupportedHypothesisError,
    UsageError,
)
from .fields import ApproxComplex, RatFunc, RationalFunctionField
from .laurent import LaurentPoly
from .linalg import (
    INCONSISTENT,
    _check_tol_sig,
    certificate_polys,
    hermitian_inertia,
    hermitian_signature,
    rank,
    solve,
)
from .record import Record
from .seifert import build_E, validate

FINITE = "finite"
INFINITY = "infinity"
UNDEFINED = "undefined"


class CaseReport(Record):
    kappa_in_image: bool
    kappa_in_annihilator: bool


class SlopeValue(Record):
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


def _refuse_invalid(presentation, check_transpose=True):
    violations = validate(presentation, check_transpose=check_transpose)
    if violations:
        raise InvalidPresentationError(violations)


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


def _slope_in(presentation, omega, ctx):
    """The slope at omega of a validated presentation, E built in ``ctx``.

    Refuses a nonzero linking vector, then a character of the wrong
    length; ``build_E`` refuses a vanishing coordinate, at the tolerance
    of ``ctx``.
    """
    if not presentation.linking_is_zero():
        raise UnsupportedHypothesisError(
            "slope computations require a vanishing linking vector (lambda = 0)"
        )
    if omega.mu != presentation.mu:
        raise UsageError("character length does not match the presentation")
    e = build_E(presentation, omega, ctx)
    return slope_from_operator(e, [ctx.from_int(k) for k in presentation.kappa])


def slope_at(presentation, omega, *, tol=None, check_transpose=True):
    """The slope at one character.

    The field is derived from the character by
    ``characters.default_context_for``: the rational function field for
    the symbolic character, Q(zeta_N) for torsion characters, ApproxComplex
    for numeric ones, whose zero tolerance is ``tol``.  The field is built
    before the presentation is checked, so a bad tolerance is refused
    first.
    """
    ctx = default_context_for(omega, tol)
    _refuse_invalid(presentation, check_transpose)
    return _slope_in(presentation, omega, ctx)


def slope_symbolic(presentation, check_transpose=True):
    """The slope as a reduced rational function of the character.

    A finite result describes the slope on the Zariski-open set where the
    returned ``valid_away_from`` polynomial does not vanish; the pointwise
    value can differ (jump to infinity or become undefined) on its zero
    locus.
    """
    return slope_at(
        presentation, Character.symbolic(presentation.mu), check_transpose=check_transpose
    )


class SignatureResult(Record):
    sigma: int
    eta: int
    counts: tuple
    sigma_approximate: bool = True
    eta_exact: bool = True


def signature_nullity(presentation, omega, tol_sig=1e-8, check_transpose=True, tol=None):
    """Signature and nullity of E(omega) at a unitary non-vanishing character.

    At a torsion character E(omega) is built in Q(zeta_N) and is exactly
    Hermitian.  One congruence diagonalization E = L D L*
    (``linalg.hermitian_inertia``) gives both answers exactly: by
    Sylvester's law of inertia the signs of D count the positive and
    negative eigenvalues of E, and its zero block has the size of Ker E,
    so sigma = n_plus - n_minus and eta = dim Ker E + b0 - 1.  Neither
    tolerance is read there, but both are still checked, ``tol`` first.

    At a numeric character E is built in ApproxComplex: the nullity comes
    from its approximate rank, and the signature counts the eigenvalues of
    the float matrix above ``tol_sig`` and below ``-tol_sig``, exactly, by
    the same law of inertia over Q(i) (``linalg.hermitian_signature``).  An
    exact E that is not exactly Hermitian (possible only without the
    transpose check) takes the same path, with its exact rank, after
    mapping to ApproxComplex, where it is refused unless Hermitian within
    tolerance.
    ``tol`` (default: ``resolve_tolerance()``) is the numeric zero
    tolerance of the unitarity and non-vanishing checks and of the
    approximate context.  ``sigma_approximate`` is reported true in every
    case.
    """
    _refuse_invalid(presentation, check_transpose)
    return _signature_in(presentation, omega, tol_sig, tol)


def _signature_in(presentation, omega, tol_sig, tol):
    """``signature_nullity`` of a validated presentation."""
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
    ctx = default_context_for(omega, tol)
    e = build_E(presentation, omega, ctx)
    # both tolerances are checked at every character, tol first, although
    # the exact factorization reads neither
    approx = ApproxComplex(tol)
    _check_tol_sig(tol_sig)
    counts = hermitian_inertia(e) if ctx.is_exact else None
    if counts is None:
        kernel = presentation.n - rank(e)
        if ctx.is_exact:
            e = e.map(lambda x: x.to_complex(), ctx=approx)
        counts = hermitian_signature(e, tol_sig=tol_sig)
    else:
        kernel = counts[2]
    eta = kernel + presentation.b0 - 1
    return SignatureResult(counts[0] - counts[1], eta, counts, True, ctx.is_exact)


ZERO_CERT_ORDERS = (2, 3, 4, 5, 8, 9)


def certify_zero_slope(presentation):
    """True iff the symbolic slope is the zero function and the pointwise
    slope is exactly zero at the battery of prime-power torsion characters
    (all coordinate orders in {2,3,4,5,8,9}).

    This certifies that the computed slope function vanishes; it does not
    certify sliceness.

    Only battery characters on the zero locus of the symbolic solve's
    certificate ``valid_away_from`` get a direct solve.  At every other
    one the pointwise slope is the specialization of the symbolic slope,
    here the zero function.  Proof, for a character omega with no
    coordinate 1 where the certificate does not vanish: the certificate is
    the product of the non-unit pivots of the fraction-free elimination of
    [E | kappa], and the units it leaves out are monomials, which do not
    vanish on the torus, so no pivot p_1, ..., p_r vanishes at omega.

    * Each row of [E | kappa] is cleared by the lcm of its entries'
      denominators.  ``build_E`` writes entry (r, c) over the product of
      the f_i = 1 - w_i^-1 that do not divide A_rc(w^-1), and kappa is
      integral, so row r is cleared by the product of (w_i - 1) over the
      i whose f_i fails to divide some entry of the row; it is nonzero at
      omega because no omega_i is 1.  The cleared rows at omega are
      nonzero multiples of the rows of [E(omega) | kappa] and have the
      same reduced row echelon form.
    * After step k the fraction-free rows are p_k times the Gauss-Jordan
      rows with the same pivots (one-step Bareiss).  Evaluation at omega is
      a ring homomorphism, so this identity holds at omega too.
    * Each pivot is the first entry of its column that is nonzero as a
      polynomial.  Entries that are zero as polynomials vanish at omega
      and the pivot does not, so first-nonzero pivoting at omega makes the
      same choices.  The final rows at omega are therefore det(omega)
      times the reduced row echelon form of [E(omega) | kappa].
    * Hence the kappa column holds no pivot at omega, so kappa is in the
      image; the kernel basis at omega is the specialized symbolic one, so
      its pairing with kappa is the specialized zero; and the slope at
      omega is -(sum_i kappa_i num_i(omega)) / det(omega), the specialized
      symbolic value.  A zero pairing and a finite value therefore
      specialize, and omega passes without a solve.
    """
    symbolic = slope_symbolic(presentation)
    if not symbolic.is_finite() or not symbolic.value.is_zero():
        return False
    for orders in itertools.product(ZERO_CERT_ORDERS, repeat=presentation.mu):
        conductor = lcm(*orders)
        exponents = tuple(conductor // o for o in orders)
        omega = Character.root_of_unity(conductor, exponents)
        if not evaluate_at_torsion(symbolic.valid_away_from, omega).is_zero():
            continue
        point = slope_at(presentation, omega)
        if not point.is_finite() or not point.value.is_zero():
            return False
    return True


class ComparisonPoint(Record):
    omega: Character
    first: SlopeValue
    second: SlopeValue
    equal: bool


class Comparison(Record):
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

    Each presentation is validated once, first then second, before the
    mu and linking checks and before any character is sampled.
    """
    for presentation in (first, second):
        _refuse_invalid(presentation)
    return _compare_in(first, second, budget, seed)


def _compare_in(first, second, budget, seed):
    """``compare_slopes`` of two validated presentations."""
    if first.mu != second.mu:
        raise UsageError("datasets have different numbers of colors")
    if not (first.linking_is_zero() and second.linking_is_zero()):
        raise UnsupportedHypothesisError(
            "the comparator requires vanishing linking vectors on both sides"
        )
    points = []
    for omega in sample_safe_characters(first.mu, first.linking, budget, seed=seed):
        ctx = default_context_for(omega)
        a = _slope_in(first, omega, ctx)
        b = _slope_in(second, omega, ctx)
        equal = a.kind == b.kind and (a.kind != FINITE or a.value == b.value)
        points.append(ComparisonPoint(omega, a, b, equal))
    witness = next((pt.omega for pt in points if not pt.equal), None)
    return Comparison(tuple(points), witness)
