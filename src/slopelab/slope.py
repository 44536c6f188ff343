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
from .fields import ApproxComplex, Cyclotomic, RatFunc, RationalFunctionField
from .laurent import LaurentPoly, normalize_poly
from . import linalg
from .linalg import (
    INCONSISTENT,
    _check_tol_sig,
    hermitian_inertia,
    hermitian_signature,
    rank,
    solve,
)
from .record import Record
from .seifert import build_E, symbolic_rows, validate

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


def _certificate(pivot_polys, num_vars):
    """``valid_away_from``: the product of the distinct non-unit pivots,
    unit-normalized.  Monomials and constants are units of the Laurent
    ring and never vanish on the character torus, so they are dropped."""
    certificate = LaurentPoly.one(num_vars)
    seen = []
    for p in pivot_polys:
        q = normalize_poly(p)
        if not (q.is_constant() or q.is_monomial() or q in seen):
            seen.append(q)
            certificate = certificate * q
    return certificate


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

    Over the rational function field the result also carries
    ``valid_away_from``, the product of the non-unit pivot polynomials.
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
        certificate = _certificate(sol.pivot_polys, ctx.num_vars)
    if in_image and in_annihilator:
        alpha = sol.particular
        pairing = ctx.zero
        for a, k in zip(alpha, kappa):
            pairing = pairing + a * k
        return SlopeValue(FINITE, -pairing, tuple(alpha), report, approximate, certificate)
    if not in_image and not in_annihilator:
        return SlopeValue(INFINITY, None, None, report, approximate, certificate)
    return SlopeValue(UNDEFINED, None, None, report, approximate, certificate)


class _Elimination:
    """The fraction-free elimination of [E(w) | kappa] for one presentation,
    E(w) its symbolic operator, and the slope read off it, symbolically and
    at torsion characters.

    ``seifert.symbolic_rows`` gives the rows of [E(w) | kappa] cleared and
    scaled, straight from the presentation, and
    ``linalg._echelon_fraction_free`` runs one-step Bareiss on them, giving
    the pivot columns, the pivots p_1, ..., p_r (det = p_r, or 1 when
    r = 0) and the final polynomial rows R, with no gcd.  Write n for the
    number of columns of E, I for the pivot columns below n, and
    num_c = R[row of c][n].  For a free column f < n the pairing numerator
    is P_f = kappa_f det - sum over c in I of kappa_c R[row of c][f], and the
    value numerator is V = sum over c in I of kappa_c num_c.  The record
    derives det, the P_f, the pairs (c, num_c) and V (both None when column
    n holds a pivot) and ``valid_away_from`` (the product of the distinct
    non-unit pivots) when it is built, and keeps only those.

    Over the rational function field the final rows are exactly det times
    the reduced row echelon form of [E(w) | kappa] (``linalg``), so the
    readings below hold with the identity as the evaluation, and
    ``symbolic`` returns what ``slope_from_operator`` returns on E(w):
    the same rational functions, in ``RatFunc``'s canonical stored form,
    with the record's ``valid_away_from`` as the certificate.  It reduces
    every num_c and -V over det in one ``RatFunc.over`` call, which
    prepares det once; the reduced form is canonical, so sharing changes
    nothing stored.

    Specialization, at a torsion character omega with no coordinate 1
    where ``valid_away_from`` does not vanish.  The units it leaves out are
    monomials, which do not vanish on the torus, so no pivot vanishes at
    omega.  No transpose symmetry is used.

    * The rows are built from the presentation, with no rational
      function: row r is L_r w^-m_r times row r of [E(w) | kappa], L_r the
      product of (w_i - 1) over the i whose f_i = 1 - w_i^-1 fails to
      divide some entry A_rc(w^-1) of the row, which is the lcm of the
      denominators of ``build_E``'s row.  They are exactly
      ``linalg._integral(linalg._cleared(row, mu), mu)`` of ``build_E``'s
      rows (the proof is in ``seifert.symbolic_rows``), so the pivots, det
      and final rows are identical to those of the generic elimination of
      E(w), not merely equal up to units.  L_r w^-m_r is nonzero at omega
      because no omega_i is 1, so the rows at omega are nonzero multiples
      of the rows of [E(omega) | kappa], and Gauss-Jordan elimination on
      either takes the same pivots and ends in the same reduced row
      echelon form.
    * After step k the fraction-free rows are p_k times the Gauss-Jordan
      rows with the same pivots (one-step Bareiss).  The step is the
      polynomial identity p_k R' = p_(k+1) R - f R_pivot, and evaluation at
      omega is a ring homomorphism, so with p_k(omega) != 0 the identity
      carries over to the rows at omega, by induction from p_0 = 1.
    * Each pivot is the first entry of its column, from the current row
      down, that is nonzero as a polynomial.  Entries that are zero as
      polynomials vanish at omega and the pivot does not, so Gauss-Jordan
      at omega, which takes the first entry nonzero at omega, makes the
      same choices, and skips the same columns.  The final rows at omega
      are therefore det(omega) times the reduced row echelon form of
      [E(omega) | kappa].

    Every part of the direct answer (``slope_from_operator`` on
    E(omega) in Q(zeta_N), N the conductor of omega) follows, and each is
    the same field element, so the same storage (``CyclotomicNumber`` is
    canonical):

    * Image: kappa is in the image iff column n holds no pivot, at omega
      as generically.  A pivot there is the infinite kind (with the
      annihilator test failing) or the undefined kind (with it passing).
    * Kernel pairing: the kernel vector of free column f is one at f,
      -R[row of c][f](omega) / det(omega) at each c in I and zero
      elsewhere, so its pairing with kappa is P_f(omega) / det(omega); it
      vanishes iff P_f(omega) does.  kappa is in the annihilator iff every
      P_f vanishes at omega.
    * Witness: the particular solution is num_c(omega) / det(omega) at each
      c in I and zero elsewhere.
    * Value: -(pairing of the witness with kappa) = -V(omega) / det(omega).

    So the kind, value, witness and case report equal the direct path's,
    ``approximate`` is false and ``valid_away_from`` None at a torsion
    character.  The cost is one inversion and about 2n evaluations
    (``evaluate_at_torsion``), with no elimination.  Every torsion request
    reads the presentation's record unless a pivot vanishes at the
    character: there the first choice can differ, and ``slope`` solves
    directly.  ``certify_zero_slope`` relies on the same argument.
    """

    __slots__ = ("mu", "n", "det", "pairings", "numerators", "value", "valid_away_from")

    def __init__(self, presentation):
        """Eliminate [E(w) | kappa] of a presentation and keep the derived
        parts."""
        mu, n, kappa = presentation.mu, presentation.n, presentation.kappa
        ech = linalg._echelon_fraction_free(symbolic_rows(presentation), n + 1, mu)
        rows = ech.poly_rows
        pivot_cols = [c for c in ech.pivots if c < n]
        self.mu, self.n = mu, n
        self.det = ech.pivot_polys[-1] if ech.pivot_polys else LaurentPoly.one(mu)
        self.pairings = []
        for f in range(n):
            if f in pivot_cols:
                continue
            acc = self.det * kappa[f]
            for r, c in enumerate(pivot_cols):
                if kappa[c]:
                    acc = acc - rows[r][f] * kappa[c]
            self.pairings.append(acc)
        self.numerators = self.value = None
        if n not in ech.pivots:
            self.numerators = [(c, rows[r][n]) for r, c in enumerate(pivot_cols)]
            self.value = LaurentPoly.zero(mu)
            for c, num in self.numerators:
                if kappa[c]:
                    self.value = self.value + num * kappa[c]
        self.valid_away_from = _certificate(ech.pivot_polys, mu)

    def specializes_at(self, omega):
        """True when no pivot vanishes at the torsion character omega."""
        return not evaluate_at_torsion(self.valid_away_from, omega).is_zero()

    def _unless_finite(self, in_annihilator, certificate=None):
        """The slope when one membership fails, else None."""
        in_image = self.numerators is not None
        if in_image and in_annihilator:
            return None
        kind = INFINITY if in_image == in_annihilator else UNDEFINED
        report = CaseReport(in_image, in_annihilator)
        return SlopeValue(kind, None, None, report, False, certificate)

    def at(self, omega):
        """The slope at a torsion character where ``specializes_at`` holds."""
        in_annihilator = not any(evaluate_at_torsion(p, omega) for p in self.pairings)
        sv = self._unless_finite(in_annihilator)
        if sv is not None:
            return sv
        inv = evaluate_at_torsion(self.det, omega).invert()
        witness = [Cyclotomic(omega.conductor).zero] * self.n
        for c, num in self.numerators:
            witness[c] = evaluate_at_torsion(num, omega) * inv
        value = -(evaluate_at_torsion(self.value, omega) * inv)
        return SlopeValue(FINITE, value, tuple(witness), CaseReport(True, True))

    def symbolic(self):
        """The slope over the rational function field, with no
        specialization: the P_f, num_c and V themselves over det."""
        sv = self._unless_finite(not any(self.pairings), self.valid_away_from)
        if sv is not None:
            return sv
        witness = [RationalFunctionField(self.mu).zero] * self.n
        # every num_c and -V over det, det prepared once
        *reduced, value = RatFunc.over(
            [num for _, num in self.numerators] + [-self.value], self.det
        )
        for (c, _), x in zip(self.numerators, reduced):
            witness[c] = x
        report = CaseReport(True, True)
        return SlopeValue(FINITE, value, tuple(witness), report, False, self.valid_away_from)


# Each presentation asked, by content (mu, n, theta, kappa), oldest first,
# with its record.
_RECORDS = {}
RECORD_BOUND = 32


def _key(presentation):
    """The content a record depends on, as a hashable value (theta is a
    mutable dict and may be edited in place)."""
    p = presentation
    theta = tuple(sorted((eps, tuple(map(tuple, m))) for eps, m in p.theta.items()))
    return (p.mu, p.n, theta, tuple(p.kappa))


def _record(presentation):
    """The presentation's record, built at its first request."""
    key = _key(presentation)
    record = _RECORDS.get(key)
    if record is None:
        if len(_RECORDS) >= RECORD_BOUND:
            del _RECORDS[next(iter(_RECORDS))]
        record = _RECORDS[key] = _Elimination(presentation)
    return record


def _slope_in(presentation, omega, ctx):
    """The slope at omega of a validated presentation, computed in ``ctx``,
    the field ``default_context_for(omega)``.

    Refuses a nonzero linking vector, then a character of the wrong
    length, then (as ``build_E`` does) a vanishing coordinate, at the
    tolerance of ``ctx``; the record memo is consulted only after these.
    """
    if not presentation.linking_is_zero():
        raise UnsupportedHypothesisError(
            "slope computations require a vanishing linking vector (lambda = 0)"
        )
    if omega.mu != presentation.mu:
        raise UsageError("character length does not match the presentation")
    if isinstance(ctx, RationalFunctionField):
        return _record(presentation).symbolic()
    if isinstance(ctx, Cyclotomic):
        if any(k % omega.conductor == 0 for k in omega.exponents):
            raise UnsupportedHypothesisError(
                "vanishing character coordinate (omega_i = 1): patching is not supported"
            )
        record = _record(presentation)
        if record.specializes_at(omega):
            return record.at(omega)
    return _direct(presentation, omega, ctx)


def _direct(presentation, omega, ctx):
    """The slope at omega by a solve of E(omega) in ``ctx``, with no record
    and no checks: the caller has validated the presentation and omega.
    It serves numeric characters and the torsion characters where a pivot
    of the record vanishes."""
    kappa = [ctx.from_int(k) for k in presentation.kappa]
    return slope_from_operator(build_E(presentation, omega, ctx), kappa)


def slope_at(presentation, omega, *, tol=None, check_transpose=True):
    """The slope at one character.

    The field is derived from the character by
    ``characters.default_context_for``: the rational function field for
    the symbolic character, Q(zeta_N) for torsion characters, ApproxComplex
    for numeric ones, whose zero tolerance is ``tol``.  The field is built
    before the presentation is checked, so a bad tolerance is refused
    first.

    A process-wide memo keeps up to ``RECORD_BOUND`` (32) presentations,
    keyed by their content (mu, n, theta, kappa) and dropped oldest first,
    each with its record, the fraction-free elimination of [E(w) | kappa]
    (``_Elimination``), built at the presentation's first symbolic or
    torsion request.  A record is built from the presentation's integer
    rows (``seifert.symbolic_rows``), with no rational function, and its
    symbolic answer reduces every numerator over one prepared det
    (``RatFunc.over``).  A symbolic request reads its answer off the
    record.  Every torsion request reads the presentation's record unless
    a pivot vanishes at the character, and then solves directly in
    Q(zeta_N).  Either way the answer is the same, storage included.
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

    The symbolic request leaves the presentation's record in the memo.
    Only battery characters on the zero locus of its certificate
    ``valid_away_from`` get a solve, where the record would decline them:
    straight to the direct solve in Q(zeta_N) (``_direct``), with nothing
    built for them.  The presentation was validated by the symbolic
    request, and no battery coordinate is 1, so ``slope_at``'s checks are
    not repeated.  At every other one the pointwise slope
    is the specialization of the symbolic one, by the proof in
    ``_Elimination``'s docstring: finite, with value
    -V(omega) / det(omega), where V / det reduces to the symbolic value,
    here the zero function, so V is the zero polynomial.  omega passes
    without a solve.
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
        point = _direct(presentation, omega, default_context_for(omega))
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
