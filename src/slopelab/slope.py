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
    _at_torsion,
    _nonzero_at_torsion,
    default_context_for,
    evaluate_at_torsion,
    hermitian_at_torsion,
    sample_safe_characters,
)
from .errors import (
    InvalidPresentationError,
    UnsupportedHypothesisError,
    UsageError,
)
from .fields import (
    ApproxComplex,
    Cyclotomic,
    CyclotomicNumber,
    RatFunc,
    RationalFunctionField,
    _adjugate,
    _times,
    resolve_tolerance,
)
from .laurent import LaurentPoly, normalize_poly
from . import linalg
from .linalg import (
    INCONSISTENT,
    Matrix,
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


def _refuse_linked(presentation):
    if not presentation.linking_is_zero():
        raise UnsupportedHypothesisError(
            "slope computations require a vanishing linking vector (lambda = 0)"
        )


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

    The matrix is over Q(zeta_N) or ApproxComplex; ``linalg.solve``
    refuses one over the rational function field, whose slope
    ``slope_symbolic`` reads off the presentation's record.
    """
    kappa = list(kappa_scalars)
    return _read_off(solve(e_matrix, kappa), kappa, e_matrix.ctx)


def _read_off(sol, kappa, ctx):
    """The trichotomy from ``sol``, a solve of [E | kappa] or of nonzero
    multiples of its rows (the same solution and kernel), read against
    kappa itself."""
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
    if in_image and in_annihilator:
        alpha = sol.particular
        pairing = ctx.zero
        for a, k in zip(alpha, kappa):
            pairing = pairing + a * k
        return SlopeValue(FINITE, -pairing, tuple(alpha), report, approximate)
    if not in_image and not in_annihilator:
        return SlopeValue(INFINITY, None, None, report, approximate)
    return SlopeValue(UNDEFINED, None, None, report, approximate)


class _Elimination:
    """The fraction-free elimination of [E(w) | kappa] for one presentation,
    E(w) its symbolic operator, and the slope read off it, symbolically and
    at torsion characters.

    ``seifert.symbolic_rows`` gives rows S straight from the presentation:
    row r of S is w^-m_r L_r times row r of [E(w) | kappa], ``build_E``'s
    symbolic row with kappa_r appended, L_r a product of factors w_i - 1
    (the identity is proved there).  ``linalg._echelon_fraction_free`` runs
    one-step Bareiss on them, giving the pivot columns, the pivots
    p_1, ..., p_r (det = p_r, or 1 when r = 0) and the final polynomial
    rows R, with no gcd.  Write n for the number of columns of E, I for
    the pivot columns below n, and num_c = R[row of c][n].  For a free
    column f < n the pairing numerator is P_f = kappa_f det - sum over c
    in I of kappa_c R[row of c][f], and the value numerator is V = sum
    over c in I of kappa_c num_c.  The record derives det, the P_f, the
    pairs (c, num_c) and V (both None when column n holds a pivot) when it
    is built, and keeps those, the pivots, its rows S and kappa.

    Over Q(w).  Each w^-m_r L_r is a nonzero element of Q(w), so S and
    [E(w) | kappa] have the same reduced row echelon form over Q(w), and
    the final rows are exactly det times it (``linalg``).  The trichotomy
    of this module, read off that form with ``linalg.solve``'s
    conventions (the particular solution zero at the free columns, one
    kernel vector per free column f, one at f), is:

    * Image: kappa is in the image iff column n holds no pivot.
    * Kernel pairing: the kernel vector of f is -R[row of c][f] / det at
      each c in I, so its pairing with kappa is P_f / det; det is not the
      zero polynomial, so kappa is in the annihilator iff every P_f is.
    * Witness num_c / det at each c in I, value -V / det.

    ``symbolic`` returns exactly these, each rational function in
    ``RatFunc``'s canonical stored form, with the product of the distinct
    non-unit pivots (``_certificate``), formed for that answer only, as
    ``valid_away_from``.  It reduces every num_c and -V over det in one
    ``RatFunc.over`` call, which prepares det once; the reduced form is
    canonical, so sharing changes nothing stored.

    Specialization, at a torsion character omega with no coordinate 1
    where det(omega) != 0.  No transpose symmetry is used.

    * The entries of E(w) have denominators that are products of the
      1 - w_i^-1, which do not vanish at omega, and w^-m_r L_r(omega) is
      nonzero because no omega_i is 1.  Evaluation at omega is a ring
      homomorphism on the polynomials and on such fractions, so the rows
      of S(omega) are nonzero multiples of the rows of
      [E(omega) | kappa], and both have the same reduced row echelon form.
    * Let S_B be the rows of S that the elimination takes as pivot rows,
      and B their block in the pivot columns.  Over Q(w) the reduced row
      echelon form is B^-1 S_B (the identity in the pivot columns,
      spanning the row space), so R = det B^-1 S_B = +-u adj(B) S_B, u a
      unit: by the kernel's Sylvester claim
      (``linalg._echelon_fraction_free``) det is +-u det B.  This is an
      identity of polynomials, and evaluation at omega is a ring
      homomorphism.
    * With det(omega) != 0, B(omega) is invertible, so R(omega) / det(omega)
      = B(omega)^-1 S_B(omega): the identity in the pivot columns, zero
      left of each pivot (zero polynomials there), so in reduced row
      echelon form, and spanning the row space of S_B(omega), of rank r.
      S(omega) has rank at most r, as every (r+1)-minor of S vanishes
      identically, so that is the row space of S(omega).  The reduced row
      echelon form is unique: R(omega) is det(omega) times that of
      [E(omega) | kappa], with the generic pivot columns.

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
    character.  The cost is about 2n evaluations on integer coordinates
    (``characters._at_torsion``), where the zero tests of det(omega) and
    the P_f(omega) read the coordinates, one adjugate of det(omega)
    (``fields._adjugate``: det(omega) adj = norm, a positive integer) and
    one product with adj per witness entry and for the value, with no
    elimination.  Only the witness entries and the value are brought to
    lowest terms.

    Where det vanishes at omega, ``solve_at`` runs Gauss-Jordan
    (``linalg.solve``) on the record's rows at omega, by the first bullet
    nonzero multiples of the rows of [E(omega) | kappa]: the same reduced
    row echelon form, so the direct solve's solution and kernel, which
    ``_read_off`` pairs with kappa itself.  No E(omega) is formed, and the
    answer is the direct path's, storage included.
    """

    __slots__ = ("mu", "n", "kappa", "rows", "det", "pairings", "numerators", "value",
                 "pivots")

    def __init__(self, presentation):
        """Eliminate [E(w) | kappa] of a presentation and keep the derived
        parts."""
        mu, n, kappa = presentation.mu, presentation.n, presentation.kappa
        scaled = symbolic_rows(presentation)
        rows, pivots, self.pivots = linalg._echelon_fraction_free(scaled, n + 1, mu)
        pivot_cols = [c for c in pivots if c < n]
        self.mu, self.n, self.kappa = mu, n, kappa
        self.rows = [row for _, row in scaled]
        self.det = self.pivots[-1] if self.pivots else LaurentPoly.one(mu)
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
        if n not in pivots:
            self.numerators = [(c, rows[r][n]) for r, c in enumerate(pivot_cols)]
            self.value = LaurentPoly.zero(mu)
            for c, num in self.numerators:
                if kappa[c]:
                    self.value = self.value + num * kappa[c]

    def _unless_finite(self, in_annihilator, certificate=None):
        """The slope when one membership fails, else None."""
        in_image = self.numerators is not None
        if in_image and in_annihilator:
            return None
        kind = INFINITY if in_image == in_annihilator else UNDEFINED
        report = CaseReport(in_image, in_annihilator)
        return SlopeValue(kind, None, None, report, False, certificate)

    def at(self, omega):
        """The slope at a torsion character with no coordinate 1: read off
        where det does not vanish there, else ``solve_at``."""
        n, ks = omega.conductor, omega.exponents
        det, det_den = _at_torsion(self.det, n, ks)
        if not any(det):
            return self.solve_at(omega)
        in_annihilator = not any(any(_at_torsion(p, n, ks)[0]) for p in self.pairings)
        sv = self._unless_finite(in_annihilator)
        if sv is not None:
            return sv
        adj, norm = _adjugate(det, n)

        def over_det(p, scale):
            # with p(omega) = num / den and det(omega) = det / det_den,
            # +-p(omega) / det(omega) = num (+-det_den) adj / (den norm)
            num, den = _at_torsion(p, n, ks)
            num = [scale * c for c in _times(num, adj, n)]
            return CyclotomicNumber._from_ints(n, num, den * norm)

        witness = [CyclotomicNumber.zero(n)] * self.n
        for c, num in self.numerators:
            witness[c] = over_det(num, det_den)
        value = over_det(self.value, -det_den)
        return SlopeValue(FINITE, value, tuple(witness), CaseReport(True, True))

    def solve_at(self, omega):
        """The slope at a torsion character with no coordinate 1 where det
        vanishes: Gauss-Jordan on the rows at omega."""
        ctx = Cyclotomic(omega.conductor)
        rows = [[evaluate_at_torsion(x, omega) for x in row] for row in self.rows]
        sol = solve(Matrix(ctx, [row[:-1] for row in rows], cols=self.n),
                    [row[-1] for row in rows])
        return _read_off(sol, [ctx.from_int(k) for k in self.kappa], ctx)

    def symbolic(self):
        """The slope over the rational function field, with no
        specialization: the P_f, num_c and V themselves over det."""
        certificate = _certificate(self.pivots, self.mu)
        sv = self._unless_finite(not any(self.pairings), certificate)
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
        return SlopeValue(FINITE, value, tuple(witness), report, False, certificate)


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
    _refuse_linked(presentation)
    if omega.mu != presentation.mu:
        raise UsageError("character length does not match the presentation")
    if isinstance(ctx, RationalFunctionField):
        return _record(presentation).symbolic()
    if isinstance(ctx, Cyclotomic):
        if any(k % omega.conductor == 0 for k in omega.exponents):
            raise UnsupportedHypothesisError(
                "vanishing character coordinate (omega_i = 1): patching is not supported"
            )
        return _record(presentation).at(omega)
    return _direct(presentation, omega, ctx)


def _direct(presentation, omega, ctx):
    """The slope at omega by a solve of E(omega) in ``ctx``, with no record
    and no checks: the caller has validated the presentation and omega.
    It serves numeric characters."""
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
    record.  Every torsion request reads the presentation's record: where
    its det does not vanish at the character the answer is read off, and
    where it does, Gauss-Jordan runs in Q(zeta_N) on the record's rows at
    the character.  Either way the answer is the direct solve's, storage
    included.
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

    At a torsion character the Cimasoni-Florens matrix H = |P|^2 E(omega)
    (``characters.hermitian_at_torsion``) is built on integers instead of
    E; it is exactly Hermitian under the transpose symmetry.  One
    congruence diagonalization H = L D L* (``linalg.hermitian_inertia``)
    gives both answers exactly: by Sylvester's law of inertia the signs of
    D count the positive and negative eigenvalues of E, and its zero block
    has the size of Ker E, so sigma = n_plus - n_minus and
    eta = dim Ker E + b0 - 1.  Neither tolerance is read there, but both
    are still checked, ``tol`` first.

    At a numeric character E is built in ApproxComplex: the nullity comes
    from its approximate rank, and the signature counts the eigenvalues of
    the float matrix above ``tol_sig`` and below ``-tol_sig``, exactly, by
    the same law of inertia over Q(i) (``linalg.hermitian_signature``).  At
    a torsion character whose H is not exactly Hermitian (possible only
    without the transpose check) E(omega) is built in Q(zeta_N) and takes
    the same path, with its exact rank, after mapping to ApproxComplex,
    where it is refused unless Hermitian within tolerance.
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
    if ctx.is_exact:
        m = Matrix(ctx, hermitian_at_torsion(presentation, omega), cols=presentation.n)
    else:
        m = build_E(presentation, omega, ctx)
    # both tolerances are checked at every character, tol first, although
    # the exact factorization reads neither
    resolve_tolerance(tol)
    _check_tol_sig(tol_sig)
    counts = hermitian_inertia(m) if ctx.is_exact else None
    if counts is None:
        # H has the rank of E; the approximate signature reads E itself
        kernel = presentation.n - rank(m)
        if ctx.is_exact:
            e = build_E(presentation, omega, ctx)
            m = e.map(lambda x: x.to_complex(), ctx=ApproxComplex(tol))
        counts = hermitian_signature(m, tol_sig=tol_sig)
    else:
        kernel = counts[2]
    eta = kernel + presentation.b0 - 1
    return SignatureResult(counts[0] - counts[1], eta, counts, True, ctx.is_exact)


ZERO_CERT_ORDERS = (2, 3, 4, 5, 8, 9)


def _battery(mu):
    """The characters of ``certify_zero_slope``'s battery, as pairs
    (conductor, exponents)."""
    for orders in itertools.product(ZERO_CERT_ORDERS, repeat=mu):
        conductor = lcm(*orders)
        yield conductor, tuple(conductor // o for o in orders)


def certify_zero_slope(presentation):
    """True iff the symbolic slope is the zero function and the pointwise
    slope is exactly zero at the battery of prime-power torsion characters
    (all coordinate orders in {2,3,4,5,8,9}).

    This certifies that the computed slope function vanishes; it does not
    certify sliceness.

    Like ``slope_symbolic``, it refuses an invalid presentation, then a
    nonzero linking vector, with the same messages.  It then asks the
    presentation's record (``_Elimination``), built at its first request
    and left in the memo, and forms no symbolic slope.  The symbolic slope
    is the zero function iff column n holds no pivot (``numerators`` is
    not None), every pairing numerator P_f is the zero polynomial and so
    is the value numerator V:

    * ``slope_symbolic`` returns the record's ``symbolic()``, which is of
      the finite kind iff kappa is in the image, which is column n
      holding no pivot, and in the annihilator of the kernel, which is
      every P_f being zero.
    * Its value is -V / det, reduced.  det is a nonzero polynomial (a
      pivot, or 1), and the Laurent ring is a domain, so -V / det is the
      zero function iff V is the zero polynomial.

    Only battery characters where det vanishes get a solve: Gauss-Jordan
    on the record's rows at omega (``_Elimination.solve_at``), the only
    battery points for which a ``Character`` is built.  No battery
    coordinate is 1, so ``slope_at``'s checks are not repeated.  At every
    other one the pointwise slope is the specialization of the symbolic
    one, by the proof in ``_Elimination``'s docstring, which needs only
    det(omega) != 0: finite, with value -V(omega) / det(omega) = 0.

    det(omega) != 0 is proved by a checked modular image
    (``characters._nonzero_at_torsion``): t -> g with Phi_N(g) = 0 modulo
    q is a ring homomorphism Z[zeta_N] -> Z/q, so a nonzero image of
    det(omega) proves det(omega) nonzero, and omega passes without a
    solve.  Only a zero image falls back to det's integer coordinates
    (``characters._at_torsion``), which decide exactly.
    """
    _refuse_invalid(presentation)
    _refuse_linked(presentation)
    record = _record(presentation)
    if record.numerators is None or any(record.pairings) or record.value:
        return False
    for conductor, exponents in _battery(presentation.mu):
        if _nonzero_at_torsion(record.det, conductor, exponents):
            continue
        point = record.solve_at(Character.root_of_unity(conductor, exponents))
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
