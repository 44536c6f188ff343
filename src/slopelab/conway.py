"""Slope evaluation through user-supplied Conway functions.

The data consists of two Laurent polynomials in square-root variables:
``nabla_kl`` in s0, s1, ..., smu (with s0^2 standing for the distinguished
variable and s_i^2 for omega_i) and ``nabla_l`` in s1, ..., smu.  The
quotient formula evaluates

    -D(sigma) / (2 * nabla_l(sigma)),   D = (1/(2 s0)) d(nabla_kl)/d(s0) at s0 = 1,

at explicitly chosen square roots sigma_i of the character coordinates.
When numerator and denominator both vanish the formula is inconclusive;
that outcome is reported as such and never coerced to 0 or infinity.

Square-root branches are deliberately explicit: the caller supplies sigma,
and for data even in every variable the result is checked independent of
the branch choice (see tests).  The same explicitness settles the other
notational ambiguity of the formula, whether the argument of nabla_L is
the square root or the character itself: callers pick the reading by
choosing sigma (sigma_i = sqrt(omega_i) for the first, sigma_i = omega_i
for the second); nothing is hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characters import (
    Character,
    default_context_for,
    embed_character,
    sample_safe_characters,
)
from .datasets import read_json
from .errors import (
    InvalidPresentationError,
    UnsupportedHypothesisError,
    UsageError,
)
from .fields import Cyclotomic
from .laurent import LaurentPoly
from .seifert import _as_int, validate
from .slope import FINITE, INFINITY, slope_at

INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConwayData:
    """Conway functions of the full link and of the undistinguished part."""

    mu: int
    nabla_kl: LaurentPoly
    nabla_l: LaurentPoly
    label: str = ""

    @staticmethod
    def build(mu, nabla_kl, nabla_l, label=""):
        mu = _as_int(mu, "mu")
        if mu < 1:
            raise UsageError("mu must be at least 1")
        if nabla_kl.num_vars != mu + 1:
            raise UsageError(
                f"nabla_KL must use {mu + 1} square-root variables s0..s{mu}"
            )
        if nabla_l.num_vars != mu:
            raise UsageError(f"nabla_L must use {mu} square-root variables s1..s{mu}")
        return ConwayData(mu, nabla_kl, nabla_l, str(label))


def derivative_at_one(data):
    """(1/(2 s0)) d(nabla_kl)/d(s0), evaluated at s0 = 1.

    Term by term: c * s0^e0 * rest contributes c * e0/2 * rest.
    """
    terms = {}
    for exps, coeff in data.nabla_kl.terms.items():
        e0 = exps[0]
        if e0 == 0:
            continue
        rest = exps[1:]
        c = terms.get(rest, Fraction(0)) + coeff * Fraction(e0, 2)
        if c:
            terms[rest] = c
        elif rest in terms:
            del terms[rest]
    return LaurentPoly(data.mu, terms)


@dataclass(frozen=True)
class ConwayValue:
    kind: str  # finite | infinity | inconclusive
    value: object | None
    numerator: object
    denominator: object


def conway_quotient(data, sqrt_char, ctx=None):
    """Evaluate the quotient at the square roots sigma (sigma_i^2 = omega_i).

    ``sqrt_char`` is a character supplying the sigma_i explicitly; the
    underlying omega must be non-vanishing (sigma_i != +-1).
    """
    if sqrt_char is None:
        raise UsageError("explicit square roots sigma are required")
    if sqrt_char.mu != data.mu:
        raise UsageError("square-root character length does not match the data")
    if ctx is None:
        ctx = default_context_for(sqrt_char)
    sigma = embed_character(sqrt_char, ctx)
    for s in sigma:
        if ctx.is_zero(s * s - ctx.one):
            raise UnsupportedHypothesisError(
                "sigma_i^2 = 1 means a vanishing character coordinate; "
                "patching is not supported"
            )
    nu = derivative_at_one(data).evaluate(sigma, zero=ctx.zero)
    delta = ctx.from_int(2) * data.nabla_l.evaluate(sigma, zero=ctx.zero)
    nu_zero = ctx.is_zero(nu)
    delta_zero = ctx.is_zero(delta)
    if not delta_zero:
        return ConwayValue(FINITE, -(nu * ctx.invert(delta)), nu, delta)
    if not nu_zero:
        return ConwayValue(INFINITY, None, nu, delta)
    return ConwayValue(INCONCLUSIVE, None, nu, delta)


def canonical_sqrt(omega):
    """The square-root character zeta_{2N}^k for omega = zeta_N^k."""
    if omega.kind != "zeta":
        raise UsageError("canonical square roots only exist for torsion characters")
    return Character.root_of_unity(2 * omega.conductor, omega.exponents)


@dataclass(frozen=True)
class CrossCheckPoint:
    omega: Character
    sqrt: Character
    slope_kind: str
    slope_value: object | None
    conway_kind: str
    conway_value: object | None
    agree: bool | None  # None means skipped (inconclusive quotient)


@dataclass(frozen=True)
class CrossCheckReport:
    points: tuple
    agreements: int
    disagreements: int
    skipped: int


def cross_check(presentation, data, trials, seed=0):
    """Compare the operator slope and the Conway quotient on sampled
    prime-power torsion characters.  Disagreements are report content,
    not errors; inconclusive quotient points are skipped."""
    violations = validate(presentation)
    if violations:
        raise InvalidPresentationError(violations)
    if not presentation.linking_is_zero():
        raise UnsupportedHypothesisError(
            "cross-check requires a vanishing linking vector"
        )
    if presentation.mu != data.mu:
        raise UsageError("presentation and Conway data have different mu")
    characters = sample_safe_characters(
        presentation.mu, presentation.linking, trials, seed=seed
    )
    points = []
    agreements = disagreements = skipped = 0
    for omega in characters:
        sqrt = canonical_sqrt(omega)
        ctx = Cyclotomic(sqrt.conductor)
        lifted = Character.root_of_unity(
            sqrt.conductor, tuple(2 * k for k in omega.exponents)
        )
        sv = slope_at(presentation, lifted, ctx)
        cv = conway_quotient(data, sqrt, ctx)
        if cv.kind == INCONCLUSIVE:
            agree = None
            skipped += 1
        elif sv.kind == FINITE and cv.kind == FINITE:
            agree = ctx.eq(sv.value, cv.value)
        else:
            agree = sv.kind == cv.kind
        if agree is True:
            agreements += 1
        elif agree is False:
            disagreements += 1
        points.append(
            CrossCheckPoint(omega, sqrt, sv.kind, sv.value, cv.kind, cv.value, agree)
        )
    return CrossCheckReport(tuple(points), agreements, disagreements, skipped)


# -- JSON format -------------------------------------------------------------------


def _poly_from_monomials(monomials, num_vars, what):
    if not isinstance(monomials, list):
        raise UsageError(f"{what} must be a list of monomials, got {monomials!r}")
    terms = {}
    for m in monomials:
        try:
            coeff = Fraction(str(m["coeff"]))
            exps = tuple(int(e) for e in m["exps"])
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"{what}: bad monomial {m!r}") from exc
        if len(exps) != num_vars:
            raise UsageError(
                f"{what}: exponent vector {exps} should have length {num_vars}"
            )
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return LaurentPoly(num_vars, terms)


def conway_from_dict(payload):
    if not isinstance(payload, dict):
        raise UsageError("Conway dataset must be a JSON object")
    try:
        mu = payload["mu"]
        kl = payload["nabla_KL"]
        l = payload["nabla_L"]
    except KeyError as exc:
        raise UsageError(f"Conway dataset is missing field {exc.args[0]!r}") from exc
    mu = _as_int(mu, "mu")
    nabla_kl = _poly_from_monomials(kl, mu + 1, "nabla_KL")
    nabla_l = _poly_from_monomials(l, mu, "nabla_L")
    return ConwayData.build(mu, nabla_kl, nabla_l, payload.get("label", ""))


def load_conway(path):
    return conway_from_dict(read_json(path))
