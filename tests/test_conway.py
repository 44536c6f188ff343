import cmath
from fractions import Fraction

import pytest

from slopelab.characters import Character
from slopelab.conway import (
    INCONCLUSIVE,
    ConwayData,
    canonical_sqrt,
    conway_quotient,
    conway_from_dict,
    cross_check,
    derivative_at_one,
    load_conway,
)
from slopelab.datasets import builtin_path
from slopelab.errors import UnsupportedHypothesisError, UsageError
from slopelab.fields import ApproxComplex, Cyclotomic, RationalFunctionField, RatFunc
from slopelab.laurent import LaurentPoly
from slopelab.seifert import CComplexPresentation
from slopelab.slope import FINITE, INFINITY


def l10n36():
    return load_conway(builtin_path("l10n36_conway.json"))


def whitehead_conway():
    """Conway pair consistent with the Whitehead slope (1-w)(1-w^-1)."""
    s0 = LaurentPoly.var(2, 0)
    s1 = LaurentPoly.var(2, 1)
    g = LaurentPoly.var(1, 0) - LaurentPoly.var(1, 0).subst_inverse()
    nabla_kl = (s0 ** 2 - s0 ** -2) * (s1 - s1.subst_inverse()) ** 3
    return ConwayData.build(1, nabla_kl, g, label="whitehead conway pair")


def test_data_shape_validation():
    with pytest.raises(UsageError):
        ConwayData.build(1, LaurentPoly.one(1), LaurentPoly.one(1))
    with pytest.raises(UsageError):
        ConwayData.build(1, LaurentPoly.one(2), LaurentPoly.one(2))


def test_derivative_at_one():
    # d/dt at t=1 through t = s0^2: term c*s0^e picks up c*e/2
    s0 = LaurentPoly.var(2, 0)
    s1 = LaurentPoly.var(2, 1)
    data = ConwayData.build(1, s0 ** 4 * s1 - 3 * s0 ** -2, LaurentPoly.one(1))
    d = derivative_at_one(data)
    t = LaurentPoly.var(1, 0)
    assert d == 2 * t + 3


def test_derivative_ignores_s0_free_part():
    s1 = LaurentPoly.var(2, 1)
    data = ConwayData.build(1, s1 ** 2 - 5 * s1.subst_inverse(), LaurentPoly.one(1))
    assert derivative_at_one(data).is_zero()
    v = conway_quotient(data, Character.root_of_unity(10, (1,)))
    assert v.kind == FINITE
    assert v.value.is_zero()


def test_l10n36_generic_values_zero():
    data = l10n36()
    for conductor, k in ((10, 1), (8, 1), (5, 1), (4, 1), (7, 2)):
        sigma = Character.root_of_unity(conductor, (k,))
        v = conway_quotient(data, sigma)
        assert v.kind == FINITE
        assert v.value.is_zero()


def test_l10n36_inconclusive_exactly_at_common_roots():
    data = l10n36()
    for k in (1, 5):
        v = conway_quotient(data, Character.root_of_unity(6, (k,)))
        assert v.kind == INCONCLUSIVE
        assert v.value is None
    # neighbors of the roots are conclusive
    for conductor, k in ((12, 1), (12, 5), (10, 3)):
        v = conway_quotient(data, Character.root_of_unity(conductor, (k,)))
        assert v.kind == FINITE


def test_inconclusive_never_coerced():
    data = l10n36()
    v = conway_quotient(data, Character.root_of_unity(6, (1,)))
    assert v.kind == INCONCLUSIVE
    assert v.value is None


def test_synthetic_identity_quotient():
    s0 = LaurentPoly.var(2, 0)
    s1 = LaurentPoly.var(2, 1)
    g2 = s1 - s1.subst_inverse()
    g1 = LaurentPoly.var(1, 0) - LaurentPoly.var(1, 0).subst_inverse()
    data = ConwayData.build(1, s0 ** 2 * g2 - s0 ** -2 * g2, g1)
    ctx = RationalFunctionField(1, prefix="s")
    v = conway_quotient(data, Character.symbolic(1), ctx)
    assert v.kind == FINITE
    assert v.value == RatFunc.const(1, -1)
    # pointwise too
    v2 = conway_quotient(data, Character.root_of_unity(8, (1,)))
    assert v2.kind == FINITE
    assert v2.value == Cyclotomic(8).from_int(-1)


def test_infinity_case():
    s0 = LaurentPoly.var(2, 0)
    one1 = LaurentPoly.one(1)
    data = ConwayData.build(1, s0 ** 2, LaurentPoly.zero(1))
    v = conway_quotient(data, Character.root_of_unity(8, (1,)))
    assert v.kind == INFINITY
    assert v.value is None


def test_outcomes_exclusive():
    seen = set()
    s0 = LaurentPoly.var(2, 0)
    datasets = [
        ConwayData.build(1, s0 ** 2, LaurentPoly.one(1)),
        ConwayData.build(1, s0 ** 2, LaurentPoly.zero(1)),
        ConwayData.build(1, LaurentPoly.zero(2), LaurentPoly.zero(1)),
    ]
    for data in datasets:
        v = conway_quotient(data, Character.root_of_unity(8, (1,)))
        seen.add(v.kind)
        assert v.kind in (FINITE, INFINITY, INCONCLUSIVE)
    assert seen == {FINITE, INFINITY, INCONCLUSIVE}


def test_missing_sqrt_rejected():
    with pytest.raises(UsageError):
        conway_quotient(l10n36(), None)


def test_vanishing_omega_rejected():
    # sigma = -1 means omega = 1
    with pytest.raises(UnsupportedHypothesisError):
        conway_quotient(l10n36(), Character.root_of_unity(2, (1,)))


def test_sqrt_flip_invariance_for_even_data():
    """For data even in every s_i, sigma_i -> -sigma_i leaves everything."""
    s0 = LaurentPoly.var(2, 0)
    s1 = LaurentPoly.var(2, 1)
    even_kl = s0 ** 2 * s1 ** 2 - 3 * s0 ** -2 + s1 ** 4
    even_l = LaurentPoly.var(1, 0) ** 2 + 1
    data = ConwayData.build(1, even_kl, even_l)
    ctx = ApproxComplex()
    for angle in (0.13, 0.29, 0.41):
        sigma = cmath.exp(2j * cmath.pi * angle)
        a = conway_quotient(data, Character.numeric([sigma]), ctx)
        b = conway_quotient(data, Character.numeric([-sigma]), ctx)
        assert a.kind == b.kind == FINITE
        assert abs(a.value - b.value) < 1e-9


def test_canonical_sqrt():
    omega = Character.root_of_unity(5, (2,))
    sigma = canonical_sqrt(omega)
    assert sigma.conductor == 10
    squared = Character.root_of_unity(10, tuple(2 * k for k in sigma.exponents))
    assert squared.reduced() == omega.reduced()


# -- cross-check -----------------------------------------------------------------------


def test_cross_check_whitehead_agrees(whitehead):
    report = cross_check(whitehead, whitehead_conway(), trials=5, seed=0)
    assert len(report.points) == 5
    assert report.disagreements == 0
    assert report.agreements == 5 - report.skipped
    assert all(pt.agree is not False for pt in report.points)


def test_cross_check_corrupted_numerator_disagrees_everywhere(whitehead):
    good = whitehead_conway()
    corrupted = ConwayData.build(1, 2 * good.nabla_kl, good.nabla_l)
    report = cross_check(whitehead, corrupted, trials=4, seed=0)
    assert report.disagreements == len(report.points) - report.skipped
    assert report.disagreements > 0
    assert any(pt.agree is False for pt in report.points)


def test_cross_check_zero_trials(whitehead):
    report = cross_check(whitehead, whitehead_conway(), trials=0)
    assert report.points == ()
    assert report.agreements == report.disagreements == report.skipped == 0


def test_cross_check_requires_matching_mu(whitehead):
    s0 = LaurentPoly.var(3, 0)
    data = ConwayData.build(2, s0, LaurentPoly.one(2))
    with pytest.raises(UsageError):
        cross_check(whitehead, data, trials=1)


# -- JSON ------------------------------------------------------------------------------


def test_json_round_trip(tmp_path):
    data = whitehead_conway()
    def monomials(p):
        return [{"coeff": str(c), "exps": list(e)} for e, c in sorted(p.terms.items())]

    payload = {"mu": data.mu, "nabla_KL": monomials(data.nabla_kl), "nabla_L": monomials(data.nabla_l)}
    again = conway_from_dict(payload)
    assert again.nabla_kl == data.nabla_kl
    assert again.nabla_l == data.nabla_l


def test_l10n36_file_contents():
    data = l10n36()
    assert data.mu == 1
    assert data.nabla_kl.is_zero()
    s = LaurentPoly.var(1, 0)
    assert data.nabla_l == (s - 1 + s.subst_inverse()) ** 2


def test_bad_monomial_rejected():
    with pytest.raises(UsageError):
        conway_from_dict(
            {"mu": 1, "nabla_KL": [{"coeff": "1", "exps": [1]}], "nabla_L": []}
        )
