import cmath
from fractions import Fraction

import pytest

from slopelab.characters import (
    NOT_ROOT,
    ROOT,
    UNKNOWN,
    Character,
    components,
    concordance_root_status,
    embed_character,
    is_admissible,
    sample_safe_characters,
    verify_root_witness,
)
from slopelab.errors import ContextMismatchError, UsageError
from slopelab.fields import ApproxComplex, Cyclotomic, RationalFunctionField
from slopelab.laurent import LaurentPoly, cyclotomic_minimal_poly, normalize_poly


# -- character basics -------------------------------------------------------------


def test_root_of_unity_normalization_and_order():
    ch = Character.root_of_unity(12, (14, -3))
    assert ch.exponents == (2, 9)
    assert ch.exact_order() == 12
    assert Character.root_of_unity(12, (4, 8)).exact_order() == 3
    assert Character.root_of_unity(12, (4, 8)).reduced() == Character.root_of_unity(3, (1, 2))


def test_nonvanishing_and_unitary():
    assert Character.symbolic(2).is_nonvanishing()
    assert Character.root_of_unity(5, (1, 2)).is_nonvanishing()
    assert not Character.root_of_unity(5, (0, 2)).is_nonvanishing()
    assert Character.root_of_unity(5, (1, 2)).is_unitary()
    assert Character.numeric([1j]).is_unitary()
    assert not Character.numeric([2 + 0j]).is_unitary()
    assert Character.numeric([2 + 0j]).is_nonvanishing()
    assert not Character.numeric([1 + 0j]).is_nonvanishing()


def test_inverse_and_conjugate():
    ch = Character.root_of_unity(7, (2, 3))
    assert ch.inverse().exponents == (5, 4)
    assert ch.conjugate() == ch.inverse()
    assert ch.conjugate().inverse() == ch
    num = Character.numeric([0.5 + 0.5j])
    assert abs(num.inverse().values[0] - 1 / (0.5 + 0.5j)) < 1e-15


def test_embedding():
    ch = Character.root_of_unity(6, (1,))
    ctx = Cyclotomic(6)
    (z,) = embed_character(ch, ctx)
    assert z == ctx.zeta(1)
    (z12,) = embed_character(ch, Cyclotomic(12))
    assert z12 == Cyclotomic(12).zeta(2)
    (approx,) = embed_character(ch, ApproxComplex())
    assert abs(approx - cmath.exp(1j * cmath.pi / 3)) < 1e-12
    with pytest.raises(ContextMismatchError):
        embed_character(ch, Cyclotomic(4))
    with pytest.raises(ContextMismatchError):
        embed_character(Character.symbolic(2), RationalFunctionField(1))


# -- admissibility ------------------------------------------------------------------


def test_admissible_lambda_zero_always():
    assert is_admissible(Character.symbolic(3), (0, 0, 0))
    assert is_admissible(Character.root_of_unity(5, (1, 2, 3)), (0, 0, 0))


def test_admissible_examples():
    # omega = (i, i), lambda = (2, -2): i^2 * i^-2 = 1
    assert is_admissible(Character.root_of_unity(4, (1, 1)), (2, -2))
    # omega = (zeta3, zeta5), lambda = (1, 0): zeta3 != 1
    assert not is_admissible(Character.root_of_unity(15, (5, 3)), (1, 0))
    assert is_admissible(Character.numeric([1j, 1j]), (2, -2))


# -- components ---------------------------------------------------------------------


def test_components_lambda_zero():
    comps = components((0, 0))
    assert len(comps) == 1
    assert comps[0].d == 0
    assert comps[0].defining_poly.is_zero()


def test_components_divisor_enumeration():
    comps = components((4, -2))
    assert [c.d for c in comps] == [1, 2]
    assert comps[0].lambda_prime == (2, -1)
    assert comps[0].multiplicity == 2
    m = LaurentPoly.monomial(2, (2, -1))
    assert comps[0].defining_poly == m - 1
    assert comps[1].defining_poly == m + 1

    comps3 = components((3, 0, 0))
    assert [c.d for c in comps3] == [1, 3]
    assert comps3[0].lambda_prime == (1, 0, 0)
    assert comps3[0].multiplicity == 3


def test_components_sign_normalization():
    comps = components((-3, 0))
    assert comps[0].lambda_prime == (1, 0)
    assert comps[0].multiplicity == -3
    assert [c.d for c in comps] == [1, 3]


def test_components_product_identity():
    # product of defining polynomials = w^(n lambda') - 1 up to a monomial unit
    for linking in ((4, -2), (6,), (2, 2)):
        comps = components(linking)
        mu = len(linking)
        prod = LaurentPoly.one(mu)
        for c in comps:
            prod = prod * c.defining_poly
        n = comps[0].multiplicity
        lam_p = comps[0].lambda_prime
        target = LaurentPoly.monomial(mu, tuple(n * x for x in lam_p)) - 1
        assert normalize_poly(prod) == normalize_poly(target)


# -- concordance roots -----------------------------------------------------------------


def test_root_status_zeta6():
    st = concordance_root_status(Character.root_of_unity(6, (1,)))
    assert st.status == ROOT
    assert st.witness == cyclotomic_minimal_poly(6).evaluate(
        [LaurentPoly.var(1, 0)], zero=LaurentPoly.zero(1)
    )
    assert verify_root_witness(Character.root_of_unity(6, (1,)), st.witness)


def test_root_status_zeta8_not_root():
    st = concordance_root_status(Character.root_of_unity(8, (1,)))
    assert st.status == NOT_ROOT
    assert st.order == 8


def test_root_status_multivariate_order12():
    ch = Character.root_of_unity(12, (1, 5))
    assert ch.exact_order() == 12
    st = concordance_root_status(ch)
    assert st.status == ROOT
    assert verify_root_witness(ch, st.witness)


def test_root_status_trivial_and_non_torsion():
    assert concordance_root_status(Character.root_of_unity(5, (0,))).status == UNKNOWN
    assert concordance_root_status(Character.symbolic(1)).status == UNKNOWN
    assert concordance_root_status(Character.numeric([0.3 + 1j])).status == UNKNOWN


def test_root_witness_is_unit_at_one_and_vanishes():
    for spec in ((6, (1,)), (10, (3,)), (12, (1, 5)), (15, (1, 2)), (12, (2, 3))):
        ch = Character.root_of_unity(*spec)
        st = concordance_root_status(ch)
        if st.status != ROOT:
            continue
        at_one = st.witness.evaluate([Fraction(1)] * ch.mu)
        assert at_one in (1, -1)
        assert verify_root_witness(ch, st.witness)


def test_exhaustive_small_annihilator_search_for_zeta8():
    """No integral Laurent polynomial of small degree kills zeta_8 while
    being a unit at 1 (independent confirmation of the prime-power rule)."""
    import itertools

    z = Cyclotomic(8).zeta(1)
    found = False
    for coeffs in itertools.product(range(-2, 3), repeat=5):
        if sum(coeffs) not in (1, -1):
            continue
        value = Cyclotomic(8).zero
        for k, c in enumerate(coeffs):
            if c:
                value = value + z ** k * c
        if value.is_zero():
            found = True
            break
    assert not found


# -- sampling ------------------------------------------------------------------------


def test_sample_lambda_zero_orders():
    chars = sample_safe_characters(1, (0,), 3, seed=0)
    assert len(chars) == 3
    orders = sorted(c.exact_order() for c in chars)
    assert orders == [2, 3, 4]


def test_sample_admissible_filter():
    chars = sample_safe_characters(2, (1, 1), 2, seed=1)
    assert len(chars) == 2
    for ch in chars:
        assert is_admissible(ch, (1, 1))
        assert ch.is_nonvanishing()
        assert concordance_root_status(ch).status == NOT_ROOT


def test_sample_budget_zero():
    assert sample_safe_characters(1, (0,), 0) == []


def test_sample_deterministic_given_seed():
    a = sample_safe_characters(2, (0, 0), 5, seed=42)
    b = sample_safe_characters(2, (0, 0), 5, seed=42)
    assert a == b


def test_sample_every_output_safe():
    for seed in (0, 1, 2):
        for ch in sample_safe_characters(2, (2, -2), 4, seed=seed):
            assert is_admissible(ch, (2, -2))
            assert ch.is_nonvanishing()
            assert concordance_root_status(ch).status == NOT_ROOT
