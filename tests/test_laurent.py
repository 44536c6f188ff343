import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopelab.errors import UsageError
from slopelab.fields import RatFunc
from slopelab.laurent import (
    LaurentPoly,
    _cyclotomic_coeffs,
    cyclotomic_minimal_poly,
    divisors,
    euler_phi,
    exact_div,
    is_prime_power,
    normalize_poly,
    poly_gcd,
    poly_lcm,
)

from conftest import random_laurent, random_nonzero_laurent


def laurent_strategy(num_vars, exp_range=2, coeff_range=5, max_terms=4):
    term = st.tuples(
        st.tuples(*[st.integers(-exp_range, exp_range)] * num_vars),
        st.integers(-coeff_range, coeff_range),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda pairs: LaurentPoly(num_vars, pairs)
    )


def test_no_zero_coefficients_stored():
    p = LaurentPoly(1, {(0,): 1, (1,): 0})
    assert (1,) not in p.terms
    assert (p - p).is_zero()


def test_mul_golden_square():
    t = LaurentPoly.var(1, 0)
    p = t - 1 + t ** -1
    sq = p * p
    assert sq == LaurentPoly(1, {(2,): 1, (1,): -2, (0,): 3, (-1,): -2, (-2,): 1})
    assert sq.render() == "w1^-2 - 2*w1^-1 + 3 - 2*w1 + w1^2"


def test_additive_identity():
    t = LaurentPoly.var(2, 1)
    p = 3 * t - t ** -2
    assert p + LaurentPoly.zero(2) == p


def test_mismatched_num_vars_rejected():
    with pytest.raises(UsageError):
        LaurentPoly.var(1, 0) + LaurentPoly.var(2, 0)
    with pytest.raises(UsageError):
        LaurentPoly.var(1, 0) * LaurentPoly.var(2, 0)


def test_evaluation_oracle_product():
    # (p*q)(x) = p(x) q(x) at random rational points
    rng = random.Random(7)
    for _ in range(10):
        p = random_laurent(rng, 2)
        q = random_laurent(rng, 2)
        point = [
            Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)
        ]
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


@settings(max_examples=60)
@given(laurent_strategy(2), laurent_strategy(2), laurent_strategy(2))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * LaurentPoly.one(2) == p
    assert p + (-p) == LaurentPoly.zero(2)


def test_pow_and_units():
    t = LaurentPoly.var(1, 0)
    assert t ** -3 == LaurentPoly.monomial(1, (-3,))
    m = LaurentPoly.monomial(2, (1, -2), Fraction(3, 2))
    assert m * m.inverse_unit() == LaurentPoly.one(2)
    with pytest.raises(UsageError):
        (t + 1).inverse_unit()


def test_subst_inverse_and_derivative():
    t = LaurentPoly.var(1, 0)
    p = 2 * t ** 2 - t ** -1
    assert p.subst_inverse() == 2 * t ** -2 - t
    # the formal derivative, term by term
    derivative = LaurentPoly(1, {(e - 1,): c * e for (e,), c in p.terms.items() if e})
    assert derivative == 4 * t + t ** -2


def test_exact_div_laurent():
    t = LaurentPoly.var(1, 0)
    p = (t ** 2 - 1) * (t ** -1 + 3)
    assert exact_div(p, t ** -1 + 3) == t ** 2 - 1
    with pytest.raises(ArithmeticError):
        exact_div(t ** 2 + 1, t + 1)


def test_gcd_common_factor_random():
    rng = random.Random(11)
    for _ in range(25):
        g = random_nonzero_laurent(rng, 2, max_terms=3, exp_range=1)
        p = random_nonzero_laurent(rng, 2, max_terms=3, exp_range=1)
        q = random_nonzero_laurent(rng, 2, max_terms=3, exp_range=1)
        got = poly_gcd(p * g, q * g)
        # g divides the gcd (up to units)
        exact_div(got, poly_gcd(got, normalize_poly(g)))  # no exception
        assert exact_div(p * g, poly_gcd(p * g, q * g)) is not None


def test_lcm_divisible_by_both():
    t1, t2 = LaurentPoly.var(2, 0), LaurentPoly.var(2, 1)
    a = (t1 - 1) * (t2 + 1)
    b = (t1 - 1) * (t1 * t2 - 1)
    m = poly_lcm(a, b)
    exact_div(m, normalize_poly(a))
    exact_div(m, normalize_poly(b))


def test_cyclotomic_small_values():
    t = LaurentPoly.var(1, 0)
    assert cyclotomic_minimal_poly(1) == t - 1
    assert cyclotomic_minimal_poly(6) == t ** 2 - t + 1
    assert cyclotomic_minimal_poly(6).evaluate([Fraction(1)]) == 1
    assert cyclotomic_minimal_poly(9) == t ** 6 + t ** 3 + 1
    assert cyclotomic_minimal_poly(9).evaluate([Fraction(1)]) == 3


def test_cyclotomic_value_at_one():
    for n in range(2, 40):
        v = cyclotomic_minimal_poly(n).evaluate([Fraction(1)])
        if is_prime_power(n):
            assert v > 1
        else:
            assert v == 1


def test_cyclotomic_brute_force_oracle():
    # numeric product over primitive roots, rounded back to integers
    import cmath
    from math import gcd

    for n in (5, 8, 9, 10, 12, 15):
        coeffs = [1.0]
        for j in range(1, n + 1):
            if gcd(j, n) != 1:
                continue
            root = cmath.exp(2j * cmath.pi * j / n)
            coeffs = [0.0] + coeffs
            coeffs = [c - root * (coeffs[i + 1] if i + 1 < len(coeffs) else 0) for i, c in enumerate(coeffs)]
        # coeffs is lowest-degree first throughout
        expected = LaurentPoly(
            1,
            {(i,): round(c.real) for i, c in enumerate(coeffs) if round(c.real) != 0},
        )
        assert cyclotomic_minimal_poly(n) == expected
        assert len(cyclotomic_minimal_poly(n).terms) >= 2
        assert max(e[0] for e in cyclotomic_minimal_poly(n).terms) == euler_phi(n)


def test_cyclotomic_coeffs_pinned_and_divide_t_n_minus_one():
    # digest of the coefficient tuples for n = 1..200, pinned from an
    # independent dense integer division of t^n - 1 by every Phi_d, d | n, d < n
    table = [_cyclotomic_coeffs(n) for n in range(1, 201)]
    digest = hashlib.sha256(repr(table).encode()).hexdigest()
    assert digest == "b36b7d125fee9041ad83a3190743aa793312d5cd27add75b46f3696a403fb610"
    t = LaurentPoly.var(1, 0)
    for n in range(1, 201):
        product = LaurentPoly.one(1)
        for d in divisors(n):
            product = product * cyclotomic_minimal_poly(d)
        assert product == t ** n - 1


def test_divisors_and_prime_powers():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert [n for n in range(2, 20) if is_prime_power(n)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
    ]


def test_render_canonical_order():
    t1, t2 = LaurentPoly.var(2, 0), LaurentPoly.var(2, 1)
    p = t1 * t2 ** -1 - Fraction(1, 2) + 2 * t1 ** -1
    assert p.render() == "2*w1^-1 - 1/2 + w1*w2^-1"
    assert LaurentPoly.zero(2).render() == "0"
    assert p.render(names=["s1", "s2"]) == "2*s1^-1 - 1/2 + s1*s2^-1"


# -- coefficient storage: int when integral, Fraction otherwise ---------------


def _coeffs(*polys):
    return [c for p in polys for c in p.terms.values()]


def _all_int(*polys):
    return all(type(c) is int for c in _coeffs(*polys))


def test_integer_data_keeps_int_coefficients():
    rng = random.Random(5)
    lead = LaurentPoly.monomial(2, (3, 0))  # lex-leading coefficient 1 for q
    two_unit = LaurentPoly.monomial(2, (1, -1), 2)
    for _ in range(30):
        p = random_nonzero_laurent(rng, 2, max_terms=4, exp_range=2)
        q = random_nonzero_laurent(rng, 2, max_terms=3, exp_range=2) + lead
        # g normalized: the reduced denominator is q, so its unit factor is 1
        g = normalize_poly(random_nonzero_laurent(rng, 2, max_terms=3, exp_range=1))
        assert _all_int(p, q, g)
        results = [
            p + q,
            p - q,
            p * q,
            -3 * p,
            p * 6,
            p ** 3,
            q ** 2,
            LaurentPoly.monomial(2, (1, -1), -1) ** -3,
            p.shift((2, -1)),
            p.subst_inverse(),
            exact_div(p * q, q),
            normalize_poly(6 * p),
            poly_gcd(p * g, q * g),
            poly_lcm(p * g, q * g),
        ]
        assert _all_int(*results)
        r = RatFunc(p * g, q * g)
        assert _all_int(r.num, r.den)
        assert r == RatFunc(p, q)
        # the unit 2*w1*w2^-1 leaves lex-leading coefficient 2 on the
        # denominator; dividing it out must not turn integral values into Fractions
        r = RatFunc(p * two_unit, q * two_unit)
        assert _all_int(r.num, r.den)
        assert r == RatFunc(p, q)


def test_exact_div_by_non_primitive_divisor_is_exact():
    t = LaurentPoly.var(1, 0)
    half = exact_div(t + 1, 2 * t + 2)
    ((e, c),) = half.terms.items()
    assert e == (0,) and type(c) is Fraction and c == Fraction(1, 2)
    # -9/2 w^-1 + 3/2 w, from integer operands through the Fraction fallback
    got = exact_div(3 * (t ** 2 - 3) * (t + 1), t ** 2 * 2 + t * 2)
    assert got == LaurentPoly(1, {(-1,): Fraction(-9, 2), (1,): Fraction(3, 2)})
    assert [type(c) for _, c in sorted(got.terms.items())] == [Fraction, Fraction]
    assert exact_div(4 * t + 2, 2 * t + 1) == 2
    assert _all_int(exact_div(4 * t + 2, 2 * t + 1), (t * Fraction(1, 2)).inverse_unit())
    # no float is ever stored, nor accepted
    u = LaurentPoly(1, {(0,): Fraction(1, 3), (1,): 2})
    produced = [
        half,
        got,
        u * u,
        u * 3,
        u + half,
        exact_div(u * (t + 2), t + 2),
        (2 * t).inverse_unit(),
        normalize_poly(u),
        poly_gcd(u * (t + 1), 2 * t + 2),
    ]
    assert not any(isinstance(c, float) for c in _coeffs(*produced))
    with pytest.raises(UsageError):
        LaurentPoly(1, {(0,): 0.5})


def test_fraction_coefficients_agree_with_int_path():
    # the same polynomials scaled by non-integral rationals run the Fraction path
    rng = random.Random(17)
    third, two_fifths = Fraction(1, 3), Fraction(2, 5)
    for _ in range(25):
        p = random_nonzero_laurent(rng, 2, max_terms=4, exp_range=2)
        q = random_nonzero_laurent(rng, 2, max_terms=3, exp_range=2)
        g = random_nonzero_laurent(rng, 2, max_terms=3, exp_range=1)
        p3, q25 = p * third, q * two_fifths
        assert any(type(c) is Fraction for c in _coeffs(p3, q25))
        assert poly_gcd(p3 * g, q25 * g) == poly_gcd(p * g, q * g)
        assert poly_lcm(p3, q25) == poly_lcm(p, q)
        assert exact_div(p * q * third, q) == p3
        assert exact_div(p3 * q25, q25) == p3
        assert normalize_poly(p3) == normalize_poly(p)
        assert RatFunc(p * third, q * Fraction(1, 5)) == RatFunc(5 * p, 3 * q)


def test_integral_fraction_equals_and_hashes_like_int():
    t = LaurentPoly.var(1, 0)
    p = 2 * t ** 2 - 3 * t + 1
    built = LaurentPoly(1, {(2,): Fraction(2), (1,): Fraction(-6, 2), (0,): Fraction(1)})
    assert built == p and hash(built) == hash(p)
    assert _all_int(built)
    # Fraction sums with integral values, stored as they come out of __add__
    x = p * Fraction(1, 3)
    y = x + x + x
    assert any(type(c) is Fraction for c in y.terms.values())
    assert y == p and hash(y) == hash(p) and y.render() == p.render()
    assert {y: 1}[p] == 1
