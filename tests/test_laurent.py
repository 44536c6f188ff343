import hashlib
import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slopelab.laurent as laurent_module
from slopelab.errors import UsageError
from slopelab.fields import RatFunc
from slopelab.laurent import (
    LaurentPoly,
    _cyclotomic_coeffs,
    _gcd_rec,
    _image_gcd_degree,
    _place_values,
    cyclotomic_minimal_poly,
    divisors,
    euler_phi,
    exact_div,
    is_prime_power,
    kronecker_pack,
    kronecker_unpack,
    normalize_poly,
    poly_gcd,
)

from conftest import old_exact_div, random_laurent, random_nonzero_laurent


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


def _stored(p):
    """A polynomial's term map with the type of every coefficient."""
    return {e: (c, type(c)) for e, c in p.terms.items()}


def test_exact_div_matches_shifted_division():
    """Dividing in the Laurent ring gives the former shifted division's
    quotient, coefficient types included, and raises exactly when it does:
    products and perturbed products with negative exponents in 1-3
    variables, int and Fraction coefficients, one-term divisors."""
    rng = random.Random(27)
    raised = 0
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 3)
        d = random_nonzero_laurent(rng, n, max_terms=rng.choice([1, 4]), exp_range=2)
        q = random_nonzero_laurent(rng, n, max_terms=4, exp_range=2)
        if rng.random() < 0.2:
            d = d * Fraction(rng.choice([1, 2, 3]), rng.choice([2, 3, 5]))
        if rng.random() < 0.15:
            q = q * Fraction(1, rng.choice([2, 3]))
        p = q * d
        kind = rng.randrange(3)
        if kind == 1:
            # a random term added to the product: usually not divisible
            p = p + random_nonzero_laurent(rng, n, max_terms=1, exp_range=3)
        elif kind == 2:
            p = random_laurent(rng, n, max_terms=5, exp_range=3)
        try:
            want = old_exact_div(p, d)
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                exact_div(p, d)
            raised += 1
            continue
        got = exact_div(p, d)
        assert _stored(got) == _stored(want), (p, d)
        assert got * d == p
        seen.add((n, len(d.terms) == 1, any(type(c) is Fraction for c in got.terms.values())))
    assert raised > 100
    assert {k for k in seen if not k[1]} >= {(n, False, f) for n in (1, 2, 3) for f in (False, True)}
    assert {(n, True) for n, one, _ in seen if one} == {(1, True), (2, True), (3, True)}


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


def test_normalize_poly_stores_int_coefficients():
    # a Fraction sum whose values turned integral and already coprime
    a = LaurentPoly(1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    assert any(type(c) is Fraction for c in (a + a).terms.values())
    got = normalize_poly(a + a)
    assert got == LaurentPoly(1, {(0,): 1, (1,): 1}) and _all_int(got)
    t = LaurentPoly.var(2, 1)
    assert _all_int(normalize_poly((t * Fraction(1, 3) - Fraction(2, 3)) * 3))


# -- the modular front end of poly_gcd against the subresultant path ----------


def _gcd_oracle(p, q):
    """poly_gcd of nonzero operands through ``_gcd_rec`` alone."""
    return normalize_poly(_gcd_rec(normalize_poly(p), normalize_poly(q)))


def _check_against_oracle(p, q):
    got = poly_gcd(p, q)
    assert got == _gcd_oracle(p, q), (p, q)
    assert _all_int(got)


def _retried_pair():
    """Coprime operands whose images in w2 share the factor w2 - 3 at the
    first point (w1 = 2), a bound of 1 that is neither operand's degree,
    and are coprime at the second (w1 = 4)."""
    w1, w2 = LaurentPoly.var(2, 0), LaurentPoly.var(2, 1)
    return (w2 - w1 - 1) * (w2 + 1), (w2 - 3) * (w2 * w2 + 2)


def _front_end_cases():
    """Hand-built pairs the front end must not get wrong.  It fixes w1, w2
    at 2, 3 at its first evaluation point, at 4, 5 at the second and at
    6, 7 at the third, and goes on to the next point while a bound is
    above 0."""
    w1, w2 = LaurentPoly.var(2, 0), LaurentPoly.var(2, 1)
    p = 2 ** 61 - 1
    t = LaurentPoly.var(1, 0)
    yield _retried_pair()
    # g maps to 1 at the first point in either variable, where lc_v(g) vanishes
    g = (w1 - 2) * (w2 - 3) + 1
    yield g * (w1 + w2 + 7), g * (w1 * w2 - 11)
    # lc_w2 vanishes at w1 = 2, 4, 6: no usable point for w2
    h = (w1 - 2) * (w1 - 4) * (w1 - 6) * w2 + 1
    yield h * (w2 + 3), h * (w1 * w2 - 5)
    # leading coefficient p, zero mod p at every point
    yield (p * t + 1) * (t + 2), (p * t + 1) * (t + 3)
    yield (p * w2 + w1) * (w2 + 2), (p * w2 + w1) * (w1 + 3)
    # images of b divide images of a at the first point, but b does not divide a
    b = w1 + w2 - 5
    yield (w1 - 2) * (w2 - 3) + b, b
    yield b, (w1 - 2) * (w2 - 3) + b
    # a common factor in w1 alone: only the image in w2 is coprime
    yield (w1 + 1) * (w2 + 2), (w1 + 1) * (w2 + 3)
    # coefficients above 2^61, a divisor pair and equal operands
    big = 3 ** 50 * w1 * w2 + 2 ** 70 * w1 - 5 ** 30
    yield big * (w1 + 1), big
    yield big, big * Fraction(2 ** 64, 7)
    yield big * (w2 - 2 ** 62), big * (w1 + 2 ** 61 - 1)


def test_poly_gcd_front_end_cases_match_oracle():
    for a, b in _front_end_cases():
        _check_against_oracle(a, b)
        _check_against_oracle(b, a)


def test_poly_gcd_matches_subresultant_oracle_random():
    rng = random.Random(2024)
    for trial in range(300):
        n = trial % 4
        kw = dict(max_terms=4, exp_range=2, coeff_range=rng.choice((3, 2 ** 64)))
        g = random_nonzero_laurent(rng, n, **kw)
        p = random_nonzero_laurent(rng, n, **kw)
        q = random_nonzero_laurent(rng, n, **kw)
        pairs = [(p, q), (p * g, q * g), (p * g, g), (g * p * q, g * p), (p, p * -3)]
        if trial % 3 == 0:
            # Fraction coefficients, and integral values stored as Fraction
            x = q * g * Fraction(1, 3)
            pairs.append((p * g * Fraction(1, 2), x + x + x))
        for a, b in pairs:
            _check_against_oracle(a, b)


def test_retry_settles_an_ambiguous_first_image():
    a, b = _retried_pair()
    assert _image_gcd_degree(a, b, 1, retry=False) == 1
    assert _image_gcd_degree(a, b, 1, retry=True) == 0


def _linear_powers(num_vars, powers, s=1):
    """The product of (w_i - s)^powers[i]."""
    out = LaurentPoly.one(num_vars)
    for i, k in enumerate(powers):
        out = out * (LaurentPoly.var(num_vars, i) - s) ** k
    return out


def test_coprime_pairs_never_reach_the_subresultant(monkeypatch):
    rng = random.Random(7)
    battery = []
    while len(battery) < 40:
        n = 1 + len(battery) % 3
        p = random_nonzero_laurent(rng, n, max_terms=5, exp_range=2)
        q = random_nonzero_laurent(rng, n, max_terms=5, exp_range=2)
        if not normalize_poly(p).is_constant() and _gcd_oracle(p, q).is_constant():
            battery.append((p, q))
    battery.append(_retried_pair())
    # powers of w_i - 1 and w_i + 1 on coprime parts: the stripped parts
    # stay coprime
    stripped = []
    for p, q in battery:
        n = p.num_vars
        j, k = ([rng.randint(0, 3) for _ in range(n)] for _ in range(2))
        jj, kk = ([rng.randint(0, 2) for _ in range(n)] for _ in range(2))
        a = _linear_powers(n, j) * _linear_powers(n, jj, -1) * p
        b = _linear_powers(n, k) * _linear_powers(n, kk, -1) * q
        stripped.append((a, b, _gcd_oracle(a, b)))

    def unreachable(a, b):
        raise AssertionError("_gcd_rec reached")

    monkeypatch.setattr(laurent_module, "_gcd_rec", unreachable)
    # and neither do the divisor and equal pairs built from them
    for p, q in battery:
        assert poly_gcd(p, q) == LaurentPoly.one(p.num_vars)
        assert poly_gcd(p * q, q) == normalize_poly(q)
        assert poly_gcd(p, p * 5) == normalize_poly(p)
    for a, b, want in stripped:
        assert poly_gcd(a, b) == want
        assert poly_gcd(b, a) == want


def test_stripped_gcd_matches_subresultant_oracle():
    """Pairs (w_i - 1)^j (w_i + 1)^jj p g and (w_i - 1)^k (w_i + 1)^kk q g,
    the powers from 0 to 4 (w_i - 1) and 0 to 2 (w_i + 1) in each variable,
    each factor on both operands, on one or on neither, with g shared or
    absent."""
    rng = random.Random(29)
    for trial in range(150):
        n = 1 + trial % 3
        kw = dict(max_terms=3, exp_range=1, coeff_range=rng.choice((3, 2 ** 64)))
        p = random_nonzero_laurent(rng, n, **kw)
        q = random_nonzero_laurent(rng, n, **kw)
        g = random_nonzero_laurent(rng, n, **kw) if trial % 4 else LaurentPoly.one(n)
        j = [rng.randint(0, 4) for _ in range(n)]
        k = [rng.randint(0, 4) for _ in range(n)]
        jj = [rng.randint(0, 2) for _ in range(n)]
        kk = [rng.randint(0, 2) for _ in range(n)]
        if trial % 5 == 1:
            k = [0] * n
        if trial % 7 == 2:
            kk = [0] * n
        a = _linear_powers(n, j) * _linear_powers(n, jj, -1) * p * g
        b = _linear_powers(n, k) * _linear_powers(n, kk, -1) * q * g
        if trial % 3 == 0:
            # Fraction coefficients and a shift to negative exponents
            a = a * Fraction(2, 3)
            b = b.shift(tuple(rng.randint(-3, 0) for _ in range(n))) * Fraction(-1, 5)
        _check_against_oracle(a, b)
        _check_against_oracle(b, a)


def old_gcd_univariate(a, b, v):
    """The former monic Euclid of ``_gcd_rec`` for polynomials whose only
    active variable is v (exponents at least 0)."""
    da = {e[v]: c for e, c in a.terms.items()}
    db = {e[v]: c for e, c in b.terms.items()}

    def dense(d):
        n = max(d)
        return [d.get(i, 0) for i in range(n + 1)]

    x, y = dense(da), dense(db)
    while y and any(y):
        inv = Fraction(1) / y[-1]
        y = [c * inv for c in y]
        while len(x) >= len(y):
            if x[-1]:
                f = x[-1]
                off = len(x) - len(y)
                for i in range(len(y)):
                    x[off + i] -= f * y[i]
            x.pop()
        while x and not x[-1]:
            x.pop()
        x, y = y, x
    terms = {}
    for i, c in enumerate(x):
        if c:
            e = [0] * a.num_vars
            e[v] = i
            terms[tuple(e)] = c
    return LaurentPoly(a.num_vars, terms)


def test_univariate_gcd_matches_monic_euclid():
    """Differential: ``_gcd_rec``'s one recursion (content, primitive part
    and subresultant sequence) gives the normalized gcd of the monic Euclid
    it replaced for a single variable, on pairs with a planted common
    factor, in w1 or in one variable of two: int and Fraction coefficients,
    a constant operand, equal operands and a constant gcd."""
    rng = random.Random(32)
    seen = set()
    for trial in range(240):
        num_vars = 1 + trial % 2
        v = rng.randrange(num_vars)
        fraction = trial % 3 == 0

        def poly(degree):
            coeffs = [rng.randint(-4, 4) for _ in range(degree)] + [rng.choice((-3, -1, 1, 2))]
            if fraction:
                coeffs = [Fraction(c, rng.randint(1, 4)) for c in coeffs]
            return LaurentPoly(num_vars, {
                tuple(i if j == v else 0 for j in range(num_vars)): c
                for i, c in enumerate(coeffs)
            })

        g = poly(rng.randint(0, 3))
        a, b = g * poly(rng.randint(0, 3)), g * poly(rng.randint(0, 3))
        if trial % 7 == 1:
            b = poly(0)
        elif trial % 7 == 2:
            b = a
        got = normalize_poly(_gcd_rec(a, b))
        want = normalize_poly(old_gcd_univariate(a, b, v))
        assert got == want, (a, b)
        seen.add("Fraction" if any(type(c) is Fraction and c.denominator > 1
                                   for x in (a, b) for c in x.terms.values()) else "int")
        if a.is_constant() or b.is_constant():
            seen.add("constant operand")
        if a == b:
            seen.add("equal operands")
        seen.add("constant gcd" if want.is_constant() else "planted factor")
    assert seen == {"int", "Fraction", "constant operand", "equal operands", "constant gcd",
                    "planted factor"}


# -- Kronecker images -------------------------------------------------------------


def _evaluated(p, radix, width):
    """p at w_v = 2^(8 width s_v), term by term."""
    s, place = [], 1
    for r in radix:
        s.append(place)
        place *= r
    return sum(c << (8 * width * sum(e * x for e, x in zip(es, s))) for es, c in p.terms.items())


def _bytearray_pack(p, radix, width):
    """The earlier ``kronecker_pack`` body, kept as the oracle: each side's
    digits laid out little-endian in a bytearray and read with one
    ``int.from_bytes``."""
    if not p.terms:
        return 0
    s = _place_values(radix)
    at = [sum(map(mul, e, s)) * width for e in p.terms]
    size = max(at) + width
    plus, minus = bytearray(size), bytearray(size)
    for i, c in zip(at, p.terms.values()):
        if c > 0:
            plus[i:i + width] = c.to_bytes(width, "little")
        else:
            minus[i:i + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(plus, "little") - int.from_bytes(minus, "little")


def test_kronecker_pack_matches_the_bytearray_packing():
    """Packing by shifts gives the integer the bytearray packing gave, on
    random multivariate polynomials in the box, the zero polynomial and
    digits of +-(2^(8 width - 1) - 1), and every image unpacks to its
    polynomial."""
    rng = random.Random(36)
    checked = 0
    for width in (1, 2, 4, 8, 17):
        top = (1 << (8 * width - 1)) - 1
        for radix in ((), (1,), (7,), (4, 3), (3, 1, 5), (2, 3, 2, 3)):
            n = len(radix)
            box = list(itertools.product(*map(range, radix)))
            polys = [LaurentPoly.zero(n), LaurentPoly(n, {e: top for e in box}),
                     LaurentPoly(n, {e: -top for e in box}),
                     LaurentPoly(n, {box[-1]: top, box[0]: -top})]
            for _ in range(12):
                digits = (top, -top, rng.randint(-top, top), rng.randint(-9, 9))
                terms = rng.sample(box, rng.randint(1, len(box)))
                polys.append(LaurentPoly(n, {e: rng.choice(digits) for e in terms}))
            for p in polys:
                k = kronecker_pack(p, radix, width)
                assert type(k) is int and k == _bytearray_pack(p, radix, width)
                assert kronecker_unpack(k, radix, width) == p
                checked += 1
    assert checked == 5 * 6 * 16


def test_kronecker_round_trip_at_extreme_digits():
    """Digits of +-(2^(8 width - 1) - 1), runs of adjacent negative digits
    (each borrows from the next position up) and single digits at the top
    of the box pack to the evaluation at w_v = 2^(8 width s_v) and unpack
    to the polynomial."""
    rng = random.Random(31)
    for width in (1, 2, 3, 9):
        top = (1 << (8 * width - 1)) - 1
        for radix in ((), (5,), (3, 4), (2, 3, 3)):
            n = len(radix)
            box = [()]
            for r in radix:
                box = [e + (x,) for e in box for x in range(r)]
            polys = [
                LaurentPoly(n, {e: -top for e in box}),
                LaurentPoly(n, {e: top for e in box}),
                LaurentPoly(n, {e: top if i % 2 else -top for i, e in enumerate(box)}),
                LaurentPoly(n, {box[-1]: -top}),
                LaurentPoly(n, {box[0]: 1, box[-1]: -1}),
                LaurentPoly(n, {}),
            ]
            for _ in range(5):
                polys.append(LaurentPoly(n, {e: rng.choice((-top, -1, 1, top, rng.randint(-top, top)))
                                             for e in box if rng.random() < 0.6}))
            for p in polys:
                k = kronecker_pack(p, radix, width)
                assert k == _evaluated(p, radix, width)
                back = kronecker_unpack(k, radix, width)
                assert back == p
                assert all(type(c) is int for c in back.terms.values())
