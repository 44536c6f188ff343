import cmath
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slopelab.fields as fields_module
import slopelab.laurent as laurent_module
from slopelab.errors import UsageError
from slopelab.fields import (
    ApproxComplex,
    Cyclotomic,
    CyclotomicNumber,
    RatFunc,
    RationalFunctionField,
    _reduce_mod_phi,
    resolve_tolerance,
)
from slopelab.laurent import (
    LaurentPoly,
    _gcd_rec,
    cyclotomic_minimal_poly,
    euler_phi,
    exact_div,
    normalize_poly,
    poly_gcd,
)

from conftest import random_laurent, random_nonzero_laurent


# -- rational functions ---------------------------------------------------------


def test_reduce_cancels_common_factor():
    one = LaurentPoly.one(1)
    w = LaurentPoly.var(1, 0)
    product = (one - w) * (one - w.subst_inverse())
    assert RatFunc(product * (one - w), one - w) == RatFunc.from_poly(product)


def test_reduce_factorization():
    w = LaurentPoly.var(1, 0)
    assert RatFunc(w * w - 1, w - 1) == RatFunc.from_poly(w + 1)


def test_zero_denominator_raises():
    one = LaurentPoly.one(1)
    with pytest.raises(ZeroDivisionError):
        RatFunc(one, LaurentPoly.zero(1))


def test_cross_multiplication_oracle():
    rng = random.Random(3)
    for _ in range(30):
        p = random_laurent(rng, 2, max_terms=3, exp_range=1)
        q = random_nonzero_laurent(rng, 2, max_terms=3, exp_range=1)
        r = random_nonzero_laurent(rng, 2, max_terms=3, exp_range=1)
        assert RatFunc(p * r, q * r) == RatFunc(p, q)


def test_cross_multiplication_iff():
    rng = random.Random(4)
    for _ in range(20):
        a = random_laurent(rng, 1, max_terms=3)
        b = random_nonzero_laurent(rng, 1, max_terms=3)
        c = random_laurent(rng, 1, max_terms=3)
        d = random_nonzero_laurent(rng, 1, max_terms=3)
        assert (RatFunc(a, b) == RatFunc(c, d)) == (a * d == c * b)


def test_canonical_denominator_normalization():
    w = LaurentPoly.var(1, 0)
    one = LaurentPoly.one(1)
    f = RatFunc(one, one - w)
    # lex-leading term of the stored denominator is the constant 1
    e, c = f.den.lex_leading()
    assert e == (0,) and c == 1
    assert f * RatFunc.from_poly(one - w) == RatFunc.from_poly(one)


def old_reduce_fraction(num, den):
    """The unit normalization as a shift followed by a scaling by 1/c, kept
    as the oracle of the one-pass division by den's lex-leading term."""
    g = poly_gcd(num, den)
    if not g.is_constant():
        num = exact_div(num, g)
        den = exact_div(den, g)
    e, c = den.lex_leading()
    e = tuple(-x for x in e)
    num, den = num.shift(e), den.shift(e)
    if c != 1:
        inv = Fraction(1) / c
        num, den = num * inv, den * inv
    return num, den


def test_one_pass_normalization_matches_shift_and_scale(rng):
    leads = (1, -1, 3, -3, Fraction(2, 3), Fraction(-5, 7))
    seen = set()
    for trial in range(300):
        n = 1 + trial % 3
        # lex-greater than every random term, so it leads den
        top = LaurentPoly.monomial(n, (3,) * n, leads[trial % len(leads)])
        den = random_laurent(rng, n, max_terms=3, exp_range=2) + top
        num = random_nonzero_laurent(rng, n, max_terms=4, exp_range=2)
        if trial % 4 == 1:
            num = num * Fraction(1, 3)
        if trial % 2:
            g = random_laurent(rng, n, max_terms=2, exp_range=1)
            g = g + LaurentPoly.monomial(n, (2,) * n)
            num, den = num * g, den * g
        reduced_den = exact_div(den, poly_gcd(num, den))
        seen.add(reduced_den.lex_leading()[1])
        got = RatFunc(num, den)
        want_num, want_den = old_reduce_fraction(num, den)
        assert got.num.terms == want_num.terms and got.den.terms == want_den.terms
        assert got.num.render() == want_num.render()
        assert got.den.render() == want_den.render()
        # integral values are stored as int
        assert all(type(c) is int for c in got.num.terms.values() if c.denominator == 1)
        assert all(type(c) is int for c in got.den.terms.values() if c.denominator == 1)
    assert seen >= set(leads)


def _linear_power(n, v, s, k):
    return (LaurentPoly.var(n, v) - s) ** k


def _reduced_by_subresultant(num, den):
    """num / den in canonical form, its gcd taken by ``_gcd_rec`` alone."""
    if num.is_zero():
        return LaurentPoly.zero(num.num_vars), LaurentPoly.one(num.num_vars)
    g = normalize_poly(_gcd_rec(normalize_poly(num), normalize_poly(den)))
    num, den = exact_div(num, g), exact_div(den, g)
    e, c = den.lex_leading()
    return exact_div(num, LaurentPoly.monomial(num.num_vars, e, c)), exact_div(
        den, LaurentPoly.monomial(num.num_vars, e, c))


def _multiplicity(p, v, s):
    """How often w_v - s divides p."""
    k, q = 0, normalize_poly(p)
    while True:
        try:
            q = exact_div(q, _linear_power(p.num_vars, v, s, 1))
        except ArithmeticError:
            return k
        k += 1


def test_shared_denominator_matches_per_entry_reduction(rng, monkeypatch):
    """Differential: RatFunc.over(nums, den) is storage-equal to RatFunc(num,
    den) for each num, and to a reduction whose gcd is the subresultant's.
    Each batch holds a zero numerator and an associate of den."""
    calls = []
    gcd_rec = laurent_module._gcd_rec

    def counting(a, b):
        calls.append(a)
        return gcd_rec(a, b)

    monkeypatch.setattr(laurent_module, "_gcd_rec", counting)
    seen = set()
    reached = 0
    for trial in range(120):
        n = 1 + trial % 3
        v = rng.randrange(n)
        den = random_nonzero_laurent(rng, n, max_terms=3, exp_range=1)
        if trial % 3 == 0:
            den = den * _linear_power(n, v, 1, rng.randint(1, 3))
        if trial % 4 == 1:
            den = den * _linear_power(n, v, -1, rng.randint(1, 2))
        shared = random_nonzero_laurent(rng, n, max_terms=2, exp_range=1)
        nums = [LaurentPoly.zero(n), den * LaurentPoly.monomial(n, (1,) * n, -3)]
        for _ in range(4):
            num = random_nonzero_laurent(rng, n, max_terms=3, exp_range=1)
            if rng.random() < 0.5:
                num = num * _linear_power(n, v, rng.choice((1, -1)), rng.randint(1, 3))
            if rng.random() < 0.4:
                num = num * shared
            nums.append(num)
        if trial % 3 == 0:
            den = den * shared
        before = len(calls)
        got = RatFunc.over(nums, den)
        reached += len(calls) > before
        assert len(got) == len(nums)
        for num, x in zip(nums, got):
            want = RatFunc(num, den)
            oracle = _reduced_by_subresultant(num, den)
            assert x.num.terms == want.num.terms == oracle[0].terms
            assert x.den.terms == want.den.terms == oracle[1].terms
            assert all(type(c) is int for c in x.num.terms.values() if c.denominator == 1)
            assert all(type(c) is int for c in x.den.terms.values() if c.denominator == 1)
            for s in (1, -1):
                on_num = bool(num) and _multiplicity(num, v, s) > 0
                on_den = _multiplicity(den, v, s) > 0
                if on_num or on_den:
                    where = "both" if on_num and on_den else "num only" if on_num else "den only"
                    seen.add((where, s))
        seen.add(n)
    assert seen >= {1, 2, 3} | {
        (where, s) for where in ("both", "den only", "num only") for s in (1, -1)}
    assert reached, "no batch reached the subresultant"


def test_all_zero_numerators_prepare_nothing(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the denominator was prepared")

    monkeypatch.setattr(laurent_module, "normalize_poly", unreachable)
    monkeypatch.setattr(laurent_module, "_divide_out_linear", unreachable)
    w = LaurentPoly.var(2, 0)
    den = (w - 1) * (w + 1) * 3
    zero = LaurentPoly.zero(2)
    assert RatFunc.over([zero, zero], den) == [RatFunc.const(2, 0)] * 2
    assert RatFunc.over([], den) == []


def test_is_polynomial_reads_the_stored_denominator(rng):
    """True exactly for a denominator of 1, also when it is stored as
    ``Fraction(1, 1)`` (what a product of polynomials can leave)."""
    ctx = RationalFunctionField(2)
    w1, w2 = ctx.variables()
    assert ctx.zero.is_polynomial() and ctx.one.is_polynomial()
    assert (w1 * w2 - 3).is_polynomial() and (w1 / w2).is_polynomial()
    assert not (w1 / (w2 + 1)).is_polynomial()
    one_as_fraction = LaurentPoly.const(2, Fraction(1, 2)) * LaurentPoly.const(2, 2)
    assert [type(c) for c in one_as_fraction.terms.values()] == [Fraction]
    assert one_as_fraction == LaurentPoly.one(2)
    f = RatFunc._make(w1.num, one_as_fraction)
    assert f.is_polynomial()
    assert f + w2 == w1 + w2 and f * w2 == w1 * w2
    for _ in range(50):
        a = random_laurent(rng, 2, max_terms=3)
        b = random_nonzero_laurent(rng, 2, max_terms=3)
        x = RatFunc(a, b)
        assert x.is_polynomial() == (x.den == LaurentPoly.one(2))


def test_ratfunc_field_ops():
    ctx = RationalFunctionField(2)
    w1, w2 = ctx.variables()
    x = (w1 - 1) / (w2 + 1)
    assert x * x.invert() == ctx.one
    assert (x - x).is_zero()
    assert x.subst_inverse().subst_inverse() == x


def test_ratfunc_evaluate_matches_field_arithmetic():
    ctx = RationalFunctionField(1)
    (w,) = ctx.variables()
    f = (w ** 2 - 1) / (w + 2)
    pt = [Fraction(3, 2)]
    assert f.evaluate(pt) == (Fraction(9, 4) - 1) / (Fraction(3, 2) + 2)


# -- integer powers -------------------------------------------------------------


def _repeated_product(x, k, one, inverse):
    base = x if k >= 0 else inverse(x)
    out = one
    for _ in range(abs(k)):
        out = out * base
    return out


def test_pow_is_repeated_multiplication():
    w = LaurentPoly.var(2, 0)
    monomial = LaurentPoly.monomial(2, (1, -2), Fraction(-2, 3))
    ratfunc = RatFunc(w + 2, w * w - 3)
    cyclo = CyclotomicNumber(5, [1, 2, 0, Fraction(-1, 2)])
    cases = [
        (monomial, LaurentPoly.one(2), LaurentPoly.inverse_unit),
        (ratfunc, RatFunc.const(2, 1), RatFunc.invert),
        (cyclo, CyclotomicNumber.one(5), CyclotomicNumber.invert),
    ]
    for x, one, inverse in cases:
        for k in range(-3, 5):
            assert x ** k == _repeated_product(x, k, one, inverse)
            assert x ** -k * x ** k == one


# -- cyclotomic numbers -----------------------------------------------------------


def test_zeta_powers_and_order():
    z = CyclotomicNumber.zeta_pow(12, 1)
    assert z ** 12 == CyclotomicNumber.one(12)
    assert z ** 6 == -CyclotomicNumber.one(12)
    assert CyclotomicNumber.zeta_pow(12, 14) == z ** 2


def test_conductor_one_is_rationals():
    x = CyclotomicNumber.from_fraction(1, Fraction(3, 4))
    assert x.coords == (Fraction(3, 4),) and (x.num, x.den) == ((3,), 4)
    assert (x * x.invert()).coords == (1,)


@settings(max_examples=40)
@given(
    st.integers(1, 12),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.integers(1, 6),
)
def test_cyclotomic_field_axioms(n, ca, cb, cc, den):
    deg = euler_phi(n)

    def elt(cs):
        coords = (cs * deg)[:deg]
        return CyclotomicNumber(n, [Fraction(c, den) for c in coords])

    a, b, c = elt(ca), elt(cb), elt(cc)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.invert() == CyclotomicNumber.one(n)


def test_canonical_storage():
    """Equal numbers have equal num, den and hash, whatever route built them."""
    rng = random.Random(5)
    for n in (1, 2, 7, 12, 25):
        deg = euler_phi(n)
        pairs = [
            (
                CyclotomicNumber(n, [Fraction(2, 4)] + [0] * (deg - 1)),
                CyclotomicNumber.from_fraction(n, Fraction(1, 2)),
            ),
            (CyclotomicNumber(n, [Fraction(6, 3)] * deg), CyclotomicNumber(n, [2] * deg)),
            (CyclotomicNumber.zeta_pow(n, 1) - CyclotomicNumber.zeta_pow(n, 1), CyclotomicNumber.zero(n)),
        ]
        for _ in range(5):
            a = CyclotomicNumber(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(deg)])
            b = CyclotomicNumber(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(deg)])
            if b:
                pairs.append(((a * b) / b, a))
            pairs.append(((a + b) - b, a))
        for x, y in pairs:
            assert (x.num, x.den, hash(x)) == (y.num, y.den, hash(y))
            assert x.den > 0 and gcd(x.den, *x.num) == 1
            assert all(type(c) is int for c in x.num)


def test_invert_non_integral_coordinates():
    rng = random.Random(11)
    for n in (1, 2, 23, 25, 45, 60, 72):
        deg = euler_phi(n)
        for _ in range(3):
            coords = [Fraction(rng.randint(-7, 7), rng.randint(2, 9)) for _ in range(deg)]
            coords[0] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(2, 9))
            a = CyclotomicNumber(n, coords)
            assert a * a.invert() == 1
            assert a.invert().invert() == a


INVERT_CONDUCTORS = (1, 2, 3, 4, 8, 9, 12, 16, 24, 25, 27, 32, 60, 64, 72, 105, 125, 360)


def _invert_by_every_conjugate(x):
    """The inverse as the product of sigma_u(x) over every unit u != 1, one
    factor at a time, over the norm: the reference the subgroup chain of
    ``CyclotomicNumber.invert`` must agree with."""
    n = x.conductor
    others = CyclotomicNumber.one(n)
    for u in range(2, n):
        if gcd(u, n) == 1:
            others = others * x.galois(u)
    norm = x * others
    return others * Fraction(norm.den, norm.num[0])


def test_invert_matches_the_product_of_every_conjugate():
    rng = random.Random(18)
    for n in INVERT_CONDUCTORS:
        deg = euler_phi(n)
        samples = [
            # one-term elements (c/d) t^j, rationals among them
            CyclotomicNumber(n, [Fraction(-3, 7) if i == j else 0 for i in range(deg)])
            for j in sorted({0, deg // 2, deg - 1})
        ]
        samples.append(CyclotomicNumber.zeta_pow(n, n - 1) * 5)
        # integral, den > 1 and wide coordinates
        samples.append(CyclotomicNumber(n, [rng.randint(-3, 3) for _ in range(deg)]))
        samples.append(
            CyclotomicNumber(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(deg)])
        )
        samples.append(CyclotomicNumber(n, [rng.randint(-(2 ** 80), 2 ** 80) for _ in range(deg)]))
        for x in samples:
            if not x:
                continue
            inverse = x.invert()
            assert inverse == _invert_by_every_conjugate(x), (n, x)
            assert x * inverse == 1
            assert inverse.den > 0 and gcd(inverse.den, *inverse.num) == 1


def test_invert_multiplies_log_many_times(monkeypatch):
    # the subgroup chain at N = 125 is one cyclic step of order 100: nine
    # products for the addition chain of 99 and one for the norm, all made
    # by _adjugate on integer lists; the per-unit product needed
    # phi(N) - 1 = 99 and more
    x = CyclotomicNumber(125, [(i % 7) - 3 for i in range(100)])
    calls = []
    product = fields_module._product

    def counting(a, b):
        calls.append(b)
        return product(a, b)

    monkeypatch.setattr(fields_module, "_product", counting)
    inverse = x.invert()
    assert 0 < len(calls) <= 16
    monkeypatch.undo()
    assert x * inverse == 1


def test_adjugate_times_x_is_the_positive_norm():
    # x adj == norm > 0 on integer coordinates, at every conductor, with
    # negative rationals and one-term elements at N = 1 and 2 and 80-bit
    # coordinates throughout
    rng = random.Random(35)
    for n in INVERT_CONDUCTORS:
        deg = euler_phi(n)
        samples = [[-7] + [0] * (deg - 1), [0] * (deg - 1) + [-3], [0] * (deg - 1) + [5]]
        samples.append([rng.randint(-(2 ** 80), 2 ** 80) for _ in range(deg)])
        samples.append([rng.randint(-3, 3) for _ in range(deg)])
        for num in samples:
            if not any(num):
                continue
            adj, norm = fields_module._adjugate(num, n)
            assert isinstance(norm, int) and norm > 0, (n, num)
            assert len(adj) == deg and all(isinstance(c, int) for c in adj)
            x = CyclotomicNumber._from_ints(n, num)
            assert x * CyclotomicNumber._from_ints(n, adj) == norm, (n, num)


def _remainder_by_long_division(coeffs, n):
    """Dense remainder modulo Phi_N by cancelling the top coefficient."""
    phi = cyclotomic_minimal_poly(n)
    deg = euler_phi(n)
    rest = list(coeffs)
    for top in range(len(rest) - 1, deg - 1, -1):
        c = rest[top]
        for (j,), p in phi.terms.items():
            rest[top - deg + j] -= c * p
    return (rest + [0] * deg)[:deg]


def test_reduce_mod_phi_matches_long_division():
    rng = random.Random(19)
    for n in INVERT_CONDUCTORS:
        for length in range(2 * n + 2):
            coeffs = [rng.randint(-(2 ** 70), 2 ** 70) for _ in range(length)]
            assert _reduce_mod_phi(coeffs, n) == _remainder_by_long_division(coeffs, n), (
                n,
                length,
            )


def test_coords_are_fractions():
    x = CyclotomicNumber(5, [Fraction(1, 2), 3, Fraction(-4, 6), 0])
    assert x.coords == (Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(0))
    assert all(type(c) is Fraction for c in x.coords)
    assert (x.num, x.den) == ((3, 18, -4, 0), 6)


def test_to_complex_huge_coordinates():
    # numerators and denominator above 2^1100: float(num_i) would overflow
    den = 3 ** 700
    ks = [2, -1, 3, 5]
    x = CyclotomicNumber(5, [Fraction(k * den + 1, den) for k in ks])
    assert x.den > 2 ** 1100 and all(abs(c) > 2 ** 1100 for c in x.num)
    z = x.to_complex()
    assert cmath.isfinite(z)
    zeta = cmath.exp(2j * cmath.pi / 5)
    assert abs(z - sum(k * zeta ** i for i, k in enumerate(ks))) < 1e-9


def test_embedding_agrees_with_complex_arithmetic():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 30)
        deg = euler_phi(n)
        a = CyclotomicNumber(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)])
        b = CyclotomicNumber(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)])
        assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-9
        assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-9


def test_conjugate_matches_complex_conjugate():
    for n in (3, 5, 8, 12):
        x = CyclotomicNumber.zeta_pow(n, 1) * 2 + Fraction(1, 3)
        assert abs(x.conjugate().to_complex() - x.to_complex().conjugate()) < 1e-12


def test_is_zero_exact():
    z = CyclotomicNumber.zeta_pow(6, 1)
    # zeta_6 satisfies z^2 - z + 1 = 0
    assert (z * z - z + 1).is_zero()
    assert not (z - 1).is_zero()


def test_mixed_conductors_rejected():
    with pytest.raises(UsageError):
        CyclotomicNumber.zeta_pow(3, 1) + CyclotomicNumber.zeta_pow(4, 1)


def _random_cyclotomic(rng, conductor):
    """Zero, one, a root of unity, or a sum of a few roots with unequal
    denominators."""
    u = rng.random()
    if u < 0.15:
        return CyclotomicNumber.zero(conductor)
    if u < 0.25:
        return CyclotomicNumber.one(conductor) * rng.choice([1, -1])
    if u < 0.35:
        return CyclotomicNumber.zeta_pow(conductor, rng.randrange(conductor))
    x = CyclotomicNumber.zero(conductor)
    for _ in range(rng.randint(1, 4)):
        c = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 9, 35]))
        x = x + CyclotomicNumber.zeta_pow(conductor, rng.randrange(conductor)) * c
    return x


def test_sub_mul_matches_separate_operations(rng):
    """x.sub_mul(f, y) stores what x - f * y stores, operand by operand."""
    seen = set()
    for _ in range(600):
        conductor = rng.choice([1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 25])
        x, f, y = (_random_cyclotomic(rng, conductor) for _ in range(3))
        got = x.sub_mul(f, y)
        want = x - f * y
        assert (got.conductor, got.num, got.den) == (want.conductor, want.num, want.den)
        seen.update(
            name for name, v in (("x", x), ("f", f), ("y", y))
            if v.is_zero() or v == 1 or v == -1
        )
        seen.add("dens" if len({x.den, f.den, y.den}) > 1 else "same den")
    assert seen == {"x", "f", "y", "dens", "same den"}
    z = CyclotomicNumber.zeta_pow(5, 1)
    assert z.sub_mul(z, CyclotomicNumber.zero(5)) is z
    with pytest.raises(UsageError):
        z.sub_mul(z, CyclotomicNumber.zeta_pow(4, 1))
    with pytest.raises(UsageError):
        z.sub_mul(CyclotomicNumber.zeta_pow(4, 1), z)


def test_cyclotomic_render():
    assert Cyclotomic(2).from_int(4).render() == "4"
    assert CyclotomicNumber.zeta_pow(5, 1).render() == "z"


def test_sign_of_real_cyclotomic_numbers(rng):
    for _ in range(300):
        n = rng.choice([1, 2, 3, 4, 5, 7, 8, 9, 12, 25, 27, 64, 72])
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(euler_phi(n))]
        x = CyclotomicNumber(n, coords)
        y = x + x.conjugate()
        value = y.to_complex().real
        if abs(value) > 1e-9:
            assert y.sign() == (1 if value > 0 else -1)
        elif y.is_zero():
            assert y.sign() == 0
    with pytest.raises(UsageError):
        CyclotomicNumber.zeta_pow(5, 1).sign()


def test_sign_certified_below_float_resolution(monkeypatch):
    # at N = 5, zeta + zeta^-1 = (sqrt 5 - 1) / 2, so with consecutive
    # Fibonacci numbers x = F_(k+1) (zeta + zeta^-1) - F_k is real, nonzero
    # and about phi^-k, below the resolution 2^-64 of the first enclosure;
    # x > 0 iff 5 F_(k+1)^2 > (2 F_k + F_(k+1))^2, and the sign alternates
    # with k
    calls = []
    bounds = fields_module._cos_bounds

    def counting(conductor, q):
        calls.append(q)
        return bounds(conductor, q)

    monkeypatch.setattr(fields_module, "_cos_bounds", counting)
    ctx = Cyclotomic(5)
    half_trace = ctx.zeta(1) + ctx.zeta(-1)
    f_k, f_next = 0, 1
    while f_k < 2**70:
        f_k, f_next = f_next, f_k + f_next
    signs = []
    for _ in range(2):
        x = half_trace * f_next - f_k
        want = 1 if 5 * f_next**2 > (2 * f_k + f_next) ** 2 else -1
        calls.clear()
        assert x.sign() == want
        # the enclosure at q = 64 cannot separate x from 0: a finer one decided
        assert calls and calls[-1] > 64
        signs.append(want)
        f_k, f_next = f_next, f_k + f_next
    assert sorted(signs) == [-1, 1]


# -- approximate complex ------------------------------------------------------------


def test_approx_context_tolerance():
    ctx = ApproxComplex(1e-6)
    assert ctx.is_zero(1e-8 + 0j)
    assert not ctx.is_zero(1e-3)
    with pytest.raises(ZeroDivisionError):
        ctx.invert(0j)
    assert ctx.is_zero(ctx.invert(2 + 0j) - 0.5)


def test_env_tolerance_override(monkeypatch):
    monkeypatch.setenv("SLOPELAB_TOL", "1e-4")
    assert resolve_tolerance() == 1e-4
    ctx = ApproxComplex()
    assert ctx.tol == 1e-4
    monkeypatch.setenv("SLOPELAB_TOL", "bogus")
    with pytest.raises(UsageError):
        resolve_tolerance()


def test_field_axioms_random_triples_all_contexts():
    rng = random.Random(17)
    rf = RationalFunctionField(1)
    cyc = Cyclotomic(5)
    ac = ApproxComplex()

    def rf_elt():
        num = random_laurent(rng, 1, max_terms=2, exp_range=1)
        den = random_nonzero_laurent(rng, 1, max_terms=2, exp_range=1)
        return RatFunc(num, den)

    def cyc_elt():
        return CyclotomicNumber(5, [Fraction(rng.randint(-3, 3)) for _ in range(4)])

    def ac_elt():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    for ctx, make in ((rf, rf_elt), (cyc, cyc_elt), (ac, ac_elt)):
        for _ in range(15):
            a, b, c = make(), make(), make()
            assert ctx.is_zero((a + b) - (b + a))
            assert ctx.is_zero(a * (b + c) - (a * b + a * c))
            if not ctx.is_zero(a):
                assert ctx.is_zero(a * ctx.invert(a) - ctx.one)
