import cmath
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slopelab.fields as fields_module
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
from slopelab.laurent import LaurentPoly, cyclotomic_minimal_poly, euler_phi

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
    # products for the addition chain of 99, one for the norm and one
    # scalar product; the per-unit product needed phi(N) - 1 = 99 and more
    x = CyclotomicNumber(125, [(i % 7) - 3 for i in range(100)])
    calls = []
    multiply = CyclotomicNumber.__mul__

    def counting(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counting)
    inverse = x.invert()
    assert len(calls) <= 16
    monkeypatch.undo()
    assert x * inverse == 1


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
