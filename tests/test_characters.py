import cmath
import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

import slopelab.characters as characters_module
import slopelab.slope as slope_module
from slopelab.characters import (
    NOT_ROOT,
    ROOT,
    UNKNOWN,
    Character,
    components,
    concordance_root_status,
    embed_character,
    evaluate_at_torsion,
    hermitian_at_torsion,
    sample_safe_characters,
    verify_root_witness,
)
from slopelab.errors import ContextMismatchError, UsageError
from slopelab.fields import ApproxComplex, Cyclotomic, RationalFunctionField
from slopelab.laurent import LaurentPoly, cyclotomic_minimal_poly, is_prime_power, normalize_poly
from slopelab.seifert import (
    CComplexPresentation,
    all_sign_vectors,
    build_A,
    build_E,
    random_presentation,
    sign_string,
)
from slopelab.slope import signature_nullity

from conftest import random_nonzero_laurent


# -- character basics -------------------------------------------------------------


def test_root_of_unity_normalization_and_order():
    ch = Character.root_of_unity(12, (14, -3))
    assert ch.exponents == (2, 9)
    assert ch.reduced().conductor == 12
    assert Character.root_of_unity(12, (4, 8)).reduced().conductor == 3
    assert Character.root_of_unity(12, (4, 8)).reduced() == Character.root_of_unity(3, (1, 2))


def test_numeric_describe_keeps_zero_parts_without_sign():
    ch = Character.numeric([complex(-0.0, 1), complex(1, -0.0)])
    assert ch.describe() == "num:0+1i,1+0i"


def test_nonvanishing_and_unitary():
    assert Character.symbolic(2).is_nonvanishing()
    assert Character.root_of_unity(5, (1, 2)).is_nonvanishing()
    assert not Character.root_of_unity(5, (0, 2)).is_nonvanishing()
    assert Character.root_of_unity(5, (1, 2)).is_unitary()
    assert Character.numeric([1j]).is_unitary()
    assert not Character.numeric([2 + 0j]).is_unitary()
    assert Character.numeric([2 + 0j]).is_nonvanishing()
    assert not Character.numeric([1 + 0j]).is_nonvanishing()


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
    assert ch.reduced().conductor == 12
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


def test_root_witness_rejects_a_character_it_does_not_vanish_at():
    witness = concordance_root_status(Character.root_of_unity(6, (1,))).witness
    assert not verify_root_witness(Character.root_of_unity(10, (1,)), witness)


def _random_fraction_poly(rng, mu):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = tuple(rng.randint(-6, 6) for _ in range(mu))
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return LaurentPoly(mu, terms)


def test_evaluate_at_torsion_matches_laurent_evaluate():
    # differential against term-by-term evaluation on the embedded
    # coordinates, with negative exponents, Fraction coefficients and
    # character exponents that share a factor with N
    rng = random.Random(16)
    for conductor in (1, 2, 9, 12, 25, 72, 125):
        ctx = Cyclotomic(conductor)
        step = next((d for d in range(2, conductor + 1) if conductor % d == 0), 1)
        for mu in (1, 2, 3):
            characters = [
                Character.root_of_unity(conductor, [rng.randrange(conductor) for _ in range(mu)]),
                Character.root_of_unity(conductor, [step * (i + 1) for i in range(mu)]),
            ]
            polys = [LaurentPoly.zero(mu)] + [_random_fraction_poly(rng, mu) for _ in range(2)]
            for omega in characters:
                values = embed_character(omega, ctx)
                for p in polys:
                    assert evaluate_at_torsion(p, omega) == p.evaluate(values, zero=ctx.zero)


def test_evaluate_at_torsion_refusals():
    p = LaurentPoly.var(2, 0)
    with pytest.raises(UsageError, match="torsion character"):
        evaluate_at_torsion(p, Character.numeric([1j, -1j]))
    with pytest.raises(UsageError, match="number of variables"):
        evaluate_at_torsion(p, Character.root_of_unity(5, (1,)))


def _exactly_nonzero(p, conductor, exponents):
    return any(characters_module._at_torsion(p, conductor, exponents)[0])


def _on_variable(poly, mu, i):
    """A univariate polynomial as a polynomial in w_i of mu variables."""
    return LaurentPoly(mu, {tuple(e if v == i else 0 for v in range(mu)): c
                            for (e,), c in poly.terms.items()})


def test_nonzero_at_torsion_matches_the_exact_test():
    """The modular test agrees with the integer coordinates on random
    polynomials with int and Fraction coefficients, some made to vanish by
    a factor Phi_d(w_i), at every battery point and at sampled prime-power
    characters."""
    rng = random.Random(36)
    outcomes = {True: 0, False: 0}
    for mu in (1, 2, 3):
        points = list(slope_module._battery(mu))
        for seed in range(3):
            points += [(omega.conductor, omega.exponents)
                       for omega in sample_safe_characters(mu, (0,) * mu, 12, seed)]
        polys = [LaurentPoly.zero(mu), LaurentPoly.one(mu)]
        for d in slope_module.ZERO_CERT_ORDERS:
            factor = _on_variable(cyclotomic_minimal_poly(d), mu, rng.randrange(mu))
            polys += [random_nonzero_laurent(rng, mu) * factor,
                      _random_fraction_poly(rng, mu) * factor]
        polys += [random_nonzero_laurent(rng, mu) for _ in range(3)]
        polys += [_random_fraction_poly(rng, mu) for _ in range(3)]
        for p in polys:
            for conductor, exponents in points:
                got = characters_module._nonzero_at_torsion(p, conductor, exponents)
                assert got == _exactly_nonzero(p, conductor, exponents), (p, conductor, exponents)
                outcomes[got] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 100


def test_nonzero_at_torsion_falls_back_only_on_a_zero_image(monkeypatch):
    """p = q f has image zero modulo q although p(omega) != 0: the exact
    coordinates decide it nonzero.  A nonzero image needs no coordinates."""
    exact = []

    def counted(p, conductor, exponents):
        exact.append(p)
        return original(p, conductor, exponents)

    original = characters_module._at_torsion
    monkeypatch.setattr(characters_module, "_at_torsion", counted)
    for conductor, exponents in ((9, (1, 3)), (40, (5, 8)), (72, (8, 9))):
        q, _ = characters_module._modular_root(conductor)
        for f in (LaurentPoly(2, {(1, 0): 1, (0, 2): -3, (0, 0): 2}),
                  LaurentPoly(2, {(2, -1): Fraction(1, 6), (0, 0): Fraction(-5, 4)})):
            assert _exactly_nonzero(f, conductor, exponents)
            exact.clear()
            assert characters_module._nonzero_at_torsion(f, conductor, exponents)
            assert exact == []
            alarm = f * q
            assert characters_module._nonzero_at_torsion(alarm, conductor, exponents)
            assert exact == [alarm]


def test_modular_roots_are_checked_roots_of_phi():
    """Every cached (q, powers) up to conductor 360, which covers the
    mu = 3 battery, has q = 1 (mod N) above 2^61, powers[j] = g^j, g^N = 1
    and Phi_N(g) = 0 modulo q."""
    assert max(conductor for conductor, _ in slope_module._battery(3)) == 360
    for conductor in range(1, 361):
        q, powers = characters_module._modular_root(conductor)
        g = powers[1 % conductor]
        assert q > 1 << 61 and (q - 1) % conductor == 0 and len(powers) == conductor
        assert powers == [pow(g, j, q) for j in range(conductor)]
        assert pow(g, conductor, q) == 1
        phi = cyclotomic_minimal_poly(conductor).terms
        assert sum(c * pow(g, e, q) for (e,), c in phi.items()) % q == 0


# -- the Cimasoni-Florens matrix ---------------------------------------------------


def _storage(rows):
    return [[(x.conductor, x.num, x.den) for x in row] for row in rows]


def test_hermitian_at_torsion_is_P_squared_E():
    """H(omega) = |P|^2 E(omega), P = prod_i (1 - omega_i^-1), entry by
    entry and storage-equal, with E from the field-op assembly; and
    H = conj(H_CF), H_CF(omega) = prod_i (1 - conj(omega_i)) A(omega) in
    Cimasoni-Florens's convention.  mu 1-3, conductors 2-30, exponents
    coprime to N and not, n 0-4, some presentations without the transpose
    symmetry."""
    rng = random.Random(33)
    kinds = set()
    for mu in (1, 2, 3):
        for conductor in range(2, 31):
            ctx = Cyclotomic(conductor)
            for trial in range(3 if mu < 3 else 1):
                omega = Character.root_of_unity(
                    conductor, [rng.randrange(1, conductor) for _ in range(mu)]
                )
                n = rng.randint(0, 4)
                if trial == 2 or conductor % 3 == 0:
                    theta = {sign_string(eps): [[rng.randint(-3, 3) for _ in range(n)]
                                                for _ in range(n)]
                             for eps in all_sign_vectors(mu)}
                    p = CComplexPresentation.build(mu, n, theta, [0] * n)
                else:
                    p = random_presentation(rng, mu=mu, n=n, bound=3)
                values = embed_character(omega, ctx)
                big_p = cf = ctx.one
                for x in values:
                    big_p = big_p * (ctx.one - x.invert())
                    cf = cf * (ctx.one - x.conjugate())
                scale = big_p * big_p.conjugate()
                got = hermitian_at_torsion(p, omega)
                assert _storage(got) == _storage(
                    [[scale * x for x in row] for row in build_E(p, omega, ctx).entries]
                )
                assert _storage(got) == _storage(
                    [[(cf * x).conjugate() for x in row] for row in build_A(p, omega, ctx).entries]
                )
                kinds.add(n)
                kinds.add("coprime" if all(gcd(k, conductor) == 1 for k in omega.exponents)
                          else "not coprime")
    assert kinds == {0, 1, 2, 3, 4, "coprime", "not coprime"}


def test_trefoil_cimasoni_florens_by_hand(trefoil):
    """With V = theta^+ of the trefoil, H(w) = (1 - w) V + (1 - w^-1) V^T:
    H(-1) = 2 (V + V^T) = [[-4, 2], [2, -4]], negative definite, and at
    z = zeta_6, where 1 - z = z^-1 = conj(z) and 1 - z^-1 = z,
    H(z) = [[-1, 1 - z], [z, -1]], of determinant 1 - |z|^2 = 0 and trace -2."""
    minus_one = Character.root_of_unity(2, (1,))
    two = Cyclotomic(2)
    assert hermitian_at_torsion(trefoil, minus_one) == [
        [two.from_int(-4), two.from_int(2)], [two.from_int(2), two.from_int(-4)]
    ]
    sig = signature_nullity(trefoil, minus_one)
    assert (sig.sigma, sig.eta, sig.counts) == (-2, 0, (0, 2, 0))
    six = Cyclotomic(6)
    z = six.zeta(1)
    sixth = Character.root_of_unity(6, (1,))
    assert hermitian_at_torsion(trefoil, sixth) == [[-six.one, six.one - z], [z, -six.one]]
    sig = signature_nullity(trefoil, sixth)
    assert (sig.sigma, sig.eta, sig.counts) == (-1, 1, (0, 1, 1))


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


def admissible(ch, linking):
    """omega^lambda = 1 for a torsion character."""
    return sum(l * k for l, k in zip(linking, ch.exponents)) % ch.conductor == 0


def test_sample_lambda_zero_orders():
    chars = sample_safe_characters(1, (0,), 3, seed=0)
    assert len(chars) == 3
    orders = sorted(c.reduced().conductor for c in chars)
    assert orders == [2, 3, 4]


def test_sample_admissible_filter():
    chars = sample_safe_characters(2, (1, 1), 2, seed=1)
    assert len(chars) == 2
    for ch in chars:
        assert admissible(ch, (1, 1))
        assert ch.is_nonvanishing()
        assert concordance_root_status(ch).status == NOT_ROOT


def test_sample_budget_zero():
    assert sample_safe_characters(1, (0,), 0) == []


def test_sample_deterministic_given_seed():
    a = sample_safe_characters(2, (0, 0), 5, seed=42)
    b = sample_safe_characters(2, (0, 0), 5, seed=42)
    assert a == b


def old_sample_safe_characters(mu, linking, budget, seed=0):
    """The former sampler, which drew all 4096 candidates of a large pool
    up front."""
    if budget <= 0:
        return []
    rng = random.Random(seed)
    conductors = [n for n in range(2, 65) if is_prime_power(n)]
    pools, positions = {}, {}

    def pool_for(conductor):
        if conductor not in pools:
            if (conductor - 1) ** mu <= 4096:
                candidates = list(itertools.product(range(1, conductor), repeat=mu))
                rng.shuffle(candidates)
            else:
                candidates = [
                    tuple(rng.randrange(1, conductor) for _ in range(mu)) for _ in range(4096)
                ]
            pools[conductor], positions[conductor] = candidates, 0
        return pools[conductor]

    out, seen = [], set()
    progressed = True
    while len(out) < budget and progressed:
        progressed = False
        for conductor in conductors:
            pool = pool_for(conductor)
            pos = positions[conductor]
            while pos < len(pool):
                exps = pool[pos]
                pos += 1
                if sum(l * k for l, k in zip(linking, exps)) % conductor:
                    continue
                ch = Character.root_of_unity(conductor, exps)
                key = (ch.reduced().conductor, ch.reduced().exponents)
                if key in seen:
                    continue
                seen.add(key)
                out.append(ch)
                progressed = True
                break
            positions[conductor] = pos
            if len(out) >= budget:
                break
    return out


def test_sample_matches_eager_draws_up_to_mu_2():
    # (N - 1)^mu <= 63^2 < 4096: every pool is a shuffled full list, drawn
    # from the stream exactly as before, so the samples are byte-identical
    grid = random.Random(24)
    for _ in range(60):
        mu = grid.randint(1, 2)
        linking = tuple(grid.randint(-4, 4) for _ in range(mu))
        budget, seed = grid.randint(-1, 60), grid.randint(0, 99)
        want = old_sample_safe_characters(mu, linking, budget, seed)
        got = sample_safe_characters(mu, linking, budget, seed=seed)
        assert [ch.describe() for ch in got] == [ch.describe() for ch in want]


def test_sample_draws_large_pools_lazily(monkeypatch):
    # at mu = 3 the pools past conductor 17 hold up to 4096 random tuples;
    # a small budget draws only the few it looks at
    calls = []
    original = random.Random.randrange

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(random.Random, "randrange", counting)
    chars = sample_safe_characters(3, (0, 0, 0), 12, seed=5)
    assert len(chars) == 12
    large = [a for a in calls if a[1] - 1 > 16]
    assert 0 < len(large) < 100
    monkeypatch.setattr(random.Random, "randrange", original)
    assert sample_safe_characters(3, (0, 0, 0), 12, seed=5) == chars


def test_sample_every_output_safe():
    for seed in (0, 1, 2):
        for ch in sample_safe_characters(2, (2, -2), 4, seed=seed):
            assert admissible(ch, (2, -2))
            assert ch.is_nonvanishing()
            assert concordance_root_status(ch).status == NOT_ROOT
    # a grid of (mu 1-3, linking, budget 1-40, seed): every output is safe,
    # and the samples are pinned by the sha256 of their descriptions.  The
    # mu <= 2 samples are those drawn while the sampler also filtered on
    # non-vanishing and root status; the three mu = 3 cases changed when
    # large pools began to draw lazily (the mu <= 2 ones did not, see
    # test_sample_matches_eager_draws_up_to_mu_2)
    grid = random.Random(15)
    digest = hashlib.sha256()
    for _ in range(24):
        mu = grid.randint(1, 3)
        linking = tuple(grid.randint(-3, 3) for _ in range(mu))
        budget, seed = grid.randint(1, 40), grid.randint(0, 9)
        chars = sample_safe_characters(mu, linking, budget, seed=seed)
        for ch in chars:
            assert admissible(ch, linking)
            assert ch.is_nonvanishing()
            assert concordance_root_status(ch).status == NOT_ROOT
        digest.update((";".join(ch.describe() for ch in chars) + "\n").encode())
    assert digest.hexdigest() == (
        "027834f7d6cca462e79a903dd79d5f8a48a406fc5a81ed3dc2bde38f41beae60"
    )
