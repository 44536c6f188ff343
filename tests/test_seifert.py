import cmath
import json
import random
from fractions import Fraction
from math import gcd

import pytest

import slopelab.linalg as linalg_module
from slopelab.characters import Character
from slopelab.errors import UnsupportedHypothesisError, UsageError
from slopelab.fields import (
    ApproxComplex,
    Cyclotomic,
    CyclotomicNumber,
    RatFunc,
    RationalFunctionField,
)
from slopelab.laurent import LaurentPoly
from slopelab.linalg import Matrix
from slopelab.seifert import (
    CComplexPresentation,
    all_sign_vectors,
    build_A,
    build_E,
    change_basis,
    load_presentation,
    presentation_from_dict,
    presentation_to_dict,
    random_presentation,
    random_unimodular,
    MISSING_SHOWN,
    _int_det,
    save_presentation,
    sign_string,
    stabilize,
    symbolic_rows,
    validate,
)

from conftest import transpose


# -- validation ------------------------------------------------------------------


def test_whitehead_validates(whitehead):
    assert validate(whitehead) == []
    assert whitehead.theta[(-1,)] == ((0, 1), (0, 1))


def test_broken_transpose_symmetry_flagged():
    p = CComplexPresentation.build(
        1, 2, {"+": [[0, 0], [1, 1]], "-": [[0, 0], [1, 1]]}, [1, 0]
    )
    violations = validate(p)
    assert any("transpose" in v for v in violations)
    assert validate(p, check_transpose=False) == []


def test_mu2_family_generated_by_transposes(rng):
    for _ in range(10):
        p = random_presentation(rng, mu=2, n=3)
        assert validate(p) == []


def test_build_rejects_noninteger_entries():
    with pytest.raises(UsageError):
        CComplexPresentation.build(1, 1, {"+": [[0.5]]}, [0])
    with pytest.raises(UsageError):
        CComplexPresentation.build(1, 1, {"+": [[1]]}, [0.5])


def test_build_requires_some_half():
    with pytest.raises(UsageError):
        CComplexPresentation.build(2, 1, {"++": [[1]]}, [0])


def test_dimension_violations_reported():
    p = CComplexPresentation(
        mu=1, n=2, theta={(1,): ((0,),), (-1,): ((0,),)}, kappa=(1,), b0=1, linking=(0,)
    )
    violations = validate(p)
    assert any("2x2" in v for v in violations)
    assert any("kappa" in v for v in violations)


def test_structural_violations_reported(whitehead):
    # every structural branch of validate, message by message; records built
    # by replace skip the checks of build
    wh = whitehead
    plus = wh.theta[(1,)]
    cases = [
        (
            wh.replace(mu=0),
            [
                "mu must be at least 1",
                "linking vector has length 1, expected 0",
                'theta is missing sign vector ""',
                'theta has an unexpected sign vector "+"',
                'theta has an unexpected sign vector "-"',
            ],
        ),
        (
            wh.replace(mu=-1, linking=()),
            [
                "mu must be at least 1",
                "linking vector has length 0, expected -1",
                'theta is missing sign vector ""',
                'theta has an unexpected sign vector "+"',
                'theta has an unexpected sign vector "-"',
            ],
        ),
        (
            wh.replace(n=-1, kappa=()),
            [
                "n must be nonnegative",
                "kappa has length 0, expected -1",
                'theta["+"] is not -1x-1',
                'theta["-"] is not -1x-1',
            ],
        ),
        (wh.replace(b0=0), ["b0 must be at least 1"]),
        (wh.replace(linking=(0, 0)), ["linking vector has length 2, expected 1"]),
        (wh.replace(theta={(1,): plus}), ['theta is missing sign vector "-"']),
        (
            wh.replace(theta={**wh.theta, (1, -1): plus, (-1, -1): plus}),
            [
                'theta has an unexpected sign vector "+-"',
                'theta has an unexpected sign vector "--"',
            ],
        ),
        # keys that are not tuples of signs are named by their repr
        (wh.replace(theta={**wh.theta, "+": plus}), ["theta has an unexpected sign vector '+'"]),
        (
            wh.replace(theta={(-1,): plus, 7: plus, (1, 0): plus}),
            [
                'theta is missing sign vector "+"',
                "theta has an unexpected sign vector (1, 0)",
                "theta has an unexpected sign vector 7",
            ],
        ),
    ]
    for p, messages in cases:
        assert validate(p) == messages


def test_validate_names_every_missing_sign_vector_up_to_mu_3(whitehead):
    for mu in (1, 2, 3):
        top = (1,) * mu
        p = whitehead.replace(mu=mu, linking=(0,) * mu, theta={top: whitehead.theta[(1,)]})
        missing = sorted(set(all_sign_vectors(mu)) - {top}, reverse=True)
        assert validate(p) == [f'theta is missing sign vector "{sign_string(e)}"' for e in missing]


def test_validate_counts_missing_sign_vectors_past_the_first_few(whitehead):
    plus = whitehead.theta[(1,)]
    p = whitehead.replace(
        mu=4, linking=(0,) * 4, theta={(1, 1, 1, 1): plus, (1, 1, -1, 1): plus}
    )
    shown = ["+++-", "++--", "+-++", "+-+-", "+--+", "+---", "-+++", "-++-"]
    assert MISSING_SHOWN == len(shown)
    assert validate(p) == [f'theta is missing sign vector "{s}"' for s in shown] + [
        "theta is missing 6 more sign vectors"
    ]


def test_validate_large_mu_is_bounded(whitehead):
    # 2^30 sign vectors: validate must walk only the first few of them
    import time
    import tracemalloc

    p = whitehead.replace(mu=30, linking=(0,) * 30)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        out = validate(p)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[:2] == [
        'theta is missing sign vector "' + "+" * 30 + '"',
        'theta is missing sign vector "' + "+" * 29 + '-"',
    ]
    assert out[MISSING_SHOWN:] == [
        f"theta is missing {2**30 - MISSING_SHOWN} more sign vectors",
        'theta has an unexpected sign vector "+"',
        'theta has an unexpected sign vector "-"',
    ]
    assert peak < 1 << 20
    assert elapsed < 5


# -- operator assembly -------------------------------------------------------------


def test_build_A_whitehead_symbolic(whitehead):
    ctx = RationalFunctionField(1)
    a = build_A(whitehead, Character.symbolic(1), ctx)
    w = LaurentPoly.var(1, 0)
    one = LaurentPoly.one(1)
    assert a.entries[0][0] == ctx.zero
    assert a.entries[0][1] == RatFunc.from_poly(-w)
    assert a.entries[1][0] == ctx.one
    assert a.entries[1][1] == RatFunc.from_poly(one - w)


def test_build_A_zero_family():
    p = CComplexPresentation.build(1, 2, {"+": [[0, 0], [0, 0]]}, [0, 0])
    ctx = RationalFunctionField(1)
    a = build_A(p, Character.symbolic(1), ctx)
    assert all(ctx.is_zero(x) for row in a.entries for x in row)


def test_build_A_mu2_brute_force_oracle(rng):
    """A(omega) equals the explicit 4-term sum at random numeric points."""
    ctx = ApproxComplex()
    for _ in range(10):
        p = random_presentation(rng, mu=2, n=2)
        values = [
            cmath.exp(2j * cmath.pi * rng.random()) * (1 + rng.random()),
            cmath.exp(2j * cmath.pi * rng.random()) * (1 + rng.random()),
        ]
        omega = Character.numeric(values)
        a = build_A(p, omega, ctx)
        for i in range(2):
            for j in range(2):
                total = 0j
                for eps in all_sign_vectors(2):
                    coeff = 1.0 + 0j
                    for idx, e in enumerate(eps):
                        if e == -1:
                            coeff *= -values[idx]
                    total += coeff * p.theta[eps][i][j]
                assert abs(a.entries[i][j] - total) < 1e-9


def test_build_A_linear_in_each_member(rng):
    """Doubling one family member doubles its contribution (no symmetry
    validation happens inside the builder)."""
    ctx = ApproxComplex()
    p = random_presentation(rng, mu=2, n=2)
    eps0 = (1, -1)
    doubled_theta = dict(p.theta)
    doubled_theta[eps0] = tuple(tuple(2 * x for x in row) for row in p.theta[eps0])
    doubled = CComplexPresentation(
        mu=2, n=2, theta=doubled_theta, kappa=p.kappa, b0=1, linking=(0, 0)
    )
    omega = Character.numeric([0.3 + 0.7j, -1.2 + 0.1j])
    values = omega.values
    a1 = build_A(p, omega, ctx)
    a2 = build_A(doubled, omega, ctx)
    for i in range(2):
        for j in range(2):
            contribution = -values[1] * p.theta[eps0][i][j]
            assert abs((a2.entries[i][j] - a1.entries[i][j]) - contribution) < 1e-9


def test_build_E_whitehead_symbolic(whitehead):
    ctx = RationalFunctionField(1)
    e = build_E(whitehead, Character.symbolic(1), ctx)
    w = LaurentPoly.var(1, 0)
    one = LaurentPoly.one(1)
    assert e.entries[0][0] == ctx.zero
    assert e.entries[0][1] == RatFunc(one, one - w)
    assert e.entries[1][0] == RatFunc(one, one - w.subst_inverse())
    assert e.entries[1][1] == ctx.one


def test_build_E_whitehead_at_minus_one(whitehead):
    ctx = Cyclotomic(2)
    e = build_E(whitehead, Character.root_of_unity(2, (1,)), ctx)
    half = CyclotomicNumber.from_fraction(2, Fraction(1, 2))
    assert e.entries[0][0] == ctx.zero
    assert e.entries[0][1] == half
    assert e.entries[1][0] == half
    assert e.entries[1][1] == ctx.one


def test_build_E_rejects_vanishing_coordinate(whitehead):
    with pytest.raises(UnsupportedHypothesisError):
        build_E(whitehead, Character.root_of_unity(4, (0,)), Cyclotomic(4))


def old_build_E_field_ops(presentation, omega, ctx):
    """The former assembly at torsion and symbolic characters: field
    multiplications, one inversion of prod_i (1 - omega_i^-1) (a Galois
    norm in Q(zeta_N), a gcd reduction over the rational function field),
    and one reduced product per entry."""
    from slopelab.characters import embed_character

    scalars = embed_character(omega, ctx)
    inverted = []
    for s in scalars:
        if ctx.is_zero(s):
            raise UnsupportedHypothesisError("character coordinates must be nonzero")
        inverted.append(ctx.invert(s))
    pi = ctx.one
    for s in inverted:
        factor = ctx.one - s
        if ctx.is_zero(factor):
            raise UnsupportedHypothesisError(
                "vanishing character coordinate (omega_i = 1): patching is not supported"
            )
        pi = pi * factor
    scale = ctx.invert(pi)
    n = presentation.n
    rows = [[ctx.zero] * n for _ in range(n)]
    for eps, theta in presentation.theta.items():
        sign, factor = 1, ctx.one
        for e, s in zip(eps, inverted):
            if e == -1:
                sign, factor = -sign, factor * s
        for i in range(n):
            for j in range(n):
                if theta[i][j]:
                    rows[i][j] = rows[i][j] + factor * (sign * theta[i][j])
    return [[scale * x for x in row] for row in rows]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the refusal is compared, type and message
        return (type(exc), str(exc))


def test_build_E_at_torsion_matches_field_op_assembly(rng):
    """The integer assembly gives the same canonical entries, and the same
    refusals in the same order, as the field-op assembly it replaced."""
    cases = []
    for mu in (1, 2, 3):
        for conductor in (2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 25, 30):
            for _ in range(4 if mu < 3 else 2):
                # exponents not coprime to N, and sometimes zero (vanishing)
                exps = [rng.randrange(1, conductor) for _ in range(mu)]
                if rng.random() < 0.15:
                    exps[rng.randrange(mu)] = 0
                omega = Character.root_of_unity(conductor, exps)
                # the character's own conductor, a multiple, or a mismatch
                ctx_conductor = rng.choice([conductor, conductor, 2 * conductor, 3 * conductor,
                                            conductor + 1])
                p = random_presentation(rng, mu=mu, n=rng.randint(0, 4), bound=3)
                cases.append((p, omega, Cyclotomic(ctx_conductor)))
    kinds = set()
    for p, omega, ctx in cases:
        want = _outcome(old_build_E_field_ops, p, omega, ctx)
        got = _outcome(build_E, p, omega, ctx)
        if isinstance(want, tuple):
            assert got == want
            kinds.add(want[0].__name__)
            continue
        assert (got.rows, got.cols, got.ctx) == (p.n, p.n, ctx)
        assert [[(x.conductor, x.num, x.den) for x in row] for row in got.entries] == [
            [(x.conductor, x.num, x.den) for x in row] for row in want
        ]
        kinds.add("coprime" if all(gcd(k, omega.conductor) == 1 for k in omega.exponents)
                  else "not coprime")
        kinds.add("embedded" if ctx.conductor != omega.conductor else "own")
    assert kinds == {"ContextMismatchError", "UnsupportedHypothesisError", "coprime",
                     "not coprime", "embedded", "own"}
    # a mismatch is refused before a vanishing coordinate, as before
    p = random_presentation(rng, mu=2, n=2)
    omega = Character.root_of_unity(5, (0, 1))
    assert _outcome(build_E, p, omega, Cyclotomic(7)) == _outcome(
        old_build_E_field_ops, p, omega, Cyclotomic(7)
    )
    assert _outcome(build_E, p, omega, Cyclotomic(7))[0].__name__ == "ContextMismatchError"


def _presentation_free_of(rng, mu, n, free, bound=2):
    """theta^eps independent of eps_i for every i in ``free``, so that
    1 - w_i^-1 divides every entry of A(w^-1).  The last coordinate may be
    free only together with all the others: every theta is then one
    symmetric matrix and E is A(w^-1) / prod_i (1 - w_i^-1) with constant A."""
    if mu - 1 in free:
        sym = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = rng.randint(-bound, bound)
        theta = {sign_string(eps): sym for eps in all_sign_vectors(mu)}
        return CComplexPresentation.build(mu, n, theta, [0] * n)
    base, theta = {}, {}
    for eps in all_sign_vectors(mu):
        if eps[-1] != 1:
            continue
        key = tuple(1 if i in free else e for i, e in enumerate(eps))
        if key not in base:
            base[key] = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        theta[sign_string(eps)] = base[key]
    return CComplexPresentation.build(mu, n, theta, [rng.randint(-2, 2) for _ in range(n)])


def test_build_E_symbolic_matches_field_op_assembly(rng):
    """In the rational function field the field-op assembly stores, in every
    entry of E(w), the numerator and denominator terms of
    RatFunc(A_rc(w^-1), P), P = prod_i (1 - w_i^-1), one independent
    reduction per entry: mu 1-3, n 0-5,
    stabilized presentations (zero rows), kappa-zero data, and entries that
    vanish at no, some or every w_i = 1."""
    cases = []
    for mu in (1, 2, 3):
        for n in range(6):
            for trial in range(4):
                p = random_presentation(rng, mu=mu, n=n, bound=1 + trial % 2,
                                        kappa_zero=trial == 2)
                cases.append(stabilize(p) if trial == 3 and n < 5 else p)
            cases.append(_presentation_free_of(rng, mu, n, {0} if mu > 1 else set()))
            cases.append(_presentation_free_of(rng, mu, n, set(range(mu))))
            if mu == 3:
                cases.append(_presentation_free_of(rng, mu, n, {0, 1}))
    kinds = set()
    for p in cases:
        ctx = RationalFunctionField(p.mu)
        big_p = LaurentPoly.one(p.mu)
        for i in range(p.mu):
            big_p = big_p * (1 - LaurentPoly.var(p.mu, i).subst_inverse())
        a = build_A(p, Character.symbolic(p.mu), ctx)
        want = [[RatFunc(x.num.subst_inverse(), big_p) for x in row] for row in a.entries]
        got = build_E(p, Character.symbolic(p.mu), ctx)
        assert (got.rows, got.cols, got.ctx) == (p.n, p.n, ctx)
        assert [[(x.num.terms, x.den.terms) for x in row] for row in got.entries] == [
            [(x.num.terms, x.den.terms) for x in row] for row in want
        ]
        for x in (x for row in want for x in row):
            # the denominator is the product of the 2^k terms of k factors
            k = len(x.den.terms).bit_length() - 1
            kinds.add("zero" if x.is_zero() else
                      "none" if k == p.mu else "all" if k == 0 else "some")
    assert kinds == {"zero", "none", "some", "all"}
    # a context of the wrong size is refused as before
    p = random_presentation(rng, mu=2, n=2)
    args = (p, Character.symbolic(2), RationalFunctionField(3))
    assert _outcome(build_E, *args) == _outcome(old_build_E_field_ops, *args)
    assert _outcome(build_E, *args)[0].__name__ == "ContextMismatchError"


@pytest.mark.parametrize("build", [build_A, build_E])
def test_character_length_must_match_the_presentation(rng, build):
    """A character with fewer or more coordinates than mu is refused first,
    before a context mismatch or a vanishing coordinate, in every field."""
    p = random_presentation(rng, mu=2, n=2)
    for k in (1, 3):
        for omega, ctx in (
            (Character.root_of_unity(5, (1,) * k), Cyclotomic(5)),
            (Character.root_of_unity(5, (0,) * k), Cyclotomic(7)),
            (Character.symbolic(k), RationalFunctionField(k)),
            (Character.symbolic(k), RationalFunctionField(2)),
            (Character.numeric([0.6 + 0.8j] * k), ApproxComplex()),
        ):
            with pytest.raises(UsageError) as info:
                build(p, omega, ctx)
            assert str(info.value) == "character length does not match the presentation"


def test_inverse_closed_form_for_every_root_up_to_64():
    """1/(1 - x) = -(1/d) sum_{j<d} j x^j for x = zeta_N^a of order d > 1:
    (1 - x) S, formed on cyclic integer vectors, is -d modulo Phi_N."""
    from slopelab.fields import _reduce_mod_phi

    for conductor in range(2, 65):
        for a in range(1, conductor):
            d = conductor // gcd(a, conductor)
            s_vec = [0] * conductor
            for j in range(d):
                s_vec[a * j % conductor] += j
            # (1 - x) S = S - S rotated by a
            prod = [s_vec[p] - s_vec[(p - a) % conductor] for p in range(conductor)]
            reduced = _reduce_mod_phi(prod, conductor)
            assert reduced == [-d] + [0] * (len(reduced) - 1), (conductor, a)
            if conductor <= 16:
                x = CyclotomicNumber.zeta_pow(conductor, a)
                closed = CyclotomicNumber._from_ints(conductor, _reduce_mod_phi(s_vec, conductor))
                assert closed * Fraction(-1, d) == (1 - x).invert()


def test_E_hermitian_at_unitary_numeric(rng):
    ctx = ApproxComplex()
    for _ in range(100):
        mu = rng.choice([1, 2])
        p = random_presentation(rng, mu=mu, n=rng.randint(1, 3))
        omega = Character.numeric(
            [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(mu)]
        )
        if not omega.is_nonvanishing():
            continue
        e = build_E(p, omega, ctx)
        h = transpose(e).map(complex.conjugate)
        for i in range(p.n):
            for j in range(p.n):
                assert abs(e.entries[i][j] - h.entries[i][j]) < 1e-10


def test_E_adjoint_identity_symbolic(rng):
    """transpose(E)(w) = E(w^-1), exactly in the symbolic context."""
    for _ in range(50):
        mu = rng.choice([1, 2])
        ctx = RationalFunctionField(mu)
        p = random_presentation(rng, mu=mu, n=rng.randint(1, 3))
        e = build_E(p, Character.symbolic(mu), ctx)
        et = transpose(e)
        for i in range(p.n):
            for j in range(p.n):
                assert et.entries[i][j] == e.entries[i][j].subst_inverse()


def test_E_conjugation_identity_numeric(rng):
    """conj(E(w)) = E(conj(w)) within 1e-10 at numeric characters."""
    ctx = ApproxComplex()
    for _ in range(30):
        p = random_presentation(rng, mu=1, n=2)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 0.1 or abs(z - 1) < 0.1:
            continue
        e = build_E(p, Character.numeric([z]), ctx)
        ec = build_E(p, Character.numeric([z.conjugate()]), ctx)
        for i in range(2):
            for j in range(2):
                assert abs(e.entries[i][j].conjugate() - ec.entries[i][j]) < 1e-10


def test_E_classical_form_mu1(rng):
    """E(w^-1) = (theta+ - w theta+^T) / (1 - w), symbolically."""
    ctx = RationalFunctionField(1)
    w = LaurentPoly.var(1, 0)
    one = LaurentPoly.one(1)
    for _ in range(10):
        p = random_presentation(rng, mu=1, n=2)
        e = build_E(p, Character.symbolic(1), ctx)
        theta = p.theta[(1,)]
        theta_t = p.theta[(-1,)]
        factor = RatFunc(one, one - w)
        for i in range(2):
            for j in range(2):
                classical = factor * (theta[i][j] - RatFunc.from_poly(w) * theta_t[i][j])
                assert e.entries[i][j].subst_inverse() == classical


# -- transforms ---------------------------------------------------------------------


def test_change_basis_identity(whitehead):
    same = change_basis(whitehead, [[1, 0], [0, 1]])
    assert same.theta == whitehead.theta
    assert same.kappa == whitehead.kappa


def test_change_basis_rejects_non_unimodular(whitehead):
    with pytest.raises(UsageError):
        change_basis(whitehead, [[2, 0], [0, 1]])
    message = r"^basis change requires a unimodular matrix \(det = \+-1\)$"
    for u in ([[2, 0], [0, 1]], [[0, 1], [2, 0]], [[1, 2], [2, 4]], [[0, 0], [0, 0]]):
        with pytest.raises(UsageError, match=message):
            change_basis(whitehead, u)
    assert change_basis(whitehead, [[0, 1], [1, 0]]).n == 2


def _fraction_det(m):
    """Determinant by Gaussian elimination over the rationals."""
    n = len(m)
    work = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        sel = next((r for r in range(c, n) if work[r][c]), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            work[c], work[sel] = work[sel], work[c]
            det = -det
        det *= work[c][c]
        for r in range(c + 1, n):
            f = work[r][c] / work[c][c]
            work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return det


def test_int_det_matches_fraction_elimination(rng):
    cases = [[], [[0]], [[-7]], [[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [2, 0, 0]]]
    for _ in range(300):
        n = rng.randint(1, 6)
        kind = rng.randrange(4)
        if kind == 0:  # dense, wide entries
            m = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        elif kind == 1:  # sparse, so zero pivots and row swaps are common
            m = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
        elif kind == 2:  # singular: one row a combination of two others
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            i, j, k = (rng.randrange(n) for _ in range(3))
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])] if i not in (j, k) else [0] * n
        else:  # det +-1, or +-2 after doubling one row
            m = random_unimodular(rng, n, steps=rng.randint(1, 12))
            if rng.random() < 0.5:
                row = rng.randrange(n)
                m[row] = [2 * x for x in m[row]]
        cases.append(m)
    dets = []
    for m in cases:
        want = _fraction_det(m)
        got = _int_det(m)
        assert type(got) is int and got == want, m
        dets.append(got)
    assert {0, 1, -1, 2, -2} <= set(dets)


def test_change_basis_preserves_validity(rng):
    for _ in range(20):
        p = random_presentation(rng, mu=rng.choice([1, 2]), n=3)
        u = random_unimodular(rng, 3)
        assert validate(change_basis(p, u)) == []


def test_stabilize_shapes(whitehead):
    s = stabilize(whitehead)
    assert s.n == 3
    assert s.kappa == (1, 0, 0)
    assert s.b0 == 1
    for eps in s.theta:
        m = s.theta[eps]
        assert len(m) == 3
        assert all(m[i][2] == 0 and m[2][i] == 0 for i in range(3))
    assert validate(s) == []


def test_stabilize_empty_presentation():
    p = CComplexPresentation.build(1, 0, {"+": []}, [])
    s = stabilize(p)
    assert s.n == 1
    assert s.theta[(1,)] == ((0,),)
    assert s.kappa == (0,)


def test_stabilize_drops_b0():
    p = CComplexPresentation.build(1, 1, {"+": [[1]]}, [0], b0=3)
    assert stabilize(p).b0 == 2
    assert stabilize(stabilize(stabilize(p))).b0 == 1


# -- JSON round-trip -----------------------------------------------------------------


def test_round_trip(tmp_path, whitehead, rng):
    for p in (whitehead, random_presentation(rng, mu=2, n=3, b0=2)):
        path = tmp_path / "data.json"
        save_presentation(p, path)
        again = load_presentation(path)
        assert again == p


def test_from_dict_defaults():
    p = presentation_from_dict(
        {"mu": 1, "n": 1, "theta": {"+": [[2]]}, "kappa": [1]}
    )
    assert p.b0 == 1
    assert p.linking == (0,)
    assert p.theta[(-1,)] == ((2,),)


def test_from_dict_malformed():
    with pytest.raises(UsageError):
        presentation_from_dict({"mu": 1, "n": 1, "theta": {"+": [[1]]}})
    with pytest.raises(UsageError):
        presentation_from_dict({"mu": 1, "n": 1, "theta": [], "kappa": [0]})
    with pytest.raises(UsageError):
        presentation_from_dict(
            {"mu": 1, "n": 1, "theta": {"++": [[1]]}, "kappa": [0]}
        )


def test_sign_strings():
    assert sign_string((1, -1, 1)) == "+-+"
    assert all_sign_vectors(1) == [(1,), (-1,)]


def test_symbolic_rows_equal_the_cleared_rows_of_build_E(rng):
    """Differential: the integer rows a record eliminates, built from the
    presentation, equal the integral cleared rows of build_E's symbolic
    operator with kappa appended, as (c, m, term maps), all int."""
    seen = set()
    for trial in range(300):
        mu = 1 + trial % 3
        n = rng.randint(0, (6, 4, 3)[mu - 1])
        p = random_presentation(rng, mu=mu, n=n, bound=rng.choice((1, 2)),
                                kappa_zero=trial % 4 == 0)
        if trial % 5 == 1:
            p = stabilize(p)
        n = p.n
        if trial % 7 == 3 and n:
            # theta^eps symmetric for every eps: f_i divides every entry
            sym = {eps: [[m[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
                   for eps, m in p.theta.items()}
            p = CComplexPresentation.build(mu, n, sym, p.kappa)
        ctx = RationalFunctionField(mu)
        e = build_E(p, Character.symbolic(mu), ctx)
        got = symbolic_rows(p)
        assert len(got) == n
        seen.update({("mu", mu), ("n", n)})
        for row, k, (c, m, scaled) in zip(e.entries, p.kappa, got):
            row = list(row) + [ctx.from_int(k)]
            want_c, want_m, want = linalg_module._integral(linalg_module._cleared(row, mu), mu)
            assert (c, m) == (want_c, want_m)
            assert [x.terms for x in scaled] == [x.terms for x in want]
            assert all(type(v) is int for x in scaled for v in x.terms.values())
            if not any(row):
                seen.add("zero row")
            elif any(all(i not in x.den.active_vars() for x in row) for i in range(mu)):
                seen.add("some f_i divides every entry")
            if any(row[:-1]) and not k:
                seen.add("kappa zero")
            if any(m):
                seen.add("shifted")
    assert seen >= {("mu", mu) for mu in (1, 2, 3)} | {("n", n) for n in range(7)} | {
        "zero row", "some f_i divides every entry", "kappa zero", "shifted"}
