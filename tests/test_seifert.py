import cmath
import json
import random
from fractions import Fraction

import pytest

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
    save_presentation,
    sign_string,
    stabilize,
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
