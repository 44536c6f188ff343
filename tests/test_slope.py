import cmath
import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from slopelab.characters import Character, sample_safe_characters
from slopelab.errors import InvalidPresentationError, UnsupportedHypothesisError, UsageError
from slopelab.fields import (
    ApproxComplex,
    Cyclotomic,
    RatFunc,
    RationalFunctionField,
)
from slopelab.laurent import LaurentPoly
from slopelab.linalg import Matrix, solve
from slopelab.seifert import (
    CComplexPresentation,
    build_E,
    change_basis,
    random_presentation,
    random_unimodular,
    stabilize,
)
from slopelab.slope import (
    FINITE,
    INFINITY,
    UNDEFINED,
    certify_zero_slope,
    compare_slopes,
    signature_nullity,
    slope_at,
    slope_from_operator,
    slope_symbolic,
)

from conftest import int_matrix

Q = Cyclotomic(1)


def closed_form_whitehead():
    w = LaurentPoly.var(1, 0)
    one = LaurentPoly.one(1)
    return RatFunc.from_poly((one - w) * (one - w.subst_inverse()))


# -- golden values -------------------------------------------------------------------


def test_whitehead_symbolic_slope(whitehead):
    sv = slope_symbolic(whitehead)
    assert sv.kind == FINITE
    assert sv.value == closed_form_whitehead()
    assert sv.value.render() == "-w1^-1 + 2 - w1"
    assert not sv.approximate


def test_whitehead_pointwise_at_minus_one(whitehead):
    sv = slope_at(whitehead, Character.root_of_unity(2, (1,)))
    assert sv.kind == FINITE
    assert sv.value == Cyclotomic(2).from_int(4)
    assert list(sv.witness) == [-4, 2]


def test_whitehead_pointwise_matches_closed_form_exactly(whitehead):
    closed = closed_form_whitehead()
    for order in (2, 3, 4, 5, 8):
        ctx = Cyclotomic(order)
        omega = Character.root_of_unity(order, (1,))
        sv = slope_at(whitehead, omega, ctx)
        assert sv.kind == FINITE
        z = ctx.zeta(1)
        expected = closed.num.evaluate([z], zero=ctx.zero)
        assert sv.value == expected


# sha256 of "kind|value|witness" renderings of
# slope_at(random_presentation(random.Random(3), mu, n), zeta_N^exponents),
# recorded with Fraction coordinates and the extended-gcd inverse in Q(zeta_N).
CYCLOTOMIC_GOLDENS = [
    (1, 6, 23, (1,), "a6b9aa728d3e3f51d32a0d9803cf048890478cbab97ed7fcb075d12b511c4f63"),
    (1, 6, 25, (1,), "b043c6a28bda7ecf636a2127e60fd44bb36b654abfecf17f64f67acd0b5a3806"),
    (1, 6, 64, (1,), "178b29e72ad0a40fe83361c64c82f4f226324f8671bc34d222408566e20c1b13"),
    (1, 6, 72, (1,), "e7fc7f6c0a375149b042e8476ed0500e3328af7475b7e65d71674981631eaa37"),
    (1, 6, 81, (1,), "a9bb4881d0a259f7cbf4ac0e468ad483b8d68ee73658039e3ae5fe1d43c2c160"),
    (2, 4, 9, (1, 2), "916fa7a7f99914e400f4228fce025bbb568335078ef742acd90fc111e3c116d4"),
    (2, 4, 16, (1, 3), "8171a9eedf57f5eb4a835b95c71abe6a9d6648aa0fb919403fa2ac010a1f65a3"),
]


@pytest.mark.parametrize(
    "mu,n,conductor,exponents,digest",
    CYCLOTOMIC_GOLDENS,
    ids=[f"mu{g[0]}-N{g[2]}" for g in CYCLOTOMIC_GOLDENS],
)
def test_cyclotomic_slope_goldens(mu, n, conductor, exponents, digest):
    p = random_presentation(random.Random(3), mu=mu, n=n)
    sv = slope_at(p, Character.root_of_unity(conductor, exponents))
    text = "|".join([sv.kind, sv.value.render(), ",".join(x.render() for x in sv.witness)])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of "kind|value|witness|valid_away_from" renderings of
# slope_symbolic(random_presentation(random.Random(3), mu, n, kappa_zero)),
# recorded while every entry of the fraction-free solution was reduced.
SYMBOLIC_GOLDENS = [
    (1, 4, False, "328133ffee97362c703c2ce378bc5f2410c5657dff76e79b587fff74b4427f4d"),
    (1, 6, False, "7017d159e8e1642a0e3dedfb29280d120b8bc9b276452d32c9db40d7571ff9d7"),
    (2, 2, False, "cd032a2326d4192bd9e41d5ba2202d8211c5960db7e2fd7adfb9d5c47f77b3a3"),
    (2, 3, False, "ecdfa8cdf98fbff5bb94df4ab95e30e78f04ce66acf352d8d731540675003371"),
    (3, 2, False, "e3522a5873776768991f9c56a74619c0667c407699552031687ba48bb94b89fe"),
    (2, 3, True, "4596e59174788bdae1840e0dc3899f30b7721d4cd2813e710b442a1a0f2d1755"),
]


@pytest.mark.parametrize(
    "mu,n,kappa_zero,digest",
    SYMBOLIC_GOLDENS,
    ids=[f"mu{g[0]}-n{g[1]}" + ("-kappa0" if g[2] else "") for g in SYMBOLIC_GOLDENS],
)
def test_symbolic_slope_goldens(mu, n, kappa_zero, digest):
    p = random_presentation(random.Random(3), mu=mu, n=n, kappa_zero=kappa_zero)
    sv = slope_symbolic(p)
    text = "|".join(
        [
            sv.kind,
            sv.value.render(),
            ",".join(x.render() for x in sv.witness),
            sv.valid_away_from.render(),
        ]
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_kappa_zero_gives_finite_zero(rng):
    for _ in range(10):
        p = random_presentation(rng, mu=rng.choice([1, 2]), n=2, kappa_zero=True)
        sv = slope_symbolic(p)
        assert sv.kind == FINITE
        assert sv.value.is_zero()


def test_zero_family_nonzero_kappa_is_infinity():
    p = CComplexPresentation.build(1, 2, {"+": [[0, 0], [0, 0]]}, [1, 0])
    sv = slope_symbolic(p)
    assert sv.kind == INFINITY
    assert not sv.case_report.kappa_in_image
    assert not sv.case_report.kappa_in_annihilator


def test_n_zero_presentation_slope_is_zero():
    p = CComplexPresentation.build(1, 0, {"+": []}, [])
    sv = slope_symbolic(p)
    assert sv.kind == FINITE
    assert sv.value.is_zero()
    assert sv.witness == ()


# -- the trichotomy on constructed operators ------------------------------------------


def test_trichotomy_undefined_in_image_only():
    e = int_matrix(Q, [[0, 1], [0, 0]])
    sv = slope_from_operator(e, [Q.from_int(1), Q.from_int(0)])
    assert sv.kind == UNDEFINED
    assert sv.case_report.kappa_in_image
    assert not sv.case_report.kappa_in_annihilator


def test_trichotomy_infinity():
    e = int_matrix(Q, [[0, 1], [0, 0]])
    sv = slope_from_operator(e, [Q.from_int(1), Q.from_int(1)])
    assert sv.kind == INFINITY
    assert not sv.case_report.kappa_in_image
    assert not sv.case_report.kappa_in_annihilator


def test_trichotomy_undefined_in_annihilator_only():
    e = int_matrix(Q, [[0, 1], [0, 0]])
    sv = slope_from_operator(e, [Q.from_int(0), Q.from_int(1)])
    assert sv.kind == UNDEFINED
    assert not sv.case_report.kappa_in_image
    assert sv.case_report.kappa_in_annihilator


def test_trichotomy_finite_with_singular_operator():
    # diag(0, 1) with kappa = (0, 1): both memberships hold, slope -1
    e = int_matrix(Q, [[0, 0], [0, 1]])
    sv = slope_from_operator(e, [Q.from_int(0), Q.from_int(1)])
    assert sv.kind == FINITE
    assert sv.value == -1


def test_trichotomy_exclusive_and_consistent(rng):
    for _ in range(50):
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        kappa = [rng.randint(-2, 2) for _ in range(3)]
        sv = slope_from_operator(int_matrix(Q, rows), [Q.from_int(k) for k in kappa])
        memberships = (sv.case_report.kappa_in_image, sv.case_report.kappa_in_annihilator)
        if sv.kind == FINITE:
            assert memberships == (True, True)
        elif sv.kind == INFINITY:
            assert memberships == (False, False)
        else:
            assert memberships in ((True, False), (False, True))


# -- preconditions -----------------------------------------------------------------


def test_nonzero_linking_rejected():
    p = CComplexPresentation.build(1, 1, {"+": [[1]]}, [0], linking=[1])
    with pytest.raises(UnsupportedHypothesisError):
        slope_symbolic(p)


def test_vanishing_character_rejected(whitehead):
    with pytest.raises(UnsupportedHypothesisError) as err:
        slope_at(whitehead, Character.root_of_unity(4, (0,)))
    assert "patching" in str(err.value)


def test_invalid_presentation_rejected():
    p = CComplexPresentation.build(
        1, 2, {"+": [[0, 0], [1, 1]], "-": [[9, 9], [9, 9]]}, [1, 0]
    )
    with pytest.raises(InvalidPresentationError):
        slope_symbolic(p)


# -- invariance properties -----------------------------------------------------------


def test_preimage_independence(rng):
    """Adding any kernel vector to the witness leaves the slope unchanged."""
    checked = 0
    ctx = Cyclotomic(2)
    omega = Character.root_of_unity(2, (1,))
    while checked < 40:
        b = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        x = [rng.randint(-2, 2) for _ in range(2)]
        sym = [[b[i][j] + b[j][i] for j in range(2)] for i in range(2)]
        kb = [sum(sym[i][j] * x[j] for j in range(2)) for i in range(2)]
        theta = [[b[0][0], b[0][1], 0], [b[1][0], b[1][1], 0], [0, 0, 0]]
        p = CComplexPresentation.build(1, 3, {"+": theta}, kb + [0])
        sv = slope_at(p, omega, ctx)
        if sv.kind != FINITE:
            continue
        e = build_E(p, omega, ctx)
        kernel = solve(e, [ctx.zero] * e.rows).kernel_basis
        assert kernel, "construction should have a nontrivial kernel"
        kappa = [ctx.from_int(k) for k in p.kappa]
        base = ctx.zero
        for a, k in zip(sv.witness, kappa):
            base = base + a * k
        for v in kernel:
            shifted = ctx.zero
            for a, k in zip(v, kappa):
                shifted = shifted + a * k
            assert ctx.is_zero(shifted)
            moved = [a + w for a, w in zip(sv.witness, v)]
            pairing = ctx.zero
            for a, k in zip(moved, kappa):
                pairing = pairing + a * k
            assert pairing == base
        checked += 1


def test_basis_change_invariance(whitehead, rng):
    base = slope_symbolic(whitehead)
    for _ in range(10):
        u = random_unimodular(rng, 2)
        transformed = change_basis(whitehead, u)
        sv = slope_symbolic(transformed)
        assert sv.kind == base.kind
        assert sv.value == base.value


def test_basis_change_invariance_random(rng):
    for _ in range(10):
        p = random_presentation(rng, mu=rng.choice([1, 2]), n=3)
        base = slope_symbolic(p)
        u = random_unimodular(rng, 3)
        sv = slope_symbolic(change_basis(p, u))
        assert sv.kind == base.kind
        if base.kind == FINITE:
            assert sv.value == base.value


def test_stabilization_invariance(whitehead, rng):
    base = slope_symbolic(whitehead)
    stab = slope_symbolic(stabilize(whitehead))
    assert stab.kind == base.kind and stab.value == base.value
    for _ in range(15):
        p = random_presentation(rng, mu=rng.choice([1, 2]), n=2)
        a = slope_symbolic(p)
        b = slope_symbolic(stabilize(p))
        assert a.kind == b.kind
        if a.kind == FINITE:
            assert a.value == b.value


def test_block_presentation_reduces_to_block(whitehead, rng):
    for _ in range(5):
        c = random_presentation(rng, mu=1, n=2)
        theta_b = whitehead.theta[(1,)]
        theta_c = c.theta[(1,)]
        blocked = [
            [theta_b[0][0], theta_b[0][1], 0, 0],
            [theta_b[1][0], theta_b[1][1], 0, 0],
            [0, 0, theta_c[0][0], theta_c[0][1]],
            [0, 0, theta_c[1][0], theta_c[1][1]],
        ]
        p = CComplexPresentation.build(1, 4, {"+": blocked}, [1, 0, 0, 0])
        sv = slope_symbolic(p)
        base = slope_symbolic(whitehead)
        assert sv.kind == base.kind == FINITE
        assert sv.value == base.value


def test_symbolic_pointwise_consistency(rng):
    """The symbolic slope evaluated numerically matches slope_at in the
    approximate context, at unitary points away from the denominator."""
    ctx = ApproxComplex()
    done = 0
    while done < 20:
        mu = rng.choice([1, 2])
        p = random_presentation(rng, mu=mu, n=2)
        sym = slope_symbolic(p)
        if sym.kind != FINITE:
            continue
        values = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(mu)]
        if any(abs(v - 1) < 1e-3 for v in values):
            continue
        den = sym.value.den.evaluate(values, zero=0j)
        if abs(den) < 1e-6:
            continue
        numeric = slope_at(p, Character.numeric(values), ctx)
        if numeric.kind != FINITE:
            continue
        expected = sym.value.num.evaluate(values, zero=0j) / den
        assert abs(numeric.value - expected) < 1e-9
        assert numeric.approximate
        done += 1


def test_symbolic_value_is_pairing_of_witness(rng):
    """The finite symbolic slope equals -sum_i alpha_i kappa_i formed term by
    term in RatFunc arithmetic from the returned witness."""
    for mu, n in [(1, 3), (1, 5), (2, 2)] * 3:
        p = random_presentation(rng, mu=mu, n=n)
        sv = slope_symbolic(p)
        if sv.kind != FINITE:
            continue
        rf = RationalFunctionField(mu)
        pairing = rf.zero
        for a, k in zip(sv.witness, p.kappa):
            pairing = pairing + a * rf.from_int(k)
        assert sv.value == -pairing


@pytest.mark.parametrize(
    "shape, kappa, kind",
    [
        # E = diag(0, w): kernel e1, image {(0, x)}
        ("diag", (0, 1), FINITE),
        ("diag", (0, "1/(1-w)"), FINITE),
        ("diag", (1, 0), INFINITY),
        # E = [[0, w], [0, 0]]: kernel e1, image {(x, 0)}
        ("upper", (1, 0), UNDEFINED),
        ("upper", (0, 1), UNDEFINED),
    ],
)
def test_symbolic_underdetermined_operator(shape, kappa, kind):
    """Operators with a kernel over the rational function field keep their
    kind; the numerator pairing also holds for a rational kappa entry."""
    rf = RationalFunctionField(1)
    [w] = rf.variables()
    scalars = {0: rf.zero, 1: rf.one, "1/(1-w)": rf.one / (rf.one - w)}
    entries = [[rf.zero, rf.zero], [rf.zero, w]] if shape == "diag" else [[rf.zero, w], [rf.zero, rf.zero]]
    k = [scalars[x] for x in kappa]
    sv = slope_from_operator(Matrix(rf, entries), k)
    assert sv.kind == kind
    # over the rational function field the certificate is always collected
    assert sv.valid_away_from is not None
    if kind == FINITE:
        assert list(sv.witness) == [rf.zero, k[1] / w]
        assert sv.value == -(k[1] / w * k[1])


# -- signature and nullity ------------------------------------------------------------


def test_trefoil_signature_matches_eigenvalue_oracle(trefoil):
    v = np.array([[-1, 1], [0, -1]])
    eigs = np.linalg.eigvalsh(v + v.T)
    oracle_sigma = int(np.sum(eigs > 0) - np.sum(eigs < 0))
    sig = signature_nullity(trefoil, Character.root_of_unity(2, (1,)))
    assert sig.sigma == oracle_sigma == -2
    assert sig.eta == 0
    assert sig.eta_exact


def test_empty_presentation_signature():
    p = CComplexPresentation.build(1, 0, {"+": []}, [])
    sig = signature_nullity(p, Character.root_of_unity(2, (1,)))
    assert (sig.sigma, sig.eta) == (0, 0)


def test_stabilization_keeps_eta_when_joining_components(rng):
    omega = Character.root_of_unity(3, (1,))
    for _ in range(10):
        p = random_presentation(rng, mu=1, n=2, b0=2)
        before = signature_nullity(p, omega)
        after = signature_nullity(stabilize(p), omega)
        assert after.eta == before.eta
        assert after.sigma == before.sigma


def test_signature_conjugation_symmetry(rng):
    for _ in range(15):
        mu = rng.choice([1, 2])
        p = random_presentation(rng, mu=mu, n=2)
        n_order = rng.choice([3, 4, 5, 7, 8])
        exps = tuple(rng.randint(1, n_order - 1) for _ in range(mu))
        omega = Character.root_of_unity(n_order, exps)
        conj = omega.conjugate()
        a = signature_nullity(p, omega)
        b = signature_nullity(p, conj)
        assert a.sigma == b.sigma
        assert a.eta == b.eta


def test_signature_rejects_non_unitary(whitehead):
    with pytest.raises(UnsupportedHypothesisError):
        signature_nullity(whitehead, Character.numeric([2 + 0j]))
    with pytest.raises(UnsupportedHypothesisError):
        signature_nullity(whitehead, Character.root_of_unity(5, (0,)))


def test_signature_at_numeric_unitary_flags_eta(whitehead):
    omega = Character.numeric([cmath.exp(2j * cmath.pi / 7)])
    sig = signature_nullity(whitehead, omega)
    assert not sig.eta_exact
    exact = signature_nullity(whitehead, Character.root_of_unity(7, (1,)))
    assert (sig.sigma, sig.eta) == (exact.sigma, exact.eta)


def test_signature_ignores_linking():
    p = CComplexPresentation.build(1, 1, {"+": [[1]]}, [0], linking=[5])
    sig = signature_nullity(p, Character.root_of_unity(2, (1,)))
    assert sig.sigma == 1


# -- zero certification ----------------------------------------------------------------


def test_certify_zero_for_kappa_zero(rng):
    p = random_presentation(rng, mu=1, n=2, kappa_zero=True)
    assert certify_zero_slope(p)


def test_certify_zero_rejects_whitehead(whitehead):
    assert not certify_zero_slope(whitehead)


def test_certify_zero_boundary_style_random(rng):
    for mu in (1, 2):
        p = random_presentation(rng, mu=mu, n=2, kappa_zero=True)
        assert certify_zero_slope(p)


def test_three_colors_smoke(rng):
    p = random_presentation(rng, mu=3, n=2)
    sym = slope_symbolic(p)
    assert sym.kind in (FINITE, INFINITY, UNDEFINED)
    stab = slope_symbolic(stabilize(p))
    assert stab.kind == sym.kind
    if sym.kind == FINITE:
        assert stab.value == sym.value
    omega = Character.root_of_unity(4, (1, 2, 3))
    point = slope_at(p, omega)
    assert not point.approximate
    sig = signature_nullity(p, omega)
    assert sig.eta >= 0


# -- comparator ---------------------------------------------------------------------


def test_compare_slopes_matches_pointwise_slopes(rng):
    # differential: every point is two direct slope_at calls, in sampling order,
    # and the witness is the first unequal point
    obstructed = 0
    for _ in range(8):
        mu, n = rng.randint(1, 2), rng.randint(1, 3)
        base = random_presentation(rng, mu=mu, n=n)
        disguises = [change_basis(base, random_unimodular(rng, n)), stabilize(base)]
        corrupted = replace(base, kappa=(base.kappa[0] + 1,) + base.kappa[1:])
        for other in disguises + [corrupted]:
            seed = rng.randrange(100)
            result = compare_slopes(base, other, 4, seed=seed)
            assert [pt.omega for pt in result.points] == sample_safe_characters(
                mu, base.linking, 4, seed=seed
            )
            for pt in result.points:
                a, b = slope_at(base, pt.omega), slope_at(other, pt.omega)
                assert (pt.first, pt.second) == (a, b)
                assert pt.equal == (a.kind == b.kind and (a.kind != FINITE or a.value == b.value))
            unequal = [pt.omega for pt in result.points if not pt.equal]
            assert result.witness == (unequal[0] if unequal else None)
            if other is not corrupted:
                assert result.witness is None
            obstructed += result.witness is not None
    assert obstructed > 0


def test_compare_slopes_refusals(whitehead):
    two_colors = CComplexPresentation.build(2, 1, {"++": [[1]], "-+": [[0]]}, [1])
    with pytest.raises(UsageError, match="different numbers of colors"):
        compare_slopes(whitehead, two_colors, 4)
    linked = replace(whitehead, linking=(2,))
    with pytest.raises(UnsupportedHypothesisError, match="vanishing linking vectors"):
        compare_slopes(linked, whitehead, 4)
    with pytest.raises(UnsupportedHypothesisError, match="vanishing linking vectors"):
        compare_slopes(whitehead, linked, 4)
