import cmath
import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import slopelab.characters as characters_module
import slopelab.linalg as linalg_module
import slopelab.seifert as seifert_module
import slopelab.slope as slope_module
from slopelab.characters import Character, evaluate_at_torsion, sample_safe_characters
from slopelab.errors import InvalidPresentationError, UnsupportedHypothesisError, UsageError
from slopelab.fields import (
    Cyclotomic,
    RatFunc,
    RationalFunctionField,
)
from slopelab.laurent import LaurentPoly, is_prime_power, normalize_poly
from slopelab.linalg import Matrix, hermitian_inertia, rank, solve
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
    CaseReport,
    SlopeValue,
    certify_zero_slope,
    compare_slopes,
    signature_nullity,
    slope_at,
    slope_from_operator,
    slope_symbolic,
)

from conftest import int_matrix, old_cleared, old_echelon_fraction_free

Q = Cyclotomic(1)


def old_slope_at(p, omega):
    """The slope at a torsion character by Gauss-Jordan elimination of
    E(omega) in Q(zeta_N), the path the per-presentation records replace
    (no validation, no memo)."""
    ctx = Cyclotomic(omega.conductor)
    return slope_from_operator(build_E(p, omega, ctx), [ctx.from_int(k) for k in p.kappa])


def _battery(mu):
    """The characters of ``certify_zero_slope``'s battery."""
    return [Character.root_of_unity(*point) for point in slope_module._battery(mu)]


def old_slope_symbolic(p):
    """The symbolic slope from build_E's operator E(w), with no record and
    no validation: each row of [E(w) | kappa] cleared by the lcm of its
    denominators, the suite's per-entry Bareiss
    (``old_echelon_fraction_free``), and the trichotomy read off the
    reduced row echelon form, the final rows over det, in ``RatFunc``
    arithmetic.  ``valid_away_from`` is the product of the distinct
    normalized pivots that are not units.  It shares no elimination code
    with the record."""
    mu, n = p.mu, p.n
    rf = RationalFunctionField(mu)
    e = build_E(p, Character.symbolic(mu), rf)
    kappa = [rf.from_int(k) for k in p.kappa]
    cleared = [old_cleared(list(row) + [k], mu) for row, k in zip(e.entries, kappa)]
    rows, pivots, pivot_polys = old_echelon_fraction_free(cleared, n + 1, mu)
    det = pivot_polys[-1] if pivot_polys else LaurentPoly.one(mu)
    rref = [[RatFunc(x, det) for x in row] for row in rows[:len(pivots)]]
    pivot_cols = [c for c in pivots if c < n]
    in_image = n not in pivots
    in_annihilator = True
    for f in range(n):
        if f not in pivot_cols:
            # the kernel vector of free column f
            v = [rf.zero] * n
            v[f] = rf.one
            for r, c in enumerate(pivot_cols):
                v[c] = -rref[r][f]
            pairing = rf.zero
            for a, k in zip(v, kappa):
                pairing = pairing + a * k
            in_annihilator = in_annihilator and pairing.is_zero()
    certificate, seen = LaurentPoly.one(mu), []
    for q in map(normalize_poly, pivot_polys):
        if not (q.is_constant() or q.is_monomial() or q in seen):
            seen.append(q)
            certificate = certificate * q
    report = CaseReport(in_image, in_annihilator)
    if not (in_image and in_annihilator):
        kind = UNDEFINED if in_image or in_annihilator else INFINITY
        return SlopeValue(kind, None, None, report, False, certificate)
    witness = [rf.zero] * n
    for r, c in enumerate(pivot_cols):
        witness[c] = rref[r][n]
    value = rf.zero
    for a, k in zip(witness, kappa):
        value = value - a * k
    return SlopeValue(FINITE, value, tuple(witness), report, False, certificate)


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
        sv = slope_at(whitehead, omega)
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


def test_certify_refuses_as_slope_symbolic_does():
    # validation first, then lambda = 0, each with slope_symbolic's message
    broken = CComplexPresentation.build(1, 1, {"+": [[1]], "-": [[2]]}, [0], linking=[1])
    linked = CComplexPresentation.build(1, 1, {"+": [[1]]}, [0], linking=[1])
    for p, error in ((broken, InvalidPresentationError), (linked, UnsupportedHypothesisError)):
        with pytest.raises(error) as expected:
            slope_symbolic(p)
        with pytest.raises(error) as got:
            certify_zero_slope(p)
        assert str(got.value) == str(expected.value)


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
        sv = slope_at(p, omega)
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
        numeric = slope_at(p, Character.numeric(values))
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


def _cofactor_det(m, zero, one):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return one
    total = zero
    for j, x in enumerate(m[0]):
        if x:
            term = x * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]], zero, one)
            total = total + term if j % 2 == 0 else total - term
    return total


def bordered_determinant_slope(p):
    """c * det [[A_II, kappa_I], [kappa_I^T, 0]] / det A_II, with A = A(w^-1)
    over Laurent polynomials, c = prod_i (1 - w_i^-1), and I the first
    principal block, largest first, whose determinant is not zero.  Since
    E = A / c is Hermitian, a finite slope is -kappa^T x for any x with
    E x = kappa, and the Schur complement of A_II in the bordered matrix
    gives the formula.  Uses no elimination of ``linalg``."""
    mu, n = p.mu, p.n
    zero, one = LaurentPoly.zero(mu), LaurentPoly.one(mu)
    a = [[zero] * n for _ in range(n)]
    for eps, theta in p.theta.items():
        sign = -1 if sum(e < 0 for e in eps) % 2 else 1
        mono = LaurentPoly.monomial(mu, [-1 if e < 0 else 0 for e in eps], sign)
        for i in range(n):
            for j in range(n):
                if theta[i][j]:
                    a[i][j] = a[i][j] + mono * theta[i][j]
    c = one
    for i in range(mu):
        c = c * (one - LaurentPoly.var(mu, i).subst_inverse())
    kappa = [LaurentPoly.const(mu, k) for k in p.kappa]
    for size in range(n, -1, -1):
        for block in itertools.combinations(range(n), size):
            det = _cofactor_det([[a[i][j] for j in block] for i in block], zero, one)
            if det:
                bordered = [[a[i][j] for j in block] + [kappa[i]] for i in block]
                bordered.append([kappa[j] for j in block] + [zero])
                return RatFunc(c * _cofactor_det(bordered, zero, one), det)
    raise AssertionError("the empty block has determinant one")


def test_symbolic_slope_matches_bordered_determinant(rng):
    """Every finite symbolic slope is storage-equal to the bordered
    determinant formula: n <= 4, mu 1-3, random, stabilized and kappa-zero
    presentations (stabilized ones have a singular E)."""
    finite, sizes = set(), set()
    for trial in range(90):
        mu = 1 + trial % 3
        n = rng.randint(1, 4)
        kind = ("random", "stabilized", "kappa-zero")[trial // 3 % 3]
        p = random_presentation(rng, mu=mu, n=n if kind != "stabilized" else n - 1,
                                kappa_zero=kind == "kappa-zero")
        if kind == "stabilized":
            p = stabilize(p)
        sv = slope_symbolic(p)
        if sv.kind != FINITE:
            continue
        want = bordered_determinant_slope(p)
        assert (sv.value.num, sv.value.den) == (want.num, want.den)
        finite.add((mu, kind))
        sizes.add(p.n)
    assert sizes == {1, 2, 3, 4}
    assert finite == {(mu, kind) for mu in (1, 2, 3)
                      for kind in ("random", "stabilized", "kappa-zero")}


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
    """Operators with a kernel keep their kind, also with a kappa entry
    that is not an integer.  w is zeta_5 in Q(zeta_5): ``linalg.solve``
    takes no matrix over the rational function field."""
    ctx = Cyclotomic(5)
    w = ctx.zeta(1)
    scalars = {0: ctx.zero, 1: ctx.one, "1/(1-w)": ctx.one / (ctx.one - w)}
    entries = [[ctx.zero, ctx.zero], [ctx.zero, w]] if shape == "diag" else [[ctx.zero, w], [ctx.zero, ctx.zero]]
    k = [scalars[x] for x in kappa]
    sv = slope_from_operator(Matrix(ctx, entries), k)
    assert sv.kind == kind
    # only a symbolic answer carries a certificate
    assert sv.valid_away_from is None
    if kind == FINITE:
        assert list(sv.witness) == [ctx.zero, k[1] / w]
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
        conj = Character.root_of_unity(n_order, [-k for k in exps])
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


def _padded(rng, p, extra):
    """p with ``extra`` basis curves linking nothing, mixed in by a change of basis."""
    n = p.n + extra
    theta = {
        eps: [list(row) + [0] * extra for row in m] + [[0] * n for _ in range(extra)]
        for eps, m in p.theta.items()
    }
    padded = CComplexPresentation.build(p.mu, n, theta, list(p.kappa) + [0] * extra, b0=p.b0)
    return change_basis(padded, random_unimodular(rng, n))


def test_exact_signature_matches_eigenvalue_and_rank_oracles(rng):
    # differential: the congruence diagonalization against floating-point
    # eigenvalues of the mapped E for sigma and the exact rank for eta
    conductors = (3, 5, 7, 8, 9, 12, 25, 27, 64, 72)
    seen, with_kernel = set(), 0
    for case in range(220):
        mu, n = rng.randint(1, 2), rng.randint(1, 6)
        p = random_presentation(rng, mu=mu, n=n, bound=rng.choice([1, 2]), b0=rng.randint(1, 2))
        if case % 3 == 0:
            p = _padded(rng, p, rng.randint(1, 2))
        conductor = conductors[case % len(conductors)]
        omega = Character.root_of_unity(
            conductor, [rng.randint(1, conductor - 1) for _ in range(mu)]
        )
        e = build_E(p, omega, Cyclotomic(conductor))
        counts = hermitian_inertia(e)
        eigs = np.linalg.eigvalsh(np.array([[x.to_complex() for x in row] for row in e.entries]))
        oracle_sigma = int(np.sum(eigs > 1e-8) - np.sum(eigs < -1e-8))
        oracle_eta = p.n - rank(e) + p.b0 - 1
        sig = signature_nullity(p, omega)
        assert counts[0] + counts[1] + counts[2] == p.n
        assert sig.counts == counts
        assert (sig.sigma, sig.eta) == (counts[0] - counts[1], counts[2] + p.b0 - 1)
        assert (sig.sigma, sig.eta) == (oracle_sigma, oracle_eta)
        seen.add(conductor)
        with_kernel += counts[2] > 0
    assert seen == set(conductors) and with_kernel >= 60


def test_signature_of_exact_non_hermitian_operator_falls_back():
    # only reachable without the transpose check: E(omega) = (1 - 2 w^-1) /
    # (1 - w^-1) has imaginary part proportional to Im w, so the exact
    # factorization declines it and the floating-point path refuses it
    broken = CComplexPresentation.build(1, 1, {"+": [[1]], "-": [[2]]}, [0])
    omega = Character.root_of_unity(5, (1,))
    assert hermitian_inertia(build_E(broken, omega, Cyclotomic(5))) is None
    with pytest.raises(UsageError, match="not Hermitian within tolerance"):
        signature_nullity(broken, omega, check_transpose=False)


def test_signature_checks_both_tolerances_tol_first(trefoil):
    # the exact factorization at a torsion character reads neither
    # tolerance, yet both are refused, the zero tolerance first
    omega = Character.root_of_unity(5, (1,))
    with pytest.raises(UsageError, match="^tolerance must be positive$"):
        signature_nullity(trefoil, omega, tol_sig=-1.0, tol=0.0)
    with pytest.raises(UsageError, match="^signature tolerance must be"):
        signature_nullity(trefoil, omega, tol_sig=-1.0)


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


def _on_locus(symbolic, mu):
    return [
        omega
        for omega in _battery(mu)
        if evaluate_at_torsion(symbolic.valid_away_from, omega).is_zero()
    ]


def _certify_by_direct_solves(p):
    """The zero certification with a Gauss-Jordan solve at every battery
    character."""
    symbolic = slope_symbolic(p)
    if not symbolic.is_finite() or not symbolic.value.is_zero():
        return False
    points = (old_slope_at(p, omega) for omega in _battery(p.mu))
    return all(point.is_finite() and point.value.is_zero() for point in points)


def test_certify_zero_slope_matches_direct_solves():
    # differential against the per-character loop, on kappa zero and nonzero
    # and one mu = 3 battery; every early exit is taken: an infinite symbolic
    # slope, a finite nonzero one, and a zero one rejected on the locus
    rng = random.Random(5)
    cases = []
    for i in range(40):
        mu, n = rng.randint(1, 2), rng.randint(1, 3)
        cases.append(random_presentation(rng, mu=mu, n=n, bound=1, kappa_zero=i % 2 == 0))
    cases.append(random_presentation(rng, mu=3, n=2, bound=1, kappa_zero=True))
    exits = {"infinite": 0, "nonzero": 0, "rejected on the locus": 0}
    on_locus = 0
    for p in cases:
        certified = certify_zero_slope(p)
        assert certified == _certify_by_direct_solves(p)
        symbolic = slope_symbolic(p)
        if symbolic.kind == INFINITY:
            exits["infinite"] += 1
        elif symbolic.is_finite() and not symbolic.value.is_zero():
            exits["nonzero"] += 1
        elif symbolic.is_finite():
            on_locus += len(_on_locus(symbolic, p.mu))
            exits["rejected on the locus"] += not certified
    assert on_locus > 0 and all(exits.values()), exits


def test_symbolic_slope_specializes_off_the_certificate_locus():
    # at a battery character where the certificate does not vanish, the
    # Gauss-Jordan slope is finite with the symbolic value evaluated there
    rng = random.Random(11)
    checked = nonzero = 0
    for _ in range(12):
        mu, n = rng.randint(1, 2), rng.randint(1, 3)
        p = random_presentation(rng, mu=mu, n=n)
        symbolic = slope_symbolic(p)
        if not symbolic.is_finite():
            continue
        locus = _on_locus(symbolic, mu)
        for omega in _battery(mu):
            if omega in locus:
                continue
            value = symbolic.value
            expected = evaluate_at_torsion(value.num, omega) / evaluate_at_torsion(
                value.den, omega
            )
            point = old_slope_at(p, omega)
            assert point.kind == FINITE and point.value == expected
            checked += 1
            nonzero += not expected.is_zero()
    assert checked > 0 and nonzero > 0


def test_certify_solves_directly_only_on_the_det_locus(monkeypatch):
    p = CComplexPresentation.build(
        2, 2, {"++": [[2, 0], [-1, 0]], "-+": [[-1, 0], [1, 0]]}, [0, 0]
    )
    det = slope_module._Elimination(p).det
    locus = [omega for omega in _battery(2) if _vanishes(det, omega)]
    assert len(locus) == 6
    calls = {"slope_at": [], "_direct": [], "_certificate": [], "solve_at": []}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(first, second, *args, **kwargs):
            calls[name].append(second)
            return original(first, second, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(slope_module, "slope_at")
    counting(slope_module, "_direct")
    counting(slope_module, "_certificate")
    counting(slope_module._Elimination, "solve_at")
    assert certify_zero_slope(p)
    # no symbolic slope and no certificate: the record is read directly,
    # then one solve on its rows per character where det vanishes, which
    # skips slope_at's checks
    assert calls == {"slope_at": [], "_direct": [], "_certificate": [], "solve_at": locus}


def test_certify_reads_det_coordinates_only_on_the_det_locus(monkeypatch):
    """The battery proves det(omega) != 0 by its modular image, so det's
    integer coordinates are formed only where det vanishes."""
    p = CComplexPresentation.build(
        2, 2, {"++": [[2, 0], [-1, 0]], "-+": [[-1, 0], [1, 0]]}, [0, 0]
    )
    det = slope_module._Elimination(p).det
    locus = [(omega.conductor, omega.exponents) for omega in _battery(2) if _vanishes(det, omega)]
    on_det = []
    original = characters_module._at_torsion

    def counted(poly, conductor, exponents):
        if poly == det:
            on_det.append((conductor, exponents))
        return original(poly, conductor, exponents)

    monkeypatch.setattr(characters_module, "_at_torsion", counted)
    assert certify_zero_slope(p)
    assert on_det == locus and len(locus) == 6


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
    # differential: every point is the Gauss-Jordan slope of each side, in
    # sampling order, and the witness is the first unequal point
    obstructed = 0
    for _ in range(8):
        mu, n = rng.randint(1, 2), rng.randint(1, 3)
        base = random_presentation(rng, mu=mu, n=n)
        disguises = [change_basis(base, random_unimodular(rng, n)), stabilize(base)]
        corrupted = base.replace(kappa=(base.kappa[0] + 1,) + base.kappa[1:])
        for other in disguises + [corrupted]:
            seed = rng.randrange(100)
            result = compare_slopes(base, other, 4, seed=seed)
            assert [pt.omega for pt in result.points] == sample_safe_characters(
                mu, base.linking, 4, seed=seed
            )
            for pt in result.points:
                a, b = old_slope_at(base, pt.omega), old_slope_at(other, pt.omega)
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
    linked = whitehead.replace(linking=(2,))
    with pytest.raises(UnsupportedHypothesisError, match="vanishing linking vectors"):
        compare_slopes(linked, whitehead, 4)
    with pytest.raises(UnsupportedHypothesisError, match="vanishing linking vectors"):
        compare_slopes(whitehead, linked, 4)
    # validation comes first, on both sides, before the mu and linking checks
    # and before any character is sampled
    broken = CComplexPresentation.build(1, 1, {"+": [[1]], "-": [[2]]}, [0])
    with pytest.raises(InvalidPresentationError):
        compare_slopes(broken, whitehead, 0)
    with pytest.raises(InvalidPresentationError):
        compare_slopes(two_colors, broken, 4)


def test_compare_slopes_validates_each_side_once(whitehead, monkeypatch):
    validated = []
    original = slope_module.validate

    def counting(presentation, *args, **kwargs):
        validated.append(presentation)
        return original(presentation, *args, **kwargs)

    monkeypatch.setattr(slope_module, "validate", counting)
    kappa_zero = whitehead.replace(kappa=(0, 0))
    for budget in (0, 8):
        validated.clear()
        result = compare_slopes(whitehead, kappa_zero, budget)
        assert len(result.points) == budget
        assert [id(p) for p in validated] == [id(whitehead), id(kappa_zero)]


def test_slope_at_takes_no_context(whitehead):
    # the field is derived from the character; a context passed where the
    # parameter once was is refused, not ignored
    with pytest.raises(TypeError):
        slope_at(whitehead, Character.root_of_unity(2, (1,)), Cyclotomic(4))


# -- per-presentation records ---------------------------------------------------------


@pytest.fixture
def eliminations(monkeypatch, empty_record_memo):
    """Calls of the fraction-free elimination, on an empty memo."""
    calls = []
    original = linalg_module._echelon_fraction_free

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg_module, "_echelon_fraction_free", counting)
    return calls


def _broken(rng, n):
    """A mu = 1 presentation without the transpose symmetry.  Column j of
    E(w) is zero and column i is w-free, and kappa is column i half the
    time, so kappa lies in the image but not always in the annihilator of
    the kernel: the undefined kind."""
    plus = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    minus = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    for row_p, row_m in zip(plus, minus):
        row_p[j] = row_m[j] = row_m[i] = 0
    if rng.random() < 0.5:
        kappa = [row[i] for row in plus]
    else:
        kappa = [rng.randint(-2, 2) for _ in range(n)]
    return CComplexPresentation.build(1, n, {"+": plus, "-": minus}, kappa)


def _torsion_points(rng, count):
    """mu = 1 characters: prime-power and composite conductors up to 72."""
    out = []
    for _ in range(count):
        conductor = rng.randint(2, 72)
        out.append(Character.root_of_unity(conductor, (rng.randrange(1, conductor),)))
    return out


def test_records_match_gauss_jordan(rng, monkeypatch):
    """Differential: every torsion slope_at, record path or direct, is
    storage-equal to the Gauss-Jordan slope of E(omega)."""
    answered = []
    at = slope_module._Elimination.at

    def counting(record, omega):
        sv = at(record, omega)
        if not _vanishes(record.det, omega):
            answered.append((record.mu, omega, sv.kind))
        return sv

    monkeypatch.setattr(slope_module._Elimination, "at", counting)
    # (presentation, check_transpose, characters, asked symbolically first)
    cases = []
    for n in range(9):
        for _ in range(2):
            p = random_presentation(rng, mu=1, n=n)
            cases.append((p, True, _torsion_points(rng, 5), False))
    for _ in range(6):
        n = rng.randint(1, 4)
        p = random_presentation(rng, mu=1, n=n, kappa_zero=rng.random() < 0.3)
        disguises = [
            change_basis(p, random_unimodular(rng, n)),
            stabilize(p),
            stabilize(stabilize(p)),
            p.replace(kappa=(p.kappa[0] + 1,) + p.kappa[1:]),
        ]
        for q in [p] + disguises:
            cases.append((q, True, _torsion_points(rng, 4), False))
    for _ in range(12):
        cases.append((_broken(rng, rng.randint(2, 4)), False, _torsion_points(rng, 4), False))
    locus_rng = random.Random(5)
    on_locus = 0
    for i in range(30):
        mu = 1 if i % 3 else 2
        p = random_presentation(locus_rng, mu=mu, n=locus_rng.randint(1, 3), bound=1)
        symbolic = slope_symbolic(p)
        locus = _on_locus(symbolic, mu)
        on_locus += len(locus)
        others = [omega for omega in _battery(mu) if omega not in locus]
        # the first character off the certificate's locus builds the record,
        # which reads off the locus points where det does not vanish and
        # solves at the others
        cases.append((p, True, locus_rng.sample(others, 3) + locus, True))
    for mu, n in ((2, 3), (2, 2), (3, 2), (3, 1)):
        for symbolic_first in (True, False):
            p = random_presentation(rng, mu=mu, n=n)
            points = [
                Character.root_of_unity(c, tuple(rng.randrange(1, c) for _ in range(mu)))
                for c in rng.sample([3, 4, 5, 6, 8, 9, 12, 72], 4)
            ]
            cases.append((p, True, points, symbolic_first))
    pairs = 0
    kinds = set()
    for p, check_transpose, points, symbolic_first in cases:
        if symbolic_first:
            slope_symbolic(p)
        for omega in points:
            got = slope_at(p, omega, check_transpose=check_transpose)
            assert got == old_slope_at(p, omega), (p, omega)
            kinds.add(got.kind)
            pairs += 1
    assert pairs >= 300 and on_locus > 0
    assert kinds == {kind for _, _, kind in answered} == {FINITE, INFINITY, UNDEFINED}
    assert len(answered) >= pairs // 2
    assert {mu for mu, _, _ in answered} == {1, 2, 3}
    assert not all(is_prime_power(omega.conductor) for _, omega, _ in answered)


def _vanishes(poly, omega):
    return evaluate_at_torsion(poly, omega).is_zero()


def _points(mu, conductors, cap, keep):
    """Up to ``cap`` characters with no coordinate 1, at the given
    conductors, for which ``keep`` holds."""
    points = (
        Character.root_of_unity(c, exponents)
        for c in conductors
        for exponents in itertools.product(range(1, c), repeat=mu)
    )
    return list(itertools.islice(filter(keep, points), cap))


def _locus_points(record, mu, conductors, cap):
    """Characters on the zero locus of the record's det."""
    return _points(mu, conductors, cap, lambda omega: _vanishes(record.det, omega))


def _pivot_locus_points(record, mu, conductors, cap):
    """Characters where some pivot of the record vanishes but det does not:
    read off the record, where the product of the pivots once sent them to
    a solve."""
    return _points(mu, conductors, cap, lambda omega: not _vanishes(record.det, omega)
                   and any(_vanishes(p, omega) for p in record.pivots))


def test_locus_solves_match_gauss_jordan(rng):
    """Differential: where a record's det vanishes, Gauss-Jordan on the
    record's rows at omega gives the answer of Gauss-Jordan on E(omega)
    (``==`` on ``CyclotomicNumber`` compares storage), for every kind, and
    ``slope_at`` returns it.  Undefined needs presentations without the
    transpose symmetry."""
    # (presentation, check_transpose)
    cases = []
    for i in range(36):
        mu = (1, 1, 2, 3)[i % 4]
        p = random_presentation(rng, mu=mu, n=rng.randint(1, 3), bound=1,
                                kappa_zero=i % 5 == 0)
        cases.append((stabilize(p) if i % 3 == 0 else p, True))
    for _ in range(24):
        cases.append((_broken(rng, rng.randint(2, 4)), False))
    kinds = set()
    count = 0
    for p, check_transpose in cases:
        slope_module._RECORDS.clear()
        record = slope_module._record(p)
        conductors = range(2, 13) if p.mu < 3 else (2, 3, 4, 6)
        for omega in _locus_points(record, p.mu, conductors, 6):
            got = record.solve_at(omega)
            assert got == old_slope_at(p, omega), (p, omega)
            assert slope_at(p, omega, check_transpose=check_transpose) == got
            kinds.add((got.kind, p.mu))
            count += 1
    assert count >= 100
    assert {kind for kind, _ in kinds} == {FINITE, INFINITY, UNDEFINED}
    assert {mu for _, mu in kinds} == {1, 2, 3}


def test_pivot_locus_read_offs_match_gauss_jordan(rng, monkeypatch):
    """Differential: where a pivot of the record vanishes but det does not,
    ``slope_at`` reads the answer off the record, with no solve, and it is
    storage-equal to Gauss-Jordan on E(omega), for every kind.  Undefined
    needs presentations without the transpose symmetry; seed 24 of
    ``_broken`` reaches it at omega = -1."""
    # (presentation, check_transpose, kind of data)
    cases = []
    for i in range(60):
        mu = (1, 1, 2, 3)[i % 4]
        p = random_presentation(rng, mu=mu, n=rng.randint(1, 4 - mu // 3), bound=1,
                                kappa_zero=i % 5 == 0)
        if i % 3 == 0:
            cases.append((stabilize(p), True, "stabilized"))
        else:
            cases.append((p, True, "kappa zero" if i % 5 == 0 else "plain"))
    broken = random.Random(24)
    for _ in range(24):
        cases.append((_broken(broken, broken.randint(2, 4)), False, "broken"))

    def refused(record, omega):
        raise AssertionError("solved where det does not vanish")

    monkeypatch.setattr(slope_module._Elimination, "solve_at", refused)
    seen = set()
    count = 0
    for p, check_transpose, data in cases:
        slope_module._RECORDS.clear()
        record = slope_module._record(p)
        conductors = range(2, 13) if p.mu < 3 else (2, 3, 4, 6)
        for omega in _pivot_locus_points(record, p.mu, conductors, 6):
            got = slope_at(p, omega, check_transpose=check_transpose)
            assert got == old_slope_at(p, omega), (p, omega)
            seen.update([got.kind, data, p.mu])
            count += 1
    assert count >= 100
    assert seen == {FINITE, INFINITY, UNDEFINED, "plain", "stabilized", "kappa zero",
                    "broken", 1, 2, 3}


def test_torsion_answers_form_no_operator(rng, monkeypatch):
    """On transpose-symmetric presentations slope_at, certify_zero_slope,
    compare_slopes and signature_nullity answer every torsion character,
    points where det vanishes included, with build_E refusing Q(zeta_N):
    the records read their own rows and signatures the Cimasoni-Florens
    matrix.  The answers equal those computed before the refusal."""
    presentations = [random_presentation(rng, mu=mu, n=n, bound=1)
                     for mu, n in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))]
    presentations.append(stabilize(presentations[0]))
    zero = CComplexPresentation.build(
        2, 2, {"++": [[2, 0], [-1, 0]], "-+": [[-1, 0], [1, 0]]}, [0, 0]
    )
    disguise = change_basis(presentations[3], random_unimodular(rng, 3))

    def answers():
        slope_module._RECORDS.clear()
        out, locus = [], 0
        for p in presentations:
            record = slope_module._record(p)
            for c in (3, 4, 5, 6):
                for exponents in itertools.product(range(1, c), repeat=p.mu):
                    omega = Character.root_of_unity(c, exponents)
                    locus += _vanishes(record.det, omega)
                    out.append((slope_at(p, omega), signature_nullity(p, omega)))
        out.append(certify_zero_slope(zero))
        out.append(compare_slopes(presentations[3], stabilize(disguise), 12))
        return out, locus

    want, locus = answers()
    assert locus > 0 and want[-2] is True

    def refusing(presentation, omega, ctx):
        if isinstance(ctx, Cyclotomic):
            raise AssertionError("E(omega) formed in Q(zeta_N)")
        return build_E(presentation, omega, ctx)

    monkeypatch.setattr(seifert_module, "build_E", refusing)
    monkeypatch.setattr(slope_module, "build_E", refusing)
    assert answers() == (want, locus)


def test_torsion_answers_form_no_certificate(rng, monkeypatch):
    """The product of the pivots is formed only for a symbolic answer:
    with ``_certificate`` refusing, slope_at at torsion characters (det
    zeros included), compare_slopes and certify_zero_slope's battery after
    its symbolic request answer as before, and without the refusal the
    symbolic ``valid_away_from`` is the generic solve's."""
    presentations = [random_presentation(rng, mu=mu, n=n, bound=1)
                     for mu, n in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))]
    # kappa zero, and det -w2 (1 + w1)^2 vanishes at w1 = -1
    zero = CComplexPresentation.build(
        2, 2, {"++": [[2, 0], [-1, 0]], "-+": [[-1, 0], [1, 0]]}, [0, 0]
    )
    presentations.append(zero)
    disguise = stabilize(change_basis(presentations[3], random_unimodular(rng, 3)))
    want = compare_slopes(presentations[3], disguise, 12)
    certificate = slope_module._certificate

    def refused(*args):
        raise AssertionError("certificate formed")

    monkeypatch.setattr(slope_module, "_certificate", refused)
    det_zeros = 0
    for p in presentations:
        for omega in _points(p.mu, (3, 4, 5, 6), None, lambda omega: True):
            assert slope_at(p, omega) == old_slope_at(p, omega), (p, omega)
            det_zeros += _vanishes(slope_module._record(p).det, omega)
    assert det_zeros > 0
    assert compare_slopes(presentations[3], disguise, 12) == want
    symbolic = slope_module.slope_symbolic

    def then_refused(p):
        # the symbolic request forms its certificate, the battery none
        monkeypatch.setattr(slope_module, "_certificate", certificate)
        sv = symbolic(p)
        monkeypatch.setattr(slope_module, "_certificate", refused)
        return sv

    monkeypatch.setattr(slope_module, "slope_symbolic", then_refused)
    assert certify_zero_slope(zero)
    monkeypatch.undo()
    for p in presentations:
        assert slope_symbolic(p).valid_away_from == old_slope_symbolic(p).valid_away_from


def test_symbolic_read_off_matches_the_generic_solve(rng):
    """Differential: every slope_symbolic, read off the record, is
    storage-equal to the generic solve over the rational function field,
    ``valid_away_from`` included."""
    # (presentation, check_transpose)
    cases = []
    for mu, sizes in ((1, range(6)), (2, range(6)), (3, range(3))):
        for n in sizes:
            for _ in range(2):
                p = random_presentation(rng, mu=mu, n=n, kappa_zero=rng.random() < 0.2)
                cases.append((p, True))
    for _ in range(6):
        mu, n = rng.randint(1, 2), rng.randint(1, 3)
        p = random_presentation(rng, mu=mu, n=n, kappa_zero=rng.random() < 0.3)
        disguises = [
            change_basis(p, random_unimodular(rng, n)),
            stabilize(p),
            stabilize(stabilize(p)),
            # the zero generator mixed in: a free column where kappa is not 0
            change_basis(stabilize(p), random_unimodular(rng, n + 1)),
            p.replace(kappa=(p.kappa[0] + 1,) + p.kappa[1:]),
        ]
        cases.extend((q, True) for q in [p] + disguises)
    for _ in range(12):
        cases.append((_broken(rng, rng.randint(2, 4)), False))
    kinds = set()
    for p, check_transpose in cases:
        slope_module._RECORDS.clear()
        got = slope_symbolic(p, check_transpose=check_transpose)
        assert got == old_slope_symbolic(p), p
        assert isinstance(slope_module._RECORDS[slope_module._key(p)], slope_module._Elimination)
        kinds.add(got.kind)
    assert kinds == {FINITE, INFINITY, UNDEFINED}


def test_slope_sign_matches_haynsworth_inertia(rng, monkeypatch):
    """Metamorphic: for Hermitian E(omega) and H = [[E, kappa], [kappa^T, 0]],
    Haynsworth's inertia additivity gives In(H) - In(E) = In(slope) when
    the slope is finite (the Schur complement of E in H is the slope) and
    (1, 1, -1) when it is infinite.  Each character is answered by the
    direct solve and by ``slope_at`` on an empty memo, which reads the
    record off the certificate's zero locus."""
    by_sign = {1: (1, 0, 0), -1: (0, 1, 0), 0: (0, 0, 1)}
    deltas, read_off = [], []
    at = slope_module._Elimination.at

    def counting(record, omega):
        read_off.append(omega)
        return at(record, omega)

    monkeypatch.setattr(slope_module._Elimination, "at", counting)
    for trial in range(150):
        mu, n = rng.randint(1, 2), rng.randint(1, 4)
        p = random_presentation(rng, mu=mu, n=n)
        if trial % 3 == 0:
            # half of the stabilized ones put kappa on the new generator,
            # outside the image and off the annihilator: infinite
            p = stabilize(p)
            if trial % 2:
                p = p.replace(kappa=p.kappa[:-1] + (rng.choice([-1, 1]),))
        conductor = rng.choice([3, 4, 5, 7, 8, 9, 11, 13, 16, 25])
        exponents = tuple(rng.randrange(1, conductor) for _ in range(mu))
        omega = Character.root_of_unity(conductor, exponents)
        ctx = Cyclotomic(conductor)
        slope_module._RECORDS.clear()
        first, second = slope_module._direct(p, omega, ctx), slope_at(p, omega)
        assert first == second
        e = build_E(p, omega, ctx)
        kappa = [ctx.from_int(k) for k in p.kappa]
        bordered = [list(row) + [k] for row, k in zip(e.entries, kappa)]
        h = Matrix(ctx, bordered + [kappa + [ctx.zero]])
        delta = tuple(a - b for a, b in zip(hermitian_inertia(h), hermitian_inertia(e)))
        if first.kind == FINITE:
            assert delta == by_sign[first.value.sign()], (p, omega)
        else:
            assert first.kind == INFINITY and delta == (1, 1, -1), (p, omega)
        deltas.append(delta)
    assert set(deltas) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)}
    assert deltas.count((1, 1, -1)) >= 3
    assert len(read_off) >= 100


@pytest.mark.parametrize("mu", [1, 2])
def test_first_torsion_request_builds_the_record(mu, eliminations, monkeypatch):
    """The first torsion request builds the presentation's record and later
    requests read it; a character where its det vanishes is solved on the
    record's rows, and never directly."""
    # seeds whose det vanishes at some character of conductor at most 12
    p = random_presentation(random.Random({1: 1, 2: 5}[mu]), mu=mu, n=2)
    direct, solved = [], []
    original, solve_at = slope_module._direct, slope_module._Elimination.solve_at

    def counting(presentation, omega, ctx):
        direct.append(omega)
        return original(presentation, omega, ctx)

    def counting_solves(record, omega):
        solved.append(omega)
        return solve_at(record, omega)

    monkeypatch.setattr(slope_module, "_direct", counting)
    monkeypatch.setattr(slope_module._Elimination, "solve_at", counting_solves)
    omegas = [Character.root_of_unity(5, (k,) + (5 - k,) * (mu - 1)) for k in range(1, 5)]
    assert slope_at(p, omegas[0]) == old_slope_at(p, omegas[0])
    assert len(eliminations) == 1
    for omega in omegas[1:] + omegas[:1]:
        assert slope_at(p, omega) == old_slope_at(p, omega)
    assert len(eliminations) == 1 and direct == solved == []
    record = slope_module._RECORDS[slope_module._key(p)]
    [locus] = _locus_points(record, mu, range(2, 13), 1)
    assert slope_at(p, locus) == old_slope_at(p, locus)
    assert (direct, solved) == ([], [locus])
    assert len(eliminations) == 1


@pytest.mark.parametrize("mu", [1, 2])
def test_a_symbolic_request_leaves_the_record(mu, eliminations):
    p = random_presentation(random.Random(4), mu=mu, n=2)
    key = slope_module._key(p)
    symbolic = slope_symbolic(p)
    assert len(eliminations) == 1
    record = slope_module._RECORDS[key]
    assert isinstance(record, slope_module._Elimination)
    assert slope_module._certificate(record.pivots, mu) == symbolic.valid_away_from
    # every later torsion request reads the same record or, where its det
    # vanishes, solves on its rows
    for k in range(1, 5):
        omega = Character.root_of_unity(5, (k,) + (5 - k,) * (mu - 1))
        assert slope_at(p, omega) == old_slope_at(p, omega)
    assert slope_symbolic(p) == symbolic
    assert len(eliminations) == 1
    assert slope_module._RECORDS[key] is record
    assert symbolic == old_slope_symbolic(p)


@pytest.mark.parametrize("mu", [1, 2, 3])
def test_a_record_forms_no_rational_function_rows(mu, monkeypatch, eliminations):
    """Building a record reads the presentation's integer rows: neither
    build_E nor any RatFunc sum or product runs."""
    p = random_presentation(random.Random(mu), mu=mu, n=3 - mu // 3)
    want = old_slope_symbolic(p)
    assert eliminations == []  # the oracle has its own elimination

    def refused(*args, **kwargs):
        raise AssertionError("a record went through RatFunc rows")

    for owner, name in ((seifert_module, "build_E"), (slope_module, "build_E"),
                        (RatFunc, "__add__"), (RatFunc, "__mul__")):
        monkeypatch.setattr(owner, name, refused)
    assert slope_symbolic(p) == want
    assert len(eliminations) == 1


def test_certify_builds_no_record_on_the_locus(eliminations):
    # the presentation of test_certify_solves_directly_only_on_the_det_locus,
    # with six solves where det vanishes
    p = CComplexPresentation.build(
        2, 2, {"++": [[2, 0], [-1, 0]], "-+": [[-1, 0], [1, 0]]}, [0, 0]
    )
    assert certify_zero_slope(p)
    assert len(eliminations) == 1  # the symbolic request's record
    record = slope_module._RECORDS[slope_module._key(p)]
    assert slope_module._certificate(record.pivots, 2) == slope_symbolic(p).valid_away_from


def test_refusals_come_before_the_memo(whitehead, eliminations):
    records = slope_module._RECORDS
    broken = whitehead.replace(theta={(1,): ((0, 0), (1, 1)), (-1,): ((9, 9), (9, 9))})
    with pytest.raises(InvalidPresentationError):
        slope_at(broken, Character.root_of_unity(5, (1,)))
    with pytest.raises(UnsupportedHypothesisError, match="linking"):
        slope_at(whitehead.replace(linking=(1,)), Character.root_of_unity(5, (1,)))
    with pytest.raises(UsageError, match="length"):
        slope_at(whitehead, Character.root_of_unity(5, (1, 2)))
    assert records == {}
    # a record exists and its det is nonzero at w = 1, yet the vanishing
    # coordinate is still refused
    slope_at(whitehead, Character.root_of_unity(5, (1,)))
    slope_at(whitehead, Character.root_of_unity(5, (2,)))
    [record] = records.values()
    at_one = Character.root_of_unity(4, (0,))
    assert not _vanishes(record.det, at_one)
    with pytest.raises(UnsupportedHypothesisError, match="vanishing character coordinate"):
        slope_at(whitehead, at_one)
    assert len(eliminations) == 1


def test_memo_never_exceeds_its_bound(empty_record_memo):
    bound = slope_module.RECORD_BOUND
    presentations = [
        CComplexPresentation.build(1, 1, {"+": [[k]]}, [1]) for k in range(1, bound + 2)
    ]
    for p in presentations:
        slope_symbolic(p)
        assert len(empty_record_memo) <= bound
    assert len(empty_record_memo) == bound
    assert slope_module._key(presentations[0]) not in empty_record_memo
    assert slope_module._key(presentations[-1]) in empty_record_memo
    omega = Character.root_of_unity(3, (1,))
    for p in presentations:
        slope_at(p, omega)
        assert len(empty_record_memo) <= bound
        assert slope_at(p, omega) == old_slope_at(p, omega)


def test_edited_presentations_get_fresh_records(whitehead, eliminations):
    points = [Character.root_of_unity(7, (k,)) for k in range(1, 7)]
    slope_symbolic(whitehead)
    edited = whitehead.replace(kappa=(1, 1))
    for omega in points:
        assert slope_at(edited, omega) == old_slope_at(edited, omega)
    assert len(eliminations) == 2
    p = CComplexPresentation.build(1, 2, {"+": [[0, 0], [1, 1]]}, [0, 1])
    slope_symbolic(p)
    p.theta[(1,)] = ((1, 2), (0, 1))
    p.theta[(-1,)] = ((1, 0), (2, 1))
    for omega in points:
        assert slope_at(p, omega) == old_slope_at(p, omega)
    assert len(eliminations) == 4
