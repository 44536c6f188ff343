"""Acceptance suite: one test per criterion, printed as one line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS
lines on success; failures surface through pytest as usual).
"""

import cmath
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from slopelab.characters import (
    NOT_ROOT,
    ROOT,
    Character,
    concordance_root_status,
    verify_root_witness,
)
from slopelab.conway import INCONCLUSIVE, conway_quotient, load_conway
from slopelab.datasets import builtin_path
from slopelab.fields import (
    ApproxComplex,
    Cyclotomic,
    RatFunc,
    RationalFunctionField,
)
from slopelab.laurent import LaurentPoly
from slopelab.linalg import solve
from slopelab.seifert import (
    CComplexPresentation,
    build_A,
    build_E,
    change_basis,
    load_presentation,
    random_presentation,
    random_unimodular,
    save_presentation,
    stabilize,
)
from slopelab.slope import (
    FINITE,
    INFINITY,
    UNDEFINED,
    signature_nullity,
    slope_at,
    slope_from_operator,
    slope_symbolic,
)

from conftest import int_matrix

WHITEHEAD = load_presentation(builtin_path("whitehead.json"))
TREFOIL = load_presentation(builtin_path("trefoil.json"))
KAPPA_ZERO = load_presentation(builtin_path("kappa_zero.json"))


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_whitehead_golden():
    """Symbolic slope, A and E match the displayed matrices; under 1 s."""
    start = time.perf_counter()
    ctx = RationalFunctionField(1)
    w = LaurentPoly.var(1, 0)
    one = LaurentPoly.one(1)

    a = build_A(WHITEHEAD, Character.symbolic(1), ctx)
    expected_a = [
        [RatFunc.from_poly(LaurentPoly.zero(1)), RatFunc.from_poly(-w)],
        [RatFunc.from_poly(one), RatFunc.from_poly(one - w)],
    ]
    for i in range(2):
        for j in range(2):
            assert a.entries[i][j] == expected_a[i][j], f"A entry ({i},{j})"

    e = build_E(WHITEHEAD, Character.symbolic(1), ctx)
    expected_e = [
        [RatFunc.from_poly(LaurentPoly.zero(1)), RatFunc(one, one - w)],
        [RatFunc(one, one - w.subst_inverse()), RatFunc.from_poly(one)],
    ]
    for i in range(2):
        for j in range(2):
            assert e.entries[i][j] == expected_e[i][j], f"E entry ({i},{j})"

    sv = slope_symbolic(WHITEHEAD)
    closed = RatFunc.from_poly((one - w) * (one - w.subst_inverse()))
    assert sv.kind == FINITE
    assert sv.value == closed
    assert sv.value.render() == closed.render() == "-w1^-1 + 2 - w1"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"Whitehead golden values match (elapsed {elapsed * 1000:.0f} ms)")


def test_criterion_2_pointwise_consistency():
    """slope_at equals the closed form exactly at orders 2,3,4,5,8."""
    w = LaurentPoly.var(1, 0)
    one = LaurentPoly.one(1)
    closed = (one - w) * (one - w.subst_inverse())
    for order in (2, 3, 4, 5, 8):
        ctx = Cyclotomic(order)
        sv = slope_at(WHITEHEAD, Character.root_of_unity(order, (1,)), ctx)
        assert sv.kind == FINITE, f"order {order}"
        expected = closed.evaluate([ctx.zeta(1)], zero=ctx.zero)
        assert sv.value == expected, f"order {order}: {sv.value} != {expected}"
        assert not sv.approximate
    _report(2, "pointwise slope equals the closed form exactly at orders 2,3,4,5,8")


def test_criterion_3_trichotomy_suite():
    """All three outcomes of the trichotomy on constructed operators.

    Criterion 3 was first stated as one triple on E = [[0,1],[0,0]]:
    kappa = (1,0) -> Undefined, kappa = (1,1) -> Infinity and
    kappa = (0,1) -> Finite(-1).  The third member contradicts the
    trichotomy itself.  E (a1, a2) = (a2, 0), so the image is {(x, 0)}
    and the kernel is spanned by e1.  kappa = (0,1) is not in the image
    (the second row would need 0 = 1) but is in the annihilator
    (<e1, kappa> = 0): exactly one membership holds, which is the
    definition of Undefined.  The transposed convention does not rescue
    it: E^T has image span(e2) and kernel span(e2), so kappa = (0,1) is
    in the image but not in the annihilator, again Undefined.  A value of
    -1 would need some alpha with E alpha = (0,1), and none exists.

    The third sub-case therefore asserts Undefined with its memberships,
    and the Finite(-1) outcome is shown on E = diag(0,1), kappa = (0,1):
    kappa = E (0,1) and the kernel span(e1) pairs to zero with kappa, so
    -<alpha, kappa> = -1 for every preimage alpha.
    """
    q = Cyclotomic(1)
    e = int_matrix(q, [[0, 1], [0, 0]])

    sv = slope_from_operator(e, [q.from_int(1), q.from_int(0)])
    assert sv.kind == UNDEFINED, "kappa=(1,0) must be Undefined"

    sv = slope_from_operator(e, [q.from_int(1), q.from_int(1)])
    assert sv.kind == INFINITY, "kappa=(1,1) must be Infinity"

    sv = slope_from_operator(e, [q.from_int(0), q.from_int(1)])
    assert sv.kind == UNDEFINED, "kappa=(0,1) must be Undefined"
    assert not sv.case_report.kappa_in_image
    assert sv.case_report.kappa_in_annihilator

    d = int_matrix(q, [[0, 0], [0, 1]])
    sv = slope_from_operator(d, [q.from_int(0), q.from_int(1)])
    assert sv.kind == FINITE and sv.value == -1, (
        "diag(0,1) with kappa=(0,1) must be Finite(-1)"
    )
    assert sv.case_report.kappa_in_image
    assert sv.case_report.kappa_in_annihilator
    _report(3, "trichotomy suite")


def test_criterion_4_property_suites():
    """Randomized invariance suites at their stated trial counts."""
    rng = random.Random(4242)

    # E*(w) = E(w^-1), 200 trials, exact symbolic context
    for _ in range(200):
        mu = rng.choice([1, 2])
        p = random_presentation(rng, mu=mu, n=rng.randint(1, 3))
        ctx = RationalFunctionField(mu)
        e = build_E(p, Character.symbolic(mu), ctx)
        et = e.transpose()
        for i in range(p.n):
            for j in range(p.n):
                assert et.entries[i][j] == e.entries[i][j].subst_inverse()

    # Hermitian at 100 random unitary numeric points, within 1e-10
    ac = ApproxComplex()
    done = 0
    while done < 100:
        mu = rng.choice([1, 2])
        p = random_presentation(rng, mu=mu, n=rng.randint(1, 3))
        omega = Character.numeric(
            [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(mu)]
        )
        if not omega.is_nonvanishing():
            continue
        e = build_E(p, omega, ac)
        h = e.transpose().map(ac.conjugate)
        for i in range(p.n):
            for j in range(p.n):
                assert abs(e.entries[i][j] - h.entries[i][j]) < 1e-10
        done += 1

    # preimage-choice independence, 200 trials
    omega2 = Character.root_of_unity(2, (1,))
    ctx2 = Cyclotomic(2)
    done = 0
    while done < 200:
        b = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        x = [rng.randint(-2, 2) for _ in range(2)]
        sym = [[b[i][j] + b[j][i] for j in range(2)] for i in range(2)]
        kb = [sum(sym[i][j] * x[j] for j in range(2)) for i in range(2)]
        theta = [[b[0][0], b[0][1], 0], [b[1][0], b[1][1], 0], [0, 0, 0]]
        p = CComplexPresentation.build(1, 3, {"+": theta}, kb + [0])
        sv = slope_at(p, omega2, ctx2)
        if sv.kind != FINITE:
            continue
        kappa = [ctx2.from_int(k) for k in p.kappa]
        base = ctx2.zero
        for a, k in zip(sv.witness, kappa):
            base = base + a * k
        kernel = solve(build_E(p, omega2, ctx2), [ctx2.zero] * p.n).kernel_basis
        assert kernel
        for v in kernel:
            moved = [a + wv for a, wv in zip(sv.witness, v)]
            pairing = ctx2.zero
            for a, k in zip(moved, kappa):
                pairing = pairing + a * k
            assert pairing == base
        done += 1

    # basis-change invariance, 50 random unimodular matrices
    base_sv = slope_symbolic(WHITEHEAD)
    for _ in range(50):
        u = random_unimodular(rng, 2)
        sv = slope_symbolic(change_basis(WHITEHEAD, u))
        assert sv.kind == base_sv.kind and sv.value == base_sv.value

    # stabilization invariance, 200 trials
    for _ in range(200):
        mu = rng.choice([1, 2])
        p = random_presentation(rng, mu=mu, n=rng.randint(0, 2))
        a = slope_symbolic(p)
        b = slope_symbolic(stabilize(p))
        assert a.kind == b.kind
        if a.kind == FINITE:
            assert a.value == b.value

    # symbolic vs numeric agreement at 20 random unitary points, 1e-9
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
        numeric = slope_at(p, Character.numeric(values), ApproxComplex())
        if numeric.kind != FINITE:
            continue
        expected = sym.value.num.evaluate(values, zero=0j) / den
        assert abs(numeric.value - expected) < 1e-9
        done += 1

    _report(4, "adjoint, Hermitian, preimage, basis-change, stabilization, "
               "symbolic-numeric suites all green")


def test_criterion_5_signature_oracle():
    """Trefoil at omega = -1: (sigma, eta) = (-2, 0) vs the eigenvalue oracle."""
    v = np.array([[-1, 1], [0, -1]])
    eigs = np.linalg.eigvalsh(v + v.T)
    oracle = int(np.sum(eigs > 0) - np.sum(eigs < 0))
    sig = signature_nullity(TREFOIL, Character.root_of_unity(2, (1,)))
    assert sig.sigma == oracle == -2
    assert sig.eta == 0
    _report(5, "trefoil signature (-2, 0) matches the sign(V+V^T) oracle")


def test_criterion_6_concordance_root_classifier():
    for order in (2, 3, 4, 5, 7, 8, 9, 16, 25):
        st = concordance_root_status(Character.root_of_unity(order, (1,)))
        assert st.status == NOT_ROOT, f"order {order}"
    for order in (6, 10, 12, 15):
        ch = Character.root_of_unity(order, (1,))
        st = concordance_root_status(ch)
        assert st.status == ROOT, f"order {order}"
        assert st.witness is not None
        at_one = st.witness.evaluate([Fraction(1)])
        assert at_one in (1, -1), f"order {order}: witness({1}) = {at_one}"
        assert verify_root_witness(ch, st.witness), f"order {order}"
    _report(6, "prime powers NotRoot; composite orders Root with verified witnesses")


def test_criterion_7_conway_quotient():
    data = load_conway(builtin_path("l10n36_conway.json"))
    generic = ((10, 1), (8, 1), (5, 1), (4, 1), (7, 2))
    for conductor, k in generic:
        v = conway_quotient(data, Character.root_of_unity(conductor, (k,)))
        assert v.kind == FINITE, f"sqrt zeta_{conductor}^{k}"
        assert v.value.is_zero()
    for k in (1, 5):
        v = conway_quotient(data, Character.root_of_unity(6, (k,)))
        assert v.kind == INCONCLUSIVE, "common root must be inconclusive"
        assert v.value is None, "inconclusive must not be coerced"
    _report(7, "L10n36: Finite(0) at 5 generic points, Inconclusive exactly "
               "at the common roots")


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "slopelab", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


def test_criterion_8_comparator(tmp_path):
    p = _run_cli("compare", "--in", "whitehead.json", "--vs", "kappa_zero.json")
    assert p.returncode == 1, p.stdout
    assert "OBSTRUCTED" in p.stdout
    assert "zeta:2:1" in p.stdout

    moved = tmp_path / "moved.json"
    save_presentation(change_basis(WHITEHEAD, [[1, 1], [0, 1]]), moved)
    p = _run_cli("compare", "--in", "whitehead.json", "--vs", str(moved))
    assert p.returncode == 0, p.stdout
    assert "NO OBSTRUCTION FOUND" in p.stdout

    stab = tmp_path / "stab.json"
    save_presentation(stabilize(WHITEHEAD), stab)
    p = _run_cli("compare", "--in", "whitehead.json", "--vs", str(stab))
    assert p.returncode == 0, p.stdout
    assert "NO OBSTRUCTION FOUND" in p.stdout
    _report(8, "comparator: OBSTRUCTED at an order-2 character; transforms "
               "yield NO OBSTRUCTION FOUND")
