import random
from fractions import Fraction

import pytest

from slopelab.errors import UsageError
from slopelab.fields import (
    ApproxComplex,
    Cyclotomic,
    RatFunc,
    RationalFunctionField,
)
from slopelab.laurent import LaurentPoly, exact_div, poly_lcm
from slopelab.linalg import (
    INCONSISTENT,
    UNDERDETERMINED,
    UNIQUE,
    Matrix,
    hermitian_signature,
    rank,
    solve,
)

from conftest import int_matrix, random_laurent, random_nonzero_laurent

Q = Cyclotomic(1)


def qmat(rows):
    return int_matrix(Q, rows)


def qvec(xs):
    return [Q.from_int(x) for x in xs]


def matmul(*ms):
    """The product of the matrices, one matvec per column of the right factor."""
    out = ms[0]
    for m in ms[1:]:
        out = Matrix(out.ctx, [out.matvec(list(col)) for col in m.transpose().entries]).transpose()
    return out


def random_invertible(rng, ctx, n, bound=3):
    while True:
        rows = [[ctx.from_int(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(n)]
        m = Matrix(ctx, rows)
        if rank(m) == n:
            return m


# -- rank -----------------------------------------------------------------------


def test_rank_identity_and_zero():
    assert rank(qmat([[int(i == j) for j in range(3)] for i in range(3)])) == 3
    assert rank(qmat([[0, 0], [0, 0]])) == 0


def test_rank_construction_oracle(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        p = random_invertible(rng, Q, n)
        q = random_invertible(rng, Q, n)
        d = Matrix(
            Q,
            [
                [Q.from_int(rng.randint(1, 3)) if (i == j and i < k) else Q.zero for j in range(n)]
                for i in range(n)
            ],
        )
        assert rank(matmul(p, d, q)) == k


def test_rank_equals_rank_of_transpose(rng):
    for _ in range(25):
        rows = [[Q.from_int(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]]
        n_cols = len(rows[0])
        for _ in range(rng.randint(0, 3)):
            rows.append([Q.from_int(rng.randint(-3, 3)) for _ in range(n_cols)])
        m = Matrix(Q, rows)
        assert rank(m) == rank(m.transpose())


def test_exact_vs_approximate_rank_agreement(rng):
    ac = ApproxComplex()
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        p = random_invertible(rng, Q, n)
        q = random_invertible(rng, Q, n)
        d = Matrix(
            Q,
            [
                [Q.from_int(rng.randint(1, 3)) if (i == j and i < k) else Q.zero for j in range(n)]
                for i in range(n)
            ],
        )
        m = matmul(p, d, q)
        m_num = m.map(lambda x: x.to_complex(), ctx=ac)
        assert rank(m_num) == rank(m) == k


# -- solve ----------------------------------------------------------------------


def test_solve_whitehead_golden_particular():
    ctx = RationalFunctionField(1)
    one = LaurentPoly.one(1)
    w = LaurentPoly.var(1, 0)
    e = Matrix(
        ctx,
        [
            [ctx.zero, RatFunc(one, one - w)],
            [RatFunc(one, one - w.subst_inverse()), ctx.one],
        ],
    )
    res = solve(e, [ctx.one, ctx.zero])
    assert res.status == UNIQUE
    assert res.particular[0] == RatFunc.from_poly((one - w.subst_inverse()) * (w - one))
    assert res.particular[1] == RatFunc.from_poly(one - w)
    assert res.kernel_basis == ()


def test_solve_zero_system_underdetermined():
    m = qmat([[0, 0], [0, 0]])
    res = solve(m, qvec([0, 0]))
    assert res.status == UNDERDETERMINED
    assert len(res.kernel_basis) == 2
    for v in res.kernel_basis:
        assert all(Q.is_zero(x) for x in m.matvec(list(v)))


def test_solve_construction_oracle(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_invertible(rng, Q, n)
        x = qvec([rng.randint(-4, 4) for _ in range(n)])
        b = m.matvec(x)
        res = solve(m, b)
        assert res.status == UNIQUE
        assert list(res.particular) == x


def test_solve_kernel_in_rref_convention():
    # x + 2y + 3z = 0 has free columns y, z
    m = qmat([[1, 2, 3]])
    res = solve(m, qvec([0]))
    assert res.status == UNDERDETERMINED
    assert [list(v) for v in res.kernel_basis] == [
        qvec([-2, 1, 0]),
        qvec([-3, 0, 1]),
    ]


def test_solve_inconsistent_is_value_not_error():
    m = qmat([[0, 1], [0, 0]])
    res = solve(m, qvec([1, 1]))
    assert res.status == INCONSISTENT
    assert res.particular is None


def test_solve_empty_system():
    m = Matrix(Q, [], cols=0)
    res = solve(m, [])
    assert res.status == UNIQUE
    assert res.particular == ()
    assert res.kernel_basis == ()


# -- membership predicates --------------------------------------------------------


def pairing(f, v):
    acc = Q.zero
    for a, b in zip(f, v):
        acc = acc + a * b
    return acc


def test_in_image_and_annihilator_constructed():
    m = qmat([[0, 1], [0, 0]])
    assert solve(m, qvec([1, 0])).status != INCONSISTENT
    assert solve(m, qvec([0, 1])).status == INCONSISTENT
    # kernel is span e1; (1,0) pairs to 1 with it, (0,1) to 0
    [e1] = solve(m, qvec([0, 0])).kernel_basis
    assert pairing(qvec([1, 0]), e1) == Q.one
    assert Q.is_zero(pairing(qvec([0, 1]), e1))


def test_solve_in_image_consistency(rng):
    # Rouche-Capelli: M x = b is inconsistent iff rank [M | b] > rank M
    seen = set()
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        entries = [[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randint(-2, 2) for _ in range(rows)]
        augmented = qmat([row + [bi] for row, bi in zip(entries, b)])
        inconsistent = solve(qmat(entries), qvec(b)).status == INCONSISTENT
        assert inconsistent == (rank(augmented) > rank(qmat(entries)))
        seen.add(inconsistent)
    assert seen == {True, False}


def test_row_space_annihilates_kernel(rng):
    # every covector in the row space of M pairs to zero with Ker M
    for _ in range(25):
        rows = [[Q.from_int(rng.randint(-2, 2)) for _ in range(4)] for _ in range(3)]
        m = Matrix(Q, rows)
        for v in solve(m, [Q.zero] * m.rows).kernel_basis:
            for row in m.entries:
                acc = Q.zero
                for a, b in zip(row, v):
                    acc = acc + a * b
                assert Q.is_zero(acc)


# -- fraction-free path cross-check -------------------------------------------------


def test_fraction_free_matches_division_echelon(rng):
    """Constant rational-function matrices agree with Q computations."""
    rf = RationalFunctionField(1)
    for _ in range(25):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        ints = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        bq = [rng.randint(-2, 2) for _ in range(n)]
        mq = qmat(ints)
        mrf = int_matrix(rf, ints)
        rq = solve(mq, qvec(bq))
        rrf = solve(mrf, [rf.from_int(x) for x in bq])
        assert rq.status == rrf.status
        assert rank(mq) == rank(mrf)
        if rq.status != INCONSISTENT:
            # Q(zeta_1) numbers have exactly one coordinate
            assert list(rrf.particular) == [
                RatFunc.const(1, c) for x in rq.particular for c in x.coords
            ]


def test_fraction_free_rank_deficient_symbolic(rng):
    """Skipped pivot columns keep every division exact: rank-one and
    rank-two products of polynomial matrices solve and verify."""
    rf = RationalFunctionField(2)
    for _ in range(15):
        u = [RatFunc.from_poly(random_laurent(rng, 2, max_terms=2, exp_range=1)) for _ in range(3)]
        v = [RatFunc.from_poly(random_laurent(rng, 2, max_terms=2, exp_range=1)) for _ in range(3)]
        m = Matrix(rf, [[a * b for b in v] for a in u])
        assert rank(m) <= 1
        res = solve(m, u if not all(x.is_zero() for x in v) else [rf.zero] * 3)
        for w in res.kernel_basis:
            assert all(rf.is_zero(x) for x in m.matvec(list(w)))
        if res.status != INCONSISTENT:
            got = m.matvec(list(res.particular))
            want = u if not all(x.is_zero() for x in v) else [rf.zero] * 3
            assert all(rf.eq(g, t) for g, t in zip(got, want))


def test_fraction_free_symbolic_solution_verifies(rng):
    rf = RationalFunctionField(2)
    w1, w2 = rf.variables()
    for _ in range(10):
        entries = [
            [
                RatFunc(random_laurent(rng, 2, max_terms=2, exp_range=1), LaurentPoly.one(2))
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        m = Matrix(rf, entries)
        b = [w1, w2, rf.one]
        res = solve(m, b)
        if res.status == INCONSISTENT:
            continue
        got = m.matvec(list(res.particular))
        assert all(rf.eq(g, want) for g, want in zip(got, b))
        for v in res.kernel_basis:
            assert all(rf.is_zero(x) for x in m.matvec(list(v)))


def reference_fraction_free_solve(m, b):
    """``solve`` over the rational function field with every entry of the
    fraction-free RREF reduced to a RatFunc, pivot columns included: the
    reference for the path that keeps the numerators over det.  Returns
    (status, particular, kernel_basis, pivot_polys)."""
    ctx = m.ctx
    one = LaurentPoly.one(ctx.num_vars)
    poly_rows = []
    for row in [list(r) + [bi] for r, bi in zip(m.entries, b)]:
        den = one
        for x in row:
            if not x.is_polynomial():
                den = poly_lcm(den, x.den)
        poly_rows.append([x.num * exact_div(den, x.den) for x in row])
    prev = one
    pivots, pivot_polys = [], []
    for c in range(m.cols + 1):
        r = len(pivots)
        sel = next((i for i in range(r, len(poly_rows)) if not poly_rows[i][c].is_zero()), None)
        if sel is None:
            continue
        poly_rows[r], poly_rows[sel] = poly_rows[sel], poly_rows[r]
        p = poly_rows[r][c]
        for i in range(len(poly_rows)):
            if i != r:
                f = poly_rows[i][c]
                poly_rows[i] = [exact_div(p * x - f * y, prev) for x, y in zip(poly_rows[i], poly_rows[r])]
        prev = p
        pivots.append(c)
        pivot_polys.append(p)
    rref = [[RatFunc(x, prev) for x in row] for row in poly_rows[: len(pivots)]]
    pivot_cols = [c for c in pivots if c < m.cols]
    kernel = []
    for f in range(m.cols):
        if f in pivot_cols:
            continue
        v = [ctx.zero] * m.cols
        v[f] = ctx.one
        for r, c in enumerate(pivot_cols):
            v[c] = -rref[r][f]
        kernel.append(tuple(v))
    if m.cols in pivots:
        return INCONSISTENT, None, tuple(kernel), tuple(pivot_polys)
    particular = [ctx.zero] * m.cols
    for r, c in enumerate(pivots):
        particular[c] = rref[r][m.cols]
    status = UNDERDETERMINED if kernel else UNIQUE
    return status, tuple(particular), tuple(kernel), tuple(pivot_polys)


def random_ratfunc(rng, num_vars):
    num = random_laurent(rng, num_vars, max_terms=2, exp_range=1, coeff_range=2)
    if rng.random() < 0.5:
        return RatFunc.from_poly(num)
    return RatFunc(num, random_nonzero_laurent(rng, num_vars, max_terms=2, exp_range=1, coeff_range=2))


def test_fraction_free_solve_matches_reduced_reference(rng):
    """Square, rectangular, rank-deficient and inconsistent systems over the
    rational function field give the same status, particular solution,
    kernel basis and pivots as the wrap-every-entry reference."""
    rf = RationalFunctionField(2)
    seen = set()
    for trial in range(60):
        rows, cols = [(2, 2), (3, 3), (2, 3), (3, 2), (1, 3), (3, 1)][trial % 6]
        entries = [[random_ratfunc(rng, 2) for _ in range(cols)] for _ in range(rows)]
        if trial % 3 == 1:
            # rank deficient: the last row is a multiple of the first
            f = random_ratfunc(rng, 2)
            entries[-1] = [f * x for x in entries[0]]
        m = Matrix(rf, entries)
        if trial % 3 == 2:
            b = m.matvec([random_ratfunc(rng, 2) for _ in range(cols)])
        else:
            b = [random_ratfunc(rng, 2) for _ in range(rows)]
        res = solve(m, b)
        assert (res.status, res.particular, res.kernel_basis, res.pivot_polys) == (
            reference_fraction_free_solve(m, b)
        )
        seen.add((res.status, rows == cols))
    assert {s for s, _ in seen} == {UNIQUE, UNDERDETERMINED, INCONSISTENT}
    assert {square for _, square in seen} == {True, False}


# -- hermitian signature -------------------------------------------------------------


def test_signature_diagonal():
    ac = ApproxComplex()
    m = Matrix(ac, [[2 + 0j, 0j, 0j], [0j, -3 + 0j, 0j], [0j, 0j, 0j]])
    assert hermitian_signature(m) == (1, 1, 1)


def test_signature_trefoil_symmetrized():
    ac = ApproxComplex()
    m = Matrix(ac, [[-2 + 0j, 1 + 0j], [1 + 0j, -2 + 0j]])
    n_plus, n_minus, n_zero = hermitian_signature(m)
    assert (n_plus, n_minus, n_zero) == (0, 2, 0)
    assert n_plus - n_minus == -2


def test_signature_construction_oracle(rng):
    import numpy as np

    ac = ApproxComplex()
    for _ in range(20):
        n = rng.randint(1, 4)
        d = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(n)]
        # a random unitary via QR of a random complex matrix
        a = np.array(
            [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
        )
        qmat_np, _ = np.linalg.qr(a)
        h = qmat_np @ np.diag(d) @ qmat_np.conj().T
        m = Matrix(ac, [[complex(h[i, j]) for j in range(n)] for i in range(n)])
        n_plus, n_minus, n_zero = hermitian_signature(m)
        assert n_plus == sum(1 for x in d if x > 0)
        assert n_minus == sum(1 for x in d if x < 0)
        assert n_zero == sum(1 for x in d if x == 0)


def test_signature_rejects_non_hermitian():
    ac = ApproxComplex()
    m = Matrix(ac, [[0j, 1 + 0j], [0j, 0j]])
    with pytest.raises(UsageError):
        hermitian_signature(m)


def test_signature_requires_approx_context():
    with pytest.raises(UsageError):
        hermitian_signature(qmat([[1, 0], [0, 1]]))
