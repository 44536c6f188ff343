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
from slopelab.laurent import LaurentPoly
from slopelab.linalg import (
    INCONSISTENT,
    UNDERDETERMINED,
    UNIQUE,
    Matrix,
    hermitian_signature,
    kernel_basis,
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
    assert rank(Matrix.zeros(Q, 2, 2)) == 0


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
    m = Matrix.zeros(Q, 2, 2)
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
    [e1] = kernel_basis(m)
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
        for v in kernel_basis(m):
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
            assert all(x.is_rational() for x in rq.particular)
            assert list(rrf.particular) == [rf.from_fraction(x.coords[0]) for x in rq.particular]


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
