import cmath
import math
import random
from fractions import Fraction

import pytest

import slopelab.linalg as linalg_module
from slopelab.characters import Character
from slopelab.errors import UsageError
from slopelab.fields import (
    ApproxComplex,
    Cyclotomic,
    RatFunc,
    RationalFunctionField,
)
from slopelab.laurent import (
    LaurentPoly,
    kronecker_pack,
    kronecker_unpack,
    normalize_poly,
    poly_gcd,
)
from slopelab.linalg import (
    _echelon,
    INCONSISTENT,
    UNDERDETERMINED,
    UNIQUE,
    Matrix,
    hermitian_inertia,
    hermitian_signature,
    rank,
    solve,
)
from slopelab.seifert import build_E, random_presentation, stabilize

from conftest import int_matrix, random_laurent, random_nonzero_laurent, transpose
from test_laurent import old_exact_div

Q = Cyclotomic(1)


def qmat(rows):
    return int_matrix(Q, rows)


def qvec(xs):
    return [Q.from_int(x) for x in xs]


def matmul(*ms):
    """The product of the matrices, one matvec per column of the right factor."""
    out = ms[0]
    for m in ms[1:]:
        out = transpose(Matrix(out.ctx, [out.matvec(list(col)) for col in transpose(m).entries]))
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
        assert rank(m) == rank(transpose(m))


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
            assert got == want


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
        assert got == b
        for v in res.kernel_basis:
            assert all(rf.is_zero(x) for x in m.matvec(list(v)))


def reference_fraction_free_solve(m, b):
    """``solve`` over the rational function field with every entry of the
    fraction-free RREF reduced to a RatFunc, pivot columns included: the
    reference for the path that keeps the numerators over det.  Returns
    (status, particular, kernel_basis, pivot_polys)."""
    ctx = m.ctx
    aug = [list(r) + [bi] for r, bi in zip(m.entries, b)]
    poly_rows, pivots, pivot_polys = old_echelon_fraction_free(aug, m.cols + 1, ctx)
    det = pivot_polys[-1] if pivot_polys else LaurentPoly.one(ctx.num_vars)
    rref = [[RatFunc(x, det) for x in row] for row in poly_rows[: len(pivots)]]
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
        return INCONSISTENT, None, tuple(kernel), pivot_polys
    particular = [ctx.zero] * m.cols
    for r, c in enumerate(pivots):
        particular[c] = rref[r][m.cols]
    status = UNDERDETERMINED if kernel else UNIQUE
    return status, tuple(particular), tuple(kernel), pivot_polys


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


def old_lcm(a, b):
    """poly_lcm with the division of ``old_exact_div``."""
    return normalize_poly(old_exact_div(a * b, poly_gcd(a, b)))


def old_echelon_fraction_free(rows, ncols, ctx, seen=None):
    """The former fraction-free elimination, whose rows were cleared by an
    lcm and a division per non-polynomial entry, and which recomputed every
    entry of every other row at each step.  Divides with ``old_exact_div``,
    so it shares no division code with ``_echelon``.  Returns (poly_rows,
    pivots, pivot_polys); ``seen``, when given, collects "swap" for a row
    swap and "f=0" for a row already zero in the pivot column."""
    one = LaurentPoly.one(ctx.num_vars)
    poly_rows = []
    for row in rows:
        den = one
        for x in row:
            if not x.is_polynomial():
                den = old_lcm(den, x.den)
        poly_rows.append([x.num * old_exact_div(den, x.den) for x in row])
    prev = one
    pivots, pivot_polys = [], []
    seen = set() if seen is None else seen
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(poly_rows)) if not poly_rows[i][c].is_zero()), None)
        if sel is None:
            continue
        if sel != r:
            seen.add("swap")
        poly_rows[r], poly_rows[sel] = poly_rows[sel], poly_rows[r]
        p = poly_rows[r][c]
        for i in range(len(poly_rows)):
            if i != r:
                f = poly_rows[i][c]
                if f.is_zero():
                    seen.add("f=0")
                poly_rows[i] = [old_exact_div(p * x - f * y, prev) for x, y in zip(poly_rows[i], poly_rows[r])]
        prev = p
        pivots.append(c)
        pivot_polys.append(p)
    return poly_rows, pivots, tuple(pivot_polys)


def _augmented(p, ctx):
    """The rows of [E(w) | kappa] of a presentation over ``ctx``."""
    e = build_E(p, Character.symbolic(p.mu), ctx)
    return [list(row) + [ctx.from_int(k)] for row, k in zip(e.entries, p.kappa)]


def test_rows_cleared_once_match_per_entry_lcm_clearing(rng):
    """Clearing each row once, over its distinct denominators, gives the
    same polynomial rows and pivots as the per-entry lcm: rows with equal,
    mixed and polynomial denominators, and [E | kappa] of symbolic E."""
    rf = RationalFunctionField(2)
    cases = []
    for trial in range(90):
        shape = [(2, 2), (3, 3), (2, 4), (3, 2), (1, 3), (4, 4)][trial % 6]
        kind = ("equal", "mixed", "polynomial")[trial % 3]
        pool = [random_nonzero_laurent(rng, 2, max_terms=2, exp_range=1, coeff_range=2)
                for _ in range(2)]
        rows = []
        for _ in range(shape[0]):
            row = []
            for _ in range(shape[1]):
                num = random_laurent(rng, 2, max_terms=2, exp_range=1, coeff_range=2)
                if kind == "polynomial" or (kind == "mixed" and rng.random() < 0.3):
                    row.append(RatFunc.from_poly(num))
                elif kind == "equal":
                    row.append(RatFunc(num, pool[0]))
                else:
                    row.append(RatFunc(num, rng.choice(pool)) if rng.random() < 0.5
                               else random_ratfunc(rng, 2))
            rows.append(row)
        cases.append((rf, rows, shape[1]))
    for mu in (1, 2):
        ctx = RationalFunctionField(mu)
        for n in (2, 3, 4):
            p = random_presentation(rng, mu=mu, n=n, bound=1 + n % 2)
            cases.append((ctx, _augmented(p, ctx), n + 1))
    kinds = set()
    for ctx, rows, ncols in cases:
        want = old_echelon_fraction_free(rows, ncols, ctx)
        got = _echelon(rows, ncols, ctx)
        assert (got.poly_rows, got.pivots, got.pivot_polys) == want
        for row in rows:
            dens = {x.den for x in row}
            kinds.add("polynomial" if dens == {LaurentPoly.one(ctx.num_vars)} else
                      "equal" if len(dens) == 1 else "mixed")
    assert kinds == {"polynomial", "equal", "mixed"}


def test_elimination_skips_only_entries_it_knows(rng):
    """The elimination that fills in the pivot column and the earlier pivot
    columns without arithmetic gives the rows, pivots and pivot polynomials
    of the one that recomputes every entry, on every fact the skip relies
    on: a non-pivot column left of a later pivot, rows already zero in the
    pivot column, row swaps, rank-deficient and inconsistent [E | kappa],
    and symbolic E at mu = 3."""
    cases = []
    rf = RationalFunctionField(2)

    def entry():
        return rf.zero if rng.random() < 0.35 else random_ratfunc(rng, 2)

    for trial in range(40):
        rows_n, cols = [(3, 4), (4, 4), (3, 5), (4, 3)][trial % 4]
        entries = [[entry() for _ in range(cols)] for _ in range(rows_n)]
        if trial % 2:
            # column 1 a multiple of column 0: a non-pivot column left of
            # the later pivots
            g = random_ratfunc(rng, 2)
            for row in entries:
                row[1] = g * row[0]
        cases.append((rf, entries, cols, "random"))
    for mu in (1, 2, 3):
        ctx = RationalFunctionField(mu)
        for n in (2, 3) if mu == 3 else (2, 3, 4):
            p = random_presentation(rng, mu=mu, n=n, bound=1 + n % 2)
            cases.append((ctx, _augmented(p, ctx), n + 1, f"mu{mu}"))
            # a zero generator: rank deficient, consistent with kappa 0 there
            # and inconsistent with kappa 1
            s = stabilize(p)
            cases.append((ctx, _augmented(s, ctx), n + 2, f"mu{mu}"))
            bad = s.replace(kappa=s.kappa[:-1] + (1,))
            cases.append((ctx, _augmented(bad, ctx), n + 2, f"mu{mu}"))
    facts = set()
    for ctx, rows, ncols, label in cases:
        seen = set()
        want = old_echelon_fraction_free(rows, ncols, ctx, seen)
        got = _echelon(rows, ncols, ctx)
        assert (got.poly_rows, got.pivots, got.pivot_polys) == want
        pivots = want[1]
        facts |= seen | {label}
        if any(j not in pivots for j in range(max(pivots, default=0))):
            facts.add("non-pivot column left of a pivot")
        if label != "random" and ncols - 1 in pivots:
            facts.add("inconsistent [E | kappa]")
        elif label != "random" and len(pivots) < len(rows):
            facts.add("rank-deficient [E | kappa]")
    assert facts >= {
        "swap",
        "f=0",
        "non-pivot column left of a pivot",
        "rank-deficient [E | kappa]",
        "inconsistent [E | kappa]",
        "mu3",
    }


def _division_count(monkeypatch, rows, ncols, ctx):
    calls = []

    def counted(a, d):
        calls.append(d)
        return exact_quotient(a, d)

    exact_quotient = linalg_module._exact_quotient
    monkeypatch.setattr(linalg_module, "_exact_quotient", counted)
    ech = _echelon(rows, ncols, ctx)
    monkeypatch.undo()
    return len(calls), ech


def test_elimination_divides_only_unknown_entries(monkeypatch, rng):
    """Step k of the elimination makes one exact division of Kronecker
    images (``linalg._exact_quotient``) for each other row and each column
    that is neither its pivot column nor an earlier one: the sum over the
    steps of (rows - 1) * (ncols - k), k counting this step's pivot.
    Recomputing a known entry raises the count, and a division that leaves
    the helper lowers it."""
    rf = RationalFunctionField(2)
    for n, rank_of in ((3, 3), (4, 4), (4, 2), (3, 1)):
        while True:
            left = [[random_laurent(rng, 2, max_terms=2, exp_range=1) for _ in range(rank_of)]
                    for _ in range(n)]
            right = [[random_laurent(rng, 2, max_terms=2, exp_range=1) for _ in range(n + 1)]
                     for _ in range(rank_of)]
            # a product of n x r and r x (n + 1) polynomial matrices: rank r
            # at most, cleared with no division
            rows = [[RatFunc.from_poly(sum((a * b for a, b in zip(lrow, col)),
                                           LaurentPoly.zero(2)))
                     for col in zip(*right)] for lrow in left]
            calls, ech = _division_count(monkeypatch, rows, n + 1, rf)
            if len(ech.pivots) == rank_of:
                break
        expected = sum((n - 1) * (n + 1 - k) for k in range(1, rank_of + 1))
        assert calls == expected


def _int_where_oracle_int(got, want):
    """Every coefficient the oracle stores as an ``int`` is an ``int``."""
    return all(
        type(got.terms[e]) is int for e, c in want.terms.items() if type(c) is int
    )


def _kernel_cases(rng):
    """(ctx, rows, ncols, labels) for the differential test of the kernel."""
    big = 2 ** 64 + 13

    def poly(mu, kind):
        x = random_laurent(rng, mu, max_terms=2, exp_range=1, coeff_range=3)
        if kind == "big":
            x = x * big + random_laurent(rng, mu, max_terms=1, exp_range=1)
        elif kind == "fraction":
            x = x * Fraction(rng.choice((1, 2, 5)), rng.choice((2, 3, 7)))
        return x

    def entry(mu, kind):
        if rng.random() < 0.25:
            return RatFunc.from_poly(LaurentPoly.zero(mu))
        num = poly(mu, kind)
        if kind == "fraction" and rng.random() < 0.5:
            # a denominator whose lex-leading coefficient is 2 or 3: RatFunc
            # stores num and den over it, so with Fraction coefficients
            den = LaurentPoly.var(mu, mu - 1) * rng.choice((2, -3)) + rng.choice((1, -1, 5))
            return RatFunc(num, den.shift(tuple(rng.randint(-1, 1) for _ in range(mu))))
        return RatFunc.from_poly(num)

    shapes = [(mu, n, kind) for mu in (1, 2, 3)
              # the oracle's cost grows fast with the rows: n up to 6 at mu = 1
              for n in range(9 - 2 * mu)
              for kind in ("plain", "big", "fraction")]
    for trial, (mu, n, kind) in enumerate(shapes * 2):
        ncols = n + 1 if trial % 2 else max(1, n)
        rows = [[entry(mu, kind) for _ in range(ncols)] for _ in range(n)]
        labels = {kind, f"mu{mu}", f"n{n}"}
        if n >= 2 and trial % 4 == 1:
            rows[rng.randrange(n)] = [RatFunc.from_poly(LaurentPoly.zero(mu))] * ncols
            labels.add("zero row")
        if n >= 2 and trial % 4 == 3:
            col = rng.randrange(ncols)
            for row in rows:
                row[col] = RatFunc.from_poly(LaurentPoly.zero(mu))
            labels.add("zero column")
        yield RationalFunctionField(mu), rows, ncols, labels
    for mu in (1, 2, 3):
        ctx = RationalFunctionField(mu)
        for n in (1, 2, 3) if mu == 3 else (1, 2, 3, 4):
            p = random_presentation(rng, mu=mu, n=n, bound=1 + n % 2)
            s = stabilize(p)
            bad = s.replace(kappa=s.kappa[:-1] + (1,))
            for q in (p, s, bad):
                yield ctx, _augmented(q, ctx), q.n + 1, {f"mu{mu}", "presentation"}


def test_kernel_matches_the_per_entry_elimination(rng):
    """The elimination on Kronecker images gives the rows, pivots and pivot
    polynomials of the former per-entry ``LaurentPoly`` elimination, with
    ``int`` storage wherever it stores an ``int``: mu 1-3, 0-6 rows,
    negative exponents and rows of different minimum exponents, Fraction
    coefficients, coefficients above 2^64, zero rows and columns, row
    swaps, and rank-deficient and inconsistent [E | kappa] of stabilized
    presentations."""
    facts = set()
    for ctx, rows, ncols, labels in _kernel_cases(rng):
        seen = set()
        want = old_echelon_fraction_free(rows, ncols, ctx, seen)
        got = _echelon(rows, ncols, ctx)
        assert (got.poly_rows, got.pivots, got.pivot_polys) == want
        for grow, wrow in zip(got.poly_rows, want[0]):
            assert all(_int_where_oracle_int(g, w) for g, w in zip(grow, wrow))
        assert all(_int_where_oracle_int(g, w) for g, w in zip(got.pivot_polys, want[2]))
        facts |= seen | labels
        cleared = [linalg_module._cleared(row, ctx.num_vars) for row in rows]
        mins = {x.min_exps() for row in cleared for x in row if x}
        if any(e < 0 for m in mins for e in m):
            facts.add("negative exponent")
        if len({tuple(map(min, zip(*(x.min_exps() for x in row if x)))) for row in cleared
                if any(row)}) > 1:
            facts.add("rows of different minimum exponents")
        if any(type(c) is Fraction and c.denominator > 1
               for row in cleared for x in row for c in x.terms.values()):
            facts.add("Fraction coefficients")
        if any(abs(c) > 2 ** 64 for row in cleared for x in row for c in x.terms.values()):
            facts.add("coefficient above 2^64")
        if "presentation" in labels and ncols - 1 in want[1]:
            facts.add("inconsistent [E | kappa]")
        elif "presentation" in labels and len(want[1]) < len(rows):
            facts.add("rank-deficient [E | kappa]")
    assert facts >= {
        "mu1", "mu2", "mu3", *(f"n{n}" for n in range(7)),
        "negative exponent", "rows of different minimum exponents",
        "Fraction coefficients", "coefficient above 2^64",
        "zero row", "zero column", "swap",
        "rank-deficient [E | kappa]", "inconsistent [E | kappa]",
    }


def test_layout_holds_every_product_of_two_minors():
    """The radix and digit width of ``_layout`` give a faithful Kronecker
    image to p * x - f * y for any entries of norm up to H and exponents up
    to the summed spans: here the extreme 2 H^2 w^(2 sum span), for norms
    whose bit length puts the width at a byte boundary and off it."""
    for mu, spans in ((1, [(1,), (2,)]), (2, [(1, 0), (0, 3), (2, 2)]), (3, [(1, 1, 0)])):
        for h in (1, 2, 8, 11, 128, 181, 2 ** 20 + 1, 2 ** 31):
            # one row of norm h carrying the spans of all, the rest norm 1
            top = tuple(map(sum, zip(*spans)))
            rows = [[LaurentPoly(mu, {(0,) * mu: h - 1, top: 1} if h > 1 else {top: 1})]]
            rows += [[LaurentPoly.one(mu)] for _ in spans[1:]]
            radix, width = linalg_module._layout(rows, mu)
            extreme = LaurentPoly(mu, {top: h})
            pack = [kronecker_pack(x, radix, width) for x in (extreme, -extreme)]
            image = pack[0] * pack[0] - pack[1] * pack[0]
            want = LaurentPoly(mu, {tuple(2 * t for t in top): 2 * h * h})
            assert kronecker_unpack(image, radix, width) == want
            assert kronecker_unpack(-image, radix, width) == -want


# -- Gauss-Jordan elimination against the two routines it replaced ------------------


def old_echelon_division(rows, ncols, ctx):
    """The former exact Gauss-Jordan routine (first nonzero pivot)."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(work)):
            if not ctx.is_zero(work[i][c]):
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = ctx.invert(work[r][c])
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i == r:
                continue
            f = work[i][c]
            if ctx.is_zero(f):
                continue
            work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def old_echelon_approx(rows, ncols, ctx):
    """The former approximate routine (largest magnitude above a threshold)."""
    work = [list(r) for r in rows]
    scale = max((abs(x) for row in work for x in row), default=0.0)
    thresh = ctx.tol * max(1.0, scale)
    pivots = []
    r = 0
    for c in range(ncols):
        best, best_mag = None, thresh
        for i in range(r, len(work)):
            m = abs(work[i][c])
            if m > best_mag:
                best, best_mag = i, m
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        inv = 1 / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i == r:
                continue
            f = work[i][c]
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def exact_key(x):
    """Storage of a scalar, down to the sign of a float zero."""
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    return (x.conductor, x.num, x.den)


def degenerate_rows(rng, rows, ncols, combine, zero):
    """Append a combination of two rows (rank deficiency) and zero a column."""
    if len(rows) >= 2 and rng.random() < 0.5:
        a, b = rng.sample(rows, 2)
        s, t = combine()
        rows.append([s * x + t * y for x, y in zip(a, b)])
    if rng.random() < 0.3:
        c = rng.randrange(ncols)
        for row in rows:
            row[c] = zero
    rng.shuffle(rows)
    return rows


def random_cyclotomic_rows(rng, ctx):
    ncols = rng.randint(1, 5)

    def entry():
        if rng.random() < 0.35:
            return ctx.zero
        return sum(
            (
                ctx.zeta(rng.randrange(ctx.conductor)) * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ),
            ctx.zero,
        )

    rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
    return degenerate_rows(rng, rows, ncols, lambda: (entry(), entry()), ctx.zero), ncols


def random_complex_rows(rng, ctx):
    ncols = rng.randint(1, 5)

    def big():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    rows = [[big() for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
    scale = max(abs(x) for row in rows for x in row)
    thresh = ctx.tol * max(1.0, scale)
    # entries within a factor of two of the pivot threshold, zeros of both
    # signs, and magnitude ties with the first row (x * 1j has |x|)
    for row in rows:
        for j in range(ncols):
            u = rng.random()
            if u < 0.25:
                row[j] = thresh * 2 ** rng.uniform(-1, 1) * cmath.exp(1j * rng.uniform(0, 6.3))
            elif u < 0.35:
                row[j] = complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]))
            elif u < 0.45:
                row[j] = rows[0][j] * 1j
    return degenerate_rows(rng, rows, ncols, lambda: (big(), big()), 0j), ncols


def test_gauss_jordan_matches_former_routines_bit_for_bit(rng):
    """Q(zeta_N) and complex elimination take the same pivots and produce
    the same rows, float bits included, as the routines they replaced."""
    cases = []
    for _ in range(120):
        ctx = Cyclotomic(rng.choice([1, 3, 4, 5, 8, 9, 12]))
        cases.append((ctx, *random_cyclotomic_rows(rng, ctx), old_echelon_division))
    for _ in range(400):
        ctx = ApproxComplex(rng.choice([None, 1e-3, 1e-6]))
        cases.append((ctx, *random_complex_rows(rng, ctx), old_echelon_approx))
    deficient = inconsistent = near = 0
    for ctx, rows, ncols, old in cases:
        want_rows, want_pivots = old(rows, ncols, ctx)
        got = _echelon(rows, ncols, ctx)
        assert got.pivots == want_pivots
        assert [[exact_key(x) for x in row] for row in got.rows] == [
            [exact_key(x) for x in row] for row in want_rows
        ]
        deficient += len(want_pivots) < min(len(rows), ncols)
        # the last column read as an augmented right-hand side
        inconsistent += ncols - 1 in want_pivots and ncols > 1
        if not ctx.is_exact:
            thresh = ctx.tol * max(1.0, max(abs(x) for row in rows for x in row))
            near += any(thresh / 2 <= abs(x) <= 2 * thresh for row in rows for x in row)
    assert deficient >= 100 and inconsistent >= 100 and near >= 200


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


@pytest.mark.parametrize(
    "rows",
    [
        [[complex(math.inf)]],
        [[complex(math.nan)]],
        [[complex(0, math.inf)]],
        [[1 + 0j, complex(math.nan)], [1 + 0j, 1 + 0j]],
    ],
)
def test_signature_refuses_non_finite_entries(rows):
    # a float eigenvalue solver answers (1, 0, 0) for [[inf]] and (0, 0, 1)
    # for [[nan]]; neither is a number to count eigenvalues of
    with pytest.raises(UsageError, match="finite entries"):
        hermitian_signature(Matrix(ApproxComplex(), rows))


def test_signature_reads_the_lower_triangle_and_real_diagonal():
    # Hermitian within tolerance; the lower triangle and the real diagonal
    # make [[1, 1], [1, 1]], with eigenvalues 0 and 2, while the upper
    # triangle would make 1 - (1 + 1e-12) < 0
    ac = ApproxComplex()
    up = 1 + 1e-12 + 0j
    assert hermitian_signature(Matrix(ac, [[1 + 1e-12j, up], [1 + 0j, 1 + 0j]]), 0) == (1, 0, 1)
    assert hermitian_signature(Matrix(ac, [[1 + 0j, 1 + 0j], [up, 1 - 1e-12j]]), 0) == (1, 1, 0)


def test_signature_cutoff_is_exact():
    # |lambda| <= tol_sig counts as zero, with tol_sig read as the exact
    # binary fraction of the float
    ac = ApproxComplex()
    t = 1e-8
    above = math.nextafter(t, 1.0)
    assert hermitian_signature(Matrix(ac, [[complex(t)]]), t) == (0, 0, 1)
    assert hermitian_signature(Matrix(ac, [[complex(-t)]]), t) == (0, 0, 1)
    assert hermitian_signature(Matrix(ac, [[complex(above)]]), t) == (1, 0, 0)
    assert hermitian_signature(Matrix(ac, [[complex(-above)]]), t) == (0, 1, 0)
    diag = Matrix(ac, [[complex(above), 0j], [0j, 3 + 0j]])
    assert hermitian_signature(diag, t) == (2, 0, 0)
    assert hermitian_signature(diag, above) == (1, 0, 1)
    assert hermitian_signature(Matrix(ac, []), 0) == (0, 0, 0)
    # 1 + t rounds up, so the small eigenvalue (1 + t) - 1 of this matrix
    # lies above t; shifting the diagonal in floats, (1 + t) - t == 1, would
    # make it zero
    t = 3e-8
    assert Fraction(1 + t) - 1 > Fraction(t) and (1 + t) - t == 1
    m = Matrix(ac, [[1 + t + 0j, 1 + 0j], [1 + 0j, 1 + t + 0j]])
    assert hermitian_signature(m, t) == (2, 0, 0)


def test_signature_matches_eigenvalue_counts(rng):
    # differential against LAPACK's eigvalsh, which reads the same lower
    # triangle: E(omega) at random unitary numeric characters, and random
    # Hermitian matrices with eigenvalues near every cutoff whose upper
    # triangle and diagonal imaginary parts are perturbed within tolerance.
    # eigvalsh's eigenvalues are off by about n * eps * ||H||, so only an
    # eigenvalue that close to a cutoff leaves its side open: there each
    # count is checked against the bracket that the oracle allows
    import numpy as np

    ac = ApproxComplex()
    cases = []
    for _ in range(200):
        mu = rng.randint(1, 2)
        p = random_presentation(rng, mu=mu, n=rng.randint(1, 8), bound=rng.randint(1, 3))
        values = [cmath.exp(1j * rng.uniform(0.01, 2 * math.pi - 0.01)) for _ in range(mu)]
        cases.append(build_E(p, Character.numeric(values), ac).entries)
    near = [1, 2, 1e-3 * (1 + 1e-6), 1e-3 * (1 - 1e-6), 1e-8 * (1 + 1e-3), 1e-8 * (1 - 1e-3)]
    for _ in range(100):
        n = rng.randint(1, 6)
        d = [rng.choice(near) * rng.choice([1, -1]) for _ in range(n)]
        a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
        q, _ = np.linalg.qr(np.array(a))
        h = [[complex(x) for x in row] for row in q @ np.diag(d) @ q.conj().T]
        for i in range(n):
            h[i][i] += complex(0, rng.uniform(-1e-13, 1e-13))
            for j in range(i + 1, n):
                h[i][j] += complex(rng.uniform(-1e-13, 1e-13), rng.uniform(-1e-13, 1e-13))
        cases.append(h)
    decided = 0
    for rows in cases:
        eigs = np.linalg.eigvalsh(np.array(rows))
        slack = 1e-12 * max(1.0, float(np.max(np.abs(eigs))))
        for t in (1e-8, 0.0, 1e-3):
            n_plus, n_minus, n_zero = hermitian_signature(Matrix(ac, rows), t)
            assert n_plus + n_minus + n_zero == len(rows)
            plus = (int(np.sum(eigs > t + slack)), int(np.sum(eigs > t - slack)))
            minus = (int(np.sum(eigs < -t - slack)), int(np.sum(eigs < -t + slack)))
            assert plus[0] <= n_plus <= plus[1] and minus[0] <= n_minus <= minus[1]
            decided += plus[0] == plus[1] and minus[0] == minus[1]
    assert decided >= 3 * len(cases) - 10


# -- exact hermitian inertia ---------------------------------------------------------


def conj_transpose(m):
    return Matrix(
        m.ctx,
        [[m.entries[i][j].conjugate() for i in range(m.rows)] for j in range(m.cols)],
        cols=m.rows,
    )


def test_hermitian_inertia_hand_cases():
    ctx = Cyclotomic(12)
    h = ctx.one + 3 * ctx.zeta(1) - ctx.zeta(5)
    # zero diagonal: only the congruence e_1 -> e_1 + conj(h) e_2 gives a pivot
    assert hermitian_inertia(Matrix(ctx, [[ctx.zero, h], [h.conjugate(), ctx.zero]])) == (1, 1, 0)
    assert hermitian_inertia(Matrix(ctx, [[ctx.zero] * 3] * 3)) == (0, 0, 3)
    assert hermitian_inertia(Matrix(ctx, [])) == (0, 0, 0)
    # not exactly Hermitian: left to the caller's fallback
    assert hermitian_inertia(Matrix(ctx, [[ctx.zero, ctx.one], [ctx.zero, ctx.zero]])) is None
    assert hermitian_inertia(Matrix(ctx, [[ctx.zeta(1)]])) is None
    assert hermitian_inertia(Matrix(ctx, [[ctx.one, ctx.one]])) is None


def test_hermitian_inertia_of_congruent_block_diagonal(rng):
    # H = P* D P with P invertible has the inertia of D (Sylvester); D holds
    # 1, -1, 0 and hyperbolic blocks [[0, 1], [1, 0]], and a permutation P
    # leaves zero diagonals that need the congruence step
    congruence = 0
    for _ in range(60):
        ctx = Cyclotomic(rng.choice([5, 8, 12, 25, 27]))
        blocks = [rng.choice("+-0h") for _ in range(rng.randint(1, 4))]
        n = sum(2 if b == "h" else 1 for b in blocks)
        d = [[ctx.zero] * n for _ in range(n)]
        i = 0
        for b in blocks:
            if b == "h":
                d[i][i + 1] = d[i + 1][i] = ctx.one
                i += 2
            else:
                d[i][i] = ctx.from_int({"+": 1, "-": -1, "0": 0}[b])
                i += 1
        if rng.random() < 0.4:
            perm = list(range(n))
            rng.shuffle(perm)
            p = Matrix(ctx, [[ctx.from_int(int(perm[r] == c)) for c in range(n)] for r in range(n)])
            congruence += all(b in "0h" for b in blocks) and "h" in blocks
        else:
            while True:
                rows = [[ctx.zeta(rng.randrange(12)) * rng.randint(-2, 2) for _ in range(n)]
                        for _ in range(n)]
                p = Matrix(ctx, rows)
                if rank(p) == n:
                    break
        h = matmul(conj_transpose(p), Matrix(ctx, d), p)
        hyper = blocks.count("h")
        want = (blocks.count("+") + hyper, blocks.count("-") + hyper, blocks.count("0"))
        assert hermitian_inertia(h) == want
    assert congruence >= 3


def test_hermitian_inertia_zero_diagonal_against_eigenvalues(rng):
    # every pivot needs the congruence step first; differential against
    # floating-point eigenvalues of the same matrix
    import numpy as np

    for _ in range(60):
        ctx = Cyclotomic(rng.choice([5, 8, 12, 25]))
        n = rng.randint(2, 5)
        h = [[ctx.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                h[i][j] = ctx.zeta(rng.randrange(12)) * rng.randint(-2, 2) + rng.randint(-1, 1)
                h[j][i] = h[i][j].conjugate()
        eigs = np.linalg.eigvalsh(np.array([[x.to_complex() for x in row] for row in h]))
        want = (int(np.sum(eigs > 1e-8)), int(np.sum(eigs < -1e-8)))
        counts = hermitian_inertia(Matrix(ctx, h))
        assert counts == (*want, n - sum(want))



def old_hermitian_inertia(m):
    """The former factorization, with a separate product and difference
    per update."""
    n = m.rows
    h = [list(row) for row in m.entries]
    if m.cols != n or any(
        h[j][i] != h[i][j].conjugate() for i in range(n) for j in range(i, n)
    ):
        return None

    def at(i, j):
        return h[i][j] if i <= j else h[j][i].conjugate()

    rest = list(range(n))
    n_plus = n_minus = 0
    while rest:
        k = next((i for i in rest if h[i][i]), None)
        if k is None:
            k, j = next(((i, j) for i in rest for j in rest if i < j and h[i][j]), (None, None))
            if k is None:
                break
            c = h[k][j]
            for a in rest:
                if a != k:
                    v = at(k, a) + c * at(j, a)
                    if k < a:
                        h[k][a] = v
                    else:
                        h[a][k] = v.conjugate()
            h[k][k] = 2 * c * c.conjugate()
        d = h[k][k]
        rest.remove(k)
        if d.sign() > 0:
            n_plus += 1
        else:
            n_minus += 1
        inv = d.invert()
        col = [at(k, i) for i in rest]
        for p, i in enumerate(rest):
            if not col[p]:
                continue
            f = col[p].conjugate() * inv
            for q in range(p, len(rest)):
                if col[q]:
                    j = rest[q]
                    h[i][j] = h[i][j] - f * col[q]
    return (n_plus, n_minus, len(rest))


def test_hermitian_inertia_matches_former_factorization(rng):
    """Random exactly Hermitian matrices, some with an all-zero diagonal
    (every pivot a Bunch-Kaufman step) and some rank-deficient."""
    zero_diagonal = deficient = 0
    for trial in range(150):
        ctx = Cyclotomic(rng.choice([3, 4, 5, 8, 9, 12, 16]))
        n = rng.randint(1, 6)

        def entry():
            if rng.random() < 0.3:
                return ctx.zero
            c = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 5]))
            return ctx.zeta(rng.randrange(ctx.conductor)) * c + rng.randint(-1, 1)

        h = [[ctx.zero] * n for _ in range(n)]
        for i in range(n):
            if trial % 3:
                x = entry()
                h[i][i] = x + x.conjugate()
            for j in range(i + 1, n):
                h[i][j] = entry()
                h[j][i] = h[i][j].conjugate()
        if n >= 2 and trial % 4 == 0:
            # the last row and column repeat the first: rank below n
            for j in range(n):
                h[n - 1][j] = h[0][j]
            for i in range(n):
                h[i][n - 1] = h[i][0]
            deficient += 1
        m = Matrix(ctx, h)
        want = old_hermitian_inertia(m)
        assert want is not None
        assert hermitian_inertia(m) == want
        zero_diagonal += n >= 2 and not any(h[i][i] for i in range(n))
    assert zero_diagonal >= 20 and deficient >= 20
