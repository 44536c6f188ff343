import random
from fractions import Fraction

import pytest

import slopelab.slope as slope_module
from slopelab.laurent import LaurentPoly, normalize_poly, poly_gcd
from slopelab.linalg import Matrix
from slopelab.seifert import CComplexPresentation


def random_laurent(rng, num_vars, max_terms=4, exp_range=2, coeff_range=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(-exp_range, exp_range) for _ in range(num_vars))
        terms[exps] = terms.get(exps, 0) + rng.randint(-coeff_range, coeff_range)
    return LaurentPoly(num_vars, terms)


def random_nonzero_laurent(rng, num_vars, **kw):
    while True:
        p = random_laurent(rng, num_vars, **kw)
        if not p.is_zero():
            return p


def old_exact_div(p, d):
    """The former exact division: shift both operands to ordinary
    polynomials, cancel lex-leading terms, and shift the quotient back.
    The oracle for ``exact_div``, which divides in the Laurent ring."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero(p.num_vars)
    pmin, dmin = p.min_exps(), d.min_exps()
    p = p.shift(tuple(-m for m in pmin))
    d = d.shift(tuple(-m for m in dmin))
    lead_e, lead_c = d.lex_leading()
    rem = dict(p.terms)
    q = {}
    while rem:
        e = max(rem)
        c = rem[e]
        diff = tuple(a - b for a, b in zip(e, lead_e))
        if any(x < 0 for x in diff):
            raise ArithmeticError("inexact polynomial division")
        if type(c) is int and type(lead_c) is int:
            qc, r = divmod(c, lead_c)
            if r:
                qc = Fraction(c, lead_c)
        else:
            qc = c / lead_c
            qc = qc.numerator if qc.denominator == 1 else qc
        q[diff] = qc
        for ee, cc in d.terms.items():
            key = tuple(a + b for a, b in zip(diff, ee))
            s = rem.get(key, 0) - qc * cc
            if s:
                rem[key] = s
            elif key in rem:
                del rem[key]
    return LaurentPoly._make(p.num_vars, q).shift(tuple(a - b for a, b in zip(pmin, dmin)))


def old_cleared(row, num_vars):
    """A row of ``RatFunc`` entries times the lcm of its denominators, the
    lcm taken entry by entry, normalized, with the division of
    ``old_exact_div``."""
    den = LaurentPoly.one(num_vars)
    for x in row:
        den = normalize_poly(old_exact_div(den * x.den, poly_gcd(den, x.den)))
    return [x.num * old_exact_div(den, x.den) for x in row]


def old_echelon_fraction_free(rows, ncols, num_vars, seen=None):
    """The former one-step Bareiss elimination of polynomial rows, which
    recomputed every entry of every other row at each step, one
    ``LaurentPoly`` per entry.  Divides with ``old_exact_div``, so it
    shares no elimination or division code with
    ``linalg._echelon_fraction_free``.  Returns (rows, pivots,
    pivot_polys); ``seen``, when given, collects "swap" for a row swap and
    "f=0" for a row already zero in the pivot column."""
    work = [list(row) for row in rows]
    prev = LaurentPoly.one(num_vars)
    pivots, pivot_polys = [], []
    seen = set() if seen is None else seen
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(work)) if not work[i][c].is_zero()), None)
        if sel is None:
            continue
        if sel != r:
            seen.add("swap")
        work[r], work[sel] = work[sel], work[r]
        p = work[r][c]
        for i in range(len(work)):
            if i != r:
                f = work[i][c]
                if f.is_zero():
                    seen.add("f=0")
                work[i] = [old_exact_div(p * x - f * y, prev) for x, y in zip(work[i], work[r])]
        prev = p
        pivots.append(c)
        pivot_polys.append(p)
    return work, pivots, tuple(pivot_polys)


def int_matrix(ctx, rows):
    return Matrix(ctx, [[ctx.from_int(x) for x in row] for row in rows])


def transpose(m):
    return Matrix(
        m.ctx, [[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)], cols=m.rows
    )


@pytest.fixture(autouse=True)
def empty_record_memo():
    """Every test starts on an empty slope record memo, so whether a torsion
    slope is read off a record or solved directly never depends on which
    tests ran before."""
    slope_module._RECORDS.clear()
    return slope_module._RECORDS


@pytest.fixture
def rng():
    return random.Random(20240917)


@pytest.fixture
def whitehead():
    return CComplexPresentation.build(
        1, 2, {"+": [[0, 0], [1, 1]]}, [1, 0], label="whitehead"
    )


@pytest.fixture
def trefoil():
    return CComplexPresentation.build(
        1, 2, {"+": [[-1, 1], [0, -1]]}, [0, 0], label="trefoil"
    )
