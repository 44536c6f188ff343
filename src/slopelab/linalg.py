"""Dense linear algebra generic over a field context.

Exact contexts use deterministic first-nonzero pivoting; over the rational
function field, forward and backward elimination run fraction-free on
cleared numerators (one-step Bareiss style divisions, always exact) so the
intermediate polynomials stay small.  The approximate context uses
magnitude pivoting with a relative threshold; callers mark its results
approximate through ``ctx.is_exact``.

Each fraction-free step multiplies every other row by the new pivot p_k and
divides exactly by the previous pivot, so once all pivots are taken every
pivot row is det * (its row of the reduced row echelon form), det being the
last pivot.  The pivot columns are therefore det times the identity: they
are read back as one and zero without any gcd.  Only the entries callers
see as fractions are reduced to ``RatFunc``: the free columns (the kernel
basis) and the right-hand side (the particular solution).  The unreduced
numerators of the particular solution travel with it in
``SolveResult.particular_numerators`` (over det, the last of
``pivot_polys``), so a caller that combines its entries linearly can reduce
once instead of once per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError
from .fields import ApproxComplex, RatFunc, RationalFunctionField
from .laurent import LaurentPoly, exact_div, normalize_poly, poly_lcm

UNIQUE = "unique"
UNDERDETERMINED = "underdetermined"
INCONSISTENT = "inconsistent"


class Matrix:
    """A rectangular matrix of scalars from a single field context."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx, entries, cols=None):
        entries = tuple(tuple(row) for row in entries)
        if entries:
            cols_found = len(entries[0])
            if any(len(row) != cols_found for row in entries):
                raise UsageError("ragged rows in matrix")
            if cols is not None and cols != cols_found:
                raise UsageError("cols does not match the row length")
            cols = cols_found
        else:
            cols = 0 if cols is None else int(cols)
        self.ctx = ctx
        self.entries = entries
        self.rows = len(entries)
        self.cols = cols

    def map(self, fn, ctx=None):
        return Matrix(ctx or self.ctx, [[fn(x) for x in row] for row in self.entries], cols=self.cols)

    def transpose(self):
        return Matrix(
            self.ctx,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def scalar_mul(self, s):
        return self.map(lambda x: s * x)

    def matvec(self, v):
        if len(v) != self.cols:
            raise UsageError("vector length does not match matrix columns")
        out = []
        for row in self.entries:
            acc = self.ctx.zero
            for a, b in zip(row, v):
                acc = acc + a * b
            out.append(acc)
        return out

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.ctx!r})"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a linear solve M x = b."""

    status: str
    particular: tuple | None
    kernel_basis: tuple
    pivot_polys: tuple = ()
    # fraction-free path only: particular[i] == RatFunc(num_i, det), det
    # being pivot_polys[-1] (one when there are no pivots)
    particular_numerators: tuple | None = None


@dataclass
class _Echelon:
    rows: list
    pivots: list
    pivot_polys: tuple = ()
    # fraction-free path only: the eliminated rows as polynomials, with
    # poly_rows[r] == pivot_polys[-1] * rows[r]
    poly_rows: list | None = None


def _echelon(rows, ncols, ctx):
    if isinstance(ctx, RationalFunctionField):
        return _echelon_fraction_free(rows, ncols, ctx)
    if isinstance(ctx, ApproxComplex):
        return _echelon_approx(rows, ncols, ctx)
    return _echelon_division(rows, ncols, ctx)


def _echelon_division(rows, ncols, ctx):
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
    return _Echelon(work, pivots)


def _echelon_fraction_free(rows, ncols, ctx):
    one = LaurentPoly.one(ctx.num_vars)
    poly_rows = []
    for row in rows:
        den = one
        for x in row:
            if not x.is_polynomial():
                den = poly_lcm(den, x.den)
        poly_rows.append([x.num * exact_div(den, x.den) for x in row])
    prev = one
    pivots = []
    pivot_polys = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(poly_rows)):
            if not poly_rows[i][c].is_zero():
                sel = i
                break
        if sel is None:
            continue
        poly_rows[r], poly_rows[sel] = poly_rows[sel], poly_rows[r]
        p = poly_rows[r][c]
        assert not p.is_zero()
        for i in range(len(poly_rows)):
            if i == r:
                continue
            row_i = poly_rows[i]
            f = row_i[c]
            poly_rows[i] = [
                exact_div(p * row_i[j] - f * poly_rows[r][j], prev)
                for j in range(ncols)
            ]
        prev = p
        pivots.append(c)
        pivot_polys.append(p)
        r += 1
    # after full fraction-free elimination the pivot rows equal prev * RREF
    det = prev
    pivot_set = set(pivots)
    out = []
    for i, row in enumerate(poly_rows):
        if i < len(pivots):
            reduced = [ctx.zero if c in pivot_set else RatFunc(x, det) for c, x in enumerate(row)]
            reduced[pivots[i]] = ctx.one
            out.append(reduced)
        else:
            assert all(x.is_zero() for x in row), "nonzero row below the pivot rows"
            out.append([ctx.zero] * ncols)
    return _Echelon(out, pivots, pivot_polys=tuple(pivot_polys), poly_rows=poly_rows)


def _echelon_approx(rows, ncols, ctx):
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
    return _Echelon(work, pivots)


def rank(m):
    """Rank over the matrix's field (approximate in ApproxComplex)."""
    ech = _echelon(m.entries, m.cols, m.ctx)
    return len(ech.pivots)


def _kernel_from_echelon(ech, ncols, ctx):
    pivot_cols = [c for c in ech.pivots if c < ncols]
    pivot_set = set(pivot_cols)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [ctx.zero] * ncols
        v[f] = ctx.one
        for r, c in enumerate(pivot_cols):
            v[c] = -ech.rows[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def solve(m, b):
    """Solve M x = b, reporting a particular solution and a kernel basis.

    Inconsistency is a value (status), not an error.  The kernel basis is
    in reduced row echelon convention: each free variable set to 1 in turn.
    """
    if len(b) != m.rows:
        raise UsageError("right-hand side length does not match matrix rows")
    aug = [list(row) + [bi] for row, bi in zip(m.entries, b)]
    if m.rows == 0:
        aug = []
    ech = _echelon(aug, m.cols + 1, m.ctx)
    inconsistent = m.cols in ech.pivots
    kernel = _kernel_from_echelon(ech, m.cols, m.ctx)
    if inconsistent:
        return SolveResult(INCONSISTENT, None, kernel, ech.pivot_polys)
    particular = [m.ctx.zero] * m.cols
    for r, c in enumerate(ech.pivots):
        particular[c] = ech.rows[r][m.cols]
    numerators = None
    if ech.poly_rows is not None:
        numerators = [LaurentPoly.zero(m.ctx.num_vars)] * m.cols
        for r, c in enumerate(ech.pivots):
            numerators[c] = ech.poly_rows[r][m.cols]
        numerators = tuple(numerators)
    status = UNIQUE if not kernel else UNDERDETERMINED
    return SolveResult(status, tuple(particular), kernel, ech.pivot_polys, numerators)


def hermitian_signature(m, tol_sig=1e-8):
    """Eigenvalue sign counts (n_plus, n_minus, n_zero) of a Hermitian matrix.

    Only available in the ApproxComplex context; the input is asserted
    Hermitian to within the context tolerance.
    """
    if not isinstance(m.ctx, ApproxComplex):
        raise UsageError("hermitian_signature requires the ApproxComplex context")
    if m.rows != m.cols:
        raise UsageError("hermitian_signature requires a square matrix")
    if m.rows == 0:
        return (0, 0, 0)
    # imported here so that only signature computations pay numpy's import
    import numpy as np

    h = np.array([[complex(x) for x in row] for row in m.entries], dtype=complex)
    scale = float(np.max(np.abs(h))) if h.size else 0.0
    if float(np.max(np.abs(h - h.conj().T))) > m.ctx.tol * max(1.0, scale):
        raise UsageError("matrix is not Hermitian within tolerance")
    eigs = np.linalg.eigvalsh(h)
    n_plus = int(np.sum(eigs > tol_sig))
    n_minus = int(np.sum(eigs < -tol_sig))
    return (n_plus, n_minus, len(eigs) - n_plus - n_minus)


def certificate_polys(pivot_polys):
    """Distinct non-unit pivot factors, unit-normalized.

    Monomials and constants are units of the Laurent ring and never vanish
    on the character torus, so they are dropped.
    """
    seen = []
    for p in pivot_polys:
        q = normalize_poly(p)
        if q.is_constant() or q.is_monomial():
            continue
        if q not in seen:
            seen.append(q)
    return seen
