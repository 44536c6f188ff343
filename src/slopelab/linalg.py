"""Dense linear algebra generic over a field context.

There are two eliminations.  Over the rational function field, forward
and backward elimination run fraction-free on cleared numerators
(one-step Bareiss style divisions, always exact) so the intermediate
polynomials stay small.  Each input row is cleared once, by the lcm L of
its distinct denominators: the first one normalized (``normalize_poly``,
no gcd), each further one folded in by ``poly_lcm``.  The cofactor L/d is
divided out once per distinct d and applied as a shift when it is one
term; a row of polynomials is used as it is.  Q(zeta_N) and the
approximate complex numbers share one Gauss-Jordan loop with two pivot
rules; callers mark approximate results through ``ctx.is_exact``.

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

from cmath import isfinite
from fractions import Fraction
from math import inf

from .errors import UsageError
from .fields import ApproxComplex, Cyclotomic, CyclotomicNumber, RatFunc, RationalFunctionField
from .laurent import LaurentPoly, exact_div, normalize_poly, poly_lcm
from .record import Record

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


class SolveResult(Record):
    """Outcome of a linear solve M x = b."""

    status: str
    particular: tuple | None
    kernel_basis: tuple
    pivot_polys: tuple = ()
    # fraction-free path only: particular[i] == RatFunc(num_i, det), det
    # being pivot_polys[-1] (one when there are no pivots)
    particular_numerators: tuple | None = None


class _Echelon(Record):
    rows: list
    pivots: list
    pivot_polys: tuple = ()
    # fraction-free path only: the eliminated rows as polynomials, with
    # poly_rows[r] == pivot_polys[-1] * rows[r]
    poly_rows: list | None = None


def _echelon(rows, ncols, ctx):
    if isinstance(ctx, RationalFunctionField):
        return _echelon_fraction_free(rows, ncols, ctx)
    return _echelon_division(rows, ncols, ctx)


def _echelon_division(rows, ncols, ctx):
    """Gauss-Jordan elimination to reduced row echelon form.

    Exact contexts pivot on the first nonzero entry of the column (``bool``
    of a scalar is nonzero-ness) and update each entry x of a row with the
    fused ``x.sub_mul(f, y)``, one reduction and one gcd; the approximate
    context pivots on the largest magnitude above tol * max(1, largest
    entry), the first on a tie.
    """
    work = [list(r) for r in rows]
    if not ctx.is_exact:
        scale = max((abs(x) for row in work for x in row), default=0.0)
        thresh = ctx.tol * max(1.0, scale)
    pivots = []
    r = 0
    for c in range(ncols):
        if ctx.is_exact:
            sel = next((i for i in range(r, len(work)) if work[i][c]), None)
        else:
            sel, best = None, thresh
            for i in range(r, len(work)):
                if abs(work[i][c]) > best:
                    sel, best = i, abs(work[i][c])
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = ctx.invert(work[r][c])
        work[r] = [inv * x for x in work[r]]
        pivot_row = work[r]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and f:
                if ctx.is_exact:
                    work[i] = [x.sub_mul(f, y) for x, y in zip(row, pivot_row)]
                else:
                    work[i] = [x - f * y for x, y in zip(row, pivot_row)]
        pivots.append(c)
        r += 1
    return _Echelon(work, pivots)


def _times(p, q):
    """p * q, as a shift when q is one term."""
    if len(q.terms) != 1:
        return p * q
    (e, c), = q.terms.items()
    p = p.shift(e)
    return p if c == 1 else p * c


def _cleared(row):
    """The numerators of a row times the lcm of its denominators."""
    dens = []
    for x in row:
        if not x.is_polynomial() and x.den not in dens:
            dens.append(x.den)
    if not dens:
        return [x.num for x in row]
    lcm = normalize_poly(dens[0])
    for d in dens[1:]:
        lcm = poly_lcm(lcm, d)
    cofactors = [exact_div(lcm, d) for d in dens]
    return [
        _times(x.num, lcm if x.is_polynomial() else cofactors[dens.index(x.den)])
        for x in row
    ]


def _echelon_fraction_free(rows, ncols, ctx):
    poly_rows = [_cleared(row) for row in rows]
    prev = LaurentPoly.one(ctx.num_vars)
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


def hermitian_inertia(m):
    """Inertia (n_plus, n_minus, n_zero) of an exactly Hermitian matrix.

    For matrices over Q(zeta_N), whose scalars have ``conjugate`` and a
    certified ``sign``.  Returns None when the matrix is not square or not
    exactly Hermitian (h_ji == conj(h_ij)), for the caller to fall back on.

    One congruence diagonalization H = L D L*, with L invertible, working
    on the upper triangle of the remaining block.  A diagonal entry that is
    exactly nonzero is a 1x1 pivot d, and the block loses its row and
    column: h_ij -= h_ik h_kj / d.  When every remaining diagonal entry is
    zero but some h_ij (i < j) is not, the congruence e_i -> e_i +
    conj(h_ij) e_j adds h_ij times row j to row i (and the conjugate to
    column i), which makes the new h_ii = 2 |h_ij|^2 > 0, an exact form of
    Bunch-Kaufman pivoting.  When the remaining block is exactly zero it
    is the zero block of D.  Every pivot is real and nonzero, and by
    Sylvester's law of inertia the congruent matrices H and D have the
    same numbers of positive, negative and zero eigenvalues: the signs of
    the pivots and the size of the zero block, which is dim Ker H.
    """
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
                    h[i][j] = h[i][j].sub_mul(f, col[q])
    return (n_plus, n_minus, len(rest))


def _check_tol_sig(tol_sig):
    if not 0 <= tol_sig < inf:
        raise UsageError("signature tolerance must be non-negative and finite")


def hermitian_signature(m, tol_sig=1e-8):
    """Eigenvalue sign counts (n_plus, n_minus, n_zero) of a Hermitian matrix.

    Only available in the ApproxComplex context; the input must have finite
    entries and be Hermitian to within the context tolerance.  An
    eigenvalue counts as zero when its magnitude is at most ``tol_sig``,
    which must be a non-negative finite float (a negative one would count
    an eigenvalue both positive and negative).

    The counts are exact for H, the lower triangle and real diagonal (what
    LAPACK's eigvalsh reads) taken as dyadic rationals in Q(i): by
    Sylvester's law, #{lambda > t} = n_plus(H - tI) and #{lambda < -t} =
    n_minus(H + tI), with t = ``tol_sig`` exactly, from
    ``hermitian_inertia``.  The two factorizations take about 1.5 ms at
    n = 4, 20 ms at n = 12 and 0.1 s at n = 20 (medians, CPython 3.11,
    2-vCPU x86-64 host shared with other tenants), against 0.05-0.4 ms for
    eigvalsh once numpy is loaded.
    Exact matrices over Q(zeta_N) go to ``hermitian_inertia`` directly.
    """
    _check_tol_sig(tol_sig)
    if not isinstance(m.ctx, ApproxComplex):
        raise UsageError("hermitian_signature requires the ApproxComplex context")
    if m.rows != m.cols:
        raise UsageError("hermitian_signature requires a square matrix")
    n = m.rows
    h = [[complex(x) for x in row] for row in m.entries]
    if not all(isfinite(x) for row in h for x in row):
        raise UsageError("hermitian_signature requires finite entries")
    scale = max((abs(x) for row in h for x in row), default=0.0)
    skew = max((abs(h[i][j] - h[j][i].conjugate()) for i in range(n) for j in range(n)), default=0)
    if skew > m.ctx.tol * max(1.0, scale):
        raise UsageError("matrix is not Hermitian within tolerance")

    def inertia(s):
        # the inertia of H + sI
        rows = [[None] * n for _ in range(n)]
        for i, row in enumerate(h):
            rows[i][i] = CyclotomicNumber.from_fraction(4, Fraction(row[i].real) + s)
            for j, z in enumerate(row[:i]):
                rows[i][j] = CyclotomicNumber(4, (Fraction(z.real), Fraction(z.imag)))
                rows[j][i] = rows[i][j].conjugate()
        return hermitian_inertia(Matrix(Cyclotomic(4), rows))

    t = Fraction(tol_sig)
    n_plus, n_minus = inertia(-t)[0], inertia(t)[1]
    return (n_plus, n_minus, n - n_plus - n_minus)


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
