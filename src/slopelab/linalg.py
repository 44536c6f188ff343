"""Dense linear algebra over Q(zeta_N) and the approximate complex numbers,
and the fraction-free kernel of ``slope``'s per-presentation records.

``solve`` and ``rank`` run Gauss-Jordan elimination.  Q(zeta_N) and the
approximate complex numbers share one loop with two pivot rules; callers
mark approximate results through ``ctx.is_exact``.  Both refuse a matrix
over the rational function field: symbolic answers come from
``slope.slope_symbolic``, whose records eliminate the presentation's
integer rows (``seifert.symbolic_rows``) with the kernel below.

The kernel, ``_echelon_fraction_free``, is a one-step Bareiss elimination.
Each step multiplies every other row by the new pivot p_k and divides
exactly by the previous pivot, so once all pivots are taken every pivot
row is det * (its row of the reduced row echelon form), det being the last
pivot.  At step k the entries of the pivot columns are known before any
arithmetic: p_k in each pivot row's own pivot column and zero elsewhere
(the induction is in ``_echelon_fraction_free``), so only the other
columns are multiplied out and divided.  The elimination stops there and
returns those polynomial rows with the pivots, so it makes no gcd call;
the records read their slopes off the rows, as polynomials over det or
evaluated at a point.

The steps run on one Python integer per entry.  Each row comes scaled by
a monomial unit w^-m_i into integer polynomials with exponents in
[0, span_i], and each entry becomes its Kronecker image, its value at
w_v = 2^(8 W s_v): s_v are the place values of the mixed radix
radix_v = 2 sum_i span_i,v + 1, and the digit width W bytes holds
bit_length(2 H^2) + 1 bits, H the product of the rows' 1-norms (each at
least 1).  Every minor of the scaled rows has 1-norm at most H and
exponents in [0, sum_i span_i,v], so every product p * x - f * y a step
forms has a faithful image: a product or an exact quotient of
polynomials is one big-integer operation.  Only the pivots and the
non-pivot columns of the pivot rows are unpacked
(``laurent.kronecker_unpack``) and shifted back by the units of the rows
taken; the proof is in the ``_echelon_fraction_free`` docstring.
"""

from __future__ import annotations

from cmath import isfinite
from fractions import Fraction
from math import inf
from operator import add

from .errors import UsageError
from .fields import ApproxComplex, Cyclotomic, CyclotomicNumber, RationalFunctionField
from .laurent import (
    LaurentPoly,
    exact_div,  # unused here, but slopebench/tracer.py binds linalg:exact_div
    kronecker_pack,
    kronecker_unpack,
)
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


class _Echelon(Record):
    # the reduced row echelon form and its pivot columns
    rows: list
    pivots: list


def _echelon(rows, ncols, ctx):
    """Gauss-Jordan elimination to reduced row echelon form, over Q(zeta_N)
    or the approximate complex numbers.

    Exact contexts pivot on the first nonzero entry of the column (``bool``
    of a scalar is nonzero-ness) and update each entry x of a row with the
    fused ``x.sub_mul(f, y)``, one reduction and one gcd; the approximate
    context pivots on the largest magnitude above tol * max(1, largest
    entry), the first on a tie.
    """
    if isinstance(ctx, RationalFunctionField):
        raise UsageError(
            "solve and rank take Q(zeta_N) and ApproxComplex matrices; symbolic "
            "answers come from slope_symbolic, on the rows of seifert.symbolic_rows"
        )
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


def _layout(rows, num_vars):
    """(radix, width) of the Kronecker images of the integral rows: radix_v
    = 2 sum_i span_i,v + 1, span_i,v the largest exponent of w_v in row i,
    and the least whole number of bytes holding bit_length(2 H^2) + 1
    bits, H = prod_i max(1, ||row_i||_1), the 1-norm of a row summing the
    absolute values of all its coefficients."""
    radix = [1] * num_vars
    h = 1
    for row in rows:
        exps = [e for x in row for e in x.terms]
        for v, top in enumerate(map(max, zip(*exps)) if exps else ()):
            radix[v] += 2 * top
        h *= max(1, sum(abs(c) for x in row for c in x.terms.values()))
    return tuple(radix), ((2 * h * h).bit_length() + 8) // 8


def _unscaled(k, radix, width, shift):
    """The polynomial with Kronecker image k, divided by the unit w^-shift."""
    return kronecker_unpack(k, radix, width).shift(shift)


def _exact_quotient(a, d):
    """a / d for integers where d divides a; raises otherwise."""
    q, r = divmod(a, d)
    if r:
        raise ArithmeticError("inexact division in the fraction-free elimination")
    return q


def _echelon_fraction_free(scaled, ncols, n):
    """One-step Bareiss Gauss-Jordan elimination of the rows R_i, given
    scaled as (m_i, S_i), S_i = w^-m_i R_i (``seifert.symbolic_rows``), run
    on one integer per entry.  Returns (rows, pivot columns, pivots) of the
    elimination of the R_i.

    Step r takes the pivot p in column c and replaces every other row i by
    (p * row_i - f * row_r) / prev, f being row i's entry in column c and
    prev the pivot of step r - 1 (one at the first step).  Only the entries
    whose value is not known beforehand are computed:

    * column c becomes zero, as p * f - f * p = 0;
    * each earlier pivot column becomes zero, except in its own pivot row,
      where it becomes p.  By induction the column holds prev in that row
      and zero in every other row, the pivot row r included, so the update
      is p * prev / prev = p there and p * 0 / prev = 0 elsewhere;
    * every other column, including the non-pivot columns left of c that
      the earlier pivot rows still carry, is the exact division
      (``_exact_quotient``, which checks that the remainder is zero).

    The pivot row itself is left as it is.  No step reads a pivot column
    again, so the known entries are not stored.  At the end each pivot
    row holds det, the last pivot, in its own pivot column and zero in the
    other pivot columns; only its other columns and the pivots are read
    back as polynomials, and det is written into its own pivot column.

    The steps run on integers.  Each row R_i comes scaled by the monomial
    unit u_i = w^-m_i into S_i = u_i R_i, integer polynomials with minimum
    exponent 0, and each entry x of the S_i is replaced by its Kronecker
    image K(x), x evaluated at w_v = 2^(8 W s_v)
    (``laurent.kronecker_pack``), with radix_v = 2 sum_i span_i,v + 1, s_v
    the mixed-radix place values and W bytes holding bit_length(2 H^2) + 1
    bits (``_layout``).  Soundness:

    * The scaling is multilinear in the rows.  Let V_k be the product of
      the u of the rows taken as pivot rows at steps 0..k (V_-1 = 1).  By
      induction over the steps, after step k every pivot row of the scaled
      run is V_k times the unscaled one, and every other row i is V_k u_i
      times it: the pivot of step k is V_k p, prev is V_(k-1) prev, and
      (V_k p V_(k-1) u_i x - V_(k-1) u_i f V_k y) / (V_(k-1) prev) =
      V_k u_i (p x - f y) / prev, and likewise without u_i for an earlier
      pivot row (V_(k-1) u_r = V_k).  Units are not zero divisors, so an
      entry is zero exactly when the unscaled one is: the scaled run takes
      the same pivots and row swaps.  The pivot of step k is therefore
      unscaled by V_k, and the final pivot rows by V_(r-1).  Each V is a
      monomial w^-(m sum) with coefficient 1, so dividing by it shifts the
      exponents by the summed m (``_unscaled``) and keeps every
      coefficient the integer it is in the scaled run.
    * Every value is in the box.  Each stored entry of the scaled run is,
      up to sign, a minor of the scaled matrix (Sylvester's identity, and
      Cramer's rule for the earlier pivot rows).  Each term of a minor is
      a product of one entry from each of some distinct rows, so its
      exponents lie in [0, sum_i span_i,v], and its 1-norm is at most the
      permanent of the matrix of entry norms, which is at most the product
      of its row sums, so at most H.  The products p x and f y then have
      exponents in [0, 2 sum_i span_i,v] = [0, radix_v - 1] and 1-norm at
      most H^2, and p x - f y at most 2 H^2, below 2^(8 W - 1).
    * K is injective on the box.  Position sum e_v s_v is a bijection from
      the exponent box onto [0, prod radix_v), and balanced digits of
      absolute value below 2^(8 W - 1) are unique: if two such digit
      strings gave the same integer, the lowest position where they differ
      would leave a nonzero difference below 2^(8 W) in absolute value
      that 2^(8 W) divides.
    * K is a ring homomorphism Z[w] -> Z (an evaluation), so the integer
      steps compute the images of the polynomial steps: an exact
      polynomial quotient q = a / prev gives K(a) = K(q) K(prev) with
      K(prev) != 0, and the integer division returns K(q) with remainder
      zero.  An entry is zero exactly when its image is, so the pivot rule
      reads the images, and ``laurent.kronecker_unpack`` recovers each
      polynomial read back.
    """
    radix, width = _layout([s for _, s in scaled], n)
    units = [m for m, _ in scaled]
    work = [[kronecker_pack(x, radix, width) for x in s] for _, s in scaled]
    prev = 1
    pivots = []
    pivot_images = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(work)) if work[i][c]), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        units[r], units[sel] = units[sel], units[r]
        pivot_row = work[r]
        p = pivot_row[c]
        unknown = [j for j in range(ncols) if j != c and j not in pivots]
        for i, row in enumerate(work):
            if i == r:
                continue
            f = row[c]
            new = [0] * ncols
            for j in unknown:
                new[j] = _exact_quotient(p * row[j] - f * pivot_row[j], prev)
            work[i] = new
        prev = p
        pivots.append(c)
        pivot_images.append(p)
        r += 1
    assert not any(any(row) for row in work[r:]), "nonzero row below the pivot rows"

    # V_k = w^-shift, the product of the units of the rows taken so far
    shift = (0,) * n
    pivot_polys = []
    for m, k in zip(units, pivot_images):
        shift = tuple(map(add, shift, m))
        pivot_polys.append(_unscaled(k, radix, width, shift))
    zero = LaurentPoly.zero(n)
    rows = [[zero] * ncols for _ in work]
    for i, own in enumerate(pivots):
        row = rows[i]
        for j, k in enumerate(work[i]):
            if j not in pivots:
                row[j] = _unscaled(k, radix, width, shift)
        row[own] = pivot_polys[-1]
    return rows, pivots, tuple(pivot_polys)


def rank(m):
    """Rank over Q(zeta_N), or approximate in ApproxComplex; a matrix over
    the rational function field is refused (``_echelon``)."""
    return len(_echelon(m.entries, m.cols, m.ctx).pivots)


def _kernel_from_echelon(rows, pivots, ncols, ctx):
    pivot_cols = [c for c in pivots if c < ncols]
    pivot_set = set(pivot_cols)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [ctx.zero] * ncols
        v[f] = ctx.one
        for r, c in enumerate(pivot_cols):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def solve(m, b):
    """Solve M x = b over Q(zeta_N) or ApproxComplex, reporting a
    particular solution and a kernel basis; a matrix over the rational
    function field is refused (``_echelon``).

    Inconsistency is a value (status), not an error.  The kernel basis is
    in reduced row echelon convention: each free variable set to 1 in turn.
    """
    if len(b) != m.rows:
        raise UsageError("right-hand side length does not match matrix rows")
    ech = _echelon([list(row) + [bi] for row, bi in zip(m.entries, b)], m.cols + 1, m.ctx)
    inconsistent = m.cols in ech.pivots
    kernel = _kernel_from_echelon(ech.rows, ech.pivots, m.cols, m.ctx)
    if inconsistent:
        return SolveResult(INCONSISTENT, None, kernel)
    particular = [m.ctx.zero] * m.cols
    for r, c in enumerate(ech.pivots):
        particular[c] = ech.rows[r][m.cols]
    status = UNIQUE if not kernel else UNDERDETERMINED
    return SolveResult(status, tuple(particular), kernel)


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

