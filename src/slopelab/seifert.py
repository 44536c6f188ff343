"""C-complex Seifert data and the operators built from it.

A presentation records, for a link with one distinguished component and mu
colors, the generalized Seifert forms theta^eps (one integer n x n matrix
per sign vector eps in {+1,-1}^mu), the linking class kappa of the
distinguished component, the number b0 of connected components of the
C-complex, and the linking vector between the distinguished component and
the colors.

From these the module assembles, in any field context,

    A(w) = sum_eps (prod_i eps_i w_i^((1-eps_i)/2)) theta^eps,
    E(w) = A(w^-1) / prod_i (1 - w_i^-1),

the operator whose image/kernel data drives everything downstream.
"""

from __future__ import annotations

import itertools
import json
from operator import add

from .datasets import read_json
from .errors import UnsupportedHypothesisError, UsageError
from .record import Record

SIGN_TO_CHAR = {1: "+", -1: "-"}
CHAR_TO_SIGN = {"+": 1, "-": -1}
# validate() names at most this many missing sign vectors, then counts the rest
MISSING_SHOWN = 8


def all_sign_vectors(mu):
    return list(itertools.product((1, -1), repeat=mu))


def sign_string(eps):
    return "".join(SIGN_TO_CHAR[e] for e in eps)


def parse_sign_string(s, mu):
    if len(s) != mu or any(c not in CHAR_TO_SIGN for c in s):
        raise UsageError(f"bad sign string {s!r} for mu={mu}")
    return tuple(CHAR_TO_SIGN[c] for c in s)


def _as_int(x, what):
    """x itself when it is an int; floats, strings and bools are refused."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise UsageError(f"{what} must be an integer, got {x!r}")
    return x


def _as_tuple(xs, what):
    try:
        return tuple(xs)
    except TypeError as exc:
        raise UsageError(f"{what} must be a list, got {xs!r}") from exc


def _as_int_matrix(rows, n, what):
    rows = _as_tuple(rows, what)
    if len(rows) != n:
        raise UsageError(f"{what} must have {n} rows")
    out = []
    for row in rows:
        row = _as_tuple(row, f"each row of {what}")
        if len(row) != n:
            raise UsageError(f"{what} must be {n}x{n}")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise UsageError(f"{what} entries must be integers, got {x!r}")
        out.append(tuple(row))
    return tuple(out)


def _transpose(m):
    n = len(m)
    return tuple(tuple(m[j][i] for j in range(n)) for i in range(n))


class CComplexPresentation(Record):
    """Seifert data of a C-complex in a fixed basis of its first homology."""

    mu: int
    n: int
    theta: dict
    kappa: tuple
    b0: int = 1
    linking: tuple = ()
    label: str = ""

    @staticmethod
    def build(mu, n, theta, kappa, b0=1, linking=None, label=""):
        """Normalize and complete the data.

        ``theta`` maps sign vectors (or sign strings) to integer matrices.
        A missing theta^eps is filled in as the transpose of theta^(-eps)
        when the latter is present, so supplying only the half with
        eps_mu = +1 suffices.  Supplied matrices are never overwritten, so
        both halves, when given, are cross-checked by validate().
        """
        mu = _as_int(mu, "mu")
        n = _as_int(n, "n")
        if mu < 1:
            raise UsageError("mu must be at least 1")
        if n < 0:
            raise UsageError("n must be nonnegative")
        table = {}
        for key, m in theta.items():
            eps = parse_sign_string(key, mu) if isinstance(key, str) else tuple(key)
            if len(eps) != mu or any(e not in (1, -1) for e in eps):
                raise UsageError(f"bad sign vector {key!r}")
            if eps in table:
                raise UsageError(f"duplicate sign vector {sign_string(eps)}")
            table[eps] = _as_int_matrix(m, n, f'theta["{sign_string(eps)}"]')
        # walked lazily: every sign vector past the first missing pair is
        # never made, so a large mu is refused after at most 2 len(theta) + 1
        for eps in itertools.product((1, -1), repeat=mu):
            if eps in table:
                continue
            neg = tuple(-e for e in eps)
            if neg not in table:
                raise UsageError(
                    f"theta is missing both {sign_string(eps)} and {sign_string(neg)}"
                )
            table[eps] = _transpose(table[neg])
        kappa = _as_tuple(kappa, "kappa")
        for x in kappa:
            if not isinstance(x, int) or isinstance(x, bool):
                raise UsageError("kappa entries must be integers")
        if len(kappa) != n:
            raise UsageError(f"kappa must have length {n}")
        if linking is None:
            linking = (0,) * mu
        linking = tuple(_as_int(x, "each lambda entry") for x in _as_tuple(linking, "lambda"))
        if len(linking) != mu:
            raise UsageError(f"the linking vector must have length {mu}")
        b0 = _as_int(b0, "b0")
        return CComplexPresentation(mu, n, table, kappa, b0, linking, str(label))

    def linking_is_zero(self):
        return all(x == 0 for x in self.linking)


def validate(presentation, check_transpose=True):
    """List of invariant violations; empty means the presentation is valid."""
    p = presentation
    out = []
    if p.mu < 1:
        out.append("mu must be at least 1")
    if p.n < 0:
        out.append("n must be nonnegative")
    if p.b0 < 1:
        out.append("b0 must be at least 1")
    if len(p.kappa) != p.n:
        out.append(f"kappa has length {len(p.kappa)}, expected {p.n}")
    if len(p.linking) != p.mu:
        out.append(f"linking vector has length {len(p.linking)}, expected {p.mu}")
    mu = max(p.mu, 0)
    # keys that are not tuples of signs cannot be spelled as sign strings
    signs = {
        key for key in p.theta
        if isinstance(key, tuple) and key.count(1) + key.count(-1) == len(key)
    }
    odd = set(p.theta) - signs
    present = {eps for eps in signs if len(eps) == mu}
    # the 2^mu sign vectors are walked in descending order, and only until
    # MISSING_SHOWN missing ones are found, so a large mu costs nothing
    missing = (eps for eps in itertools.product((1, -1), repeat=mu) if eps not in present)
    for eps in itertools.islice(missing, MISSING_SHOWN):
        out.append(f'theta is missing sign vector "{sign_string(eps)}"')
    unlisted = 2**mu - len(present) - MISSING_SHOWN
    if unlisted > 0:
        out.append(f"theta is missing {unlisted} more sign vectors")
    for eps in sorted(signs - present, reverse=True):
        out.append(f'theta has an unexpected sign vector "{sign_string(eps)}"')
    for key in sorted(map(repr, odd)):
        out.append(f"theta has an unexpected sign vector {key}")
    for eps in sorted(present, reverse=True):
        m = p.theta[eps]
        if len(m) != p.n or any(len(row) != p.n for row in m):
            out.append(f'theta["{sign_string(eps)}"] is not {p.n}x{p.n}')
    if check_transpose:
        for eps in sorted(present, reverse=True):
            neg = tuple(-e for e in eps)
            if neg not in p.theta or sign_string(eps) > sign_string(neg):
                continue
            m = p.theta[eps]
            if len(m) == p.n and p.theta[neg] != _transpose(m):
                out.append(
                    f'theta["{sign_string(neg)}"] != transpose(theta["{sign_string(eps)}"])'
                )
    return out


# -- operators ------------------------------------------------------------------


def _check_length(presentation, omega):
    if omega.mu != presentation.mu:
        raise UsageError("character length does not match the presentation")


def _assemble_A(presentation, scalars, ctx):
    """sum over eps of (prod_i eps_i s_i^((1-eps_i)/2)) theta^eps at s = scalars."""
    from .characters import _signed_thetas
    from .linalg import Matrix

    n = presentation.n
    rows = [[ctx.zero] * n for _ in range(n)]
    for sign, neg, theta in _signed_thetas(presentation):
        factor = ctx.one
        for i in neg:
            factor = factor * scalars[i]
        for i in range(n):
            for j in range(n):
                c = theta[i][j]
                if c:
                    rows[i][j] = rows[i][j] + factor * (sign * c)
    return Matrix(ctx, rows, cols=n)


def build_A(presentation, omega, ctx):
    """The matrix A(omega) in the given field context."""
    from .characters import embed_character

    _check_length(presentation, omega)
    scalars = embed_character(omega, ctx)
    return _assemble_A(presentation, scalars, ctx)


def build_E(presentation, omega, ctx):
    """The operator E(omega) = A(omega^-1) / prod_i (1 - omega_i^-1).

    Refuses a character whose length is not mu, then (as the field
    embedding does) a context the character does not embed in.  Requires
    every coordinate of omega to differ from 1 (the patching extension for
    vanishing coordinates is not supported).

    At a torsion character in Q(zeta_N) no field operation is needed
    (``characters.operator_at_torsion``).  Each x = omega_i^-1 is a root of
    unity of some exact order d > 1, and

        1 / (1 - x) = -(1/d) sum_{j<d} j x^j.

    Proof: with S = sum_{j<d} j x^j,
    (1 - x) S = sum_{j<d} j x^j - sum_{1<=j<=d} (j - 1) x^j
              = sum_{1<=j<d} x^j - (d - 1) x^d
              = (sum_{j<d} x^j) - 1 - (d - 1) = -d,
    because x^d = 1 and sum_{j<d} x^j = (x^d - 1) / (x - 1) = 0 for x != 1.
    Every x is a power of zeta_N, so the scale and every entry of
    A(omega^-1) are integer combinations of powers of zeta_N over the
    integer prod_i d_i, with no inversion.  The rational function field
    and ApproxComplex assemble E with field operations.
    """
    from .characters import ROOT_OF_UNITY, embed_character, operator_at_torsion
    from .fields import Cyclotomic
    from .linalg import Matrix

    _check_length(presentation, omega)
    if omega.kind == ROOT_OF_UNITY and isinstance(ctx, Cyclotomic):
        rows = operator_at_torsion(presentation, omega, ctx.conductor)
        return Matrix(ctx, rows, cols=presentation.n)
    # also refuses a context the character does not embed in
    scalars = embed_character(omega, ctx)
    inverted = []
    for s in scalars:
        if ctx.is_zero(s):
            raise UnsupportedHypothesisError("character coordinates must be nonzero")
        inverted.append(ctx.invert(s))
    pi = ctx.one
    for s in inverted:
        factor = ctx.one - s
        if ctx.is_zero(factor):
            raise UnsupportedHypothesisError(
                "vanishing character coordinate (omega_i = 1): patching is not supported"
            )
        pi = pi * factor
    scale = ctx.invert(pi)
    return _assemble_A(presentation, inverted, ctx).map(lambda x: scale * x)


def _inverse_terms(presentation):
    """The term maps of the x_rc = A_rc(w^-1), row by row (exponents in
    {0, -1}^mu; distinct sign vectors have distinct exponent vectors)."""
    from .characters import _signed_thetas

    mu, n = presentation.mu, presentation.n
    parts = [
        (tuple(-1 if i in neg else 0 for i in range(mu)), sign, theta)
        for sign, neg, theta in _signed_thetas(presentation)
    ]
    return [
        [{e: sign * theta[r][c] for e, sign, theta in parts if theta[r][c]} for c in range(n)]
        for r in range(n)
    ]


def _f_divides(terms, i):
    """Whether f_i = 1 - w_i^-1 divides x (``symbolic_rows``): x_1 = -x_0,
    that is, the term at e with e_i flipped cancels the one at e."""
    return all(terms.get(e[:i] + (-1 - e[i],) + e[i + 1:], 0) == -v for e, v in terms.items())


def _divided(terms, divides):
    """x / prod f_i over i in ``divides``, each f_i dividing x: the terms
    with e_i = 0 for each such i."""
    return {e: v for e, v in terms.items() if not any(e[i] for i in divides)}


def symbolic_rows(presentation):
    """The rows of [E(w) | kappa], cleared and scaled for
    ``linalg._echelon_fraction_free``, with no rational function formed:
    (1, m, row), row integer polynomials of minimum exponent 0 and unit
    w^-m.  They equal ``linalg._integral(linalg._cleared(row, mu), mu)`` of
    ``build_E``'s symbolic row r with kappa_r appended, term maps included.

    Let f_i = 1 - w_i^-1, P = prod_i f_i and x = x_rc = A_rc(w^-1), whose
    exponents lie in {0, -1}^mu, so that E_rc = x / P.

    * f_i divides x iff x vanishes identically at w_i = 1 (``_f_divides``).
      Write x = x_0 + x_1 w_i^-1 with x_0, x_1 free of w_i.  Since
      f_i = w_i^-1 (w_i - 1) and w_i - 1 is monic in w_i, the factor
      theorem over the ring of the other variables says f_i | x iff
      x(w_i = 1) = x_0 + x_1 = 0, and then x = x_0 f_i: the quotient is
      x_0, the terms of x with e_i = 0, whose exponents again lie in
      {0, -1}^mu.  For j != i, f_j | x = x_0 f_i iff f_j | x_0, so dividing
      by several f_i one after another keeps the terms with e_i = 0 for
      each of them (``_divided``).
    * The f_i are linear in distinct variables, hence irreducible and
      pairwise non-associate, so gcd(x, P) is the product of the f_i over
      the set S_rc of i with f_i | x, and x / P in lowest terms has the
      denominator D_rc = prod f_i, i not in S_rc, up to a unit: a common
      factor of x / prod_(i in S_rc) f_i and D_rc would be some f_j, j not
      in S_rc, dividing x.
    * Let U_r be the union over the row of the complements of the S_rc,
      the i whose f_i fails to divide some x_rc.  Each f_i normalizes to
      w_i - 1, so ``_cleared``'s lcm is L = prod over U_r of (w_i - 1), and
      the cleared row is L times row r.  As w_i - 1 = w_i f_i, L x_rc / P
      is x_rc divided by the f_i, i not in U_r, times w^(1 on U_r); kappa_r
      becomes kappa_r L.  Every exponent is then 0 or 1 and every
      coefficient an integer, so ``_integral`` takes c = 1 and shifts by m,
      the least exponent of the row.  m_i is 1 exactly when i is in U_r,
      kappa_r is 0 (kappa_r L has a constant term) and no entry keeps a
      term with e_i = -1; else 0, for a zero row too (U_r is empty).
    """
    from .laurent import LaurentPoly

    mu = presentation.mu
    out = []
    for entries, k in zip(_inverse_terms(presentation), presentation.kappa):
        keep = [i for i in range(mu) if not all(_f_divides(t, i) for t in entries)]
        drop = [i for i in range(mu) if i not in keep]
        row = [_divided(t, drop) if drop else t for t in entries]
        m = tuple(int(i in keep and not k and not any(e[i] for t in row for e in t))
                  for i in range(mu))
        shift = tuple(int(i in keep) - m[i] for i in range(mu))
        if any(shift):
            row = [{tuple(map(add, e, shift)): v for e, v in t.items()} for t in row]
        kappa = {(0,) * mu: k} if k else {}
        for i in keep:  # times w_i - 1
            kappa = {f: c for e, v in kappa.items()
                     for f, c in ((e[:i] + (1,) + e[i + 1:], v), (e, -v))}
        row.append(kappa)
        out.append((1, m, [LaurentPoly._make(mu, t) for t in row]))
    return out


# -- transforms -------------------------------------------------------------------


def _int_det(m):
    """Exact determinant of a square integer matrix, by Bareiss elimination.

    Every entry stays an integer: after step c the trailing block holds
    minors of order c + 1, and each division by the previous pivot is exact.
    """
    n = len(m)
    work = [list(row) for row in m]
    sign, prev = 1, 1
    for c in range(n):
        sel = next((r for r in range(c, n) if work[r][c]), None)
        if sel is None:
            return 0
        if sel != c:
            work[c], work[sel] = work[sel], work[c]
            sign = -sign
        pivot, row_c = work[c][c], work[c]
        for r in range(c + 1, n):
            row_r, f = work[r], work[r][c]
            for j in range(c + 1, n):
                row_r[j] = (row_r[j] * pivot - f * row_c[j]) // prev
        prev = pivot
    return sign * prev


def change_basis(presentation, u):
    """Congruence transform by a unimodular integer matrix U.

    theta^eps becomes U^T theta^eps U and kappa becomes U^T kappa; the
    slope and signature data are unchanged.
    """
    p = presentation
    u = _as_int_matrix(u, p.n, "U")
    if _int_det(u) not in (1, -1):
        raise UsageError("basis change requires a unimodular matrix (det = +-1)")
    ut = _transpose(u)

    def mat_mul(a, b):
        n = len(a)
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    new_theta = {eps: mat_mul(ut, mat_mul(m, u)) for eps, m in p.theta.items()}
    new_kappa = tuple(sum(ut[i][k] * p.kappa[k] for k in range(p.n)) for i in range(p.n))
    return p.replace(theta=new_theta, kappa=new_kappa)


def stabilize(presentation):
    """Add one trivial generator: theta^eps -> theta^eps + zero row/column,
    kappa -> kappa + 0, and b0 drops by one (staying at least 1), modeling
    a pair of close clasps joining two components of the C-complex."""
    p = presentation
    new_theta = {}
    for eps, m in p.theta.items():
        rows = [tuple(row) + (0,) for row in m]
        rows.append((0,) * (p.n + 1))
        new_theta[eps] = tuple(rows)
    return p.replace(
        n=p.n + 1,
        theta=new_theta,
        kappa=p.kappa + (0,),
        b0=max(p.b0 - 1, 1),
    )


def random_presentation(rng, mu=1, n=2, bound=2, kappa_zero=False, b0=1):
    """A presentation with entries drawn uniformly from [-bound, bound]."""
    theta = {}
    for eps in all_sign_vectors(mu):
        if eps[-1] != 1:
            continue
        theta[sign_string(eps)] = [
            [rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)
        ]
    kappa = [0] * n if kappa_zero else [rng.randint(-bound, bound) for _ in range(n)]
    return CComplexPresentation.build(mu, n, theta, kappa, b0=b0)


def random_unimodular(rng, n, steps=6):
    """Product of elementary integer row operations; det is +-1."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            f = rng.randint(-2, 2)
            for c in range(n):
                u[i][c] += f * u[j][c]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        elif kind == 2:
            u[i] = [-x for x in u[i]]
    return u


# -- JSON dataset format ----------------------------------------------------------


def presentation_to_dict(presentation):
    p = presentation
    return {
        "mu": p.mu,
        "n": p.n,
        "theta": {
            sign_string(eps): [list(row) for row in m] for eps, m in sorted(p.theta.items(), reverse=True)
        },
        "kappa": list(p.kappa),
        "b0": p.b0,
        "lambda": list(p.linking),
        "label": p.label,
    }


def presentation_from_dict(data):
    if not isinstance(data, dict):
        raise UsageError("dataset must be a JSON object")
    try:
        mu = data["mu"]
        n = data["n"]
        theta = data["theta"]
        kappa = data["kappa"]
    except KeyError as exc:
        raise UsageError(f"dataset is missing required field {exc.args[0]!r}") from exc
    if not isinstance(theta, dict):
        raise UsageError('"theta" must map sign strings to matrices')
    return CComplexPresentation.build(
        mu,
        n,
        theta,
        kappa,
        b0=data.get("b0", 1),
        linking=data.get("lambda"),
        label=data.get("label", ""),
    )


def load_presentation(path):
    return presentation_from_dict(read_json(path))


def save_presentation(presentation, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(presentation_to_dict(presentation), fh, indent=2)
        fh.write("\n")
