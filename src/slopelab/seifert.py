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
from fractions import Fraction

from .characters import embed_character
from .datasets import read_json
from .errors import UnsupportedHypothesisError, UsageError
from .linalg import Matrix
from .record import Record

SIGN_TO_CHAR = {1: "+", -1: "-"}
CHAR_TO_SIGN = {"+": 1, "-": -1}


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
        for eps in all_sign_vectors(mu):
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
    expected = set(all_sign_vectors(p.mu))
    present = set(p.theta)
    for eps in sorted(expected - present, reverse=True):
        out.append(f'theta is missing sign vector "{sign_string(eps)}"')
    for eps in sorted(present - expected, reverse=True):
        out.append(f'theta has an unexpected sign vector "{sign_string(eps)}"')
    for eps in sorted(present & expected, reverse=True):
        m = p.theta[eps]
        if len(m) != p.n or any(len(row) != p.n for row in m):
            out.append(f'theta["{sign_string(eps)}"] is not {p.n}x{p.n}')
    if check_transpose:
        for eps in sorted(present & expected, reverse=True):
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


def _assemble_A(presentation, scalars, ctx):
    """sum over eps of (prod_i eps_i s_i^((1-eps_i)/2)) theta^eps at s = scalars."""
    n = presentation.n
    rows = [[ctx.zero] * n for _ in range(n)]
    for eps, theta in presentation.theta.items():
        sign = 1
        factor = ctx.one
        for e, s in zip(eps, scalars):
            if e == -1:
                sign = -sign
                factor = factor * s
        for i in range(n):
            for j in range(n):
                c = theta[i][j]
                if c:
                    rows[i][j] = rows[i][j] + factor * (sign * c)
    return Matrix(ctx, rows, cols=n)


def build_A(presentation, omega, ctx):
    """The matrix A(omega) in the given field context."""
    scalars = embed_character(omega, ctx)
    return _assemble_A(presentation, scalars, ctx)


def build_E(presentation, omega, ctx):
    """The operator E(omega) = A(omega^-1) / prod_i (1 - omega_i^-1).

    Requires every coordinate of omega to differ from 1 (the patching
    extension for vanishing coordinates is not supported).
    """
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


# -- transforms -------------------------------------------------------------------


def _int_det(m):
    """Exact determinant of a square integer matrix."""
    n = len(m)
    work = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        sel = None
        for r in range(c, n):
            if work[r][c]:
                sel = r
                break
        if sel is None:
            return 0
        if sel != c:
            work[c], work[sel] = work[sel], work[c]
            det = -det
        det *= work[c][c]
        inv = 1 / work[c][c]
        for r in range(c + 1, n):
            f = work[r][c] * inv
            if f:
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    assert det.denominator == 1
    return int(det)


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
