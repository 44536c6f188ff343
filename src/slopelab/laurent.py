"""Multivariate Laurent polynomials with exact rational coefficients.

A polynomial is stored sparsely as a map from integer exponent vectors
(entries may be negative) to nonzero exact coefficients: a Python ``int``
when the value is integral and a :class:`~fractions.Fraction` otherwise.
An ``int`` and a ``Fraction`` of equal value compare and hash equal, so
two polynomials are equal in the ring exactly when their stored term maps
are equal, whichever type holds an integral value.  Polynomials built from
integer data (the theta matrices, Bareiss rows, subresultant remainders)
therefore run on ``int`` arithmetic throughout; every division stays exact
and no coefficient is ever a float.  The module also provides the
polynomial gcd machinery used to keep rational functions reduced
(recursive content/primitive-part with a subresultant remainder sequence
in the main variable) and cyclotomic polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd as _int_gcd
from math import lcm as _int_lcm

from .errors import UsageError


def _as_coeff(x):
    """An exact coefficient: an ``int`` when integral, else a ``Fraction``."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        return _as_coeff(Fraction(x))
    raise UsageError(f"expected an exact rational coefficient, got {type(x).__name__}")


class LaurentPoly:
    """A Laurent polynomial in ``num_vars`` variables over the rationals.

    ``terms`` maps exponent tuples to nonzero coefficients, each an ``int``
    when integral and a ``Fraction`` otherwise (equal values of the two
    types compare and hash equal, so ``==`` and ``hash`` do not see the
    difference).
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars, terms=None):
        num_vars = int(num_vars)
        if num_vars < 0:
            raise UsageError("num_vars must be nonnegative")
        clean = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for exps, coeff in items:
                exps = tuple(int(e) for e in exps)
                if len(exps) != num_vars:
                    raise UsageError(
                        f"exponent vector {exps} has length {len(exps)}, expected {num_vars}"
                    )
                c = _as_coeff(clean.get(exps, 0) + _as_coeff(coeff))
                if c:
                    clean[exps] = c
                elif exps in clean:
                    del clean[exps]
        self.num_vars = num_vars
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, num_vars, terms):
        """Wrap an already-clean term map (tuple keys, nonzero coefficients)."""
        out = cls.__new__(cls)
        out.num_vars = num_vars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, num_vars):
        return cls._make(num_vars, {})

    @classmethod
    def const(cls, num_vars, c):
        c = _as_coeff(c)
        return cls._make(num_vars, {(0,) * num_vars: c} if c else {})

    @classmethod
    def one(cls, num_vars):
        return cls._make(num_vars, {(0,) * num_vars: 1})

    @classmethod
    def var(cls, num_vars, index, power=1):
        if not 0 <= index < num_vars:
            raise UsageError(f"variable index {index} out of range for {num_vars} variables")
        e = [0] * num_vars
        e[index] = power
        return cls(num_vars, {tuple(e): 1})

    @classmethod
    def monomial(cls, num_vars, exps, coeff=1):
        return cls(num_vars, {tuple(exps): coeff})

    # -- predicates and views ----------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return not self.terms or set(self.terms) == {(0,) * self.num_vars}

    def is_monomial(self):
        return len(self.terms) == 1

    def min_exps(self):
        """Per-variable minimum exponent (zeros for the zero polynomial)."""
        if not self.terms:
            return (0,) * self.num_vars
        return tuple(min(e[i] for e in self.terms) for i in range(self.num_vars))

    def lex_leading(self):
        """The (exponent vector, coefficient) pair that is lex-maximal."""
        if not self.terms:
            raise UsageError("the zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def active_vars(self):
        return {i for e in self.terms for i in range(self.num_vars) if e[i]}

    # -- ring operations -----------------------------------------------------

    def _check_same(self, other):
        if self.num_vars != other.num_vars:
            raise UsageError(
                f"mismatched variable counts: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.num_vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return LaurentPoly._make(self.num_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.num_vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            if not c:
                return LaurentPoly.zero(self.num_vars)
            return LaurentPoly._make(
                self.num_vars, {e: _as_coeff(cc * c) for e, cc in self.terms.items()}
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        return LaurentPoly._make(self.num_vars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        return _power(self, exponent, LaurentPoly.one(self.num_vars), LaurentPoly.inverse_unit)

    def inverse_unit(self):
        """Invert a unit (a single monomial).  Raises otherwise."""
        if len(self.terms) != 1:
            raise UsageError("only monomials are invertible in the Laurent ring")
        (e, c), = self.terms.items()
        return LaurentPoly._make(
            self.num_vars, {tuple(-x for x in e): _as_coeff(Fraction(1) / c)}
        )

    def shift(self, exps):
        """Multiply by the monomial with the given exponent vector."""
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.num_vars:
            raise UsageError("shift exponent vector has wrong length")
        if not any(exps):
            return self
        return LaurentPoly._make(
            self.num_vars,
            {tuple(a + b for a, b in zip(e, exps)): c for e, c in self.terms.items()},
        )

    def subst_inverse(self):
        """Substitute every variable by its inverse."""
        return LaurentPoly._make(
            self.num_vars, {tuple(-x for x in e): c for e, c in self.terms.items()}
        )

    def evaluate(self, values, zero=0):
        """Evaluate at a point.

        ``values`` must support multiplication with ints, Fractions and integer
        powers (negative powers are needed when negative exponents occur).
        ``zero`` is the additive identity of the target scalars and anchors
        the result type (constant polynomials coerce through it).
        """
        if len(values) != self.num_vars:
            raise UsageError("wrong number of values for evaluation")
        total = zero
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k:
                    term = term * v ** k
            total = total + term
        return total

    # -- equality, hashing, rendering ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.num_vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def render(self, names=None, prefix="w", start=1):
        """Canonical text form: terms in ascending lex exponent order."""
        if names is None:
            names = [f"{prefix}{i}" for i in range(start, start + self.num_vars)]
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            factors = []
            for name, k in zip(names, e):
                if k == 0:
                    continue
                factors.append(name if k == 1 else f"{name}^{k}")
            mag = abs(c)
            if not factors or mag != 1:
                factors.insert(0, _fmt_fraction(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.num_vars}, {self.render()!r})"


def _power(x, exponent, one, inverse):
    """x ** exponent by square-and-multiply, from the identity ``one``;
    a negative exponent powers ``inverse(x)`` instead."""
    exponent = int(exponent)
    if exponent < 0:
        x, exponent = inverse(x), -exponent
    result = one
    while exponent:
        if exponent & 1:
            result = result * x
        x = x * x
        exponent >>= 1
    return result


def _fmt_fraction(q):
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# -- exact division ----------------------------------------------------------


def exact_div(p, d):
    """Exact quotient p/d in the Laurent ring.  Raises if d does not divide p."""
    if not isinstance(p, LaurentPoly) or not isinstance(d, LaurentPoly):
        raise UsageError("exact_div expects LaurentPoly operands")
    p._check_same(d)
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero(p.num_vars)
    pmin = p.min_exps()
    dmin = d.min_exps()
    quotient = _div_ordinary(p.shift(tuple(-m for m in pmin)), d.shift(tuple(-m for m in dmin)))
    return quotient.shift(tuple(a - b for a, b in zip(pmin, dmin)))


def _div_ordinary(p, d):
    """Exact division of ordinary (nonnegative-exponent) polynomials by
    repeated cancellation of the lex-leading term."""
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
            qc = _as_coeff(c / lead_c)
        # the leading exponent of rem strictly decreases, so each diff is new
        q[diff] = qc
        for ee, cc in d.terms.items():
            key = tuple(a + b for a, b in zip(diff, ee))
            s = rem.get(key, 0) - qc * cc
            if s:
                rem[key] = s
            elif key in rem:
                del rem[key]
    return LaurentPoly._make(p.num_vars, q)


# -- gcd ----------------------------------------------------------------------


def _int_primitive(p):
    """Scale by a positive rational so the coefficients are coprime integers.

    Returns ``p`` itself when it already is.
    """
    if p.is_zero():
        return p
    # reduce rather than gcd(*nums): argument tuples of every length would
    # pile up in the interpreter's tuple free lists and raise peak memory
    den = reduce(_int_lcm, (c.denominator for c in p.terms.values()), 1)
    nums = [c.numerator * (den // c.denominator) for c in p.terms.values()]
    g = reduce(_int_gcd, nums, 0)
    if den == 1 and g == 1:
        return p
    return LaurentPoly._make(p.num_vars, {e: n // g for e, n in zip(p.terms, nums)})


def normalize_poly(p):
    """Unit-normalized polynomial part of a Laurent polynomial.

    The result has minimum exponent 0 in each variable, coprime integer
    coefficients, and a positive lex-leading coefficient.
    """
    if p.is_zero():
        return p
    q = p.shift(tuple(-m for m in p.min_exps()))
    q = _int_primitive(q)
    if q.lex_leading()[1] < 0:
        q = -q
    return q


def _deg_in(p, v):
    return max(e[v] for e in p.terms)


def _coeff_split(p, v):
    """Coefficients of p viewed as a polynomial in variable v.

    Returns {exponent of v: coefficient polynomial with v zeroed out}.
    """
    out = {}
    for e, c in p.terms.items():
        k = e[v]
        ne = list(e)
        ne[v] = 0
        out.setdefault(k, {})[tuple(ne)] = c
    return {k: LaurentPoly._make(p.num_vars, t) for k, t in out.items()}


def _lead_coeff_in(p, v):
    d = _deg_in(p, v)
    terms = {}
    for e, c in p.terms.items():
        if e[v] == d:
            ne = list(e)
            ne[v] = 0
            terms[tuple(ne)] = c
    return LaurentPoly._make(p.num_vars, terms)


def _times_v_pow(p, v, k):
    e = [0] * p.num_vars
    e[v] = k
    return p.shift(tuple(e))


def _prem(a, b, v):
    """Pseudo-remainder of a by b in the variable v."""
    db = _deg_in(b, v)
    lb = _lead_coeff_in(b, v)
    r = a
    e = _deg_in(a, v) - db + 1
    while not r.is_zero() and _deg_in(r, v) >= db:
        s = _times_v_pow(_lead_coeff_in(r, v), v, _deg_in(r, v) - db)
        r = lb * r - s * b
        e -= 1
    for _ in range(e):
        r = lb * r
    return r


def _content_primitive(p, v):
    coeffs = list(_coeff_split(p, v).values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_constant():
            break
        cont = _gcd_rec(cont, c)
    if cont.is_constant():
        cont = LaurentPoly.one(p.num_vars)
        return cont, p
    cont = normalize_poly(cont)
    return cont, exact_div(p, cont)


def _gcd_univariate(a, b, v):
    """Monic Euclid for polynomials whose only active variable is v."""
    da = {e[v]: c for e, c in a.terms.items()}
    db = {e[v]: c for e, c in b.terms.items()}

    def dense(d):
        n = max(d)
        return [d.get(i, 0) for i in range(n + 1)]

    x, y = dense(da), dense(db)
    while y and any(y):
        inv = Fraction(1) / y[-1]
        y = [c * inv for c in y]
        while len(x) >= len(y):
            if x[-1]:
                f = x[-1]
                off = len(x) - len(y)
                for i in range(len(y)):
                    x[off + i] -= f * y[i]
            x.pop()
        while x and not x[-1]:
            x.pop()
        x, y = y, x
    terms = {}
    for i, c in enumerate(x):
        if c:
            e = [0] * a.num_vars
            e[v] = i
            terms[tuple(e)] = c
    return LaurentPoly(a.num_vars, terms)


def _subresultant(a, b, v):
    """Gcd of polynomials primitive in v, via the subresultant sequence."""
    if _deg_in(a, v) < _deg_in(b, v):
        a, b = b, a
    one = LaurentPoly.one(a.num_vars)
    g = h = one
    while True:
        delta = _deg_in(a, v) - _deg_in(b, v)
        r = _prem(a, b, v)
        if r.is_zero():
            return _content_primitive(b, v)[1]
        if _deg_in(r, v) == 0:
            return one
        a, b = b, exact_div(r, g * h ** delta)
        g = _lead_coeff_in(a, v)
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = exact_div(g ** delta, h ** (delta - 1))


def _gcd_rec(a, b):
    a = _int_primitive(a)
    b = _int_primitive(b)
    active_a = a.active_vars()
    active_b = b.active_vars()
    active = active_a | active_b
    if not active:
        return LaurentPoly.one(a.num_vars)
    v = max(active)
    if v not in active_a:
        # a does not involve v, so neither can a common divisor
        return _gcd_rec(a, _content_primitive(b, v)[0])
    if v not in active_b:
        return _gcd_rec(_content_primitive(a, v)[0], b)
    if active == {v}:
        g = _gcd_univariate(a, b, v)
        return LaurentPoly.one(a.num_vars) if g.is_constant() else g
    ca, pa = _content_primitive(a, v)
    cb, pb = _content_primitive(b, v)
    return _gcd_rec(ca, cb) * _subresultant(pa, pb, v)


def poly_gcd(p, q):
    """Gcd up to units, as a normalized polynomial (see normalize_poly)."""
    if not isinstance(p, LaurentPoly) or not isinstance(q, LaurentPoly):
        raise UsageError("poly_gcd expects LaurentPoly operands")
    p._check_same(q)
    if p.is_zero():
        return normalize_poly(q)
    if q.is_zero():
        return normalize_poly(p)
    a = normalize_poly(p)
    b = normalize_poly(q)
    if a.is_constant() or b.is_constant():
        return LaurentPoly.one(p.num_vars)
    return normalize_poly(_gcd_rec(a, b))


def poly_lcm(p, q):
    if p.is_zero() or q.is_zero():
        return LaurentPoly.zero(p.num_vars)
    return normalize_poly(exact_div(p * q, poly_gcd(p, q)))


# -- elementary number theory and cyclotomic polynomials ----------------------


def divisors(n):
    n = abs(int(n))
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n):
    n = int(n)
    if n < 1:
        raise UsageError("euler_phi needs a positive integer")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def prime_power_base(n):
    """The prime p if n = p^k with k >= 1, else None."""
    n = int(n)
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
        p += 1
    return n


def is_prime_power(n):
    return prime_power_base(n) is not None


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(n):
    """Dense integer coefficients of Phi_n, low to high.

    With p the least prime factor of n and m = n/p: Phi_n(t) = Phi_m(t^p) if
    p | m, else Phi_m(t^p) / Phi_m(t) (one exact division per prime of n).
    """
    if n == 1:
        return (-1, 1)
    p = divisors(n)[1]
    inner = cyclotomic_minimal_poly(n // p)
    outer = LaurentPoly._make(1, {(e * p,): c for (e,), c in inner.terms.items()})
    if (n // p) % p:
        outer = _div_ordinary(outer, inner)
    return tuple(outer.terms.get((i,), 0) for i in range(euler_phi(n) + 1))


def cyclotomic_minimal_poly(n):
    """The n-th cyclotomic polynomial as a univariate LaurentPoly."""
    n = int(n)
    if n < 1:
        raise UsageError("conductor must be a positive integer")
    return LaurentPoly(1, {(i,): c for i, c in enumerate(_cyclotomic_coeffs(n)) if c})
