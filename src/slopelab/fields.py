"""Computable field scalars and the contexts that tie them together.

Three kinds of scalar are supported:

* :class:`RatFunc` -- reduced rational functions in the Laurent ring, the
  scalars of :class:`RationalFunctionField`;
* :class:`CyclotomicNumber` -- elements of Q[t]/Phi_N(t), the scalars of
  :class:`Cyclotomic`, stored as integer power-basis coordinates over one
  positive denominator with no common factor, so that equal numbers have
  equal storage; the inverse of x is the product of its other Galois
  conjugates divided by the norm N(x), a rational because every sigma_u
  fixes it, and that product is formed along a chain of subgroups of
  (Z/N)^* in O(log phi(N)) multiplications per step of the chain;
* plain ``complex`` -- the scalars of :class:`ApproxComplex`, where zero
  tests use the context tolerance and all results count as approximate.

Every scalar type implements the usual arithmetic operators, with integer
operands, and ``bool`` as exact nonzero-ness, so generic code (the linear
algebra in particular) only consults the context for its ``zero`` and
``one``, for ``from_int``, ``is_zero`` and ``invert``, and for
``is_exact`` (with ``tol`` when it is false).  Equality of exact scalars
is ``==``.
"""

from __future__ import annotations

import cmath
import os
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm

from .errors import UsageError
from .laurent import (
    LaurentPoly,
    _cyclotomic_coeffs,
    _div_term,
    _power,
    euler_phi,
    exact_div,
    poly_gcd,  # unused here, but slopebench/tracer.py binds fields:poly_gcd
    poly_gcds,
)

DEFAULT_TOLERANCE = 1e-10


def resolve_tolerance(tol=None):
    """The numeric zero tolerance: ``tol``, else SLOPELAB_TOL, else 1e-10.

    This is the one place a tolerance is read and checked: anything but a
    positive finite float (zero, a negative, nan, inf) is refused.
    """
    name = "tolerance"
    if tol is None:
        raw = os.environ.get("SLOPELAB_TOL")
        if raw is None:
            return DEFAULT_TOLERANCE
        try:
            tol = float(raw)
        except ValueError as exc:
            raise UsageError(f"SLOPELAB_TOL is not a float: {raw!r}") from exc
        name = "SLOPELAB_TOL"
    tol = float(tol)
    if not tol > 0:
        raise UsageError(f"{name} must be positive")
    if tol == inf:
        raise UsageError(f"{name} must be finite")
    return tol


# -- rational functions --------------------------------------------------------


class RatFunc:
    """A reduced rational function num/den of Laurent polynomials.

    The stored form is canonical: gcd(num, den) is a unit and the
    denominator's lex-leading term is the constant 1, so structural
    equality decides equality of rational functions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = LaurentPoly.one(num.num_vars)
        (num, den), = _reduce_fractions([num], den)
        self.num = num
        self.den = den

    @classmethod
    def _make(cls, num, den):
        """Wrap a pair already in the canonical reduced form."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def over(cls, nums, den):
        """[RatFunc(num, den) for num in nums], sharing the work on den."""
        return [cls._make(num, d) for num, d in _reduce_fractions(nums, den)]

    @classmethod
    def from_poly(cls, p):
        return cls._make(p, LaurentPoly.one(p.num_vars))

    @classmethod
    def const(cls, num_vars, c):
        return cls.from_poly(LaurentPoly.const(num_vars, c))

    @property
    def num_vars(self):
        return self.num.num_vars

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        # the canonical denominator's lex-leading term is the constant 1,
        # so it is 1 exactly when that is its only term
        return len(self.den.terms) == 1

    def __bool__(self):
        return not self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, LaurentPoly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.num_vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_polynomial() and other.is_polynomial():
            return RatFunc.from_poly(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._make(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_polynomial() and other.is_polynomial():
            return RatFunc.from_poly(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def invert(self):
        if self.is_zero():
            raise ZeroDivisionError("the zero rational function has no inverse")
        return RatFunc(self.den, self.num)

    def __pow__(self, exponent):
        return _power(self, exponent, RatFunc.const(self.num_vars, 1), RatFunc.invert)

    def subst_inverse(self):
        """The formal involution substituting every variable by its inverse."""
        return RatFunc(self.num.subst_inverse(), self.den.subst_inverse())

    def evaluate(self, values, zero=Fraction(0)):
        num = self.num.evaluate(values, zero)
        den = self.den.evaluate(values, zero)
        return num / den

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def render(self):
        num = self.num.render()
        if self.is_polynomial():
            return num
        return f"({num})/({self.den.render()})"

    def __repr__(self):
        return f"RatFunc({self.render()!r})"


def _reduce_fractions(nums, den):
    """The canonical reduced pair of each num / den.  den is prepared once
    for all the gcds (``laurent.poly_gcds``), and den / g is divided and
    unit-normalized once per distinct gcd g; a zero num needs no gcd."""
    if not isinstance(den, LaurentPoly) or not all(isinstance(x, LaurentPoly) for x in nums):
        raise UsageError("RatFunc expects LaurentPoly numerator and denominator")
    for num in nums:
        num._check_same(den)
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    n = den.num_vars
    gcds = iter(poly_gcds(den, [num for num in nums if num]))
    quotients = {}  # g: den / g's lex-leading term and den / g divided by it
    out = []
    for num in nums:
        if not num:
            out.append((LaurentPoly.zero(n), LaurentPoly.one(n)))
            continue
        g = next(gcds)
        if g not in quotients:
            d = den if g.is_constant() else exact_div(den, g)
            # unit-normalize in one pass: divide both by the lex-leading term
            e, c = d.lex_leading()
            quotients[g] = e, c, _div_term(d, e, c)
        e, c, d = quotients[g]
        if not g.is_constant():
            num = exact_div(num, g)
        out.append((_div_term(num, e, c), d))
    return out


# -- cyclotomic numbers --------------------------------------------------------


@lru_cache(maxsize=None)
def _phi_low_terms(conductor):
    """phi(N) and the nonzero terms (j, c) of Phi_N below its leading one."""
    phi = _cyclotomic_coeffs(conductor)
    deg = len(phi) - 1
    return deg, tuple((j, c) for j, c in enumerate(phi[:deg]) if c)


def _reduce_mod_phi(coeffs, conductor):
    """Remainder of a dense integer coefficient list modulo Phi_N.

    Phi_N divides t^N - 1, so t^i = t^(i mod N) modulo Phi_N: the list is
    first folded onto degrees below N, adding each coefficient of degree
    i >= N onto degree i mod N, and only degrees phi(N) .. N-1 are then
    cancelled with the nonzero lower terms of Phi_N (one degree for prime
    N).  Phi_N is monic with integer coefficients, so the remainder of an
    integer list stays integral.
    """
    deg, low = _phi_low_terms(conductor)
    out = list(coeffs[:conductor])
    for i in range(conductor, len(coeffs)):
        out[i % conductor] += coeffs[i]
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        if c:
            for j, p in low:
                out[i - deg + j] -= c * p
    del out[deg:]
    return out + [0] * (deg - len(out))


def _product(a, b):
    """The unreduced product of two coefficient lists, skipping zero terms."""
    prod = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                prod[i + j] += x * y
    return prod


def _times(a, b, conductor):
    """The product of two coordinate lists, reduced modulo Phi_N."""
    return _reduce_mod_phi(_product(a, b), conductor)


@lru_cache(maxsize=None)
def _galois_chain(conductor):
    """Steps (g, m) of a subgroup chain {1} = H_0 < H_1 < ... = (Z/N)^*.

    g is the least unit outside H_i and m the least exponent with g^m in
    H_i, so H_(i+1) = <H_i, g> is the disjoint union of the cosets g^j H_i
    for 0 <= j < m.
    """
    group = {1}
    chain = []
    for g in range(2, conductor):
        if gcd(g, conductor) != 1 or g in group:
            continue
        m, power = 1, g
        while power not in group:
            m, power = m + 1, power * g % conductor
        group = {h * pow(g, j, conductor) % conductor for h in group for j in range(m)}
        chain.append((g, m))
    return tuple(chain)


def _galois_coords(num, k, conductor):
    """The coordinates of sigma_k(x), t -> t^k (k coprime to N), for x with
    coordinates num."""
    coeffs = [0] * conductor
    for j, c in enumerate(num):
        if c:
            coeffs[j * k % conductor] += c
    return _reduce_mod_phi(coeffs, conductor)


def _adjugate(num, conductor):
    """(adj, norm) for the nonzero x with integer coordinates num: integer
    coordinates adj and an integer norm > 0 with x adj = norm, so that
    x^-1 = adj / norm.

    adj is the product of the Galois conjugates sigma_u(x), u != 1, formed
    along ``_galois_chain`` as ``CyclotomicNumber``'s docstring describes,
    every product an integer list reduced modulo Phi_N and nothing brought
    to lowest terms; norm is then N(x).  A one-term x = c t^j (every x
    when N is 1 or 2) skips the chain: adj = +-zeta^(-j) and norm = |c|.
    Any other x has two terms, so phi(N) >= 2 and N >= 3, where the
    conjugates come in complex conjugate pairs and N(x), the product of
    |sigma_u(x)|^2 over one u of each pair, is positive.
    """
    n = conductor
    terms = [j for j, c in enumerate(num) if c]
    if len(terms) == 1:
        j = terms[0]
        c = num[j]
        coeffs = [0] * n
        coeffs[-j % n] = 1 if c > 0 else -1
        return _reduce_mod_phi(coeffs, n), abs(c)
    # invariant: y is the product of sigma_h(x) over the subgroup H reached
    # so far, and x * others == y (others None standing for 1)
    y, others = num, None
    for g, m in _galois_chain(n):
        # p = P(a) = prod_{j < a} sigma_{g^j}(y), built up to a = m - 1 by
        # doubling, P(2a) = P(a) sigma_{g^a}(P(a)), and by one more factor,
        # P(a + 1) = P(a) sigma_{g^a}(y)
        p, a = y, 1
        for bit in bin(m - 1)[3:]:
            p, a = _times(p, _galois_coords(p, pow(g, a, n), n), n), 2 * a
            if bit == "1":
                p, a = _times(p, _galois_coords(y, pow(g, a, n), n), n), a + 1
        r = _galois_coords(p, g, n)
        others = r if others is None else _times(others, r, n)
        y = _times(y, r, n)
    # y is now the norm, fixed by every sigma_u, so a rational: y[0]
    return others, y[0]


@lru_cache(maxsize=None)
def _pi_bounds(q):
    """Integers lo <= pi * 2^q <= hi, from pi = 16 atan(1/5) - 4 atan(1/239).

    atan(1/x) 2^q is summed as sum_k (-1)^k floor(p_k / (2k + 1)), where
    p_k = floor(p_(k-1) / x^2) is within 2 of 2^q / x^(2k+1), so each term
    is within 3 of its true value; the loop ends when p_k = 0, where the
    alternating tail is below 2.  After k terms the error is below 3k + 3.
    """

    def atan_inv(x):
        total, power, k = 0, (1 << q) // x, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k & 1 else term
            power //= x * x
            k += 1
        return total, 3 * k + 3

    s5, e5 = atan_inv(5)
    s239, e239 = atan_inv(239)
    mid, err = 16 * s5 - 4 * s239, 16 * e5 + 4 * e239
    return mid - err, mid + err


@lru_cache(maxsize=None)
def _cos_bounds(conductor, q):
    """Integer pairs lo <= cos(2 pi j / N) 2^q <= hi for 0 <= j < phi(N).

    Interval arithmetic on integers at scale 2^q, every rounding outward.
    With j' = min(j, N - j) the angle x = 2 pi j' / N lies in [0, pi], and
    its enclosure comes from ``_pi_bounds``.  The Taylor terms
    x^(2k) / (2k)! are enclosed from their predecessors; the series stops
    at the first term whose upper bound is at most one unit, and the
    Lagrange remainder, at most that term, widens the enclosure by it.
    """
    pi_lo, pi_hi = _pi_bounds(q)
    one = 1 << q
    out = []
    for j in range(euler_phi(conductor)):
        j = min(j, conductor - j)
        x_lo = 2 * j * pi_lo // conductor
        x_hi = -(-2 * j * pi_hi // conductor)
        sq_lo, sq_hi = (x_lo * x_lo) >> q, -((-x_hi * x_hi) >> q)
        lo = hi = 0
        t_lo = t_hi = one
        k = 0
        while True:
            if k & 1:
                lo, hi = lo - t_hi, hi - t_lo
            else:
                lo, hi = lo + t_lo, hi + t_hi
            k += 1
            step = (2 * k - 1) * 2 * k
            t_lo = ((t_lo * sq_lo) >> q) // step
            t_hi = -(-t_hi * sq_hi // (step << q))
            if t_hi <= 1:
                break
        out.append((lo - t_hi, hi + t_hi))
    return tuple(out)


class CyclotomicNumber:
    """An element of the cyclotomic field Q(zeta_N), N the conductor.

    The element is num/den: ``num`` holds integer coordinates on the power
    basis 1, t, ..., t^(phi(N)-1) of Q[t]/Phi_N(t) and ``den`` is a
    positive integer with gcd(den, num) = 1.  That form is canonical, so
    equal numbers have equal storage and ``==``/``hash`` are structural.
    ``coords`` gives the rational coordinates num_i/den.  The complex
    embedding sends t to exp(2*pi*i/N).

    The inverse is the product of the other Galois conjugates over the
    norm: the norm is fixed by every sigma_u, hence rational.  The product
    is formed along the chain {1} = H_0 < H_1 < ... = (Z/N)^* of
    ``_galois_chain``.  If y = prod over h in H_i of sigma_h(x) and
    H_(i+1) is the disjoint union of the cosets g^j H_i, 0 <= j < m, then
    prod over j < m of sigma_(g^j)(y) is the product over H_(i+1), each
    unit counted once; its m - 1 factors with j >= 1 come from an
    addition chain of O(log m) products.  After the last step y is the
    norm.  One-term elements (c/d) t^j skip all this: their inverse is
    (d/c) zeta^(-j).  ``invert`` runs the chain on the integer coordinates
    num (``_adjugate``), with no product brought to lowest terms, and
    brings only the inverse den adj / norm to them.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor, coords):
        conductor = int(conductor)
        if conductor < 1:
            raise UsageError("conductor must be a positive integer")
        deg = euler_phi(conductor)
        coords = [Fraction(c) for c in coords]
        if len(coords) != deg:
            raise UsageError(f"expected {deg} coordinates for conductor {conductor}")
        den = lcm(*(c.denominator for c in coords))
        self.conductor = conductor
        self._set([c.numerator * (den // c.denominator) for c in coords], den)

    def _set(self, num, den):
        """Store num/den in lowest terms; den must be positive."""
        g = gcd(den, *num)
        if g == 1:
            self.num = tuple(num)
            self.den = den
        else:
            self.num = tuple(c // g for c in num)
            self.den = den // g

    @classmethod
    def _from_ints(cls, conductor, num, den=1):
        """num/den from phi(N) integer coordinates and a positive integer."""
        out = cls.__new__(cls)
        out.conductor = conductor
        out._set(num, den)
        return out

    @classmethod
    def zero(cls, conductor):
        return cls.from_fraction(conductor, 0)

    @classmethod
    def one(cls, conductor):
        return cls.from_fraction(conductor, 1)

    @classmethod
    def from_fraction(cls, conductor, q):
        q = Fraction(q)
        num = [0] * euler_phi(conductor)
        num[0] = q.numerator
        return cls._from_ints(conductor, num, q.denominator)

    @classmethod
    def zeta_pow(cls, conductor, k):
        """The root-of-unity power zeta_N^k."""
        k = int(k) % conductor
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        return cls._from_ints(conductor, _reduce_mod_phi(coeffs, conductor))

    @property
    def coords(self):
        """The rational coordinates on the power basis."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _check_same(self, other):
        if self.conductor != other.conductor:
            raise UsageError(
                f"mixed conductors: {self.conductor} vs {other.conductor}"
            )

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            self._check_same(other)
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_fraction(self.conductor, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        num = [a * fa + b * fb for a, b in zip(self.num, other.num)]
        return CyclotomicNumber._from_ints(self.conductor, num, den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._from_ints(self.conductor, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            num = [c * q.numerator for c in self.num]
            return CyclotomicNumber._from_ints(self.conductor, num, self.den * q.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        num = _times(self.num, other.num, self.conductor)
        return CyclotomicNumber._from_ints(self.conductor, num, self.den * other.den)

    __rmul__ = __mul__

    def sub_mul(self, f, y):
        """self - f * y, with one reduction and one canonicalization.

        Equal to ``self - f * y``, which forms f * y, its negative and the
        sum, each reduced to lowest terms.  Here f * y stays an unreduced
        product over the common denominator of self and f * y; the
        coordinates of self (all below degree phi(N)) are added to it, so
        one reduction modulo Phi_N and one gcd make the result.  A zero f
        or y returns self.
        """
        if not f.conductor == y.conductor == self.conductor:
            self._check_same(f)
            self._check_same(y)
        if not (any(f.num) and any(y.num)):
            return self
        fy_den = f.den * y.den
        den = lcm(self.den, fy_den)
        a = den // self.den
        b = den // fy_den
        acc = _product([-b * c for c in f.num], y.num)
        for i, c in enumerate(self.num):
            if c:
                acc[i] += a * c
        return CyclotomicNumber._from_ints(
            self.conductor, _reduce_mod_phi(acc, self.conductor), den
        )

    def invert(self):
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        # (num / den)^-1 = den adj / norm
        adj, norm = _adjugate(self.num, self.conductor)
        return CyclotomicNumber._from_ints(self.conductor, [self.den * c for c in adj], norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __pow__(self, exponent):
        return _power(
            self, exponent, CyclotomicNumber.one(self.conductor), CyclotomicNumber.invert
        )

    def galois(self, k):
        """Apply the substitution t -> t^k (k coprime to the conductor)."""
        n = self.conductor
        return CyclotomicNumber._from_ints(n, _galois_coords(self.num, k, n), self.den)

    def conjugate(self):
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    def sign(self):
        """The sign (1, -1 or 0) of a real element, certified.

        The element is real when it equals its complex conjugate, and its
        value is then S / den with S = sum_j a_j cos(2 pi j / N) over the
        integer coordinates a_j and den > 0, so the sign is that of S.

        S is enclosed in integer interval arithmetic at scale 2^q for
        q = 64, 128, 256, ... (``_cos_bounds``: pi from Machin's formula with
        bounded truncation errors, cos from its Taylor series with the
        Lagrange remainder, every rounding outward).  With A = sum_j |a_j|,
        the enclosure of 2^q S is at most O(q A) units wide while 2^q |S|
        grows as 2^q, and S != 0, so some q separates it from 0 and the loop
        ends.
        """
        if self != self.conjugate():
            raise UsageError("the sign of a non-real cyclotomic number")
        if not any(self.num):
            return 0
        n = self.conductor
        q = 64
        while True:
            lo = hi = 0
            for a, (c_lo, c_hi) in zip(self.num, _cos_bounds(n, q)):
                if a > 0:
                    lo, hi = lo + a * c_lo, hi + a * c_hi
                elif a < 0:
                    lo, hi = lo + a * c_hi, hi + a * c_lo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            q *= 2

    def to_complex(self):
        # through Fraction: num_i and den may each be too large for a float
        zeta = cmath.exp(2j * cmath.pi / self.conductor)
        total = 0j
        for c in reversed(self.coords):
            total = total * zeta + complex(c)
        return total

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_fraction(self.conductor, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return (self.conductor, self.num, self.den) == (other.conductor, other.num, other.den)

    def __hash__(self):
        return hash((self.conductor, self.num, self.den))

    def render(self):
        poly = LaurentPoly(1, {(i,): c for i, c in enumerate(self.coords) if c})
        return poly.render(names=["z"])

    def __repr__(self):
        return f"CyclotomicNumber(N={self.conductor}, {self.render()!r})"


# -- field contexts ------------------------------------------------------------


class RationalFunctionField:
    """The field of rational functions in num_vars Laurent variables."""

    is_exact = True

    def __init__(self, num_vars):
        self.num_vars = int(num_vars)
        self.zero = RatFunc.const(self.num_vars, 0)
        self.one = RatFunc.const(self.num_vars, 1)

    def variables(self):
        return [
            RatFunc.from_poly(LaurentPoly.var(self.num_vars, i))
            for i in range(self.num_vars)
        ]

    def from_int(self, k):
        return RatFunc.const(self.num_vars, k)

    def is_zero(self, x):
        return x.is_zero()

    def invert(self, x):
        return x.invert()

    def __repr__(self):
        return f"RationalFunctionField(mu={self.num_vars})"


class Cyclotomic:
    """The cyclotomic field Q(zeta_N); N = 1 gives plain rationals."""

    is_exact = True

    def __init__(self, conductor):
        self.conductor = int(conductor)
        if self.conductor < 1:
            raise UsageError("conductor must be a positive integer")
        self.zero = CyclotomicNumber.zero(self.conductor)
        self.one = CyclotomicNumber.one(self.conductor)

    def zeta(self, k=1):
        return CyclotomicNumber.zeta_pow(self.conductor, k)

    def from_int(self, k):
        return CyclotomicNumber.from_fraction(self.conductor, k)

    def is_zero(self, x):
        return x.is_zero()

    def invert(self, x):
        return x.invert()

    def __repr__(self):
        return f"Cyclotomic(N={self.conductor})"


class ApproxComplex:
    """Double-precision complex numbers with an explicit zero tolerance.

    Every rank or membership decision taken in this context is flagged
    approximate by downstream code.
    """

    is_exact = False

    def __init__(self, tol=None):
        self.tol = resolve_tolerance(tol)
        self.zero = 0j
        self.one = 1 + 0j

    def from_int(self, k):
        return complex(k)

    def is_zero(self, x):
        return abs(x) <= self.tol

    def invert(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("inverting a numerically zero value")
        return 1 / x

    def __repr__(self):
        return f"ApproxComplex(tol={self.tol})"


def format_complex(z):
    # adding 0.0 turns a negative zero into 0.0 and leaves every other value
    re, im = z.real + 0.0, z.imag + 0.0
    if im == 0:
        return f"{re:.12g}"
    sign = "+" if im >= 0 else "-"
    return f"{re:.12g}{sign}{abs(im):.12g}i"
