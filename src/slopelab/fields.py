"""Computable field scalars and the contexts that tie them together.

Three kinds of scalar are supported:

* :class:`RatFunc` -- reduced rational functions in the Laurent ring, the
  scalars of :class:`RationalFunctionField`;
* :class:`CyclotomicNumber` -- elements of Q[t]/Phi_N(t), the scalars of
  :class:`Cyclotomic`, stored as integer power-basis coordinates over one
  positive denominator with no common factor, so that equal numbers have
  equal storage; the inverse of x is the product of its other Galois
  conjugates divided by the norm N(x), a rational because every sigma_u
  fixes it;
* plain ``complex`` -- the scalars of :class:`ApproxComplex`, where zero
  tests use the context tolerance and all results count as approximate.

Every scalar type implements the usual arithmetic operators, so generic
code (the linear algebra in particular) only consults the context for its
``zero`` and ``one`` and for ``from_int``, ``is_zero``, ``invert``, ``eq``
and ``conjugate``.
"""

from __future__ import annotations

import cmath
import os
from fractions import Fraction
from math import gcd, lcm

from .errors import UsageError
from .laurent import (
    LaurentPoly,
    _cyclotomic_coeffs,
    _power,
    euler_phi,
    exact_div,
    poly_gcd,
)

DEFAULT_TOLERANCE = 1e-10


def default_tolerance():
    """The numeric zero tolerance, overridable via SLOPELAB_TOL."""
    raw = os.environ.get("SLOPELAB_TOL")
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        tol = float(raw)
    except ValueError as exc:
        raise UsageError(f"SLOPELAB_TOL is not a float: {raw!r}") from exc
    if tol <= 0:
        raise UsageError("SLOPELAB_TOL must be positive")
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
        num, den = _reduce_fraction(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p):
        out = cls.__new__(cls)
        out.num = p
        out.den = LaurentPoly.one(p.num_vars)
        return out

    @classmethod
    def const(cls, num_vars, c):
        return cls.from_poly(LaurentPoly.const(num_vars, c))

    @property
    def num_vars(self):
        return self.num.num_vars

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den == LaurentPoly.one(self.num_vars)

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
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

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

    def render(self, names=None, prefix="w", start=1):
        num = self.num.render(names, prefix, start)
        if self.is_polynomial():
            return num
        return f"({num})/({self.den.render(names, prefix, start)})"

    def __repr__(self):
        return f"RatFunc({self.render()!r})"


def _reduce_fraction(num, den):
    if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
        raise UsageError("RatFunc expects LaurentPoly numerator and denominator")
    num._check_same(den)
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return LaurentPoly.zero(num.num_vars), LaurentPoly.one(num.num_vars)
    g = poly_gcd(num, den)
    if not g.is_constant():
        num = exact_div(num, g)
        den = exact_div(den, g)
    # unit-normalize: make the denominator's lex-leading term the constant 1
    e, c = den.lex_leading()
    e = tuple(-x for x in e)
    num, den = num.shift(e), den.shift(e)
    if c != 1:
        inv = Fraction(1) / c
        num, den = num * inv, den * inv
    return num, den


# -- cyclotomic numbers --------------------------------------------------------


def _reduce_mod_phi(coeffs, conductor):
    """Remainder of a dense integer coefficient list modulo Phi_N.

    Phi_N is monic with integer coefficients, so the remainder of an
    integer list stays integral.
    """
    phi = _cyclotomic_coeffs(conductor)
    deg = len(phi) - 1
    low = [(j, p) for j, p in enumerate(phi[:deg]) if p]
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j, p in low:
                coeffs[i - deg + j] -= c * p
    coeffs = coeffs[:deg]
    return coeffs + [0] * (deg - len(coeffs))


class CyclotomicNumber:
    """An element of the cyclotomic field Q(zeta_N), N the conductor.

    The element is num/den: ``num`` holds integer coordinates on the power
    basis 1, t, ..., t^(phi(N)-1) of Q[t]/Phi_N(t) and ``den`` is a
    positive integer with gcd(den, num) = 1.  That form is canonical, so
    equal numbers have equal storage and ``==``/``hash`` are structural.
    ``coords`` gives the rational coordinates num_i/den.  The complex
    embedding sends t to exp(2*pi*i/N).

    The inverse is the product of the other Galois conjugates over the
    norm: the norm is fixed by every sigma_u, hence rational.
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
        n = len(self.num)
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.num):
            if not a:
                continue
            for j, b in enumerate(other.num):
                if b:
                    prod[i + j] += a * b
        num = _reduce_mod_phi(prod, self.conductor)
        return CyclotomicNumber._from_ints(self.conductor, num, self.den * other.den)

    __rmul__ = __mul__

    def invert(self):
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        n = self.conductor
        others = CyclotomicNumber.one(n)
        for u in range(2, n):
            if gcd(u, n) == 1:
                others = others * self.galois(u)
        # the norm is fixed by every sigma_u, so it is a nonzero rational
        norm = self * others
        return others * Fraction(norm.den, norm.num[0])

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
        coeffs = [0] * n
        for j, c in enumerate(self.num):
            if c:
                coeffs[(j * k) % n] += c
        return CyclotomicNumber._from_ints(n, _reduce_mod_phi(coeffs, n), self.den)

    def conjugate(self):
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

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

    def __init__(self, num_vars, prefix="w", start=1):
        self.num_vars = int(num_vars)
        self.prefix = prefix
        self.start = start
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

    def eq(self, a, b):
        return a == b

    def conjugate(self, x):
        # formal involution w -> w^-1, the adjoint-side substitution
        return x.subst_inverse()

    def render_scalar(self, x):
        return x.render(prefix=self.prefix, start=self.start)

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

    def eq(self, a, b):
        return a == b

    def conjugate(self, x):
        return x.conjugate()

    def render_scalar(self, x):
        return x.render()

    def __repr__(self):
        return f"Cyclotomic(N={self.conductor})"


class ApproxComplex:
    """Double-precision complex numbers with an explicit zero tolerance.

    Every rank or membership decision taken in this context is flagged
    approximate by downstream code.
    """

    is_exact = False

    def __init__(self, tol=None):
        self.tol = default_tolerance() if tol is None else float(tol)
        if self.tol <= 0:
            raise UsageError("tolerance must be positive")
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

    def eq(self, a, b):
        return abs(a - b) <= self.tol

    def conjugate(self, x):
        return x.conjugate()

    def render_scalar(self, x):
        return format_complex(x)

    def __repr__(self):
        return f"ApproxComplex(tol={self.tol})"


def format_complex(z):
    re, im = z.real, z.imag
    if im == 0:
        return f"{re:.12g}"
    sign = "+" if im >= 0 else "-"
    return f"{re:.12g}{sign}{abs(im):.12g}i"
