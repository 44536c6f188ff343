"""Multivariate Laurent polynomials with exact rational coefficients.

A polynomial is stored sparsely as a map from integer exponent vectors
(entries may be negative) to nonzero exact coefficients, each an ``int``
or a :class:`~fractions.Fraction`; no coefficient is ever a float.  An
``int`` and a ``Fraction`` of equal value compare and hash equal, so two
polynomials are equal in the ring exactly when their stored term maps are
equal, whichever type holds an integral value.  Polynomials built from
integer data (the theta matrices, Bareiss rows, subresultant remainders)
run on ``int`` arithmetic throughout, and every division stays exact.

The module also provides the polynomial gcd that keeps rational functions
reduced, and cyclotomic polynomials.  ``poly_gcds`` takes the gcds of one
prepared operand d with many others, and ``poly_gcd`` is its one-operand
case.  d is normalized once, and w_v - 1 and w_v + 1 are divided out of
it once for each of its variables, by synthetic division, as often as
each divides (w_v - s divides exactly when the operand vanishes at
w_v = s).  Each other operand is normalized (equal operands are their
own gcd), the same factors are divided out of it at most as often as
out of d, and that lesser power is kept as a factor of the gcd: w_v - s
is irreducible, so unique factorization gives that power.  The stripped
pair goes to a modular front end: one image of the pair modulo the prime
2^61 - 1 per shared variable, taken where d's leading coefficient in that
variable survives, bounds the degree of the gcd in that variable (Gauss's
lemma), and a nonzero bound is retried at the next points, keeping the
least (the images of d are taken once); all-zero bounds prove the gcd is
1, and bounds equal to one operand's degrees make that operand the
candidate, accepted only if it divides the other exactly.  Everything
else goes to the recursive content/primitive-part gcd with a
subresultant remainder sequence in the main variable, which also serves
the tests as the oracle.  The full proof is in the ``poly_gcds`` docstring.

``kronecker_pack`` and ``kronecker_unpack`` map an integer polynomial with
exponents in a box to its Kronecker image, one Python integer, and back:
packing sums each coefficient shifted to its position, and unpacking reads
every balanced digit from one ``int.to_bytes``, in time linear in the
image's size.  The fraction-free elimination in ``linalg`` runs on these
images.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from operator import add, lt, mul, sub

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
    or a ``Fraction``.  The constructor, scalar multiples, ``exact_div``
    and ``normalize_poly`` store integral values as ``int``; a sum,
    difference or product of two polynomials keeps a ``Fraction`` whose
    value came out integral, such as ``Fraction(1, 1)``.
    Equal values of the two types compare and hash equal, so ``==`` and
    ``hash`` do not see the difference.
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
    def var(cls, num_vars, index):
        if not 0 <= index < num_vars:
            raise UsageError(f"variable index {index} out of range for {num_vars} variables")
        e = [0] * num_vars
        e[index] = 1
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
        return tuple(map(min, zip(*self.terms)))

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
        get = terms.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = get(e, 0) + c1 * c2
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
            self.num_vars, {tuple(map(add, e, exps)): c for e, c in self.terms.items()}
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

    def render(self, names=None):
        """Canonical text form: terms in ascending lex exponent order."""
        if names is None:
            names = [f"w{i}" for i in range(1, self.num_vars + 1)]
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
    """Exact quotient p/d in the Laurent ring.  Raises if d does not divide p.

    The division runs on the Laurent exponents directly.  If p = q d, then
    per variable the quotient's minimum exponent is min(p) - min(d): the
    parts of q and d of lowest degree in that variable multiply to the part
    of p of lowest degree, and over an integral domain that product is not
    zero.  So the lex-leading terms are cancelled in place
    (``_quotient_terms``), and a quotient exponent below that bound proves
    d does not divide p.  Shifting both operands to ordinary polynomials
    first is an order-preserving bijection of the exponents that maps this
    bound to zero, so division there raises in the same cases and gives the
    same quotient.  A one-term divisor is a shift and a coefficient
    division.
    """
    if not isinstance(p, LaurentPoly) or not isinstance(d, LaurentPoly):
        raise UsageError("exact_div expects LaurentPoly operands")
    p._check_same(d)
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero(p.num_vars)
    if len(d.terms) == 1:
        (de, dc), = d.terms.items()
        return _div_term(p, de, dc)
    bound = tuple(map(sub, p.min_exps(), d.min_exps()))
    return LaurentPoly._make(p.num_vars, _quotient_terms(p.terms, d.terms, bound))


def _div_term(p, de, dc):
    """p divided by the one-term polynomial dc * w^de: a shift and a
    coefficient division, so integral values stay ``int``."""
    return LaurentPoly._make(
        p.num_vars, {tuple(map(sub, e, de)): _coeff_quo(c, dc) for e, c in p.terms.items()}
    )


def _coeff_quo(c, lead_c):
    """c / lead_c as an exact coefficient: an ``int`` when integral."""
    if type(c) is int and type(lead_c) is int:
        qc, r = divmod(c, lead_c)
        return Fraction(c, lead_c) if r else qc
    return _as_coeff(c / lead_c)


def _quotient_terms(p_terms, d_terms, bound):
    """The term map of p/d by repeated cancellation of the lex-leading term,
    raising ``ArithmeticError`` when a quotient exponent falls below
    ``bound`` in some variable (see ``exact_div``)."""
    lead_e = max(d_terms)
    lead_c = d_terms[lead_e]
    # the leading term of the remainder cancels exactly, so only the other
    # terms of d are subtracted
    rest = [(e, c) for e, c in d_terms.items() if e != lead_e]
    rem = dict(p_terms)
    get = rem.get
    q = {}
    while rem:
        e = max(rem)
        qe = tuple(map(sub, e, lead_e))
        if any(map(lt, qe, bound)):
            raise ArithmeticError("inexact polynomial division")
        qc = _coeff_quo(rem.pop(e), lead_c)
        # the leading exponent of rem strictly decreases, so each qe is new
        q[qe] = qc
        for ee, cc in rest:
            key = tuple(map(add, qe, ee))
            s = get(key, 0) - qc * cc
            if s:
                rem[key] = s
            elif key in rem:
                del rem[key]
    return q


# -- Kronecker images ---------------------------------------------------------


def _place_values(radix):
    """The mixed-radix place values s_v = radix_1 * ... * radix_(v-1)."""
    out, s = [], 1
    for r in radix:
        out.append(s)
        s *= r
    return out


def kronecker_pack(p, radix, width):
    """The Kronecker image of p: p evaluated at w_v = 2^(8 width s_v), s_v
    the mixed-radix place values of ``radix``.

    p must have integer coefficients of absolute value below
    2^(8 width - 1) and exponents in [0, radix_v) in each variable v.  A
    term c w^e is then one balanced digit c of ``width`` bytes at position
    sum e_v s_v, distinct terms taking distinct positions, and the image is
    the sum of the terms' c shifted left by 8 width times their positions.
    Each addition is linear in the image's size, which suits the few terms
    of the entries that ``linalg`` packs.
    """
    shifts = [8 * width * s for s in _place_values(radix)]
    return sum(c << sum(map(mul, e, shifts)) for e, c in p.terms.items())


def kronecker_unpack(k, radix, width):
    """The polynomial whose Kronecker image (``kronecker_pack``) is k.

    Read k as balanced digits of ``width`` bytes: adding the half digit
    h = 2^(8 width - 1) at every position moves each digit c into
    [0, 2^(8 width)) with no carry between positions, so one
    ``int.to_bytes`` gives every c + h.  A nonzero top digit at position t
    makes |k| > 2^(8 width t - 1) (the digits below sum to less than half
    a unit of position t), so bit_length(|k|) // (8 width) + 1 positions
    hold every digit.  Position sum e_v s_v is read back as the exponent
    vector e, and the digits are unique (see ``_echelon_fraction_free`` in
    ``linalg``), so this inverts ``kronecker_pack`` on its domain.
    """
    n = len(radix)
    if not k:
        return LaurentPoly.zero(n)
    half = 1 << (8 * width - 1)
    count = abs(k).bit_length() // (8 * width) + 1
    zero_digit = half.to_bytes(width, "little")
    data = (k + int.from_bytes(zero_digit * count, "little")).to_bytes(count * width, "little")
    terms = {}
    for pos in range(count):
        digit = data[pos * width:(pos + 1) * width]
        if digit != zero_digit:
            exps, rest = [], pos
            for r in radix:
                rest, e = divmod(rest, r)
                exps.append(e)
            terms[tuple(exps)] = int.from_bytes(digit, "little") - half
    return LaurentPoly._make(n, terms)


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
    if g == 1 and all(type(c) is int for c in p.terms.values()):
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
    ca, pa = _content_primitive(a, v)
    cb, pb = _content_primitive(b, v)
    return _gcd_rec(ca, cb) * _subresultant(pa, pb, v)


_P = (1 << 61) - 1  # the prime the front end of poly_gcd takes images modulo
_POINTS_TRIED = 3  # evaluation points per variable before giving up on an image


def _image(p, v, point):
    """p mod _P with every variable but v fixed at ``point``: dense, low to high."""
    dense = [0] * (_deg_in(p, v) + 1)
    for e, c in p.terms.items():
        for i, k in enumerate(e):
            if k and i != v:
                c *= pow(point[i], k, _P)
        dense[e[v]] += c
    return [c % _P for c in dense]


def _image_gcd_degree(a, b, v, retry, images=None):
    """An upper bound on deg_v gcd(a, b): deg_v of gcd(a, b) mod _P with the
    other variables fixed at a point of small integers where lc_v(a)
    survives, the least over the points tried.  The points after the first
    usable one are tried only with ``retry`` and only while the bound is
    above 0.  None when no point tried is usable.  ``images`` keeps the
    images of a by (v, attempt), for a divisor shared by many calls.
    """
    n = a.num_vars
    images = {} if images is None else images
    least = None
    for attempt in range(_POINTS_TRIED):
        point = range(2 + attempt * n, 2 + (attempt + 1) * n)
        key = (v, attempt)
        if key not in images:
            images[key] = _image(a, v, point)
        x = list(images[key])
        if not x[-1]:
            continue
        y = _image(b, v, point)
        while y and not y[-1]:
            y.pop()
        while y:  # Euclid over F_p; x and y carry no zero leading entries
            inv = pow(y[-1], -1, _P)
            while len(x) >= len(y):
                f = x[-1] * inv % _P
                off = len(x) - len(y)
                for i in range(len(y) - 1):
                    x[off + i] = (x[off + i] - f * y[i]) % _P
                x.pop()
                while x and not x[-1]:
                    x.pop()
            x, y = y, x
        if least is None or len(x) - 1 < least:
            least = len(x) - 1
        if not retry or not least:
            break
    return least


def _divide_out_linear(p, v, s, most=None):
    """(q, k): p = (w_v - s)^k q with k as large as possible, but at most
    ``most``, for s = 1 or -1.  w_v - s divides p iff p vanishes at
    w_v = s, i.e. every class of terms that agree off v has
    sum_j c_j s^j = 0; the quotient is then found by synthetic division in
    each class, from the lowest degree up: q_j = s (q_(j-1) - c_j), as
    1 / s = s.  The sum over all classes is checked first: when it is not
    zero, some class does not vanish."""
    odd = s == -1  # negate the coefficients of odd degree in v
    if sum(-c if odd and e[v] & 1 else c for e, c in p.terms.items()):
        return p, 0
    classes = {}
    for e, c in p.terms.items():
        classes.setdefault(e[:v] + e[v + 1:], {})[e[v]] = c
    k = 0
    while k != most and not any(
        sum(-c if odd and j & 1 else c for j, c in col.items()) for col in classes.values()
    ):
        for rest, col in classes.items():
            quo = {}
            acc = 0
            for j in range(min(col), max(col)):
                acc = s * (acc - col.get(j, 0))
                if acc:
                    quo[j] = acc
            classes[rest] = quo
        k += 1
    if not k:
        return p, 0
    terms = {rest[:v] + (j,) + rest[v:]: c for rest, col in classes.items() for j, c in col.items()}
    return LaurentPoly._make(p.num_vars, terms), k


def poly_gcd(p, q):
    """Gcd up to units, as a normalized polynomial (see normalize_poly):
    the one-operand case of ``poly_gcds``, with p the prepared operand."""
    return poly_gcds(p, [q])[0]


def poly_gcds(d, ps):
    """[poly_gcd(d, p) for p in ps], each normalized (see normalize_poly),
    with d prepared once for all of them: normalized, stripped of its
    linear factors, and its images kept.

    Known linear factors are divided out and a modular front end answers
    most gcds without the subresultant (``_gcd_rec``), which stays the
    only fallback.  Let a be d normalized, b an operand p normalized, and
    g the normalized gcd of a and b.

    * A zero operand: g = a (a zero d gives each b).  Equal operands:
      g = a.
    * Strip w_v - s, s = 1 then s = -1, for each variable v of a: divide it
      out of a as often as it divides (k_a times, once for all operands),
      then out of b at most k_a times (k_b times), and g = (w_v - s)^k_b
      times the gcd of the stripped pair.  Proof: w_v - s is irreducible
      and primitive, so by unique factorization in Z[w] it divides g
      exactly min(k_a, k_b) = k_b times.  The stripped a has no factor
      w_v - s, so the gcd of the stripped pair is also the gcd of the
      stripped a and b with every w_v - s divided out: the powers of
      w_v - s left in b do not change it.  The two factors are coprime,
      so stripping one leaves the power of the other in each operand as it
      was, and a variable of a that b lacks divides no factor out of b (b
      does not vanish at w_v = s).  Stripping keeps an operand normalized:
      the minimum exponents stay 0 (w_v - s has a constant term), the
      quotient is primitive by Gauss's lemma, and the lex-leading
      coefficient is unchanged, the lex-leading term of w_v - s being w_v.
      A product of normalized polynomials is normalized, so the result is
      the normalized g.  The stripped pair goes on to the next steps, and
      a constant operand gives 1.
    * For each variable v active in both, fix the other variables at small
      integers where lc_v(a), the leading coefficient of a in v, is nonzero
      modulo the prime p = 2^61 - 1, and take the degree d_v of the gcd of
      the two images in F_p[v].  Then deg_v g <= d_v.  Proof: g is
      primitive and divides a over Q, so by Gauss's lemma a = g h with h
      integral; lc_v(a) = lc_v(g) lc_v(h), so lc_v(g) does not vanish at
      the point modulo p and the image of g keeps its degree in v.  The
      image of g divides both images, hence their gcd.  A variable active
      in only one operand does not occur in g (g divides the other).  So
      d_v = 0 for every shared v proves g = 1.  While d_v > 0 and the
      operands involve another variable, the next points are tried and the
      least d_v is kept: each is an upper bound, so the least one is too
      (with no other variable every point gives the same image).  The
      images of the stripped a are taken once per variable and point.
    * If d_v = deg_v b for every v and b has no variable a lacks, b is the
      only candidate the bounds leave, and it is tried by exact division
      of a; likewise a.  The division alone is the proof: b | a and b | b
      make b a common divisor, and every common divisor divides b, so b is
      the gcd; being normalized, it is the normalized gcd.

    Anything else (a shared d_v that matches neither operand, no point
    where lc_v(a) survives, an inexact division) falls through to
    ``_gcd_rec``.  The normalized gcd is unique, so every path, and every
    choice of which operand is prepared, returns the same polynomial.
    Nothing is prepared when ``ps`` is empty.
    """
    if not isinstance(d, LaurentPoly) or not all(isinstance(p, LaurentPoly) for p in ps):
        raise UsageError("poly_gcd expects LaurentPoly operands")
    for p in ps:
        d._check_same(p)
    if not ps:
        return []
    if d.is_zero():
        return [normalize_poly(p) for p in ps]
    n = d.num_vars
    a = stripped = normalize_poly(d)
    linear = []  # (v, s, k_a)
    for v in sorted(a.active_vars()):
        for s in (1, -1):
            stripped, k = _divide_out_linear(stripped, v, s)
            if k:
                linear.append((v, s, k))
    images = {}
    out = []
    for p in ps:
        b = normalize_poly(p)
        if not b or b == a:
            out.append(a)
            continue
        common = LaurentPoly.one(n)
        for v, s, most in linear:
            b, k = _divide_out_linear(b, v, s, most)
            if k:
                common = common * (LaurentPoly.var(n, v) - s) ** k
        g = _stripped_gcd(stripped, b, images)
        out.append(g if common.is_constant() else common * g)
    return out


def _stripped_gcd(a, b, images):
    """poly_gcd of normalized operands by the front end, else ``_gcd_rec``;
    ``images`` keeps the images of a."""
    if a.is_constant() or b.is_constant():
        return LaurentPoly.one(a.num_vars)
    va, vb = a.active_vars(), b.active_vars()
    retry = len(va | vb) > 1
    bounds = {}
    for v in va & vb:
        d = _image_gcd_degree(a, b, v, retry, images)
        if d is None or d not in (0, _deg_in(a, v), _deg_in(b, v)):
            break
        bounds[v] = d
    else:
        if not any(bounds.values()):
            return LaurentPoly.one(a.num_vars)
        for c, other, vc in ((b, a, vb), (a, b, va)):
            if vc == bounds.keys() and all(d == _deg_in(c, v) for v, d in bounds.items()):
                try:
                    exact_div(other, c)
                except ArithmeticError:
                    continue
                return c
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
        outer = LaurentPoly._make(1, _quotient_terms(outer.terms, inner.terms, (0,)))
    return tuple(outer.terms.get((i,), 0) for i in range(euler_phi(n) + 1))


def cyclotomic_minimal_poly(n):
    """The n-th cyclotomic polynomial as a univariate LaurentPoly."""
    n = int(n)
    if n < 1:
        raise UsageError("conductor must be a positive integer")
    return LaurentPoly(1, {(i,): c for i, c in enumerate(_cyclotomic_coeffs(n)) if c})
