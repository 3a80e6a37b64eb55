"""Coefficient rings for the star-product engine.

Four interchangeable scalar types back every polynomial in this package:

  GaussRational  exact complex rationals (a + b*i) / d, kept as three
                 integers with d > 0 and gcd(a, b, d) == 1
  complex        plain double-precision complex (Python builtin)
  TruncSeries    truncated power series in a formal parameter t with exact
                 GaussRational entries, fixed truncation order
  RationalQ      quotients of polynomials in an indeterminate q with
                 GaussRational coefficients, kept gcd-reduced with monic
                 denominator

Each ring is described by a small descriptor object (RationalRing,
ComplexRing, SeriesRing, RationalQRing) that knows how to build constants,
decide zero-ness and convert to complex for norm evaluation.  The three
exact rings decide zero and equality exactly; only ComplexRing drops
magnitudes below a threshold as roundoff.  Conjugation is an involutive ring
anti-automorphism on every type; it fixes t and q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Tuple, Union

Rationalish = Union[int, Fraction]

_new_object = object.__new__


class _FieldOps:
    """Division and square-and-multiply powers for the scalar classes.

    A subclass supplies ``_coerce`` (None for a foreign operand),
    ``inverse``, ``__mul__`` and ``_unit``, its multiplicative identity.
    """

    __slots__ = ()

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self._unit()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


class GaussRational(_FieldOps):
    """Exact complex number with rational real and imaginary parts.

    Stored as three integers ``(a, b, d)`` meaning ``(a + b*i) / d``, in the
    normal form ``d > 0`` and ``gcd(a, b, d) == 1`` (zero is ``(0, 0, 1)``),
    so two values are equal exactly when their fields are.  Sums over one
    denominator need no cross products, and each result is normalised by a
    single three-argument gcd.  ``re`` and ``im`` read the parts back as
    ``Fraction`` values.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # the parts are in lowest terms, so gcd(a, b, d) is already 1
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @staticmethod
    def _make(a: int, b: int, d: int) -> "GaussRational":
        """(a + b*i) / d for d > 0, brought to normal form."""
        g = gcd(a, b, d)
        self = _new_object(GaussRational)
        if g == 1:
            self._a, self._b, self._d = a, b, d
        else:
            self._a, self._b, self._d = a // g, b // g, d // g
        return self

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def fields(self) -> Tuple[int, int, int]:
        """(a, b, d) of the normal form: equal values have equal fields."""
        return self._a, self._b, self._d

    def _coerce(self, other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRational(other)
        return None

    def __add__(self, other):
        o = other if isinstance(other, GaussRational) else self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return GaussRational._make(self._a + o._a, self._b + o._b, d)
        return GaussRational._make(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return GaussRational._make(self._a - o._a, self._b - o._b, d)
        return GaussRational._make(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if isinstance(other, GaussRational) else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        return GaussRational._make(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __neg__(self):
        out = _new_object(GaussRational)
        out._a, out._b, out._d = -self._a, -self._b, self._d
        return out

    def inverse(self) -> "GaussRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero GaussRational")
        return GaussRational._make(a * d, -b * d, n)

    def _unit(self) -> "GaussRational":
        return GaussRational(1)

    def conjugate(self) -> "GaussRational":
        out = _new_object(GaussRational)
        out._a, out._b, out._d = self._a, -self._b, self._d
        return out

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        # int / int is correctly rounded, so this equals float(Fraction(a, d))
        return complex(self._a / self._d, self._b / self._d)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self._b == 0:
            return str(self.re)
        im = self.im
        return f"({self.re}{'+' if im >= 0 else '-'}{abs(im)}i)"


def _convolve(p, q, length: int) -> list:
    """Entries 0..length-1 of the Cauchy product of coefficient sequences.

    Zero entries on either side are skipped, and a slot holds its first
    product as it is rather than a sum with zero.  Slots no product reaches
    are None.  Each slot sums its products in order of the left index, as
    the dense schoolbook product does.
    """
    out = [None] * length
    right = [(j, b) for j, b in enumerate(q[:length]) if b]
    for i, a in enumerate(p[:length]):
        if not a:
            continue
        limit = length - i
        for j, b in right:
            if j >= limit:
                break
            c = out[i + j]
            out[i + j] = a * b if c is None else c + a * b
    return out


class TruncSeries(_FieldOps):
    """Power series in t truncated at a fixed order, with exact entries.

    Coefficients are GaussRational values stored densely as ``coeffs[k]``
    for t^k.  Arithmetic discards orders beyond the truncation; operands
    must share the same order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("TruncSeries needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(value: GaussRational, order: int) -> "TruncSeries":
        return TruncSeries((value,) + (GaussRational(0),) * order)

    @staticmethod
    def parameter(order: int) -> "TruncSeries":
        """The series t itself."""
        coeffs = [GaussRational(0)] * (order + 1)
        if order >= 1:
            coeffs[1] = GaussRational(1)
        return TruncSeries(coeffs)

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if other.order != self.order:
                raise ValueError("truncation order mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return TruncSeries.constant(GaussRational(other), self.order)
        if isinstance(other, GaussRational):
            return TruncSeries.constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TruncSeries(a + b for a, b in zip(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TruncSeries(a - b for a, b in zip(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        zero = GaussRational(0)
        return TruncSeries(zero if c is None else c
                           for c in _convolve(self.coeffs, o.coeffs, len(self.coeffs)))

    __rmul__ = __mul__

    def __neg__(self):
        return TruncSeries(-a for a in self.coeffs)

    def inverse(self) -> "TruncSeries":
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv0 = c0.inverse()
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = GaussRational(0)
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out.append(-(inv0 * acc))
        return TruncSeries(out)

    def _unit(self) -> "TruncSeries":
        return TruncSeries.constant(GaussRational(1), self.order)

    def conjugate(self) -> "TruncSeries":
        return TruncSeries(a.conjugate() for a in self.coeffs)

    def coefficient(self, k: int):
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)!r})"


# -- dense univariate polynomials over GaussRational, used by RationalQ ------

def _ptrim(p):
    k = len(p)
    while k > 0 and p[k - 1].is_zero():
        k -= 1
    return tuple(p[:k])


def _padd(p, q):
    n = max(len(p), len(q))
    zero = GaussRational(0)
    return _ptrim([
        (p[k] if k < len(p) else zero) + (q[k] if k < len(q) else zero)
        for k in range(n)
    ])


def _pneg(p):
    return tuple(-a for a in p)


_ONE_POLY = (GaussRational(1),)


def _pmul(p, q):
    if not p or not q:
        return ()
    # the constant 1, the denominator of every polynomial RationalQ, is the
    # commonest factor; factors are trimmed, so the other one is the product
    if q == _ONE_POLY:
        return p
    if p == _ONE_POLY:
        return q
    zero = GaussRational(0)
    return _ptrim([zero if c is None else c
                   for c in _convolve(p, q, len(p) + len(q) - 1)])


def _pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [GaussRational(0)] * max(0, len(p) - len(q) + 1)
    lead_inv = q[-1].inverse()
    for k in range(len(p) - len(q), -1, -1):
        c = rem[k + len(q) - 1] * lead_inv
        if c.is_zero():
            continue
        quo[k] = c
        for j, b in enumerate(q):
            rem[k + j] = rem[k + j] - c * b
    return _ptrim(quo), _ptrim(rem)


def _pgcd(p, q):
    a, b = _ptrim(p), _ptrim(q)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
        if a:
            a = _pmonic(a)
    return a if a else ()


def _pmonic(p):
    if not p:
        return p
    inv = p[-1].inverse()
    return tuple(a * inv for a in p)


class RationalQ(_FieldOps):
    """Rational function in one indeterminate q over GaussRational.

    Stored gcd-reduced with monic denominator, so structural equality is
    mathematical equality.  A monomial denominator c*q^k, which the
    q-multinomials (c*q^0) and their images under q -> 1/q have, is reduced
    without a polynomial gcd: with v the lesser of k and the order of the
    numerator at q = 0, the numerator is shifted down by v and divided by c,
    and the denominator becomes q^(k-v).  That is the normal form the gcd
    reduction gives.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = (GaussRational(1),)
        num = _ptrim(tuple(num))
        den = _ptrim(tuple(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = ()
            self.den = (GaussRational(1),)
            return
        k = len(den) - 1
        if not any(den[:k]):
            # den = c*q^k, whose gcd with num is a power of q (see above)
            v = 0
            while v < k and not num[v]:
                v += 1
            c = den[k]
            if c == 1:
                self.num = num[v:]
            else:
                lead_inv = c.inverse()
                self.num = tuple(a * lead_inv for a in num[v:])
            self.den = (GaussRational(0),) * (k - v) + (GaussRational(1),)
            return
        g = _pgcd(num, den)
        if len(g) > 1:
            num, _ = _pdivmod(num, g)
            den, _ = _pdivmod(den, g)
        lead_inv = den[-1].inverse()
        self.num = tuple(a * lead_inv for a in num)
        self.den = _pmonic(den)

    @staticmethod
    def generator() -> "RationalQ":
        return RationalQ((GaussRational(0), GaussRational(1)))

    @staticmethod
    def constant(value) -> "RationalQ":
        if isinstance(value, GaussRational):
            c = value
        else:
            c = GaussRational(value)
        return RationalQ((c,))

    def _coerce(self, other):
        if isinstance(other, RationalQ):
            return other
        if isinstance(other, (int, Fraction, GaussRational)):
            return RationalQ.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        den = _pmul(self.den, o.den)
        return RationalQ(num, den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = _padd(_pmul(self.num, o.den), _pneg(_pmul(o.num, self.den)))
        den = _pmul(self.den, o.den)
        return RationalQ(num, den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalQ(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __neg__(self):
        out = _new_object(RationalQ)
        out.num, out.den = _pneg(self.num), self.den
        return out

    def inverse(self) -> "RationalQ":
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        return RationalQ(self.den, self.num)

    def _unit(self) -> "RationalQ":
        return RationalQ.constant(1)

    def conjugate(self) -> "RationalQ":
        return RationalQ(
            tuple(a.conjugate() for a in self.num),
            tuple(a.conjugate() for a in self.den),
        )

    def is_zero(self) -> bool:
        return not self.num

    def is_polynomial(self) -> bool:
        return self.den == (GaussRational(1),)

    def numerator_coefficients(self):
        return self.num

    def evaluate(self, value):
        """Substitute a scalar for q (Horner)."""
        def horner(coeffs):
            acc = None
            for c in reversed(coeffs):
                if acc is None:
                    acc = c if isinstance(value, GaussRational) else complex(c)
                else:
                    acc = acc * value + (c if isinstance(value, GaussRational) else complex(c))
            if acc is None:
                return GaussRational(0) if isinstance(value, GaussRational) else 0j
            return acc

        den = horner(self.den)
        num = horner(self.num)
        if isinstance(value, GaussRational):
            return num * den.inverse()
        return num / den

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalQ({list(self.num)!r}, {list(self.den)!r})"


# -- ring descriptors ---------------------------------------------------------

class RingError(ValueError):
    pass


class _ExactRing:
    """Zero test, conjugation, inverse and comparison for the exact rings.

    Their scalars are kept in a normal form, so zero and equality are
    decided exactly and ``close`` ignores its tolerance.
    """

    __slots__ = ()

    exact = True

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def conjugate(self, a):
        return a.conjugate()

    def inverse(self, a):
        return a.inverse()

    def close(self, a, b, tol: float = 0.0, scale: float = 1.0) -> bool:
        return a == b


class RationalRing(_ExactRing):
    name = "rational"

    @property
    def zero(self):
        return GaussRational(0)

    @property
    def one(self):
        return GaussRational(1)

    @property
    def imaginary_unit(self):
        return GaussRational(0, 1)

    def coerce(self, value):
        if isinstance(value, GaussRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussRational(value)
        raise RingError(f"cannot coerce {value!r} into the rational ring")

    def to_complex(self, a) -> complex:
        return complex(a)

    def __repr__(self):
        return "RationalRing()"


class ComplexRing:
    name = "complex"
    exact = False
    # magnitudes below drop_tol are treated as roundoff and discarded
    drop_tol = 1e-14

    @property
    def zero(self):
        return 0j

    @property
    def one(self):
        return 1 + 0j

    @property
    def imaginary_unit(self):
        return 1j

    def coerce(self, value):
        if isinstance(value, GaussRational):
            return complex(value)
        if isinstance(value, (int, float, complex, Fraction)):
            return complex(value)
        raise RingError(f"cannot coerce {value!r} into the complex ring")

    def is_zero(self, a) -> bool:
        return abs(a) < self.drop_tol

    def conjugate(self, a):
        return a.conjugate()

    def inverse(self, a):
        return 1 / a

    def to_complex(self, a) -> complex:
        return a

    def close(self, a, b, tol: float = 1e-10, scale: float = 1.0) -> bool:
        return abs(a - b) <= tol * max(1.0, scale)

    def __repr__(self):
        return "ComplexRing()"


class SeriesRing(_ExactRing):
    """Truncated power series in t with exact entries."""

    name = "series"

    def __init__(self, order: int = 8, exact: bool = True):
        if order < 1:
            raise RingError("series truncation order must be at least 1")
        if not exact:
            raise RingError("series entries are exact; evaluate t in the complex ring instead")
        self.order = order
        self.base = RationalRing()

    @property
    def zero(self):
        return TruncSeries.constant(self.base.zero, self.order)

    @property
    def one(self):
        return TruncSeries.constant(self.base.one, self.order)

    @property
    def imaginary_unit(self):
        return TruncSeries.constant(self.base.imaginary_unit, self.order)

    @property
    def t(self):
        return TruncSeries.parameter(self.order)

    def from_coefficients(self, coeffs) -> TruncSeries:
        padded = list(coeffs)[: self.order + 1]
        padded += [self.base.zero] * (self.order + 1 - len(padded))
        return TruncSeries(self.base.coerce(c) for c in padded)

    def coerce(self, value):
        if isinstance(value, TruncSeries):
            if value.order != self.order:
                raise RingError("truncation order mismatch")
            return value
        return TruncSeries.constant(self.base.coerce(value), self.order)

    def to_complex(self, a):
        raise RingError("series scalars have no complex value; evaluate t first")

    def __repr__(self):
        return f"SeriesRing(order={self.order})"


class RationalQRing(_ExactRing):
    name = "rational_q"

    @property
    def zero(self):
        return RationalQ(())

    @property
    def one(self):
        return RationalQ.constant(1)

    @property
    def imaginary_unit(self):
        return RationalQ.constant(GaussRational(0, 1))

    @property
    def q(self):
        return RationalQ.generator()

    def coerce(self, value):
        if isinstance(value, RationalQ):
            return value
        if isinstance(value, (int, Fraction, GaussRational)):
            return RationalQ.constant(value)
        raise RingError(f"cannot coerce {value!r} into the rational-function ring")

    def to_complex(self, a):
        raise RingError("rational functions in q have no complex value; evaluate q first")

    def __repr__(self):
        return "RationalQRing()"


Ring = Union[RationalRing, ComplexRing, SeriesRing, RationalQRing]

RING_NAMES = ("rational", "complex", "series", "rational_q")


def make_ring(name: str, truncation_order: int = 8) -> Ring:
    if name == "rational":
        return RationalRing()
    if name == "complex":
        return ComplexRing()
    if name == "series":
        return SeriesRing(order=truncation_order)
    if name == "rational_q":
        return RationalQRing()
    raise RingError(f"unknown ring {name!r}; expected one of {RING_NAMES}")


def scalar_power(ring: Ring, base, exponent: int):
    """base**exponent with negative exponents routed through ring.inverse."""
    if exponent >= 0:
        return base ** exponent
    return ring.inverse(base) ** (-exponent)
