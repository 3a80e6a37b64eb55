"""Coefficient rings for the star-product engine.

Four interchangeable scalar types back every polynomial in this package:

  GaussRational  exact complex rationals (a + b*i) / d, kept as three
                 integers with d > 0 and gcd(a, b, d) == 1
  complex        plain double-precision complex (Python builtin)
  TruncSeries    truncated power series in a formal parameter t with exact
                 complex rational entries, fixed truncation order, kept as
                 two integer rows (real and imaginary numerators) over one
                 denominator d > 0 with gcd(*re, *im, d) == 1
  RationalQ      quotients X / Y of polynomials in an indeterminate q with
                 Gaussian integer coefficients, kept as four integer rows:
                 X and Y coprime, the leading coefficient of Y a positive
                 integer and the content of all four rows 1

TruncSeries, RationalQ and the q-integer rows of ``qcomb`` share one kernel
of integer-row helpers (Cauchy products, sums, Horner evaluation and, for
RationalQ, pseudo-division and a primitive gcd over Z[i]), so their
arithmetic is integer arithmetic with integer gcds.

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
from operator import add, sub
from typing import Iterable, Tuple, Union

Rationalish = Union[int, Fraction]

_new_object = object.__new__


class _FieldOps:
    """Division and square-and-multiply powers for the scalar classes.

    A subclass supplies ``_coerce`` (None for a foreign operand, the
    constant for an int), ``inverse`` and ``__mul__``.
    """

    __slots__ = ()

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self._coerce(1)
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

    # __add__ and __mul__ normalise inline, as _make does: they are the
    # hottest scalar operations of the exact rewriting
    def __add__(self, other):
        o = other if type(other) is GaussRational else self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            a, b = self._a + o._a, self._b + o._b
        else:
            a, b, d = self._a * e + o._a * d, self._b * e + o._b * d, d * e
        g = gcd(a, b, d)
        out = _new_object(GaussRational)
        if g == 1:
            out._a, out._b, out._d = a, b, d
        else:
            out._a, out._b, out._d = a // g, b // g, d // g
        return out

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
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = other if type(other) is GaussRational else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = o._a, o._b, o._d
        # in normal form a value is 1 exactly when its real numerator equals
        # its denominator and its imaginary one is 0; a product with 1 is
        # the other factor, which never changes
        if e == 0 and c == f:
            return self
        if b == 0 and a == d:
            return o
        if b == 0 and e == 0:
            a, d = a * c, d * f
            g = gcd(a, d)
        else:
            a, b, d = a * c - b * e, a * e + b * c, d * f
            g = gcd(a, b, d)
        out = _new_object(GaussRational)
        if g == 1:
            out._a, out._b, out._d = a, b, d
        else:
            out._a, out._b, out._d = a // g, b // g, d // g
        return out

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

    def conjugate(self) -> "GaussRational":
        out = _new_object(GaussRational)
        out._a, out._b, out._d = self._a, -self._b, self._d
        return out

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        o = other if type(other) is GaussRational else self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        a, b, d = self._a, self._b, self._d
        if b:
            return hash((a, b, d))
        return hash(a) if d == 1 else hash(Fraction(a, d))

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


# -- integer rows (int coefficients, lowest power first): the shared kernel -----

def _rows_of(entries) -> Tuple[tuple, tuple, int]:
    """(re, im, d): entries as rows over their least common d; gcd(*re, *im, d) is 1."""
    entries = [c if isinstance(c, GaussRational) else GaussRational(c) for c in entries]
    d = lcm(*(c._d for c in entries))
    return (tuple([c._a * (d // c._d) for c in entries]),
            tuple([c._b * (d // c._d) for c in entries]), d)


def _entries(re, im, d: int) -> Tuple[GaussRational, ...]:
    """The GaussRational entries of rows re, im over d."""
    return tuple([GaussRational._make(a, b, d) for a, b in zip(re, im)])


def _row_mul(a, b, n: int) -> list:
    """Entries 0..n-1 of the Cauchy product of two integer rows.

    Zero entries on either side are skipped.
    """
    out = [0] * n
    right = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if not x:
            continue
        limit = n - i
        for j, y in right:
            if j >= limit:
                break
            out[i + j] += x * y
    return out


def _cauchy(ar, ai, br, bi, n: int = None):
    """Entries 0..n-1 of (ar + i ai)(br + i bi), as rows re, im; all by default.

    Zero entries on either side are skipped; real rows take one real product.
    """
    if n is None:
        n = len(ar) + len(br) - 1
    if not (any(ai) or any(bi)):
        return _row_mul(ar, br, n), [0] * n
    re = [0] * n
    im = [0] * n
    right = [(j, c, e) for j, (c, e) in enumerate(zip(br, bi)) if c or e]
    for i, (a, b) in enumerate(zip(ar, ai)):
        if not (a or b):
            continue
        limit = n - i
        for j, c, e in right:
            if j >= limit:
                break
            re[i + j] += a * c - b * e
            im[i + j] += a * e + b * c
    return re, im


def _row_add(a, b, shift: int = 0, scale: int = 1) -> list:
    """a + scale * x^shift * b on integer rows."""
    out = list(a)
    out += [0] * (len(b) + shift - len(out))
    for i, c in enumerate(b, shift):
        out[i] += scale * c
    return out


def _horner(coeffs, x):
    """coeffs[0] + coeffs[1] x + coeffs[2] x^2 + ..., for nonempty coeffs."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _row_at(row, q):
    """The integer row's polynomial at a GaussRational or a RationalQ q.

    Horner on integers: at q = (a + b i) / d a Gaussian integer over d^n,
    and at q = P / Q the numerator sum_k row[k] P^k Q^(n-k) over Q^n, for
    n = len(row) - 1, which is reduced as P and Q are coprime.
    """
    if isinstance(q, GaussRational):
        a, b, d = q._a, q._b, q._d
        x, y, e = row[-1], 0, 1
        for c in reversed(row[:-1]):
            e *= d
            x, y = x * a - y * b + c * e, x * b + y * a
        return GaussRational._make(x, y, e)
    pr, pi, qr, qi = q._rows
    nr, ni, wr, wi = [row[-1]], [0], [1], [0]
    for c in reversed(row[:-1]):
        nr, ni = _cauchy(nr, ni, pr, pi)
        wr, wi = _cauchy(wr, wi, qr, qi)
        if c:
            nr, ni = _row_add(nr, wr, 0, c), _row_add(ni, wi, 0, c)
    return RationalQ._of(_normal(nr, ni, wr, wi, False))


class TruncSeries(_FieldOps):
    """Power series in t truncated at a fixed order, with exact entries.

    Stored as two rows of Python ints, the real and imaginary numerators
    ``re[k]`` and ``im[k]`` of the entry at t^k, over one common denominator
    ``d``, in the normal form ``d > 0`` and ``gcd(*re, *im, d) == 1`` (zero
    is all zeros over 1), so two series are equal exactly when their fields
    are.  A product is the integer Cauchy product of the rows, which skips
    zero entries and stops at the truncation order; sums over one
    denominator add the rows.  Each result is normalised by one gcd.
    ``coeffs`` and ``coefficient(k)`` read entries back as GaussRational
    values.  Operands must share the truncation order.
    """

    __slots__ = ("_re", "_im", "_d")

    def __init__(self, coeffs: Iterable):
        self._re, self._im, self._d = _rows_of(coeffs)
        if not self._re:
            raise ValueError("TruncSeries needs at least the constant term")

    @staticmethod
    def _make(re, im, d: int) -> "TruncSeries":
        """The series with rows re, im over d > 0, brought to normal form."""
        g = gcd(*re, *im, d)
        self = _new_object(TruncSeries)
        if g == 1:
            self._re, self._im, self._d = tuple(re), tuple(im), d
        else:
            self._re = tuple([a // g for a in re])
            self._im = tuple([b // g for b in im])
            self._d = d // g
        return self

    @property
    def order(self) -> int:
        return len(self._re) - 1

    @property
    def coeffs(self) -> Tuple[GaussRational, ...]:
        return _entries(self._re, self._im, self._d)

    @staticmethod
    def constant(value: GaussRational, order: int) -> "TruncSeries":
        self = _new_object(TruncSeries)
        pad = (0,) * order
        self._re, self._im, self._d = (value._a,) + pad, (value._b,) + pad, value._d
        return self

    @staticmethod
    def parameter(order: int) -> "TruncSeries":
        """The series t itself."""
        return TruncSeries(([0, 1] + [0] * order)[:order + 1])

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if len(other._re) != len(self._re):
                raise ValueError("truncation order mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return TruncSeries.constant(GaussRational(other), self.order)
        if isinstance(other, GaussRational):
            return TruncSeries.constant(other, self.order)
        return None

    def _combine(self, other, op):
        """self + other or self - other, as op is add or sub.

        Rows over one denominator combine as they are; others cross-multiply.
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return TruncSeries._make(list(map(op, self._re, o._re)),
                                     list(map(op, self._im, o._im)), d)
        return TruncSeries._make([op(a * e, b * d) for a, b in zip(self._re, o._re)],
                                 [op(a * e, b * d) for a, b in zip(self._im, o._im)], d * e)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # the unit is a common factor (powers of r = 1 in quantum_weyl)
        if o._is_one():
            return self
        if self._is_one():
            return o
        re, im = _cauchy(self._re, self._im, o._re, o._im, len(self._re))
        return TruncSeries._make(re, im, self._d * o._d)

    __rmul__ = __mul__

    def __neg__(self):
        out = _new_object(TruncSeries)
        out._re, out._im = tuple([-a for a in self._re]), tuple([-b for b in self._im])
        out._d = self._d
        return out

    def inverse(self) -> "TruncSeries":
        coeffs = self.coeffs
        c0 = coeffs[0]
        if c0.is_zero():
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv0 = c0.inverse()
        out = [inv0]
        for k in range(1, len(coeffs)):
            acc = GaussRational(0)
            for j in range(1, k + 1):
                acc = acc + coeffs[j] * out[k - j]
            out.append(-(inv0 * acc))
        return TruncSeries(out)

    def _is_one(self) -> bool:
        re = self._re
        return self._d == 1 and re[0] == 1 and not (any(self._im) or any(re[1:]))

    def conjugate(self) -> "TruncSeries":
        out = _new_object(TruncSeries)
        out._re, out._im, out._d = self._re, tuple([-b for b in self._im]), self._d
        return out

    def coefficient(self, k: int) -> GaussRational:
        return GaussRational._make(self._re[k], self._im[k], self._d)

    def valuation(self) -> int:
        """Lowest order in t with a nonzero entry; order + 1 for zero."""
        for k, (a, b) in enumerate(zip(self._re, self._im)):
            if a or b:
                return k
        return len(self._re)

    def is_zero(self) -> bool:
        return not (any(self._re) or any(self._im))

    def __bool__(self):
        return any(self._re) or any(self._im)

    def __eq__(self, other):
        if isinstance(other, TruncSeries) and len(other._re) != len(self._re):
            # unequal, not an error: constants of both orders share a hash
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._d == o._d and self._re == o._re and self._im == o._im

    def __hash__(self):
        # a constant series hashes as the constant it equals
        if any(self._re[1:]) or any(self._im[1:]):
            return hash((self._re, self._im, self._d))
        return hash(self.coefficient(0))

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)!r})"


# -- rational functions on Gaussian integer rows, used by RationalQ ------------

_ZERO_ROWS = ((), (), (1,), (0,))


def _trim(re, im):
    """Rows re, im without the top entries that are zero in both, as tuples."""
    k = len(re)
    while k and not (re[k - 1] or im[k - 1]):
        k -= 1
    return tuple(re[:k]), tuple(im[:k])


def _divide(ar, ai, br, bi):
    """Pseudo-division of Gaussian integer rows a by b, b trimmed and nonzero.

    Returns (qr, qi, s, rr, ri) with s * a = q * b + r, s > 0 and r shorter
    than b.  Each step multiplies what is left by n = |lead b|^2 and
    subtracts t * conj(lead b) * q^k * b, t the entry to clear, so every
    entry stays a Gaussian integer and s is a power of n.
    """
    m = len(br) - 1
    lr, li = br[-1], bi[-1]
    n = lr * lr + li * li
    low = list(zip(br[:m], bi[:m]))
    rr, ri = list(ar), list(ai)
    size = max(0, len(rr) - m)
    qr, qi = [0] * size, [0] * size
    s = 1
    for k in range(size - 1, -1, -1):
        tr, ti = rr[k + m], ri[k + m]
        if not (tr or ti):
            continue
        if n != 1:
            s *= n
            for j in range(k + m):
                rr[j] *= n
                ri[j] *= n
            for j in range(k + 1, size):
                qr[j] *= n
                qi[j] *= n
        cr, ci = qr[k], qi[k] = tr * lr + ti * li, ti * lr - tr * li
        for j, (c, e) in enumerate(low, k):
            rr[j] -= cr * c - ci * e
            ri[j] -= cr * e + ci * c
    return qr, qi, s, rr[:m], ri[:m]


def _gcd(ar, ai, br, bi):
    """A gcd of nonzero trimmed Gaussian integer polynomials, up to a unit: a
    primitive pseudo-remainder sequence, each remainder freed of its content."""
    if len(ar) < len(br):
        ar, ai, br, bi = br, bi, ar, ai
    while br:
        rr, ri = _trim(*_divide(ar, ai, br, bi)[3:])
        g = gcd(*rr, *ri)
        ar, ai, br, bi = br, bi, [a // g for a in rr], [b // g for b in ri]
    return ar, ai


def _cancel(xr, xi, yr, yi):
    """X / g and Y / g up to one constant factor, g = gcd(X, Y), X and Y trimmed.

    A monomial c q^k on either side shares only q^v with the other, v the
    lesser of their orders at q = 0, so no gcd is taken.
    """
    if len(xr) == 1 or len(yr) == 1:  # a constant side
        return xr, xi, yr, yi
    vx = next(k for k, (a, b) in enumerate(zip(xr, xi)) if a or b)
    vy = next(k for k, (a, b) in enumerate(zip(yr, yi)) if a or b)
    if vx == len(xr) - 1 or vy == len(yr) - 1:
        v = min(vx, vy)
        return xr[v:], xi[v:], yr[v:], yi[v:]
    gr, gi = _gcd(xr, xi, yr, yi)
    if len(gr) == 1:
        return xr, xi, yr, yi
    xr, xi, s = _divide(xr, xi, gr, gi)[:3]
    yr, yi, t = _divide(yr, yi, gr, gi)[:3]
    # (X / s) / (Y / t)
    return [a * t for a in xr], [b * t for b in xi], [a * s for a in yr], [b * s for b in yi]


def _normal(xr, xi, yr, yi, cancel: bool = True):
    """The rows of X / Y in RationalQ's normal form; cancel=False if X, Y are coprime."""
    xr, xi = _trim(xr, xi)
    yr, yi = _trim(yr, yi)
    if not yr:
        raise ZeroDivisionError("zero denominator")
    if not xr:
        return _ZERO_ROWS
    if cancel:
        xr, xi, yr, yi = _cancel(xr, xi, yr, yi)
    a, b = yr[-1], -yi[-1]
    if b or a < 0:
        # times the conjugate a + b i of the leading coefficient of Y
        xr, xi = [c * a - e * b for c, e in zip(xr, xi)], [c * b + e * a for c, e in zip(xr, xi)]
        yr, yi = [c * a - e * b for c, e in zip(yr, yi)], [c * b + e * a for c, e in zip(yr, yi)]
    g = 1 if yr[-1] == 1 else gcd(*xr, *xi, *yr, *yi)
    if g != 1:
        xr, xi, yr, yi = ([c // g for c in row] for row in (xr, xi, yr, yi))
    return tuple(xr), tuple(xi), tuple(yr), tuple(yi)


class RationalQ(_FieldOps):
    """Rational function in one indeterminate q over GaussRational.

    Stored as ``_rows = (xr, xi, yr, yi)``, the real and imaginary integer
    rows of a numerator X and a denominator Y: the value is X / Y.  In the
    normal form X and Y are coprime, the leading coefficient L of Y is a
    positive integer and the integers of all four rows have gcd 1; zero is
    () over (1,).  Then ``num`` = X / L and ``den`` = Y / L are the reduced
    numerator and monic denominator, and equal values have equal rows.  The
    gcd is a primitive pseudo-remainder sequence over Z[i]; a monomial c*q^k
    on either side of a quotient, as the q-multinomials (c*q^0) and their
    images under q -> 1/q have, shares only a power of q with the other side
    and needs no gcd.
    """

    __slots__ = ("_rows",)

    def __init__(self, num, den=(1,)):
        nr, ni, nd = _rows_of(num)
        dr, di, dd = _rows_of(den)
        # (N / nd) / (D / dd) = (N dd) / (D nd)
        self._rows = _normal([a * dd for a in nr], [b * dd for b in ni],
                             [a * nd for a in dr], [b * nd for b in di])

    @staticmethod
    def _of(rows) -> "RationalQ":
        self = _new_object(RationalQ)
        self._rows = rows
        return self

    @property
    def num(self) -> Tuple[GaussRational, ...]:
        xr, xi, yr, _ = self._rows
        return _entries(xr, xi, yr[-1])

    @property
    def den(self) -> Tuple[GaussRational, ...]:
        _, _, yr, yi = self._rows
        return _entries(yr, yi, yr[-1])

    @staticmethod
    def generator() -> "RationalQ":
        return RationalQ._of(((0, 1), (0, 0), (1,), (0,)))

    @staticmethod
    def from_integer_row(row) -> "RationalQ":
        """The polynomial with these integer coefficients; the last is nonzero."""
        return RationalQ._of((tuple(row), (0,) * len(row), (1,), (0,)))

    @staticmethod
    def constant(value) -> "RationalQ":
        c = value if isinstance(value, GaussRational) else GaussRational(value)
        return RationalQ._of(((c._a,), (c._b,), (c._d,), (0,)) if c else _ZERO_ROWS)

    def _coerce(self, other):
        if isinstance(other, RationalQ):
            return other
        if isinstance(other, (int, Fraction, GaussRational)):
            return RationalQ.constant(other)
        return None

    def _add(self, o: "RationalQ") -> "RationalQ":
        (ar, ai, br, bi), (cr, ci, dr, di) = self._rows, o._rows
        if br != dr or bi != di:  # a / b + c / d = (a d + c b) / (b d)
            ar, ai = _cauchy(ar, ai, dr, di)
            cr, ci = _cauchy(cr, ci, br, bi)
            br, bi = _cauchy(br, bi, dr, di)
        return RationalQ._of(_normal(_row_add(ar, cr), _row_add(ai, ci), br, bi))

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._add(o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._add(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._add(-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (ar, ai, br, bi), (cr, ci, dr, di) = self._rows, o._rows
        if not (ar and cr):
            return RationalQ._of(_ZERO_ROWS)
        # (a / b)(c / d) = (a / g)(c / h) / ((b / h)(d / g)) for g = gcd(a, d)
        # and h = gcd(c, b) is reduced, as a / b and c / d are
        ar, ai, dr, di = _cancel(ar, ai, dr, di)
        cr, ci, br, bi = _cancel(cr, ci, br, bi)
        return RationalQ._of(_normal(*_cauchy(ar, ai, cr, ci), *_cauchy(br, bi, dr, di), False))

    __rmul__ = __mul__

    def __neg__(self):
        xr, xi, yr, yi = self._rows
        return RationalQ._of((tuple([-a for a in xr]), tuple([-b for b in xi]), yr, yi))

    def inverse(self) -> "RationalQ":
        xr, xi, yr, yi = self._rows
        if not xr:
            raise ZeroDivisionError("inverse of zero rational function")
        return RationalQ._of(_normal(yr, yi, xr, xi, False))

    def conjugate(self) -> "RationalQ":
        # L is real, so the conjugate rows are in normal form
        xr, xi, yr, yi = self._rows
        return RationalQ._of((xr, tuple([-b for b in xi]), yr, tuple([-b for b in yi])))

    def is_zero(self) -> bool:
        return not self._rows[0]

    def is_polynomial(self) -> bool:
        return len(self._rows[2]) == 1

    def numerator_coefficients(self):
        """``num``, under the name that perfbench/workloads.py reads."""
        return self.num

    def evaluate(self, value):
        """Substitute a scalar for q (Horner)."""
        if isinstance(value, GaussRational):
            return _horner(self.num or (GaussRational(0),), value) / _horner(self.den, value)
        num = [complex(c) for c in self.num] or [0j]
        return _horner(num, value) / _horner([complex(c) for c in self.den], value)

    def __bool__(self):
        return bool(self._rows[0])

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._rows == o._rows

    def __hash__(self):
        # a constant hashes as the GaussRational it equals
        xr, xi, yr, _ = self._rows
        if len(yr) == 1 and len(xr) <= 1:
            return hash(GaussRational._make(xr[0], xi[0], yr[0])) if xr else 0
        return hash(self._rows)

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

    def prune(self, items) -> dict:
        """The (key, coefficient) pairs of ``items`` whose coefficient is
        not exactly zero, as a new dict."""
        return {K: c for K, c in items if not c.is_zero()}

    def conjugate(self, a):
        return a.conjugate()

    def inverse(self, a):
        return a.inverse()

    def close(self, a, b, tol: float, scale: float) -> bool:
        return a == b

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    @property
    def imaginary_unit(self):
        return self.coerce(GaussRational(0, 1))


class RationalRing(_ExactRing):
    name = "rational"
    # a GaussRational never changes, so every caller can share these two
    zero = GaussRational(0)
    one = GaussRational(1)

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
        if isinstance(value, (GaussRational, int, float, complex, Fraction)):
            return complex(value)
        raise RingError(f"cannot coerce {value!r} into the complex ring")

    def is_zero(self, a) -> bool:
        return abs(a) < self.drop_tol

    def prune(self, items) -> dict:
        """The (key, coefficient) pairs of ``items`` that ``is_zero`` keeps, as
        a new dict: the one place a finished polynomial drops roundoff.

        ``not abs(c) < tol`` keeps NaN and inf, as ``is_zero`` does.
        """
        tol = self.drop_tol
        return {K: c for K, c in items if not abs(c) < tol}

    def conjugate(self, a):
        return a.conjugate()

    def inverse(self, a):
        return 1 / a

    def to_complex(self, a) -> complex:
        return a

    def close(self, a, b, tol: float, scale: float) -> bool:
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
