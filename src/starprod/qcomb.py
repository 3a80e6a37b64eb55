"""q-integers, q-factorials and q-multinomial coefficients.

The q-multinomial of a multi-index K is the inversion-weighted count of
arrangements of the multiset {1^K_1, ..., d^K_d}: a polynomial in q with
non-negative integer coefficients and constant term 1.  Every quantity here
is first built as that integer polynomial, a row of Python ints: q-binomial
rows by the Pascal-type recurrence [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q as
a shift-and-add, a q-multinomial as the product of the q-binomial rows over
the prefix sums of K.  The row is then evaluated at q once, by Horner: on
integers at a GaussRational or RationalQ q (``scalars._row_at``; at the
RationalQ generator the row is the numerator as it stands), in the target
ring otherwise.
Neither step divides, unlike the factorial quotient, so evaluating at a root
of unity is exact.  Where the q-multinomial of K + L vanishes at q, the
ratio bq_K bq_L / bq_(K+L) of a symmetrized-product coefficient is reduced
as a rational function first (``q_multinomial_ratio``), so a genuine pole
is the only place division can fail.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

from .scalars import GaussRational, RationalQ, Ring, _horner, _row_add, _row_at, _row_mul

# coefficients of a polynomial in q with integer coefficients, lowest power first
Row = Tuple[int, ...]
# q-binomial rows by (n, k), shared by the q-multinomials of one computation
Rows = Dict[Tuple[int, int], Row]
_ONE_ROW: Row = (1,)
_Q = RationalQ.generator()


class PoleAtRootOfUnity(ArithmeticError):
    """Raised when a coefficient has a genuine pole at the evaluated q."""

    def __init__(self, order: int | None):
        self.order = order
        label = f"a primitive root of unity of order {order}" if order else "a root of unity"
        super().__init__(f"coefficient has a pole: q is {label}")


def multinomial(K: Sequence[int]) -> int:
    """|K|! / (K_1! ... K_d!)."""
    return math.factorial(sum(K)) // math.prod(map(math.factorial, K))


def _times(a: Row, b: Row) -> Row:
    """Product of two coefficient rows."""
    if a == _ONE_ROW:
        return b
    return tuple(_row_mul(a, b, len(a) + len(b) - 1))


def _binomial_row(n: int, k: int, rows: Rows) -> Row:
    """Coefficients of [n k]_q by [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q."""
    k = min(k, n - k)
    if k == 0:
        return _ONE_ROW
    key = (n, k)
    row = rows.get(key)
    if row is None:
        row = rows[key] = tuple(_row_add(_binomial_row(n - 1, k - 1, rows),
                                         _binomial_row(n - 1, k, rows), k))
    return row


def _multinomial_row(K: Sequence[int], rows: Rows) -> Row:
    """Coefficients of the q-multinomial: q-binomials over the prefix sums of K."""
    out = _ONE_ROW
    prefix = 0
    for k in K:
        prefix += k
        out = _times(out, _binomial_row(prefix, k, rows))
    return out


def _evaluate(row: Row, q, ring: Ring):
    """The row's polynomial at q, by Horner: no division, so no spurious pole."""
    if isinstance(q, RationalQ):
        return RationalQ.from_integer_row(row) if q == _Q else _row_at(row, q)
    if isinstance(q, GaussRational):
        return ring.coerce(_row_at(row, q))
    return _horner(list(map(ring.coerce, row)), q)


def q_integer(k: int, q, ring: Ring):
    """[k]_q = 1 + q + ... + q^(k-1)."""
    return _evaluate((1,) * k, q, ring) if k > 0 else ring.zero


def q_factorial(k: int, q, ring: Ring):
    """[k]_q! = [1]_q [2]_q ... [k]_q."""
    row = _ONE_ROW
    for m in range(2, k + 1):
        row = _times(row, (1,) * m)
    return _evaluate(row, q, ring)


def q_binomial(n: int, k: int, q, ring: Ring):
    """Gaussian binomial [n k]_q."""
    if k < 0 or k > n:
        return ring.zero
    return _evaluate(_binomial_row(n, k, {}), q, ring)


def q_multinomial(K: Sequence[int], q, ring: Ring,
                  _rows: Rows | None = None):
    """[|K|]_q! / ([K_1]_q! ... [K_d]_q!), computed pole-free.

    Pass a dict as ``_rows`` to share q-binomial rows between the
    q-multinomials of one computation.
    """
    return _evaluate(_multinomial_row(K, {} if _rows is None else _rows), q, ring)


def root_of_unity_order(q, ring: Ring, max_order: int) -> int | None:
    """Smallest 2 <= n <= max_order with q^n = 1, or None."""
    power = q
    one = ring.one
    for n in range(2, max_order + 1):
        power = power * q
        if power == one if ring.exact else abs(ring.to_complex(power) - 1.0) < 1e-9:
            return n
    return None


def q_multinomial_value_or_pole(K: Sequence[int], q, ring: Ring):
    """q-multinomial value; raises PoleAtRootOfUnity when it vanishes.

    A vanishing q-multinomial at an evaluated q certifies that q is a
    nontrivial root of unity.  The symmetrized coefficients do not divide
    through it: where bq_(K+L) vanishes, ``q_multinomial_ratio`` tells a
    removable singularity from a pole.
    """
    value = q_multinomial(K, q, ring)
    if ring.is_zero(value):
        raise PoleAtRootOfUnity(root_of_unity_order(q, ring, max_order=max(2, sum(K))))
    return value


def q_multinomial_ratio(K: Sequence[int], L: Sequence[int], q, ring: Ring, rows: Rows):
    """bq_K bq_L / bq_(K+L) at q, from the ratio of the integer rows in lowest terms.

    For a q where bq_(K+L) vanishes: the ratio is finite there when the
    factors that vanish cancel (a removable singularity), and raises
    PoleAtRootOfUnity only when its reduced denominator vanishes at q too.
    ``rows`` holds the q-binomial rows the caller already built.
    """
    M = [k + l for k, l in zip(K, L)]
    ratio = (RationalQ.from_integer_row(_multinomial_row(K, rows))
             * RationalQ.from_integer_row(_multinomial_row(L, rows))
             / RationalQ.from_integer_row(_multinomial_row(M, rows)))
    num, den = ([ring.coerce(c) for c in row] for row in (ratio.num, ratio.den))
    at_q = _horner(den, q)
    if ring.is_zero(at_q):
        raise PoleAtRootOfUnity(root_of_unity_order(q, ring, max_order=max(2, sum(M))))
    return _horner(num, q) * ring.inverse(at_q)


def q_multinomial_coefficients(K: Sequence[int]) -> Tuple[GaussRational, ...]:
    """Integer coefficient vector of the q-multinomial, exact, lowest power first."""
    return tuple(map(GaussRational, _multinomial_row(K, {})))
