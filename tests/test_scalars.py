"""Ring laws and conjugation for the four coefficient rings."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bounded_complex, gauss_rationals, rational_qs, trunc_series
from starprod.params import ParameterError, ParameterRule
from starprod.scalars import (
    GaussRational,
    RationalQ,
    RationalQRing,
    RationalRing,
    RingError,
    SeriesRing,
    TruncSeries,
    _cauchy,
    _entries,
    _rows_of,
    _trim,
    make_ring,
)


@given(gauss_rationals(), gauss_rationals(), gauss_rationals())
def test_gauss_rational_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gauss_rationals())
def test_gauss_rational_conjugation_involutive(a):
    assert a.conjugate().conjugate() == a


@given(gauss_rationals(), gauss_rationals())
def test_gauss_rational_conjugation_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def _parts(x: GaussRational) -> tuple:
    return x.re, x.im


def _pair_mul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


@given(gauss_rationals(), gauss_rationals(), st.integers(-3, 3), st.integers(1, 50))
def test_gauss_rational_matches_fraction_pairs(a, b, n, m):
    # the (a + b*i) / d representation computes what the (re, im) Fractions do
    ar, ai = _parts(a)
    br, bi = _parts(b)
    assert isinstance(ar, Fraction) and isinstance(ai, Fraction)
    assert _parts(a + b) == (ar + br, ai + bi)
    assert _parts(a - b) == (ar - br, ai - bi)
    assert _parts(a * b) == _pair_mul((ar, ai), (br, bi))
    assert _parts(a.conjugate()) == (ar, -ai)
    norm = ar * ar + ai * ai
    if norm:
        assert _parts(a.inverse()) == (ar / norm, -ai / norm)
    if norm or n >= 0:
        base = (ar, ai) if n >= 0 else (ar / norm, -ai / norm)
        expected = (Fraction(1), Fraction(0))
        for _ in range(abs(n)):
            expected = _pair_mul(expected, base)
        assert _parts(a ** n) == expected
    # conversions are those of the Fraction pair, bit for bit
    assert complex(a) == complex(float(ar), float(ai))
    wide = a * GaussRational(Fraction(10**30 + 1, 3**40))  # parts wider than a double
    assert complex(wide) == complex(float(wide.re), float(wide.im))
    assert repr(a) == f"GaussRational({ar!r}, {ai!r})"
    assert str(a) == (str(ar) if ai == 0 else f"({ar}{'+' if ai >= 0 else '-'}{abs(ai)}i)")
    if ai == 0:
        assert hash(a) == hash(ar)
    # the same value reached over a larger denominator is the same value
    shift = GaussRational(Fraction(1, m), Fraction(-1, m + 1))
    same = (a + shift) - shift
    assert same == a and hash(same) == hash(a)
    assert (same._a, same._b, same._d) == (a._a, a._b, a._d)


def _equal_forms(value: GaussRational) -> list:
    """``value`` as every exact scalar type that compares equal to it."""
    two = GaussRational(2)
    forms = [value, SeriesRing(order=3).coerce(value), RationalQ.constant(value),
             # (2v + 2v q) / (2 + 2q) reduces to the constant v
             RationalQ((value * two, value * two), (two, two))]
    if value.im == 0:
        forms.append(value.re)
        if value.re.denominator == 1:
            forms.append(value.re.numerator)
    return forms


@given(gauss_rationals(), gauss_rationals(), st.integers(-5, 5))
def test_equal_scalars_hash_equal(a, b, n):
    # int, Fraction, GaussRational, constant series and constant RationalQ
    forms = _equal_forms(a) + _equal_forms(b) + _equal_forms(GaussRational(n))
    for x in forms:
        for y in forms:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert {n: "found"}.get(GaussRational(n)) == "found"
    # series of two truncation orders are unequal, though their constants
    # share a hash
    assert len({SeriesRing(order=2).coerce(a), SeriesRing(order=3).coerce(a)}) == 2


def test_gauss_rational_inverse_and_pow():
    a = GaussRational(Fraction(3, 4), Fraction(-2, 5))
    assert a * a.inverse() == GaussRational(1)
    assert a ** -2 == (a.inverse()) ** 2
    with pytest.raises(ZeroDivisionError):
        GaussRational(0).inverse()


@settings(max_examples=60)
@given(trunc_series(), trunc_series(), trunc_series())
def test_trunc_series_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(trunc_series())
def test_trunc_series_conjugation(a):
    assert a.conjugate().conjugate() == a


def test_trunc_series_truncates():
    ring = SeriesRing(order=3, exact=True)
    t = ring.t
    assert (t ** 3) * t == ring.zero
    assert (t * t).coefficient(2) == GaussRational(1)


def test_trunc_series_inverse():
    ring = SeriesRing(order=5, exact=True)
    s = ring.one + ring.t
    inv = s.inverse()
    assert s * inv == ring.one
    # geometric series coefficients
    assert inv.coefficient(3) == GaussRational(-1)
    with pytest.raises(ZeroDivisionError):
        ring.t.inverse()


def test_series_ring_has_only_exact_entries():
    assert SeriesRing(order=3).exact
    with pytest.raises(RingError):
        SeriesRing(order=3, exact=False)


@settings(max_examples=40)
@given(rational_qs(), rational_qs(), rational_qs())
def test_rational_q_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(rational_qs())
def test_rational_q_conjugation(a):
    assert a.conjugate().conjugate() == a


def test_rational_q_normalization():
    # (q^2 - 1)/(q - 1) reduces to q + 1 with monic denominator
    ring = RationalQRing()
    q = ring.q
    value = (q * q - 1) / (q - 1)
    assert value == q + 1
    assert value.is_polynomial()
    # 2/(2q - 2) normalizes the denominator to monic
    half = RationalQ.constant(2) / (q * 2 - 2)
    assert half.den[-1] == GaussRational(1)
    assert half * (q - 1) == RationalQ.constant(1)


def _dense_product(p, q, length, zero):
    """Schoolbook product: every pair of entries added into zero placeholders."""
    out = [zero] * length
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if i + j < length:
                out[i + j] = out[i + j] + a * b
    return out


def _trimmed(p):
    p = list(p)
    while p and p[-1].is_zero():
        p.pop()
    return tuple(p)


ZERO_Q = GaussRational(0)


def _with_zeros(entries, zero, **sizes):
    """Coefficient tuples in which zero entries are common."""
    return st.lists(st.one_of(entries, st.just(zero)), **sizes).map(tuple)


def _pmul(p, q):
    """Product of polynomials given as GaussRational tuples, trimmed."""
    if not p or not q:
        return ()
    (ar, ai, d), (br, bi, e) = _rows_of(p), _rows_of(q)
    return _entries(*_trim(*_cauchy(ar, ai, br, bi)), d * e)


@given(st.integers(0, 3), _with_zeros(gauss_rationals(), ZERO_Q, max_size=5),
       gauss_rationals().filter(bool), st.integers(0, 4),
       st.lists(gauss_rationals(), min_size=2, max_size=3).filter(
           lambda w: sum(map(bool, w)) >= 2))
def test_rational_q_monomial_denominator_matches_gcd_reduction(lead, body, c, k, w):
    # num / (c q^k) against num*w / (c q^k * w): w is no monomial, so the
    # second takes the polynomial gcd; both must store the same normal form
    num = (ZERO_Q,) * lead + body
    den = (ZERO_Q,) * k + (c,)
    direct = RationalQ(num, den)
    reduced = RationalQ(_pmul(_trimmed(num), w), _pmul(den, w))
    assert (direct.num, direct.den) == (reduced.num, reduced.den)
    assert direct == reduced and hash(direct) == hash(reduced)
    trimmed = _trimmed(num)
    if trimmed:
        v = min(k, next(n for n, a in enumerate(trimmed) if a))
        assert direct.den == (ZERO_Q,) * (k - v) + (GaussRational(1),)
        assert direct.num == tuple(a / c for a in trimmed[v:])
    else:
        assert (direct.num, direct.den) == ((), (GaussRational(1),))


@given(_with_zeros(gauss_rationals(), ZERO_Q, max_size=6),
       _with_zeros(gauss_rationals(), ZERO_Q, max_size=6))
def test_pmul_matches_dense_product(p, q):
    if not p or not q:
        assert _pmul(p, q) == ()
        return
    assert _pmul(p, q) == _trimmed(_dense_product(p, q, len(p) + len(q) - 1, ZERO_Q))


@given(st.integers(1, 7), st.data())
def test_trunc_series_product_matches_dense_product(n, data):
    a = data.draw(_with_zeros(gauss_rationals(), ZERO_Q, min_size=n, max_size=n))
    b = data.draw(_with_zeros(gauss_rationals(), ZERO_Q, min_size=n, max_size=n))
    product = (TruncSeries(a) * TruncSeries(b)).coeffs
    assert product == tuple(_dense_product(a, b, n, ZERO_Q))


def test_rational_q_evaluate():
    ring = RationalQRing()
    q = ring.q
    expr = (q ** 2 + 1) / q
    val = expr.evaluate(GaussRational(2))
    assert val == GaussRational(Fraction(5, 2))


@settings(max_examples=60)
@given(bounded_complex(), bounded_complex(), bounded_complex())
def test_complex_ring_laws_within_tolerance(a, b, c):
    scale = max(1.0, abs(a) * abs(b) * abs(c))
    assert abs((a * b) * c - a * (b * c)) <= 1e-12 * scale
    assert abs(a * (b + c) - (a * b + a * c)) <= 1e-12 * max(1.0, abs(a) * (abs(b) + abs(c)))


# -- parameter rules -------------------------------------------------------------


def test_rule_expansions_start_at_one():
    ring = SeriesRing(order=3, exact=True)
    for name in ("exp_i", "exp_neg", "affine", "inverse_affine"):
        series = ParameterRule(name).series(ring)
        assert series.coefficient(0) == GaussRational(1)
    mixed = ParameterRule("mixed", order=3).series(ring)
    assert mixed.coefficient(0) == GaussRational(1)
    assert mixed.coefficient(1) == GaussRational(0, 1)


def test_exp_i_agrees_with_affine_through_first_order():
    ring = SeriesRing(order=4, exact=True)
    e = ParameterRule("exp_i").series(ring)
    a = ParameterRule("affine").series(ring)
    assert e.coefficient(0) == a.coefficient(0)
    assert e.coefficient(1) == a.coefficient(1)
    assert e.coefficient(2) != a.coefficient(2)


def test_inverse_affine_rejects_pole():
    rule = ParameterRule("inverse_affine")
    with pytest.raises(ParameterError):
        rule.evaluate(-1j)
    assert abs(rule.evaluate(1.0) - 1 / (1 - 1j)) < 1e-15


def test_evaluations_match_expansions_numerically():
    ring = SeriesRing(order=12, exact=True)
    hbar = 0.05
    for text in ("exp_i", "exp_neg", "affine", "inverse_affine",
                 "exp_scaled:1/2", "mixed:2"):
        rule = ParameterRule.parse(text)
        series = rule.series(ring)
        approx = sum(complex(series.coefficient(k)) * hbar ** k for k in range(13))
        assert abs(approx - rule.evaluate(hbar)) < 1e-12


def test_an_unknown_rule_name_raises_parameter_error():
    with pytest.raises(ParameterError):
        ParameterRule("nope")


def test_constant_rule_parsing():
    rule = ParameterRule.parse("const:3/2")
    assert rule.value == GaussRational(Fraction(3, 2))
    rule = ParameterRule.parse("const:1+2i")
    assert rule.value == GaussRational(1, 2)
    resolved = rule.resolve(make_ring("complex"))
    assert resolved == 1 + 2j


def _full_product(p, q):
    return _dense_product(p, q, len(p) + len(q) - 1, ZERO_Q) if p and q else []


def _entrywise_sum(p, q):
    n = max(len(p), len(q))
    return [(p[k] if k < len(p) else ZERO_Q) + (q[k] if k < len(q) else ZERO_Q)
            for k in range(n)]


@given(rational_qs(), rational_qs(), st.sampled_from(("left", "right", "both")))
def test_rational_q_with_denominator_one_matches_the_full_products(a, b, which):
    # + - * multiply through by both denominators; a denominator 1 may be
    # skipped, and the stored normal form must be the one the full products give
    if which != "right":
        a = RationalQ(a.num)
    if which != "left":
        b = RationalQ(b.num)
    cross = _full_product(a.num, b.den)
    den = _full_product(a.den, b.den)
    expected = {
        "+": RationalQ(_entrywise_sum(cross, _full_product(b.num, a.den)), den),
        "-": RationalQ(_entrywise_sum(cross, _full_product([-c for c in b.num], a.den)), den),
        "*": RationalQ(_full_product(a.num, b.num), den),
    }
    for op, got in (("+", a + b), ("-", a - b), ("*", a * b)):
        assert (got.num, got.den) == (expected[op].num, expected[op].den), op


# -- series as integer rows against entry-wise GaussRational arithmetic -------------


def _series_entries(order):
    """Entry tuples of one truncation order in which zero entries are common."""
    return _with_zeros(gauss_rationals(), ZERO_Q, min_size=order + 1, max_size=order + 1)


def _entrywise_inverse(entries):
    inv0 = entries[0].inverse()
    out = [inv0]
    for k in range(1, len(entries)):
        acc = ZERO_Q
        for j in range(1, k + 1):
            acc = acc + entries[j] * out[k - j]
        out.append(-(inv0 * acc))
    return tuple(out)


def _assert_normal_form(s: TruncSeries):
    assert s._d > 0
    assert math.gcd(*s._re, *s._im, s._d) == 1


@settings(max_examples=150)
@given(st.integers(0, 5), st.data())
def test_row_series_match_entrywise_arithmetic(order, data):
    a = data.draw(_series_entries(order))
    b = data.draw(_series_entries(order))
    k = data.draw(st.integers(0, order))
    x, y = TruncSeries(a), TruncSeries(b)
    expected = {
        "+": tuple(u + v for u, v in zip(a, b)),
        "-": tuple(u - v for u, v in zip(a, b)),
        "*": tuple(_dense_product(a, b, order + 1, ZERO_Q)),
    }
    for op, got in (("+", x + y), ("-", x - y), ("*", x * y)):
        _assert_normal_form(got)
        assert got.coeffs == expected[op], op
        assert got == TruncSeries(expected[op]), op
    for s, entries in ((x, a), (y, b)):
        _assert_normal_form(s)
        assert s.coeffs == entries
        assert s.coefficient(k) == entries[k]
        assert s.valuation() == next((n for n, c in enumerate(entries) if c), order + 1)
        assert s.conjugate().coeffs == tuple(c.conjugate() for c in entries)
        assert s.is_zero() == (not any(entries))
        if entries[0]:
            inverse = s.inverse()
            _assert_normal_form(inverse)
            assert inverse.coeffs == _entrywise_inverse(entries)
    # equal series have equal fields, however they were reached
    assert (x == y) == (a == b)
    same = (x + y) - y
    assert (same._re, same._im, same._d) == (x._re, x._im, x._d)
    assert same == x and hash(same) == hash(x)


@given(gauss_rationals(), st.integers(0, 4))
def test_constant_row_series_is_its_gauss_rational(c, order):
    s = TruncSeries.constant(c, order)
    _assert_normal_form(s)
    assert s == c and c == s and hash(s) == hash(c)
    # the same constant reached over a larger denominator
    third = TruncSeries([GaussRational(Fraction(1, 3), Fraction(-1, 7))] * (order + 1))
    reached = (s + third) - third
    assert (reached._re, reached._im, reached._d) == (s._re, s._im, s._d)
    assert reached == c and hash(reached) == hash(c)
    if c.im == 0:
        assert s == c.re and hash(s) == hash(c.re)
    assert TruncSeries([c] + [ZERO_Q] * order) == s


def test_row_series_reject_a_mismatch_of_truncation_orders():
    a, b = SeriesRing(order=2).t, SeriesRing(order=3).t
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
        with pytest.raises(ValueError, match="truncation order"):
            op()
    assert a != b and not (a == b)
    with pytest.raises(ValueError):
        TruncSeries([])


def test_the_rational_rings_shared_one_and_zero_never_change():
    ring = RationalRing()
    one, zero = ring.one, ring.zero
    x = GaussRational(Fraction(3, 7), Fraction(-2, 5))
    assert -one == GaussRational(-1) and one * x == x and x * one == x
    assert one.conjugate() == one and zero + x == x and one * zero == zero
    for value in (RationalRing().one, ring.one, one):
        assert value.fields() == (1, 0, 1)
    for value in (RationalRing().zero, ring.zero, zero):
        assert value.fields() == (0, 0, 1)
