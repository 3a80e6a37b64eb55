"""Polynomial arithmetic, involutions, and the text form."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bounded_complex, gauss_rationals
from starprod.parsing import ParseError, format_poly, parse_poly
from starprod.poly import DimensionMismatch, Polynomial, exponent_to_word, word_to_exponent
from starprod.scalars import GaussRational, RingError, SeriesRing, make_ring

R = make_ring("rational")
C = make_ring("complex")


def test_word_exponent_bijection():
    assert exponent_to_word((2, 0, 1)) == (1, 1, 3)
    assert word_to_exponent((1, 1, 3), 3) == (2, 0, 1)


def test_add_like_terms():
    x1 = Polynomial.variable(R, 2, 1)
    assert (x1 + x1).terms == {(1, 0): GaussRational(2)}


def test_commutative_mul_adds_exponents():
    a = Polynomial.monomial(R, 2, (1, 0))
    b = Polynomial.monomial(R, 2, (0, 1))
    assert (a * b).terms == {(1, 1): GaussRational(1)}


def test_scale_by_zero_empties():
    f = parse_poly("2*x1 + x2^3", 2, R)
    assert f.scale(GaussRational(0)).terms == {}


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        Polynomial.variable(R, 2, 1) + Polynomial.variable(R, 3, 1)


def test_conjugate_x_kind():
    f = Polynomial(R, 1, {(2,): GaussRational(1, 2)})
    assert f.conjugate().terms == {(2,): GaussRational(1, -2)}


def test_conjugate_w_kind_reverses():
    f = Polynomial.monomial(R, 2, (1, 0), kind="w")
    assert f.conjugate().terms == {(0, 1): GaussRational(1)}
    g = Polynomial(R, 3, {(2, 0, 1): GaussRational(0, 1)}, kind="w")
    assert g.conjugate().terms == {(1, 0, 2): GaussRational(0, -1)}


def test_conjugate_is_involutive_and_multiplicative():
    rng = random.Random(5)
    for kind in ("x", "w"):
        for _ in range(25):
            f = _random_poly(rng, kind)
            g = _random_poly(rng, kind)
            assert f.conjugate().conjugate() == f
            assert (f * g).conjugate() == f.conjugate() * g.conjugate()


def _random_poly(rng, kind="x", dim=3, max_degree=4, terms=3, ring=R):
    out = {}
    for _ in range(terms):
        K = tuple(rng.randint(0, max_degree // 2) for _ in range(dim))
        out[K] = GaussRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return Polynomial(ring, dim, out, kind)


def test_derivative():
    f = parse_poly("x1^2*x2 + 3*x2", 2, R)
    assert f.derivative(1) == parse_poly("2*x1*x2", 2, R)
    assert f.derivative(2) == parse_poly("x1^2 + 3", 2, R)


def test_shift_expands_binomially():
    f = parse_poly("x1^2", 2, R)
    shifted = f.shift([GaussRational(1), GaussRational(0)])
    assert shifted == parse_poly("x1^2 + 2*x1 + 1", 2, R)


def test_shift_rejects_an_offset_of_another_truncation_order():
    ring = make_ring("series", truncation_order=4)
    other = make_ring("series", truncation_order=2).one
    with pytest.raises(RingError, match="truncation order"):
        Polynomial.variable(ring, 2, 1).shift([other, ring.zero])


def _shift_by_powers(f, offsets):
    """f with x_p -> x_p + c_p, substituted through Polynomial powers."""
    ring, dim, kind = f.ring, f.dim, f.kind
    result = Polynomial.zero(ring, dim, kind)
    for K, c in f.terms.items():
        term = Polynomial.constant(ring, dim, c, kind)
        for p, e in enumerate(K):
            moved = (Polynomial.variable(ring, dim, p + 1, kind)
                     + Polynomial.constant(ring, dim, offsets[p], kind))
            term = term * moved ** e
        result = result + term
    return result


S3 = SeriesRing(order=3)


def _shift_cases(ring, scalars):
    """(f, offsets) over a ring: up to five terms of degree <= 4 in d = 1..3,
    offsets often zero."""
    def build(dim, entries, offsets):
        terms = {K[:dim]: c for K, c in entries}
        return Polynomial(ring, dim, terms, "x"), offsets[:dim]

    exponent = st.tuples(*[st.integers(0, 4)] * 3)
    offset = st.one_of(scalars, st.just(ring.zero))
    return st.builds(build, st.integers(1, 3),
                     st.lists(st.tuples(exponent, scalars), min_size=1, max_size=5),
                     st.lists(offset, min_size=3, max_size=3))


_SERIES_SCALARS = st.lists(gauss_rationals(), min_size=1, max_size=4).map(S3.from_coefficients)


@settings(max_examples=40)
@given(st.one_of(_shift_cases(R, gauss_rationals()), _shift_cases(S3, _SERIES_SCALARS)))
def test_shift_by_binomial_rows_is_the_substitution(case):
    f, offsets = case
    shifted = f.shift(offsets)
    assert shifted == _shift_by_powers(f, offsets)
    assert shifted.shift([-c for c in offsets]) == f


@settings(max_examples=40)
@given(_shift_cases(C, bounded_complex()))
def test_complex_shift_matches_the_substitution_to_rounding(case):
    f, offsets = case
    expected = _shift_by_powers(f, offsets)
    # the largest magnitude any partial product can reach, so that terms
    # which cancel are held to the rounding of what they cancel
    scale = sum(abs(c) * math.prod((1 + abs(o)) ** e for o, e in zip(offsets, K))
                for K, c in f.terms.items())
    assert f.shift(offsets).close_to(expected, tol=1e-12, scale=scale)


def test_evaluate():
    f = parse_poly("x1^2*x2 - 2", 2, C)
    assert abs(f.evaluate([2 + 0j, 3 + 0j]) - 10) < 1e-14


# -- text form ---------------------------------------------------------------------


def test_parse_spec_example():
    f = parse_poly("2*x1^2*x2 + (0+1i)*x3", 3, R)
    assert f.terms == {(2, 1, 0): GaussRational(2), (0, 0, 1): GaussRational(0, 1)}


def test_parse_constant_one():
    assert parse_poly("1", 2, R) == Polynomial.one(R, 2)


def test_parse_rejects_out_of_range_generator():
    with pytest.raises(ParseError) as err:
        parse_poly("x4", 3, R)
    assert "x4" in str(err.value) or "range" in str(err.value)


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + @", 2, R)
    assert err.value.position == 5


def test_parse_rational_coefficient():
    f = parse_poly("3/2*x1", 1, R)
    assert f.terms == {(1,): GaussRational(Fraction(3, 2))}


def test_parse_negative_leading_term():
    f = parse_poly("-x1 + 2", 1, R)
    assert f.terms == {(1,): GaussRational(-1), (0,): GaussRational(2)}


def test_parse_with_parameters():
    q = GaussRational(Fraction(5, 2))
    f = parse_poly("(q-1)*x1*x2", 2, R, params={"q": q})
    assert f.terms == {(1, 1): GaussRational(Fraction(3, 2))}
    g = parse_poly("(1/q - 1)*x1", 2, R, params={"q": q})
    assert g.terms == {(1, 0): GaussRational(Fraction(2, 5)) - GaussRational(1)}


def test_parse_w_kind():
    f = parse_poly("w1*w2^2", 2, R, kind="w")
    assert f.terms == {(1, 2): GaussRational(1)}
    with pytest.raises(ParseError):
        parse_poly("x1", 2, R, kind="w")


def test_format_zero():
    assert format_poly(Polynomial.zero(R, 2)) == "0"


def test_format_canonical_order():
    f = parse_poly("x2 + x1*x2 + 5", 2, R)
    assert format_poly(f) == "x1*x2 + x2 + 5"


def test_roundtrip_corpus_rational_and_complex():
    rng = random.Random(99)
    for case in range(1000):
        ring = R if case % 2 == 0 else C
        dim = rng.randint(1, 4)
        kind = "x" if case % 3 else "w"
        terms = {}
        for _ in range(rng.randint(1, 5)):
            K = tuple(rng.randint(0, 4) for _ in range(dim))
            if ring is R:
                coeff = GaussRational(Fraction(rng.randint(-99, 99), rng.randint(1, 30)),
                                      Fraction(rng.randint(-99, 99), rng.randint(1, 30)))
            else:
                coeff = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            terms[K] = coeff
        f = Polynomial(ring, dim, terms, kind)
        text = format_poly(f)
        parsed = parse_poly(text, dim, ring, kind)
        assert parsed == f, (text, f.terms, parsed.terms)
        # formatting is canonical: format(parse(format(f))) == format(f)
        assert format_poly(parsed) == text


@settings(max_examples=80)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          gauss_rationals()), min_size=1, max_size=5))
def test_roundtrip_hypothesis(entries):
    f = Polynomial(R, 2, dict(entries))
    assert parse_poly(format_poly(f), 2, R) == f


def test_from_checked_drops_zeros_and_the_constructor_still_validates():
    f = Polynomial.from_checked(R, 2, {(1, 0): GaussRational(2), (0, 1): GaussRational(0)}, "w")
    assert f.terms == {(1, 0): GaussRational(2)} and f.kind == "w"
    g = Polynomial.from_checked(C, 2, {(1, 0): 1e-15 + 0j, (0, 1): 1 + 0j})
    assert g == Polynomial(C, 2, {(1, 0): 1e-15 + 0j, (0, 1): 1 + 0j}) == \
        Polynomial.variable(C, 2, 2)
    with pytest.raises(ValueError):
        Polynomial(R, 2, {(-1, 0): GaussRational(1)})
    with pytest.raises(DimensionMismatch):
        Polynomial(R, 2, {(1, 0, 0): GaussRational(1)})
