"""RationalQ on integer rows against Euclid's algorithm on GaussRational tuples.

The reference below is the dense polynomial arithmetic over GaussRational
that rational functions in q were once computed with: a monic Euclid gcd in
which every coefficient operation normalises its own fraction.  The row
kernel must give the same normal form, value for value.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fractions, gauss_rationals
from starprod.scalars import (
    GaussRational,
    RationalQ,
    _divide,
    _gcd,
    _horner,
    _row_at,
    _rows_of,
)

ZERO, ONE = GaussRational(0), GaussRational(1)


# -- the GaussRational-tuple reference ----------------------------------------------


def _trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def _add(p, q):
    n = max(len(p), len(q))
    return _trim([(p[k] if k < len(p) else ZERO) + (q[k] if k < len(q) else ZERO)
                  for k in range(n)])


def _mul(p, q):
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _trim(out)


def _divmod(p, q):
    rem = list(p)
    quo = [ZERO] * max(0, len(p) - len(q) + 1)
    lead_inv = q[-1].inverse()
    for k in range(len(p) - len(q), -1, -1):
        c = rem[k + len(q) - 1] * lead_inv
        quo[k] = c
        for j, b in enumerate(q):
            rem[k + j] = rem[k + j] - c * b
    return _trim(quo), _trim(rem)


def _monic(p):
    lead_inv = p[-1].inverse()
    return tuple(a * lead_inv for a in p)


def _euclid(p, q):
    while q:
        p, q = q, _divmod(p, q)[1]
    return _monic(p)


def _reduced(num, den):
    """(num, den) coprime with monic den: the normal form the tuple kernel kept."""
    num, den = _trim(num), _trim(den)
    if not num:
        return (), (ONE,)
    g = _euclid(num, den)
    num, den = _divmod(num, g)[0], _divmod(den, g)[0]
    lead_inv = den[-1].inverse()
    return tuple(a * lead_inv for a in num), tuple(a * lead_inv for a in den)


def _ref(x):
    return x.num, x.den


def _ref_sum(a, b, sign):
    (an, ad), (bn, bd) = a, b
    return _reduced(_add(_mul(an, bd), _mul(tuple(sign * c for c in bn), ad)), _mul(ad, bd))


def _ref_at(p, value):
    return _horner(p, value) if p else ZERO


# -- values -------------------------------------------------------------------------


def _polys(entries=gauss_rationals(), **sizes):
    """Coefficient tuples in which zero entries are common."""
    return st.lists(st.one_of(entries, st.just(ZERO)), **sizes).map(tuple)


# Nonzero values and polynomials are drawn by construction, not filtered out
# of the draws, so no seed runs into hypothesis' filter_too_much check.
_nonzero_fractions = st.builds(Fraction, st.one_of(st.integers(-30, -1), st.integers(1, 30)),
                               st.integers(1, 12))
_nonzero_gauss = st.one_of(st.builds(GaussRational, _nonzero_fractions, fractions()),
                           st.builds(GaussRational, st.just(0), _nonzero_fractions))
_reals = st.builds(GaussRational, fractions())
_nonzero_reals = st.builds(GaussRational, _nonzero_fractions)


def _nonzero_polys(entries=gauss_rationals(), lead=_nonzero_gauss, min_size=0, max_size=3):
    """Coefficient tuples of min_size to max_size lower entries under a nonzero leading one."""
    return st.builds(lambda body, c: body + (c,),
                     _polys(entries, min_size=min_size, max_size=max_size), lead)


@st.composite
def rational_functions(draw):
    """(num, den) inputs, often with a common factor, a monomial den or real entries."""
    entries, lead = draw(st.sampled_from([(gauss_rationals(), _nonzero_gauss),
                                          (_reals, _nonzero_reals)]))
    num = draw(_polys(entries, max_size=4))
    shape = draw(st.sampled_from(["any", "monomial", "one"]))
    if shape == "monomial":
        den = (ZERO,) * draw(st.integers(0, 3)) + (draw(lead),)
    elif shape == "one":
        den = (ONE,)
    else:
        den = draw(_nonzero_polys(entries, lead))
    # a common factor of degree 1 or 2
    common = draw(st.one_of(st.just((ONE,)),
                            _nonzero_polys(entries, lead, min_size=1, max_size=2)))
    return _mul(num, common), _mul(den, common)


def _assert_normal_form(x: RationalQ):
    xr, xi, yr, yi = x._rows
    assert all(type(c) is int for row in x._rows for c in row)
    assert len(xr) == len(xi) and len(yr) == len(yi)
    assert not xr or xr[-1] or xi[-1]
    # the leading coefficient L of Y is a positive integer, and content 1
    assert yr[-1] > 0 and yi[-1] == 0
    assert math.gcd(*xr, *xi, *yr, *yi) == 1
    num, den = x.num, x.den
    assert den[-1] == ONE
    if num:
        assert len(_euclid(num, den)) == 1
    else:
        assert x._rows == ((), (), (1,), (0,))


@settings(max_examples=150)
@given(rational_functions(), rational_functions(), gauss_rationals())
def test_arithmetic_matches_the_euclid_reference(a_in, b_in, point):
    a, b = RationalQ(*a_in), RationalQ(*b_in)
    ra, rb = _reduced(*a_in), _reduced(*b_in)
    assert _ref(a) == ra and _ref(b) == rb
    results = {
        "+": (a + b, _ref_sum(ra, rb, 1)),
        "-": (a - b, _ref_sum(ra, rb, -1)),
        "*": (a * b, _reduced(_mul(ra[0], rb[0]), _mul(ra[1], rb[1]))),
        "conjugate": (a.conjugate(), _reduced(*(tuple(c.conjugate() for c in p) for p in ra))),
        "neg": (-a, (tuple(-c for c in ra[0]), ra[1])),
    }
    if ra[0]:
        results["inverse"] = (a.inverse(), _reduced(ra[1], ra[0]))
        results["/"] = (b / a, _reduced(_mul(rb[0], ra[1]), _mul(rb[1], ra[0])))
    for op, (got, expected) in results.items():
        _assert_normal_form(got)
        assert _ref(got) == expected, op
        assert got == RationalQ(*expected), op
    for x, (num, den) in ((a, ra), (b, rb)):
        _assert_normal_form(x)
        at_den = _ref_at(den, point)
        if at_den:
            assert x.evaluate(point) == _ref_at(num, point) / at_den
            z = complex(point)
            expected = (_horner([complex(c) for c in num], z) if num else 0j) / _horner(
                [complex(c) for c in den], z)
            assert x.evaluate(z) == expected
    assert (a == b) == (ra == rb)
    if ra == rb:
        assert hash(a) == hash(b)


@given(rational_functions(), _nonzero_gauss, gauss_rationals())
def test_equal_values_reached_over_larger_denominators_have_equal_rows(a_in, c, shift):
    a = RationalQ(*a_in)
    big = RationalQ.constant(GaussRational(Fraction(1, 3 * 7 * 11), Fraction(-2, 13)))
    for reached in ((a + big) - big, (a * c) / c, (a + shift) - shift, (a * big) * big.inverse()):
        _assert_normal_form(reached)
        assert reached._rows == a._rows
        assert reached == a and hash(reached) == hash(a)


@given(gauss_rationals(), st.integers(0, 3))
def test_a_constant_is_its_gauss_rational(c, k):
    x = RationalQ.constant(c)
    _assert_normal_form(x)
    assert x == c and hash(x) == hash(c)
    assert x._rows == RationalQ((c,))._rows
    if c.im == 0:
        assert hash(x) == hash(c.re)
    # a polynomial over a power of q reduces to the constant when it is c q^k
    assert RationalQ((ZERO,) * k + (c,), (ZERO,) * k + (ONE,)) == x


@given(st.integers(0, 3), _polys(max_size=5), _nonzero_gauss,
       st.integers(0, 4), _polys(min_size=2, max_size=3).filter(lambda w: sum(map(bool, w)) >= 2))
def test_monomial_denominators_take_the_gcd_path_result(lead, body, c, k, w):
    # num / (c q^k) skips the gcd; num*w / (c q^k w) takes it
    num = (ZERO,) * lead + body
    den = (ZERO,) * k + (c,)
    direct = RationalQ(num, den)
    through_gcd = RationalQ(_mul(_trim(num), w), _mul(den, w))
    _assert_normal_form(direct)
    assert direct._rows == through_gcd._rows
    assert _ref(direct) == _reduced(num, den)


@settings(max_examples=60)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6).filter(lambda r: r[-1]),
       gauss_rationals(), rational_functions())
def test_integer_rows_at_a_point_are_horner_in_the_ring(row, point, q_in):
    assert _row_at(row, point) == _horner([GaussRational(c) for c in row], point)
    q = RationalQ(*q_in)
    got = _row_at(row, q)
    _assert_normal_form(got)
    assert got == _horner([RationalQ.constant(c) for c in row], q)


@given(_nonzero_polys(max_size=4), _nonzero_polys(max_size=3))
def test_pseudo_division_and_gcd_on_gaussian_integer_rows(a, b):
    (ar, ai, _), (br, bi, _) = _rows_of(_trim(a)), _rows_of(_trim(b))
    qr, qi, s, rr, ri = _divide(ar, ai, br, bi)
    assert s > 0 and len(rr) < len(br)
    # s * a = q * b + r, read back through the reference
    rows = lambda re, im: _trim(GaussRational(x, y) for x, y in zip(re, im))
    lhs = tuple(c * s for c in rows(ar, ai))
    assert lhs == _add(_mul(rows(qr, qi), rows(br, bi)), rows(rr, ri))
    gr, gi = _gcd(ar, ai, br, bi)
    assert _monic(rows(gr, gi)) == _euclid(rows(ar, ai), rows(br, bi))
