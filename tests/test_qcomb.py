"""q-integers, q-multinomials, and their identities."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import gauss_rationals
from starprod.catalog import (
    equivalence_transform,
    log_canonical_table,
    symmetrized_star,
    symmetrized_star_by_averaging,
)
from starprod.poly import Polynomial

from starprod.probes import exponent_ball
from starprod.qcomb import (
    PoleAtRootOfUnity,
    multinomial,
    q_binomial,
    q_factorial,
    q_integer,
    q_multinomial,
    q_multinomial_coefficients,
    q_multinomial_value_or_pole,
    root_of_unity_order,
)
from starprod.scalars import GaussRational, RationalQ, RationalQRing, SeriesRing, make_ring

QR = RationalQRing()
R = make_ring("rational")
C = make_ring("complex")
SMALL_K = [K for d in (1, 2, 3) for K in exponent_ball(d, 6)]


def test_q_integer_and_factorial():
    q = QR.q
    assert q_integer(0, q, QR) == QR.zero
    assert q_integer(3, q, QR) == QR.one + q + q * q
    assert q_factorial(0, q, QR) == QR.one
    assert q_factorial(2, q, QR) == QR.one + q


def test_q_multinomial_one_one():
    q = QR.q
    assert q_multinomial((1, 1), q, QR) == QR.one + q


def test_q_multinomial_single_block_is_one():
    q = QR.q
    for K in ((4, 0, 0), (0, 7), (3,)):
        assert q_multinomial(K, q, QR) == QR.one


def test_q_multinomial_at_q_one_is_classical():
    one = GaussRational(1)
    for K in exponent_ball(3, 5):
        assert q_multinomial(K, one, R) == GaussRational(multinomial(K))


def test_q_binomial_matches_factorial_quotient():
    q = QR.q
    for n in range(7):
        for k in range(n + 1):
            quotient = (q_factorial(n, q, QR)
                        / (q_factorial(k, q, QR) * q_factorial(n - k, q, QR)))
            assert q_binomial(n, k, q, QR) == quotient


def test_coefficients_nonnegative_constant_term_one():
    for K in exponent_ball(3, 6):
        coeffs = q_multinomial_coefficients(K)
        assert coeffs[0] == GaussRational(1)
        for c in coeffs:
            assert c.im == 0 and c.re >= 0 and c.re.denominator == 1


def test_q_inverse_identity():
    q = QR.q
    for d in (2, 3):
        for K in exponent_ball(d, 6):
            pair_sum = (sum(K) ** 2 - sum(k * k for k in K)) // 2
            lhs = q_multinomial(K, q, QR)
            rhs = q ** pair_sum * q_multinomial(K, QR.inverse(q), QR)
            assert lhs == rhs


def test_q_inverse_identity_base_case():
    # (1, 1): 1 + q = q (1 + 1/q)
    q = QR.q
    assert q_multinomial((1, 1), q, QR) == q * q_multinomial((1, 1), QR.inverse(q), QR)


def test_pole_detection_at_minus_one():
    q = GaussRational(-1)
    # [2]_q = 1 + q vanishes at q = -1, so binom_q(1,1) has a zero there
    with pytest.raises(PoleAtRootOfUnity) as err:
        q_multinomial_value_or_pole((1, 1), q, R)
    assert err.value.order == 2


def test_pole_detection_at_i():
    q = GaussRational(0, 1)  # primitive fourth root of unity
    with pytest.raises(PoleAtRootOfUnity) as err:
        q_multinomial_value_or_pole((2, 2), q, R)
    assert err.value.order == 4


def test_root_of_unity_order():
    assert root_of_unity_order(GaussRational(-1), R, 6) == 2
    assert root_of_unity_order(GaussRational(Fraction(3, 2)), R, 6) is None
    C = make_ring("complex")
    import cmath
    assert root_of_unity_order(cmath.exp(2j * cmath.pi / 3), C, 6) == 3


def test_evaluation_at_root_of_unity_is_exact():
    # the Pascal route evaluates where the factorial quotient would divide by zero
    q = GaussRational(-1)
    value = q_multinomial((2, 2), q, R)  # [4;2,2]_q at q = -1
    poly = q_multinomial_coefficients((2, 2))
    expected = sum((c * (q ** k) for k, c in enumerate(poly)), GaussRational(0))
    assert value == expected


def _pair_sum(K):
    return (sum(K) ** 2 - sum(k * k for k in K)) // 2


def _pascal_in_ring(K, q, ring):
    """The q-multinomial by the q-binomial recurrence run in the ring itself."""
    memo = {}

    def binomial(n, k):
        if k < 0 or k > n:
            return ring.zero
        if k in (0, n):
            return ring.one
        if (n, k) not in memo:
            memo[(n, k)] = binomial(n - 1, k - 1) + q ** k * binomial(n - 1, k)
        return memo[(n, k)]

    out, prefix = ring.one, 0
    for k in K:
        prefix += k
        out = out * binomial(prefix, k)
    return out


def test_q_multinomial_is_the_factorial_quotient():
    q = QR.q
    for K in SMALL_K:
        quotient = q_factorial(sum(K), q, QR)
        for k in K:
            quotient = quotient / q_factorial(k, q, QR)
        assert q_multinomial(K, q, QR) == quotient, K


def test_integer_row_is_palindromic_with_classical_sum():
    for K in SMALL_K:
        row = q_multinomial_coefficients(K)
        assert row[0] == 1
        assert len(row) - 1 == _pair_sum(K)
        assert row == row[::-1]
        assert sum(row, GaussRational(0)) == multinomial(K)
        assert RationalQ(row) == q_multinomial(K, QR.q, QR)


@given(st.sampled_from(SMALL_K), gauss_rationals())
def test_exact_values_evaluate_the_integer_row(K, q):
    expected = RationalQ(q_multinomial_coefficients(K)).evaluate(q)
    assert q_multinomial(K, q, R) == expected
    assert q_multinomial(K, q, R) == _pascal_in_ring(K, q, R)


@given(st.sampled_from(SMALL_K), st.lists(gauss_rationals(), min_size=1, max_size=4))
def test_series_values_evaluate_the_integer_row(K, coeffs):
    S = SeriesRing(order=3)
    q = S.from_coefficients(coeffs)
    row = q_multinomial_coefficients(K)
    expected = sum((S.coerce(c) * q ** k for k, c in enumerate(row)), S.zero)
    assert q_multinomial(K, q, S) == expected


@given(st.sampled_from(SMALL_K), gauss_rationals())
def test_complex_values_match_the_exact_ones(K, q):
    exact = complex(q_multinomial(K, q, R))
    scale = sum(abs(complex(c)) * abs(complex(q)) ** k
                for k, c in enumerate(q_multinomial_coefficients(K)))
    assert abs(q_multinomial(K, complex(q), C) - exact) <= 1e-12 * scale


@pytest.mark.parametrize("n", [2, 3, 5])
def test_complex_values_at_roots_of_unity_match_the_ring_recurrence(n):
    q = cmath.exp(2j * cmath.pi / n)
    for K in SMALL_K:
        scale = float(multinomial(K))
        assert abs(q_multinomial(K, q, C) - _pascal_in_ring(K, q, C)) <= 1e-12 * scale, K


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_complex_poles_at_roots_of_unity(n):
    q = cmath.exp(2j * cmath.pi / n)
    # [n-1, 1]_q = [n]_q vanishes at every primitive n-th root of unity
    with pytest.raises(PoleAtRootOfUnity) as err:
        symmetrized_star((n - 1, 0), (0, 1), q, C)
    assert err.value.order == n
    f = Polynomial.monomial(C, 2, (n - 1, 1))
    with pytest.raises(PoleAtRootOfUnity) as err:
        equivalence_transform(f, q, "inverse")
    assert err.value.order == n


@pytest.mark.parametrize("q", [0.7 + 0.4j, cmath.exp(0.9j), -1.3 + 0.2j])
def test_complex_averaging_oracle_matches_closed_form(q):
    for d in (2, 3):
        table = log_canonical_table(C, d, q)
        cache = {}
        for K in exponent_ball(d, 2):
            for L in exponent_ball(d, 2):
                closed = symmetrized_star(K, L, q, C).terms
                oracle = symmetrized_star_by_averaging(K, L, table, cache=cache).terms
                assert set(oracle) == set(closed), (K, L)
                for M, c in closed.items():
                    assert abs(oracle[M] - c) <= 1e-10 * abs(c), (K, L, M)
