"""Deformed evaluations, positivity, the sign-flip isomorphism, GNS data."""

import math
import random

import numpy as np
import pytest

from starprod.catalog import wick_log_canonical_table
from starprod.poly import Polynomial
from starprod.probes import exponent_ball, random_polynomial
from starprod.reduction import star_by_reduction
from starprod.scalars import make_ring
from starprod.states import (
    GRID_VALUES,
    StateError,
    StateFunctional,
    WickPoint,
    gns_build,
    gram_matrix,
    m_matrix,
    nonpositivity_witness,
    point_separation_probe,
    psd_check,
    random_wick_point,
    reversal_isomorphism,
    state_basis,
    vandermonde_psd_check,
)

C = make_ring("complex")


def test_wick_point_validation():
    WickPoint((1 + 2j, 3 + 0j, 1 - 2j))
    with pytest.raises(StateError):
        WickPoint((1 + 2j, 3 + 1j, 1 - 2j))
    with pytest.raises(StateError):
        WickPoint((1j, 1j))


def test_m_matrix_values():
    assert m_matrix(2) == [[0, 0], [0, 0]]
    m3 = m_matrix(3)
    assert m3[1][1] == 1 and m3[0][0] == 0 and m3[0][2] == 0
    m4 = m_matrix(4)
    assert [m4[i][j] for i in (1, 2) for j in (1, 2)] == [1, 1, 1, 1]
    # first and last rows vanish
    assert all(m4[0][j] == 0 and m4[3][j] == 0 for j in range(4))


def test_delta_constant_is_one():
    for d in (2, 3, 4):
        z = random_wick_point(random.Random(d), d)
        for hbar in (-1.0, 0.0, 0.5):
            state = StateFunctional(z, hbar)
            assert state.eval_monomial((0,) * d) == 1


def test_delta_d2_nonpositive_branch_is_plain_evaluation():
    z = WickPoint((0.3 + 0.4j, 0.3 - 0.4j))
    state = StateFunctional(z, -0.8)
    for K in exponent_ball(2, 4):
        assert state.eval_monomial(K) == pytest.approx(state.eval_plain(K))


def test_delta_d2_positive_branch_value():
    z = WickPoint((1 + 0j, 1 + 0j))
    state = StateFunctional(z, 0.9)
    assert state.eval_monomial((1, 1)) == pytest.approx(math.exp(0.9))


def test_witness_values():
    z = WickPoint((1 + 1j, 2 + 0j, 1 - 1j))
    assert nonpositivity_witness(z, math.log(2), 1) == pytest.approx(-0.5)
    assert nonpositivity_witness(z, 0.0, 1) == pytest.approx(0.0)
    assert nonpositivity_witness(z, 1.0, 1) == pytest.approx(math.exp(-1) - 1)


def test_witness_preconditions():
    z = WickPoint((0j, 1 + 0j, 0j))
    with pytest.raises(StateError):
        nonpositivity_witness(z, 0.5, 1)  # z_1 = 0
    z2 = WickPoint((1 + 0j, 1 + 0j))
    with pytest.raises(StateError):
        nonpositivity_witness(z2, 0.5, 2)  # index beyond floor(d/2)


def test_gram_at_zero_point():
    state = StateFunctional(WickPoint((0j, 0j)), 0.7)
    basis, M = gram_matrix(state, 2)
    expected = np.zeros_like(M)
    expected[0, 0] = 1.0
    assert np.allclose(M, expected)


def test_gram_d2_example():
    state = StateFunctional(WickPoint((1 + 0j, 1 + 0j)), math.log(2))
    basis, M = gram_matrix(state, 1)
    assert basis == [(0, 0), (1, 0), (0, 1)]
    assert np.allclose(M, np.array([[1, 1, 1], [1, 1, 1], [1, 1, 2]], dtype=complex))


def test_gram_degree_zero():
    state = StateFunctional(WickPoint((1 + 1j, 1 - 1j)), -0.4)
    _, M = gram_matrix(state, 0)
    assert M.shape == (1, 1) and M[0, 0] == pytest.approx(1.0)


def test_gram_entries_are_deformed_star_squares():
    # M[K, L] agrees with delta(conj(w^K) * w^L) computed by rewriting, on
    # both branches of the deformed evaluation
    d = 3
    for hbar in (0.6, -0.6):
        rng = random.Random(5)
        z = random_wick_point(rng, d)
        state = StateFunctional(z, hbar)
        basis, M = gram_matrix(state, 2)
        table = wick_log_canonical_table(C, d, complex(math.exp(-hbar)))
        for a, K in enumerate(basis):
            for b, L in enumerate(basis):
                wK = Polynomial.monomial(C, d, K, kind="w").conjugate()
                wL = Polynomial.monomial(C, d, L, kind="w")
                product = star_by_reduction(wK, wL, table).result
                assert M[a, b] == pytest.approx(state(product), abs=1e-10), (hbar, K, L)


def test_psd_check_identity_and_witness_matrix():
    assert psd_check(np.eye(3, dtype=complex)).passed
    bad = np.array([[math.exp(-0.5) - 1]], dtype=complex)
    assert not psd_check(bad).passed


def test_psd_check_rejects_non_hermitian():
    with pytest.raises(StateError):
        psd_check(np.array([[0, 1], [0, 0]], dtype=complex))


def test_gram_psd_sweep():
    rng = random.Random(11)
    for d in (2, 3, 4):
        for hbar in (-1.0, -0.1, 0.0, 0.1, 1.0):
            for _ in range(3):
                z = random_wick_point(rng, d)
                _, M = gram_matrix(StateFunctional(z, hbar), 3)
                assert psd_check(M).passed, (d, hbar)


def test_undeformed_gram_fails_for_positive_hbar():
    rng = random.Random(13)
    for d in (2, 3, 4):
        z = random_wick_point(rng, d)
        while abs(z.z[0]) < 0.2:
            z = random_wick_point(rng, d)
        _, M = gram_matrix(StateFunctional(z, 0.8), 2, deformed=False)
        assert not psd_check(M).passed


def test_vandermonde():
    assert vandermonde_psd_check(0.0, 3)
    assert vandermonde_psd_check(-1.0, 2)
    assert vandermonde_psd_check(-0.3, 0)
    with pytest.raises(StateError):
        vandermonde_psd_check(0.5, 3)
    with pytest.raises(StateError):
        vandermonde_psd_check(-0.5, 20)


def test_vandermonde_determinant_value():
    # n=2, hbar=-1: det = (e-1)(e^2-1)(e^2-e)
    n, hbar = 2, -1.0
    V = np.array([[math.exp(-i * j * hbar) for j in range(n + 1)] for i in range(n + 1)])
    e = math.e
    assert np.linalg.det(V) == pytest.approx((e - 1) * (e * e - 1) * (e * e - e), rel=1e-10)


def test_reversal_isomorphism_basics():
    f = Polynomial.monomial(C, 2, (1, 0), kind="w")
    assert reversal_isomorphism(f, 0.8).terms == {(0, 1): pytest.approx(1 + 0j)}
    g = Polynomial.monomial(C, 2, (1, 1), kind="w")
    out = reversal_isomorphism(g, 0.8)
    assert out.terms[(1, 1)] == pytest.approx(math.exp(0.8))


def test_reversal_isomorphism_roundtrip_and_involutions():
    rng = random.Random(2)
    for d in (2, 3):
        for _ in range(10):
            f = random_polynomial(rng, C, d, 4, 3, "w")
            assert reversal_isomorphism(reversal_isomorphism(f, 0.5), 0.5,
                                        "inverse").close_to(f)
            # intertwines the involutions: psi(conj(f)) = conj(psi(f))
            lhs = reversal_isomorphism(f.conjugate(), 0.5)
            rhs = reversal_isomorphism(f, 0.5).conjugate()
            assert lhs.close_to(rhs)


def test_reversal_isomorphism_intertwines_products():
    hbar = 0.7
    d = 3
    plus = wick_log_canonical_table(C, d, complex(math.exp(-hbar)))
    minus = wick_log_canonical_table(C, d, complex(math.exp(hbar)))
    for K in exponent_ball(d, 3):
        for L in exponent_ball(d, 3):
            f = Polynomial.monomial(C, d, K, kind="w")
            g = Polynomial.monomial(C, d, L, kind="w")
            lhs = reversal_isomorphism(star_by_reduction(f, g, plus).result, hbar)
            rhs = star_by_reduction(reversal_isomorphism(f, hbar),
                                    reversal_isomorphism(g, hbar), minus).result
            assert lhs.close_to(rhs, tol=1e-9)


def test_pullback_identity():
    rng = random.Random(3)
    hbar = 0.9
    for d in (2, 3):
        z = random_wick_point(rng, d)
        state = StateFunctional(z, hbar)
        mirror = StateFunctional(WickPoint(tuple(v.conjugate() for v in z.z)), -hbar)
        for K in exponent_ball(d, 4):
            direct = state.eval_monomial(K)
            pulled = mirror(reversal_isomorphism(
                Polynomial.monomial(C, d, K, kind="w"), hbar))
            assert direct == pytest.approx(pulled, abs=1e-10 * max(1, abs(direct)))


def test_gns_zero_point():
    data = gns_build(StateFunctional(WickPoint((0j, 0j)), 0.5), 2)
    assert data.rank == 1
    for op in data.operators.values():
        assert np.allclose(op, 0)


def test_gns_d2_rank_two():
    data = gns_build(StateFunctional(WickPoint((1 + 0j, 1 + 0j)), math.log(2)), 1)
    assert data.rank == 2


def test_gns_adjoint_relation():
    rng = random.Random(23)
    for _ in range(10):
        z = random_wick_point(rng, 2)
        data = gns_build(StateFunctional(z, 0.4), 3)
        assert data.adjoint_residual <= 1e-8


def test_gns_orthonormality():
    rng = random.Random(29)
    z = random_wick_point(rng, 3)
    data = gns_build(StateFunctional(z, 0.3), 2)
    gramian = data.quotient_onb.conj().T @ data.gram @ data.quotient_onb
    assert np.allclose(gramian, np.eye(data.rank), atol=1e-9)


def test_state_basis_order():
    assert state_basis(2, 1) == [(0, 0), (1, 0), (0, 1)]


def test_state_basis_is_a_fresh_list_per_call():
    # the basis is computed once per (dim, degree); callers may still edit
    # what they get
    basis = state_basis(3, 2)
    assert basis == sorted(exponent_ball(3, 2), key=lambda K: (sum(K), tuple(-k for k in K)))
    basis.append((9, 9, 9))
    assert state_basis(3, 2) == basis[:-1]
    assert state_basis(3, 2) is not state_basis(3, 2)


def test_point_separation():
    rng = random.Random(31)
    f = Polynomial.variable(C, 2, 1, "w")
    result = point_separation_probe(f, 0.5, rng)
    assert result.separated
    g = Polynomial(C, 2, {(1, 1): 1 + 0j, (0, 0): -2.37 + 0j}, "w")
    assert point_separation_probe(g, 0.5, rng).separated
    with pytest.raises(StateError):
        point_separation_probe(Polynomial.zero(C, 2, "w"), 0.5, rng)


def test_grid_values():
    assert GRID_VALUES == (-1.0, -0.5, 0.5, 1.0)


def test_continuity_dichotomy():
    # the deformed evaluation is bounded by the squared-exponent norm with
    # weight c e^(d hbar), but its ratio against any rho-norm blows up
    from starprod.norms import NormSpec, seminorm
    rng = random.Random(41)
    for d in (2, 3):
        hbar = 0.8
        z = random_wick_point(rng, d)
        state = StateFunctional(z, hbar)
        c = max([1.0] + [abs(v) for v in z.z])
        weight = c * math.exp(d * hbar)
        for K in exponent_ball(d, 10):
            bound = weight ** (sum(K) ** 2)
            assert abs(state.eval_monomial(K)) <= bound * (1 + 1e-12)
    # unbounded against the rho-norm: w_1^k conj(w_1)^k = w^(k,k) on d=2
    z = WickPoint((1 + 0j, 1 + 0j))
    state = StateFunctional(z, 1.0)
    spec = NormSpec.rho_norm((1.0, 1.0))
    exceeded = False
    for k in range(1, 41):
        mono = Polynomial.monomial(C, 2, (k, k), kind="w")
        ratio = abs(state.eval_monomial((k, k))) / seminorm(mono, spec)
        if ratio > 1e6:
            exceeded = True
            break
    assert exceeded and k <= 40


def test_undeformed_gram_positive_on_middle_axis_for_odd_d():
    # for odd d, plain evaluation stays positive when only the middle
    # (real) coordinate is nonzero
    z = WickPoint((0j, 1.7 + 0j, 0j))
    _, M = gram_matrix(StateFunctional(z, 0.9), 2, deformed=False)
    assert psd_check(M).passed


def test_gram_entries_are_bit_identical_to_the_entry_formula():
    # every bit of every entry, signed zeros included, equals the scalar
    # formula exp(-hbar * inv) * evaluate(rev(K) + L)
    from starprod.poly import inversion_weight
    rng = random.Random(8)
    points = [random_wick_point(rng, d) for d in (1, 2, 3, 4, 5)]
    points.append(WickPoint((0j, 1 + 1j, 1 - 1j, 0j)))
    for point in points:
        for hbar in (-1.0, 0.0, 0.7):
            state = StateFunctional(point, hbar)
            for deformed in (True, False):
                evaluate = state.eval_monomial if deformed else state.eval_plain
                for degree in range(5):
                    basis, M = gram_matrix(state, degree, deformed)
                    expected = np.array(
                        [[math.exp(-hbar * inversion_weight(K[::-1], L))
                          * evaluate(tuple(x + y for x, y in zip(K[::-1], L)))
                          for L in basis] for K in basis], dtype=complex)
                    same = M.view(np.uint64) == expected.view(np.uint64)
                    assert same.all(), (point.z, hbar, deformed, degree)
