"""Rewriting engine: examples on generators, overlaps, brackets, Jacobi."""

import random
from fractions import Fraction

import pytest

from starprod.catalog import (
    log_canonical_table,
    nonquadratic_table,
    quantum_weyl_table,
)
from starprod.params import ParameterRule
from starprod.poly import NcPolynomial, Polynomial
from starprod.probes import random_polynomial
from starprod.reduction import (
    PoissonStructure,
    RelationTable,
    StepLimitExceeded,
    TableError,
    check_overlaps,
    jacobi_check,
    poisson_bracket,
    poisson_from_table,
    reduce_once,
    star_by_reduction,
)
from starprod.scalars import GaussRational, SeriesRing, make_ring

R = make_ring("rational")
Q32 = GaussRational(Fraction(3, 2))


def variables(ring, d, kind="x"):
    return {i: Polynomial.variable(ring, d, i, kind) for i in range(1, d + 1)}


def test_reduce_once_rewrites_rightmost_descent():
    tab = log_canonical_table(R, 2, Q32)
    f = NcPolynomial(R, 2, {(2, 1): R.one})
    out, changed, fired = reduce_once(f, tab)
    assert changed and fired == 1
    assert out.terms == {(1, 2): Q32}


def test_reduce_once_keeps_standard_words():
    tab = log_canonical_table(R, 2, Q32)
    f = NcPolynomial(R, 2, {(1, 2): R.one})
    out, changed, fired = reduce_once(f, tab)
    assert not changed and fired == 0
    assert out.terms == f.terms


def test_nc_polynomial_rejects_letters_outside_the_dimension():
    for word in ((1, 3), (0, 1), (2, -1)):
        with pytest.raises(ValueError):
            NcPolynomial(R, 2, {word: R.one})


def test_reduce_once_rejects_a_dimension_other_than_the_table():
    # the rewrite loop checks no letter, so words enter only at the table's dimension
    tab = log_canonical_table(R, 3, Q32)
    with pytest.raises(TableError):
        reduce_once(NcPolynomial(R, 2, {(2, 1): R.one}), tab)


def test_reduce_once_picks_rightmost_pair():
    tab = log_canonical_table(R, 3, Q32)
    f = NcPolynomial(R, 3, {(3, 2, 1): R.one})
    out, changed, _ = reduce_once(f, tab)
    assert changed
    assert out.terms == {(3, 1, 2): Q32}


def test_star_on_generators():
    tab = log_canonical_table(R, 2, Q32)
    x = variables(R, 2)
    trace = star_by_reduction(x[2], x[1], tab)
    assert trace.result.terms == {(1, 1): Q32}
    assert trace.reduction_count == 1


def test_unit_law_costs_nothing():
    tab = log_canonical_table(R, 2, Q32)
    g = Polynomial(R, 2, {(1, 1): Q32, (0, 2): GaussRational(2)})
    trace = star_by_reduction(Polynomial.one(R, 2), g, tab)
    assert trace.result == g
    assert trace.reduction_count == 0
    assert star_by_reduction(g, Polynomial.one(R, 2), tab).result == g


def test_three_reductions_for_the_triple():
    tab = log_canonical_table(R, 3, Q32)
    x = variables(R, 3)
    inner = star_by_reduction(x[2], x[1], tab)
    outer = star_by_reduction(x[3], inner.result, tab)
    assert outer.result.terms == {(1, 1, 1): Q32 ** 3}
    assert inner.reduction_count + outer.reduction_count == 3


def test_series_tails_must_start_at_order_t():
    ring = SeriesRing(order=4, exact=True)
    bad_tail = Polynomial(ring, 2, {(0, 0): ring.one}, "x")
    with pytest.raises(TableError):
        RelationTable(ring, 2, "x", {(1, 2): bad_tail})


def test_step_limit_guard():
    # x2 x1 -> x1 x2 + x1^2 x2^2 keeps regenerating descents on x2 * x1^2
    ring = make_ring("rational")
    tail = Polynomial(ring, 2, {(2, 2): GaussRational(1)}, "x")
    tab = RelationTable(ring, 2, "x", {(1, 2): tail})
    f = Polynomial.monomial(ring, 2, (0, 1))
    g = Polynomial.monomial(ring, 2, (2, 0))
    with pytest.raises(StepLimitExceeded):
        star_by_reduction(f, g, tab, step_limit=100)


def test_check_overlaps_log_canonical_any_q():
    for q in (Q32, GaussRational(0, 1), GaussRational(Fraction(-7, 3))):
        tab = log_canonical_table(R, 4, q)
        assert check_overlaps(tab).ok


def test_check_overlaps_zero_table():
    tab = RelationTable(R, 3, "x", {})
    assert check_overlaps(tab).ok


def test_check_overlaps_broken_nonquadratic_difference():
    p = GaussRational(2)
    q = GaussRational(Fraction(5, 4))
    r = GaussRational(3)
    s = GaussRational(2)  # not 1/r
    N = 2
    tab = nonquadratic_table(R, N, p, q, r, s)
    report = check_overlaps(tab)
    assert not report.ok
    assert len(report.failures) == 1
    i, j, k, diff = report.failures[0]
    assert (i, j, k) == (1, 2, 3)
    predicted = (p - GaussRational(1)) * (r * s - GaussRational(1))
    assert diff.terms == {(N + 1, 0, 0): predicted}


def test_fixed_nonquadratic_passes_overlaps():
    tab = nonquadratic_table(R, 2, GaussRational(2), GaussRational(Fraction(5, 4)),
                             GaussRational(3))
    assert check_overlaps(tab).ok


def test_poisson_from_log_canonical():
    ring = SeriesRing(order=4, exact=True)
    q = ParameterRule("affine").series(ring)
    tab = log_canonical_table(ring, 2, q)
    eta = poisson_from_table(tab)
    assert eta.bracket(1, 2).terms == {(1, 1): GaussRational(1)}


def test_poisson_from_zero_table():
    ring = SeriesRing(order=4, exact=True)
    eta = poisson_from_table(RelationTable(ring, 3, "x", {}))
    assert eta.bracket(1, 2).is_zero()


def test_poisson_from_nonquadratic():
    ring = SeriesRing(order=4, exact=True)
    scalars = {name: ParameterRule("exp_i").series(ring) for name in ("p", "q", "r")}
    tab = nonquadratic_table(ring, 2, scalars["p"], scalars["q"], scalars["r"])
    eta = poisson_from_table(tab)
    one = GaussRational(1)
    assert eta.bracket(2, 3).terms == {(0, 1, 1): one, (2, 0, 0): one}
    assert eta.bracket(1, 2).terms == {(1, 1, 0): one}
    assert eta.bracket(1, 3).terms == {(1, 0, 1): -one}


def test_poisson_requires_series_mode():
    with pytest.raises(TableError):
        poisson_from_table(log_canonical_table(R, 2, Q32))


def test_poisson_bracket_examples():
    eta = PoissonStructure(R, 2, {(1, 2): Polynomial.monomial(R, 2, (1, 1))})
    x1 = Polynomial.variable(R, 2, 1)
    x2 = Polynomial.variable(R, 2, 2)
    assert poisson_bracket(eta, x2, x1).terms == {(1, 1): GaussRational(1)}
    f = Polynomial.monomial(R, 2, (0, 2))
    assert poisson_bracket(eta, f, x1).terms == {(1, 2): GaussRational(2)}
    assert poisson_bracket(eta, f, f).is_zero()


def test_jacobi_log_canonical_and_zero():
    ring = SeriesRing(order=3, exact=True)
    q = ParameterRule("exp_i").series(ring)
    eta = poisson_from_table(log_canonical_table(ring, 3, q))
    assert jacobi_check(eta)
    assert jacobi_check(PoissonStructure(R, 3, {}))


def test_jacobi_failure_case():
    x2 = Polynomial.variable(R, 3, 2)
    x3 = Polynomial.variable(R, 3, 3)
    eta = PoissonStructure(R, 3, {(1, 2): x2, (2, 3): x3})
    assert not jacobi_check(eta)
    # the Jacobiator of the generators is exactly -x3
    x1 = Polynomial.variable(R, 3, 1)
    jac = (poisson_bracket(eta, x1, poisson_bracket(eta, x2, x3))
           + poisson_bracket(eta, x2, poisson_bracket(eta, x3, x1))
           + poisson_bracket(eta, x3, poisson_bracket(eta, x1, x2)))
    assert jac == -x3


def test_jacobi_over_complex_brackets():
    # log-canonical brackets {x_j, x_i} = c_ij x_i x_j satisfy Jacobi for
    # any constants; the linear pair above does not
    C = make_ring("complex")
    x = variables(C, 3)
    eta = PoissonStructure(C, 3, {(1, 2): (x[1] * x[2]).scale(0.3j),
                                  (1, 3): (x[1] * x[3]).scale(-1.7),
                                  (2, 3): (x[2] * x[3]).scale(0.5 + 2j)})
    assert jacobi_check(eta)
    assert not jacobi_check(PoissonStructure(C, 3, {(1, 2): x[2], (2, 3): x[3]}))


def test_check_overlaps_complex_scales_the_tolerance():
    # with |q| ~ 1e6 per pair the two bracketings of a triple differ by
    # rounding of order 1e2 on coefficients of order 1e17: associative up
    # to the relative tolerance, not absolutely
    C = make_ring("complex")
    rng = random.Random(1)
    tails = {}
    for j in range(2, 5):
        for i in range(1, j):
            q = complex(rng.uniform(1e5, 1e6), rng.uniform(1e5, 1e6))
            K = tuple(1 if p in (i - 1, j - 1) else 0 for p in range(4))
            tails[(i, j)] = Polynomial.monomial(C, 4, K).scale(q - 1)
    tab = RelationTable(C, 4, "x", tails)
    assert check_overlaps(tab).ok
    assert not check_overlaps(tab, tol=0.0).ok
    broken = nonquadratic_table(C, 2, 2.0, 1.25, 3.0, 2.0)  # s is not 1/r
    assert [f[:3] for f in check_overlaps(broken).failures] == [(1, 2, 3)]


def test_confluence_rightmost_vs_leftmost():
    rng = random.Random(7)
    ring = make_ring("rational")
    tables = [
        log_canonical_table(ring, 3, Q32),
        nonquadratic_table(ring, 1, GaussRational(2), GaussRational(Fraction(5, 4)),
                           GaussRational(3)),
    ]
    for tab in tables:
        for _ in range(20):
            f = random_polynomial(rng, ring, tab.dim, 5, 2)
            g = random_polynomial(rng, ring, tab.dim, 5, 2)
            right = star_by_reduction(f, g, tab, strategy="rightmost").result
            left = star_by_reduction(f, g, tab, strategy="leftmost").result
            assert right == left


def test_associativity_series_and_exact():
    rng = random.Random(11)
    sring = SeriesRing(order=4, exact=True)
    q = ParameterRule("exp_i").series(sring)
    tab = log_canonical_table(sring, 3, q)
    for _ in range(10):
        f = random_polynomial(rng, sring, 3, 4, 2)
        g = random_polynomial(rng, sring, 3, 4, 2)
        h = random_polynomial(rng, sring, 3, 4, 2)
        left = star_by_reduction(star_by_reduction(f, g, tab).result, h, tab).result
        right = star_by_reduction(f, star_by_reduction(g, h, tab).result, tab).result
        assert left == right
    exact_tables = [
        (6, log_canonical_table(R, 3, Q32)),
        (4, nonquadratic_table(R, 2, GaussRational(2), Q32, GaussRational(3))),
    ]
    for max_degree, tab2 in exact_tables:
        for _ in range(8):
            f = random_polynomial(rng, R, 3, max_degree, 2)
            g = random_polynomial(rng, R, 3, max_degree, 2)
            h = random_polynomial(rng, R, 3, max_degree, 2)
            left = star_by_reduction(star_by_reduction(f, g, tab2).result, h, tab2).result
            right = star_by_reduction(f, star_by_reduction(g, h, tab2).result, tab2).result
            assert left == right


def test_reduction_count_law_small_sweep():
    from starprod.poly import inversion_weight
    from starprod.probes import exponent_ball
    tab = log_canonical_table(R, 2, Q32)
    for K in exponent_ball(2, 4):
        for L in exponent_ball(2, 4):
            trace = star_by_reduction(Polynomial.monomial(R, 2, K),
                                      Polynomial.monomial(R, 2, L), tab)
            assert trace.reduction_count == inversion_weight(K, L)


def test_quantum_weyl_table_reduction():
    C = make_ring("complex")
    import cmath
    hbar = 0.5
    tab = quantum_weyl_table(C, 1 + 1j * hbar, cmath.exp(1j * hbar))
    x = variables(C, 2)
    res = star_by_reduction(x[2], x[1], tab).result
    assert abs(res.terms[(1, 1)] - cmath.exp(1j * hbar)) < 1e-14
    assert abs(res.terms[(0, 0)] - 1j * hbar) < 1e-14
