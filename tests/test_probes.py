"""Probe behavior: positive runs pass, documented counterexamples fail."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from starprod.catalog import build_catalog
from starprod.params import ParameterCatalog, ParameterRule
from starprod.poly import Polynomial
from starprod.probes import (
    _forgiving_case,
    _poly_digest,
    classical_limit_probe,
    default_hbar_sequence,
    degree_filtration_check,
    first_order_commutator,
    generator_product_bound,
    macgyver_continuity_probe,
    random_coefficient,
    random_exponent,
    random_homogeneous,
    random_polynomial,
    star_series_coefficients,
    submultiplicativity_probe,
)
from starprod.reduction import poisson_from_table
from starprod.scalars import GaussRational, SeriesRing, make_ring

C = make_ring("complex")


def _star(name, hbar, d=2, params=None, options=None):
    rules = ParameterCatalog.from_spec(params) if params else None
    return build_catalog(name, make_ring("complex"), d, rules, hbar, options or {})


def test_degree_filtration_log_canonical_passes(rng):
    inst = _star("log_canonical", 0.7)
    report = degree_filtration_check(inst.star, rng, 2, inst.ring, samples=80)
    assert report.passed
    # homogeneous single-term products preserve total degree exactly
    assert all(c.margin in (0, 0.0) or c.margin >= 0 for c in report.cases)


def test_degree_filtration_unit_case(rng):
    inst = _star("log_canonical", 0.7)
    one = Polynomial.one(inst.ring, 2)
    g = Polynomial.monomial(inst.ring, 2, (1, 2))
    product = inst.star(one, g)
    assert product.min_total_degree() == g.min_total_degree()


def test_degree_filtration_fails_for_quantum_weyl(rng):
    # z * y contains the constant i*hbar, so the order drops below o(z)+o(y)
    inst = _star("quantum_weyl", 0.5, d=2, options={"lambda": 1})
    report = degree_filtration_check(inst.star, rng, 2, inst.ring, samples=120)
    assert not report.passed


def test_submultiplicativity_passes_log_canonical(rng):
    inst = _star("log_canonical", 0.7)
    report = submultiplicativity_probe(inst.star, (1.5, 0.8), rng, 2, inst.ring,
                                       samples=300, max_degree=6)
    assert report.passed
    assert report.worst_margin >= -1e-10


def test_submultiplicativity_monomial_equality():
    # single monomials: |q|^(K_2 L_1) rho^(K+L) <= rho^K rho^L with |q| <= 1
    inst = _star("log_canonical", 0.7)
    K, L = (0, 3), (2, 0)
    lhs = inst.star.monomial_product(K, L)
    assert abs(abs(lhs.terms[(2, 3)]) - abs(cmath.exp(0.7j)) ** 6) < 1e-12


def test_submultiplicativity_fails_for_affine_q(rng):
    # |1 + i hbar| > 1 at hbar = 1: high antidiagonal monomials break the bound
    inst = _star("log_canonical", 1.0, params={"q": "affine"})
    report = submultiplicativity_probe(inst.star, (1.0, 1.0), rng, 2, inst.ring,
                                       samples=50, max_degree=8)
    assert not report.passed


def test_a_nan_left_hand_side_fails_a_forgiving_case():
    cases = []
    assert not _forgiving_case(cases, "nan", math.nan, 1.0, 1e-10)
    assert _forgiving_case(cases, "rounding", 1.0 + 1e-12, 1.0, 1e-10)
    assert [case.digest for case in cases] == ["nan", "rounding"]


def test_submultiplicativity_fails_on_a_product_with_a_nan_coefficient(rng):
    def nan_star(f, g):
        return Polynomial(C, 2, {(1, 1): complex(math.nan, 0.0)})

    report = submultiplicativity_probe(nan_star, (1.0, 1.0), rng, 2, C, samples=3,
                                       max_degree=2)
    assert not report.passed
    assert all(math.isnan(case.lhs) for case in report.cases)


def test_submultiplicativity_wick(rng):
    inst = _star("wick_log_canonical", 0.5, d=3)
    report = submultiplicativity_probe(inst.star, (0.9, 1.2, 0.7), rng, 3, inst.ring,
                                       samples=200, max_degree=5, kind="w")
    assert report.passed


def test_macgyver_probe_log_canonical(rng):
    inst = _star("log_canonical", 0.4)
    report = macgyver_continuity_probe(inst.star, C=2.0, alpha=1.0, beta=1.0,
                                       rng=rng, Q=1.0, samples=60, sweep_degree=3)
    assert report.passed
    assert not report.meta["hypothesis_violations"]


def test_macgyver_probe_nonquadratic_beta(rng):
    N = 2
    inst = _star("nonquadratic", 0.3, d=3, options={"N": N})
    count, sup = generator_product_bound(inst.star)
    report = macgyver_continuity_probe(inst.star, C=1.5, alpha=1.0, beta=float(max(1, N)),
                                       rng=rng, Q=max(1, count * sup), samples=40,
                                       max_degree=3, sweep_degree=3)
    assert report.passed
    assert not report.meta["hypothesis_violations"]


def test_macgyver_output_order_violation_detected(rng):
    # beta too small: x^K * x^L has order |K| + |L| > beta (|K| + |L|)
    inst = _star("log_canonical", 0.4)
    report = macgyver_continuity_probe(inst.star, C=2.0, alpha=1.0, beta=0.5,
                                       rng=rng, Q=1.0, samples=10, sweep_degree=3)
    violations = report.meta["hypothesis_violations"]
    assert violations and {v["kind"] for v in violations} == {"output_order"}
    assert not report.passed


def test_macgyver_zero_factor(rng):
    inst = _star("log_canonical", 0.4)
    zero = Polynomial.zero(inst.ring, 2)
    f = Polynomial.monomial(inst.ring, 2, (1, 1))
    assert inst.star(zero, f).is_zero()


def test_macgyver_hypothesis_violation_detected(rng):
    # alpha too small: the sweep must flag reduction counts above alpha(|K|+|L|)^2
    inst = _star("log_canonical", 0.4)
    report = macgyver_continuity_probe(inst.star, C=2.0, alpha=0.01, beta=1.0,
                                       rng=rng, Q=1.0, samples=10, sweep_degree=3)
    assert report.meta["hypothesis_violations"]
    assert not report.passed


def test_classical_limit_log_canonical():
    rng = random.Random(17)
    inst0 = _star("log_canonical", 0.0)
    from starprod.catalog import catalog_poisson
    eta = catalog_poisson("log_canonical", d=2)

    def star_at(h):
        return _star("log_canonical", h).star

    ring = make_ring("complex")
    pairs = [(Polynomial.variable(ring, 2, 2), Polynomial.variable(ring, 2, 1))]
    pairs += [(random_polynomial(rng, ring, 2, 3, 2), random_polynomial(rng, ring, 2, 3, 2))
              for _ in range(8)]
    report = classical_limit_probe(star_at, eta, pairs, (1.0, 1.0))
    assert report.passed
    orders = report.meta["orders"]
    assert all(0.8 <= o <= 1.2 for o in orders)


def test_classical_limit_fails_against_a_bracket_off_by_one_percent():
    # the negative control of the probe above: the same nine pairs against
    # 101/100 times the bracket; the residuals stop falling with h
    rng = random.Random(17)
    from starprod.catalog import catalog_poisson
    from starprod.reduction import PoissonStructure
    eta = catalog_poisson("log_canonical", d=2)
    off = {key: b.scale(Fraction(101, 100)) for key, b in eta.brackets.items()}
    scaled = PoissonStructure(eta.ring, eta.dim, off, eta.kind)
    ring = make_ring("complex")
    pairs = [(Polynomial.variable(ring, 2, 2), Polynomial.variable(ring, 2, 1))]
    pairs += [(random_polynomial(rng, ring, 2, 3, 2), random_polynomial(rng, ring, 2, 3, 2))
              for _ in range(8)]
    report = classical_limit_probe(lambda h: _star("log_canonical", h).star, scaled, pairs,
                                   (1.0, 1.0))
    assert not report.passed
    assert sum(case.margin < 0 for case in report.cases) == 7
    assert all(order < 0.3 for order in report.meta["orders"])


def test_classical_limit_constants_trivial():
    from starprod.catalog import catalog_poisson
    eta = catalog_poisson("log_canonical", d=2)
    ring = make_ring("complex")

    def star_at(h):
        return _star("log_canonical", h).star

    pairs = [(Polynomial.constant(ring, 2, 2 + 1j), Polynomial.constant(ring, 2, -3))]
    report = classical_limit_probe(star_at, eta, pairs, (1.0, 1.0))
    assert report.passed
    assert report.meta["orders"] == []


def test_classical_limit_quantum_weyl():
    # Delta(h) for (z, y) tends to yz + 1
    from starprod.catalog import catalog_poisson
    eta = catalog_poisson("quantum_weyl", options={"lambda": 1})
    ring = make_ring("complex")

    def star_at(h):
        return _star("quantum_weyl", h, options={"lambda": 1}).star

    y = Polynomial.variable(ring, 2, 1)
    z = Polynomial.variable(ring, 2, 2)
    report = classical_limit_probe(star_at, eta, [(z, y)], (1.0, 1.0))
    assert report.passed
    h = 0.01
    product = star_at(h)
    delta = (product(z, y) - product(y, z)).scale(1 / (1j * h))
    assert abs(delta.terms[(1, 1)] - (cmath.exp(1j * h) - 1) / (1j * h)) < 1e-12
    assert abs(delta.terms[(0, 0)] - 1) < 1e-12


def test_classical_limit_builds_each_product_once():
    from starprod.catalog import catalog_poisson
    eta = catalog_poisson("log_canonical", d=2)
    ring = make_ring("complex")
    rng = random.Random(5)
    calls = []

    def star_at(h):
        calls.append(h)
        return _star("log_canonical", h).star

    hbars = default_hbar_sequence(points=5)
    pairs = [(random_polynomial(rng, ring, 2, 3, 2), random_polynomial(rng, ring, 2, 3, 2))
             for _ in range(4)]
    report = classical_limit_probe(star_at, eta, pairs, (1.0, 1.0), hbars=hbars)
    assert calls == hbars
    assert report.passed and len(report.cases) == 4
    for case, (f, g) in zip(report.cases, pairs):
        case.settle()
        assert case.digest == _poly_digest(f, g)


def test_hbar_sequence_default():
    seq = default_hbar_sequence()
    assert len(seq) == 11
    assert seq[0] == pytest.approx(1e-1)
    assert seq[-1] == pytest.approx(1e-6)


# -- series coefficients ----------------------------------------------------------


def test_series_coefficients_b0_is_product():
    ring = SeriesRing(order=4, exact=True)
    inst = build_catalog("log_canonical", ring, d=2)
    rng = random.Random(3)
    f = random_polynomial(rng, ring, 2, 3, 2)
    g = random_polynomial(rng, ring, 2, 3, 2)
    b = star_series_coefficients(f, g, inst.table, 2)
    base = ring.base
    f0 = f.map_coefficients(lambda s: s.coefficient(0), base)
    g0 = g.map_coefficients(lambda s: s.coefficient(0), base)
    assert b[0] == f0 * g0


def test_series_coefficients_b1_affine():
    ring = SeriesRing(order=4, exact=True)
    rules = ParameterCatalog({"q": ParameterRule("affine")})
    inst = build_catalog("log_canonical", ring, d=2, rules=rules)
    x1 = Polynomial.variable(ring, 2, 1)
    x2 = Polynomial.variable(ring, 2, 2)
    b = star_series_coefficients(x2, x1, inst.table, 1)
    assert b[1].terms == {(1, 1): GaussRational(0, 1)}
    b_other = star_series_coefficients(x1, x2, inst.table, 1)
    assert b_other[1].is_zero()


def test_series_coefficients_b2_exponential():
    # q = e^(it): coefficient of t^2 in q^2 x1 x2^2 is -2
    ring = SeriesRing(order=4, exact=True)
    inst = build_catalog("log_canonical", ring, d=2)
    f = Polynomial.monomial(ring, 2, (0, 2))
    g = Polynomial.monomial(ring, 2, (1, 0))
    b = star_series_coefficients(f, g, inst.table, 2)
    assert b[2].terms == {(1, 2): GaussRational(-2)}


def test_first_order_commutator_matches_bracket():
    ring = SeriesRing(order=3, exact=True)
    inst = build_catalog("log_canonical", ring, d=2)
    eta = poisson_from_table(inst.table)
    x1 = Polynomial.variable(ring, 2, 1)
    x2 = Polynomial.variable(ring, 2, 2)
    antisym = first_order_commutator(x2, x1, inst.table)
    assert antisym.terms == {(1, 1): GaussRational(0, 1)}


def test_nonquadratic_continuity_instance():
    # p = q = e^(i hbar), r = 1, hbar real: the rho-norm of a product is
    # bounded by the bigger-weight norms with rho' = 2 C rho^(N+1), C = 2
    rng = random.Random(77)
    from starprod.norms import NormSpec, seminorm
    N = 2
    hbar = 0.9
    rules = ParameterCatalog({"p": ParameterRule("exp_i"), "q": ParameterRule("exp_i"),
                              "r": ParameterRule.parse("const:1")})
    inst = build_catalog("nonquadratic", make_ring("complex"), 3, rules, hbar,
                         {"N": N})
    varrho = 1.3
    rho = NormSpec.rho_norm((varrho,) * 3)
    rho_prime = NormSpec.rho_norm((2 * 2 * varrho ** (N + 1),) * 3)
    for _ in range(60):
        f = random_polynomial(rng, inst.ring, 3, 4, 3)
        g = random_polynomial(rng, inst.ring, 3, 4, 3)
        lhs = seminorm(inst.star(f, g), rho)
        rhs = seminorm(f, rho_prime) * seminorm(g, rho_prime)
        assert lhs <= rhs * (1 + 1e-10)


def test_symmetrized_growth_probe():
    from starprod.probes import symmetrized_coefficient_bound, symmetrized_growth_probe
    for q in (0.6 + 0.1j, 1.7 - 0.2j):
        report = symmetrized_growth_probe(q, 2, (1.1, 0.8), max_degree=5)
        assert report.passed, (q, report.worst_margin)
    with pytest.raises(ValueError):
        symmetrized_coefficient_bound(cmath.exp(0.3j), 2)


# -- random inputs and deferred digests ---------------------------------------------


def _reference_random_polynomial(rng, ring, dim, max_degree, terms, kind):
    # the builder before it shared a body with random_homogeneous
    out = {}
    for _ in range(terms):
        K = random_exponent(rng, dim, rng.randint(0, max_degree))
        out[K] = random_coefficient(rng, ring)
    f = Polynomial(ring, dim, out, kind)
    if f.is_zero():
        return Polynomial.monomial(ring, dim, random_exponent(rng, dim, max(1, max_degree)),
                                   random_coefficient(rng, ring), kind), True
    return f, False


def _reference_random_homogeneous(rng, ring, dim, degree, terms, kind):
    out = {}
    for _ in range(terms):
        out[random_exponent(rng, dim, degree)] = random_coefficient(rng, ring)
    f = Polynomial(ring, dim, out, kind)
    if f.is_zero():
        return Polynomial.monomial(ring, dim, random_exponent(rng, dim, degree),
                                   random_coefficient(rng, ring), kind), True
    return f, False


def test_random_builders_keep_every_draw():
    # same terms in the same order, and the generator left in the same state,
    # so every seeded input (and every digest of one) is unchanged; one term
    # over an exact ring is zero often enough to reach the fallback
    fallbacks = 0
    for ring_name in ("rational", "complex", "series"):
        ring = make_ring(ring_name, truncation_order=3)
        for seed in range(3):
            for dim, degree, terms, kind in ((2, 4, 3, "x"), (3, 3, 1, "w"), (1, 0, 1, "x")):
                for build, reference in ((random_polynomial, _reference_random_polynomial),
                                         (random_homogeneous, _reference_random_homogeneous)):
                    new_rng = random.Random(f"{ring_name}:{seed}")
                    old_rng = random.Random(f"{ring_name}:{seed}")
                    for _ in range(150):
                        got = build(new_rng, ring, dim, degree, terms, kind)
                        expected, fell_back = reference(old_rng, ring, dim, degree, terms, kind)
                        fallbacks += fell_back
                        assert (got.ring, got.dim, got.kind) == (ring, dim, kind)
                        assert list(got.terms.items()) == list(expected.terms.items())
                    assert new_rng.getstate() == old_rng.getstate()
    assert fallbacks > 0


def test_draws_take_what_randrange_randint_and_uniform_take():
    # the builders above share these draws, so they are checked here against
    # the Random methods themselves: same values, generator in the same state
    ring_r, ring_c = make_ring("rational"), make_ring("complex")
    for seed in range(20):
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        for dim in (1, 2, 3, 4, 5, 7, 8):
            for degree in range(6):
                K = [0] * dim
                for _ in range(degree):
                    K[old_rng.randrange(dim)] += 1
                assert random_exponent(new_rng, dim, degree) == tuple(K)
            assert random_coefficient(new_rng, ring_r) == GaussRational(
                Fraction(old_rng.randint(-9, 9), old_rng.randint(1, 9)),
                Fraction(old_rng.randint(-9, 9), old_rng.randint(1, 9)))
            expected = complex(old_rng.uniform(-1, 1), old_rng.uniform(-1, 1))
            assert repr(random_coefficient(new_rng, ring_c)) == repr(expected)
        assert new_rng.getstate() == old_rng.getstate()


def test_deferred_digests_name_each_case_inputs():
    # each case's digest is the digest of its own pair, not the loop's last
    inst = _star("log_canonical", 0.7)
    seen = []

    def recording_star(f, g):
        seen.append((f, g))
        return inst.star(f, g)

    report = degree_filtration_check(recording_star, random.Random(3), 2, inst.ring,
                                     samples=12)
    assert all(callable(c.digest) for c in report.cases)
    digests = [c.to_row()["digest"] for c in report.cases]
    assert digests == [_poly_digest(f, g) for f, g in seen]
    assert len(set(digests)) > 1
    report = submultiplicativity_probe(inst.star, (1.0, 1.0), random.Random(3), 2,
                                       inst.ring, samples=3, max_degree=2)
    for case in report.cases:
        case.settle(keep=False)
        assert case.digest is None
