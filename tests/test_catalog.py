"""Closed-form products against the rewrite engine and each other."""

import cmath
import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from starprod.catalog import (
    CatalogError,
    _climb_weight,
    _distinct_arrangements,
    _nonquadratic_route,
    _nonquadratic_terms,
    _quantum_weyl_route,
    SigmaError,
    build_catalog,
    catalog_poisson,
    equivalence_transform,
    log_canonical_star,
    log_canonical_table,
    nonquadratic_star,
    nonquadratic_table,
    quantum_weyl_star,
    quantum_weyl_table,
    symmetrized_star,
    symmetrized_star_by_averaging,
    translated_star,
    translated_table,
    wick_involution_condition,
    wick_log_canonical_table,
    wick_star,
)
from starprod.norms import NormSpec, seminorm
from starprod.params import ParameterCatalog, ParameterRule
from starprod.poly import DimensionMismatch, Polynomial
from starprod.probes import (
    exponent_ball,
    random_coefficient,
    random_exponent,
    random_polynomial,
)
from starprod.qcomb import PoleAtRootOfUnity
from starprod.reduction import poisson_from_table, star_by_reduction
from starprod.scalars import GaussRational, SeriesRing, make_ring, scalar_power

R = make_ring("rational")
C = make_ring("complex")
Q32 = GaussRational(Fraction(3, 2))


# -- log-canonical ------------------------------------------------------------------


def test_log_canonical_examples():
    prod = log_canonical_star((0, 1), (1, 0), Q32, R)
    assert prod.terms == {(1, 1): Q32}
    assert log_canonical_star((3, 1), (0, 0), Q32, R).terms == {(3, 1): GaussRational(1)}
    prod3 = log_canonical_star((0, 1, 1), (1, 1, 0), Q32, R)
    assert prod3.terms == {(1, 2, 1): Q32 ** 3}


def test_log_canonical_matches_reduction():
    tab = log_canonical_table(R, 3, Q32)
    for K in exponent_ball(3, 3):
        for L in exponent_ball(3, 3):
            closed = log_canonical_star(K, L, Q32, R)
            reduced = star_by_reduction(Polynomial.monomial(R, 3, K),
                                        Polynomial.monomial(R, 3, L), tab).result
            assert closed == reduced


# -- Wick type ---------------------------------------------------------------------


def test_wick_star_examples():
    prod = wick_star((0, 1), (1, 0), Q32, R)
    assert prod.kind == "w"
    assert prod.terms == {(1, 1): Q32}
    assert wick_star((2, 1), (0, 0), Q32, R).terms == {(2, 1): GaussRational(1)}


def test_wick_involution_compatibility_real_q():
    # conj(f * g) = conj(g) * conj(f) for real evaluated q
    rng = random.Random(3)
    q = math.exp(-0.5) + 0j
    tab = wick_log_canonical_table(C, 3, q)
    for _ in range(15):
        f = random_polynomial(rng, C, 3, 3, 2, "w")
        g = random_polynomial(rng, C, 3, 3, 2, "w")
        lhs = star_by_reduction(f, g, tab).result.conjugate()
        rhs = star_by_reduction(g.conjugate(), f.conjugate(), tab).result
        assert lhs.close_to(rhs)


def test_wick_involution_condition_real_vs_complex_q():
    ring = SeriesRing(order=3, exact=True)
    real_q = ParameterRule("exp_neg").series(ring)
    assert wick_involution_condition(wick_log_canonical_table(ring, 2, real_q))
    from starprod.reduction import RelationTable
    assert wick_involution_condition(RelationTable(ring, 2, "w", {}))
    # q = 1 - t + i t^2 breaks the condition at second order
    i = GaussRational(0, 1)
    twisted = ring.from_coefficients([GaussRational(1), GaussRational(-1), i])
    assert not wick_involution_condition(wick_log_canonical_table(ring, 2, twisted))


def test_wick_series_requires_minus_t():
    ring = SeriesRing(order=3, exact=True)
    with pytest.raises(CatalogError):
        wick_star((1, 0), (0, 1), ParameterRule("exp_i").series(ring), ring)


# -- the d=3 word-sum family ---------------------------------------------------------


def step_weight(m, prefix, bit, p, q, r, N, ring):
    """Weight of extending a binary word by one letter: the per-word reference.

    bit 0 contributes q^(m - ones(prefix)); bit 1 contributes
    (p - 1) * sum_{j < m - ones(prefix)} (q r^N)^j.
    """
    ones = sum(prefix)
    if bit == 0:
        return q ** (m - ones)
    return _climb_weight(m - ones, p, q * scalar_power(ring, r, N), ring)


def word_weight(m, word, p, q, r, N, ring):
    """Product of step weights along a binary word, with r^(-N ones) twists."""
    acc = ring.one
    ones = 0
    for idx, bit in enumerate(word):
        acc = acc * scalar_power(ring, r, -N * ones)
        acc = acc * step_weight(m, word[:idx], bit, p, q, r, N, ring)
        ones += bit
    return acc


def test_word_weights():
    p, q, r = GaussRational(2), Q32, GaussRational(3)
    N = 2
    assert word_weight(5, (), p, q, r, N, R) == GaussRational(1)
    assert step_weight(1, (), 1, p, q, r, N, R) == p - GaussRational(1)
    expected = (p - GaussRational(1)) * (GaussRational(1) + q * r ** N)
    assert step_weight(2, (), 1, p, q, r, N, R) == expected


def test_nonquadratic_generator_products():
    p, q, r = GaussRational(2), Q32, GaussRational(3)
    N = 2
    zy = nonquadratic_star((0, 0, 1), (0, 1, 0), p, q, r, N, R)
    assert zy.terms == {(0, 1, 1): q, (N, 0, 0): p - GaussRational(1)}
    yx = nonquadratic_star((0, 1, 0), (1, 0, 0), p, q, r, N, R)
    assert yx.terms == {(1, 1, 0): r}


def test_nonquadratic_matches_reduction_on_monomials():
    p, q, r = GaussRational(2), Q32, GaussRational(3)
    for N in (0, 1, 2):
        tab = nonquadratic_table(R, N, p, q, r)
        for K in exponent_ball(3, 3):
            for L in exponent_ball(3, 3):
                closed = nonquadratic_star(K, L, p, q, r, N, R)
                reduced = star_by_reduction(Polynomial.monomial(R, 3, K),
                                            Polynomial.monomial(R, 3, L), tab).result
                assert closed == reduced, (N, K, L)


def test_nonquadratic_xyz_squared():
    p, q, r = GaussRational(2), Q32, GaussRational(3)
    tab = nonquadratic_table(R, 2, p, q, r)
    e = (1, 1, 1)
    closed = nonquadratic_star(e, e, p, q, r, 2, R)
    reduced = star_by_reduction(Polynomial.monomial(R, 3, e),
                                Polynomial.monomial(R, 3, e), tab).result
    assert closed == reduced


def test_nonquadratic_poisson_structure():
    eta = catalog_poisson("nonquadratic", options={"N": 3})
    one = GaussRational(1)
    assert eta.bracket(2, 3).terms == {(0, 1, 1): one, (3, 0, 0): one}
    assert eta.bracket(1, 2).terms == {(1, 1, 0): one}
    assert eta.bracket(1, 3).terms == {(1, 0, 1): -one}


# -- quantum Weyl -------------------------------------------------------------------


def test_quantum_weyl_relation():
    hbar, lam = 0.5, 1.0
    p = 1 + 1j * hbar
    q = cmath.exp(1j * lam * hbar)
    zy = quantum_weyl_star((0, 1), (1, 0), p, q, C)
    assert abs(zy.terms[(1, 1)] - q) < 1e-14
    assert abs(zy.terms[(0, 0)] - 1j * hbar) < 1e-14
    yz = quantum_weyl_star((1, 0), (0, 1), p, q, C)
    assert yz.terms == {(1, 1): 1 + 0j}


def test_quantum_weyl_lambda_zero_is_weyl():
    hbar = 0.25
    zy = quantum_weyl_star((0, 1), (1, 0), 1 + 1j * hbar, 1 + 0j, C)
    assert abs(zy.terms[(1, 1)] - 1) < 1e-14
    assert abs(zy.terms[(0, 0)] - 1j * hbar) < 1e-14


def test_quantum_weyl_rejects_x_exponent():
    with pytest.raises(CatalogError):
        quantum_weyl_star((1, 0, 1), (0, 1, 0), 1 + 0.5j, 1 + 0j, C)


def test_quantum_weyl_poisson():
    eta = catalog_poisson("quantum_weyl", options={"lambda": 1})
    one = GaussRational(1)
    assert eta.bracket(1, 2).terms == {(1, 1): one, (0, 0): one}


# -- symmetrized --------------------------------------------------------------------


def test_symmetrized_generator_coefficients():
    one = GaussRational(1)
    s12 = symmetrized_star((1, 0), (0, 1), Q32, R)
    assert s12.terms == {(1, 1): GaussRational(2) / (one + Q32)}
    s21 = symmetrized_star((0, 1), (1, 0), Q32, R)
    assert s21.terms == {(1, 1): GaussRational(2) * Q32 / (one + Q32)}


def test_symmetrized_unit():
    f = symmetrized_star((2, 1), (0, 0), Q32, R)
    assert f.terms == {(2, 1): GaussRational(1)}


def test_symmetrized_against_oracle():
    rng = random.Random(0)
    qs = [GaussRational(Fraction(3, 2)), GaussRational(Fraction(5, 7)),
          GaussRational(Fraction(-2, 3)), GaussRational(Fraction(7, 4)),
          GaussRational(Fraction(1, 5))]
    for q in qs:
        tab = log_canonical_table(R, 2, q)
        for K in exponent_ball(2, 3):
            for L in exponent_ball(2, 3):
                assert symmetrized_star(K, L, q, R) == \
                    symmetrized_star_by_averaging(K, L, tab)


def test_oracle_commutative_at_q_one():
    tab = log_canonical_table(R, 2, GaussRational(1))
    out = symmetrized_star_by_averaging((2, 1), (1, 1), tab)
    assert out.terms == {(3, 2): GaussRational(1)}


def test_oracle_zero_exponent():
    tab = log_canonical_table(R, 2, Q32)
    assert symmetrized_star_by_averaging((0, 0), (1, 2), tab).terms == \
        {(1, 2): GaussRational(1)}


def test_oracle_guard():
    tab = log_canonical_table(R, 2, Q32)
    with pytest.raises(SigmaError):
        symmetrized_star_by_averaging((7, 0), (0, 0), tab)


def test_oracle_degenerates_at_root_of_unity():
    # at q = -1 the symmetrization kills x1*x2, so it cannot be inverted
    tab = log_canonical_table(R, 2, GaussRational(-1))
    with pytest.raises(SigmaError):
        symmetrized_star_by_averaging((1, 0), (0, 1), tab)


def test_oracle_rejects_a_non_diagonal_symmetrization():
    # on the quantum Weyl table sym(x1 x2) = (1+q)/2 x1 x2 + (p-1)/2 has a
    # constant term, so it cannot be inverted monomial by monomial
    ring = SeriesRing(order=3)
    p, q = ParameterRule("affine").series(ring), ParameterRule("exp_i").series(ring)
    tab = quantum_weyl_table(ring, p, q)
    with pytest.raises(SigmaError, match="not diagonal"):
        symmetrized_star_by_averaging((1, 0), (0, 1), tab)


def test_symmetrized_pole_raises():
    with pytest.raises(PoleAtRootOfUnity):
        symmetrized_star((1, 0), (0, 1), GaussRational(-1), R)


@pytest.mark.parametrize("ring_name", ["series", "rational_q"])
def test_symmetrized_pole_raises_over_every_exact_ring(ring_name):
    # [2]_q = 1 + q vanishes at the constant q = -1 in these rings as well
    ring = make_ring(ring_name, truncation_order=2)
    with pytest.raises(PoleAtRootOfUnity, match="order 2"):
        symmetrized_star((1, 0), (0, 1), ring.coerce(GaussRational(-1)), ring)


def test_symmetrized_series_mode():
    ring = SeriesRing(order=4, exact=True)
    q = ParameterRule("exp_i").series(ring)
    out = symmetrized_star((1, 0), (0, 1), q, ring)
    coeff = out.terms[(1, 1)]
    # 2/(1+q) = 1 - it/2 + O(t^2) for q = 1 + it + ...
    assert coeff.coefficient(0) == GaussRational(1)
    assert coeff.coefficient(1) == GaussRational(0, Fraction(-1, 2))


def test_symmetrized_hermitian_for_unimodular_q():
    # conj(f sym g) = conj(g) sym conj(f) when |q| = 1
    rng = random.Random(9)
    q = cmath.exp(0.7j)

    def sym(f, g):
        acc = Polynomial.zero(C, 2)
        for K, a in f.terms.items():
            for L, b in g.terms.items():
                acc = acc + symmetrized_star(K, L, q, C).scale(a * b)
        return acc

    for _ in range(10):
        f = random_polynomial(rng, C, 2, 3, 2)
        g = random_polynomial(rng, C, 2, 3, 2)
        assert sym(f, g).conjugate().close_to(sym(g.conjugate(), f.conjugate()))


# -- equivalence transform ------------------------------------------------------------


def test_equivalence_transform_values():
    one = GaussRational(1)
    x1 = Polynomial.monomial(R, 2, (1, 0))
    assert equivalence_transform(x1, Q32) == x1
    f = Polynomial.monomial(R, 2, (1, 1))
    assert equivalence_transform(f, Q32).terms == {(1, 1): (one + Q32) / GaussRational(2)}


def test_equivalence_transform_roundtrip():
    rng = random.Random(4)
    for _ in range(10):
        f = random_polynomial(rng, R, 2, 4, 3)
        back = equivalence_transform(equivalence_transform(f, Q32, "forward"),
                                     Q32, "inverse")
        assert back == f


def test_equivalence_transform_intertwines():
    tab = log_canonical_table(R, 2, Q32)
    for K in exponent_ball(2, 2):
        for L in exponent_ball(2, 2):
            f = Polynomial.monomial(R, 2, K)
            g = Polynomial.monomial(R, 2, L)
            direct = symmetrized_star(K, L, Q32, R)
            via_t = equivalence_transform(
                star_by_reduction(equivalence_transform(f, Q32),
                                  equivalence_transform(g, Q32), tab).result,
                Q32, "inverse")
            assert direct == via_t


# -- translated ----------------------------------------------------------------------


def test_translated_zero_offset_is_plain():
    base = log_canonical_table(R, 2, Q32)
    f = Polynomial.monomial(R, 2, (1, 2))
    g = Polynomial.monomial(R, 2, (2, 0))
    plain = star_by_reduction(f, g, base).result
    assert translated_star(f, g, base, [Fraction(0), Fraction(0)]) == plain


def test_translated_bracket():
    ring = SeriesRing(order=3, exact=True)
    q = ParameterRule("exp_i").series(ring)
    base = log_canonical_table(ring, 2, q)
    c1, c2 = Fraction(1), Fraction(-1)
    shifted = translated_table(base, [c1, c2])
    eta = poisson_from_table(shifted)
    one = GaussRational(1)
    assert eta.bracket(1, 2).terms == {
        (1, 1): one,
        (1, 0): GaussRational(c2),
        (0, 1): GaussRational(c1),
        (0, 0): GaussRational(c1 * c2),
    }


def test_translated_associativity():
    rng = random.Random(12)
    base = log_canonical_table(R, 2, Q32)
    c = [Fraction(1), Fraction(-1)]
    for _ in range(8):
        f = random_polynomial(rng, R, 2, 3, 2)
        g = random_polynomial(rng, R, 2, 3, 2)
        h = random_polynomial(rng, R, 2, 3, 2)
        left = translated_star(translated_star(f, g, base, c), h, base, c)
        right = translated_star(f, translated_star(g, h, base, c), base, c)
        assert left == right


def test_translated_closure_matches_translated_table():
    base = log_canonical_table(R, 2, Q32)
    c = [Fraction(1), Fraction(-1)]
    shifted = translated_table(base, c)
    for K in exponent_ball(2, 3):
        for L in exponent_ball(2, 3):
            f = Polynomial.monomial(R, 2, K)
            g = Polynomial.monomial(R, 2, L)
            assert translated_star(f, g, base, c) == \
                star_by_reduction(f, g, shifted).result


# -- registry ------------------------------------------------------------------------


def test_build_catalog_defaults():
    inst = build_catalog("log_canonical", C, d=2, hbar=0.5)
    f = Polynomial.variable(C, 2, 2)
    g = Polynomial.variable(C, 2, 1)
    out = inst.star(f, g)
    assert abs(out.terms[(1, 1)] - cmath.exp(0.5j)) < 1e-14


def test_build_catalog_unknown():
    with pytest.raises(CatalogError):
        build_catalog("moyal", C)


def test_first_order_antisymmetrization_is_bracket():
    # order-t part of the commutator reproduces the bracket on every catalog
    from starprod.probes import first_order_commutator
    rng = random.Random(21)
    ring = SeriesRing(order=4, exact=True)
    i = GaussRational(0, 1)
    for name, options in (("log_canonical", {}), ("wick_log_canonical", {}),
                          ("nonquadratic", {"N": 2}), ("quantum_weyl", {"lambda": 1}),
                          ("translated", {"c": ["1", "-1"]})):
        inst = build_catalog(name, ring, d=3 if name == "nonquadratic" else 2,
                             options=options)
        eta = poisson_from_table(inst.table)
        for _ in range(6):
            f = random_polynomial(rng, ring, inst.dim, 3, 2, inst.kind)
            g = random_polynomial(rng, ring, inst.dim, 3, 2, inst.kind)
            antisym = first_order_commutator(f, g, inst.table)
            base = ring.base
            f0 = f.map_coefficients(lambda s: s.coefficient(0), base)
            g0 = g.map_coefficients(lambda s: s.coefficient(0), base)
            from starprod.reduction import poisson_bracket
            assert antisym == poisson_bracket(eta, f0, g0).scale(i)


def test_symmetrized_associativity_as_rational_function_identity():
    # single-term products: associativity on monomial triples is the scalar
    # identity c(K,L) c(K+L,M) = c(L,M) c(K,L+M) in the field of rational
    # functions of q
    from starprod.scalars import RationalQRing
    QR = RationalQRing()
    q = QR.q
    coeff_cache = {}

    def coeff(K, L):
        if (K, L) not in coeff_cache:
            product = symmetrized_star(K, L, q, QR)
            M = tuple(a + b for a, b in zip(K, L))
            coeff_cache[(K, L)] = product.terms.get(M, QR.zero)
        return coeff_cache[(K, L)]

    def plus(A, B):
        return tuple(a + b for a, b in zip(A, B))

    ball = exponent_ball(2, 3)
    for K in ball:
        for L in ball:
            for M in ball:
                lhs = coeff(K, L) * coeff(plus(K, L), M)
                rhs = coeff(L, M) * coeff(K, plus(L, M))
                assert lhs == rhs, (K, L, M)
    # a few three-dimensional triples
    triples = [((1, 0, 1), (0, 1, 1), (1, 1, 0)), ((2, 0, 0), (0, 1, 1), (0, 0, 2)),
               ((1, 1, 1), (1, 0, 0), (0, 1, 0))]
    for K, L, M in triples:
        lhs = coeff(K, L) * coeff(plus(K, L), M)
        rhs = coeff(L, M) * coeff(K, plus(L, M))
        assert lhs == rhs, (K, L, M)


# -- the bilinear extension on multi-term polynomials --------------------------------


def _const(text):
    return ParameterRule.parse(f"const:{text}")


def _closed_form_catalog(name, ring, hbar=None):
    """A closed-form catalog that also has a table; constant parameters when exact."""
    if name == "quantum_weyl":
        ring = SeriesRing(order=4, exact=True) if ring.exact else ring
        return build_catalog("quantum_weyl", ring, 2, hbar=hbar, options={"lambda": 1})
    if name.startswith("nonquadratic"):
        rules = ParameterCatalog({"p": _const("7/5"), "q": _const("5/4"), "r": _const("4/3")})
        name, options = "nonquadratic", {"N": int(name[-1])}
    else:
        rules = ParameterCatalog({"q": _const("5/4" if name == "log_canonical" else "3/4")})
        options = None
    return build_catalog(name, ring, 3, rules if ring.exact else None, hbar, options)


CLOSED_FORM_CATALOGS = ("log_canonical", "wick_log_canonical", "nonquadratic0",
                        "nonquadratic1", "nonquadratic2", "quantum_weyl")


def _multi_term(rng, ring, dim, kind):
    """Three terms of distinct total degree 1, 2, 3."""
    return Polynomial(ring, dim, {random_exponent(rng, dim, k): random_coefficient(rng, ring)
                                  for k in (1, 2, 3)}, kind)


def _partly_cancelling(rng, g, ring):
    """h sharing monomials with -g: one term cancels exactly, one in part, one is new."""
    (K0, c0), (K1, c1) = list(g.terms.items())[:2]
    out = {K0: -c0, K1: random_coefficient(rng, ring) - c1,
           random_exponent(rng, g.dim, 4): random_coefficient(rng, ring)}
    return Polynomial(ring, g.dim, out, g.kind)


@pytest.mark.parametrize("name", CLOSED_FORM_CATALOGS)
def test_bilinear_closed_form_matches_reduction_exact(name):
    inst = _closed_form_catalog(name, R)
    assert inst.star.mono is not None and inst.reduction_star is not None
    rng = random.Random(f"bilinear:{name}")
    for _ in range(4):
        f = _multi_term(rng, inst.ring, inst.dim, inst.kind)
        g = _multi_term(rng, inst.ring, inst.dim, inst.kind)
        h = _partly_cancelling(rng, g, inst.ring)
        assert set(g.terms) - set((g + h).terms)
        assert inst.star(f, g) == inst.reduction_star(f, g)
        assert inst.star(f, g + h) == inst.star(f, g) + inst.star(f, h)
        assert inst.star(f, g + h) == inst.reduction_star(f, g + h)


@pytest.mark.parametrize("name", CLOSED_FORM_CATALOGS)
def test_bilinear_closed_form_matches_reduction_complex(name):
    inst = _closed_form_catalog(name, C, hbar=0.3)
    rng = random.Random(f"bilinear-complex:{name}")
    for _ in range(4):
        f = _multi_term(rng, C, inst.dim, inst.kind)
        g = _multi_term(rng, C, inst.dim, inst.kind)
        h = _partly_cancelling(rng, g, C)
        for lhs, rhs in ((inst.star(f, g), inst.reduction_star(f, g)),
                         (inst.star(f, g + h), inst.star(f, g) + inst.star(f, h))):
            scale = max((abs(c) for c in rhs.terms.values()), default=1.0)
            assert lhs.close_to(rhs, tol=1e-10, scale=scale), (name, f, g)


def test_closed_form_keeps_small_terms_until_the_sum_is_finished():
    # q = e^-33 lies below the complex ring's drop_tol, 10 q does not: the
    # closed form must not drop q before it multiplies by 10
    inst = build_catalog("wick_log_canonical", C, 2, hbar=33)
    w1, w2 = (Polynomial.variable(C, 2, i, "w") for i in (1, 2))
    f = w2.scale(10)
    assert set(inst.star(f, w1).terms) == set(inst.reduction_star(f, w1).terms) == {(1, 1)}


def _exported_closed_form(inst):
    """The catalog's exported closed form at its resolved parameters."""
    s, ring = inst.params, inst.ring
    if inst.name == "log_canonical":
        return lambda K, L: log_canonical_star(K, L, s["q"], ring)
    if inst.name == "wick_log_canonical":
        return lambda K, L: wick_star(K, L, s["q"], ring)
    if inst.name == "nonquadratic":
        N = inst.options["N"]
        return lambda K, L: nonquadratic_star(K, L, s["p"], s["q"], s["r"], N, ring)
    if inst.name == "quantum_weyl":
        return lambda K, L: quantum_weyl_star(K, L, s["p"], s["q"], ring)
    return lambda K, L: symmetrized_star(K, L, s["q"], ring)


def _reference_sum(closed, f, g):
    """sum of a*b*closed(K, L) over the term pairs, in the order of the terms."""
    out = {}
    for K, a in f.terms.items():
        for L, b in g.terms.items():
            ab = a * b
            for M, c in closed(K, L).terms.items():
                out[M] = out[M] + c * ab if M in out else c * ab
    return Polynomial(f.ring, f.dim, out, f.kind)


def _bits(p):
    return [(K, c.real.hex(), c.imag.hex()) if isinstance(c, complex) else (K, c)
            for K, c in p.terms.items()]


@pytest.mark.parametrize("name", CLOSED_FORM_CATALOGS + ("symmetrized_log_canonical",))
def test_term_route_sums_the_exported_closed_forms_bit_for_bit(name):
    def catalogs():
        if name == "symmetrized_log_canonical":
            yield build_catalog(name, R, 3, ParameterCatalog({"q": _const("5/4")}))
            for hbar in (0.3, 0.5, 0.7):
                yield build_catalog(name, C, 3, hbar=hbar)
            return
        yield _closed_form_catalog(name, R)  # quantum_weyl: exact series
        for hbar in (0.3, 0.5, 0.7):
            yield _closed_form_catalog(name, C, hbar=hbar)

    rng = random.Random(f"term-route:{name}")
    for inst in catalogs():
        closed = _exported_closed_form(inst)
        for _ in range(3):
            f = _multi_term(rng, inst.ring, inst.dim, inst.kind)
            g = _multi_term(rng, inst.ring, inst.dim, inst.kind)
            product = inst.star(f, g)
            assert _bits(product) == _bits(_reference_sum(closed, f, g)), (inst.ring, f, g)
            K, L = next(iter(f.terms)), next(iter(g.terms))
            assert inst.star.monomial_product(K, L) == closed(K, L)


def test_closed_form_product_rejects_operands_of_another_dimension():
    inst = build_catalog("log_canonical", C, 2, hbar=0.5)
    x1 = Polynomial.variable(C, 3, 1)
    with pytest.raises(DimensionMismatch):
        inst.star(x1, x1)


# -- the product's memo of monomial pairs -------------------------------------------


def _memo_catalog(name, ring, hbar=0.7):
    if name != "symmetrized_log_canonical":
        return _closed_form_catalog(name, ring, hbar if not ring.exact else None)
    if ring.exact:
        return build_catalog(name, ring, 3, ParameterCatalog({"q": _const("5/4")}))
    return build_catalog(name, ring, 3, hbar=hbar)


def _same_terms(p, q):
    """Equal term for term and in the same order; complex values by exact ==."""
    return list(p.terms.items()) == list(q.terms.items())


def _memo_size(star):
    return sum(len(row) for row in star._pairs.values())


def _operands(inst, seed):
    rng = random.Random(seed)
    fs = [_multi_term(rng, inst.ring, inst.dim, inst.kind) for _ in range(3)]
    return fs, [f + _multi_term(rng, inst.ring, inst.dim, inst.kind) for f in fs]


@pytest.mark.parametrize("ring", (R, C), ids=("exact", "complex"))
@pytest.mark.parametrize("name", CLOSED_FORM_CATALOGS + ("symmetrized_log_canonical",))
def test_a_product_with_a_warm_memo_equals_a_fresh_one(name, ring):
    star = _memo_catalog(name, ring).star
    fs, gs = _operands(star, f"memo:{name}")
    for _ in range(2):
        for f, g in itertools.product(fs, gs):
            assert _same_terms(star(f, g), _memo_catalog(name, ring).star(f, g)), (f, g)
    # every operand pair shares monomial pairs with another, so the memo was read
    lookups = sum(len(f.terms) * len(g.terms) for f, g in itertools.product(fs, gs))
    assert 0 < _memo_size(star) < lookups


def test_a_product_at_another_hbar_shares_no_memo_entries():
    earlier = _memo_catalog("wick_log_canonical", C, hbar=0.7).star
    fs, gs = _operands(earlier, "memo:hbar")
    for f, g in itertools.product(fs, gs):
        earlier(f, g)
    later = _memo_catalog("wick_log_canonical", C, hbar=0.3).star
    assert _memo_size(earlier) and not later._pairs
    for f, g in itertools.product(fs, gs):
        product = later(f, g)
        assert _same_terms(product, _memo_catalog("wick_log_canonical", C, hbar=0.3).star(f, g))
        assert not _same_terms(product, earlier(f, g))
    shared = {id(t) for row in earlier._pairs.values() for t in row.values()}
    assert not shared & {id(t) for row in later._pairs.values() for t in row.values()}


@pytest.mark.parametrize("name", CLOSED_FORM_CATALOGS + ("symmetrized_log_canonical",))
def test_monomial_products_equal_products_of_monomials_on_a_warm_product(name):
    star = _memo_catalog(name, C).star
    fresh = _memo_catalog(name, C).star
    fs, gs = _operands(star, f"memo-monomials:{name}")
    for f, g in zip(fs, gs):
        star(f, g)
    for K, row in star._pairs.items():
        for L in row:
            got = star.monomial_product(K, L)
            assert _same_terms(got, fresh.monomial_product(K, L))
            one = Polynomial.monomial(C, star.dim, K, kind=star.kind)
            assert got == star(one, Polynomial.monomial(C, star.dim, L, kind=star.kind))


def test_threads_sharing_a_product_and_a_spec_get_the_fresh_answers():
    star = _memo_catalog("wick_log_canonical", C).star
    spec = NormSpec.rho_norm((0.9, 1.2, 0.7))
    fs, gs = _operands(star, "memo-threads")
    cases = [(f, g, _memo_catalog("wick_log_canonical", C).star(f, g),
              seminorm(f, NormSpec.rho_norm(spec.rho))) for f, g in itertools.product(fs, gs)]
    wrong = []

    def work(shift):
        for f, g, product, norm in (cases[shift:] + cases[:shift]) * 20:
            if not _same_terms(star(f, g), product) or seminorm(f, spec) != norm:
                wrong.append((f, g))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not wrong


# -- word sums a letter at a time, and arrangements by next permutation -------------


def _word_sum_by_words(e1, e2, p, q, r, N, ring):
    """The word sum of nonquadratic_star, one word_weight per binary word."""
    i, j, k = e1
    l, m, n = e2
    terms = {}
    for w in itertools.product((0, 1), repeat=k):
        ones = sum(w)
        if ones > m:
            continue
        coeff = scalar_power(ring, r, (j - k) * l + j * N * ones)
        coeff = coeff * word_weight(m, w, p, q, r, N, ring)
        M = (i + l + N * ones, j + m - ones, k + n - ones)
        terms[M] = terms[M] + coeff if M in terms else coeff
    return terms


def _word_sum_parameters():
    """(ring, p, q, r) with complex parameters over every ring the sums run in."""
    series = SeriesRing(order=3)
    yield (R, GaussRational(Fraction(7, 5), Fraction(1, 3)),
           GaussRational(Fraction(5, 4), Fraction(-1, 2)), GaussRational(Fraction(4, 3), 1))
    yield (series, ParameterRule("exp_i").series(series), ParameterRule("affine").series(series),
           ParameterRule("exp_scaled", scale=Fraction(1, 2)).series(series))
    yield C, cmath.exp(0.4j), 1.1 * cmath.exp(0.3j), 0.9 * cmath.exp(-0.7j)


def test_word_sums_grown_a_letter_at_a_time_match_the_per_word_sums():
    ball = exponent_ball(3, 3)
    for ring, p, q, r in _word_sum_parameters():
        for N in (0, 1, 2):
            for K in ball:
                for L in ball:
                    got = _nonquadratic_terms(K, L, p, q, r, N, ring)
                    expected = _word_sum_by_words(K, L, p, q, r, N, ring)
                    if ring is C:
                        # bit for bit, in the same order
                        assert repr(list(got.items())) == repr(list(expected.items())), (K, L)
                    else:
                        assert got == expected, (ring, N, K, L)


def _hex_terms(terms):
    return [(M, c.real.hex(), c.imag.hex()) for M, c in terms.items()]


@pytest.mark.parametrize("route_of, d", [
    (lambda p, q, r, N, ring: _nonquadratic_route(p, q, r, N, ring), 3),
    (lambda p, q, r, N, ring: _quantum_weyl_route(p, q, ring), 2),
], ids=["nonquadratic", "quantum_weyl"])
def test_a_warm_route_gives_every_pair_the_terms_of_a_fresh_one(route_of, d):
    # the route keeps powers, climb weights and word levels between pairs;
    # over the complex ring they must come out bit for bit, in the same order
    ball = exponent_ball(d, 3)
    for ring, p, q, r in _word_sum_parameters():
        for N in (0, 2):
            warm = route_of(p, q, r, N, ring)
            for K in ball:
                for L in ball:
                    got, fresh = warm(K, L), route_of(p, q, r, N, ring)(K, L)
                    if ring is C:
                        assert _hex_terms(got) == _hex_terms(fresh), (N, K, L)
                    else:
                        assert list(got.items()) == list(fresh.items()), (ring, N, K, L)


def test_arrangements_are_the_sorted_distinct_permutations():
    for d in (1, 2, 3):
        for K in exponent_ball(d, 6):
            word = tuple(letter for i, k in enumerate(K, start=1) for letter in [i] * k)
            assert _distinct_arrangements(K) == sorted(set(itertools.permutations(word)))


def test_given_rules_are_checked_by_name_without_building_the_defaults(monkeypatch):
    from starprod import catalog

    def no_defaults(name, options=None):
        raise AssertionError(f"default rules built for {name}")

    monkeypatch.setattr(catalog, "default_rules", no_defaults)
    rules = ParameterCatalog({name: ParameterRule.parse("exp_i") for name in "pqr"})
    inst = build_catalog("nonquadratic", C, 3, rules, 0.2, {"N": 1})
    assert inst.params.keys() == {"p", "q", "r"}
    with pytest.raises(CatalogError, match="needs parameters p, q, r; missing: r"):
        build_catalog("nonquadratic", C, 3,
                      ParameterCatalog({name: ParameterRule.parse("exp_i") for name in "pq"}), 0.2)
