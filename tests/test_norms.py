"""Seminorm values, axioms, and comparisons."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bounded_complex
from starprod.norms import NormSpec, adic_distance, adic_order, seminorm
from starprod.poly import Polynomial
from starprod.probes import random_polynomial
from starprod.scalars import make_ring

C = make_ring("complex")


def test_rho_norm_value():
    f = Polynomial.monomial(C, 2, (2, 1), 1 + 0j)
    assert seminorm(f, NormSpec.rho_norm((2, 3))) == pytest.approx(12.0)


def test_tr_norm_value():
    f = Polynomial.monomial(C, 2, (1, 1), 1 + 0j)
    assert seminorm(f, NormSpec.tr_norm(2.0, 1.0)) == pytest.approx(8.0)


def test_macgyver_norm_value():
    f = Polynomial.monomial(C, 2, (1, 1), 1 + 0j)
    assert seminorm(f, NormSpec.macgyver_norm(3.0)) == pytest.approx(81.0)


def test_adic_order():
    assert adic_order(Polynomial.zero(C, 2)) == float("inf")
    f = Polynomial(C, 2, {(1, 2): 1 + 0j, (0, 1): 2 + 0j})
    assert adic_order(f) == 1


def test_invalid_specs():
    with pytest.raises(ValueError):
        NormSpec.rho_norm((1.0, -2.0))
    with pytest.raises(ValueError):
        NormSpec.tr_norm(0.0)
    with pytest.raises(ValueError):
        NormSpec("nonsense")


@settings(max_examples=50)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          bounded_complex()), min_size=0, max_size=4),
       st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          bounded_complex()), min_size=0, max_size=4))
def test_norm_axioms(entries_f, entries_g):
    f = Polynomial(C, 2, dict(entries_f))
    g = Polynomial(C, 2, dict(entries_g))
    for spec in (NormSpec.rho_norm((1.5, 0.5)), NormSpec.tr_norm(2.0, 0.5),
                 NormSpec.macgyver_norm(1.5)):
        nf, ng = seminorm(f, spec), seminorm(g, spec)
        scale = max(1.0, nf + ng)
        # triangle inequality
        assert seminorm(f + g, spec) <= nf + ng + 1e-9 * scale
        # absolute homogeneity
        c = 0.75 - 0.25j
        assert seminorm(f.scale(c), spec) == pytest.approx(abs(c) * nf, abs=1e-9 * scale)


def test_rho_monotonicity():
    rng = random.Random(6)
    lo = NormSpec.rho_norm((0.5, 1.0))
    hi = NormSpec.rho_norm((1.0, 2.0))
    for _ in range(30):
        f = random_polynomial(rng, C, 2, 5, 4)
        assert seminorm(f, lo) <= seminorm(f, hi) + 1e-12


def test_tr_zero_equals_constant_rho():
    rng = random.Random(8)
    spec_tr = NormSpec.tr_norm(2.5, 0.0)
    spec_rho = NormSpec.rho_norm((2.5, 2.5, 2.5))
    for _ in range(30):
        f = random_polynomial(rng, C, 3, 4, 4)
        assert seminorm(f, spec_tr) == pytest.approx(seminorm(f, spec_rho))


def test_adic_ultrametric():
    rng = random.Random(10)
    for _ in range(40):
        f = random_polynomial(rng, C, 2, 4, 3)
        g = random_polynomial(rng, C, 2, 4, 3)
        h = random_polynomial(rng, C, 2, 4, 3)
        assert adic_distance(f, h) <= max(adic_distance(f, g), adic_distance(g, h)) + 1e-15


def test_rho_length_is_checked_also_on_the_zero_polynomial():
    spec = NormSpec.rho_norm((1.0, 1.0))
    with pytest.raises(ValueError):
        seminorm(Polynomial.zero(C, 3), spec)
    with pytest.raises(ValueError):
        seminorm(Polynomial.variable(C, 3, 1), spec)
    assert seminorm(Polynomial.zero(C, 2), spec) == 0.0


# -- each spec's memo of weights -----------------------------------------------------


def _reference_seminorm(f, spec):
    """The weighted sum written out term by term, with nothing remembered."""
    total = 0.0
    for K, c in f.terms.items():
        size, deg = abs(f.ring.to_complex(c)), sum(K)
        if spec.kind == "rho":
            w = 1.0
            for r, e in zip(spec.rho, K):
                w *= r ** e
            total += size * w
        elif spec.kind == "tr":
            total += size * spec.C ** deg * float(math.factorial(deg)) ** spec.R
        else:
            total += size * spec.C ** (deg * deg)
    return total


def test_remembered_weights_give_the_reference_sums_bit_for_bit():
    rng = random.Random(17)
    R = make_ring("rational")
    polys = [random_polynomial(rng, ring, 3, 5, 6) for ring in (C, R) for _ in range(12)]
    for spec in (NormSpec.rho_norm((1.5, 0.5, 2.25)), NormSpec.tr_norm(2.0, 0.5),
                 NormSpec.tr_norm(0.75, 1.5), NormSpec.macgyver_norm(1.25)):
        for _ in range(3):
            for f in polys:
                assert seminorm(f, spec).hex() == _reference_seminorm(f, spec).hex(), (spec, f)
        assert spec._weights


def test_a_wrong_rho_length_still_raises_once_the_memo_is_warm():
    spec = NormSpec.rho_norm((1.0, 2.0))
    rng = random.Random(18)
    for _ in range(5):
        seminorm(random_polynomial(rng, C, 2, 4, 4), spec)
    assert spec._weights
    for f in (Polynomial.zero(C, 3), Polynomial.variable(C, 3, 1),
              Polynomial.monomial(C, 1, (1,))):
        with pytest.raises(ValueError):
            seminorm(f, spec)


def test_a_warm_spec_equals_a_fresh_one():
    rng = random.Random(19)
    for make in (lambda: NormSpec.rho_norm((1.5, 0.5)), lambda: NormSpec.tr_norm(2.0, 0.5),
                 lambda: NormSpec.macgyver_norm(1.5)):
        warm, fresh = make(), make()
        for _ in range(5):
            seminorm(random_polynomial(rng, C, 2, 4, 4), warm)
        assert warm._weights and not fresh._weights
        assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
        assert "_weights" not in {f.name for f in dataclasses.fields(warm)}
