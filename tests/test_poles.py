"""Where an evaluated symmetrized coefficient raises PoleAtRootOfUnity."""

import pytest

from starprod.catalog import inversion_weight, symmetrized_star
from starprod.probes import exponent_ball
from starprod.qcomb import (
    PoleAtRootOfUnity,
    q_multinomial,
    q_multinomial_coefficients,
    root_of_unity_order,
)
from starprod.scalars import GaussRational, RationalQRing, make_ring

R = make_ring("rational")
QR = RationalQRing()
ROOTS = {"1": GaussRational(1), "-1": GaussRational(-1),
         "i": GaussRational(0, 1), "-i": GaussRational(0, -1)}


def _add(K, L):
    return tuple(a + b for a, b in zip(K, L))


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("name", sorted(ROOTS))
def test_evaluated_route_raises_exactly_where_the_q_multinomial_of_m_vanishes(d, name):
    q = ROOTS[name]
    ball = exponent_ball(d, 3)
    poles = 0
    for K in ball:
        for L in ball:
            M = _add(K, L)
            if q_multinomial(M, q, R).is_zero():
                poles += 1
                order = root_of_unity_order(q, R, max_order=max(2, sum(M)))
                with pytest.raises(PoleAtRootOfUnity) as caught:
                    symmetrized_star(K, L, q, R)
                assert caught.value.order == order, (K, L)
                assert str(caught.value) == str(PoleAtRootOfUnity(order)), (K, L)
            else:
                # a zero coefficient (bq_K(q) or bq_L(q) vanishes) is no term
                got = symmetrized_star(K, L, q, R).terms.get(M, R.zero)
                formal = symmetrized_star(K, L, QR.q, QR).terms[M]
                assert got == formal.evaluate(q), (K, L)
    # q = 1 is no pole; the other three roots vanish somewhere in the ball
    assert (poles == 0) == (name == "1")


def test_a_removable_singularity_is_still_reported_as_a_pole():
    # (1,1,0) . (0,0,2): the formal coefficient is 6 q^w / ((1+q^2)(1+q+q^2)),
    # finite (3 q^w) at q = -1, because the factor 1+q of bq_K cancels one of bq_M;
    # the evaluated route divides by bq_M(-1) = 0 and raises
    K, L = (1, 1, 0), (0, 0, 2)
    q = QR.q
    formal = symmetrized_star(K, L, q, QR).terms[(1, 1, 2)]
    w = inversion_weight(K, L)
    assert formal * (1 + q * q) * (1 + q + q * q) == 6 * q ** w
    assert formal.evaluate(GaussRational(-1)) == GaussRational(3 * (-1) ** w)
    assert sum(c * (-1) ** k for k, c in enumerate(q_multinomial_coefficients((1, 1, 2)))) == 0
    with pytest.raises(PoleAtRootOfUnity) as caught:
        symmetrized_star(K, L, GaussRational(-1), R)
    assert caught.value.order == 2
    assert "order 2" in str(caught.value)
