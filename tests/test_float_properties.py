"""Float-mode properties of the closed forms and the rewriting, at a drawn hbar.

Over the complex ring, each closed-form catalog is built at an hbar drawn
from [-1, 1], and its closed form is checked against the memo's reduction,
for bilinearity in each argument and for the unit law, on both routes.  Two
results agree when every coefficient differs by at most 1e-10 times the
largest coefficient of either (and at least 1e-10).

Scaling covariance is left out: the complex ring drops coefficients below an
absolute ``drop_tol``, so for a tiny s the support of star(s*f, g) can differ
from that of s*star(f, g).
"""

from hypothesis import given
from hypothesis import strategies as st

from conftest import bounded_complex
from starprod.catalog import build_catalog
from starprod.poly import Polynomial
from starprod.scalars import make_ring

C = make_ring("complex")

# (catalog, dimension, options)
CATALOGS = [
    ("log_canonical", 3, None),
    ("wick_log_canonical", 3, None),
    ("quantum_weyl", 2, {"lambda": 1}),
    ("nonquadratic", 3, {"N": 0}),
    ("nonquadratic", 3, {"N": 2}),
]

hbars = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def instances(draw):
    name, dim, options = draw(st.sampled_from(CATALOGS))
    return build_catalog(name, C, dim, hbar=draw(hbars), options=options)


def polynomials(inst):
    exponents = st.tuples(*[st.integers(0, 2)] * inst.dim)
    return st.builds(lambda terms: Polynomial(C, inst.dim, terms, inst.kind),
                     st.dictionaries(exponents, bounded_complex(), min_size=1, max_size=3))


def _assert_close(a: Polynomial, b: Polynomial, label):
    scale = max((abs(c) for p in (a, b) for c in p.terms.values()), default=1.0)
    assert a.close_to(b, tol=1e-10, scale=scale), (label, a, b)


def _routes(inst):
    return (("closed form", inst.star), ("reduction", inst.reduction_star))


@given(st.data())
def test_closed_form_matches_memo_reduction(data):
    inst = data.draw(instances())
    f, g = data.draw(polynomials(inst)), data.draw(polynomials(inst))
    _assert_close(inst.star(f, g), inst.reduction_star(f, g), inst.name)


@given(st.data())
def test_bilinear_in_each_argument(data):
    inst = data.draw(instances())
    f, g, h = (data.draw(polynomials(inst)) for _ in range(3))
    c = data.draw(bounded_complex())
    for label, star in _routes(inst):
        _assert_close(star(f + g, h), star(f, h) + star(g, h), (inst.name, label, "left sum"))
        _assert_close(star(f, g + h), star(f, g) + star(f, h), (inst.name, label, "right sum"))
        _assert_close(star(f.scale(c), g), star(f, g).scale(c), (inst.name, label, "left scalar"))
        _assert_close(star(f, g.scale(c)), star(f, g).scale(c), (inst.name, label, "right scalar"))


@given(st.data())
def test_unit_law(data):
    inst = data.draw(instances())
    f = data.draw(polynomials(inst))
    one = Polynomial.one(C, inst.dim, inst.kind)
    for label, star in _routes(inst):
        _assert_close(star(one, f), f, (inst.name, label, "left unit"))
        _assert_close(star(f, one), f, (inst.name, label, "right unit"))
