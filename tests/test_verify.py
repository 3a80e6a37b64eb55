"""suite_oracle on every kind of (route, reference) pair a catalog names,
exact, and the run-spec defaults of the suite runners."""

import random

import pytest

from starprod.probes import generator_product_bound
from starprod.verify import context_from_run, suite_macgyver, suite_oracle

# nonquadratic with s bound has no closed form: rightmost against leftmost rewriting
NONQUADRATIC = {"catalog": "nonquadratic", "options": {"N": 1},
                "params": {"p": "const:7/5", "q": "const:5/4", "r": "const:4/3"}}

# route kind -> (run, max_degree, number of monomial pairs)
ROUTES = {
    "closed_form": ({"catalog": "log_canonical", "d": 2, "params": {"q": "const:5/4"}}, 3, 100),
    "translated": ({"catalog": "translated", "d": 2, "params": {"q": "const:5/4"},
                    "options": {"c": ["1", "-1"]}}, 2, 36),
    "averaging": ({"catalog": "symmetrized_log_canonical", "d": 2,
                   "params": {"q": "const:3/5"}}, 2, 36),
    "rewriting": ({**NONQUADRATIC, "params": {**NONQUADRATIC["params"], "s": "const:3/4"}},
                  2, 100),
}


def _oracle(run, max_degree):
    ctx = context_from_run({**run, "ring": "rational"})
    return suite_oracle(ctx, {"max_degree": max_degree}, random.Random(0), None)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_oracle_route_matches_its_reference(route):
    run, max_degree, pairs = ROUTES[route]
    report = _oracle(run, max_degree)
    assert report.passed
    assert len(report.cases) == pairs
    assert report.worst_margin == 1.0


def test_oracle_rewriting_orders_differ_on_a_non_associative_table():
    # s = 2/3 is not 1/r, so the overlap x z y fails and the two orders disagree
    run = {**NONQUADRATIC, "params": {**NONQUADRATIC["params"], "s": "const:2/3"}}
    report = _oracle(run, 2)
    assert not report.passed
    assert report.worst_margin == -1.0


def test_macgyver_q_defaults_to_the_generator_bound():
    # no "Q" key: the bound is N * sup over a disc of complex hbar that
    # contains the run's own hbar
    ctx = context_from_run({"catalog": "log_canonical", "d": 2, "ring": "complex",
                            "params": {"q": "exp_i"}})
    cfg = {"samples": 20, "max_degree": 3, "sweep_degree": 2}
    report = suite_macgyver(ctx, cfg, random.Random(0), 0.3)
    count, sup = generator_product_bound(ctx.instance(hbar=0.3).star)
    assert report.meta["Q"] >= count * sup
    assert report.passed
