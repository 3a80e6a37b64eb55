"""suite_oracle on every kind of (route, reference) pair a catalog names,
exact, and the run-spec defaults of the suite runners."""

import math
import random

import pytest

from starprod.params import ParameterError
from starprod.probes import generator_product_bound
from starprod.reduction import StepLimitExceeded
from starprod.verify import (RunContext, _auto_q_bound, context_from_run, run_suites,
                             suite_macgyver, suite_oracle)

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


def test_auto_q_bound_skips_a_pole_on_its_disc(monkeypatch):
    # q = 1/(1 - i hbar) has its pole at hbar = -i, the 13th of the 16
    # boundary points of the disc of radius 0.5 + 0.5
    ctx = context_from_run({"catalog": "log_canonical", "d": 2,
                            "params": {"q": "inverse_affine"}})
    skipped = []
    instance = RunContext.instance

    def recording(self, ring_name=None, hbar=None):
        try:
            return instance(self, ring_name, hbar)
        except ParameterError:
            skipped.append(hbar)
            raise

    monkeypatch.setattr(RunContext, "instance", recording)
    Q = _auto_q_bound(ctx, 0.5)
    assert len(skipped) == 1 and abs(skipped[0] + 1j) < 1e-12
    assert math.isfinite(Q) and Q >= 1.0


def test_auto_q_bound_lets_any_other_error_crash_the_suite(monkeypatch):
    instance = RunContext.instance

    def failing(self, ring_name=None, hbar=None):
        if ring_name == "complex":  # only the disc points name their ring
            raise StepLimitExceeded("table log_canonical: stopped")
        return instance(self, ring_name, hbar)

    monkeypatch.setattr(RunContext, "instance", failing)
    spec = {"runs": [{"catalog": "log_canonical", "d": 2, "params": {"q": "exp_i"},
                      "hbar": [0.5], "probes": [{"kind": "macgyver", "samples": 2}]}]}
    (result,) = run_suites(spec, seed=1)
    assert not result.report.passed and not result.report.cases
    assert result.report.meta == {"error": "StepLimitExceeded: table log_canonical: stopped"}


# -- verdicts come from margins ------------------------------------------------------


def test_finish_report_fails_on_a_nan_margin():
    from starprod.probes import ProbeCase, finish_report
    cases = [ProbeCase("a", 0.0, 1.0, 1.0), ProbeCase("b", 0.0, 1.0, float("nan"))]
    report = finish_report("nan", cases)
    assert not report.passed
    assert finish_report("ok", cases[:1]).passed
    assert finish_report("empty", []).passed


# suite -> (run, cfg, hbar), each given a tolerance no case can meet; an
# associative table's overlap differences vanish exactly, so overlaps gets
# the non-associative nonquadratic table as well
IMPOSSIBLE = {
    "oracle": ({"catalog": "log_canonical", "d": 2, "params": {"q": "exp_i"}},
               {"max_degree": 1}, 0.3),
    "overlaps": ({**NONQUADRATIC, "params": {**NONQUADRATIC["params"], "s": "const:2/3"}},
                 {}, None),
    "wick_involution": ({"catalog": "wick_log_canonical", "d": 2,
                         "params": {"q": "exp_neg"}}, {}, 0.5),
    "states_psd": ({"catalog": "wick_log_canonical"},
                   {"dims": [2], "degree": 2, "points": 2, "hbars": [0.5]}, None),
    "witness": ({"catalog": "wick_log_canonical"}, {"dims": [2], "hbars": [1.0]}, None),
    "psi": ({"catalog": "wick_log_canonical"},
            {"dims": [2], "max_degree": 1, "hbars": [0.6]}, None),
    "gns": ({"catalog": "wick_log_canonical"},
            {"d": 2, "degree": 1, "states": 2, "hbars": [0.4]}, None),
}


@pytest.mark.parametrize("kind", sorted(IMPOSSIBLE))
def test_suite_with_an_unmeetable_tolerance_fails(kind):
    from starprod.verify import SUITES
    run, cfg, hbar = IMPOSSIBLE[kind]
    ctx = context_from_run({**run, "ring": "complex"})
    report = SUITES[kind][0](ctx, {**cfg, "tol": -1}, random.Random(0), hbar)
    assert report.cases
    assert not report.passed
    assert report.worst_margin < 0


def test_degree_filtration_fails_on_a_degree_lowering_product():
    from starprod.poly import Polynomial
    from starprod.probes import degree_filtration_check
    from starprod.scalars import make_ring
    ring = make_ring("complex")
    report = degree_filtration_check(lambda f, g: Polynomial.one(ring, 2),
                                     random.Random(0), 2, ring, samples=20)
    assert not report.passed
    assert report.worst_margin < 0


def test_default_report_verdicts_follow_the_margins():
    # only the probes with a rule of their own may pass with a negative
    # margin or fail with a non-negative one
    from starprod.verify import DEFAULT_RUNSPEC, run_suites
    own_rule = {"submultiplicativity", "macgyver", "classical_limit"}
    results = run_suites(DEFAULT_RUNSPEC, seed=42, digests=False)
    assert {r.probe for r in results} > own_rule
    for r in results:
        if r.probe not in own_rule:
            assert r.report.passed == (r.report.worst_margin >= 0), (r.catalog, r.probe)


# -- run-spec table files ------------------------------------------------------------


def test_phi_run_without_ring_uses_the_declared_ring(tmp_path):
    import json
    table = {"dimension": 2, "ring": "series", "truncation_order": 3,
             "parameters": {"q": "exp_i"},
             "relations": [{"j": 2, "i": 1, "tail": "(q-1)*x1*x2"}]}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    inst = context_from_run({"phi": str(path)}).instance()
    assert inst.ring.name == "series" and inst.ring.order == 3
    # an explicit ring still wins
    inst = context_from_run({"phi": str(path), "ring": "complex"}).instance(hbar=0.5)
    assert inst.ring.name == "complex"


def test_a_table_file_instance_keeps_its_label_table_and_oracle():
    from test_memo import _by_pass_loop
    from starprod.poly import NcPolynomial, exponent_to_word
    from starprod.reduction import monomial_star
    from starprod.tableio import table_from_dict
    spec = {"dimension": 3, "ring": "rational", "parameters": {"q": "const:3/2"},
            "relations": [{"i": 1, "j": 2, "tail": "(q-1)*x1*x2"},
                          {"i": 2, "j": 3, "tail": "(q-1)*x2*x3 + x1"}]}
    inst = context_from_run({"table": spec, "label": "mine"}).instance()
    assert (inst.name, inst.star.name, inst.dim, inst.kind) == ("mine", "mine", 3, "x")
    assert inst.star.mono is None and inst.star.table is inst.table
    assert inst.reduction_star is inst.star
    assert inst.table.tails == table_from_dict(spec).tails
    assert inst.params == {} and inst.options == {}
    route, reference = inst.oracle
    pairs = (((0, 1, 2), (2, 1, 0)), ((0, 0, 3), (1, 2, 0)))
    for K, L in pairs:
        assert route(K, L) == monomial_star(K, L, inst.table).result
        words = NcPolynomial(inst.ring, 3,
                             {exponent_to_word(K) + exponent_to_word(L): inst.ring.one})
        assert reference(K, L) == _by_pass_loop(words, inst.table, "leftmost")[0]
    # the x1 in tail (2, 3) breaks associativity, so the two orders can differ
    assert any(route(K, L) != reference(K, L) for K, L in pairs)
    assert context_from_run({"table": spec}).instance().name == "phi:inline"
