"""Every starprod name the benchmark in perfbench/ reaches still resolves.

The benchmark imports these names directly and, under ``--trace 1``, wraps
them at run time, so renaming or deleting one would break it without
failing any other test.  Its files are loaded by path and left unedited.
"""

import importlib.util
from pathlib import Path

from starprod import catalog, poly, qcomb, verify
from starprod.catalog import (
    build_catalog,
    log_canonical_table,
    symmetrized_star_by_averaging,
    translated_star,
)
from starprod.params import ParameterCatalog
from starprod.poly import NcPolynomial, Polynomial, inversion_weight
from starprod.reduction import RelationTable, reduce_to_standard, star_by_reduction
from starprod.scalars import RationalRing

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_imports_resolve():
    workloads = _load("workloads")
    for name in ("build_catalog", "translated_star", "symmetrized_star_by_averaging",
                 "check_overlaps", "star_by_reduction", "gram_matrix"):
        assert callable(getattr(workloads, name))


def test_traced_names_resolve():
    tracing = _load("tracing")
    for module, names in tracing.SPANNED.values():
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                assert attr in vars(getattr(module, cls_name)), name
            else:
                assert callable(getattr(module, name)), name
    for name in tracing.CLOSED_FORMS:
        assert callable(getattr(catalog, name)), name
    for _, cls, attrs in tracing.SCALAR_OPS.values():
        for attr in attrs:
            assert attr in vars(cls), (cls.__name__, attr)
    for kind, (runner, needs_hbar) in verify.SUITES.items():
        assert callable(runner) and isinstance(needs_hbar, bool), kind


def test_tracer_installs_runs_a_suite_and_uninstalls():
    tracing = _load("tracing")
    originals = (catalog.build_catalog, catalog.StarProduct.__call__, qcomb.q_binomial,
                 poly.Polynomial.__init__, verify.SUITES["oracle"])
    tracer = tracing.Tracer()
    spec = {"runs": [{"catalog": "translated", "d": 2, "ring": "rational",
                      "params": {"q": "const:5/4"},
                      "probes": [{"kind": "oracle", "max_degree": 1}]}]}
    try:
        tracer.install()
        [result] = verify.run_suites(spec, seed=1)
        report = tracer.pass_report()
    finally:
        tracer.uninstall()
    assert result.report.passed and len(result.report.cases) == 9
    assert report["verify.suites"] == 1
    assert report["reduction.passes"] > 0
    assert (catalog.build_catalog, catalog.StarProduct.__call__, qcomb.q_binomial,
            poly.Polynomial.__init__, verify.SUITES["oracle"]) == originals


def test_catalog_fields_the_benchmark_reads():
    ring = RationalRing()
    rules = ParameterCatalog.from_spec({"q": "const:3/5"})
    inst = build_catalog("translated", ring, 2, rules, options={"c": ["1", "-1"]})
    base, offsets = inst.options["base_table"], inst.options["c"]
    assert isinstance(base, RelationTable)
    f = Polynomial.monomial(ring, 2, (1, 2))
    g = Polynomial.monomial(ring, 2, (2, 0))
    assert translated_star(f, g, base, offsets) == inst.reduction_star(f, g)
    cache = {}
    sym = build_catalog("symmetrized_log_canonical", ring, 2, rules)
    table = log_canonical_table(ring, 2, sym.params["q"])
    assert (symmetrized_star_by_averaging((1, 1), (0, 1), table, cache=cache)
            == sym.star.monomial_product((1, 1), (0, 1)))
    assert cache


def test_kept_rewriting_wrappers_answer_as_the_benchmark_reads_them():
    # perfbench/workloads.py checks a log-canonical pair's count and result
    # through star_by_reduction; tracing.py spans reduce_to_standard
    ring = RationalRing()
    inst = build_catalog("log_canonical", ring, 3, ParameterCatalog.from_spec({"q": "const:5/4"}))
    for K, L in (((0, 2, 1), (3, 0, 1)), ((1, 0, 2), (0, 1, 0)), ((0, 0, 0), (2, 1, 1))):
        f = Polynomial.monomial(ring, 3, K)
        g = Polynomial.monomial(ring, 3, L)
        trace = star_by_reduction(f, g, inst.table)
        assert trace.reduction_count == inversion_weight(K, L)
        assert trace.result == inst.star.monomial_product(K, L)
    out = reduce_to_standard(NcPolynomial(ring, 3, {(3, 2, 1): ring.one}), inst.table)
    assert isinstance(out, tuple) and len(out) == 3
    standard, count, widest = out
    assert isinstance(standard, NcPolynomial) and set(standard.terms) == {(1, 2, 3)}
    assert count == 3 and widest >= 1
