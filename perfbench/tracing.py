"""Spans and counters around starprod's layers, installed from outside.

The program carries no tracing of its own, so this module wraps its public
functions at run time:

  spans     every call into ``reduction``, ``catalog``, ``qcomb``, ``norms``,
            ``probes``, ``states``, ``params`` and the ``verify`` suite
            runners records (name, start, end, parent) in memory;
  counters  calls at the finer ``scalars`` and ``poly`` boundaries, and at the
            closed-form monomial products, are only counted: a span there
            would cost more than the work it measures.

A module's self time is the time inside its spans that no child span
covers.  ``install`` patches every reference the program (and the modules
passed in) holds to a wrapped function; ``uninstall`` puts the originals
back.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

from starprod import catalog, norms, params, poly, probes, qcomb, reduction, scalars, states
from starprod import verify

SPANNED = {
    "reduction": (reduction, ("reduce_once", "reduce_to_standard", "star_by_reduction", "star",
                              "check_overlaps", "poisson_from_table", "poisson_bracket",
                              "jacobi_check")),
    "catalog": (catalog, ("log_canonical_table", "wick_log_canonical_table",
                          "nonquadratic_table", "quantum_weyl_table", "translated_table",
                          "translated_star", "symmetrized_star_by_averaging",
                          "equivalence_transform", "wick_involution_condition",
                          "default_rules", "build_catalog", "catalog_poisson",
                          "StarProduct.__call__", "StarProduct.monomial_product",
                          "StarProduct.traced_monomials")),
    "qcomb": (qcomb, ("q_integer", "q_factorial", "q_multinomial", "root_of_unity_order",
                      "q_multinomial_value_or_pole", "q_multinomial_coefficients")),
    "norms": (norms, ("seminorm", "adic_order", "adic_distance")),
    "probes": (probes, ("degree_filtration_check", "submultiplicativity_probe",
                        "generator_product_bound", "macgyver_continuity_probe",
                        "exponent_ball", "classical_limit_probe", "star_series_coefficients",
                        "first_order_commutator", "symmetrized_coefficient_bound",
                        "symmetrized_growth_probe", "random_polynomial",
                        "random_homogeneous")),
    "states": (states, ("gram_matrix", "psd_check", "vandermonde_psd_check", "gns_build",
                        "nonpositivity_witness", "reversal_isomorphism",
                        "point_separation_probe", "random_wick_point", "state_basis")),
    "params": (params, ("ParameterRule.parse", "ParameterRule.evaluate",
                        "ParameterRule.series", "ParameterRule.resolve",
                        "ParameterCatalog.from_spec", "ParameterCatalog.resolve")),
    "verify": (verify, ("run_suites", "context_from_run", "assemble_report", "report_to_json",
                        "RunContext.instance", "RunContext.poisson")),
}

CLOSED_FORMS = ("log_canonical_star", "wick_star", "nonquadratic_star", "quantum_weyl_star",
                "symmetrized_star")

# counter name -> (ring whose operands it samples, class, counted methods)
SCALAR_OPS = {
    "scalars.gauss_ops": ("rational", scalars.GaussRational,
                          ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")),
    "scalars.series_muls": ("series", scalars.TruncSeries, ("__mul__", "__rmul__")),
    "scalars.ratq_ops": ("rational_q", scalars.RationalQ,
                         ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                          "inverse")),
}
RINGS = ("rational", "complex", "series", "rational_q")

# Operand pairs for the scalar timings: every 16th counted op lends its
# operands; complex arithmetic is the builtin type and cannot be wrapped, so
# complex operands are coefficients of every 16th Polynomial built.
SAMPLE_STRIDE = 16
SAMPLE_CAP = 4096
TIMED_OPERANDS = 64

COUNT_NAMES = ("scalars.gauss_ops", "scalars.series_muls", "scalars.ratq_ops",
               "poly.polys_built", "poly.nc_terms",
               "reduction.passes", "reduction.rewrites", "reduction.widest_terms",
               "catalog.products", "catalog.term_pairs", "catalog.monomial_products",
               "qcomb.q_binomial_calls", "norms.seminorm_calls", "states.gram_entries",
               "params.resolve_calls", "verify.suites")


class Tracer:
    def __init__(self):
        self._patches = []
        # wrappers hold these containers, so reset() empties them in place
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.samples = {ring: [] for ring in RINGS}
        self.pairs_seen = set()
        self._keep_alive = {}
        self.reset()

    # -- per-pass state -----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        for name in self.counts:
            self.counts[name] = 0
        for bucket in self.samples.values():
            bucket.clear()
        self.pairs_seen.clear()
        self._keep_alive.clear()
        self.pairs_total = 0
        self.pairs_repeated = 0
        self._closed_depth = 0

    def _pair(self, owners, K, L):
        """Record a monomial pair of the product defined by the owner objects.

        Owners are kept alive for the pass so that their ids stay unique.
        """
        for owner in owners:
            self._keep_alive[id(owner)] = owner
        key = (tuple(id(owner) for owner in owners), K, L)
        self.pairs_total += 1
        if key in self.pairs_seen:
            self.pairs_repeated += 1
        else:
            self.pairs_seen.add(key)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_polynomial_init(self, fn):
        counts, complex_values = self.counts, self.samples["complex"]

        @functools.wraps(fn)
        def wrapper(poly_self, *args, **kwargs):
            fn(poly_self, *args, **kwargs)
            counts["poly.polys_built"] += 1
            if counts["poly.polys_built"] % SAMPLE_STRIDE == 0 and poly_self.terms:
                value = next(iter(poly_self.terms.values()))
                if type(value) is complex and len(complex_values) < SAMPLE_CAP:
                    complex_values.append(value)
        return wrapper

    def _scalar_counter(self, name, ring, fn):
        counts, bucket = self.counts, self.samples[ring]

        @functools.wraps(fn)
        def wrapper(a, *rest):
            counts[name] += 1
            if (rest and counts[name] % SAMPLE_STRIDE == 0 and type(rest[0]) is type(a)
                    and len(bucket) < SAMPLE_CAP):
                bucket.append((a, rest[0]))
            return fn(a, *rest)
        return wrapper

    def _wrap_concat(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.counts["poly.nc_terms"] += len(out.terms)
            return out
        return wrapper

    def _wrap_reduce_once(self, fn):
        tracer = self

        def counted(f, *args, **kwargs):
            out, changed, fired = fn(f, *args, **kwargs)
            counts = tracer.counts
            counts["reduction.passes"] += 1
            counts["reduction.rewrites"] += fired
            widest = max(len(f.terms), len(out.terms))
            if widest > counts["reduction.widest_terms"]:
                counts["reduction.widest_terms"] = widest
            return out, changed, fired
        return self._span("reduction.reduce_once", functools.wraps(fn)(counted))

    def _wrap_star_by_reduction(self, fn):
        tracer = self

        def paired(f, g, table, *args, **kwargs):
            for K in f.terms:
                for L in g.terms:
                    tracer._pair((table,), K, L)
            return fn(f, g, table, *args, **kwargs)
        return self._span("reduction.star_by_reduction", functools.wraps(fn)(paired))

    def _wrap_star_call(self, fn):
        tracer = self

        def counted(star_self, f, g):
            tracer.counts["catalog.products"] += 1
            tracer.counts["catalog.term_pairs"] += len(f.terms) * len(g.terms)
            return fn(star_self, f, g)
        return self._span("catalog.StarProduct.__call__", functools.wraps(fn)(counted))

    def _wrap_closed_form(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(K, L, *args, **kwargs):
            # quantum_weyl_star and wick_star delegate to another closed form;
            # only the outermost call is one monomial product
            outer = tracer._closed_depth == 0
            if outer:
                tracer.counts["catalog.monomial_products"] += 1
                tracer._pair((fn,) + args, tuple(K), tuple(L))
            tracer._closed_depth += 1
            try:
                return fn(K, L, *args, **kwargs)
            finally:
                tracer._closed_depth -= 1
        return wrapper

    def _wrap_averaging(self, fn):
        tracer = self

        def paired(K, L, table, *args, **kwargs):
            tracer._pair((fn, table), tuple(K), tuple(L))
            return fn(K, L, table, *args, **kwargs)
        return self._span("catalog.symmetrized_star_by_averaging", functools.wraps(fn)(paired))

    def _wrap_gram(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            basis, M = fn(*args, **kwargs)
            tracer.counts["states.gram_entries"] += M.size
            return basis, M
        return self._span("states.gram_matrix", functools.wraps(fn)(counted))

    # -- patching -----------------------------------------------------------------

    def _replace(self, original, wrapper, namespaces):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, extra_namespaces=()):
        """Wrap the layers; extra_namespaces are modules that imported names directly."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sys.modules.items()
                      if name == "starprod" or name.startswith("starprod.")]
        namespaces += list(extra_namespaces)
        special = {
            "reduction.reduce_once": self._wrap_reduce_once,
            "reduction.star_by_reduction": self._wrap_star_by_reduction,
            "catalog.StarProduct.__call__": self._wrap_star_call,
            "catalog.symmetrized_star_by_averaging": self._wrap_averaging,
            "states.gram_matrix": self._wrap_gram,
            "norms.seminorm": lambda fn: self._span("norms.seminorm",
                                                    self._counter("norms.seminorm_calls", fn)),
            "params.ParameterRule.resolve": lambda fn: self._span(
                "params.ParameterRule.resolve", self._counter("params.resolve_calls", fn)),
        }
        for module_name, (module, names) in SPANNED.items():
            for name in names:
                full = f"{module_name}.{name}"
                make = special.get(full, lambda fn, full=full: self._span(full, fn))
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    self._replace_method(cls, attr, make(cls.__dict__[attr]))
                else:
                    original = getattr(module, name)
                    self._replace(original, make(original), namespaces)
        for name in CLOSED_FORMS:
            original = getattr(catalog, name)
            self._replace(original, self._wrap_closed_form(original), namespaces)
        self._replace(qcomb.q_binomial,
                      self._counter("qcomb.q_binomial_calls", qcomb.q_binomial), namespaces)
        for kind, (runner, needs_hbar) in list(verify.SUITES.items()):
            wrapped = self._span(f"verify.suite.{kind}",
                                 self._counter("verify.suites", runner))
            self._patches.append((verify.SUITES, kind, (runner, needs_hbar)))
            verify.SUITES[kind] = (wrapped, needs_hbar)
        for metric, (ring, cls, attrs) in SCALAR_OPS.items():
            for attr in attrs:
                self._replace_method(cls, attr,
                                     self._scalar_counter(metric, ring, cls.__dict__[attr]))
        self._replace_method(poly.Polynomial, "__init__",
                             self._wrap_polynomial_init(poly.Polynomial.__init__))
        self._replace_method(poly.NcPolynomial, "concat",
                             self._wrap_concat(poly.NcPolynomial.concat))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- results --------------------------------------------------------------------

    def pass_report(self) -> dict:
        """Counts, self times and inclusive times of the pass since reset()."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            self_s[name.split(".", 1)[0]] += duration - child_time[index]
            inclusive[name] += duration
        report = dict(self.counts)
        report.update({
            "reduction.self_s": self_s["reduction"],
            "catalog.self_s": self_s["catalog"],
            "catalog.oracle_s": inclusive["catalog.symmetrized_star_by_averaging"],
            "catalog.repeat_pair_share": (self.pairs_repeated / self.pairs_total
                                          if self.pairs_total else 0.0),
            "qcomb.self_s": self_s["qcomb"],
            "norms.self_s": self_s["norms"],
            "probes.self_s": self_s["probes"],
            "states.gram_s": inclusive["states.gram_matrix"],
            "states.gns_s": inclusive["states.gns_build"],
            "params.resolve_s": self_s["params"],
        })
        for kind in verify.SUITES:
            report[f"verify.suite.{kind}_s"] = inclusive[f"verify.suite.{kind}"]
        return report

    def scalar_timings(self) -> dict:
        """ns per mul and add on coefficients this pass produced, per ring."""
        out = {}
        for ring in RINGS:
            pairs = self.samples[ring]
            if ring == "complex":
                pairs = list(zip(pairs, pairs[1:]))
            if not pairs:
                out[f"scalars.{ring}.mul_ns"] = 0.0
                out[f"scalars.{ring}.add_ns"] = 0.0
                continue
            pairs = pairs[::max(1, len(pairs) // TIMED_OPERANDS)][:TIMED_OPERANDS]
            out[f"scalars.{ring}.mul_ns"] = _ns_per_op(pairs, lambda a, b: a * b)
            out[f"scalars.{ring}.add_ns"] = _ns_per_op(pairs, lambda a, b: a + b)
        return out

    def spans_payload(self):
        return [list(span) for span in self.spans]


def _ns_per_op(pairs, op, repeats=5, budget_s=0.02):
    """Median over repeats of the time per op, less the loop's own cost.

    Each repeat spends about budget_s: large RationalQ operands take
    milliseconds per op, so fewer of them are timed.
    """
    clock = time.perf_counter

    def loop(fn, operands):
        start = clock()
        for a, b in operands:
            fn(a, b)
        return clock() - start

    per_op = loop(op, pairs[:4]) / len(pairs[:4])
    pairs = pairs[:max(4, min(len(pairs), int(budget_s / max(per_op, 1e-9))))]
    rounds = max(1, int(budget_s / max(per_op * len(pairs), 1e-9)))
    samples = []
    for _ in range(repeats):
        spent = sum(loop(op, pairs) for _ in range(rounds))
        empty = sum(loop(_nothing, pairs) for _ in range(rounds))
        samples.append(max(spent - empty, 0.0) / (rounds * len(pairs)) * 1e9)
    return statistics.median(samples)


def _nothing(a, b):
    return None
