"""Verification suites: wiring probes to catalogs and assembling reports.

A run spec names a catalog (or a relation-table file), a ring, parameter
bindings, hbar values and a probe list; ``run_suites`` executes every
(probe, hbar) combination with its own deterministically derived RNG and
returns one report row per combination.  Reports are byte-stable for a
fixed seed: rows are sorted, floats serialized by repr, and wall-clock
timings kept out unless explicitly requested.  Case digests are settled as
each suite finishes: computed, or dropped when ``run_suites`` is told that
no output will show them, so no suite's inputs outlive it.

A suite's verdict is "every case margin >= 0" (``finish_report``); only the
probes that state a rule of their own pass their own verdict.  A table file
is read once, by ``context_from_run``, which also parses its tails before
any suite runs; a run without a ``ring`` uses the file's declared ring, or
``complex`` for a catalog.  Table-file faults (unreadable file, malformed
JSON, a relation lacking a field, a pair given twice, a tail that does not
parse) stop the run like a config error.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

from .catalog import (
    CatalogInstance,
    StarProduct,
    build_catalog,
    catalog_poisson,
    catalog_rules,
    leftmost_route,
    log_canonical_table,
    symmetrized_star,
    symmetrized_star_by_averaging,
    wick_involution_condition,
    wick_log_canonical_table,
)
from .params import ParameterCatalog, ParameterError
from .poly import Polynomial
from .probes import (
    BIG_MARGIN,
    ProbeCase,
    ProbeReport,
    classical_limit_probe,
    degree_filtration_check,
    digest_of,
    exponent_ball,
    finish_report,
    first_order_commutator,
    generator_product_bound,
    macgyver_continuity_probe,
    random_polynomial,
    submultiplicativity_probe,
)
from .qcomb import q_multinomial
from .reduction import (check_overlaps, generator_triples, jacobi_check, poisson_bracket,
                        poisson_from_table)
from .reduction import star as table_star
from .scalars import GaussRational, RationalQRing, RationalRing, make_ring
from .states import (
    StateFunctional,
    WickPoint,
    gns_build,
    gram_matrix,
    nonpositivity_witness,
    point_separation_probe,
    psd_check,
    random_wick_point,
    reversal_isomorphism,
)
from .tableio import TableFileError, check_table, table_from_dict

SCHEMA = "starprod/1"
Q_DISC_POINTS = 16  # points on the boundary circle of the auto-Q disc
_SAMPLING = {"samples": int, "max_degree": int, "terms": int}  # the random-input settings


class ConfigError(ValueError):
    pass


@dataclass
class RunContext:
    label: str
    catalog_name: Optional[str]
    d: Optional[int]
    rules: Optional[ParameterCatalog]
    options: Dict
    ring_name: Optional[str]  # None: the table file's ring, or complex
    truncation: int
    table_spec: Optional[Dict] = None

    def instance(self, ring_name: Optional[str] = None,
                 hbar: Optional[complex] = None) -> CatalogInstance:
        name = ring_name or self.ring_name
        if self.table_spec is not None:
            ring = make_ring(name, truncation_order=self.truncation) if name else None
            table = table_from_dict(self.table_spec, hbar=hbar, ring=ring)
            star = StarProduct(self.label, table.ring, table.dim, table.kind, table, None)
            return CatalogInstance(self.label, table.ring, table.dim, table.kind,
                                   star, table, star,
                                   (star.monomial_product, leftmost_route(table)))
        ring = make_ring(name or "complex", truncation_order=self.truncation)
        return build_catalog(self.catalog_name, ring, self.d, self.rules,
                             hbar, dict(self.options))

    def poisson(self, order: int = 4):
        if self.table_spec is not None:
            ring = make_ring("series", truncation_order=order)
            return poisson_from_table(table_from_dict(self.table_spec, ring=ring))
        return catalog_poisson(self.catalog_name, self.d, self.rules,
                               dict(self.options), order)


# -- suite runners ----------------------------------------------------------------
# signature: fn(ctx, cfg, rng, hbar) -> ProbeReport


def _bool_report(kind: str, rows: List[Tuple[Union[str, Callable[[], str]], bool]],
                 meta: Optional[Dict] = None) -> ProbeReport:
    """One case per (digest, verdict) row: margin 1.0 if it holds, -1.0 if not."""
    cases = [ProbeCase(digest, 0.0 if ok else 1.0, 0.0, 1.0 if ok else -1.0)
             for digest, ok in rows]
    return finish_report(kind, cases, meta=meta)


def suite_overlaps(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    inst = ctx.instance(hbar=hbar)
    report = check_overlaps(inst.table, tol=float(cfg.get("tol", 1e-10)))
    failed = {(i, j, k) for (i, j, k, _) in report.failures}
    rows = ([(digest_of("overlap", str(triple)), triple not in failed)
             for triple in generator_triples(inst.dim)]
            or [(digest_of("overlap", "no-triples"), True)])
    return _bool_report("overlaps", rows, {"failures": len(report.failures)})


def suite_jacobi(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    eta = ctx.poisson(order=int(cfg.get("order", 4)))
    ok = jacobi_check(eta, tol=float(cfg.get("tol", 1e-10)))
    return _bool_report("jacobi", [(digest_of("jacobi", ctx.label), ok)])


def suite_oracle(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    """The instance's route against its reference on a full monomial sweep."""
    inst = ctx.instance(hbar=hbar)
    tol = float(cfg.get("tol", 1e-10))
    ring = inst.ring
    route, reference = inst.oracle
    ball = exponent_ball(inst.dim, int(cfg.get("max_degree", 3)))
    cases = []
    for K in ball:
        for L in ball:
            got, expected = route(K, L), reference(K, L)
            if ring.exact:
                lhs, margin = (0.0, 1.0) if got == expected else (1.0, -1.0)
            else:
                zero = ring.zero
                lhs = max((abs(ring.to_complex(got.terms.get(M, zero))
                               - ring.to_complex(expected.terms.get(M, zero)))
                           for M in set(got.terms) | set(expected.terms)), default=0.0)
                scale = max((abs(ring.to_complex(c)) for c in expected.terms.values()),
                            default=1.0)
                margin = tol * max(1.0, scale) - lhs
            cases.append(ProbeCase(digest_of("oracle", str(K), str(L)), lhs, tol, margin))
    return finish_report("oracle", cases)


def _settings(cfg: Dict, **convert: Callable) -> Dict:
    """The settings named in ``convert`` that ``cfg`` gives, each converted;
    a probe's own defaults stand for the rest."""
    return {name: to(cfg[name]) for name, to in convert.items() if name in cfg}


def suite_degree_filtration(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    inst = ctx.instance(hbar=hbar)
    return degree_filtration_check(inst.star, rng, inst.dim, inst.ring, kind=inst.kind,
                                   **_settings(cfg, **_SAMPLING))


def suite_submultiplicativity(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    inst = ctx.instance(hbar=hbar)
    rho = cfg.get("rho")
    if not rho:
        raise ConfigError("submultiplicativity probe needs 'rho'")
    return submultiplicativity_probe(inst.star, rho, rng, inst.dim, inst.ring, kind=inst.kind,
                                     **_settings(cfg, tol=float, **_SAMPLING))


def _auto_q_bound(ctx: RunContext, hbar: float) -> float:
    """N * sup of generator-product coefficients over a disc around 0 of
    radius |hbar| + 0.5 (sampled on the boundary circle plus hbar itself),
    skipping a point where a parameter has a pole or a float op fails."""
    radius = abs(hbar) + 0.5
    points = [hbar] + [radius * complex(math.cos(2 * math.pi * k / Q_DISC_POINTS),
                                        math.sin(2 * math.pi * k / Q_DISC_POINTS))
                       for k in range(Q_DISC_POINTS)]
    bound = 1.0
    for z in points:
        try:
            inst = ctx.instance(ring_name="complex", hbar=z)
        except (ParameterError, OverflowError, ZeroDivisionError):
            continue
        count, sup = generator_product_bound(inst.star)
        bound = max(bound, count * sup)
    return bound


def suite_macgyver(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    inst = ctx.instance(hbar=hbar)
    Q = cfg.get("Q", "auto")
    if Q == "auto":
        Q = _auto_q_bound(ctx, float(hbar if hbar is not None else 0.0))
    return macgyver_continuity_probe(inst.star, rng, Q=float(Q),
                                     **_settings(cfg, C=float, alpha=float, beta=float,
                                                 sweep_degree=int, **_SAMPLING))


def _random_pairs(cfg: Dict, count: int, rng, ring, dim: int, kind: str) -> List[Tuple]:
    """``cfg["pairs"]`` (default ``count``) random pairs (f, g), f drawn before g."""
    args = (rng, ring, dim, int(cfg.get("max_degree", 3)), int(cfg.get("terms", 3)), kind)
    return [(random_polynomial(*args), random_polynomial(*args))
            for _ in range(int(cfg.get("pairs", count)))]


def suite_classical_limit(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    eta = ctx.poisson()
    ring = make_ring("complex")
    dim = ctx.instance(ring_name="complex", hbar=0.0).dim
    pairs = _random_pairs(cfg, 20, rng, ring, dim, "x")
    hbars = cfg.get("hbars")

    def star_at(h):
        return ctx.instance(ring_name="complex", hbar=h).star

    return classical_limit_probe(star_at, eta, pairs, cfg.get("rho", [1.0] * dim),
                                 hbars=hbars, tol=cfg.get("tol"))


def suite_first_order(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    inst = ctx.instance(ring_name="series")
    if inst.table is None:
        raise ConfigError("first_order suite needs a relation table")
    eta = poisson_from_table(inst.table)
    base = inst.ring.base
    i_unit = base.imaginary_unit
    rows = []
    for f, g in _random_pairs(cfg, 50, rng, inst.ring, inst.dim, inst.kind):
        antisym = first_order_commutator(f, g, inst.table)
        f0 = f.map_coefficients(lambda s: s.coefficient(0), base)
        g0 = g.map_coefficients(lambda s: s.coefficient(0), base)
        bracket = poisson_bracket(eta, f0, g0).scale(i_unit)
        rows.append((partial(_terms_digest, "B1", f, g), antisym == bracket))
    return _bool_report("first_order", rows)


def _terms_digest(tag: str, f: Polynomial, g: Polynomial) -> str:
    return digest_of(tag, repr(f.terms), repr(g.terms))


def suite_q_identities(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    """q-multinomial positivity, constant term 1, and the q <-> 1/q identity."""
    ring = RationalQRing()
    q = ring.q
    rows = []
    for dim in cfg.get("dims", [2, 3]):
        for K in exponent_ball(int(dim), int(cfg.get("max_total", 4))):
            value = q_multinomial(K, q, ring)
            ok = value.is_polynomial()
            coeffs = value.num if ok else ()
            if ok and coeffs:
                ok = coeffs[0] == GaussRational(1)
                ok = ok and all(c.im == 0 and c.re >= 0 and c.re.denominator == 1
                                for c in coeffs)
            pair_sum = (sum(K) ** 2 - sum(k * k for k in K)) // 2
            mirrored = q ** pair_sum * q_multinomial(K, ring.inverse(q), ring)
            ok = ok and value == mirrored
            rows.append((digest_of("qmult", str(dim), str(K)), ok))
    return _bool_report("q_identities", rows)


def suite_sigma_oracle(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    ring = RationalRing()
    dim = int(cfg.get("d", ctx.d or 2))
    max_degree = int(cfg.get("max_degree", 2))
    rows = []
    for q_text in cfg.get("q_values", ["3/2", "5/7"]):
        q = GaussRational(Fraction(q_text))
        table = log_canonical_table(ring, dim, q)
        for K in exponent_ball(dim, max_degree):
            for L in exponent_ball(dim, max_degree):
                closed = symmetrized_star(K, L, q, ring)
                oracle = symmetrized_star_by_averaging(K, L, table)
                rows.append((digest_of("sigma", q_text, str(K), str(L)),
                             closed == oracle))
    return _bool_report("sigma_oracle", rows)


def suite_wick_involution(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    inst = ctx.instance(hbar=hbar)
    ok = wick_involution_condition(inst.table, tol=float(cfg.get("tol", 1e-10)))
    return _bool_report("wick_involution", [(digest_of("wick-involution", ctx.label), ok)])


def suite_states_psd(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    tol = float(cfg.get("tol", 1e-9))
    cases = []
    for dim in cfg.get("dims", [2, 3, 4]):
        for h in cfg.get("hbars", [-1.0, -0.1, 0.0, 0.1, 1.0]):
            for _ in range(int(cfg.get("points", 5))):
                z = random_wick_point(rng, int(dim))
                state = StateFunctional(z, float(h))
                _, M = gram_matrix(state, int(cfg.get("degree", 3)))
                res = psd_check(M, tol=tol)
                margin = res.min_eigenvalue + tol * max(1.0, res.scale)
                cases.append(ProbeCase(digest_of("psd", str(dim), repr(h), repr(z.z)),
                                       res.min_eigenvalue, 0.0, margin))
    return finish_report("states_psd", cases)


def suite_witness(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    tol = float(cfg.get("tol", 1e-12))
    cases = []
    for dim in cfg.get("dims", [2, 3]):
        for h in cfg.get("hbars", [math.log(2), 1.0]):
            z = random_wick_point(rng, int(dim))
            while abs(z.z[0]) < 0.1:
                z = random_wick_point(rng, int(dim))
            value = nonpositivity_witness(z, float(h), 1)
            expected = math.exp(-float(h)) - 1
            err = abs(value - expected)
            cases.append(ProbeCase(digest_of("witness", str(dim), repr(h)),
                                   err, tol, tol - err))
    return finish_report("witness", cases)


def suite_psi(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    """The reversal isomorphism intertwines the opposite-sign products and
    pulls deformed evaluations back: delta_z^h = delta_conj(z)^(-h) after it."""
    ring = make_ring("complex")
    tol = float(cfg.get("tol", 1e-9))
    cases = []
    for dim in cfg.get("dims", [2, 3]):
        dim = int(dim)
        for h in cfg.get("hbars", [0.6]):
            h = float(h)
            plus = wick_log_canonical_table(ring, dim, complex(math.exp(-h)))
            minus = wick_log_canonical_table(ring, dim, complex(math.exp(h)))
            ball = exponent_ball(dim, int(cfg.get("max_degree", 3)))
            worst = 0.0
            for K in ball:
                fK = Polynomial.monomial(ring, dim, K, kind="w")
                for L in ball:
                    fL = Polynomial.monomial(ring, dim, L, kind="w")
                    lhs = reversal_isomorphism(table_star(fK, fL, plus), h)
                    rhs = table_star(reversal_isomorphism(fK, h),
                                     reversal_isomorphism(fL, h), minus)
                    diff = lhs - rhs
                    scale = max((abs(c) for c in rhs.terms.values()), default=1.0)
                    err = max((abs(c) for c in diff.terms.values()), default=0.0)
                    worst = max(worst, err / max(1.0, scale))
            z = random_wick_point(rng, dim)
            state = StateFunctional(z, h)
            zbar = WickPoint(tuple(v.conjugate() for v in z.z))
            mirror = StateFunctional(zbar, -h)
            for K in ball:
                lhs_val = state.eval_monomial(K)
                rhs_val = mirror(reversal_isomorphism(
                    Polynomial.monomial(ring, dim, K, kind="w"), h))
                worst = max(worst, abs(lhs_val - rhs_val) / max(1.0, abs(lhs_val)))
            cases.append(ProbeCase(digest_of("psi", str(dim), repr(h)), worst, tol, tol - worst))
    return finish_report("psi", cases)


def suite_gns(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    tol = float(cfg.get("tol", 1e-8))
    dim = int(cfg.get("d", 2))
    degree = int(cfg.get("degree", 3))
    cases = []
    for h in cfg.get("hbars", [0.4]):
        for _ in range(int(cfg.get("states", 5))):
            z = random_wick_point(rng, dim)
            data = gns_build(StateFunctional(z, float(h)), degree)
            cases.append(ProbeCase(digest_of("gns", repr(h), repr(z.z)),
                                   data.adjoint_residual, tol, tol - data.adjoint_residual))
    return finish_report("gns", cases)


def suite_separation(ctx: RunContext, cfg: Dict, rng, hbar) -> ProbeReport:
    ring = make_ring("complex")
    dim = int(cfg.get("d", 2))
    rows = []
    for _ in range(int(cfg.get("samples", 5))):
        f = random_polynomial(rng, ring, dim, int(cfg.get("max_degree", 2)), 2, "w")
        result = point_separation_probe(f, float(cfg.get("hbar", 0.5)), rng)
        rows.append((digest_of("separation", repr(sorted(f.terms))), result.separated))
    return _bool_report("separation", rows)


SUITES: Dict[str, Tuple[Callable, bool]] = {
    # kind -> (runner, consumes hbar values)
    "overlaps": (suite_overlaps, True),
    "jacobi": (suite_jacobi, False),
    "oracle": (suite_oracle, True),
    "degree_filtration": (suite_degree_filtration, True),
    "submultiplicativity": (suite_submultiplicativity, True),
    "macgyver": (suite_macgyver, True),
    "classical_limit": (suite_classical_limit, False),
    "first_order": (suite_first_order, False),
    "q_identities": (suite_q_identities, False),
    "sigma_oracle": (suite_sigma_oracle, False),
    "wick_involution": (suite_wick_involution, True),
    "states_psd": (suite_states_psd, False),
    "witness": (suite_witness, False),
    "psi": (suite_psi, False),
    "gns": (suite_gns, False),
    "separation": (suite_separation, False),
}


# -- spec handling -------------------------------------------------------------------


def read_json(path) -> Dict:
    """The JSON object in the file at ``path``; a directory, a file that is
    not UTF-8, malformed JSON, or JSON that is no object, is a ConfigError
    that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except IsADirectoryError:
        raise ConfigError(f"{path}: is a directory, not a JSON file") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return _json_object(data, path)


def _json_list(value, where) -> List:
    """``value`` when it is a JSON list, else a ConfigError naming ``where``."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a JSON list, got {type(value).__name__}")
    return value


def _json_object(value, where) -> Dict:
    """``value`` when it is a JSON object, else a ConfigError naming ``where``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value


def context_from_run(run: Dict) -> RunContext:
    _json_object(run, "run")
    ring_name = run.get("ring")
    truncation = int(run.get("truncation", 8))
    if "phi" in run or "table" in run:
        spec = run.get("table")
        if spec is None:
            try:
                spec = read_json(run["phi"])
            except OSError as exc:
                raise TableFileError(f"cannot read table file {run['phi']!r}: "
                                     f"{exc.strerror}") from None
        check_table(spec)
        label = run.get("label", f"phi:{run.get('phi', 'inline')}")
        return RunContext(label, None, None, None, {}, ring_name, truncation, spec)
    catalog = run.get("catalog")
    if catalog is None:
        raise ConfigError("run needs a 'catalog' id or a 'phi' table file")
    rules = ParameterCatalog.from_spec(run["params"]) if run.get("params") else None
    options = dict(run.get("options", {}))
    catalog_rules(catalog, rules, options)  # an unknown catalog or an unbound parameter
    label = run.get("label", catalog)
    return RunContext(label, catalog, run.get("d"), rules, options, ring_name, truncation)


def finite_hbar(value) -> float:
    """``value`` as a float hbar; NaN and the infinities are config errors."""
    h = float(value)
    if not math.isfinite(h):
        raise ConfigError(f"hbar must be finite, got {value!r}")
    return h


def _normalize_hbars(run: Dict) -> List[Optional[float]]:
    h = run.get("hbar")
    if h is None:
        return [None]
    if isinstance(h, (int, float, str)):
        return [finite_hbar(h)]
    return [finite_hbar(v) for v in h]


@dataclass
class SuiteResult:
    catalog: str
    probe: str
    hbar: Optional[float]
    report: ProbeReport
    elapsed: float

    def row(self, include_cases: bool = False) -> Dict:
        out = {
            "catalog": self.catalog,
            "probe": self.probe,
            "hbar": self.hbar,
            "pass": self.report.passed,
            "worst_margin": self.report.worst_margin,
            "case_count": len(self.report.cases),
        }
        if self.report.meta:
            out["meta"] = self.report.meta
        if include_cases:
            out["cases"] = [c.to_row() for c in self.report.cases]
        return out


def run_suites(spec: Dict, seed: Optional[int] = None,
               digests: bool = True) -> List[SuiteResult]:
    """Run every (probe, hbar) task of ``spec``; ``digests=False`` drops the
    deferred case digests unread (their ``digest`` becomes None)."""
    actual_seed = spec.get("seed", 42) if seed is None else seed
    tasks = []
    for run_idx, run in enumerate(_json_list(spec.get("runs", []), "runs")):
        ctx = context_from_run(_json_object(run, f"run {run_idx}"))
        hbars = _normalize_hbars(run)
        for probe_idx, probe in enumerate(_json_list(run.get("probes", []),
                                                     f"run {run_idx}: probes")):
            kind = _json_object(probe, f"run {run_idx}, probe {probe_idx}").get("kind")
            if kind not in SUITES:
                raise ConfigError(f"unknown probe kind {kind!r}")
            fn, needs_hbar = SUITES[kind]
            for h in (hbars if needs_hbar else [None]):
                tasks.append((ctx, dict(probe), kind, h, run_idx, probe_idx, fn))

    def execute(task):
        ctx, cfg, kind, h, run_idx, probe_idx, fn = task
        rng = random.Random(f"{actual_seed}:{run_idx}:{probe_idx}:{kind}:{h}")
        start = time.monotonic()
        try:
            report = fn(ctx, cfg, rng, h)
        except (ConfigError, TableFileError):
            raise
        except Exception as exc:  # a crashed suite is a failed suite
            report = ProbeReport(kind, False, -BIG_MARGIN, [],
                                 {"error": f"{type(exc).__name__}: {exc}"})
        for case in report.cases:
            case.settle(digests)
        return SuiteResult(ctx.label, kind, h, report, time.monotonic() - start)

    results = [execute(t) for t in tasks]
    results.sort(key=lambda r: (r.catalog, r.probe, repr(r.hbar)))
    return results


def assemble_report(results: List[SuiteResult], seed: int,
                    include_cases: bool = False, include_timings: bool = False) -> Dict:
    report = {
        "schema": SCHEMA,
        "seed": seed,
        "pass": all(r.report.passed for r in results),
        "suites": [r.row(include_cases) for r in results],
    }
    if include_timings:
        report["timings"] = {
            f"{r.catalog}/{r.probe}/{r.hbar}": round(r.elapsed, 3) for r in results
        }
    return report


def report_to_json(report: Dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def cases_to_csv_rows(results: List[SuiteResult]) -> List[List[str]]:
    rows = [["catalog", "probe", "hbar", "digest", "lhs", "rhs", "margin"]]
    for r in results:
        for c in r.report.cases:
            rows.append([r.catalog, r.probe, repr(r.hbar), c.digest,
                         repr(c.lhs), repr(c.rhs), repr(c.margin)])
    return rows


# -- the bundled default run spec -----------------------------------------------------

DEFAULT_RUNSPEC: Dict = {
    "schema": SCHEMA,
    "seed": 42,
    "runs": [
        {"catalog": "log_canonical", "d": 3, "ring": "series", "truncation": 4,
         "params": {"q": "exp_i"},
         "probes": [{"kind": "overlaps"}, {"kind": "jacobi"},
                    {"kind": "first_order", "pairs": 40, "max_degree": 3}]},
        {"catalog": "log_canonical", "d": 2, "ring": "complex",
         "params": {"q": "exp_i"}, "hbar": [0.3, 0.7],
         "probes": [{"kind": "oracle", "max_degree": 3},
                    {"kind": "degree_filtration", "samples": 150},
                    {"kind": "submultiplicativity", "rho": [1.5, 0.8],
                     "samples": 1200, "max_degree": 6},
                    {"kind": "macgyver", "C": 2.0, "alpha": 1, "beta": 1,
                     "Q": 1.0, "samples": 120},
                    {"kind": "classical_limit", "rho": [1.0, 1.0], "pairs": 15}]},
        {"catalog": "wick_log_canonical", "d": 3, "ring": "complex",
         "params": {"q": "exp_neg"}, "hbar": [0.5],
         "probes": [{"kind": "oracle", "max_degree": 3},
                    {"kind": "wick_involution"},
                    {"kind": "submultiplicativity", "rho": [0.9, 1.2, 0.7],
                     "samples": 800, "max_degree": 5},
                    {"kind": "states_psd", "dims": [2, 3], "degree": 2,
                     "points": 6, "hbars": [-0.5, 0.0, 0.5]},
                    {"kind": "witness", "dims": [2, 3], "hbars": [0.25, 1.0]},
                    {"kind": "psi", "dims": [2, 3], "max_degree": 3, "hbars": [0.6]},
                    {"kind": "gns", "d": 2, "degree": 2, "states": 4, "hbars": [0.4]},
                    {"kind": "separation", "d": 2, "samples": 5}]},
        {"catalog": "nonquadratic", "ring": "series", "truncation": 4,
         "options": {"N": 2},
         "probes": [{"kind": "overlaps"}, {"kind": "jacobi"},
                    {"kind": "first_order", "pairs": 25, "max_degree": 3}]},
        {"catalog": "nonquadratic", "ring": "complex", "options": {"N": 2},
         "hbar": [0.4],
         "probes": [{"kind": "oracle", "max_degree": 3}]},
        {"catalog": "quantum_weyl", "ring": "series", "truncation": 4,
         "options": {"lambda": 1},
         "probes": [{"kind": "overlaps"},
                    {"kind": "first_order", "pairs": 25, "max_degree": 3}]},
        {"catalog": "quantum_weyl", "ring": "complex", "options": {"lambda": 1},
         "hbar": [0.3],
         "probes": [{"kind": "oracle", "max_degree": 3},
                    {"kind": "classical_limit", "rho": [1.0, 1.0], "pairs": 10}]},
        {"catalog": "symmetrized_log_canonical", "d": 2, "ring": "rational",
         "params": {"q": "const:3/5"},
         "probes": [{"kind": "q_identities", "dims": [2, 3], "max_total": 4},
                    {"kind": "sigma_oracle", "q_values": ["3/2", "5/7", "-2/3"],
                     "max_degree": 2}]},
        {"catalog": "translated", "d": 2, "ring": "series", "truncation": 4,
         "options": {"c": ["1", "-1"]},
         "probes": [{"kind": "overlaps"},
                    {"kind": "first_order", "pairs": 20, "max_degree": 2},
                    {"kind": "oracle", "max_degree": 2}]},
    ],
}
