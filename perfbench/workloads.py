"""The four seeded workloads of the starprod benchmark.

Each in-process workload has two halves:

  make_inputs(seed, size)  plain data drawn from ``random.Random`` and the
                           seed alone: exponent tuples, Fraction or float
                           coefficients, hbar values, Wick points.  Nothing
                           here touches starprod.
  run_pass(inputs, tally)  one timed pass.  It builds its own catalogs,
                           tables and polynomials from the plain data, so no
                           product survives from one pass to the next, and
                           checks every answer against a computation made
                           here (with ``fractions``/``math`` alone) or against
                           a property the method must have.

``verify_default`` runs the ``star`` command line in fresh processes and is
driven from run.py; this module only derives what its report must contain.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from starprod.catalog import (
    build_catalog,
    catalog_poisson,
    log_canonical_table,
    symmetrized_star,
    symmetrized_star_by_averaging,
    translated_star,
)
from starprod.norms import NormSpec, seminorm
from starprod.params import ParameterCatalog, ParameterRule
from starprod.poly import Polynomial
from starprod.probes import classical_limit_probe, default_hbar_sequence
from starprod.qcomb import q_multinomial
from starprod.reduction import check_overlaps, star_by_reduction
from starprod.scalars import GaussRational, RationalQRing, SeriesRing, make_ring
from starprod.states import (
    StateFunctional,
    WickPoint,
    gns_build,
    gram_matrix,
    nonpositivity_witness,
    psd_check,
)

# Per-pass sizes.  "full" is what the benchmark times; "tiny" is for the
# self-check and finishes in a few seconds.  Full passes last one to three
# seconds on a 2-vCPU machine, so that a 25-second run holds enough passes
# for their median to be a steady estimate.
SIZES = {
    "full": {
        "exact_assoc": {"triples": dict.fromkeys(("log_canonical", "wick_log_canonical",
                                                  "nonquadratic0", "nonquadratic1",
                                                  "nonquadratic2", "quantum_weyl",
                                                  "translated"), 5),
                        "sweep_degree": {"log_canonical": 3, "wick_log_canonical": 3,
                                         "nonquadratic0": 3, "nonquadratic1": 3,
                                         "nonquadratic2": 3, "quantum_weyl": 3,
                                         "translated": 2}},
        "float_probes": {"submult_pairs": 600, "route_pairs": 120, "limit_pairs": 12,
                         "gram_points": 6, "gns_states": 8, "max_degree": 6},
        "q_symmetrized": {"qmult_max_total": 6, "assoc_triples": 12,
                          "q_values": 2, "oracle_pairs": 30},
    },
    "tiny": {
        "exact_assoc": {"triples": dict.fromkeys(("log_canonical", "wick_log_canonical",
                                                  "nonquadratic0", "nonquadratic1",
                                                  "nonquadratic2", "quantum_weyl",
                                                  "translated"), 1),
                        "sweep_degree": dict.fromkeys(("log_canonical", "wick_log_canonical",
                                                       "nonquadratic0", "nonquadratic1",
                                                       "nonquadratic2", "quantum_weyl",
                                                       "translated"), 1)},
        "float_probes": {"submult_pairs": 4, "route_pairs": 2, "limit_pairs": 3,
                         "gram_points": 1, "gns_states": 1, "max_degree": 3},
        "q_symmetrized": {"qmult_max_total": 3, "assoc_triples": 2,
                          "q_values": 1, "oracle_pairs": 3},
    },
}


class Tally:
    """Operations attempted, failed by the known fault, and answered wrongly."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def check(self, ok: bool, what: str, known_fault: bool = False):
        self.attempted += 1
        if ok:
            return
        if known_fault:
            self.failed += 1
        else:
            self.wrong.append(what)


# -- seeded plain-data inputs -------------------------------------------------


def _compositions(dim, degree):
    if dim == 1:
        return [(degree,)]
    return [(k,) + rest for k in range(degree, -1, -1)
            for rest in _compositions(dim - 1, degree - k)]


class _Deck:
    """Seeded exponent draws that use every composition of a degree equally often.

    Cost depends strongly on where the letters of a monomial sit, so plain
    random exponents make the work per pass swing with the seed.  A shuffled
    deck per (dim, degree) keeps that mix fixed while the seed still decides
    which monomials meet in which product.
    """

    def __init__(self, rng):
        self.rng = rng
        self.decks = {}

    def draw(self, dim, degree):
        deck = self.decks.get((dim, degree))
        if not deck:
            deck = _compositions(dim, degree)
            self.rng.shuffle(deck)
            self.decks[(dim, degree)] = deck
        return deck.pop()


def _fraction(rng, nonzero=False):
    while True:
        num = rng.randint(-9, 9)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, 9))


def _cycled_exponents(dim, degrees):
    """One exponent per degree, each degree cycling through all its compositions in turn."""
    used = {}
    out = []
    for degree in degrees:
        compositions = _compositions(dim, degree)
        n = used.get(degree, 0)
        used[degree] = n + 1
        out.append(compositions[n % len(compositions)])
    return out


def _cycled_degrees(top, terms, count):
    """Term degrees of ``count`` polynomials: term t has degree t % (top + 1).

    Every degree occurs equally often, and the ``terms`` degrees of one
    polynomial are distinct as long as terms <= top + 1.
    """
    degrees = [t % (top + 1) for t in range(terms * count)]
    return [degrees[n:n + terms] for n in range(0, len(degrees), terms)]


def _degrees(rng, top, count):
    """count degrees in 0..top, each equally often, in seeded order."""
    out = [n % (top + 1) for n in range(count)]
    rng.shuffle(out)
    return out


def _monomial_pairs(rng, deck, dim, top, count):
    return [(deck.draw(dim, a), deck.draw(dim, b))
            for a, b in zip(_degrees(rng, top, count), _degrees(rng, top, count))]


def _float_pairs(rng, deck, dim, top, terms, count):
    """count pairs of float polynomial specs with distinct term degrees in 0..top.

    The degree sets of the 2 * count factors are fixed (see _cycled_degrees);
    the seed decides which factors meet, where their letters sit (from the
    deck) and the coefficients.
    """
    factors = _cycled_degrees(top, terms, 2 * count)
    rng.shuffle(factors)
    specs = [sorted((deck.draw(dim, k), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                    for k in degrees)
             for degrees in factors]
    return [(specs[n], specs[n + 1]) for n in range(0, len(specs), 2)]


def _wick_half(rng, dim, radius=1.0):
    half = []
    for k in range((dim + 1) // 2):
        im = 0.0 if dim % 2 == 1 and k == (dim + 1) // 2 - 1 else rng.uniform(-radius, radius)
        half.append(complex(rng.uniform(-radius, radius), im))
    return half


# -- exact_assoc ----------------------------------------------------------------

R = make_ring("rational")
C = make_ring("complex")

# Parameters of the associativity sweep (acceptance criterion 1).
LC_Q = Fraction(5, 4)
WICK_Q = Fraction(3, 4)


def _const(value) -> ParameterRule:
    return ParameterRule.parse(f"const:{value}")


def _exact_catalog(key):
    """The exact catalogs of criterion 1, keyed as in SIZES."""
    if key == "log_canonical":
        return build_catalog("log_canonical", R, 3, ParameterCatalog({"q": _const(LC_Q)}))
    if key == "wick_log_canonical":
        return build_catalog("wick_log_canonical", R, 3,
                             ParameterCatalog({"q": _const(WICK_Q)}))
    if key.startswith("nonquadratic"):
        rules = ParameterCatalog({"p": _const("7/5"), "q": _const("5/4"), "r": _const("4/3")})
        return build_catalog("nonquadratic", R, 3, rules, options={"N": int(key[-1])})
    if key == "quantum_weyl":
        return build_catalog("quantum_weyl", SeriesRing(order=4, exact=True), 2,
                             options={"lambda": 1})
    if key == "translated":
        return build_catalog("translated", R, 2, ParameterCatalog({"q": _const(LC_Q)}),
                             options={"c": ["1", "-1"]})
    raise KeyError(key)


EXACT_DIMS = {"log_canonical": 3, "wick_log_canonical": 3, "nonquadratic0": 3,
              "nonquadratic1": 3, "nonquadratic2": 3, "quantum_weyl": 2, "translated": 2}

# Criterion 1 builds every factor from three terms of total degree 0..4, with
# as many triples on every catalog.  Here term t of a catalog's triples has
# degree t % 5 (five triples are one whole cycle) and its letters cycle
# through the compositions of that degree, so the exponents, and with them
# the rewriting a pass needs, are the same for every seed: where the letters
# sit moved the triples' time by up to 1.9x from seed to seed.  The seed
# draws the coefficients.
TRIPLE_MAX_DEGREE = 4
TERMS = 3


def exact_inputs(seed: int, size: dict) -> dict:
    rng = random.Random(f"exact_assoc:{seed}")
    triples, pairs = {}, {}
    for key, count in size["triples"].items():
        dim = EXACT_DIMS[key]
        degrees = _cycled_degrees(TRIPLE_MAX_DEGREE, TERMS, 3 * count)
        exponents = iter(_cycled_exponents(dim, [k for ks in degrees for k in ks]))
        factors = [sorted((next(exponents), (_fraction(rng, nonzero=True), _fraction(rng)))
                          for _ in ks) for ks in degrees]
        triples[key] = [tuple(factors[n:n + 3]) for n in range(0, len(factors), 3)]
        # the sweep is complete, so its cost does not move with the seed
        ball = [K for n in range(size["sweep_degree"][key] + 1) for K in _compositions(dim, n)]
        pairs[key] = [(K, L) for K in ball for L in ball]
    return {"triples": triples, "pairs": pairs}


def _exact_poly(inst, spec):
    return Polynomial(inst.ring, inst.dim,
                      {K: inst.ring.coerce(GaussRational(re, im)) for K, (re, im) in spec},
                      inst.kind)


def inversion_count(K, L) -> int:
    """Letters of the word of x^K that stand after a smaller letter of x^L."""
    return sum(K[j] * L[i] for j in range(len(K)) for i in range(j))


def _is_q_power(poly, M, q: Fraction, w: int) -> bool:
    expected = q ** w
    return (set(poly.terms) == {M}
            and poly.terms[M].re == expected and poly.terms[M].im == 0)


def exact_build(inputs):
    built = {}
    for key, triples in inputs["triples"].items():
        inst = _exact_catalog(key)
        built[key] = (inst, [tuple(_exact_poly(inst, s) for s in t) for t in triples])
    return built


def exact_pass(inputs, tally: Tally):
    for key, (inst, triples) in exact_build(inputs).items():
        tally.check(check_overlaps(inst.table).ok, f"{key}: check_overlaps")
        star = inst.reduction_star
        for n, (f, g, h) in enumerate(triples):
            tally.check(star(star(f, g), h) == star(f, star(g, h)), f"{key}: triple {n}")
        for K, L in inputs["pairs"][key]:
            f = Polynomial.monomial(inst.ring, inst.dim, K, kind=inst.kind)
            g = Polynomial.monomial(inst.ring, inst.dim, L, kind=inst.kind)
            label = f"{key}: closed form vs reduction at {K}, {L}"
            if key == "translated":
                closed = translated_star(f, g, inst.options["base_table"], inst.options["c"])
                tally.check(closed == star(f, g), label)
            elif key in ("log_canonical", "wick_log_canonical"):
                q = LC_Q if key == "log_canonical" else WICK_Q
                M = tuple(a + b for a, b in zip(K, L))
                w = inversion_count(K, L)
                trace = star_by_reduction(f, g, inst.table)
                closed = inst.star.monomial_product(K, L)
                tally.check(closed == trace.result and _is_q_power(closed, M, q, w)
                            and trace.reduction_count == w, label)
            else:
                tally.check(inst.star.monomial_product(K, L)
                            == inst.reduction_star.monomial_product(K, L), label)


# -- float_probes ------------------------------------------------------------------

# (catalog, d, rule of q, hbars, rho): |q| <= 1 at every hbar, which makes
# submultiplicativity of the rho seminorm a theorem.
SUBMULT = (
    ("log_canonical", 2, "exp_i", (0.1, 0.7, 2.0), (0.5, 2.0)),
    ("wick_log_canonical", 3, "exp_neg", (0.0, 0.5, 3.0), (0.9, 1.2, 0.7)),
)
# Catalogs compared closed form against reduction: (catalog, d, options, hbar, rho).
ROUTES = (
    ("quantum_weyl", 2, {"lambda": 1}, 0.3, (1.0, 1.0)),
    ("nonquadratic", 3, {"N": 2}, 0.4, (1.0, 0.8, 0.9)),
)
ROUTE_MAX_DEGREE = 3
# Classical limit (criterion 5): (catalog, d, rules or None, options).
LIMITS = (
    ("log_canonical", 2, None, {}),
    ("quantum_weyl", 2, None, {"lambda": 1}),
    ("nonquadratic", 3, (("p", "exp_i"), ("q", "exp_i"), ("r", "const:1")), {"N": 2}),
)
GRAM_DIMS = (2, 3, 4)
GRAM_HBARS = (-1.0, -0.1, 0.0, 0.1, 1.0)
GRAM_DEGREE = 3
GNS_HBAR = 0.6
GNS_DEGREE = 2
WITNESS_HBARS = (0.25, math.log(2), 1.0)
# Scaling covariance: supp star(s*z^2, y^2) must equal supp star(z^2, y^2).
# These inputs never depend on the seed; the cases with s <= 1e-9 fail
# because ComplexRing.is_zero drops |c| < 1e-14 on an absolute scale.
SCALING_HBAR = 1e-3
SCALING_FACTORS = (1.0, 1e-3, 1e-6, 1e-9, 1e-12)
SCALING_FAULT_BELOW = 1e-9


def float_inputs(seed: int, size: dict) -> dict:
    rng = random.Random(f"float_probes:{seed}")
    deck = _Deck(rng)
    submult = {cfg[0]: _float_pairs(rng, deck, cfg[1], size["max_degree"], 3,
                                    size["submult_pairs"]) for cfg in SUBMULT}
    routes = {cfg[0]: _float_pairs(rng, deck, cfg[1], ROUTE_MAX_DEGREE, 3, size["route_pairs"])
              for cfg in ROUTES}
    limits = {cfg[0]: _float_pairs(rng, deck, cfg[1], 3, 3, size["limit_pairs"])
              for cfg in LIMITS}
    gram = [(d, h, _wick_half(rng, d)) for d in GRAM_DIMS for h in GRAM_HBARS
            for _ in range(size["gram_points"])]
    gns = [(d, _wick_half(rng, d)) for d in GRAM_DIMS for _ in range(size["gns_states"])]
    witness = []
    for d in GRAM_DIMS:
        for h in WITNESS_HBARS:
            half = _wick_half(rng, d)
            while abs(half[0]) < 0.1:
                half = _wick_half(rng, d)
            witness.append((d, h, half))
    return {"submult": submult, "routes": routes, "limits": limits,
            "gram": gram, "gns": gns, "witness": witness}


def _float_poly(dim, spec, kind="x"):
    return Polynomial(C, dim, dict(spec), kind)


def _max_abs_diff(a: Polynomial, b: Polynomial) -> float:
    return max((abs(a.terms.get(K, 0j) - b.terms.get(K, 0j))
                for K in set(a.terms) | set(b.terms)), default=0.0)


def _scaled_close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


def float_build(inputs):
    built = {"submult": [], "routes": [], "limits": []}
    for name, d, rule, hbars, rho in SUBMULT:
        kind = "w" if name.startswith("wick") else "x"
        pairs = [(_float_poly(d, f, kind), _float_poly(d, g, kind)) for f, g in inputs["submult"][name]]
        for hbar in hbars:
            inst = build_catalog(name, C, d, ParameterCatalog({"q": ParameterRule(rule)}), hbar)
            built["submult"].append((name, hbar, inst, NormSpec.rho_norm(rho), pairs))
    for name, d, options, hbar, rho in ROUTES:
        inst = build_catalog(name, C, d, None, hbar, dict(options))
        pairs = [(_float_poly(d, f), _float_poly(d, g)) for f, g in inputs["routes"][name]]
        built["routes"].append((name, inst, NormSpec.rho_norm(rho), pairs))
    for name, d, rules, options in LIMITS:
        catalog_rules = (ParameterCatalog({k: ParameterRule.parse(v) for k, v in rules})
                         if rules else None)
        pairs = [(_float_poly(d, f), _float_poly(d, g)) for f, g in inputs["limits"][name]]
        built["limits"].append((name, d, catalog_rules, options, pairs))
    return built


def float_pass(inputs, tally: Tally):
    built = float_build(inputs)
    for name, hbar, inst, spec, pairs in built["submult"]:
        for n, (f, g) in enumerate(pairs):
            lhs = seminorm(inst.star(f, g), spec)
            rhs = seminorm(f, spec) * seminorm(g, spec)
            tally.check(lhs <= rhs + 1e-10 * max(1.0, rhs),
                        f"{name} hbar={hbar}: submultiplicativity, pair {n}")
    for name, inst, spec, pairs in built["routes"]:
        for n, (f, g) in enumerate(pairs):
            closed, reduced = inst.star(f, g), inst.reduction_star(f, g)
            scale = max((abs(c) for c in reduced.terms.values()), default=1.0)
            tally.check(_max_abs_diff(closed, reduced) <= 1e-10 * max(1.0, scale)
                        and _scaled_close(seminorm(closed, spec), seminorm(reduced, spec), 1e-10),
                        f"{name}: closed form vs reduction, pair {n}")

    hbars = default_hbar_sequence()
    for name, d, rules, options, pairs in built["limits"]:
        eta = catalog_poisson(name, d, rules, dict(options))

        def star_at(h, _name=name, _d=d, _rules=rules, _options=options):
            return build_catalog(_name, C, _d, _rules, h, dict(_options)).star

        rho = NormSpec.rho_norm((1.0,) * d)
        report = classical_limit_probe(star_at, eta, pairs, rho.rho, hbars=hbars)
        orders = report.meta["orders"]
        # the probe's verdict covers monotone decay; the order must be one
        tally.check(report.passed and bool(orders) and all(0.8 <= o <= 1.2 for o in orders),
                    f"{name}: classical limit, orders {orders}")
        for (f, g), case in zip(pairs, report.cases):
            scale = max(1.0, seminorm(f, rho) * seminorm(g, rho))
            tally.check(case.lhs <= 1e-4 * scale,
                        f"{name}: residual {case.lhs} at hbar={hbars[-1]}")

    for d, h, half in inputs["gram"]:
        _, M = gram_matrix(StateFunctional(WickPoint.from_half(half, d), h), GRAM_DEGREE)
        tally.check(psd_check(M, tol=1e-9).passed, f"gram d={d} hbar={h}: PSD")
    for d, half in inputs["gns"]:
        data = gns_build(StateFunctional(WickPoint.from_half(half, d), GNS_HBAR), GNS_DEGREE)
        tally.check(data.adjoint_residual <= 1e-8, f"gns d={d}: adjoint residual")
    for d, h, half in inputs["witness"]:
        value = nonpositivity_witness(WickPoint.from_half(half, d), h, 1)
        tally.check(abs(value - (math.exp(-h) - 1)) <= 1e-12, f"witness d={d} hbar={h}")

    qw = build_catalog("quantum_weyl", C, 2, None, SCALING_HBAR, {"lambda": 1})
    g = Polynomial.monomial(C, 2, (2, 0))
    for route in (qw.star, qw.reduction_star):
        f = Polynomial.monomial(C, 2, (0, 2))
        support = set(route(f, g).terms)
        for s in SCALING_FACTORS:
            tally.check(set(route(f.scale(s), g).terms) == support,
                        f"{route.name}: support of star(s*z^2, y^2) at s={s}",
                        known_fault=s <= SCALING_FAULT_BELOW)


# -- q_symmetrized -----------------------------------------------------------------

QR = RationalQRing()
QMULT_DIMS = (2, 3)
# Degrees (|K|, |L|, |M|) of the coefficient-identity triples, cycled.
ASSOC_DEGREES = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 1, 2))
ORACLE_DIMS = (2, 3)
ORACLE_MAX_DEGREE = 3


def _partitions(n, parts, largest=None):
    """Partitions of n into at most ``parts`` positive parts, largest first."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    if parts == 0:
        return []
    return [(k,) + rest for k in range(min(n, largest), 0, -1)
            for rest in _partitions(n - k, parts - 1, k)]


def _q_value(rng) -> Fraction:
    # rational q off the roots of unity {1, -1}; 0 has no inverse
    while True:
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        if abs(q) != 1:
            return q


def q_inputs(seed: int, size: dict) -> dict:
    rng = random.Random(f"q_symmetrized:{seed}")
    # every partition shape of |K| once per pass, its parts in seeded order
    qmult = []
    for d in QMULT_DIMS:
        for n in range(size["qmult_max_total"] + 1):
            for shape in _partitions(n, d):
                parts = list(shape) + [0] * (d - len(shape))
                rng.shuffle(parts)
                qmult.append(tuple(parts))
    deck = _Deck(rng)
    assoc = [tuple(deck.draw(2, k) for k in ASSOC_DEGREES[n % len(ASSOC_DEGREES)])
             for n in range(size["assoc_triples"])]
    oracle = []
    for _ in range(size["q_values"]):
        q = _q_value(rng)
        pairs = {d: _monomial_pairs(rng, deck, d, ORACLE_MAX_DEGREE, size["oracle_pairs"])
                 for d in ORACLE_DIMS}
        oracle.append((q, pairs))
    return {"qmult": qmult, "assoc": assoc, "oracle": oracle}


def multinomial_count(K) -> int:
    out, rest = 1, sum(K)
    for k in K:
        out *= math.comb(rest, k)
        rest -= k
    return out


def _add(K, L):
    return tuple(a + b for a, b in zip(K, L))


def q_build(inputs):
    return [(q, GaussRational(q), {d: log_canonical_table(R, d, GaussRational(q))
                                   for d in ORACLE_DIMS}, pairs)
            for q, pairs in inputs["oracle"]]


def q_pass(inputs, tally: Tally):
    q = QR.q
    for K in inputs["qmult"]:
        value = q_multinomial(K, q, QR)
        pair_sum = (sum(K) ** 2 - sum(k * k for k in K)) // 2
        mirrored = q ** pair_sum * q_multinomial(K, QR.inverse(q), QR)
        coeffs = value.numerator_coefficients() if value.is_polynomial() else ()
        integral = all(c.im == 0 and c.re >= 0 and c.re.denominator == 1 for c in coeffs)
        tally.check(value == mirrored and bool(coeffs) and coeffs[0] == GaussRational(1)
                    and integral and sum(c.re for c in coeffs) == multinomial_count(K),
                    f"q-multinomial of {K}")

    def coefficient(A, B):
        return symmetrized_star(A, B, q, QR).terms[_add(A, B)]

    for K, L, M in inputs["assoc"]:
        tally.check(coefficient(K, L) * coefficient(_add(K, L), M)
                    == coefficient(L, M) * coefficient(K, _add(L, M)),
                    f"symmetrized coefficient identity at {K}, {L}, {M}")

    for qf, qs, tables, pairs in q_build(inputs):
        for d, table in tables.items():
            cache = {}
            for K, L in pairs[d]:
                tally.check(symmetrized_star(K, L, qs, R)
                            == symmetrized_star_by_averaging(K, L, table, cache=cache),
                            f"q={qf} d={d}: closed form vs averaging at {K}, {L}")
        s12 = symmetrized_star((1, 0), (0, 1), qs, R).terms[(1, 1)]
        s21 = symmetrized_star((0, 1), (1, 0), qs, R).terms[(1, 1)]
        tally.check(s12 == GaussRational(Fraction(2) / (1 + qf))
                    and s21 == GaussRational(2 * qf / (1 + qf)),
                    f"q={qf}: generator coefficients")


# -- verify_default ----------------------------------------------------------------

# Probe kinds that run once per hbar value of their run; the others run once.
PER_HBAR_KINDS = {"overlaps", "oracle", "degree_filtration", "submultiplicativity",
                  "macgyver", "wick_involution"}


def expected_suite_rows(spec: dict) -> int:
    rows = 0
    for run in spec["runs"]:
        h = run.get("hbar")
        hbars = 1 if h is None or isinstance(h, (int, float)) else len(h)
        for probe in run.get("probes", []):
            rows += hbars if probe["kind"] in PER_HBAR_KINDS else 1
    return rows


WORKLOADS = {
    "exact_assoc": (exact_inputs, exact_build, exact_pass),
    "float_probes": (float_inputs, float_build, float_pass),
    "q_symmetrized": (q_inputs, q_build, q_pass),
}
