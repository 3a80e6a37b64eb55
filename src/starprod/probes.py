"""Numeric verification probes for evaluated star products.

Each probe runs a batch of randomized (seeded) cases against an inequality
or limit claim and returns a ProbeReport: one row per case with a digest of
the inputs, the two compared values, and the margin (how far the claim held;
negative margins are violations).  Probes never prove anything; failing
ones either expose a bug or document that a hypothesis was genuinely needed.

A probe passes when every margin is non-negative (``finish_report``), unless
it states its own rule: the norm inequalities (submultiplicativity,
symmetrized growth, macgyver continuity) forgive a margin down to
-tol * max(1, rhs) (``_forgiving_case``; tol is ``NORM_TOL`` unless the
submultiplicativity probe is given another), macgyver continuity also fails
on a violated hypothesis, and the classical limit also needs monotone
residuals.

A digest of random polynomial inputs is deferred: the case holds a
zero-argument function that formats and hashes the inputs when called.
``ProbeCase.settle`` turns it into its string or drops it, so a caller that
emits no digests (``star verify`` without ``--csv`` or ``--cases``) never
formats a polynomial.  ``to_row`` settles a deferred digest itself.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .catalog import StarProduct, symmetrized_star
from .norms import NormSpec, adic_order, seminorm
from .parsing import format_poly
from .poly import Exponent, Polynomial
from .reduction import PoissonStructure, RelationTable, poisson_bracket
from .reduction import star as table_star
from .scalars import ComplexRing, GaussRational, Ring, SeriesRing

BIG_MARGIN = 1e9  # stands in for an infinite margin in report rows
NORM_TOL = 1e-10  # the rounding the norm inequalities forgive, relative to max(1, rhs)
NOISE_FLOOR = 1e-12  # classical-limit residuals below this (times the scale) are noise


def digest_of(*parts: str) -> str:
    h = hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()
    return h[:12]


@dataclass
class ProbeCase:
    # a digest string, a zero-argument function that computes it, or None
    # once a deferred digest has been dropped
    digest: Union[str, Callable[[], str], None]
    lhs: float
    rhs: float
    margin: float

    def settle(self, keep: bool = True) -> None:
        """Compute a deferred digest, or drop it (``keep=False``) unread."""
        if callable(self.digest):
            self.digest = self.digest() if keep else None

    def to_row(self) -> Dict:
        self.settle()
        return {"digest": self.digest, "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin}


@dataclass
class ProbeReport:
    kind: str
    passed: bool
    worst_margin: float
    cases: List[ProbeCase] = field(default_factory=list)
    meta: Dict = field(default_factory=dict)


def finish_report(kind: str, cases: List[ProbeCase], passed: Optional[bool] = None,
                  meta: Optional[Dict] = None) -> ProbeReport:
    """The report of a probe; its worst margin is the least margin of its cases.

    Without a verdict of its own the probe passes when every margin is
    non-negative (``all``, since ``min`` would skip a NaN margin).
    """
    worst = min((c.margin for c in cases), default=BIG_MARGIN)
    if passed is None:
        passed = all(c.margin >= 0 for c in cases)
    return ProbeReport(kind, passed, worst, cases, meta or {})


def _forgiving_case(cases: List[ProbeCase], digest, lhs: float, rhs: float,
                    tol: float) -> bool:
    """Append the case of lhs <= rhs; whether it holds up to -tol * max(1, rhs).

    The norm inequalities forgive that much rounding.  A NaN margin fails,
    as it does in ``finish_report``.
    """
    margin = rhs - lhs
    cases.append(ProbeCase(digest, lhs, rhs, margin))
    return margin >= -tol * max(1.0, rhs)


# -- random sample generators -----------------------------------------------------


def _below(rng, n: int) -> int:
    """``rng.randrange(n)`` for n >= 1, from the same draws.

    As ``Random.randrange`` does, it draws getrandbits(n.bit_length()) until
    the value falls below n.
    """
    bits = n.bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def random_coefficient(rng, ring: Ring):
    if isinstance(ring, SeriesRing):
        return ring.coerce(random_coefficient(rng, ring.base))
    if ring.exact:
        # randint(-9, 9) and randint(1, 9)
        re = Fraction(_below(rng, 19) - 9, _below(rng, 9) + 1)
        im = Fraction(_below(rng, 19) - 9, _below(rng, 9) + 1)
        return ring.coerce(GaussRational(re, im))
    # uniform(-1, 1) computes -1 + 2 * random()
    return complex(-1 + 2 * rng.random(), -1 + 2 * rng.random())


def random_exponent(rng, dim: int, degree: int) -> Exponent:
    """``degree`` letters, each ``rng.randrange(dim)`` from the same draws."""
    K = [0] * dim
    for _ in range(degree):
        K[_below(rng, dim)] += 1
    return tuple(K)


def _random_sum(rng, ring: Ring, dim: int, degree: int, terms: int, kind: str,
                homogeneous: bool) -> Polynomial:
    """``terms`` random terms of total degree ``degree`` (homogeneous) or of
    degrees drawn from 0..degree; a zero sum is replaced by one random
    monomial of degree ``degree`` (at least 1 when not homogeneous).

    A homogeneous term draws its coefficient before its exponent, the other
    kind its degree, exponent and then coefficient: seeded inputs depend on
    this order.
    """
    out = {}
    for _ in range(terms):
        if homogeneous:
            c = random_coefficient(rng, ring)
            out[random_exponent(rng, dim, degree)] = c
        else:
            K = random_exponent(rng, dim, _below(rng, degree + 1))
            out[K] = random_coefficient(rng, ring)
    f = Polynomial.from_checked(ring, dim, out, kind)
    if f.terms:
        return f
    K = random_exponent(rng, dim, degree if homogeneous else max(1, degree))
    return Polynomial.from_checked(ring, dim, {K: random_coefficient(rng, ring)}, kind)


def random_polynomial(rng, ring: Ring, dim: int, max_degree: int,
                      terms: int = 3, kind: str = "x") -> Polynomial:
    return _random_sum(rng, ring, dim, max_degree, terms, kind, homogeneous=False)


def random_homogeneous(rng, ring: Ring, dim: int, degree: int,
                       terms: int, kind: str) -> Polynomial:
    return _random_sum(rng, ring, dim, degree, terms, kind, homogeneous=True)


def _poly_digest(*polys: Polynomial) -> str:
    return digest_of(*(format_poly(p, digits=12) for p in polys))


# -- degree filtration --------------------------------------------------------------


def degree_filtration_check(star: Callable[[Polynomial, Polynomial], Polynomial],
                            rng, dim: int, ring: Ring, samples: int = 200,
                            max_degree: int = 5, terms: int = 3,
                            kind: str = "x") -> ProbeReport:
    """o(f * g) >= o(f) + o(g) on random homogeneous pairs.

    Margin is the order surplus; a negative margin flags a product that
    lowers degree (for example one whose relations have constant tails).
    """
    cases = []
    for _ in range(samples):
        f = random_homogeneous(rng, ring, dim, rng.randint(0, max_degree), terms, kind)
        g = random_homogeneous(rng, ring, dim, rng.randint(0, max_degree), terms, kind)
        product = star(f, g)
        lhs = adic_order(product)
        rhs = adic_order(f) + adic_order(g)
        margin = BIG_MARGIN if lhs == float("inf") else lhs - rhs
        cases.append(ProbeCase(partial(_poly_digest, f, g), min(lhs, BIG_MARGIN), rhs, margin))
    return finish_report("degree_filtration", cases)


# -- submultiplicativity --------------------------------------------------------------


def submultiplicativity_probe(star: Callable[[Polynomial, Polynomial], Polynomial],
                              rho: Sequence[float], rng, dim: int, ring: Ring,
                              samples: int = 1000, max_degree: int = 6, terms: int = 3,
                              kind: str = "x", tol: float = NORM_TOL) -> ProbeReport:
    """||f * g||_rho <= ||f||_rho ||g||_rho with margin >= -tol * scale,
    on the monomial pairs x_d^n, x_1^n for n up to max_degree, then on
    random pairs."""
    spec = NormSpec.rho_norm(rho)
    cases = []
    ok = True

    def run_case(f: Polynomial, g: Polynomial) -> bool:
        return _forgiving_case(cases, partial(_poly_digest, f, g), seminorm(star(f, g), spec),
                               seminorm(f, spec) * seminorm(g, spec), tol)

    for n in range(1, max_degree + 1):
        K = tuple(n if p == dim - 1 else 0 for p in range(dim))
        L = tuple(n if p == 0 else 0 for p in range(dim))
        ok &= run_case(Polynomial.monomial(ring, dim, K, kind=kind),
                       Polynomial.monomial(ring, dim, L, kind=kind))
    for _ in range(samples):
        ok &= run_case(random_polynomial(rng, ring, dim, max_degree, terms, kind),
                       random_polynomial(rng, ring, dim, max_degree, terms, kind))
    return finish_report("submultiplicativity", cases, ok)


# -- squared-exponent continuity --------------------------------------------------------


def generator_product_bound(star: StarProduct) -> Tuple[int, float]:
    """(number of nonzero coefficients, largest magnitude) over all x_i * x_j."""
    count = 0
    sup = 0.0
    ring = star.ring
    for i in range(1, star.dim + 1):
        for j in range(1, star.dim + 1):
            K = tuple(1 if p == i - 1 else 0 for p in range(star.dim))
            L = tuple(1 if p == j - 1 else 0 for p in range(star.dim))
            product = star.monomial_product(K, L)
            count += len(product.terms)
            for c in product.terms.values():
                sup = max(sup, abs(ring.to_complex(c)))
    return count, sup


def macgyver_continuity_probe(star: StarProduct, rng, Q: float, C: float = 2.0,
                              alpha: float = 1.0, beta: float = 1.0,
                              samples: int = 150, max_degree: int = 4, terms: int = 3,
                              sweep_degree: int = 3) -> ProbeReport:
    """Continuity estimate in the squared-exponent norms.

    Checks |f * g|_C <= |f|_C' |g|_C' with C' = (Q^alpha C^(beta^2))^2,
    Q taken as at least 1, plus the two hypotheses behind it on a monomial
    sweep: the traced reduction count stays below alpha (|K|+|L|)^2 and the
    output order below beta (|K|+|L|).
    """
    ring = star.ring
    if C < 1.0:
        raise ValueError("the estimate is stated for C >= 1")
    Q = max(1.0, Q)
    c_prime = (Q ** alpha * C ** (beta * beta)) ** 2

    violations = []
    if star.table is not None:
        for K in exponent_ball(star.dim, sweep_degree):
            for L in exponent_ball(star.dim, sweep_degree):
                trace = star.traced_monomials(K, L)
                size = sum(K) + sum(L)
                if trace.reduction_count > alpha * size * size:
                    violations.append({"pair": [list(K), list(L)],
                                       "kind": "reduction_count",
                                       "count": trace.reduction_count})
                order = trace.result.total_degree()
                if not trace.result.is_zero() and order > beta * size:
                    violations.append({"pair": [list(K), list(L)],
                                       "kind": "output_order",
                                       "order": order})

    spec = NormSpec.macgyver_norm(C)
    spec_prime = NormSpec.macgyver_norm(c_prime)
    cases = []
    ok = True
    for _ in range(samples):
        f = random_polynomial(rng, ring, star.dim, max_degree, terms, star.kind)
        g = random_polynomial(rng, ring, star.dim, max_degree, terms, star.kind)
        ok &= _forgiving_case(cases, partial(_poly_digest, f, g), seminorm(star(f, g), spec),
                              seminorm(f, spec_prime) * seminorm(g, spec_prime), NORM_TOL)
    passed = ok and not violations
    return finish_report("macgyver_continuity", cases, passed,
                         {"Q": Q, "C_prime": c_prime, "hypothesis_violations": violations})


def exponent_ball(dim: int, max_total: int) -> List[Exponent]:
    """All exponent tuples with total degree <= max_total."""
    out = []

    def walk(prefix, remaining, positions):
        if positions == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining + 1):
            walk(prefix + (k,), remaining - k, positions - 1)

    for total in range(max_total + 1):
        walk((), total, dim)
    return out


# -- classical limit ---------------------------------------------------------------


def _fit_order(hbars: Sequence[float], residuals: Sequence[float],
               floor: float) -> Tuple[Optional[float], Optional[float]]:
    """Least-squares slope of log residual against log hbar."""
    xs, ys = [], []
    for h, r in zip(hbars, residuals):
        if r > floor:
            xs.append(math.log(h))
            ys.append(math.log(r))
    if len(xs) < 3:
        return None, None
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        return None, None
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var
    intercept = my - slope * mx
    return slope, intercept


def default_hbar_sequence(points: int = 11) -> List[float]:
    """``points`` hbars from 1e-1 down to 1e-6, evenly spaced in log."""
    ratio = (1e-6 / 1e-1) ** (1.0 / (points - 1))
    return [1e-1 * ratio ** k for k in range(points)]


def classical_limit_probe(star_at: Callable[[float], Callable[[Polynomial, Polynomial], Polynomial]],
                          eta: PoissonStructure,
                          pairs: Sequence[Tuple[Polynomial, Polynomial]],
                          rho: Sequence[float],
                          hbars: Optional[Sequence[float]] = None,
                          tol: Optional[float] = None) -> ProbeReport:
    """(f *_h g - g *_h f)/(i h) approaches the bracket as h decreases.

    Per pair: residuals ||Delta(h) - {f, g}||_rho along the h sequence must
    decrease to below tolerance; the slope of the log-log fit estimates the
    order in h (reported to two significant figures).  ``star_at`` is
    called once per h, before the first pair.
    """
    hbars = list(hbars) if hbars is not None else default_hbar_sequence()
    spec = NormSpec.rho_norm(rho)
    cases = []
    orders = []
    ok = True
    products = [star_at(h) for h in hbars]
    for f, g in pairs:
        bracket = poisson_bracket(eta, f, g)
        scale = max(1.0, seminorm(f, spec) * seminorm(g, spec))
        residuals = []
        for h, product in zip(hbars, products):
            delta = (product(f, g) - product(g, f)).scale(1.0 / (1j * h))
            residuals.append(seminorm(delta - bracket, spec))
        slope, intercept = _fit_order(hbars, residuals, NOISE_FLOOR * scale)
        if slope is not None:
            orders.append(float(f"{slope:.2g}"))
        case_tol = tol
        if case_tol is None:
            if intercept is not None:
                case_tol = max(10.0 * hbars[-1] * math.exp(intercept), NOISE_FLOOR * scale)
            else:
                case_tol = NOISE_FLOOR * scale * 10
        monotone = all(
            residuals[k + 1] <= residuals[k] * 1.1 + NOISE_FLOOR * scale
            for k in range(len(residuals) - 1)
        )
        final = residuals[-1]
        margin = case_tol - final
        if not (monotone and final <= case_tol):
            ok = False
        cases.append(ProbeCase(partial(_poly_digest, f, g), final, case_tol, margin))
    meta = {"orders": orders, "hbar_min": hbars[-1]}
    return finish_report("classical_limit", cases, ok, meta)


# -- series coefficients ---------------------------------------------------------------


def star_series_coefficients(f: Polynomial, g: Polynomial, table: RelationTable,
                             n: int) -> List[Polynomial]:
    """Coefficient polynomials of the star product in powers of t, orders 0..n."""
    ring = table.ring
    if not isinstance(ring, SeriesRing):
        raise ValueError("series coefficients need a series-mode table")
    if n > ring.order:
        raise ValueError(f"order {n} exceeds the truncation {ring.order}")
    terms = table_star(f, g, table).terms
    return [Polynomial(ring.base, table.dim, {K: c.coefficient(k) for K, c in terms.items()},
                       table.kind) for k in range(n + 1)]


def first_order_commutator(f: Polynomial, g: Polynomial, table: RelationTable) -> Polynomial:
    """B_1(f, g) - B_1(g, f), the first-order antisymmetrization."""
    b_fg = star_series_coefficients(f, g, table, 1)[1]
    b_gf = star_series_coefficients(g, f, table, 1)[1]
    return b_fg - b_gf


# -- symmetrized coefficient growth -----------------------------------------------------


def _pochhammer_products(q_abs: float) -> Tuple[float, float]:
    """(prod_{k>=1}(1 - |q|^k), prod_{k>=1}(1 + |q|^k)) for |q| < 1."""
    if not 0.0 < q_abs < 1.0:
        raise ValueError("the infinite products converge only for 0 < |q| < 1")
    minus = plus = 1.0
    power = q_abs
    while power > 1e-12:
        minus *= 1.0 - power
        plus *= 1.0 + power
        power *= q_abs
    return minus, plus


def symmetrized_coefficient_bound(q: complex, dim: int) -> float:
    """Uniform bound on the q-multinomial ratio in the symmetrized product.

    Away from |q| = 1 the q-multinomials are bounded above and below by
    ratios of convergent infinite products; the coefficient of the
    symmetrized product is then bounded by upper^2 / lower, evaluated at
    |q| or 1/|q|.
    """
    q_abs = abs(q)
    if abs(q_abs - 1.0) < 1e-9:
        raise ValueError("the bound degenerates on |q| = 1")
    base = q_abs if q_abs < 1.0 else 1.0 / q_abs
    minus, plus = _pochhammer_products(base)
    lower = minus / plus ** dim
    upper = plus / minus ** dim
    return upper * upper / lower


def symmetrized_growth_probe(q: complex, dim: int, rho: Sequence[float],
                             max_degree: int) -> ProbeReport:
    """|x^K sym-star x^L|_rho <= C * d^(|K|+|L|) |x^K|_rho |x^L|_rho.

    The constant comes from symmetrized_coefficient_bound; only valid away
    from |q| = 1.
    """
    ring = ComplexRing()
    bound = symmetrized_coefficient_bound(q, dim)
    spec = NormSpec.rho_norm(rho)
    cases = []
    ok = True
    for K in exponent_ball(dim, max_degree):
        for L in exponent_ball(dim, max_degree):
            lhs = seminorm(symmetrized_star(K, L, complex(q), ring), spec)
            rhs = (bound * dim ** (sum(K) + sum(L))
                   * seminorm(Polynomial.monomial(ring, dim, K), spec)
                   * seminorm(Polynomial.monomial(ring, dim, L), spec))
            ok &= _forgiving_case(cases, digest_of("symgrowth", str(K), str(L)), lhs, rhs,
                                  NORM_TOL)
    return finish_report("symmetrized_growth", cases, ok, {"bound": bound})
