"""Closed-form star products and their relation tables.

Every entry here comes in two computable routes: a closed formula on
monomials and a relation table that the rewrite engine can run, so each
formula is cross-checkable against the generic reduction.  Catalog ids used
by the CLI:

    log_canonical             q^(sum_{i<j} K_j L_i) x^(K+L)
    wick_log_canonical        the same exponent rule on Wick coordinates
    nonquadratic              d=3 family with tails (r-1)xy, (1/r-1)xz,
                              (q-1)yz + (p-1)x^N; closed form is a weighted
                              sum over binary words
    quantum_weyl              d=2 specialization with relation
                              z y = q y z + (p-1), q = e^(i*lambda*hbar),
                              p = 1 + i*hbar
    symmetrized_log_canonical the log-canonical product conjugated by the
                              symmetrization map; coefficients are ratios of
                              q-multinomials
    translated                pull-back of log_canonical under the shift
                              x_i -> x_i + c_i
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .params import ParameterCatalog, ParameterRule
from .poly import (DimensionMismatch, Exponent, NcPolynomial, Polynomial, exponent_to_word,
                   inversion_weight)
from .qcomb import (
    PoleAtRootOfUnity,
    multinomial,
    q_multinomial,
    q_multinomial_value_or_pole,
    root_of_unity_order,
)
from .reduction import (
    DEFAULT_STEP_LIMIT,
    PoissonStructure,
    ReductionTrace,
    RelationTable,
    normal_form_sum,
    poisson_from_table,
    star_by_reduction,
)
from .reduction import star as table_star
from .scalars import Ring, SeriesRing, scalar_power

CATALOG_IDS = (
    "log_canonical",
    "wick_log_canonical",
    "nonquadratic",
    "quantum_weyl",
    "symmetrized_log_canonical",
    "translated",
)


class CatalogError(ValueError):
    pass


# -- relation tables ----------------------------------------------------------


def log_canonical_table(ring: Ring, dim: int, q, kind: str = "x") -> RelationTable:
    tails = {}
    qm1 = q - ring.one
    for j in range(2, dim + 1):
        for i in range(1, j):
            K = tuple(1 if p in (i - 1, j - 1) else 0 for p in range(dim))
            tails[(i, j)] = Polynomial(ring, dim, {K: qm1}, kind)
    return RelationTable(ring, dim, kind, tails, name="log_canonical")


def wick_log_canonical_table(ring: Ring, dim: int, q) -> RelationTable:
    table = log_canonical_table(ring, dim, q, kind="w")
    table.name = "wick_log_canonical"
    if isinstance(ring, SeriesRing):
        first = q.coefficient(1)
        if first != ring.base.coerce(-1):
            raise CatalogError("Wick-type q must expand as 1 - t + O(t^2)")
    return table


def nonquadratic_table(ring: Ring, N: int, p, q, r, s=None) -> RelationTable:
    if N < 0:
        raise CatalogError("N must be non-negative")
    if s is None:
        s = ring.inverse(r)
    one = ring.one
    xy = Polynomial(ring, 3, {(1, 1, 0): r - one}, "x")
    xz = Polynomial(ring, 3, {(1, 0, 1): s - one}, "x")
    yz = Polynomial(ring, 3, {(0, 1, 1): q - one, (N, 0, 0): p - one}, "x")
    return RelationTable(ring, 3, "x", {(1, 2): xy, (1, 3): xz, (2, 3): yz},
                         name="nonquadratic")


def quantum_weyl_table(ring: Ring, p, q) -> RelationTable:
    one = ring.one
    tail = Polynomial(ring, 2, {(1, 1): q - one, (0, 0): p - one}, "x")
    return RelationTable(ring, 2, "x", {(1, 2): tail}, name="quantum_weyl")


def translated_table(base: RelationTable, offsets: Sequence) -> RelationTable:
    """Table of the pull-back product: every tail is shifted by the offsets."""
    offs = [base.ring.coerce(c) for c in offsets]
    tails = {pair: tail.shift(offs) for pair, tail in base.tails.items()}
    return RelationTable(base.ring, base.dim, base.kind, tails,
                         name=f"translated({base.name})")


# -- closed forms --------------------------------------------------------------

# Each closed form has a private term function, (K, L) -> the terms (M, c) of
# x^K * x^L, re-iterable (a tuple or a dict's items) as StarProduct keeps them
# in its memo and sums them into its one dict on every hit; the exported
# functions wrap those terms in a Polynomial.
TermList = Iterable[Tuple[Exponent, object]]
TermRoute = Callable[[Exponent, Exponent], TermList]


def _log_canonical_route(q) -> TermRoute:
    """(K, L) -> ((K + L, q^w),), w = inversion_weight(K, L); within one
    route one ``q ** w`` per weight and one exponent tuple per sum serve
    every pair, so a product's memo entries share them."""
    powers: Dict[int, object] = {}
    sums: Dict[Exponent, Exponent] = {}

    def terms(K: Exponent, L: Exponent) -> TermList:
        w = inversion_weight(K, L)
        if w not in powers:
            powers[w] = q ** w
        M = tuple([*map(add, K, L)])
        return ((sums.setdefault(M, M), powers[w]),)
    return terms


def log_canonical_star(K: Exponent, L: Exponent, q, ring: Ring, kind: str = "x") -> Polynomial:
    """x^K * x^L = q^(sum_{i<j} K_j L_i) x^(K+L)."""
    if len(K) != len(L):
        raise CatalogError("multi-index dimensions differ")
    return Polynomial(ring, len(K), dict(_log_canonical_route(q)(K, L)), kind)


def wick_star(K: Exponent, L: Exponent, q, ring: Ring) -> Polynomial:
    """Same exponent rule on Wick coordinates; q must expand as 1 - t + O(t^2)."""
    if isinstance(ring, SeriesRing) and q.coefficient(1) != ring.base.coerce(-1):
        raise CatalogError("Wick-type q must expand as 1 - t + O(t^2)")
    return log_canonical_star(K, L, q, ring, kind="w")


def wick_involution_condition(table: RelationTable, tol: float = 1e-10) -> bool:
    """conjugate(tail(i, j)) must equal tail(d-j+1, d-i+1) for all i < j."""
    if table.kind != "w":
        raise CatalogError("the involution condition applies to Wick-type tables")
    d = table.dim
    for j in range(2, d + 1):
        for i in range(1, j):
            lhs = table.tail(i, j).conjugate()
            rhs = table.tail(d - j + 1, d - i + 1)
            if not lhs.close_to(rhs, tol=tol):
                return False
    return True


def _climb_weight(left: int, p, base, ring: Ring):
    """(p - 1) * sum_{j < left} base^j, summed from j = 0 up."""
    acc = ring.zero
    power = ring.one
    for _ in range(left):
        acc = acc + power
        power = power * base
    return (p - 1) * acc


def _nonquadratic_terms(e1: Exponent, e2: Exponent, p, q, r, N: int,
                        ring: Ring) -> Dict[Exponent, object]:
    """The word sum of ``nonquadratic_star``, as an exponent -> coefficient dict.

    The words in {0,1}^k with at most m ones grow a letter at a time: a
    level lists (ones, weight) for every prefix, in lexicographic order, so
    each word's weight is the chain of step weights along the word (its
    twists r^(-N ones) included) and the words are summed in lexicographic
    order.  The twist, the step weights and the r-power of the result are
    computed once per count of ones.
    """
    i, j, k = e1
    l, m, n = e2
    before = range(min(k - 1, m) + 1)  # the ones counts a letter can follow
    twists = [scalar_power(ring, r, -N * ones) for ones in before]
    stays = [q ** (m - ones) for ones in before]
    climbs = []
    if min(k, m):
        base = q * scalar_power(ring, r, N)
        climbs = [_climb_weight(m - ones, p, base, ring) for ones in range(min(k, m))]
    level = [(0, ring.one)]
    for _ in range(k):
        grown = []
        for ones, weight in level:
            weight = weight * twists[ones]
            grown.append((ones, weight * stays[ones]))
            if ones < m:
                grown.append((ones + 1, weight * climbs[ones]))
        level = grown
    scales = [scalar_power(ring, r, (j - k) * l + j * N * ones) for ones in range(min(k, m) + 1)]
    terms: Dict[Exponent, object] = {}
    for ones, weight in level:
        coeff = scales[ones] * weight
        M = (i + l + N * ones, j + m - ones, k + n - ones)
        terms[M] = terms[M] + coeff if M in terms else coeff
    return terms


def nonquadratic_star(e1: Tuple[int, int, int], e2: Tuple[int, int, int],
                      p, q, r, N: int, ring: Ring) -> Polynomial:
    """Closed form for the d=3 family, as a weighted sum over binary words.

    x^i y^j z^k * x^l y^m z^n =
        sum over w in {0,1}^k, |w| <= m of
        r^((j-k) l + j N |w|) * weight(w) * x^(i+l+N|w|) y^(j+m-|w|) z^(k+n-|w|)
    """
    if min(*e1, *e2) < 0:
        raise CatalogError("exponents must be non-negative")
    return Polynomial.from_checked(ring, 3, _nonquadratic_terms(e1, e2, p, q, r, N, ring))


def _quantum_weyl_terms(e1: Exponent, e2: Exponent, p, q, ring: Ring) -> Dict[Exponent, object]:
    """The N=0 word sum with r = 1 on (y, z) pairs; its x-exponent is always 0."""
    (j, k), (m, n) = e1, e2
    full = _nonquadratic_terms((0, j, k), (0, m, n), p, q, ring.one, 0, ring)
    return {(b, c): coeff for (_, b, c), coeff in full.items()}


def quantum_weyl_star(e1: Sequence[int], e2: Sequence[int], p, q, ring: Ring) -> Polynomial:
    """d=2 pairs (y-exponent, z-exponent); the N=0 word-sum with r = 1.

    Three-component inputs are accepted when their first exponent is zero.
    """
    def as_pair(e):
        if len(e) == 3:
            if e[0] != 0:
                raise CatalogError("quantum Weyl inputs must have zero x-exponent")
            return e[1], e[2]
        if len(e) != 2:
            raise CatalogError("expected (y, z) exponent pairs")
        return e[0], e[1]

    e1, e2 = as_pair(e1), as_pair(e2)
    if min(*e1, *e2) < 0:
        raise CatalogError("exponents must be non-negative")
    return Polynomial.from_checked(ring, 2, _quantum_weyl_terms(e1, e2, p, q, ring))


def _symmetrized_terms(K: Exponent, L: Exponent, q, ring: Ring) -> TermList:
    M = tuple([*map(add, K, L)])
    rows: Dict = {}
    bq_K = q_multinomial(K, q, ring, rows)
    bq_L = q_multinomial(L, q, ring, rows)
    bq_M = q_multinomial_value_or_pole(M, q, ring, rows)
    classical = Fraction(multinomial(M), multinomial(K) * multinomial(L))
    coeff = ring.coerce(classical) * bq_K * bq_L * ring.inverse(bq_M)
    coeff = coeff * q ** inversion_weight(K, L)
    return ((M, coeff),)


def symmetrized_star(K: Exponent, L: Exponent, q, ring: Ring, kind: str = "x") -> Polynomial:
    """Symmetrized product: a q-multinomial ratio times the log-canonical term."""
    if len(K) != len(L):
        raise CatalogError("multi-index dimensions differ")
    return Polynomial(ring, len(K), dict(_symmetrized_terms(K, L, q, ring)), kind)


def equivalence_transform(f: Polynomial, q, direction: str = "forward") -> Polynomial:
    """Diagonal rescaling x^K -> (binom_q(K)/binom(K))^(+-1) x^K.

    Intertwines the standard and symmetrized products:
    f symmetrized-star g = T^(-1)(T f * T g).
    """
    if direction not in ("forward", "inverse"):
        raise CatalogError("direction must be 'forward' or 'inverse'")
    ring = f.ring
    out = {}
    for K, c in f.terms.items():
        bq = q_multinomial(K, q, ring)
        cl = ring.coerce(Fraction(1, multinomial(K)))
        if direction == "forward":
            out[K] = c * bq * cl
        else:
            if ring.is_zero(bq):
                raise PoleAtRootOfUnity(root_of_unity_order(q, ring, max_order=max(2, sum(K))))
            out[K] = c * ring.coerce(Fraction(multinomial(K))) * ring.inverse(bq)
    return Polynomial(ring, f.dim, out, f.kind)


def translated_star(f: Polynomial, g: Polynomial, base: RelationTable,
                    offsets: Sequence, step_limit: int = DEFAULT_STEP_LIMIT) -> Polynomial:
    """Pull-back product T(T^(-1) f * T^(-1) g) under T(x_i) = x_i + c_i."""
    ring = base.ring
    offs = [ring.coerce(c) for c in offsets]
    neg = [-c for c in offs]
    inner = table_star(f.shift(neg), g.shift(neg), base, step_limit)
    return inner.shift(offs)


# -- brute-force symmetrization oracle ------------------------------------------


class SigmaError(ArithmeticError):
    pass


def _distinct_arrangements(K: Exponent) -> List[Tuple[int, ...]]:
    """Distinct orderings of the multiset word of x^K, lexicographic.

    Each is the next permutation of the one before it, from the standard
    word on: raise the rightmost letter that has a larger one after it to
    the smallest such, and sort what follows it.
    """
    word = list(exponent_to_word(K))
    out = [tuple(word)]
    n = len(word)
    while True:
        i = n - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])
        out.append(tuple(word))


def _unit_words(words: Iterable[Tuple[int, ...]], table: RelationTable) -> NcPolynomial:
    """The words at the table's unit, which the rewriting multiplies by nothing."""
    return NcPolynomial.from_checked(table.ring, table.dim, dict.fromkeys(words, table._one))


def symmetrized_star_by_averaging(K: Exponent, L: Exponent, table: RelationTable,
                                  step_limit: int = DEFAULT_STEP_LIMIT,
                                  cache: Optional[Dict] = None) -> Polynomial:
    """Oracle route for the symmetrized product.

    Averages the words of x^K and x^L over all letter orders, multiplies in
    the rewritten algebra, and inverts the symmetrization monomial-wise.
    That needs the symmetrization to be diagonal on monomials, as on the
    log-canonical tables; any other table raises SigmaError.  Independent
    of the closed-form coefficients, so agreement is a real check.  Pass a
    dict as ``cache`` to reuse reduced symmetrizations across calls with
    the same table.

    The words are rewritten at unit weight, so no rewritten term is
    multiplied; the averages' weights 1/mult(K), 1/mult(L) and 1/mult(M)
    are applied once per result term.
    """
    if sum(K) > 6 or sum(L) > 6:
        raise SigmaError("oracle guard: |K|, |L| <= 6")
    ring = table.ring
    words_L = _distinct_arrangements(L)
    pairs = (u + v for u in _distinct_arrangements(K) for v in words_L)
    h = normal_form_sum(_unit_words(pairs, table), table, step_limit)

    # sigma(x^M) = (s / mult(M)) x^M when M's unit words reduce to s x^M, so
    # sigma_cache[M] = mult(M) / s inverts it
    sigma_cache: Dict[Exponent, object] = cache if cache is not None else {}

    def sigma_inverse(M: Exponent):
        if M not in sigma_cache:
            image = normal_form_sum(_unit_words(_distinct_arrangements(M), table), table,
                                    step_limit).terms
            if not image:
                raise SigmaError(
                    "symmetrization is not invertible at this q (root-of-unity degeneration)")
            if set(image) != {M}:
                raise SigmaError("symmetrization is not diagonal on this table; "
                                 "the oracle inverts only a diagonal one")
            sigma_cache[M] = ring.coerce(multinomial(M)) * ring.inverse(image[M])
        return sigma_cache[M]

    # solve sigma(g) = h monomial by monomial, which needs sigma(x^M) = c x^M
    weight = ring.coerce(Fraction(1, multinomial(K) * multinomial(L)))
    out = {M: c * weight * sigma_inverse(M) for M, c in h.terms.items()}
    return Polynomial(ring, table.dim, out, table.kind)


# -- catalog registry -----------------------------------------------------------


@dataclass
class StarProduct:
    """A bilinear product handle, with optional closed form and table.

    ``mono`` is the closed form as a term route: it maps a monomial pair
    ``(K, L)`` to the terms ``(M, c)`` of ``x^K * x^L``, raw ring scalars
    with no Polynomial built and nothing dropped.  ``__call__`` keeps them in
    a memo ``K -> {L -> terms}`` for the product's life; ``monomial_product``
    leaves it alone, as sweeps ask for each pair once.
    """

    name: str
    ring: Ring
    dim: int
    kind: str = "x"
    table: Optional[RelationTable] = None
    mono: Optional[TermRoute] = None
    step_limit: int = DEFAULT_STEP_LIMIT
    _pairs: Dict[Exponent, Dict[Exponent, TermList]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def monomial_product(self, K: Exponent, L: Exponent) -> Polynomial:
        if self.mono is not None:
            return Polynomial(self.ring, self.dim, dict(self.mono(tuple(K), tuple(L))),
                              self.kind)
        if self.table is None:
            raise CatalogError(f"{self.name} has neither closed form nor table")
        return table_star(Polynomial.monomial(self.ring, self.dim, K, kind=self.kind),
                          Polynomial.monomial(self.ring, self.dim, L, kind=self.kind),
                          self.table, self.step_limit)

    def traced_monomials(self, K: Exponent, L: Exponent) -> ReductionTrace:
        if self.table is None:
            raise CatalogError(f"{self.name} has no relation table to trace")
        f = Polynomial.monomial(self.ring, self.dim, K, kind=self.kind)
        g = Polynomial.monomial(self.ring, self.dim, L, kind=self.kind)
        return star_by_reduction(f, g, self.table, self.step_limit)

    def __call__(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """f * g: the bilinear extension of ``mono``, or the table's rewriting.

        The closed-form route sums the terms of every term pair into one
        dict and builds a single Polynomial, so in float mode coefficients
        below the ring's ``drop_tol`` are dropped once, on the finished sum.
        """
        if self.mono is None:
            if self.table is None:
                raise CatalogError(f"{self.name} has neither closed form nor table")
            return table_star(f, g, self.table, self.step_limit)
        if f.dim != self.dim or g.dim != self.dim:
            raise DimensionMismatch(f"{self.name} lives on d={self.dim}, "
                                    f"operands have d={f.dim}/{g.dim}")
        mono, pairs = self.mono, self._pairs
        out: Dict[Exponent, object] = {}
        for K, a in f.terms.items():
            row = pairs.get(K) or pairs.setdefault(K, {})
            for L, b in g.terms.items():
                terms = row.get(L)
                if terms is None:
                    terms = row[L] = mono(K, L)
                ab = a * b
                for M, c in terms:
                    if M in out:
                        out[M] = out[M] + c * ab
                    else:
                        out[M] = c * ab
        return Polynomial.from_checked(self.ring, self.dim, out, self.kind)


MonomialRoute = Callable[[Exponent, Exponent], Polynomial]


@dataclass
class CatalogInstance:
    """A built catalog entry.

    ``oracle`` holds the two computations of ``x^K * x^L`` that cross-check
    each other, as (route, reference): a closed form against rewriting, or,
    for a table with no closed form, rightmost against leftmost rewriting.
    """

    name: str
    ring: Ring
    dim: int
    kind: str
    star: StarProduct
    table: Optional[RelationTable]
    reduction_star: Optional[StarProduct]
    oracle: Tuple[MonomialRoute, MonomialRoute]
    params: Dict[str, object] = field(default_factory=dict)
    options: Dict[str, object] = field(default_factory=dict)


def rewriting_routes(table: RelationTable) -> Tuple[MonomialRoute, MonomialRoute]:
    """Rightmost against leftmost rewriting, the latter through the mirrored
    table's memo: the normal form of an associative table does not depend
    on the order of the rewrites."""
    def monomials(K: Exponent, L: Exponent) -> Tuple[Polynomial, Polynomial]:
        return (Polynomial.monomial(table.ring, table.dim, K, kind=table.kind),
                Polynomial.monomial(table.ring, table.dim, L, kind=table.kind))

    def rightmost(K: Exponent, L: Exponent) -> Polynomial:
        return table_star(*monomials(K, L), table)

    def leftmost(K: Exponent, L: Exponent) -> Polynomial:
        return star_by_reduction(*monomials(K, L), table, strategy="leftmost").result

    return rightmost, leftmost


def default_rules(name: str, options: Optional[Dict] = None) -> ParameterCatalog:
    options = options or {}
    if name in ("log_canonical", "symmetrized_log_canonical", "translated"):
        return ParameterCatalog({"q": ParameterRule("exp_i")})
    if name == "wick_log_canonical":
        return ParameterCatalog({"q": ParameterRule("exp_neg")})
    if name == "nonquadratic":
        return ParameterCatalog({"p": ParameterRule("exp_i"),
                                 "q": ParameterRule("exp_i"),
                                 "r": ParameterRule("exp_i")})
    if name == "quantum_weyl":
        lam = Fraction(str(options.get("lambda", 1)))
        return ParameterCatalog({"p": ParameterRule("affine"),
                                 "q": ParameterRule("exp_scaled", scale=lam)})
    raise CatalogError(f"unknown catalog {name!r}; expected one of {CATALOG_IDS}")


def catalog_rules(name: str, rules: Optional[ParameterCatalog] = None,
                  options: Optional[Dict] = None) -> ParameterCatalog:
    """The given rules, or the catalog's defaults; CatalogError names any
    parameter the catalog needs that the given rules leave unbound."""
    defaults = default_rules(name, options)
    if rules is None:
        return defaults
    missing = sorted(set(defaults.rules) - set(rules.rules))
    if missing:
        raise CatalogError(f"catalog {name} needs parameters {', '.join(defaults.rules)}; "
                           f"missing: {', '.join(missing)}")
    return rules


def build_catalog(name: str, ring: Ring, d: Optional[int] = None,
                  rules: Optional[ParameterCatalog] = None,
                  hbar: Optional[complex] = None,
                  options: Optional[Dict] = None) -> CatalogInstance:
    """Assemble a catalog instance: resolved parameters, table, product handle."""
    options = dict(options or {})
    scalars = catalog_rules(name, rules, options).resolve(ring, hbar)
    oracle = None

    if name == "log_canonical":
        dim = d or 2
        q = scalars["q"]
        table = log_canonical_table(ring, dim, q)
        star = StarProduct(name, ring, dim, "x", table, _log_canonical_route(q))
    elif name == "wick_log_canonical":
        dim = d or 2
        q = scalars["q"]
        table = wick_log_canonical_table(ring, dim, q)
        star = StarProduct(name, ring, dim, "w", table, _log_canonical_route(q))
    elif name == "nonquadratic":
        dim = 3
        if d not in (None, 3):
            raise CatalogError("nonquadratic lives on d = 3")
        N = int(options.get("N", 2))
        options["N"] = N
        p, q, r = scalars["p"], scalars["q"], scalars["r"]
        s = scalars.get("s")
        table = nonquadratic_table(ring, N, p, q, r, s)
        mono = None
        if s is None:
            mono = lambda K, L: _nonquadratic_terms(K, L, p, q, r, N, ring).items()
        star = StarProduct(name, ring, dim, "x", table, mono)
    elif name == "quantum_weyl":
        dim = 2
        if d not in (None, 2):
            raise CatalogError("quantum_weyl lives on d = 2")
        p, q = scalars["p"], scalars["q"]
        table = quantum_weyl_table(ring, p, q)
        mono = lambda K, L: _quantum_weyl_terms(K, L, p, q, ring).items()
        star = StarProduct(name, ring, dim, "x", table, mono)
    elif name == "symmetrized_log_canonical":
        dim = d or 2
        q = scalars["q"]
        table = None
        mono = lambda K, L: _symmetrized_terms(K, L, q, ring)
        star = StarProduct(name, ring, dim, "x", None, mono)
        # built on first use: a series ring with a constant q has no such table
        averaging_table = functools.cache(lambda: log_canonical_table(ring, dim, q))
        oracle = (star.monomial_product,
                  lambda K, L: symmetrized_star_by_averaging(K, L, averaging_table()))
    else:  # translated
        offsets = options.get("c", (1, -1))
        offsets = [Fraction(str(c)) for c in offsets]
        options["c"] = offsets
        dim = d or len(offsets)
        if dim != len(offsets):
            raise CatalogError("offset vector length must equal the dimension")
        q = scalars["q"]
        base = log_canonical_table(ring, dim, q)
        table = translated_table(base, offsets)
        star = StarProduct(name, ring, dim, "x", table, None)
        options["base_table"] = base
        oracle = (lambda K, L: translated_star(Polynomial.monomial(ring, dim, K),
                                               Polynomial.monomial(ring, dim, L),
                                               base, offsets),
                  star.monomial_product)

    reduction_star = None
    if table is not None:
        reduction_star = StarProduct(name + "(reduction)", ring, dim, star.kind, table, None)
    if oracle is None:
        oracle = ((star.monomial_product, reduction_star.monomial_product)
                  if star.mono is not None else rewriting_routes(table))
    return CatalogInstance(name, ring, dim, star.kind, star, table, reduction_star,
                           oracle, scalars, options)


def catalog_poisson(name: str, d: Optional[int] = None,
                    rules: Optional[ParameterCatalog] = None,
                    options: Optional[Dict] = None,
                    order: int = 4) -> PoissonStructure:
    """First-order bracket of a catalog, from its exact series table."""
    ring = SeriesRing(order=order)
    if name == "symmetrized_log_canonical":
        inst = build_catalog("log_canonical", ring, d, rules, None, options)
    else:
        inst = build_catalog(name, ring, d, rules, None, options)
    if inst.table is None:
        raise CatalogError(f"{name} has no table to extract a bracket from")
    return poisson_from_table(inst.table)
