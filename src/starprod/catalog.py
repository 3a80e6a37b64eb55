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
from .poly import (DimensionMismatch, Exponent, NcPolynomial, Polynomial, check_exponent,
                   exponent_to_word, inversion_weight)
from .qcomb import (
    PoleAtRootOfUnity,
    multinomial,
    q_multinomial,
    q_multinomial_ratio,
    root_of_unity_order,
)
from .reduction import (
    DEFAULT_STEP_LIMIT,
    PoissonStructure,
    ReductionTrace,
    RelationTable,
    monomial_star,
    normal_form_sum,
    poisson_from_table,
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


def _check_wick_q(q, ring: Ring) -> None:
    """Over a series ring, q must expand as 1 - t + O(t^2)."""
    if isinstance(ring, SeriesRing) and q.coefficient(1) != ring.base.coerce(-1):
        raise CatalogError("Wick-type q must expand as 1 - t + O(t^2)")


def wick_log_canonical_table(ring: Ring, dim: int, q) -> RelationTable:
    _check_wick_q(q, ring)
    table = log_canonical_table(ring, dim, q, kind="w")
    table.name = "wick_log_canonical"
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
# functions wrap those terms in a Polynomial.  Where every pair gives one
# monomial, a one-term route returns that term (M, c) itself.
TermList = Iterable[Tuple[Exponent, object]]
TermRoute = Callable[[Exponent, Exponent], TermList]
OneTermRoute = Callable[[Exponent, Exponent], Tuple[Exponent, object]]


def _log_canonical_route(q) -> OneTermRoute:
    """(K, L) -> (K + L, q^w), w = inversion_weight(K, L); within one
    route one ``q ** w`` per weight and one exponent tuple per sum serve
    every pair, so a product's memo entries share them."""
    powers: Dict[int, object] = {}
    sums: Dict[Exponent, Exponent] = {}

    def term(K: Exponent, L: Exponent) -> Tuple[Exponent, object]:
        w = inversion_weight(K, L)
        if w not in powers:
            powers[w] = q ** w
        M = tuple([*map(add, K, L)])
        return sums.setdefault(M, M), powers[w]
    return term


def log_canonical_star(K: Exponent, L: Exponent, q, ring: Ring, kind: str = "x") -> Polynomial:
    """x^K * x^L = q^(sum_{i<j} K_j L_i) x^(K+L)."""
    if len(K) != len(L):
        raise CatalogError("multi-index dimensions differ")
    return Polynomial(ring, len(K), dict([_log_canonical_route(q)(K, L)]), kind)


def wick_star(K: Exponent, L: Exponent, q, ring: Ring) -> Polynomial:
    """Same exponent rule on Wick coordinates; q must expand as 1 - t + O(t^2)."""
    _check_wick_q(q, ring)
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


def _nonquadratic_route(p, q, r, N: int, ring: Ring) -> TermRoute:
    """(e1, e2) -> the word sum of ``nonquadratic_star``, as the items of an
    exponent -> coefficient dict.

    The words in {0,1}^k with at most m ones grow a letter at a time: a
    level lists (ones, weight) for every prefix, in lexicographic order, so
    each word's weight is the chain of step weights along the word (its
    twists r^(-N ones) included) and the words are summed in lexicographic
    order.  The words and their weights depend on k and m alone, and the
    twist, the step weights and the r-power of the result on a count of
    ones; the route keeps every word level, power of q and r and climb
    weight it computes, by exponent, for the pairs after.
    """
    q_power = functools.cache(lambda e: q ** e)
    r_power = functools.cache(lambda e: scalar_power(ring, r, e))
    climb = functools.cache(lambda left: _climb_weight(left, p, q * r_power(N), ring))

    @functools.cache
    def words(k: int, m: int) -> List[Tuple[int, object]]:
        """(ones, weight) of every word in {0,1}^k with at most m ones."""
        before = range(min(k - 1, m) + 1)  # the ones counts a letter can follow
        twists = [r_power(-N * ones) for ones in before]
        stays = [q_power(m - ones) for ones in before]
        steps = [climb(m - ones) for ones in range(min(k, m))]
        level = [(0, ring.one)]
        for _ in range(k):
            grown = []
            for ones, weight in level:
                weight = weight * twists[ones]
                grown.append((ones, weight * stays[ones]))
                if ones < m:
                    grown.append((ones + 1, weight * steps[ones]))
            level = grown
        return level

    def terms(e1: Exponent, e2: Exponent) -> TermList:
        i, j, k = e1
        l, m, n = e2
        level = words(k, m)
        scales = [r_power((j - k) * l + j * N * ones) for ones in range(min(k, m) + 1)]
        out: Dict[Exponent, object] = {}
        for ones, weight in level:
            coeff = scales[ones] * weight
            M = (i + l + N * ones, j + m - ones, k + n - ones)
            out[M] = out[M] + coeff if M in out else coeff
        return out.items()
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
    return Polynomial.from_checked(ring, 3, dict(_nonquadratic_route(p, q, r, N, ring)(e1, e2)))


def _quantum_weyl_route(p, q, ring: Ring) -> TermRoute:
    """The N=0 word sum with r = 1 on (y, z) pairs; its x-exponent is always 0."""
    full = _nonquadratic_route(p, q, ring.one, 0, ring)

    def terms(e1: Exponent, e2: Exponent) -> TermList:
        (j, k), (m, n) = e1, e2
        return {(b, c): coeff for (_, b, c), coeff in full((0, j, k), (0, m, n))}.items()
    return terms


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
    return Polynomial.from_checked(ring, 2, dict(_quantum_weyl_route(p, q, ring)(e1, e2)))


def _symmetrized_terms(K: Exponent, L: Exponent, q, ring: Ring) -> TermList:
    M = tuple([*map(add, K, L)])
    rows: Dict = {}
    bq_K = q_multinomial(K, q, ring, rows)
    bq_L = q_multinomial(L, q, ring, rows)
    bq_M = q_multinomial(M, q, ring, rows)
    classical = ring.coerce(Fraction(multinomial(M), multinomial(K) * multinomial(L)))
    if ring.is_zero(bq_M):  # a removable singularity, or a genuine pole
        coeff = classical * q_multinomial_ratio(K, L, q, ring, rows)
    else:
        coeff = classical * bq_K * bq_L * ring.inverse(bq_M)
    coeff = coeff * q ** inversion_weight(K, L)
    return ((M, coeff),)


def symmetrized_star(K: Exponent, L: Exponent, q, ring: Ring) -> Polynomial:
    """Symmetrized product: a q-multinomial ratio times the log-canonical term."""
    if len(K) != len(L):
        raise CatalogError("multi-index dimensions differ")
    return Polynomial(ring, len(K), dict(_symmetrized_terms(K, L, q, ring)))


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
                    offsets: Sequence) -> Polynomial:
    """Pull-back product T(T^(-1) f * T^(-1) g) under T(x_i) = x_i + c_i."""
    ring = base.ring
    offs = [ring.coerce(c) for c in offsets]
    neg = [-c for c in offs]
    inner = table_star(f.shift(neg), g.shift(neg), base)
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
    h = normal_form_sum(_unit_words(pairs, table), table)

    # sigma(x^M) = (s / mult(M)) x^M when M's unit words reduce to s x^M, so
    # sigma_cache[M] = mult(M) / s inverts it
    sigma_cache: Dict[Exponent, object] = cache if cache is not None else {}

    def sigma_inverse(M: Exponent):
        if M not in sigma_cache:
            image = normal_form_sum(_unit_words(_distinct_arrangements(M), table), table).terms
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
    with no Polynomial built and nothing dropped; with ``one_term`` set it
    is a one-term route and gives the one term ``(M, c)`` itself.
    ``__call__`` keeps them in a memo ``K -> {L -> terms}`` for the
    product's life; ``monomial_product`` leaves it alone, as sweeps ask for
    each pair once.
    """

    name: str
    ring: Ring
    dim: int
    kind: str = "x"
    table: Optional[RelationTable] = None
    mono: Optional[TermRoute | OneTermRoute] = None
    step_limit: int = DEFAULT_STEP_LIMIT
    one_term: bool = False
    _pairs: Dict[Exponent, Dict[Exponent, TermList]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def monomial_product(self, K: Exponent, L: Exponent) -> Polynomial:
        if self.mono is not None:
            # terms made from checked exponents need no check of their own
            check_exponent(K, self.dim)
            check_exponent(L, self.dim)
            terms = self.mono(tuple(K), tuple(L))
            return Polynomial.from_checked(self.ring, self.dim,
                                           dict([terms] if self.one_term else terms), self.kind)
        if self.table is None:
            raise CatalogError(f"{self.name} has neither closed form nor table")
        return monomial_star(K, L, self.table, self.step_limit).result

    def traced_monomials(self, K: Exponent, L: Exponent) -> ReductionTrace:
        if self.table is None:
            raise CatalogError(f"{self.name} has no relation table to trace")
        return monomial_star(K, L, self.table, self.step_limit)

    def __call__(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """f * g: the bilinear extension of ``mono``, or the table's rewriting.

        The closed-form route sums the terms of every term pair into one
        dict and builds a single Polynomial, so in float mode coefficients
        below the ring's ``drop_tol`` are dropped once, on the finished sum,
        by the ring-level ``ring.prune``.
        """
        if self.mono is None:
            if self.table is None:
                raise CatalogError(f"{self.name} has neither closed form nor table")
            return table_star(f, g, self.table, self.step_limit)
        if f.dim != self.dim or g.dim != self.dim:
            raise DimensionMismatch(f"{self.name} lives on d={self.dim}, "
                                    f"operands have d={f.dim}/{g.dim}")
        mono, pairs, one_term = self.mono, self._pairs, self.one_term
        out: Dict[Exponent, object] = {}
        g_items = g.terms.items()
        for K, a in f.terms.items():
            row = pairs.get(K) or pairs.setdefault(K, {})
            for L, b in g_items:
                terms = row.get(L)
                if terms is None:
                    terms = row[L] = mono(K, L)
                ab = a * b
                if one_term:
                    M, c = terms
                    out[M] = out[M] + c * ab if M in out else c * ab
                    continue
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
    for a table with no closed form, the product's own (rightmost)
    rewriting against ``leftmost_route``.
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


def catalog_instance(star: StarProduct, oracle: Optional[Tuple[MonomialRoute, MonomialRoute]],
                     params: Dict[str, object], options: Dict[str, object]) -> CatalogInstance:
    """The instance around ``star``, for a catalog or a table file.

    A product with no closed form is its own ``reduction_star``; a closed
    form gets a rewriting product over the same table, if it has one.  The
    oracle, unless given, is the closed form against that rewriting, or
    the product's (rightmost) rewriting against ``leftmost_route``.
    """
    table = star.table
    if star.mono is None:
        reduction_star = star
    elif table is not None:
        reduction_star = StarProduct(star.name + "(reduction)", star.ring, star.dim, star.kind,
                                     table)
    else:
        reduction_star = None
    if oracle is None:
        oracle = (star.monomial_product, leftmost_route(table) if reduction_star is star
                  else reduction_star.monomial_product)
    return CatalogInstance(star.name, star.ring, star.dim, star.kind, star, table,
                           reduction_star, oracle, params, options)


def leftmost_route(table: RelationTable) -> MonomialRoute:
    """x^K * x^L by leftmost rewriting, through the mirrored table's memo.

    The reference for a product that rewrites rightmost: the normal form
    of an associative table does not depend on the order of the rewrites.
    The mirror of word(K) + word(L) is word(L') + word(K') (' reverses an
    exponent): x^L' * x^K' on the mirror, its exponents reversed back.
    """
    def leftmost(K: Exponent, L: Exponent) -> Polynomial:
        mirrored = monomial_star(L[::-1], K[::-1], table.mirror()).result
        return Polynomial.from_checked(table.ring, table.dim,
                                       {M[::-1]: c for M, c in mirrored.terms.items()},
                                       table.kind)

    return leftmost


# the parameters of each catalog, in order, and the rule each gets by default
_DEFAULT_RULES = {
    "log_canonical": {"q": "exp_i"},
    "symmetrized_log_canonical": {"q": "exp_i"},
    "translated": {"q": "exp_i"},
    "wick_log_canonical": {"q": "exp_neg"},
    "nonquadratic": {"p": "exp_i", "q": "exp_i", "r": "exp_i"},
    "quantum_weyl": {"p": "affine", "q": "exp_scaled"},
}


def default_rules(name: str, options: Optional[Dict] = None) -> ParameterCatalog:
    if name not in _DEFAULT_RULES:
        raise CatalogError(f"unknown catalog {name!r}; expected one of {CATALOG_IDS}")
    # quantum_weyl's q turns at the rate lambda
    lam = Fraction(str((options or {}).get("lambda", 1))) if name == "quantum_weyl" else None
    return ParameterCatalog({
        param: ParameterRule(rule, scale=lam if rule == "exp_scaled" else None)
        for param, rule in _DEFAULT_RULES[name].items()})


def catalog_rules(name: str, rules: Optional[ParameterCatalog] = None,
                  options: Optional[Dict] = None) -> ParameterCatalog:
    """The given rules, or the catalog's defaults; CatalogError names any
    parameter the catalog needs that the given rules leave unbound.

    Given rules are checked against the catalog's parameter names alone, so
    no default rule is built for them."""
    if rules is None or name not in _DEFAULT_RULES:
        return default_rules(name, options)  # an unknown catalog raises there
    needed = _DEFAULT_RULES[name]
    missing = sorted(set(needed) - set(rules.rules))
    if missing:
        raise CatalogError(f"catalog {name} needs parameters {', '.join(needed)}; "
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

    if name in ("log_canonical", "wick_log_canonical"):
        dim = d or 2
        q = scalars["q"]
        make_table = log_canonical_table if name == "log_canonical" else wick_log_canonical_table
        table = make_table(ring, dim, q)
        star = StarProduct(name, ring, dim, table.kind, table, _log_canonical_route(q),
                           one_term=True)
    elif name == "nonquadratic":
        dim = 3
        if d not in (None, 3):
            raise CatalogError("nonquadratic lives on d = 3")
        N = int(options.get("N", 2))
        options["N"] = N
        p, q, r = scalars["p"], scalars["q"], scalars["r"]
        s = scalars.get("s")
        table = nonquadratic_table(ring, N, p, q, r, s)
        # the closed form takes s = 1/r; with s bound the product rewrites
        mono = _nonquadratic_route(p, q, r, N, ring) if s is None else None
        star = StarProduct(name, ring, dim, "x", table, mono)
    elif name == "quantum_weyl":
        dim = 2
        if d not in (None, 2):
            raise CatalogError("quantum_weyl lives on d = 2")
        p, q = scalars["p"], scalars["q"]
        table = quantum_weyl_table(ring, p, q)
        star = StarProduct(name, ring, dim, "x", table, _quantum_weyl_route(p, q, ring))
    elif name == "symmetrized_log_canonical":
        dim = d or 2
        q = scalars["q"]
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
        star = StarProduct(name, ring, dim, "x", translated_table(base, offsets))
        options["base_table"] = base
        oracle = (lambda K, L: translated_star(Polynomial.monomial(ring, dim, K),
                                               Polynomial.monomial(ring, dim, L),
                                               base, offsets),
                  star.monomial_product)
    return catalog_instance(star, oracle, scalars, options)


def catalog_poisson(name: str, d: Optional[int] = None,
                    rules: Optional[ParameterCatalog] = None,
                    options: Optional[Dict] = None,
                    order: int = 4) -> PoissonStructure:
    """First-order bracket of a catalog, from its exact series table."""
    # the symmetrized product is equivalent to the log-canonical one
    # (equivalence_transform), so the two have one bracket
    if name == "symmetrized_log_canonical":
        name = "log_canonical"
    return poisson_from_table(build_catalog(name, SeriesRing(order=order), d, rules, None,
                                            options).table)
