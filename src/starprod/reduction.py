"""Star products by word rewriting.

A RelationTable holds, for every generator pair i < j, a commutative "tail"
polynomial tail(i, j).  The rewriting rule replaces an adjacent descent
x_j x_i (j > i) inside a word by x_i x_j plus the tail re-embedded as a
standard word.  Iterating the rule on the concatenation of the standard
words of f and g until every word is standard computes the star product
f * g in the monomial basis.

One reduction step rewrites, in every word of the current linear
combination, the rightmost adjacent descent (a leftmost strategy exists for
cross-checking order independence).  In series mode tails start at order t,
so rewriting terminates by truncation; in evaluated mode a step limit
guards against runaway tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .poly import NcPolynomial, Polynomial, Word, exponent_to_word
from .scalars import ComplexRing, Ring, SeriesRing

DEFAULT_STEP_LIMIT = 10 ** 6


class StepLimitExceeded(RuntimeError):
    pass


class TableError(ValueError):
    pass


@dataclass
class RelationTable:
    """Reordering relations x_j x_i -> x_i x_j + tail(i, j) for i < j."""

    ring: Ring
    dim: int
    kind: str = "x"
    tails: Dict[Tuple[int, int], Polynomial] = field(default_factory=dict)
    name: str = "custom"

    def __post_init__(self):
        normalized = {}
        for (i, j), tail in self.tails.items():
            if not 1 <= i < j <= self.dim:
                raise TableError(f"relation pair ({i}, {j}) must satisfy 1 <= i < j <= d")
            if tail.dim != self.dim or tail.kind != self.kind:
                raise TableError(f"tail for ({i}, {j}) has wrong dimension or kind")
            normalized[(i, j)] = tail
        self.tails = normalized
        if isinstance(self.ring, SeriesRing):
            for (i, j), tail in self.tails.items():
                for K, c in tail.terms.items():
                    if not self.ring.base.is_zero(c.coefficient(0)):
                        raise TableError(
                            f"tail for ({i}, {j}) has a nonzero constant order in t; "
                            "series tails must start at order t")

    def tail(self, i: int, j: int) -> Polynomial:
        if (i, j) in self.tails:
            return self.tails[(i, j)]
        return Polynomial.zero(self.ring, self.dim, self.kind)

    def tail_words(self) -> Dict[Tuple[int, int], List[Tuple[Word, object]]]:
        """Tails pre-embedded as standard words, cached for the rewrite loop."""
        cached = getattr(self, "_tail_words", None)
        if cached is None:
            cached = {}
            for (i, j), tail in self.tails.items():
                cached[(i, j)] = [(exponent_to_word(K), c) for K, c in tail.terms.items()]
            self._tail_words = cached
        return cached


@dataclass
class ReductionTrace:
    """Result of a rewrite run.

    reduction_count is the number of simultaneous rewrite steps: one step
    performs the rightmost possible replacement in every non-standard word
    of the current linear combination.  Zero iff the input was already
    standard.
    """

    result: Polynomial
    reduction_count: int
    max_intermediate_terms: int


def _descent_position(word: Word, strategy: str) -> Optional[int]:
    rng = range(len(word) - 2, -1, -1) if strategy == "rightmost" else range(len(word) - 1)
    for p in rng:
        if word[p] > word[p + 1]:
            return p
    return None


def reduce_once(f: NcPolynomial, table: RelationTable,
                strategy: str = "rightmost") -> Tuple[NcPolynomial, bool, int]:
    """Rewrite one descent in every non-standard word.

    Returns (rewritten, changed, replacements); replacements counts the
    words in which a rule fired.
    """
    # f's words and the tails were checked against the dimension when they
    # were made, so the rewritten words need no letter check
    if f.dim != table.dim:
        raise TableError("polynomial dimension does not match the table")
    tails = table.tail_words()
    out: Dict[Word, object] = {}
    ring = table.ring
    changed = False
    fired = 0

    def accumulate(word: Word, coeff):
        if word in out:
            out[word] = out[word] + coeff
        else:
            out[word] = coeff

    for word, coeff in f.terms.items():
        p = _descent_position(word, strategy)
        if p is None:
            accumulate(word, coeff)
            continue
        changed = True
        fired += 1
        j, i = word[p], word[p + 1]
        prefix, suffix = word[:p], word[p + 2:]
        accumulate(prefix + (i, j) + suffix, coeff)
        for tail_word, tail_coeff in tails.get((i, j), ()):
            accumulate(prefix + tail_word + suffix, coeff * tail_coeff)

    return NcPolynomial.from_checked(ring, f.dim, out), changed, fired


def reduce_to_standard(f: NcPolynomial, table: RelationTable,
                       step_limit: int = DEFAULT_STEP_LIMIT,
                       strategy: str = "rightmost") -> Tuple[NcPolynomial, int, int]:
    """Iterate reduce_once to the fixpoint where every word is standard.

    The returned count is the number of rewrite steps (whole passes); the
    step limit guards cumulative per-word replacements, which is what blows
    up on non-terminating tables.
    """
    count = 0
    total_fired = 0
    work = 0
    work_cap = max(10 ** 6, 10 * step_limit)
    widest = len(f.terms)
    current = f
    while True:
        current, changed, fired = reduce_once(current, table, strategy)
        widest = max(widest, len(current.terms))
        if not changed:
            return current, count, widest
        count += 1
        total_fired += fired
        if total_fired > step_limit:
            raise StepLimitExceeded(
                f"more than {step_limit} replacements; the table may not terminate")
        work += sum(len(w) for w in current.terms)
        if work > work_cap:
            raise StepLimitExceeded(
                "rewriting workload exploded; the table may not terminate")


def star_by_reduction(f: Polynomial, g: Polynomial, table: RelationTable,
                      step_limit: int = DEFAULT_STEP_LIMIT,
                      strategy: str = "rightmost") -> ReductionTrace:
    """Star product of commutative polynomials through word rewriting."""
    if f.dim != table.dim or g.dim != table.dim:
        raise TableError("polynomial dimension does not match the table")
    if f.kind != table.kind or g.kind != table.kind:
        raise TableError("polynomial kind does not match the table")
    concat = NcPolynomial.from_polynomial(f).concat(NcPolynomial.from_polynomial(g))
    normal, count, widest = reduce_to_standard(concat, table, step_limit, strategy)
    return ReductionTrace(normal.to_polynomial(table.kind), count, widest)


def star(f: Polynomial, g: Polynomial, table: RelationTable, **kwargs) -> Polynomial:
    return star_by_reduction(f, g, table, **kwargs).result


# -- associativity on generator triples -----------------------------------------


@dataclass
class OverlapReport:
    ok: bool
    failures: List[Tuple[int, int, int, Polynomial]]


def check_overlaps(table: RelationTable, tol: float = 1e-10) -> OverlapReport:
    """Associativity on all generator triples i < j < k.

    The reported difference is x_k * (x_j * x_i) minus (x_k * x_j) * x_i.
    All differences vanishing is equivalent to full associativity.
    """
    ring = table.ring
    failures = []
    gens = {i: Polynomial.variable(ring, table.dim, i, table.kind)
            for i in range(1, table.dim + 1)}
    for k in range(3, table.dim + 1):
        for j in range(2, k):
            for i in range(1, j):
                right = star(gens[k], star(gens[j], gens[i], table), table)
                left = star(star(gens[k], gens[j], table), gens[i], table)
                diff = right - left
                scale = 1.0
                if isinstance(ring, ComplexRing):
                    coeffs = [abs(c) for p in (left, right) for c in p.terms.values()]
                    scale = max(coeffs, default=1.0)
                if not diff.close_to(Polynomial.zero(ring, table.dim, table.kind),
                                     tol=tol, scale=scale):
                    failures.append((i, j, k, diff))
    return OverlapReport(ok=not failures, failures=failures)


# -- first-order structure --------------------------------------------------------


@dataclass
class PoissonStructure:
    """Brackets {x_j, x_i} for i < j, as polynomials over a base ring."""

    ring: Ring
    dim: int
    brackets: Dict[Tuple[int, int], Polynomial] = field(default_factory=dict)
    kind: str = "x"

    def bracket(self, i: int, j: int) -> Polynomial:
        """{x_j, x_i} for i < j (callers handle antisymmetry)."""
        if (i, j) in self.brackets:
            return self.brackets[(i, j)]
        return Polynomial.zero(self.ring, self.dim, self.kind)


def poisson_from_table(table: RelationTable) -> PoissonStructure:
    """First-order bracket {x_j, x_i} = (1/i) * [t^1 coefficient of tail(i, j)]."""
    if not isinstance(table.ring, SeriesRing):
        raise TableError("extracting the bracket needs a series-mode table")
    base = table.ring.base
    minus_i = -base.imaginary_unit
    brackets = {}
    for (i, j), tail in table.tails.items():
        terms = {}
        for K, c in tail.terms.items():
            first = c.coefficient(1)
            if not base.is_zero(first):
                terms[K] = first * minus_i
        if terms:
            brackets[(i, j)] = Polynomial(base, table.dim, terms, table.kind)
    return PoissonStructure(base, table.dim, brackets, table.kind)


def poisson_bracket(eta: PoissonStructure, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum over i < j of {x_j, x_i} (d_j f d_i g - d_i f d_j g)."""
    result = Polynomial.zero(f.ring, f.dim, f.kind)
    for j in range(2, eta.dim + 1):
        df_j = f.derivative(j)
        dg_j = g.derivative(j)
        for i in range(1, j):
            b = eta.bracket(i, j)
            if b.is_zero():
                continue
            if b.ring is not f.ring:
                b = b.map_coefficients(f.ring.coerce, f.ring)
            result = result + b * (df_j * g.derivative(i) - f.derivative(i) * dg_j)
    return result


def jacobi_check(eta: PoissonStructure, tol: float = 1e-10) -> bool:
    """Jacobiator on all generator triples vanishes."""
    ring = eta.ring
    gens = {i: Polynomial.variable(ring, eta.dim, i, eta.kind)
            for i in range(1, eta.dim + 1)}
    zero = Polynomial.zero(ring, eta.dim, eta.kind)
    for k in range(3, eta.dim + 1):
        for j in range(2, k):
            for i in range(1, j):
                a, b, c = gens[i], gens[j], gens[k]
                jac = (poisson_bracket(eta, a, poisson_bracket(eta, b, c))
                       + poisson_bracket(eta, b, poisson_bracket(eta, c, a))
                       + poisson_bracket(eta, c, poisson_bracket(eta, a, b)))
                if ring.exact:
                    if not jac.is_zero():
                        return False
                elif not jac.close_to(zero, tol=tol):
                    return False
    return True
