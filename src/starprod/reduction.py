"""Star products by word rewriting.

A RelationTable holds, for every generator pair i < j, a commutative "tail"
polynomial tail(i, j).  The rewriting rule replaces an adjacent descent
x_j x_i (j > i) inside a word by x_i x_j plus the tail re-embedded as a
standard word.  Rewriting the concatenation of the standard words of f and
g until every word is standard computes the star product f * g in the
monomial basis.  ``reduce_once`` is the one rewrite step; two routes drive
it.

The memo route (``star`` and ``normal_form_sum``) rests on rightmost
rewriting being linear: the normal form NF(w) of a word does not depend on
its coefficient, so each table memoizes ``RelationTable.normal_form`` for
every non-standard word it meets, as exponents and coefficients, and
f * g = sum of a*b*NF(word(K) + word(L)) is summed into one dict.  On a
miss, a word a + s (one letter before a standard word s) is rewritten once
by ``reduce_once`` and NF(a + s) is the sum of c * NF(w') over the words
c w' that come out.  A longer word p + a + s first reduces its suffix a + s,
as the rightmost strategy does, so NF(p + a + s) is the sum of
c * NF(p + word(M)) over the terms c x^M of NF(a + s).  Keys are words, so
every product on a table reuses the suffixes earlier products reduced.  The
route serves every exact product: ``StarProduct`` without a closed form,
the rightmost route of ``rewriting_routes``, ``check_overlaps``,
``translated_star``, ``star_series_coefficients`` and the averaging oracle.
It computes the rightmost normal form even where the order of rewrites
matters (a table that does not associate), so it gives what the pass route
gives.

The pass route (``reduce_to_standard``, ``star_by_reduction``) rewrites, in
every word of the current linear combination, the rightmost adjacent descent
(a leftmost strategy exists for cross-checking order independence) until
every word is standard.  It keeps the count of whole passes, which the
reduction-count law, ``star eval`` and the continuity hypotheses read.
Tables over a floating ring stay on it as well: the memo adds terms in
another order, which would change complex results in the last bits.

In series mode tails start at order t, so rewriting terminates by
truncation; the memo keys series words by the t-order they still need (a
tail coefficient of t-valuation v lowers it by v, and none left means zero).
In evaluated mode a step limit on replacements or memo misses, and a cap on
the letters rewritten, guard against runaway tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .poly import (
    Exponent,
    NcPolynomial,
    Polynomial,
    Word,
    exponent_to_word,
    is_standard,
    word_to_exponent,
)
from .scalars import ComplexRing, GaussRational, Ring, SeriesRing

DEFAULT_STEP_LIMIT = 10 ** 6

# A normal form: (exponent, coefficient) pairs with nonzero coefficients.
NormalForm = Tuple[Tuple[Exponent, object], ...]


class StepLimitExceeded(RuntimeError):
    pass


class TableError(ValueError):
    pass


def _work_cap(step_limit: int) -> int:
    """Letters a run may rewrite before it counts as exploded."""
    return max(10 ** 6, 10 * step_limit)


def _step_limit_error(table: "RelationTable", done: str, step_limit: int,
                      widest: int) -> StepLimitExceeded:
    return StepLimitExceeded(
        f"table {table.name}: stopped at step limit {step_limit} after {done}; "
        f"widest intermediate {widest} terms; the table may not terminate")


@dataclass
class RelationTable:
    """Reordering relations x_j x_i -> x_i x_j + tail(i, j) for i < j."""

    ring: Ring
    dim: int
    kind: str = "x"
    tails: Dict[Tuple[int, int], Polynomial] = field(default_factory=dict)
    name: str = "custom"
    # normal forms of non-standard words, filled by normal_form and keyed by
    # (word, t-orders still needed); the budget is None off series rings
    _normal_forms: Dict[object, NormalForm] = field(
        default_factory=dict, init=False, repr=False, compare=False)

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
        # the memo keeps one object per exact complex rational it stores, and
        # the unit among them, so that it can skip multiplying by it; a series
        # word needs all orders of t up to the truncation
        self._coefficients: Dict[Tuple[int, int, int], GaussRational] = {}
        self._one = _interned(self._coefficients, self.ring.one)
        self._budget = self.ring.order + 1 if isinstance(self.ring, SeriesRing) else None

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

    def normal_form(self, word: Word, misses: Optional["MemoMisses"] = None) -> NormalForm:
        """Rightmost normal form of a non-standard word, memoized on the table.

        Only for exact rings.  A standard word is its own normal form and is
        not stored.  Misses are charged to ``misses`` (by default a fresh
        count under DEFAULT_STEP_LIMIT).
        """
        if is_standard(word):
            return ((word_to_exponent(word, self.dim), self._one),)
        key = (word, self._budget)
        found = self._normal_forms.get(key)
        if found is None:
            found = self._resolve(key, misses or MemoMisses(self, DEFAULT_STEP_LIMIT))
        return found

    def _resolve(self, root, misses: "MemoMisses") -> NormalForm:
        """Fill the memo for ``root`` and every word its normal form needs.

        Each missing word is one ``_expand`` generator, which yields the
        keys it still needs; they run on an explicit stack, so no recursion
        limit applies.  Needing a word that is still being expanded means
        the rewriting cycles.
        """
        memo = self._normal_forms
        stack = []
        expanding = set()
        need, value = root, None
        while True:
            if need is not None:
                if need in expanding:
                    raise StepLimitExceeded(
                        f"table {self.name}: rewriting comes back to a word it is still "
                        f"reducing, after {misses.count} memo misses; the table does not "
                        "terminate")
                misses.open(need[0])
                expanding.add(need)
                stack.append((need, self._expand(need, misses)))
            key, task = stack[-1]
            try:
                need = task.send(value)
                value = None
            except StopIteration as done:
                value = memo[key] = done.value
                misses.close(key[0])
                expanding.discard(key)
                stack.pop()
                if not stack:
                    return value
                need = None

    def _expand(self, key, misses: "MemoMisses"):
        """The normal form of one non-standard word, as a generator.

        A word a + s, with s standard, is rewritten once by ``reduce_once``.
        A longer word p + a + s reduces its suffix a + s first, as the
        rightmost strategy does, so NF(p + a + s) is the sum of
        c * NF(p + word(M)) over the terms c x^M of NF(a + s).
        """
        word, budget = key
        memo, ring, dim = self._normal_forms, self.ring, self.dim
        one = self._one
        start = len(word) - 1
        while start > 1 and word[start - 1] <= word[start]:
            start -= 1
        if start == 1:
            rewritten, _, _ = reduce_once(NcPolynomial.from_checked(ring, dim, {word: one}),
                                          self)
            parts = rewritten.terms.items()
        else:
            head = (word[start - 1:], budget)
            found = memo.get(head)
            if found is None:
                found = yield head
            prefix = word[:start - 1]
            parts = [(prefix + exponent_to_word(M), c) for M, c in found]
        out: Dict[Exponent, object] = {}
        for w, c in parts:
            left = budget
            if budget is not None:
                left -= _valuation(c)
                if left <= 0:
                    continue
            if is_standard(w):
                M = word_to_exponent(w, dim)
                out[M] = out[M] + c if M in out else c
                continue
            child = (w, left)
            found = memo.get(child)
            if found is None:
                found = yield child
            for M, d in found:
                if c is not one:
                    d = d * c
                out[M] = out[M] + d if M in out else d
        pool = self._coefficients
        found = tuple((M, _interned(pool, d)) for M, d in out.items() if not ring.is_zero(d))
        if len(found) > misses.widest:
            misses.widest = len(found)
        return found


def _interned(pool: Dict, c):
    """The pool's object equal to a GaussRational ``c``; other values as they are.

    Keyed by the normal-form fields, because hashing a GaussRational
    builds two Fractions.
    """
    if type(c) is GaussRational:
        return pool.setdefault(c.fields(), c)
    return c


def _valuation(c) -> int:
    """Lowest order in t with a nonzero entry of an exact series."""
    for k, entry in enumerate(c.coeffs):
        if entry:
            return k
    return len(c.coeffs)


class MemoMisses:
    """Memo misses of one product, held to its step limit.

    Each miss expands one word.  The product stops when its misses pass the
    step limit, when the letters of the words it expanded pass the letter
    cap of the pass route, or when the words open at once hold a tenth of
    that cap.  ``widest`` is the most terms in a normal form built.
    """

    __slots__ = ("table", "step_limit", "work_cap", "count", "work", "held", "widest")

    def __init__(self, table: RelationTable, step_limit: int):
        self.table = table
        self.step_limit = step_limit
        self.work_cap = _work_cap(step_limit)
        self.count = self.work = self.held = self.widest = 0

    def open(self, word: Word):
        self.count += 1
        self.work += len(word)
        self.held += len(word)
        if (self.count > self.step_limit or self.work > self.work_cap
                or 10 * self.held > self.work_cap):
            raise _step_limit_error(
                self.table, f"{self.count} memo misses and {self.work} letters rewritten",
                self.step_limit, self.widest)

    def close(self, word: Word):
        self.held -= len(word)


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
    work_cap = _work_cap(step_limit)
    widest = len(f.terms)
    current = f
    while True:
        current, changed, fired = reduce_once(current, table, strategy)
        widest = max(widest, len(current.terms))
        if not changed:
            return current, count, widest
        count += 1
        total_fired += fired
        work += sum(len(w) for w in current.terms)
        if total_fired > step_limit or work > work_cap:
            raise _step_limit_error(
                table, f"{total_fired} replacements in {count} passes and {work} letters "
                "rewritten", step_limit, widest)


def _check_operands(f: Polynomial, g: Polynomial, table: RelationTable):
    if f.dim != table.dim or g.dim != table.dim:
        raise TableError("polynomial dimension does not match the table")
    if f.kind != table.kind or g.kind != table.kind:
        raise TableError("polynomial kind does not match the table")


def star_by_reduction(f: Polynomial, g: Polynomial, table: RelationTable,
                      step_limit: int = DEFAULT_STEP_LIMIT,
                      strategy: str = "rightmost") -> ReductionTrace:
    """Star product of commutative polynomials through the pass route."""
    _check_operands(f, g, table)
    concat = NcPolynomial.from_polynomial(f).concat(NcPolynomial.from_polynomial(g))
    normal, count, widest = reduce_to_standard(concat, table, step_limit, strategy)
    return ReductionTrace(normal.to_polynomial(table.kind), count, widest)


def _sum_normal_forms(terms: Iterable[Tuple[Word, object]], table: RelationTable,
                      step_limit: int) -> Polynomial:
    """sum of c * NF(w) over (w, c), into one dict and one Polynomial."""
    misses = MemoMisses(table, step_limit)
    normal_form, one = table.normal_form, table._one
    out: Dict[Exponent, object] = {}
    for word, c in terms:
        for M, d in normal_form(word, misses):
            d = c if d is one else d * c
            out[M] = out[M] + d if M in out else d
    return Polynomial.from_checked(table.ring, table.dim, out, table.kind)


def star(f: Polynomial, g: Polynomial, table: RelationTable,
         step_limit: int = DEFAULT_STEP_LIMIT) -> Polynomial:
    """f * g = sum of a*b*NF(word(K) + word(L)) through the table's memo.

    Tables over a floating ring take the pass route instead.
    """
    if not table.ring.exact:
        return star_by_reduction(f, g, table, step_limit).result
    _check_operands(f, g, table)
    right = [(exponent_to_word(L), b) for L, b in g.terms.items()]
    return _sum_normal_forms(((exponent_to_word(K) + v, a * b)
                              for K, a in f.terms.items() for v, b in right),
                             table, step_limit)


def normal_form_sum(f: NcPolynomial, table: RelationTable,
                    step_limit: int = DEFAULT_STEP_LIMIT) -> Polynomial:
    """The standard form of a word combination, as a commutative polynomial.

    Through the table's memo; tables over a floating ring take the pass
    route instead.
    """
    if f.dim != table.dim:
        raise TableError("polynomial dimension does not match the table")
    if not table.ring.exact:
        return reduce_to_standard(f, table, step_limit)[0].to_polynomial(table.kind)
    return _sum_normal_forms(f.terms.items(), table, step_limit)


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
