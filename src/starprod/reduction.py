"""Star products by word rewriting.

A RelationTable holds, for every generator pair i < j, a commutative "tail"
polynomial tail(i, j).  The rewriting rule replaces an adjacent descent
x_j x_i (j > i) inside a word by x_i x_j plus the tail re-embedded as a
standard word.  Rewriting the concatenation of the standard words of f and
g until every word is standard computes the star product f * g in the
monomial basis.  ``reduce_once`` is the one rewrite step, and one route
drives it over every ring: the table's memo of word normal forms.  Every
miss that rewrites a word calls ``reduce_once``, also where a loop of its
own would be quicker, because the benchmark's tracer (perfbench/tracing.py)
counts its calls as the rewrite passes of a workload.

Rightmost rewriting is linear: the normal form NF(w) of a word does not
depend on its coefficient, so each table memoizes ``RelationTable.normal_form``
for every non-standard word it meets, and f * g = sum of
a*b*NF(word(K) + word(L)) is summed into one dict.  On a miss, a word a + s
(one letter before a standard word s) is rewritten once by ``reduce_once``;
a longer word p + a + s reduces its suffix a + s first, as the rightmost
strategy does.  So every product on a table reuses the suffixes earlier
products reduced, and the result is the rightmost normal form even where
the order of rewrites matters (a table that does not associate).

Each term of a normal form also stores its depth, the longest chain of
rightmost rewrites that reaches it: a standard word has depth 0, the words
of one rewrite of a + s depth 1, depths add across the suffix split, and
merged terms keep the larger depth.  The ``reduction_count`` of a product
is the largest depth among the terms that survive: the number of passes
that rewrite the rightmost descent of every word at once would take.

Rightmost is the engine's only order of rewrites.  Leftmost rewriting on
a table is rightmost rewriting on its mirror (``RelationTable.mirror``);
``catalog.leftmost_route`` is the one place that mirrors its operands and
results.  By Bergman's diamond lemma the normal form of an associative
table does not depend on the order of the rewrites, which makes rightmost
against leftmost a check.

The memo drops a coefficient only when it is exactly zero.  A floating
ring's ``prune`` (``drop_tol``) runs once, on the finished product: a
normal form is computed at unit coefficient, and a term below the
tolerance there may not be below it once the product scales it.

Each table also keeps the standard word of every exponent and the exponent
of every standard word it meets, so neither is rebuilt letter by letter
for each product or each miss.

In series mode tails start at order t, so rewriting terminates by
truncation; the memo keys series words by the t-order they still need (a
tail coefficient of t-valuation v lowers it by v, and none left means zero).
In evaluated mode a step limit on memo misses, and a cap on the letters
rewritten, guard against runaway tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .poly import (
    Exponent,
    NcPolynomial,
    Polynomial,
    Word,
    check_exponent,
    exponent_to_word,
    is_standard,
    word_to_exponent,
)
from .scalars import ComplexRing, GaussRational, RationalRing, Ring, SeriesRing

DEFAULT_STEP_LIMIT = 10 ** 6

# A normal form: (exponent, coefficient, depth) triples with nonzero coefficients.
NormalForm = Tuple[Tuple[Exponent, object, int], ...]


def _add_normal_form(out: Dict[Exponent, object], depths: Dict[Exponent, int],
                     found: NormalForm, c, k: int, one) -> None:
    """Add c * found into ``out``, each term at its depth + k, merged terms
    keeping the larger depth.  A factor that is the unit ``one`` is not
    multiplied by: times 1+0j, a complex zero part can change sign."""
    for M, d, j in found:
        if d is one:
            d = c
        elif c is not one:
            d = d * c
        j += k
        if M in out:
            out[M] = out[M] + d
            if j > depths[M]:
                depths[M] = j
        else:
            out[M] = d
            depths[M] = j


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
    # normal forms of non-standard words, filled by normal_form and keyed by
    # (word, t-orders still needed); the budget is None off series rings
    _normal_forms: Dict[object, NormalForm] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _mirror: Optional["RelationTable"] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for (i, j), tail in self.tails.items():
            if not 1 <= i < j <= self.dim:
                raise TableError(f"relation pair ({i}, {j}) must satisfy 1 <= i < j <= d")
            if tail.dim != self.dim or tail.kind != self.kind:
                raise TableError(f"tail for ({i}, {j}) has wrong dimension or kind")
        if isinstance(self.ring, SeriesRing):
            for (i, j), tail in self.tails.items():
                for K, c in tail.terms.items():
                    if not self.ring.base.is_zero(c.coefficient(0)):
                        raise TableError(
                            f"tail for ({i}, {j}) has a nonzero constant order in t; "
                            "series tails must start at order t")
        # the memo keeps one object per exact complex rational it stores, and
        # the unit among them, so that it can skip multiplying by it; the
        # pool is keyed by the normal-form fields, because hashing a
        # GaussRational builds two Fractions; a series word needs all orders
        # of t up to the truncation
        self._one = self.ring.one
        self._coefficients: Optional[Dict[Tuple[int, int, int], GaussRational]] = (
            {self._one.fields(): self._one} if isinstance(self.ring, RationalRing) else None)
        # the standard word of every exponent met, and the exponent of every
        # standard word met
        self._words: Dict[Exponent, Word] = {}
        self._exponents: Dict[Word, Exponent] = {}
        self._budget = self.ring.order + 1 if isinstance(self.ring, SeriesRing) else None
        # tails pre-embedded as standard words, for the rewrite loop
        self.tail_words: Dict[Tuple[int, int], List[Tuple[Word, object]]] = {
            key: [(exponent_to_word(K), c) for K, c in tail.terms.items()]
            for key, tail in self.tails.items()}

    def tail(self, i: int, j: int) -> Polynomial:
        if (i, j) in self.tails:
            return self.tails[(i, j)]
        return Polynomial.zero(self.ring, self.dim, self.kind)

    def mirror(self) -> "RelationTable":
        """The table whose rightmost rewriting is this table's leftmost one.

        Letter i becomes d+1-i and words are reversed, so tail(i, j) becomes
        tail(d+1-j, d+1-i) with its exponents reversed.  Built once, under
        the same name, so that its errors name this table.
        """
        if self._mirror is None:
            d = self.dim
            tails = {(d + 1 - j, d + 1 - i): Polynomial.from_checked(
                         self.ring, d, {K[::-1]: c for K, c in tail.terms.items()}, self.kind)
                     for (i, j), tail in self.tails.items()}
            self._mirror = RelationTable(self.ring, d, self.kind, tails, name=self.name)
        return self._mirror

    def word(self, K: Exponent) -> Word:
        """The standard word of x^K, kept on the table for the products after."""
        w = self._words.get(K)
        if w is None:
            w = self._words[K] = exponent_to_word(K)
        return w

    def exponent(self, word: Word) -> Optional[Exponent]:
        """K with word(K) = word for a standard word, kept on the table; None
        for a word that is not standard."""
        K = self._exponents.get(word)
        if K is None and is_standard(word):
            K = self._exponents[word] = word_to_exponent(word, self.dim)
        return K

    def normal_form(self, word: Word, misses: "MemoMisses") -> NormalForm:
        """Rightmost normal form of a word, with depths, memoized on the table.

        A standard word is its own normal form, at depth 0, and is not
        stored.  Misses are charged to ``misses``.
        """
        key = (word, self._budget)
        found = self._normal_forms.get(key)
        if found is None:
            K = self.exponent(word)
            if K is not None:
                return ((K, self._one, 0),)
            found = self._resolve(key, misses)
        return found

    def _resolve(self, root, misses: "MemoMisses") -> NormalForm:
        """Fill the memo for ``root`` and every word its normal form needs.

        Each missing word is one ``_expand`` generator, which yields the
        keys it still needs and stores its own normal form; they run on an
        explicit stack, so no recursion limit applies.  Needing a word that
        is still being expanded means the rewriting cycles.
        """
        stack = []
        expanding = set()
        need = root
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
            need = next(task, None)
            if need is None:
                misses.close(key[0])
                expanding.discard(key)
                stack.pop()
                if not stack:
                    return self._normal_forms[key]

    def _expand(self, key, misses: "MemoMisses"):
        """The normal form of one non-standard word, as a generator.

        NF(a + s) is the sum of c * NF(w') over the words c w' of one
        rewrite of a + s, at depth 1 + the depth within NF(w').
        NF(p + a + s) is the sum of c * NF(p + word(M)) over the terms c x^M
        of NF(a + s), at the depth of x^M + the depth within NF(p + word(M)).
        Each part is (exponent, word, c, depth): the exponent of a standard
        word, whose word is not needed, or None and the word to look up.  A
        key yielded is in the memo when the generator resumes.
        """
        word, budget = key
        memo, one, exponent = self._normal_forms, self._one, self.exponent
        start = len(word) - 1
        while start > 1 and word[start - 1] <= word[start]:
            start -= 1
        if start == 1:
            rewritten, _, _ = reduce_once(
                NcPolynomial.from_checked(self.ring, self.dim, {word: one}), self)
            parts = [(exponent(w), w, c, 1) for w, c in rewritten.terms.items()]
        else:
            head = (word[start - 1:], budget)
            found = memo.get(head)
            if found is None:
                yield head
                found = memo[head]
            prefix = word[:start - 1]
            # p + word(M) is standard when p is and p's last letter is at most
            # word(M)'s first; its exponent is then p's plus M
            P = exponent(prefix)
            if P is not None:
                last, words = prefix[-1], self._words
                parts = []
                for M, c, k in found:
                    v = words.get(M)
                    if v is None:
                        v = self.word(M)
                    if not v or last <= v[0]:
                        parts.append((tuple([*map(add, P, M)]), None, c, k))
                    else:
                        parts.append((None, prefix + v, c, k))
            else:
                parts = [(None, prefix + self.word(M), c, k) for M, c, k in found]
        out: Dict[Exponent, object] = {}
        depths: Dict[Exponent, int] = {}
        for S, w, c, k in parts:
            left = budget
            if budget is not None:
                left -= c.valuation()
                if left <= 0:
                    continue
            if S is not None:
                found = ((S, one, 0),)
            else:
                child = (w, left)
                found = memo.get(child)
                if found is None:
                    yield child
                    found = memo[child]
            _add_normal_form(out, depths, found, c, k, one)
        pool = self._coefficients
        if pool is not None:
            found = tuple([(M, pool.setdefault((d._a, d._b, d._d), d), depths[M])
                           for M, d in out.items() if d._a or d._b])
        else:
            found = tuple([(M, d, depths[M]) for M, d in out.items() if d])
        if len(found) > misses.widest:
            misses.widest = len(found)
        memo[key] = found


class MemoMisses:
    """Memo misses of one product, held to its step limit.

    Each miss expands one word.  The product stops when its misses pass the
    step limit, when the letters of the words it expanded pass a cap of
    max(10^6, 10 * step limit), or when the words open at once hold a tenth
    of that cap.  ``widest`` is the most terms in a normal form built.
    """

    __slots__ = ("table", "step_limit", "work_cap", "count", "work", "held", "widest")

    def __init__(self, table: RelationTable, step_limit: int):
        self.table = table
        self.step_limit = step_limit
        self.work_cap = max(10 ** 6, 10 * step_limit)
        self.count = self.work = self.held = self.widest = 0

    def open(self, word: Word):
        self.count += 1
        self.work += len(word)
        self.held += len(word)
        if (self.count > self.step_limit or self.work > self.work_cap
                or 10 * self.held > self.work_cap):
            raise StepLimitExceeded(
                f"table {self.table.name}: stopped at step limit {self.step_limit} after "
                f"{self.count} memo misses and {self.work} letters rewritten; widest "
                f"intermediate {self.widest} terms; the table may not terminate")

    def close(self, word: Word):
        self.held -= len(word)


@dataclass
class ReductionTrace:
    """Result of a rewrite run.

    reduction_count is the number of simultaneous rewrite steps, each the
    rightmost replacement in every non-standard word of the combination:
    the largest depth among the terms of the result, 0 if none survives.
    """

    result: Polynomial
    reduction_count: int


def reduce_once(f: NcPolynomial, table: RelationTable) -> Tuple[NcPolynomial, bool, int]:
    """Rewrite the rightmost descent in every non-standard word.

    Returns (rewritten, changed, replacements); replacements counts the
    words in which a rule fired.  Only exactly zero coefficients are dropped.
    """
    # f's words and the tails were checked against the dimension when they
    # were made, so the rewritten words need no letter check
    if f.dim != table.dim:
        raise TableError("polynomial dimension does not match the table")
    tails = table.tail_words
    out: Dict[Word, object] = {}
    fired = 0
    for word, coeff in f.terms.items():
        p = next((p for p in range(len(word) - 2, -1, -1) if word[p] > word[p + 1]), None)
        if p is None:
            parts = ((word, coeff),)
        else:
            fired += 1
            j, i = word[p], word[p + 1]
            prefix, suffix = word[:p], word[p + 2:]
            parts = [(prefix + (i, j) + suffix, coeff)]
            parts += [(prefix + w + suffix, coeff * c) for w, c in tails.get((i, j), ())]
        for w, c in parts:
            out[w] = out[w] + c if w in out else c
    return NcPolynomial.from_checked(table.ring, f.dim, out), fired > 0, fired


def _check_operands(f: Polynomial, g: Polynomial, table: RelationTable):
    if f.dim != table.dim or g.dim != table.dim:
        raise TableError("polynomial dimension does not match the table")
    if f.kind != table.kind or g.kind != table.kind:
        raise TableError("polynomial kind does not match the table")


def _product_words(f: Polynomial, g: Polynomial,
                   table: RelationTable) -> Iterable[Tuple[Word, object]]:
    """The words word(K) + word(L) of f g, with coefficients a*b."""
    word = table.word
    right = [(word(L), b) for L, b in g.terms.items()]
    return ((word(K) + v, a * b) for K, a in f.terms.items() for v, b in right)


def _rewrite(terms: Iterable[Tuple[Word, object]], table: RelationTable,
             misses: MemoMisses) -> Tuple[Polynomial, int]:
    """sum of c * NF(w) over (w, c), into one dict and one Polynomial, and
    the largest depth among its terms."""
    normal_form, one = table.normal_form, table._one
    out: Dict[Exponent, object] = {}
    depths: Dict[Exponent, int] = {}
    for word, c in terms:
        _add_normal_form(out, depths, normal_form(word, misses), c, 0, one)
    result = Polynomial.from_checked(table.ring, table.dim, out, table.kind)
    return result, max(map(depths.__getitem__, result.terms), default=0)


def reduce_to_standard(f: NcPolynomial, table: RelationTable) -> Tuple[NcPolynomial, int, int]:
    """The standard form of a word combination, its reduction count and the
    widest intermediate (in terms), through the table's memo."""
    if f.dim != table.dim:
        raise TableError("polynomial dimension does not match the table")
    misses = MemoMisses(table, DEFAULT_STEP_LIMIT)
    result, count = _rewrite(f.terms.items(), table, misses)
    standard = NcPolynomial.from_checked(
        table.ring, f.dim, {table.word(K): c for K, c in result.terms.items()})
    return standard, count, max(len(f.terms), misses.widest)


def star_by_reduction(f: Polynomial, g: Polynomial, table: RelationTable,
                      step_limit: int = DEFAULT_STEP_LIMIT) -> ReductionTrace:
    """Star product of commutative polynomials, with its reduction count."""
    _check_operands(f, g, table)
    return ReductionTrace(*_rewrite(_product_words(f, g, table), table,
                                    MemoMisses(table, step_limit)))


def monomial_star(K: Exponent, L: Exponent, table: RelationTable,
                  step_limit: int = DEFAULT_STEP_LIMIT) -> ReductionTrace:
    """x^K * x^L with its reduction count, as ``star_by_reduction`` of the
    two unit monomials gives it, without building them."""
    check_exponent(K, table.dim)
    check_exponent(L, table.dim)
    # the coefficient is the product a*b of the two units, as star forms it,
    # so that a floating ring scales the normal form as star scales it
    unit = table.ring.one
    words = ((table.word(tuple(K)) + table.word(tuple(L)), unit * unit),)
    return ReductionTrace(*_rewrite(words, table, MemoMisses(table, step_limit)))


def star(f: Polynomial, g: Polynomial, table: RelationTable,
         step_limit: int = DEFAULT_STEP_LIMIT) -> Polynomial:
    """f * g = sum of a*b*NF(word(K) + word(L)) through the table's memo."""
    _check_operands(f, g, table)
    return _rewrite(_product_words(f, g, table), table, MemoMisses(table, step_limit))[0]


def normal_form_sum(f: NcPolynomial, table: RelationTable) -> Polynomial:
    """The standard form of a word combination, as a commutative polynomial."""
    if f.dim != table.dim:
        raise TableError("polynomial dimension does not match the table")
    return _rewrite(f.terms.items(), table, MemoMisses(table, DEFAULT_STEP_LIMIT))[0]


# -- associativity on generator triples -----------------------------------------


def generator_triples(dim: int) -> Iterator[Tuple[int, int, int]]:
    """The triples i < j < k of generators 1..dim, k outermost, then j, then i."""
    for k in range(3, dim + 1):
        for j in range(2, k):
            for i in range(1, j):
                yield i, j, k


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
    for i, j, k in generator_triples(table.dim):
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
        bracket = Polynomial(base, table.dim,
                             {K: c.coefficient(1) * minus_i for K, c in tail.terms.items()},
                             table.kind)
        if bracket.terms:
            brackets[(i, j)] = bracket
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
    for i, j, k in generator_triples(eta.dim):
        a, b, c = gens[i], gens[j], gens[k]
        jac = (poisson_bracket(eta, a, poisson_bracket(eta, b, c))
               + poisson_bracket(eta, b, poisson_bracket(eta, c, a))
               + poisson_bracket(eta, c, poisson_bracket(eta, a, b)))
        if not jac.close_to(zero, tol=tol):
            return False
    return True
