"""The rewrite engine's memo against an independent pass loop.

``reduction.star`` and every product built on it sum memoized normal forms
of words, each term with the depth of the longest rewrite chain that
reaches it; leftmost rewriting runs on the mirrored table.  The reference
here, ``_by_pass_loop``, is the plain definition: rewrite one descent in
every word of the whole combination, pass after pass, until every word is
standard.  Its results and pass counts pin what the memo computes and what
``reduction_count`` means, even on a table where the order of rewrites
matters.
"""

import itertools
import random
from fractions import Fraction

import pytest

from starprod.catalog import StarProduct, build_catalog, leftmost_route, nonquadratic_table
from starprod.params import ParameterCatalog, ParameterRule
from starprod.poly import NcPolynomial, Polynomial, exponent_to_word, word_to_exponent
from starprod.probes import exponent_ball, random_polynomial
from starprod.reduction import (
    MemoMisses,
    RelationTable,
    StepLimitExceeded,
    check_overlaps,
    normal_form_sum,
    reduce_once,
    reduce_to_standard,
    star,
    star_by_reduction,
)
from starprod.scalars import GaussRational, SeriesRing, make_ring

R = make_ring("rational")
C = make_ring("complex")
SERIES = SeriesRing(order=4, exact=True)


def _const(text):
    return ParameterCatalog({"q": ParameterRule.parse(f"const:{text}")})


NQ_RULES = ParameterCatalog({name: ParameterRule.parse(f"const:{value}")
                             for name, value in (("p", "7/5"), ("q", "5/4"), ("r", "4/3"))})


def _criterion_1_catalogs():
    """The exact catalogs of acceptance criterion 1, in its order."""
    return [
        build_catalog("log_canonical", R, 3, _const("5/4")),
        build_catalog("wick_log_canonical", R, 3, _const("3/4")),
        *(build_catalog("nonquadratic", R, 3, NQ_RULES, options={"N": n}) for n in (0, 1, 2)),
        build_catalog("quantum_weyl", SERIES, 2, options={"lambda": 1}),
        build_catalog("translated", R, 2, _const("5/4"), options={"c": ["1", "-1"]}),
    ]


def _complex_catalogs():
    return [
        build_catalog("log_canonical", C, 3, hbar=0.3),
        build_catalog("translated", C, 2, hbar=0.3),
        build_catalog("nonquadratic", C, 3, hbar=0.3, options={"N": 2}),
        build_catalog("quantum_weyl", C, 2, hbar=0.3),
    ]


def _leftmost_descent(word):
    return next((p for p in range(len(word) - 1) if word[p] > word[p + 1]), None)


def _by_pass_loop(nc, table, strategy="rightmost"):
    """(standard form, passes): each pass rewrites one descent in every word.

    A rightmost pass is one ``reduce_once`` on the whole combination.  A
    leftmost pass cuts each word after its leftmost descent, whose
    rightmost descent that is, and rewrites the head with ``reduce_once``.
    """
    ring, dim = table.ring, table.dim
    passes = 0
    while True:
        if strategy == "rightmost":
            nc, changed, _ = reduce_once(nc, table)
        else:
            out = {}
            for word, c in nc.terms.items():
                p = _leftmost_descent(word)
                if p is None:
                    parts = {word: c}
                else:
                    head = NcPolynomial.from_checked(ring, dim, {word[:p + 2]: c})
                    parts = {w + word[p + 2:]: d
                             for w, d in reduce_once(head, table)[0].terms.items()}
                for w, d in parts.items():
                    out[w] = out[w] + d if w in out else d
            changed = any(_leftmost_descent(w) is not None for w in nc.terms)
            nc = NcPolynomial.from_checked(ring, dim, out)
        if not changed:
            break
        passes += 1
    terms = {}
    for word, c in nc.terms.items():
        K = word_to_exponent(word, dim)
        terms[K] = terms[K] + c if K in terms else c
    return Polynomial(ring, dim, terms, table.kind), passes


def _product_by_pass_loop(f, g, table, strategy="rightmost"):
    words = NcPolynomial(table.ring, table.dim, {exponent_to_word(K): a
                                                 for K, a in f.terms.items()})
    words = words.concat(NcPolynomial(table.ring, table.dim, {exponent_to_word(L): b
                                                             for L, b in g.terms.items()}))
    return _by_pass_loop(words, table, strategy)


def _by_passes(f, g, table):
    return _product_by_pass_loop(f, g, table)[0]


def _same(a, b):
    if a.ring.exact:
        return a == b
    scale = max((abs(c) for p in (a, b) for c in p.terms.values()), default=1.0)
    return a.close_to(b, tol=1e-12, scale=max(1.0, scale))


def _mirrored(nc):
    """The mirror of a word combination: each word reversed, letter i as d+1-i."""
    d = nc.dim
    return NcPolynomial(nc.ring, d, {tuple(d + 1 - a for a in reversed(w)): c
                                     for w, c in nc.terms.items()})


def _reversed(p):
    """p with every exponent reversed."""
    return Polynomial(p.ring, p.dim, {K[::-1]: c for K, c in p.terms.items()}, p.kind)


def _memo_star(f, g, table, strategy):
    """(f * g, reduction count) from the memo.  Leftmost rewriting of f g is
    rightmost rewriting of the mirrored words, those of g' f' (' reverses
    an exponent), on the mirrored table, with the exponents reversed back."""
    if strategy == "rightmost":
        trace = star_by_reduction(f, g, table)
        return trace.result, trace.reduction_count
    trace = star_by_reduction(_reversed(g), _reversed(f), table.mirror())
    return _reversed(trace.result), trace.reduction_count


def _assert_memo_matches_pass_loop(f, g, table, label):
    for strategy in ("rightmost", "leftmost"):
        expected, passes = _product_by_pass_loop(f, g, table, strategy)
        result, count = _memo_star(f, g, table, strategy)
        assert _same(result, expected), (label, strategy)
        assert count == passes, (label, strategy)


def test_memo_route_equals_pass_route_on_criterion_1_triples():
    # the same draws as criterion 1; the first 5 triples of each catalog are compared
    rng = random.Random(101)
    for inst in _criterion_1_catalogs():
        table, memo = inst.table, inst.reduction_star
        for n in range(200):
            f, g, h = (random_polynomial(rng, inst.ring, inst.dim, 4, 3, inst.kind)
                       for _ in range(3))
            if n >= 5:
                continue
            fg, gh = memo(f, g), memo(g, h)
            assert fg == _by_passes(f, g, table), (inst.name, n)
            assert gh == _by_passes(g, h, table), (inst.name, n)
            assert memo(fg, h) == _by_passes(fg, h, table), (inst.name, n)
            assert memo(f, gh) == _by_passes(f, gh, table), (inst.name, n)


# Memo misses of the sweep below, per catalog, and the margin over them that
# the gate allows.  A change that removes work lowers these counts; none may
# raise them to pass.
CRITERION_1_MISSES = {"log_canonical": 1349, "wick_log_canonical": 1221,
                      "nonquadratic0": 1720, "nonquadratic1": 1434, "nonquadratic2": 2188,
                      "quantum_weyl": 683, "translated": 459}
MISS_MARGIN = 0.10


def test_criterion_1_sweep_memo_misses_stay_within_their_bound(monkeypatch):
    # criterion 1's shape, smaller: the overlaps and 30 seeded triples per catalog
    misses = dict.fromkeys(CRITERION_1_MISSES, 0)
    open_word = MemoMisses.open
    counting = [None]

    def counted(self, word):
        misses[counting[0]] += 1
        return open_word(self, word)

    monkeypatch.setattr(MemoMisses, "open", counted)
    rng = random.Random(101)
    for inst in _criterion_1_catalogs():
        counting[0] = inst.name + str(inst.options.get("N", ""))
        assert check_overlaps(inst.table).ok
        star = inst.reduction_star
        for _ in range(30):
            f, g, h = (random_polynomial(rng, inst.ring, inst.dim, 4, 3, inst.kind)
                       for _ in range(3))
            assert star(star(f, g), h) == star(f, star(g, h)), counting[0]
    over = {name: (count, CRITERION_1_MISSES[name]) for name, count in misses.items()
            if count > CRITERION_1_MISSES[name] * (1 + MISS_MARGIN)}
    assert not over, f"memo misses (counted, recorded) above the {MISS_MARGIN:.0%} margin: {over}"


# Memo misses of the default verify run at seed 42 (seed 7 reads 2 062), under
# the same margin; the same rule holds: lower it when work goes, never raise it.
DEFAULT_RUN_MISSES = 2142


def test_default_run_memo_misses_stay_within_their_bound(monkeypatch):
    from starprod.verify import DEFAULT_RUNSPEC, run_suites
    misses = [0]
    open_word = MemoMisses.open

    def counted(self, word):
        misses[0] += 1
        return open_word(self, word)

    monkeypatch.setattr(MemoMisses, "open", counted)
    run_suites(DEFAULT_RUNSPEC, seed=42, digests=False)
    assert misses[0] <= DEFAULT_RUN_MISSES * (1 + MISS_MARGIN), \
        f"{misses[0]} memo misses, {DEFAULT_RUN_MISSES} recorded"


# criterion 2's sweeps: every monomial pair of exponent_ball(d, 5)
CRITERION_2_SWEEPS = [
    ("log_canonical", R, 2, _const("5/4"), {}),
    ("log_canonical", R, 3, _const("5/4"), {}),
    ("wick_log_canonical", R, 2, _const("3/4"), {}),
    ("wick_log_canonical", R, 3, _const("3/4"), {}),
    ("nonquadratic", R, 3, NQ_RULES, {"N": 2}),
    ("quantum_weyl", SERIES, 2, None, {"lambda": 1}),
]


@pytest.mark.parametrize("name,ring,d,rules,options", CRITERION_2_SWEEPS)
def test_memo_route_equals_pass_route_on_criterion_2_sweeps(name, ring, d, rules, options):
    inst = build_catalog(name, ring, d, rules, options=options)
    for K in exponent_ball(d, 5):
        for L in exponent_ball(d, 5):
            f = Polynomial.monomial(ring, d, K, kind=inst.kind)
            g = Polynomial.monomial(ring, d, L, kind=inst.kind)
            assert inst.reduction_star.monomial_product(K, L) == \
                _by_passes(f, g, inst.table), (K, L)


# Memo misses of the memo route over each sweep above, under the criterion-1
# margin and rule: lower a count when work goes, never raise it to pass.
CRITERION_2_MISSES = {"log_canonical d=2": 325, "log_canonical d=3": 3450,
                      "wick_log_canonical d=2": 325, "wick_log_canonical d=3": 3450,
                      "nonquadratic d=3": 3758, "quantum_weyl d=2": 525}


def test_criterion_2_sweep_memo_misses_stay_within_their_bound(monkeypatch):
    misses = dict.fromkeys(CRITERION_2_MISSES, 0)
    open_word = MemoMisses.open
    counting = [None]

    def counted(self, word):
        misses[counting[0]] += 1
        return open_word(self, word)

    monkeypatch.setattr(MemoMisses, "open", counted)
    for name, ring, d, rules, options in CRITERION_2_SWEEPS:
        counting[0] = f"{name} d={d}"
        product = build_catalog(name, ring, d, rules, options=options).reduction_star
        for K in exponent_ball(d, 5):
            for L in exponent_ball(d, 5):
                product.monomial_product(K, L)
    over = {name: (count, CRITERION_2_MISSES[name]) for name, count in misses.items()
            if count > CRITERION_2_MISSES[name] * (1 + MISS_MARGIN)}
    assert not over, f"memo misses (counted, recorded) above the {MISS_MARGIN:.0%} margin: {over}"


def test_memo_keeps_the_rightmost_strategy_where_the_order_of_rewrites_matters():
    # criterion 9's table: s = 2 is not 1/r, so the overlap (1, 2, 3) fails
    p, q, r, s = (GaussRational(Fraction(7, 5)), GaussRational(Fraction(5, 4)),
                  GaussRational(Fraction(4, 3)), GaussRational(2))
    table = nonquadratic_table(R, 2, p, q, r, s=s)
    report = check_overlaps(table)
    assert [(i, j, k) for i, j, k, _ in report.failures] == [(1, 2, 3)]
    one = GaussRational(1)
    assert report.failures[0][3].terms == {(3, 0, 0): (p - one) * (r * s - one)}
    # every word of up to five letters: the memo gives the rightmost normal
    # form and pass count, the mirrored table the leftmost ones
    for n in range(6):
        for word in itertools.product((1, 2, 3), repeat=n):
            nc = NcPolynomial(R, 3, {word: R.one})
            assert normal_form_sum(nc, table) == _by_pass_loop(nc, table)[0], word
            standard, count, _ = reduce_to_standard(nc, table)
            expected, passes = _by_pass_loop(nc, table)
            assert count == passes, word
            assert {word_to_exponent(w, 3): c for w, c in standard.terms.items()} == \
                expected.terms, word
            standard, count, _ = reduce_to_standard(_mirrored(nc), table.mirror())
            expected, passes = _by_pass_loop(nc, table, "leftmost")
            assert count == passes, (word, "leftmost")
            assert {word_to_exponent(w, 3): c for w, c in _mirrored(standard).terms.items()} \
                == expected.terms, (word, "leftmost")
    # on x3 x2 x1 the two orders differ
    nc = NcPolynomial(R, 3, {(3, 2, 1): R.one})
    leftmost = _mirrored(reduce_to_standard(_mirrored(nc), table.mirror())[0])
    assert normal_form_sum(nc, table).terms != \
        {word_to_exponent(w, 3): c for w, c in leftmost.terms.items()}


def test_reduction_count_is_the_pass_count_on_the_criterion_1_catalogs():
    rng = random.Random(5)
    for inst in _criterion_1_catalogs():
        d, table = inst.dim, inst.table
        for K in exponent_ball(d, 3):
            for L in exponent_ball(d, 3):
                f = Polynomial.monomial(inst.ring, d, K, kind=inst.kind)
                g = Polynomial.monomial(inst.ring, d, L, kind=inst.kind)
                _assert_memo_matches_pass_loop(f, g, table, (inst.name, K, L))
        for n in range(5):
            f, g = (random_polynomial(rng, inst.ring, d, 3, 3, inst.kind) for _ in range(2))
            _assert_memo_matches_pass_loop(f, g, table, (inst.name, n))


def test_reduction_count_is_the_pass_count_over_complex():
    rng = random.Random(9)
    for inst in _complex_catalogs():
        d, table = inst.dim, inst.table
        for K in exponent_ball(d, 3):
            for L in exponent_ball(d, 3):
                f = Polynomial.monomial(C, d, K)
                g = Polynomial.monomial(C, d, L)
                _assert_memo_matches_pass_loop(f, g, table, (inst.name, K, L))
        for n in range(5):
            f, g = (random_polynomial(rng, C, d, 3, 3) for _ in range(2))
            _assert_memo_matches_pass_loop(f, g, table, (inst.name, n))


def _monomial(dim, K):
    return Polynomial.monomial(R, dim, K)


def _tail(dim, K):
    return Polynomial(R, dim, {K: R.one})


def test_step_limit_stops_every_memo_route():
    # x2 x1 -> x1 x2 + x1^2 x2^2 keeps regenerating descents on x2 * x1^2
    table = RelationTable(R, 2, "x", {(1, 2): _tail(2, (2, 2))}, name="diverging")
    limited = StarProduct("diverging", R, 2, "x", table, None, step_limit=100)
    with pytest.raises(StepLimitExceeded,
                       match=r"^table diverging: stopped at step limit 100 after 101 memo "
                             r"misses and \d+ letters rewritten; widest intermediate \d+ terms"):
        limited(_monomial(2, (0, 1)), _monomial(2, (2, 0)))
    with pytest.raises(StepLimitExceeded,
                       match=r"^table diverging: stopped at step limit 100 after 101 memo "
                             r"misses and \d+ letters rewritten; widest intermediate \d+ terms"):
        star_by_reduction(_monomial(2, (0, 1)), _monomial(2, (2, 0)), table, step_limit=100)
    for route in (limited.monomial_product, leftmost_route(table)):
        with pytest.raises(StepLimitExceeded, match="table diverging: stopped at step limit"):
            route((0, 1), (2, 0))
    # in three generators, with x3 x2 -> x2 x3 + x1^2, the generator triples diverge
    table3 = RelationTable(R, 3, "x", {(1, 2): _tail(3, (2, 2, 0)), (2, 3): _tail(3, (2, 0, 0))},
                           name="diverging3")
    with pytest.raises(StepLimitExceeded, match="table diverging3: stopped at step limit"):
        check_overlaps(table3)


def test_memo_stops_when_rewriting_comes_back_to_a_word():
    # x3 x1 -> x1 x3 + x3^2 and x3 x2 -> x2 x3 + x1: a word's reduction needs itself
    tails = {(1, 2): _tail(3, (2, 2, 0)), (1, 3): _tail(3, (0, 0, 2)),
             (2, 3): _tail(3, (1, 0, 0))}
    table = RelationTable(R, 3, "x", tails, name="cycling")
    with pytest.raises(StepLimitExceeded, match="table cycling: rewriting comes back to a word"):
        check_overlaps(table)
    x = {i: Polynomial.variable(R, 3, i) for i in (1, 2, 3)}
    with pytest.raises(StepLimitExceeded):
        star_by_reduction(x[3], star_by_reduction(x[2], x[1], table).result, table,
                          step_limit=1000)


def test_series_table_that_terminates_by_truncation():
    # x2 x1 -> x1 x2 + t x1^2 x2^2 only ends because t^5 = 0 at order 4
    t = SERIES.t
    table = RelationTable(SERIES, 2, "x", {(1, 2): Polynomial(SERIES, 2, {(2, 2): t})},
                          name="truncating")
    for K in exponent_ball(2, 3):
        for L in exponent_ball(2, 3):
            f = Polynomial.monomial(SERIES, 2, K)
            g = Polynomial.monomial(SERIES, 2, L)
            assert star(f, g, table) == _by_passes(f, g, table), (K, L)
    product = star(Polynomial.monomial(SERIES, 2, (0, 2)), Polynomial.monomial(SERIES, 2, (2, 0)),
                   table)
    assert set(product.terms) == {(k, k) for k in range(2, 7)}
    assert product.terms[(6, 6)].coefficient(4) == GaussRational(62)
