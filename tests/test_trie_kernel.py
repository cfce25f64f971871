"""The trie kernel's contract (:func:`repro.core.outsidein.eliminate_join`).

The kernel is the universal fallback — every semiring the flat and dense
kernels refuse runs here — so what it computes is pinned from five sides:

* the zero predicate a loop binds (:meth:`Semiring.zero_test`) has
  :meth:`Semiring.is_zero`'s truth table;
* the (+, ×) fold the kernel writes inline for ``sum`` steps of COUNTING
  and SUM_PRODUCT is the generic fold: ``==`` tables with the same key
  order and value types, the same counters, and ``zero_test()``'s truth
  table on every product it tests;
* the work counters of fixed joins are the ones recorded before the inner
  loops were rewritten (the algorithm did not change);
* the fused kernel agrees with a brute-force fold on semirings only it can
  run (bool, ``Fraction``, sets, a custom ``eq``);
* ``inside_out(backend="sparse")`` reproduces the answers recorded from the
  PR 20 tree (``trie_parent_answers.json``): ``==`` for exact carriers and
  for selecting aggregates on floats, ``Factor.equals`` for float sums,
  whose ⊕ fold order is not part of the contract.
"""

import itertools
import json
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.core.insideout import inside_out
from repro.core.outsidein import OutsideInStats, _folds_inline, eliminate_join
from repro.core.query import FAQQuery, Variable
from repro.factors.factor import Factor
from repro.factors.index import TrieCache
from repro.semiring import standard
from repro.semiring.aggregates import SemiringAggregate, _op_max, _op_sum
from repro.semiring.base import Semiring
from repro.semiring.standard import (
    BOOLEAN,
    COUNTING,
    MAX_PRODUCT,
    MAX_SUM,
    MIN_PLUS,
    STANDARD_SEMIRINGS,
    SUM_PRODUCT,
    set_semiring,
)


def _mod5_equal(a, b):
    return (a - b) % 5 == 0


def _add(a, b):
    return a + b


def _mul(a, b):
    return a * b


# Integers read modulo 5 — but never reduced, so only ``eq`` can tell that
# 10 is a zero: the kernel must ask it about every product.
MOD5 = Semiring(name="mod5", add=_add, mul=_mul, zero=0, one=1, eq=_mod5_equal)
SETS = set_semiring(range(4))


# ---------------------------------------------------------------------- #
# (a) the bound predicate has is_zero's truth table
# ---------------------------------------------------------------------- #
TRUTH_VALUES = [
    0, 1, -3, True, False, 0.0, -0.0, 1e-10, -1e-10, 1e-9, 2e-9, 1.0,
    math.inf, -math.inf, math.nan, Fraction(0), Fraction(1, 3), 1e-12j, 1 + 0j,
    frozenset(), frozenset({1}),
    # what the inline (+, ×) leaf meets
    1e-8, -1e-8, 0j, np.float64(0.0), np.float64(1e-10), np.float64(0.5),
    np.int64(0), np.int64(2), Fraction(1, 10**12),
]
TRUTH_SEMIRINGS = list(STANDARD_SEMIRINGS.values()) + [SETS, MOD5]


def _outcome(predicate, *args):
    try:
        return bool(predicate(*args))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


@pytest.mark.parametrize("semiring", TRUTH_SEMIRINGS, ids=lambda s: s.name)
def test_zero_test_has_the_truth_table_of_is_zero(semiring):
    bound = semiring.zero_test()
    for value in TRUTH_VALUES:
        expected = _outcome(semiring.values_equal, value, semiring.zero)
        assert _outcome(semiring.is_zero, value) == expected
        got = _outcome(bound, value)
        if expected is TypeError and semiring.zero in (math.inf, -math.inf):
            # ``frozenset() - inf``: values_equal trips over a value outside
            # the carrier while subtracting; the bound ``a == zero`` never
            # subtracts.  It must still not call such a value a zero.
            assert got in (TypeError, False), (semiring.name, value)
        else:
            assert got == expected, (semiring.name, value, got, expected)


def test_zero_test_reduces_only_the_carriers_it_knows():
    for semiring in (BOOLEAN, SETS, MOD5):
        assert semiring.zero_test() == semiring.is_zero
    odd_zero = Semiring(name="shifted", add=max, mul=_add, zero=-(10**9), one=0)
    assert odd_zero.zero_test() == odd_zero.is_zero
    for semiring in (COUNTING, SUM_PRODUCT, MIN_PLUS):
        assert semiring.zero_test() != semiring.is_zero


# ---------------------------------------------------------------------- #
# (f) the inline (+, ×) fold is the generic fold
# ---------------------------------------------------------------------- #
def _generic_twin(semiring):
    """The same arithmetic behind a ``mul`` the kernel does not recognise,
    so every step of it takes the generic leaf."""
    return Semiring(name=semiring.name + "-generic", add=semiring.add, mul=_mul,
                    zero=semiring.zero, one=semiring.one)


def test_only_plain_plus_times_steps_fold_inline():
    assert _folds_inline(COUNTING, _op_sum)
    assert _folds_inline(SUM_PRODUCT, _op_sum)
    fraction = Semiring(name="fraction", add=standard._add, mul=standard._mul,
                        zero=Fraction(0), one=Fraction(1))
    custom_eq = Semiring(name="mod5", add=standard._add, mul=standard._mul,
                         zero=0, one=1, eq=_mod5_equal)
    for semiring, combine in [
        (MOD5, _op_sum), (custom_eq, _op_sum), (fraction, _op_sum), (SETS, _op_sum),
        (SETS, SETS.add), (BOOLEAN, _op_sum), (MAX_PRODUCT, _op_max), (COUNTING, _op_max),
        (COUNTING, _add), (_generic_twin(COUNTING), _op_sum),
        (_generic_twin(SUM_PRODUCT), _op_sum),
    ]:
        assert not _folds_inline(semiring, combine), semiring.name


def _eliminated_both_ways(factors, semiring, variable, out_scope, order, screen=None):
    """``(table, stats)`` of the inline leaf and of the generic one, over the
    same tries (built under ``screen``, the step's semiring by default)."""
    cache = TrieCache(order, screen or semiring)
    tries = [cache.trie(f) for f in factors]
    runs = []
    for run_semiring in (semiring, _generic_twin(semiring)):
        stats = OutsideInStats()
        result = eliminate_join(tries, run_semiring, variable, out_scope, _op_sum,
                                variable_order=order, stats=stats)
        runs.append((result.table, stats))
    return runs


def _assert_same_fold(inline, generic):
    (table, stats), (want, want_stats) = inline, generic
    assert list(table) == list(want)  # the same keys, inserted in the same order
    # ``==`` values, where a nan is its own equal
    assert all(table[k] == want[k] or table[k] != table[k] and want[k] != want[k] for k in want)
    assert [type(v) for v in table.values()] == [type(v) for v in want.values()]
    assert stats == want_stats


FOLD_CARRIERS = {
    "int": (COUNTING, lambda rng: rng.randint(-2, 3)),
    "float": (SUM_PRODUCT, lambda rng: rng.choice((-0.5, 0.5, 1.0, rng.uniform(-2.0, 2.0)))),
    "bool": (COUNTING, lambda rng: rng.random() < 0.8),
    "complex": (SUM_PRODUCT, lambda rng: complex(rng.choice((-1, 0, 1)), rng.choice((-1, 1)))),
    "np.float64": (SUM_PRODUCT, lambda rng: np.float64(rng.choice((-0.5, 0.5, 1.5)))),
    "np.int64": (COUNTING, lambda rng: np.int64(rng.randint(-2, 3))),
}


@pytest.mark.parametrize("holders", [1, 2, 3])
@pytest.mark.parametrize("bases", [0, 2])
@pytest.mark.parametrize("permuted", [False, True], ids=["scope", "key_perm"])
@pytest.mark.parametrize("carrier", FOLD_CARRIERS)
def test_inline_fold_is_the_generic_fold(carrier, holders, bases, permuted):
    semiring, draw = FOLD_CARRIERS[carrier]
    rng = random.Random(f"{carrier}/{holders}/{bases}/{permuted}")
    order = ("A", "B", "C", "D")
    rows = 0
    for _ in range(12):
        factors = [
            _listed(rng, tuple(rng.sample(order[:3], rng.randint(0, 2))) + ("D",), 3, 0.8, draw)
            for _ in range(holders)
        ]
        factors += [
            _listed(rng, tuple(rng.sample(order[:3], rng.randint(0, 2))), 3, 0.9, draw)
            for _ in range(bases)
        ]
        survivors = tuple(v for v in order[:3] if any(v in f.scope for f in factors))
        out_scope = survivors[::-1] if permuted else survivors
        inline, generic = _eliminated_both_ways(factors, semiring, "D", out_scope, order)
        _assert_same_fold(inline, generic)
        rows += len(inline[0])
    assert rows > 0


def test_inline_fold_keeps_the_early_out_after_every_product():
    # 1e-6 * 1e-5 is a zero; times 1e6 it would be 1e-5, which is not: the
    # early-out after the first ⊗ must drop the candidate all the same.
    order = ("A", "D")
    base = Factor(("A",), {(0,): 1e-6, (1,): 1.0})
    tiny = Factor(("A", "D"), {(0, 0): 1e-5, (0, 1): 2.0, (1, 0): 1e-5})
    large = Factor(("D",), {(0,): 1e6, (1,): 3.0})
    inline, generic = _eliminated_both_ways([tiny, large, base], SUM_PRODUCT, "D", ("A",), order)
    _assert_same_fold(inline, generic)
    assert inline[0] == {(0,): 1e-6 * 2.0 * 3.0, (1,): 1e-5 * 1e6}


@pytest.mark.parametrize("semiring, plus, minus", [(COUNTING, 2, -2), (SUM_PRODUCT, 0.5, -0.5)],
                         ids=["int", "float"])
def test_inline_fold_drops_sums_that_are_exactly_zero(semiring, plus, minus):
    order = ("A", "D")
    pair = Factor(("A", "D"), {(0, 0): plus, (0, 1): minus, (1, 0): plus, (1, 1): plus})
    unary = Factor(("D",), {(0,): 1, (1,): 1})
    for factors in ([pair], [pair, unary]):
        inline, generic = _eliminated_both_ways(factors, semiring, "D", ("A",), order)
        _assert_same_fold(inline, generic)
        assert inline[0] == {(1,): plus + plus}
        assert inline[1].emitted_tuples == 4


@pytest.mark.parametrize("semiring", [COUNTING, SUM_PRODUCT], ids=lambda s: s.name)
def test_inline_zero_test_has_the_truth_table_of_zero_test(semiring):
    # Tries built under max-sum (zero -inf) keep every value but -inf, so the
    # leaf itself has to tell the zeros apart: on the product, in a base trie
    # and on the folded sum.
    is_zero = semiring.zero_test()
    order = ("A", "D")
    for value in TRUTH_VALUES:
        if isinstance(value, frozenset) or value == -math.inf:
            continue
        product = semiring.one * value
        want = {} if is_zero(product) else {(0,): product}
        shapes = [
            [Factor(("A", "D"), {(0, 0): value})],
            [Factor(("A",), {(0,): value}), Factor(("A", "D"), {(0, 0): 1})],
            [Factor(("A", "D"), {(0, 0): value}), Factor(("D",), {(0,): 1})],
        ]
        for factors in shapes:
            inline, generic = _eliminated_both_ways(
                factors, semiring, "D", ("A",), order, screen=MAX_SUM
            )
            _assert_same_fold(inline, generic)
            assert set(inline[0]) == set(want), (semiring.name, value)
    if semiring is COUNTING:
        # An int zero is exact: a tiny Fraction is no zero, so a bare
        # ``abs(a) <= 1e-9`` would be the wrong test.
        tiny = Fraction(1, 10**12)
        inline, _ = _eliminated_both_ways([Factor(("D",), {(0,): tiny})], semiring, "D", (), order)
        assert inline[0] == {(): tiny}


# ---------------------------------------------------------------------- #
# (e) binding a predicate leaves nothing on the semiring
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("semiring", STANDARD_SEMIRINGS.values(), ids=lambda s: s.name)
def test_semirings_still_pickle_after_binding_the_predicate(semiring):
    semiring.zero_test()
    clone = pickle.loads(pickle.dumps(semiring))
    assert clone == semiring
    assert clone.zero_test()(semiring.zero)


# ---------------------------------------------------------------------- #
# (b) the counters of fixed joins are the parent's
# ---------------------------------------------------------------------- #
def _listed(rng, scope, domain, density, draw):
    table = {
        key: draw(rng)
        for key in itertools.product(range(domain), repeat=len(scope))
        if rng.random() < density
    }
    return Factor(scope, table)


def _small_int(rng):
    return rng.randint(1, 4)


def _fixed_joins():
    """Three eliminations: a chain step with a projection beside it, a
    triangle's last variable, and a constant with a permuted output scope."""
    rng = random.Random(2300)
    chain = [
        _listed(rng, ("B", "C"), 12, 0.3, _small_int),
        _listed(rng, ("C",), 12, 0.8, _small_int),
        _listed(rng, ("B",), 12, 0.7, lambda _: 1),
    ]
    triangle = [
        _listed(rng, ("A", "C"), 9, 0.4, _small_int),
        _listed(rng, ("B", "C"), 9, 0.4, _small_int),
        _listed(rng, ("A", "B"), 9, 0.4, lambda _: 1),
    ]
    constant = [
        Factor((), {(): 3}),
        _listed(rng, ("B", "A", "D"), 5, 0.5, _small_int),
        _listed(rng, ("D", "A"), 5, 0.6, _small_int),
    ]
    return [
        (chain, "C", ("B",)),
        (triangle, "C", ("A", "B")),
        (constant, "D", ("B", "A")),
    ]


# (search_steps, emitted_tuples, intersections) and result rows, PR 20 tree.
FIXED_JOIN_COUNTERS = [(30, 22, 18), (78, 42, 74), (70, 41, 55)]
FIXED_JOIN_ROWS = [8, 23, 22]


def test_counters_of_fixed_joins_equal_the_recorded_ones():
    order = ("A", "B", "C", "D")
    for (factors, variable, out_scope), counters, rows in zip(
        _fixed_joins(), FIXED_JOIN_COUNTERS, FIXED_JOIN_ROWS
    ):
        cache = TrieCache(order, COUNTING)
        stats = OutsideInStats()
        fused = eliminate_join(
            [cache.trie(f) for f in factors], COUNTING, variable, out_scope,
            _add, variable_order=order, stats=stats,
        )
        assert (stats.search_steps, stats.emitted_tuples, stats.intersections) == counters
        assert len(fused) == rows
        assert fused.table == _brute_force_step(factors, COUNTING, variable, out_scope, _add).table


# ---------------------------------------------------------------------- #
# (c) the trie stays the fallback for everything the flat kernel refuses
# ---------------------------------------------------------------------- #
def _brute_force_step(factors, semiring, variable, out_scope, combine):
    """``⊕_variable ⊗ factors`` by enumerating the whole box."""
    present = sorted({v for f in factors for v in f.scope})
    domains = {v: sorted({key[f.scope.index(v)] for f in factors if v in f.scope
                          for key in f.table}) for v in present}
    table = {}
    for point in itertools.product(*(domains[v] for v in present)):
        assignment = dict(zip(present, point))
        product = semiring.one
        for factor in factors:
            product = semiring.mul(product, factor.value(assignment, semiring))
        if semiring.is_zero(product):
            continue
        key = tuple(assignment[v] for v in out_scope)
        table[key] = product if key not in table else combine(table[key], product)
    return Factor(out_scope, {k: v for k, v in table.items() if not semiring.is_zero(v)})


UNIVERSAL = {
    "boolean": (BOOLEAN, lambda rng: rng.random() < 0.8, BOOLEAN.add),
    "fraction": (COUNTING, lambda rng: Fraction(rng.randint(0, 4), rng.randint(1, 3)), _add),
    "sets": (SETS, lambda rng: frozenset(rng.sample(range(4), rng.randint(0, 3))), SETS.add),
    "custom-eq": (MOD5, lambda rng: rng.randint(1, 9), _add),
}


@pytest.mark.parametrize("carrier", UNIVERSAL)
def test_fused_kernel_matches_brute_force_on_trie_only_semirings(carrier):
    semiring, draw, combine = UNIVERSAL[carrier]
    rng = random.Random(11)
    order = ("A", "B", "C", "D")
    ran = 0
    for _ in range(25):
        factors = []
        for _ in range(rng.randint(1, 4)):
            scope = tuple(rng.sample(order, rng.randint(0, 3)))
            factors.append(_listed(rng, scope, 3, 0.7, draw))
        present = {v for f in factors for v in f.scope}
        if not present:
            continue
        variable = max(present, key=order.index)
        out_scope = tuple(v for v in order if v in present and v != variable)
        cache = TrieCache(order, semiring)
        fused = eliminate_join(
            [cache.trie(f) for f in factors], semiring, variable, out_scope,
            combine, variable_order=order,
        )
        expected = _brute_force_step(factors, semiring, variable, out_scope, combine)
        assert fused.equals(expected, semiring), (fused.table, expected.table)
        assert set(fused.table) == set(expected.table)  # zeros dropped alike
        ran += 1
    assert ran >= 20


# ---------------------------------------------------------------------- #
# a domain value cannot collide with the trie's bookkeeping
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["sparse", "dense", "auto"])
def test_a_domain_value_named_like_the_old_leaf_key_is_just_a_value(backend):
    domain = ("a", "__leaf__", "b")
    pair = Factor(("x", "y"), {(a, b): 1 for a in domain for b in domain})
    unary = Factor(("y",), {(b,): 2 for b in domain})
    query = FAQQuery(
        [Variable("x", domain), Variable("y", domain)], [],
        {"x": SemiringAggregate.sum(), "y": SemiringAggregate.sum()},
        [pair, unary], COUNTING,
    )
    assert query.evaluate_brute_force().table == {(): 18}
    assert inside_out(query, backend=backend).factor.table == {(): 18}


# ---------------------------------------------------------------------- #
# (d) exactness: the answers recorded from the PR 20 tree
# ---------------------------------------------------------------------- #
ANSWERS = Path(__file__).with_name("trie_parent_answers.json")

# carrier -> (semiring, aggregate constructor, value draw, compared with ==)
EXACTNESS = {
    "int-sum": (COUNTING, SemiringAggregate.sum, lambda rng: rng.randint(0, 4), True),
    "bool-or": (BOOLEAN, SemiringAggregate.logical_or, lambda rng: rng.random() < 0.8, True),
    "fraction-sum": (
        COUNTING, SemiringAggregate.sum,
        lambda rng: Fraction(rng.randint(0, 5), rng.randint(1, 4)), True),
    "float-max": (
        MAX_PRODUCT, SemiringAggregate.max,
        lambda rng: rng.choice((0.0,) + 3 * (rng.uniform(0.1, 2.0),)), True),
    "float-min": (
        MIN_PLUS, SemiringAggregate.min,
        lambda rng: rng.choice((math.inf, rng.uniform(-1.0, 3.0), rng.uniform(-1.0, 3.0))), True),
    "float-sum": (
        SUM_PRODUCT, SemiringAggregate.sum,
        lambda rng: rng.choice((0.0,) + 3 * (rng.uniform(0.1, 2.0),)), False),
}
QUERIES_PER_CARRIER = {"float-max": 20, "float-min": 20}  # the others: 40; 200 in all


def exactness_queries(carrier):
    """The seeded queries of one carrier: FAQ-SS over 3-5 variables, up to
    one free, 2-4 factors of arity 0-3, explicit zeros among the values."""
    semiring, aggregate, draw, _ = EXACTNESS[carrier]
    for seed in range(QUERIES_PER_CARRIER.get(carrier, 40)):
        rng = random.Random(f"{carrier}/{seed}")
        names = [f"x{i}" for i in range(rng.randint(3, 5))]
        domain = rng.randint(2, 4)
        free = names[: rng.randint(0, 1)]
        factors = [_listed(rng, tuple(names[-2:]), domain, 0.8, draw)]
        for _ in range(rng.randint(1, 3)):
            scope = tuple(rng.sample(names, rng.randint(0, 3)))
            factors.append(_listed(rng, scope, domain, 0.75 if scope else 1.0, draw))
        yield FAQQuery(
            [Variable(v, tuple(range(domain))) for v in names], free,
            {v: aggregate() for v in names[len(free):]}, factors, semiring,
            name=f"{carrier}-{seed}",
        )


def encode_table(table):
    """A factor table as JSON: sorted ``[key, value]`` rows, a ``Fraction``
    as ``{"fraction": [n, d]}``; floats round-trip exactly through ``repr``."""
    def encode(value):
        if isinstance(value, Fraction):
            return {"fraction": [value.numerator, value.denominator]}
        return value
    return [[list(key), encode(value)] for key, value in sorted(table.items())]


def decode_table(rows):
    def decode(value):
        return Fraction(*value["fraction"]) if isinstance(value, dict) else value
    return {tuple(key): decode(value) for key, value in rows}


@pytest.mark.parametrize("carrier", EXACTNESS)
def test_sparse_backend_reproduces_the_recorded_answers(carrier):
    semiring, _, _, exact = EXACTNESS[carrier]
    recorded = json.loads(ANSWERS.read_text(encoding="utf-8"))[carrier]
    queries = list(exactness_queries(carrier))
    assert len(queries) == len(recorded)
    for query, rows in zip(queries, recorded):
        result = inside_out(query, backend="sparse")
        assert {step.backend for step in result.stats.steps} <= {"sparse"}
        want = decode_table(rows)
        got = result.factor.table
        if exact:
            assert got == want, query.name
            assert [type(got[k]) for k in sorted(got)] == [type(want[k]) for k in sorted(want)]
        else:
            assert Factor(result.factor.scope, want).equals(result.factor, semiring), query.name
        assert result.factor.equals(query.evaluate_brute_force(), semiring), query.name


def test_the_recorded_answers_cover_200_queries():
    recorded = json.loads(ANSWERS.read_text(encoding="utf-8"))
    assert set(recorded) == set(EXACTNESS)
    assert sum(len(rows) for rows in recorded.values()) == 200
