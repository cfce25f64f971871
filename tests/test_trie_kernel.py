"""The trie kernel's contract (:func:`repro.core.outsidein.eliminate_join`).

The kernel is the universal fallback — every semiring the flat and dense
kernels refuse runs here — so what it computes is pinned from four sides:

* the zero predicate a loop binds (:meth:`Semiring.zero_test`) has
  :meth:`Semiring.is_zero`'s truth table;
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

import pytest

from repro.core.insideout import inside_out
from repro.core.outsidein import OutsideInStats, eliminate_join
from repro.core.query import FAQQuery, Variable
from repro.factors.factor import Factor
from repro.factors.index import TrieCache
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.base import Semiring
from repro.semiring.standard import (
    BOOLEAN,
    COUNTING,
    MAX_PRODUCT,
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
