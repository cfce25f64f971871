"""Unit tests for the factor trie index (:mod:`repro.factors.index`)."""

import gc
import random
import weakref
from collections import Counter

import pytest

from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, Variable
from repro.engine import Engine
from repro.factors.delta import FactorDelta
from repro.factors.dense import DenseFactor
from repro.factors.factor import Factor
from repro.factors.index import FactorTrie, SharedTrieCache, build_tries
from repro.incremental import IncrementalView
from repro.planner.signature import query_content_key
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.base import Semiring
from repro.semiring.standard import COUNTING, MAX_PRODUCT, MIN_PLUS, SUM_PRODUCT
from repro.serve import ServeRequest

from _helpers import on_threads


@pytest.fixture
def psi():
    return Factor(
        ("A", "B", "C"),
        {(0, 0, 0): 1, (0, 1, 0): 2, (1, 0, 1): 3, (1, 1, 1): 4},
    )


class TestTrieConstruction:
    def test_levels_follow_global_order(self, psi):
        trie = FactorTrie(psi, ["C", "A", "B"], COUNTING)
        assert trie.variables == ("C", "A", "B")
        assert trie.depth == 3

    def test_missing_order_variable_raises(self, psi):
        with pytest.raises(ValueError):
            FactorTrie(psi, ["A", "B"], COUNTING)

    def test_zero_entries_are_skipped(self):
        factor = Factor(("A",), {(0,): 0, (1,): 2})
        trie = FactorTrie(factor, ["A"], COUNTING)
        assert trie.level(()) == {1: 2}

    def test_empty_scope_factor(self):
        constant = Factor((), {(): 5})
        trie = FactorTrie(constant, ["A"], COUNTING)
        assert trie.depth == 0
        assert trie.root == 5 and trie.level(()) is None

    def test_a_falsy_constant_is_not_an_empty_trie(self):
        # min-plus' one is 0.0: falsy, and as far from its zero (inf) as can be.
        trie = FactorTrie(Factor((), {(): 0.0}), ["A"], MIN_PLUS)
        assert not trie.empty and trie.root == 0.0
        assert FactorTrie(Factor((), {(): float("inf")}), ["A"], MIN_PLUS).empty
        assert FactorTrie(Factor((), {}), ["A"], MIN_PLUS).empty
        assert FactorTrie(Factor(("A",), {(0,): 0}), ["A"], COUNTING).empty

    def test_values_sit_at_the_last_level(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert trie.root == {0: {0: {0: 1}, 1: {0: 2}}, 1: {0: {1: 3}, 1: {1: 4}}}
        assert trie.level((1, 1)) == {1: 4}
        assert trie.level((1, 1, 1)) is None and trie.level((5,)) is None
        assert 1 in trie.level((1, 1)) and 0 not in trie.level((1, 1))

    def test_no_domain_value_is_reserved(self):
        factor = Factor(("A", "B"), {("__leaf__", "__leaf__"): 2, ("x", "__leaf__"): 3})
        trie = FactorTrie(factor, ["A", "B"], COUNTING)
        assert set(trie.level(())) == {"__leaf__", "x"}
        assert set(trie.level(("__leaf__",))) == {"__leaf__"}
        assert trie.level(("__leaf__",))["__leaf__"] == 2

    def test_a_table_known_zero_free_is_not_swept(self, monkeypatch):
        asked = []
        bind = Semiring.zero_test
        monkeypatch.setattr(Semiring, "zero_test", lambda self: asked.append(self) or bind(self))
        factor = Factor(("A",), {(0,): 1, (1,): 2}).freeze()
        FactorTrie(factor, ["A"], COUNTING)
        assert asked == [COUNTING]
        assert factor.is_pruned(COUNTING)  # sweeps once, and remembers
        del asked[:]
        assert FactorTrie(factor, ["A"], COUNTING).root == {0: 1, 1: 2}
        assert asked == []
        FactorTrie(factor, ["A"], MIN_PLUS)  # zero-free under another semiring only
        assert asked == [MIN_PLUS]


class TestTrieNavigation:
    """A level's keys are the candidate values of the next variable."""

    def test_candidate_values_at_root(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert set(trie.level(())) == {0, 1}

    def test_candidate_values_after_prefix(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert set(trie.level((0,))) == {0, 1}
        assert set(trie.level((0, 1))) == {0}

    def test_candidate_values_for_absent_prefix(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert trie.level((7,)) is None
        assert FactorTrie(Factor(("A",), {}), ["A"], COUNTING).level(()) is None

    def test_has_prefix(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert 1 in trie.level((1,))
        assert 2 not in trie.level((1,))

    def test_full_tuple_value(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        assert trie.level((1, 1))[1] == 4
        assert trie.level((1, 1)).get(0, 0) == 0

    def test_value_respects_reordered_levels(self, psi):
        trie = FactorTrie(psi, ["C", "B", "A"], COUNTING)
        # levels are (C, B, A): tuple (1, 0, 1) corresponds to A=1,B=0,C=1.
        assert trie.level((1, 0))[1] == 3

    def test_children_returns_subtrie_nodes(self, psi):
        trie = FactorTrie(psi, ["A", "B", "C"], COUNTING)
        children = trie.level((0,))
        assert children == {0: {0: 1}, 1: {0: 2}}
        # The trie's own node, not a copy.
        assert children is trie.root[0] and children[1] is trie.level((0, 1))


class TestBuildTries:
    def test_build_tries_indexes_every_factor(self, psi):
        other = Factor(("B",), {(0,): 1})
        tries = build_tries([psi, other], ["A", "B", "C"], COUNTING)
        assert len(tries) == 2
        assert tries[1].variables == ("B",)


# ---------------------------------------------------------------------- #
# dense arrays live in the holder entry
# ---------------------------------------------------------------------- #
GRID = [f"X{r}_{c}" for r in range(3) for c in range(4)]
GRID_KINDS = ("marginal", "map", "partition")


def _grid_tables(seed=0, domain=3):
    """The 17 pair potentials of a 3x4 grid, small integers held in floats
    (so a sum of products is exact in any order and answers compare ``==``)."""
    rng = random.Random(seed)
    scopes = [(f"X{r}_{c}", f"X{r}_{c + 1}") for r in range(3) for c in range(3)]
    scopes += [(f"X{r}_{c}", f"X{r + 1}_{c}") for r in range(2) for c in range(4)]
    cells = [(a, b) for a in range(domain) for b in range(domain)]
    return [(scope, {cell: float(rng.randint(1, 4)) for cell in cells}) for scope in scopes]


def _grid_query(kind, tables, values=(0, 1, 2)):
    semiring, aggregate, free = {
        "marginal": (SUM_PRODUCT, SemiringAggregate.sum, [GRID[-1]]),
        "map": (MAX_PRODUCT, SemiringAggregate.max, [GRID[-1]]),
        "partition": (SUM_PRODUCT, SemiringAggregate.sum, []),
    }[kind]
    order = free + [v for v in GRID if v not in free]
    return FAQQuery(
        [Variable(v, values) for v in order],
        free,
        {v: aggregate() for v in order[len(free):]},
        [Factor(scope, table) for scope, table in tables],
        semiring,
        name=kind,
    )


def _dense_request(query):
    """Served for real every time: no result cache, no step replay."""
    return ServeRequest(query, coalesce=False, options={"backend": "dense"})


@pytest.fixture
def densified(monkeypatch):
    """What ``DenseFactor.from_factor`` / ``from_flat`` were called on."""
    calls = {"from_factor": [], "from_flat": []}
    for name, seen in calls.items():
        build = getattr(DenseFactor, name)

        def spy(source, *args, _build=build, _seen=seen, **kwargs):
            _seen.append(source)
            return _build(source, *args, **kwargs)

        monkeypatch.setattr(DenseFactor, name, spy)
    return calls


def _arrays_in(store):
    return [entry.dense for entry in store._entries.values() if entry.dense is not None]


def _stored_arrays(engine):
    return [dense for _, store in engine.server._shared.items() for dense in _arrays_in(store)]


@pytest.mark.parametrize("kind", GRID_KINDS)
def test_a_warm_serve_densifies_nothing(kind, densified):
    tables = _grid_tables()
    with Engine() as engine:
        cold = engine.query(_dense_request(_grid_query(kind, tables)))
        assert {step.backend for step in cold.stats.steps} == {"dense"}
        assert len(densified["from_factor"]) == len(tables)  # each base factor once
        reference = inside_out(_grid_query(kind, tables), backend="sparse")
        assert cold.factor.table == reference.factor.table
        for seen in densified.values():
            seen.clear()
        warm = engine.query(_dense_request(_grid_query(kind, tables)))  # all-new objects
        assert densified == {"from_factor": [], "from_flat": []}
        assert not warm.coalesced and len(warm.stats.steps) == len(cold.stats.steps)
        assert warm.factor.table == cold.factor.table
        stored = _stored_arrays(engine)
        assert len(stored) == len(tables) and all(dense.frozen for dense in stored)


def test_a_store_over_other_domains_is_not_served(densified):
    tables = _grid_tables()
    query = _grid_query("marginal", tables)
    query_content_key(query)  # leaves the digest memo the store keys by
    store = SharedTrieCache(query.order, query.semiring, query.factors)
    first = inside_out(query, backend="dense", shared_tries=store)
    # Same tables (so the store covers them), domains listed backwards:
    # every stored array would be laid out the wrong way round.
    backwards = _grid_query("marginal", tables, values=(2, 1, 0))
    query_content_key(backwards)
    assert all(store.covers(f) for f in backwards.factors)
    densified["from_factor"].clear()
    result = inside_out(backwards, backend="dense", shared_tries=store)
    assert len(densified["from_factor"]) == len(tables)  # privately, as without a store
    assert result.factor.table == inside_out(backwards, backend="dense").factor.table
    assert result.factor.table == first.factor.table
    # ... and the store still serves the domains it was built over.
    densified["from_factor"].clear()
    again = inside_out(query, backend="dense", shared_tries=store)
    assert densified["from_factor"] == []
    assert again.factor.table == first.factor.table


def test_concurrent_runs_on_a_cold_store_agree_on_one_array_per_content():
    """Three concurrent requests, each a serial run, race to fill one store."""
    query = _grid_query("partition", _grid_tables(seed=4))
    query_content_key(query)
    store = SharedTrieCache(query.order, query.semiring, query.factors)
    results = on_threads(
        3, lambda _: inside_out(query, backend="dense", shared_tries=store),
        switch_interval=1e-5,
    )
    alone = inside_out(query, backend="dense")
    assert all(result.factor.table == alone.factor.table for result in results)
    # First store wins: whatever the race, each content keeps one array.
    domains = query.domains()
    for factor in query.factors:
        held = store.dense(factor, domains)
        assert held.frozen and store.dense(factor, domains) is held
    assert len(_arrays_in(store)) == len(query.factors)


def test_an_evicted_holder_releases_its_arrays():
    with Engine() as engine:
        engine.query(_dense_request(_grid_query("partition", _grid_tables())))
        array = weakref.ref(_stored_arrays(engine)[0].array)
        # 64 other contents push the grid's holder out of the LRU.
        for value in range(2, 66):
            other = FAQQuery(
                [Variable("a", (0, 1))], [], {"a": SemiringAggregate.sum()},
                [Factor(("a",), {(0,): float(value), (1,): 1.0})], SUM_PRODUCT,
            )
            engine.query(_dense_request(other))
        gc.collect()
        assert array() is None


def test_a_view_update_densifies_only_the_replaced_factor(densified):
    tables = _grid_tables()
    view = IncrementalView(_grid_query("marginal", tables), backend="dense")
    view.result()
    times = Counter(f._digest for f in densified["from_factor"])
    rng = random.Random(3)
    for _ in range(6):
        held = {digest for digest, entry in view._tries._entries.items() if entry.dense is not None}
        for seen in densified.values():
            seen.clear()
        index = rng.randrange(len(tables))
        cell = (rng.randrange(3), rng.randrange(3))
        delta = FactorDelta(view.query.factors[index].scope, {cell: float(rng.randint(5, 9))})
        out = view.update_factor(index, delta)
        # The delta factor and its projections, and a factor an earlier
        # update installed but did not run (the delta and append regimes
        # never do): each new content once, nothing the holder already had.
        digests = [f._digest for f in densified["from_factor"] if f._digest is not None]
        assert densified["from_flat"] == [] and not held.intersection(digests)
        times.update(digests)
        full = inside_out(view.query, ordering=list(view.ordering), backend="dense")
        assert out.table == full.factor.normalize_scope(view.query.free).table
    assert set(times.values()) == {1}
