"""Unit tests for the OutsideIn worst-case-optimal join (:mod:`repro.core.outsidein`)."""

import itertools
import random

import pytest

from repro.core.outsidein import OutsideInStats, enumerate_join, join_factors
from repro.factors.factor import Factor
from repro.semiring.standard import BOOLEAN, COUNTING

from _helpers import make_factor, random_factor


class TestEnumerateJoin:
    def test_single_factor_enumerates_its_tuples(self):
        psi = make_factor(("A", "B"), {(0, 1): 2, (1, 0): 3})
        results = dict(
            (tuple(sorted(a.items())), v) for a, v in enumerate_join([psi], COUNTING)
        )
        assert results[(("A", 0), ("B", 1))] == 2
        assert len(results) == 2

    def test_empty_factor_list_yields_unit(self):
        results = list(enumerate_join([], COUNTING))
        assert results == [({}, 1)]

    def test_identically_zero_factor_yields_nothing(self):
        zero = Factor(("A",), {})
        other = make_factor(("A",), {(0,): 1})
        assert list(enumerate_join([zero, other], COUNTING)) == []

    def test_two_factor_join_values_multiply(self):
        left = make_factor(("A", "B"), {(0, 0): 2, (1, 1): 3})
        right = make_factor(("B", "C"), {(0, 7): 5, (1, 8): 11})
        results = {
            (a["A"], a["B"], a["C"]): v for a, v in enumerate_join([left, right], COUNTING)
        }
        assert results == {(0, 0, 7): 10, (1, 1, 8): 33}

    def test_join_respects_variable_order(self):
        left = make_factor(("A", "B"), {(0, 0): 1})
        right = make_factor(("B", "C"), {(0, 1): 1})
        for order in (["A", "B", "C"], ["C", "B", "A"], ["B", "A", "C"]):
            results = list(enumerate_join([left, right], COUNTING, order))
            assert len(results) == 1

    def test_stats_are_populated(self):
        left = make_factor(("A", "B"), {(0, 0): 1, (1, 1): 1})
        right = make_factor(("B", "C"), {(0, 0): 1, (1, 1): 1})
        stats = OutsideInStats()
        list(enumerate_join([left, right], COUNTING, stats=stats))
        assert stats.emitted_tuples == 2
        assert stats.search_steps > 0
        assert stats.intersections > 0

    def test_intersection_probes_levels_in_place(self, monkeypatch):
        """Regression: a probe walks the smallest participating trie level
        and asks the others for membership; it copies no level.  On a star
        join of a 20 000-row factor with a 10-row one, the search touches
        ``O(small + output)`` level elements, not the big factor's keys."""
        from repro.core import outsidein
        from repro.factors.index import FactorTrie

        visits = [0]

        class CountingLevel(dict):
            def __iter__(self):
                for key in dict.__iter__(self):
                    visits[0] += 1
                    yield key

            def __contains__(self, key):
                visits[0] += 1
                return dict.__contains__(self, key)

        def counting(node):
            if isinstance(node, dict):
                return CountingLevel({k: counting(v) for k, v in node.items()})
            return node

        class CountingTrie(FactorTrie):
            def __init__(self, factor, order, semiring):
                super().__init__(factor, order, semiring)
                self.root = counting(self.root)

        monkeypatch.setattr(outsidein, "FactorTrie", CountingTrie)
        big = make_factor(("X", "A"), {(x, a): 1 for x in range(10_000) for a in (0, 1)})
        small = make_factor(("X", "B"), {(x, 0): 1 for x in range(0, 10_000, 1_000)})
        assert len(big) == 20_000
        results = list(enumerate_join([big, small], COUNTING, ["X", "A", "B"]))
        assert len(results) == 20
        assert visits[0] <= 4 * (len(small) + len(results))

    def test_matches_nested_loop_join_on_random_inputs(self):
        rng = random.Random(3)
        domains = {v: tuple(range(3)) for v in "ABCD"}
        for _ in range(20):
            factors = [
                random_factor(("A", "B"), domains, rng),
                random_factor(("B", "C"), domains, rng),
                random_factor(("C", "D"), domains, rng),
            ]
            expected = {}
            for values in itertools.product(*(domains[v] for v in "ABCD")):
                assignment = dict(zip("ABCD", values))
                product = 1
                for factor in factors:
                    product *= factor.value(assignment, COUNTING)
                if product:
                    expected[values] = product
            got = {
                (a["A"], a["B"], a["C"], a["D"]): v
                for a, v in enumerate_join(factors, COUNTING, list("ABCD"))
            }
            assert got == expected


class TestJoinFactors:
    def test_full_output_scope(self):
        left = make_factor(("A", "B"), {(0, 0): 2})
        right = make_factor(("B", "C"), {(0, 1): 3})
        joined = join_factors([left, right], COUNTING)
        assert set(joined.scope) == {"A", "B", "C"}
        assert len(joined) == 1
        assert joined.value({"A": 0, "B": 0, "C": 1}, COUNTING) == 6

    def test_projection_requires_combine(self):
        psi = make_factor(("A", "B"), {(0, 0): 1})
        with pytest.raises(ValueError):
            join_factors([psi], COUNTING, output_scope=("A",))

    def test_projection_aggregates_collisions(self):
        psi = make_factor(("A", "B"), {(0, 0): 1, (0, 1): 2, (1, 0): 4})
        projected = join_factors(
            [psi], COUNTING, output_scope=("A",), combine=lambda a, b: a + b
        )
        assert projected.table == {(0,): 3, (1,): 4}

    def test_projection_with_max(self):
        psi = make_factor(("A", "B"), {(0, 0): 1, (0, 1): 5})
        projected = join_factors([psi], COUNTING, output_scope=("A",), combine=max)
        assert projected.table == {(0,): 5}

    def test_boolean_join_acts_as_intersection(self):
        left = make_factor(("A",), {(0,): True, (1,): True})
        right = make_factor(("A",), {(1,): True, (2,): True})
        joined = join_factors([left, right], BOOLEAN)
        assert set(joined.table) == {(1,)}

    def test_empty_output_scope_collapses_to_scalar(self):
        psi = make_factor(("A",), {(0,): 2, (1,): 3})
        collapsed = join_factors(
            [psi], COUNTING, output_scope=(), combine=lambda a, b: a + b
        )
        assert collapsed.table == {(): 5}

    def test_constant_factor_scales_join(self):
        constant = Factor((), {(): 10})
        psi = make_factor(("A",), {(0,): 2})
        joined = join_factors([constant, psi], COUNTING)
        assert joined.value({"A": 0}, COUNTING) == 20


class TestEliminateJoin:
    """The fused hash-join-and-aggregate kernel used by InsideOut's hot loop."""

    def _tries(self, factors, order):
        from repro.factors.index import TrieCache

        cache = TrieCache(order, COUNTING)
        return [cache.trie(f) for f in factors], cache

    def _fused_vs_reference(self, factors, variable, order, combine=lambda a, b: a + b):
        from repro.core.outsidein import eliminate_join

        present = set()
        for f in factors:
            present |= set(f.scope)
        output_scope = tuple(v for v in order if v in present and v != variable)
        tries, _ = self._tries(factors, order)
        fused = eliminate_join(
            tries, COUNTING, variable, output_scope, combine, variable_order=order
        )
        reference = join_factors(
            factors, COUNTING, output_scope=output_scope, combine=combine,
            variable_order=list(order),
        )
        assert fused.equals(reference, COUNTING), (fused.table, reference.table)
        return fused

    def test_matches_join_factors_on_randoms(self):
        rng = random.Random(11)
        order = ("A", "B", "C", "D")
        for _ in range(25):
            domains = {v: (0, 1, 2) for v in order}
            factors = []
            for _ in range(rng.randint(1, 4)):
                arity = rng.randint(0, 3)
                scope = tuple(rng.sample(order, arity))
                factors.append(random_factor(scope, domains, rng, density=0.7))
            present = set()
            for f in factors:
                present |= set(f.scope)
            if not present:
                continue
            variable = max(present, key=order.index)
            self._fused_vs_reference(factors, variable, order)

    def test_empty_participant_short_circuits(self):
        psi = make_factor(("A", "B"), {})
        other = make_factor(("B",), {(0,): 1})
        fused = self._fused_vs_reference([psi, other], "B", ("A", "B"))
        assert len(fused) == 0

    def test_constant_factor_participates(self):
        constant = Factor((), {(): 10})
        psi = make_factor(("A", "B"), {(0, 0): 2, (0, 1): 3})
        fused = self._fused_vs_reference([constant, psi], "B", ("A", "B"))
        assert fused.table == {(0,): 50}

    def test_no_survivors_collapses_to_scalar(self):
        psi = make_factor(("A",), {(0,): 2, (1,): 3})
        fused = self._fused_vs_reference([psi], "A", ("A",))
        assert fused.table == {(): 5}

    def test_falls_back_when_variable_not_last(self):
        from repro.core.outsidein import eliminate_join

        left = make_factor(("A", "B"), {(0, 0): 1, (1, 0): 2})
        right = make_factor(("B", "C"), {(0, 1): 3})
        order = ("A", "B", "C")
        tries, _ = self._tries([left, right], order)
        fused = eliminate_join(
            tries, COUNTING, "B", ("A", "C"), lambda a, b: a + b, variable_order=order
        )
        reference = join_factors(
            [left, right], COUNTING, output_scope=("A", "C"),
            combine=lambda a, b: a + b, variable_order=list(order),
        )
        assert fused.equals(reference, COUNTING)

    def test_counters_track_work(self):
        from repro.core.outsidein import eliminate_join

        stats = OutsideInStats()
        left = make_factor(("A", "B"), {(0, 0): 1, (0, 1): 2, (1, 0): 4})
        right = make_factor(("B",), {(0,): 1, (1,): 1})
        tries, _ = self._tries([left, right], ("A", "B"))
        fused = eliminate_join(
            tries, COUNTING, "B", ("A",), lambda a, b: a + b,
            variable_order=("A", "B"), stats=stats,
        )
        assert fused.table == {(0,): 3, (1,): 4}
        assert stats.emitted_tuples == 3
        assert stats.search_steps > 0
        assert stats.intersections > 0


@pytest.fixture(params=["per-run", "shared"])
def holder_for(request):
    """``holder_for(order, factors, semiring)``: a per-run ``TrieCache`` or a
    ``SharedTrieCache`` built for the (digested) factors — same lookups."""
    from repro.factors.index import SharedTrieCache, TrieCache
    from repro.planner.signature import factor_digest

    def build(order, factors, semiring=COUNTING):
        if request.param == "per-run":
            return TrieCache(order, semiring)
        for factor in factors:
            factor_digest(factor)  # leaves the memo the shared holder keys by
        return SharedTrieCache(order, semiring, factors)

    build.keeps_discarded = request.param == "shared"
    return build


class TestTrieCache:
    def test_trie_reused_for_same_factor(self, holder_for):
        psi = make_factor(("A", "B"), {(0, 0): 1})
        cache = holder_for(("A", "B"), [psi])
        assert cache.trie(psi) is cache.trie(psi)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_projection_reused_and_discarded(self, holder_for):
        psi = make_factor(("A", "B"), {(0, 0): 1, (0, 1): 2})
        cache = holder_for(("A", "B", "C"), [psi])
        projected, trie = cache.projection(psi, {"A"})
        assert projected.table == {(0,): 1}
        assert cache.projection_factor(psi, {"A"}) is projected
        assert cache.projection(psi, {"A"})[1] is trie
        cache.discard(psi)
        # A run drops a consumed factor's entry; the cross-run store keeps it.
        assert (cache.projection(psi, {"A"})[1] is trie) == holder_for.keeps_discarded

    def test_dense_factor_indexed_via_listing(self, holder_for):
        from repro.factors.dense import DenseFactor

        dense = DenseFactor.from_factor(
            make_factor(("A",), {(0,): 2, (1,): 0}), {"A": (0, 1)}, COUNTING
        )
        cache = holder_for(("A",), [dense])
        trie = cache.trie(dense)
        assert trie.level(()) == {0: 2}

    def test_flat_encodings_reused_per_factor_and_projection(self, holder_for):
        from repro.semiring.standard import MAX_PRODUCT

        psi = make_factor(("A", "B"), {(0, 0): 0.5, (0, 1): 2.0, (1, 1): 4.0})
        domains = {"A": (0, 1), "B": (0, 1)}
        cache = holder_for(("A", "B"), [psi], MAX_PRODUCT)
        ctx = cache.flat_context(domains)
        assert ctx is cache.flat_context(domains)
        flat = cache.flat(psi, ctx)
        assert len(flat) == 3 and cache.flat(psi, ctx) is flat
        projection = cache.projection_flat(psi, {"B"}, ctx)
        assert sorted(projection.columns["B"].tolist()) == [0, 1]
        assert cache.projection_flat(psi, {"B"}, ctx) is projection
        # flat: miss, hit; projection_flat: (factor, encoding) misses, then hits.
        assert (cache.hits, cache.misses) == (3, 3)

    def test_parent_served_lookup_is_a_local_miss_and_a_parent_hit(self):
        from repro.factors.index import SharedTrieCache, TrieCache
        from repro.planner.signature import factor_digest

        psi = make_factor(("A", "B"), {(0, 0): 1, (0, 1): 2})
        factor_digest(psi)
        store = SharedTrieCache(("A", "B"), COUNTING, [psi])
        warm = store.trie(psi)
        assert (store.hits, store.misses) == (0, 1)
        run = TrieCache(("A", "B"), COUNTING)
        run.adopt_parent(store)
        assert run.trie(psi) is warm
        assert (run.hits, run.misses) == (0, 1)
        assert (store.hits, store.misses) == (1, 1)
        assert run.trie(psi) is warm  # now local: the parent is not asked again
        assert (run.hits, run.misses) == (1, 1)
        assert (store.hits, store.misses) == (1, 1)
