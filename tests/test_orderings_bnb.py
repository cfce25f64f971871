"""Branch-and-bound ordering search vs the historical permutation scan.

``best_ordering_search`` replaced the factorial permutation scan inside
:func:`repro.hypergraph.orderings.best_ordering_exhaustive`.  These tests pin
its contract: on every hypergraph it must return the *same quantised width*
— and, because the tie-break is reproduced, the same ordering — as the seed
scan (the first width-minimising permutation of the repr-sorted vertex set
in ``itertools.permutations`` order), while planning the 7-variable
single-block #SAT query in a tiny fraction of the seed's ~1 minute.
"""

import itertools
import random
import time

import pytest

from repro.hypergraph.covers import (
    clear_rho_star_cache,
    fractional_edge_cover_number,
    rho_star_cache_info,
)
from repro.hypergraph.elimination import elimination_sequence
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.orderings import (
    _quantized,
    best_ordering_exhaustive,
    best_ordering_search,
)


def _reference_scan(hypergraph, width_fn):
    """The seed implementation: scan all permutations, quantise, keep first."""
    vertices = sorted(hypergraph.vertices, key=repr)
    best_order, best_width = None, float("inf")
    for perm in itertools.permutations(vertices):
        steps = elimination_sequence(hypergraph, perm)
        width = max((_quantized(width_fn(step.union)) for step in steps), default=0.0)
        if width < best_width:
            best_width, best_order = width, list(perm)
    if best_order is None:
        return list(vertices), 0.0
    return best_order, best_width


def _random_hypergraph(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        rng.sample(vertices, rng.randint(1, min(3, n)))
        for _ in range(rng.randint(0, 7))
    ]
    return Hypergraph(vertices, edges)


class TestBranchAndBoundMatchesScan:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_width_and_ordering_rho_star(self, seed):
        hypergraph = _random_hypergraph(seed)

        def width_fn(bag):
            return fractional_edge_cover_number(hypergraph, bag, ignore_uncovered=True)

        ref_order, ref_width = _reference_scan(hypergraph, width_fn)
        order, width = best_ordering_search(hypergraph, width_fn)
        assert width == ref_width
        assert order == ref_order

    @pytest.mark.parametrize("seed", range(40, 60))
    def test_same_width_and_ordering_treewidth(self, seed):
        hypergraph = _random_hypergraph(seed)
        width_fn = lambda bag: len(bag) - 1  # noqa: E731
        ref_order, ref_width = _reference_scan(hypergraph, width_fn)
        order, width = best_ordering_search(hypergraph, width_fn)
        assert width == ref_width
        assert order == ref_order

    def test_exhaustive_wrapper_delegates(self):
        triangle = Hypergraph.from_scopes([("A", "B"), ("B", "C"), ("A", "C")])
        assert best_ordering_exhaustive(
            triangle, lambda b: fractional_edge_cover_number(triangle, b)
        ) == ["A", "B", "C"]

    @pytest.mark.parametrize("seed", (3, 7, 13, 29))
    def test_returned_width_matches_returned_ordering(self, seed):
        """Consistency: the reported width is the induced width of the
        returned ordering (recomputed independently via the elimination
        sequence, not the search's own memoised step costs)."""
        hypergraph = _random_hypergraph(seed)

        def width_fn(bag):
            return fractional_edge_cover_number(hypergraph, bag, ignore_uncovered=True)

        ordering, width = best_ordering_search(hypergraph, width_fn)
        steps = elimination_sequence(hypergraph, ordering)
        recomputed = max((_quantized(width_fn(s.union)) for s in steps), default=0.0)
        assert recomputed == width


class TestRhoStarMemo:
    def test_cache_hits_across_hypergraphs(self):
        """Identical restricted structures share one LP across hypergraphs."""
        clear_rho_star_cache()
        a = Hypergraph.from_scopes([("A", "B"), ("B", "C"), ("A", "C")])
        b = Hypergraph.from_scopes([("A", "B"), ("B", "C"), ("A", "C"), ("C", "D")])
        first = fractional_edge_cover_number(a, {"A", "B", "C"})
        misses = rho_star_cache_info()["misses"]
        second = fractional_edge_cover_number(b, {"A", "B", "C"})
        info = rho_star_cache_info()
        assert first == second == pytest.approx(1.5)
        assert info["misses"] == misses
        assert info["hits"] >= 1

    def test_renamed_isomorphic_structure_hits_with_a_fresh_lp_value(self):
        """The memo key forgets names: renaming the vertices in a way that
        keeps their repr order hits the entry another hypergraph made, and
        the value is the one a fresh LP on the renamed hypergraph gives."""
        from repro.hypergraph import covers
        from repro.hypergraph.covers import fractional_edge_cover

        clear_rho_star_cache()
        scopes = [("A", "B"), ("B", "C"), ("A", "C"), ("C", "D")]
        first = fractional_edge_cover_number(Hypergraph.from_scopes(scopes))
        assert rho_star_cache_info()["misses"] == 1
        rename = dict(zip("ABCD", ("p", "q", "r", "s")))
        renamed = Hypergraph.from_scopes([[rename[v] for v in s] for s in scopes])
        value = fractional_edge_cover_number(renamed)
        info = rho_star_cache_info()
        assert (info["misses"], info["hits"]) == (1, 1)
        assert value == first
        assert value == pytest.approx(fractional_edge_cover(renamed)[0], abs=1e-12)
        # Keys hold small ints, no names.
        assert [key for key, _ in covers._RHO_STAR_CACHE.items()] == [(0b11, 0b101, 0b110, 0b1100)]

    def test_uncovered_still_raises(self):
        h = Hypergraph(["A", "B", "X"], [("A", "B")])
        from repro.hypergraph.hypergraph import HypergraphError

        with pytest.raises(HypergraphError):
            fractional_edge_cover_number(h, {"A", "X"})
        assert fractional_edge_cover_number(h, {"A", "X"}, ignore_uncovered=True) == 1.0

    def test_isolated_subset_ignored(self):
        h = Hypergraph(["A", "X"], [("A",)])
        assert fractional_edge_cover_number(h, {"X"}, ignore_uncovered=True) == 0.0


@pytest.mark.slow
def test_sat_single_block_planning_budget():
    """Regression: the 7-variable single-block #SAT ordering search finishes
    in seconds (the seed permutation scan needed ~1 minute) and returns an
    ordering of the seed's quantised FAQ-width."""
    from repro.core.faqw import approximate_faqw_ordering, faq_width_of_ordering
    from repro.datasets.cnf import random_k_cnf
    from repro.solvers.sat import sharp_sat_query

    clear_rho_star_cache()
    query = sharp_sat_query(random_k_cnf(7, 16, 3, seed=57))
    start = time.perf_counter()
    ordering = approximate_faqw_ordering(query)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"planning took {elapsed:.1f}s, budget is 10s (seed: ~64s)"
    # The seed scan returned ('x1', ..., 'x7') with quantised width 2.333333333.
    assert ordering == tuple(f"x{i}" for i in range(1, 8))
    assert round(faq_width_of_ordering(query, ordering), 9) == pytest.approx(2.333333333)
