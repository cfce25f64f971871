"""Unit tests for edge covers and the AGM bound (:mod:`repro.hypergraph.covers`).

The tableau kernel is held to ``scipy.optimize.linprog`` (the reference the
module itself falls back to) on seeded random covers, and to exact values on
the degenerate families it was chosen for.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.hypergraph import covers
from repro.hypergraph.covers import (
    agm_bound,
    clear_rho_star_cache,
    fractional_edge_cover,
    fractional_edge_cover_number,
    integral_edge_cover_number,
    rho_star_cache_info,
)
from repro.hypergraph.hypergraph import Hypergraph, HypergraphError


TRIANGLE = Hypergraph.from_scopes([("A", "B"), ("B", "C"), ("A", "C")])
PATH = Hypergraph.from_scopes([("A", "B"), ("B", "C"), ("C", "D")])
BIG_EDGE = Hypergraph.from_scopes([("A", "B", "C", "D")])


class TestFractionalCover:
    def test_triangle_fractional_cover_is_three_halves(self):
        assert fractional_edge_cover_number(TRIANGLE) == pytest.approx(1.5)

    def test_triangle_solution_uses_half_each(self):
        objective, solution = fractional_edge_cover(TRIANGLE)
        assert objective == pytest.approx(1.5)
        assert all(weight == pytest.approx(0.5) for weight in solution.values())

    def test_path_cover(self):
        # Two disjoint edges {A,B} and {C,D} cover the path.
        assert fractional_edge_cover_number(PATH) == pytest.approx(2.0)

    def test_single_big_edge(self):
        assert fractional_edge_cover_number(BIG_EDGE) == pytest.approx(1.0)

    def test_subset_cover(self):
        assert fractional_edge_cover_number(TRIANGLE, {"A", "B"}) == pytest.approx(1.0)
        assert fractional_edge_cover_number(PATH, {"B", "C"}) == pytest.approx(1.0)

    def test_empty_subset_costs_nothing(self):
        assert fractional_edge_cover_number(TRIANGLE, set()) == 0.0

    def test_uncovered_vertex_raises(self):
        h = Hypergraph(vertices=["A", "Z"], edges=[("A",)])
        with pytest.raises(HypergraphError):
            fractional_edge_cover_number(h, {"A", "Z"})

    def test_uncovered_vertex_can_be_ignored(self):
        h = Hypergraph(vertices=["A", "Z"], edges=[("A",)])
        value = fractional_edge_cover_number(h, {"A", "Z"}, ignore_uncovered=True)
        assert value == pytest.approx(1.0)

    def test_weighted_cover_prefers_cheap_edges(self):
        h = Hypergraph.from_scopes([("A", "B"), ("A",), ("B",)])
        weights = {
            frozenset({"A", "B"}): 10.0,
            frozenset({"A"}): 1.0,
            frozenset({"B"}): 1.0,
        }
        objective, solution = fractional_edge_cover(h, weights=weights)
        assert objective == pytest.approx(2.0)
        assert solution[frozenset({"A", "B"})] == pytest.approx(0.0)

    def test_five_cycle_cover(self):
        cycle = Hypergraph.from_scopes(
            [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "A")]
        )
        assert fractional_edge_cover_number(cycle) == pytest.approx(2.5)


class TestIntegralCover:
    def test_triangle_needs_two_edges(self):
        assert integral_edge_cover_number(TRIANGLE) == 2

    def test_path_needs_two_edges(self):
        assert integral_edge_cover_number(PATH) == 2

    def test_single_edge(self):
        assert integral_edge_cover_number(BIG_EDGE) == 1

    def test_subset(self):
        assert integral_edge_cover_number(TRIANGLE, {"A"}) == 1

    def test_empty_subset(self):
        assert integral_edge_cover_number(TRIANGLE, set()) == 0

    def test_uncoverable_raises(self):
        h = Hypergraph(vertices=["A", "Z"], edges=[("A",)])
        with pytest.raises(HypergraphError):
            integral_edge_cover_number(h, {"Z"})

    def test_greedy_fallback_still_covers(self):
        star = Hypergraph.from_scopes([("Hub", f"L{i}") for i in range(25)])
        # Exact search limit exceeded → greedy; every leaf needs its own edge.
        assert integral_edge_cover_number(star, exact_limit=5) == 25


class TestAgmBound:
    def test_triangle_agm_is_n_to_three_halves(self):
        sizes = {edge: 100 for edge in TRIANGLE.edges}
        assert agm_bound(TRIANGLE, sizes) == pytest.approx(100 ** 1.5, rel=1e-6)

    def test_agm_uses_individual_sizes(self):
        sizes = {
            frozenset({"A", "B"}): 100,
            frozenset({"B", "C"}): 1,
            frozenset({"A", "C"}): 100,
        }
        # The tiny relation makes the bound collapse towards 100.
        assert agm_bound(TRIANGLE, sizes) <= 100 * 1.0001

    def test_agm_with_zero_size_edge_is_zero(self):
        sizes = {edge: 100 for edge in TRIANGLE.edges}
        sizes[frozenset({"A", "B"})] = 0
        assert agm_bound(TRIANGLE, sizes) == 0.0

    def test_agm_of_empty_subset_is_one(self):
        sizes = {edge: 100 for edge in TRIANGLE.edges}
        assert agm_bound(TRIANGLE, sizes, subset=set()) == 1.0

    def test_agm_never_exceeds_n_to_rho_star(self):
        sizes = {edge: 50 for edge in PATH.edges}
        bound = agm_bound(PATH, sizes)
        rho_star = fractional_edge_cover_number(PATH)
        assert bound <= (50 ** rho_star) * 1.0001

    def test_edge_without_a_size_is_not_used(self):
        # AC has no recorded size: the bound is AB x BC, whatever AC holds.
        sizes = {frozenset({"A", "B"}): 100, frozenset({"B", "C"}): 100}
        assert agm_bound(TRIANGLE, sizes) == pytest.approx(10_000)

    def test_target_uncoverable_by_sized_edges_raises(self):
        with pytest.raises(HypergraphError):
            agm_bound(TRIANGLE, {frozenset({"A", "B"}): 100})


# ---------------------------------------------------------------------- #
# the tableau kernel against scipy.optimize.linprog
# ---------------------------------------------------------------------- #
_WEIGHTS = (0.0, 0.0, 1.0, math.log2(7), math.log2(100), 3.3)


def _random_cover(rng, weighted):
    """A seeded cover instance ``(hypergraph, target, weights | None)``.

    1 to 12 vertices, 1 to 36 edges (some 30 distinct), with duplicate edges, edges contained
    in other edges, zero weights, and a target that two times in three is
    a strict subset of the covered vertices.
    """
    num_vertices = int(rng.integers(1, 13))
    names = [f"v{i}" for i in range(num_vertices)]
    edges = []
    for _ in range(int(rng.integers(1, 37))):
        kind = rng.random()
        if edges and kind < 0.15:
            edge = edges[int(rng.integers(len(edges)))]  # a duplicate column
        elif edges and kind < 0.30:
            source = sorted(edges[int(rng.integers(len(edges)))])
            keep = int(rng.integers(1, len(source) + 1))
            edge = frozenset(rng.choice(source, size=keep, replace=False).tolist())  # dominated
        else:
            arity = int(rng.integers(1, min(4, num_vertices) + 1))
            edge = frozenset(rng.choice(names, size=arity, replace=False).tolist())
        edges.append(edge)
    covered = sorted(set().union(*edges))
    size = len(covered) if rng.random() < 0.3 else int(rng.integers(1, len(covered) + 1))
    target = frozenset(rng.choice(covered, size=size, replace=False).tolist())
    weights = None
    if weighted:
        weights = {edge: float(rng.choice(_WEIGHTS)) for edge in set(edges)}
    return Hypergraph(names, edges), target, weights


def _linprog_objective(hypergraph, target, weights):
    """The cover LP through scipy, built independently of ``covers``."""
    edges = sorted({e for e in hypergraph.edges if e & target}, key=sorted)
    rows = sorted(target)
    a_ub = [[-1.0 if vertex in edge else 0.0 for edge in edges] for vertex in rows]
    costs = [1.0 if weights is None else weights[edge] for edge in edges]
    result = linprog(costs, A_ub=a_ub, b_ub=[-1.0] * len(rows), bounds=(0, None), method="highs")
    assert result.success
    return float(result.fun)


def _assert_feasible(target, weights, objective, solution):
    assert all(weight >= 0.0 for weight in solution.values())
    for vertex in target:
        assert sum(w for edge, w in solution.items() if vertex in edge) >= 1.0 - 1e-9
    cost = sum(w * (1.0 if weights is None else weights[edge]) for edge, w in solution.items())
    assert cost == pytest.approx(objective, abs=1e-9)


@pytest.fixture
def kernel_only(monkeypatch):
    """Fail the test if an LP leaves the tableau kernel for the reference."""

    def refuse(matrix, costs):
        raise AssertionError(f"{matrix.shape} LP went to the reference path")

    monkeypatch.setattr(covers, "_reference_cover", refuse)


class TestTableauKernel:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_linprog_on_random_covers(self, weighted, kernel_only):
        rng = np.random.default_rng(2016 + weighted)
        shapes = set()
        for _ in range(300):
            hypergraph, target, weights = _random_cover(rng, weighted)
            objective, solution = fractional_edge_cover(hypergraph, target, weights)
            assert objective == pytest.approx(
                _linprog_objective(hypergraph, target, weights), abs=1e-9
            )
            _assert_feasible(target, weights, objective, solution)
            shapes.add((len(target), len(solution)))
        assert min(shapes) == (1, 1)
        assert max(rows for rows, _ in shapes) == 12 and max(cols for _, cols in shapes) >= 24

    @pytest.mark.parametrize(
        "scopes, expected",
        [
            ([(i, (i + 1) % 5) for i in range(5)], 2.5),
            ([(i, (i + 1) % 7) for i in range(7)], 3.5),
            (list(itertools.combinations(range(4), 2)), 2.0),
            ([("hub", leaf) for leaf in range(25)], 25.0),
            # The Fano plane: 7 lines of 3 points, every point on 3 lines.
            ([(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)],
             7 / 3),
        ],
        ids=["C5", "C7", "K4", "star25", "fano"],
    )
    def test_degenerate_families_exactly(self, scopes, expected, kernel_only):
        objective, solution = fractional_edge_cover(Hypergraph.from_scopes(scopes))
        assert objective == pytest.approx(expected, abs=1e-12)
        _assert_feasible({v for scope in scopes for v in scope}, None, objective, solution)

    def test_triangle_weights_are_one_half_each(self, kernel_only):
        _, solution = fractional_edge_cover(TRIANGLE)
        assert sorted(solution.values()) == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)

    def test_both_sides_of_the_size_constant_agree(self):
        rng = np.random.default_rng(7)
        for num_vertices, num_edges in [(6, 12), (20, 40), (30, 60)]:
            matrix = np.zeros((num_vertices, num_edges))
            for j in range(num_edges):
                matrix[rng.choice(num_vertices, size=3, replace=False), j] = 1.0
            matrix[np.arange(num_vertices), rng.integers(num_edges, size=num_vertices)] = 1.0
            for costs in (np.ones(num_edges), rng.choice(_WEIGHTS, size=num_edges)):
                kernel, cover = covers._tableau_cover(matrix, costs)
                reference, _ = covers._reference_cover(matrix, costs)
                assert kernel == pytest.approx(reference, abs=1e-9)
                assert (matrix @ cover).min() >= 1.0 - 1e-9 and cover.min() >= 0.0

    def test_lp_above_the_constant_takes_the_reference_path(self, monkeypatch):
        scopes = [(i, (i + 1) % 41) for i in range(41)]  # C41: 42 x 83 cells
        assert (41 + 1) * (41 + 41 + 1) > covers._TABLEAU_CELLS
        monkeypatch.setattr(covers, "_tableau_cover", None)  # calling it would raise
        objective, _ = fractional_edge_cover(Hypergraph.from_scopes(scopes))
        assert objective == pytest.approx(20.5)

    @pytest.mark.parametrize("sabotage", ["certificate", "pivot budget"])
    def test_unproved_kernel_answer_falls_through_to_the_reference(self, monkeypatch, sabotage):
        if sabotage == "certificate":
            monkeypatch.setattr(covers, "_certified", lambda *args: False)
        else:
            monkeypatch.setattr(covers, "_PIVOTS_PER_COLUMN", 0)
        reference_calls = []
        reference = covers._reference_cover

        def counting(matrix, costs):
            reference_calls.append(matrix.shape)
            return reference(matrix, costs)

        monkeypatch.setattr(covers, "_reference_cover", counting)
        matrix = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        assert covers._tableau_cover(matrix, np.ones(3)) is None
        objective, solution = fractional_edge_cover(TRIANGLE)
        assert objective == pytest.approx(1.5)
        assert all(weight == pytest.approx(0.5) for weight in solution.values())
        assert reference_calls == [(3, 3)]

    def test_certificate_rejects_wrong_answers(self):
        matrix = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        costs, half = np.ones(3), np.full(3, 0.5)
        assert covers._certified(matrix, costs, half, half)
        assert not covers._certified(matrix, costs, np.full(3, 0.4), half)  # infeasible cover
        assert not covers._certified(matrix, costs, half, np.full(3, 0.6))  # infeasible packing
        assert not covers._certified(matrix, costs, np.ones(3), half)  # feasible, not optimal


class TestClosedForms:
    def test_one_vertex_target_costs_its_cheapest_edge(self, monkeypatch):
        rng = np.random.default_rng(11)
        monkeypatch.setattr(covers, "_tableau_cover", None)  # no solver is reached
        monkeypatch.setattr(covers, "_reference_cover", None)
        for _ in range(100):
            hypergraph, target, weights = _random_cover(rng, weighted=True)
            vertex = frozenset(sorted(target)[:1])
            objective, solution = fractional_edge_cover(hypergraph, vertex, weights)
            assert objective == pytest.approx(
                _linprog_objective(hypergraph, vertex, weights), abs=1e-9
            )
            _assert_feasible(vertex, weights, objective, solution)

    def test_disjoint_restrictions_are_counted_not_solved(self):
        rng = np.random.default_rng(12)
        clear_rho_star_cache()
        before = rho_star_cache_info()
        closed = 0
        for _ in range(300):
            hypergraph, target, _ = _random_cover(rng, weighted=False)
            restrictions = {e & target for e in hypergraph.edges if e & target}
            maximal = [e for e in restrictions if not any(e < other for other in restrictions)]
            if sum(map(len, maximal)) != len(target):
                continue
            closed += 1
            value = fractional_edge_cover_number(hypergraph, target)
            assert value == len(maximal)
            assert value == pytest.approx(fractional_edge_cover(hypergraph, target)[0], abs=1e-9)
        assert closed >= 50
        assert rho_star_cache_info() == before  # the memo never saw them

    def test_uniform_sizes_give_n_to_the_rho_star_from_the_memo(self, monkeypatch):
        solves = []
        for name in ("_tableau_cover", "_reference_cover"):
            solver = getattr(covers, name)
            monkeypatch.setattr(
                covers, name,
                lambda matrix, costs, solver=solver: solves.append(1) or solver(matrix, costs),
            )
        rng = np.random.default_rng(13)
        clear_rho_star_cache()
        cases = [_random_cover(rng, weighted=False) for _ in range(60)]
        for _ in range(2):  # the second round is all hits
            for hypergraph, target, _ in cases:
                rho = fractional_edge_cover_number(hypergraph, target)
                sizes = {edge: 7 for edge in hypergraph.edges}
                assert agm_bound(hypergraph, sizes, target) == pytest.approx(7 ** rho, rel=1e-12)
                weights = {edge: math.log2(7) for edge in hypergraph.edges}
                general, _ = fractional_edge_cover(hypergraph, target, weights)
                assert 7 ** rho == pytest.approx(2.0 ** general, rel=1e-9)
        info = rho_star_cache_info()
        # Per round every structure is asked for twice (rho*, then AGM); the
        # only LPs besides the memo's are the weighted ones solved for
        # comparison — closed form (i) answers the one-vertex targets.
        weighted = 2 * sum(len(target) > 1 for _, target, _ in cases)
        assert info["misses"] == info["size"] == len(solves) - weighted > 0
        assert info["hits"] == 3 * info["misses"]
