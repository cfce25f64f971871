"""Tests for FAQ-width computation and the Section 7 approximation algorithm."""


import pytest

from repro.core.evo import is_equivalent_ordering
from repro.core.expression_tree import build_expression_tree
from repro.core.faqw import (
    approximate_faqw_ordering,
    faq_width_of_ordering,
    faq_width_of_query,
    node_hypergraph,
)
from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, Variable
from repro.datasets.queries import (
    example_5_6_query,
    example_6_13_query,
    example_6_19_query,
    example_6_2_query,
)
from repro.factors.factor import Factor
from repro.hypergraph.treedecomp import fractional_hypertree_width
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import COUNTING

from _helpers import small_random_query


class TestFaqWidthOfOrdering:
    def test_triangle_width_is_three_halves(self, triangle_query):
        width = faq_width_of_ordering(triangle_query, triangle_query.order)
        assert width == pytest.approx(1.5)

    def test_acyclic_chain_width_is_one(self):
        factors = [
            Factor(("a", "b"), {(0, 0): 1}),
            Factor(("b", "c"), {(0, 0): 1}),
        ]
        query = FAQQuery(
            variables=[Variable(v, (0, 1)) for v in "abc"],
            free=[],
            aggregates={v: SemiringAggregate.sum() for v in "abc"},
            factors=factors,
            semiring=COUNTING,
        )
        assert faq_width_of_ordering(query, ("a", "b", "c")) == pytest.approx(1.0)

    def test_bad_ordering_has_larger_width(self):
        factors = [
            Factor(("a", "b"), {(0, 0): 1}),
            Factor(("b", "c"), {(0, 0): 1}),
            Factor(("c", "d"), {(0, 0): 1}),
        ]
        query = FAQQuery(
            variables=[Variable(v, (0, 1)) for v in "abcd"],
            free=[],
            aggregates={v: SemiringAggregate.sum() for v in "abcd"},
            factors=factors,
            semiring=COUNTING,
        )
        good = faq_width_of_ordering(query, ("a", "b", "c", "d"))
        bad = faq_width_of_ordering(query, ("a", "c", "d", "b"))
        assert good == pytest.approx(1.0)
        assert bad > good

    def test_product_variables_do_not_count(self):
        """Example 5.6 with 0/1 factors: faqw of (5,1,2,3,4,6) ordering is 1."""
        query = example_5_6_query()
        width = faq_width_of_ordering(query, ("x5", "x1", "x2", "x3", "x4", "x6"))
        assert width == pytest.approx(1.0)

    def test_example_5_6_written_order_is_two(self):
        """The written ordering of Example 5.6 forces an O(N²) step."""
        query = example_5_6_query()
        width = faq_width_of_ordering(query, query.order)
        assert width == pytest.approx(2.0)


class TestFaqWidthOfQuery:
    def test_example_5_6_faqw_is_one(self):
        query = example_5_6_query()
        width, ordering = faq_width_of_query(query, return_ordering=True)
        assert width == pytest.approx(1.0)
        assert set(ordering) == set(query.order)

    def test_example_6_13_faqw_is_one(self):
        assert faq_width_of_query(example_6_13_query()) == pytest.approx(1.0)

    def test_triangle_equals_fhtw(self, triangle_query):
        """For FAQ-SS with all permutations allowed faqw = fhtw (Prop 5.12)."""
        width = faq_width_of_query(triangle_query)
        fhtw = fractional_hypertree_width(triangle_query.hypergraph())
        assert width == pytest.approx(fhtw)

    def test_faqw_never_below_fhtw_restricted_case(self):
        for seed in range(10):
            query = small_random_query(seed + 5000, allow_products=False, allow_free=False)
            tags = {query.aggregates[v].tag for v in query.bound}
            if len(tags) != 1:
                continue
            width = faq_width_of_query(query)
            fhtw = fractional_hypertree_width(query.hypergraph(), exact_limit=6)
            assert width == pytest.approx(fhtw, abs=1e-6)

    def test_extension_limit_still_returns_valid_ordering(self):
        query = example_6_2_query()
        width, ordering = faq_width_of_query(query, extension_limit=3, return_ordering=True)
        assert is_equivalent_ordering(query, ordering)
        assert width >= faq_width_of_query(query) - 1e-9


class TestApproximation:
    def test_approx_ordering_is_equivalent(self):
        for maker in (example_6_13_query, example_6_2_query, example_5_6_query):
            query = maker()
            ordering = approximate_faqw_ordering(query)
            assert sorted(ordering) == sorted(query.order)
            assert is_equivalent_ordering(query, ordering)

    def test_approx_ordering_for_example_6_19_is_sound(self):
        query = example_6_19_query()
        ordering = approximate_faqw_ordering(query)
        assert sorted(ordering) == sorted(query.order)
        expected = query.evaluate_scalar_brute_force()
        assert inside_out(query, ordering=list(ordering)).scalar_or_zero(COUNTING) == expected

    def test_approx_width_close_to_optimal_on_small_queries(self):
        for maker in (example_6_13_query, example_6_2_query, example_5_6_query):
            query = maker()
            optimal = faq_width_of_query(query)
            approx = faq_width_of_ordering(query, approximate_faqw_ordering(query))
            # Theorem 7.2 guarantee: approx <= opt + g(opt); with the exact
            # inner solver used for small nodes, g(opt) <= opt.
            assert approx <= 2 * optimal + 1e-9

    @pytest.mark.parametrize("shape", ["faq-ss", "multi-aggregate"])
    def test_approx_width_within_theorem_7_2_on_random_queries(self, shape):
        # Theorem 7.2: approx <= opt + g(opt), and g(opt) <= opt with the
        # exact inner solver this size of node gets.
        for seed in range(64):
            query = small_random_query(
                seed + 8100, allow_products=shape != "faq-ss", max_variables=6
            )
            if shape == "faq-ss":
                query = FAQQuery(
                    list(query.variables.values()), query.free,
                    {v: SemiringAggregate.sum() for v in query.aggregates},
                    query.factors, query.semiring, name=query.name,
                )
            optimal = faq_width_of_query(query, extension_limit=None)
            approx = faq_width_of_ordering(query, approximate_faqw_ordering(query))
            # the approximation is itself a linear extension: never below the optimum
            assert optimal - 1e-9 <= approx <= 2 * optimal + 1e-9, (shape, seed, approx, optimal)

    def test_approx_ordering_keeps_free_variables_first(self):
        for seed in range(15):
            query = small_random_query(seed + 6000, allow_free=True)
            ordering = approximate_faqw_ordering(query)
            assert set(ordering[: query.num_free]) == set(query.free)

    def test_approx_ordering_results_match_brute_force(self):
        for seed in range(20):
            query = small_random_query(seed + 7000, allow_products=True, zero_one=True)
            ordering = approximate_faqw_ordering(query)
            expected = query.evaluate_brute_force()
            got = inside_out(query, ordering=list(ordering)).factor
            assert expected.equals(got, query.semiring), seed


class TestNodeHypergraph:
    def test_leaf_node_hypergraph_is_induced(self):
        query = example_6_13_query()
        tree = build_expression_tree(query)
        leaf = tree.root.children[0].children[0]  # the {x2} node
        graph = node_hypergraph(query, tree, leaf)
        assert graph.vertices == frozenset({"x2"})

    def test_internal_node_gets_child_contributions(self):
        query = example_6_2_query()
        tree = build_expression_tree(query)
        top = tree.root.children[0]  # {x1, x2, x4}
        graph = node_hypergraph(query, tree, top)
        assert graph.vertices == frozenset({"x1", "x2", "x4"})
        # The child subtree {x3, x7, x5} touches edges {1,3,5},{2,7},{3,7}
        # whose projection onto the node is {x1, x2}.
        assert frozenset({"x1", "x2"}) in graph.edges
