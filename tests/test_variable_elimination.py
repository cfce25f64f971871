"""Tests for the textbook variable-elimination baseline."""

import pytest

from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, QueryError, Variable
from repro.core.variable_elimination import variable_elimination
from repro.semiring.aggregates import ProductAggregate, SemiringAggregate
from repro.semiring.standard import COUNTING

from _helpers import make_factor, small_random_query


class TestCorrectness:
    def test_matches_brute_force_on_triangle(self, triangle_query):
        expected = triangle_query.evaluate_scalar_brute_force()
        assert variable_elimination(triangle_query).scalar == expected

    def test_matches_insideout_on_random_single_semiring_queries(self):
        matched = 0
        for seed in range(60):
            query = small_random_query(seed, allow_products=True)
            tags = {query.aggregates[v].tag for v in query.semiring_variables}
            if len(tags) > 1:
                continue
            matched += 1
            expected = inside_out(query).factor
            got = variable_elimination(query).factor
            assert expected.equals(got, query.semiring), f"seed {seed}"
        assert matched >= 10  # the filter must not have skipped everything

    def test_free_variable_output(self):
        psi = make_factor(("A", "B"), {(0, 0): 1, (0, 1): 2, (1, 1): 3})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=["A"],
            aggregates={"B": SemiringAggregate.sum()},
            factors=[psi],
            semiring=COUNTING,
        )
        assert variable_elimination(query).factor.table == {(0,): 3, (1,): 3}

    def test_isolated_free_variable_expansion(self):
        psi = make_factor(("A",), {(0,): 2})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=["A", "B"],
            aggregates={},
            factors=[psi],
            semiring=COUNTING,
        )
        result = variable_elimination(query)
        assert result.factor.value({"A": 0, "B": 1}, COUNTING) == 2

    def test_product_aggregates_supported(self):
        psi = make_factor(("A", "B"), {(0, 0): 2, (0, 1): 3, (1, 0): 5})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=["A"],
            aggregates={"B": ProductAggregate.product()},
            factors=[psi],
            semiring=COUNTING,
        )
        assert variable_elimination(query).factor.table == {(0,): 6}


class TestRestrictions:
    def test_multiple_semiring_aggregates_rejected(self):
        psi = make_factor(("A", "B"), {(0, 0): 1})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=[],
            aggregates={"A": SemiringAggregate.sum(), "B": SemiringAggregate.max()},
            factors=[psi],
            semiring=COUNTING,
        )
        with pytest.raises(QueryError):
            variable_elimination(query)

    def test_invalid_ordering_rejected(self, triangle_query):
        with pytest.raises(QueryError):
            variable_elimination(triangle_query, ordering=["A", "B"])

    def test_duplicated_ordering_rejected(self):
        """A repeated variable covers the right *set* but is no permutation:
        eliminating ``c`` twice would fold its domain in twice (81, not 27)."""
        domain = (0, 1, 2)
        pairs = {(i, j): 1 for i in domain for j in domain}
        query = FAQQuery(
            variables=[Variable(v, domain) for v in "abc"],
            free=[],
            aggregates={v: SemiringAggregate.sum() for v in "abc"},
            factors=[make_factor(("a", "b"), pairs), make_factor(("b", "c"), pairs)],
            semiring=COUNTING,
        )
        assert variable_elimination(query, ordering=["a", "b", "c"]).scalar == 27
        with pytest.raises(QueryError):
            variable_elimination(query, ordering=["a", "b", "c", "c"])
        with pytest.raises(QueryError):
            inside_out(query, ordering=["a", "b", "c", "c"])

    def test_scalar_accessor_requires_no_free_variables(self):
        psi = make_factor(("A",), {(0,): 1})
        query = FAQQuery(
            variables=[Variable("A", (0, 1))],
            free=["A"],
            aggregates={},
            factors=[psi],
            semiring=COUNTING,
        )
        with pytest.raises(QueryError):
            _ = variable_elimination(query).scalar


class TestStats:
    def test_intermediate_sizes_recorded(self, triangle_query):
        result = variable_elimination(triangle_query)
        assert result.stats.max_intermediate_size >= 1
        assert len(result.stats.steps) >= 1

    def test_insideout_intermediates_never_larger_with_projections(self):
        # On the highly selective triangle instance the InsideOut intermediate
        # (bounded by the AGM/fractional cover of the bags) must not exceed
        # the pairwise-product intermediate of plain variable elimination.
        r = make_factor(("A", "B"), {(i, j): 1 for i in range(8) for j in range(8)})
        s = make_factor(("B", "C"), {(i, i): 1 for i in range(8)})
        t = make_factor(("A", "C"), {(i, i): 1 for i in range(8)})
        query = FAQQuery(
            variables=[Variable(v, tuple(range(8))) for v in "ABC"],
            free=[],
            aggregates={v: SemiringAggregate.sum() for v in "ABC"},
            factors=[r, s, t],
            semiring=COUNTING,
        )
        io = inside_out(query, ordering=["A", "B", "C"])
        ve = variable_elimination(query, ordering=["A", "B", "C"])
        assert io.scalar == ve.scalar
        assert io.stats.max_intermediate_size <= ve.stats.max_intermediate_size
