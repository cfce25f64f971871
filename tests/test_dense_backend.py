"""Sparse/dense backend equivalence (the pluggable factor-backend layer).

Property-style tests asserting that the dense (ndarray) representation and
the sparse listing representation compute identical results: per-operation
on random factors across the standard semirings, and per-query through
InsideOut / variable elimination against the brute-force evaluator —
including empty-table and zero-annihilation edge cases.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from _helpers import random_factor, small_random_query

from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, QueryError, Variable
from repro.core.variable_elimination import variable_elimination
from repro.factors.backend import (
    BackendPolicy,
    as_dense,
    as_sparse,
    dense_join_reduce,
    prefer_dense,
    supports_dense,
)
from repro.factors.factor import Factor
from repro.semiring.aggregates import SemiringAggregate, semiring_aggregate
from repro.semiring.standard import (
    BOOLEAN,
    COUNTING,
    MAX_PRODUCT,
    MAX_SUM,
    MIN_PLUS,
    MIN_PRODUCT,
    SUM_PRODUCT,
    set_semiring,
)

# (semiring, matching aggregate combine, aggregate tag, value sampler)
SEMIRING_CASES = [
    (BOOLEAN, SemiringAggregate.logical_or(), lambda rng: True),
    (COUNTING, SemiringAggregate.sum(), lambda rng: rng.randint(1, 5)),
    (SUM_PRODUCT, SemiringAggregate.sum(), lambda rng: round(rng.uniform(0.1, 2.0), 3)),
    (MAX_PRODUCT, SemiringAggregate.max(), lambda rng: round(rng.uniform(0.1, 2.0), 3)),
    (MIN_PLUS, SemiringAggregate.min(), lambda rng: round(rng.uniform(-1.0, 3.0), 3)),
    (MAX_SUM, SemiringAggregate.max(), lambda rng: round(rng.uniform(-2.0, 2.0), 3)),
]

DOMAINS = {"A": (0, 1, 2), "B": (0, 1), "C": (0, 1, 2, 3)}


def sampled_factor(scope, semiring, sampler, rng, density=0.7):
    table = {}
    for values in itertools.product(*(DOMAINS[v] for v in scope)):
        if rng.random() < density:
            table[values] = sampler(rng)
    return Factor(tuple(scope), table)


@pytest.mark.parametrize(
    "semiring,aggregate,sampler",
    SEMIRING_CASES,
    ids=[case[0].name for case in SEMIRING_CASES],
)
class TestOperationEquivalence:
    """Each factor operation agrees between the two representations."""

    def test_round_trip(self, semiring, aggregate, sampler):
        rng = random.Random(1)
        factor = sampled_factor(("A", "B"), semiring, sampler, rng)
        dense = as_dense(factor, DOMAINS, semiring)
        assert as_sparse(dense, semiring).equals(factor, semiring)
        assert len(dense) == len(factor.pruned(semiring))

    def test_multiply(self, semiring, aggregate, sampler):
        rng = random.Random(2)
        left = sampled_factor(("A", "B"), semiring, sampler, rng)
        right = sampled_factor(("B", "C"), semiring, sampler, rng)
        expected = left.multiply(right, semiring)
        got = as_dense(left, DOMAINS, semiring).multiply(
            as_dense(right, DOMAINS, semiring), semiring
        )
        assert got.equals(expected, semiring)

    def test_aggregate_marginalize(self, semiring, aggregate, sampler):
        rng = random.Random(3)
        factor = sampled_factor(("A", "B", "C"), semiring, sampler, rng)
        expected = factor.aggregate_marginalize("B", aggregate.combine, semiring)
        got = as_dense(factor, DOMAINS, semiring).aggregate_marginalize(
            "B", aggregate.tag, semiring
        )
        assert got.equals(expected, semiring)

    def test_product_marginalize(self, semiring, aggregate, sampler):
        rng = random.Random(4)
        factor = sampled_factor(("A", "B"), semiring, sampler, rng, density=0.8)
        expected = factor.product_marginalize("B", len(DOMAINS["B"]), semiring)
        got = as_dense(factor, DOMAINS, semiring).product_marginalize(
            "B", len(DOMAINS["B"]), semiring
        )
        assert got.equals(expected, semiring)

    def test_power(self, semiring, aggregate, sampler):
        rng = random.Random(5)
        factor = sampled_factor(("A", "B"), semiring, sampler, rng)
        dense = as_dense(factor, DOMAINS, semiring)
        for exponent in (0, 1, 3):
            assert dense.power(exponent, semiring).equals(
                factor.power(exponent, semiring), semiring
            )

    def test_indicator_projection(self, semiring, aggregate, sampler):
        rng = random.Random(6)
        factor = sampled_factor(("A", "B", "C"), semiring, sampler, rng)
        expected = factor.indicator_projection(("A", "C"), semiring)
        got = as_dense(factor, DOMAINS, semiring).indicator_projection(("A", "C"), semiring)
        assert got.equals(expected, semiring)

    def test_join_reduce_matches_sparse_pipeline(self, semiring, aggregate, sampler):
        rng = random.Random(7)
        left = sampled_factor(("A", "B"), semiring, sampler, rng)
        right = sampled_factor(("B", "C"), semiring, sampler, rng)
        expected = left.multiply(right, semiring).aggregate_marginalize(
            "B", aggregate.combine, semiring
        )
        got = dense_join_reduce(
            [left, right], semiring, DOMAINS, ("A", "C"), ("B",), aggregate.tag
        )
        assert got.equals(expected, semiring)

    def test_has_idempotent_range(self, semiring, aggregate, sampler):
        rng = random.Random(8)
        factor = sampled_factor(("A",), semiring, sampler, rng, density=1.0)
        dense = as_dense(factor, DOMAINS, semiring)
        assert dense.has_idempotent_range(semiring) == factor.has_idempotent_range(semiring)


class TestEdgeCases:
    def test_empty_table_round_trip(self):
        empty = Factor(("A", "B"), {})
        dense = as_dense(empty, DOMAINS, COUNTING)
        assert len(dense) == 0
        assert dense.is_identically_zero(COUNTING)
        assert as_sparse(dense, COUNTING).table == {}

    def test_zero_annihilation_in_dense_product(self):
        """A zero cell annihilates the product even when the other operand
        lists a value there — the dense analogue of key absence."""
        left = Factor(("A",), {(0,): 2, (1,): 3})
        right = Factor(("A",), {(1,): 5})  # zero at A=0
        got = as_dense(left, DOMAINS, COUNTING).multiply(
            as_dense(right, DOMAINS, COUNTING), COUNTING
        )
        assert as_sparse(got, COUNTING).table == {(1,): 15}

    def test_empty_factor_in_query_gives_zero_result(self):
        query = FAQQuery(
            variables=[Variable("A", DOMAINS["A"]), Variable("B", DOMAINS["B"])],
            free=[],
            aggregates={
                "A": SemiringAggregate.sum(),
                "B": SemiringAggregate.sum(),
            },
            factors=[Factor(("A", "B"), {}), Factor(("A",), {(0,): 4})],
            semiring=COUNTING,
        )
        for backend in ("sparse", "dense", "auto"):
            assert inside_out(query, backend=backend).factor.table == {}

    def test_scalar_query_dense(self):
        query = FAQQuery(
            variables=[Variable("A", (0, 1))],
            free=[],
            aggregates={"A": SemiringAggregate.sum()},
            factors=[Factor(("A",), {(0,): 2, (1,): 3})],
            semiring=COUNTING,
        )
        assert inside_out(query, backend="dense").scalar == 5

    def test_tropical_zero_is_not_equal_to_finite_values(self):
        """Regression: a relative tolerance of 1e-9 * inf used to declare
        every value equal to the tropical identity ``+inf``."""
        assert not MIN_PLUS.is_zero(4.5)
        assert not MAX_SUM.is_zero(-3.0)
        assert MIN_PLUS.is_zero(math.inf)

    def test_counting_uses_exact_python_ints(self):
        big = 10**30
        factor = Factor(("A",), {(0,): big, (1,): big})
        dense = as_dense(factor, DOMAINS, COUNTING)
        squared = dense.power(3, COUNTING)
        assert as_sparse(squared, COUNTING).table[(0,)] == big**3

    def test_dense_factor_as_query_input(self):
        sparse = Factor(("A", "B"), {(0, 0): 1, (1, 1): 2, (2, 0): 3})
        dense = as_dense(sparse, DOMAINS, COUNTING)
        variables = [Variable("A", DOMAINS["A"]), Variable("B", DOMAINS["B"])]
        aggregates = {"B": SemiringAggregate.sum()}
        reference = FAQQuery(variables, ["A"], aggregates, [sparse], COUNTING)
        query = FAQQuery(variables, ["A"], aggregates, [dense], COUNTING)
        expected = reference.evaluate_brute_force()
        for backend in ("sparse", "dense", "auto"):
            got = inside_out(query, backend=backend).factor
            assert expected.equals(got, COUNTING), backend

    def test_unsupported_semiring_falls_back_to_sparse(self):
        assert not supports_dense(MIN_PRODUCT)
        assert not supports_dense(set_semiring(range(3)))
        universe = frozenset(range(3))
        sets = set_semiring(universe)
        query = FAQQuery(
            variables=[Variable("A", (0, 1))],
            free=[],
            aggregates={"A": semiring_aggregate("union", lambda a, b: a | b, frozenset())},
            factors=[Factor(("A",), {(0,): frozenset({1}), (1,): frozenset({2})})],
            semiring=sets,
        )
        # backend="dense" must silently stay sparse, not crash.
        result = inside_out(query, backend="dense")
        assert result.stats.steps[0].backend == "sparse"


class TestHeuristic:
    def test_dense_participants_prefer_dense(self):
        rng = random.Random(9)
        factor = sampled_factor(("A", "B"), SUM_PRODUCT, lambda r: r.random() + 0.1, rng, density=1.0)
        assert prefer_dense([factor], ("A", "B"), DOMAINS, SUM_PRODUCT, ("sum",))

    def test_sparse_participants_prefer_sparse(self):
        domains = {"A": tuple(range(500)), "B": tuple(range(500))}
        factor = Factor(("A", "B"), {(i, i): 1.0 for i in range(20)})
        assert not prefer_dense([factor], ("A", "B"), domains, SUM_PRODUCT, ("sum",))

    def test_cell_cap_bounds_the_dense_box(self):
        policy = BackendPolicy(cell_cap=4, density_ratio=8.0)
        rng = random.Random(10)
        factor = sampled_factor(("A", "C"), SUM_PRODUCT, lambda r: 1.0, rng, density=1.0)
        assert not prefer_dense(
            [factor], ("A", "C"), DOMAINS, SUM_PRODUCT, ("sum",), policy
        )

    def test_unmappable_aggregate_tag_stays_sparse(self):
        rng = random.Random(11)
        factor = sampled_factor(("A",), SUM_PRODUCT, lambda r: 1.0, rng, density=1.0)
        assert not prefer_dense([factor], ("A",), DOMAINS, SUM_PRODUCT, ("median",))

    def test_auto_backend_records_per_step_choice(self):
        query = small_random_query(123, semiring=COUNTING)
        result = inside_out(query, backend="auto")
        assert all(step.backend in ("sparse", "dense") for step in result.stats.steps)


class TestQueryEquivalence:
    """InsideOut and VE give brute-force answers on every backend."""

    @pytest.mark.parametrize("seed", range(25))
    def test_insideout_backends_match_brute_force(self, seed):
        for semiring in (COUNTING, SUM_PRODUCT):
            query = small_random_query(seed + 5000, semiring=semiring)
            expected = query.evaluate_brute_force()
            for backend in ("sparse", "dense", "auto"):
                got = inside_out(query, backend=backend).factor
                assert expected.equals(got, query.semiring), (seed, semiring.name, backend)

    @pytest.mark.parametrize("seed", range(15))
    def test_variable_elimination_backends_match_brute_force(self, seed):
        query = small_random_query(seed + 6000, semiring=COUNTING)
        tags = {query.aggregates[v].tag for v in query.semiring_variables}
        if len(tags) > 1:
            pytest.skip("VE is FAQ-SS only")
        expected = query.evaluate_brute_force()
        for backend in ("sparse", "dense", "auto"):
            got = variable_elimination(query, backend=backend).factor
            assert expected.equals(got, query.semiring), (seed, backend)

    def test_boolean_query_dense(self):
        rng = random.Random(12)
        factors = [
            random_factor(("A", "B"), DOMAINS, rng, zero_one=True),
            random_factor(("B", "C"), DOMAINS, rng, zero_one=True),
        ]
        factors = [f.map_values(lambda v: True) for f in factors]
        query = FAQQuery(
            variables=[Variable(v, DOMAINS[v]) for v in ("A", "B", "C")],
            free=["A"],
            aggregates={
                "B": SemiringAggregate.logical_or(),
                "C": SemiringAggregate.logical_or(),
            },
            factors=factors,
            semiring=BOOLEAN,
        )
        expected = query.evaluate_brute_force()
        for backend in ("sparse", "dense", "auto"):
            assert expected.equals(inside_out(query, backend=backend).factor, BOOLEAN)

    def test_min_plus_query_dense(self):
        rng = random.Random(13)

        def sampler(r):
            return round(r.uniform(-1.0, 3.0), 3)

        factors = [
            sampled_factor(("A", "B"), MIN_PLUS, sampler, rng),
            sampled_factor(("B", "C"), MIN_PLUS, sampler, rng),
        ]
        query = FAQQuery(
            variables=[Variable(v, DOMAINS[v]) for v in ("A", "B", "C")],
            free=["A"],
            aggregates={
                "B": SemiringAggregate.min(),
                "C": SemiringAggregate.min(),
            },
            factors=factors,
            semiring=MIN_PLUS,
        )
        expected = query.evaluate_brute_force()
        for backend in ("sparse", "dense", "auto"):
            assert expected.equals(inside_out(query, backend=backend).factor, MIN_PLUS)

    def test_invalid_backend_rejected(self):
        query = small_random_query(77)
        with pytest.raises((ValueError, QueryError)):
            inside_out(query, backend="gpu")
