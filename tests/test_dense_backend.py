"""Sparse/dense backend equivalence (the pluggable factor-backend layer).

Property-style tests asserting that the dense (ndarray) representation and
the sparse listing representation compute the same results: per-operation
on random factors across the standard semirings, and per-query through
InsideOut / variable elimination against the brute-force evaluator —
including empty-table and zero-annihilation edge cases.  A (+, ×) step over
floats is an ``einsum`` contraction that sums in its own order, so it is
held to the float contract of ``dense_join_reduce`` (``values_equal``; ``==``
on small integers); every other step to the broadcast fold, bit for bit.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from _helpers import random_factor, small_random_query

from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, QueryError, Variable
from repro.core.variable_elimination import variable_elimination
from repro.factors.backend import (
    BackendPolicy,
    _einsum_path,
    as_dense,
    as_sparse,
    dense_join_reduce,
    prefer_dense,
    supports_dense,
)
from repro.factors.dense import DenseFactor, aggregate_ufunc, aligned_array, dense_ops_for
from repro.factors.factor import Factor, FactorError
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
from repro.semiring.base import TOLERANCE
from repro.solvers.matrix import COMPLEX_SUM_PRODUCT

# (semiring, matching aggregate combine, aggregate tag, value sampler)
SEMIRING_CASES = [
    (BOOLEAN, SemiringAggregate.logical_or(), lambda rng: True),
    (COUNTING, SemiringAggregate.sum(), lambda rng: rng.randint(1, 5)),
    (SUM_PRODUCT, SemiringAggregate.sum(), lambda rng: round(rng.uniform(0.1, 2.0), 3)),
    (MAX_PRODUCT, SemiringAggregate.max(), lambda rng: round(rng.uniform(0.1, 2.0), 3)),
    (MIN_PLUS, SemiringAggregate.min(), lambda rng: round(rng.uniform(-1.0, 3.0), 3)),
    (MAX_SUM, SemiringAggregate.max(), lambda rng: round(rng.uniform(-2.0, 2.0), 3)),
    (
        COMPLEX_SUM_PRODUCT,
        SemiringAggregate.sum(),
        lambda rng: complex(round(rng.uniform(-1.0, 2.0), 3), round(rng.uniform(-1.0, 1.0), 3)),
    ),
]

DOMAINS = {"A": (0, 1, 2), "B": (0, 1), "C": (0, 1, 2, 3)}


def sampled_factor_over(scope, domains, sampler, rng, density=0.7):
    table = {}
    for values in itertools.product(*(domains[v] for v in scope)):
        if rng.random() < density:
            table[values] = sampler(rng)
    return Factor(tuple(scope), table)


def sampled_factor(scope, semiring, sampler, rng, density=0.7):
    return sampled_factor_over(scope, DOMAINS, sampler, rng, density)


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


WIDE = {"A": (0, 1, 2), "W": tuple(range(24))}


def padded(extra, many, one=1.0):
    """``extra`` over ``(A, W)``, plus ``one`` on all of ``A = 0`` when
    ``many``: a few listed tuples take the per-cell store, 24 more the
    vectorised one."""
    table = {(0, w): one for w in WIDE["W"]} if many else {}
    table.update(extra)
    return Factor(("A", "W"), table)


@pytest.mark.parametrize("many", [False, True], ids=["per-cell", "vectorised"])
class TestFromFactor:
    """Densifying a listing stores the same cells whichever way it runs."""

    def test_value_within_tolerance_of_zero_is_an_exact_zero_cell(self, many):
        factor = padded({(1, 0): TOLERANCE / 2, (1, 1): 2.0, (2, 0): -TOLERANCE}, many)
        dense = DenseFactor.from_factor(factor, WIDE, SUM_PRODUCT)
        assert dense.array[1, 0] == 0.0 and dense.array[2, 0] == 0.0
        assert dense.array[1, 1] == 2.0
        assert len(dense) == len(factor) - 2

    def test_out_of_domain_tuple_raises(self, many):
        with pytest.raises(FactorError, match=r"\(7, 1\)"):
            DenseFactor.from_factor(padded({(7, 1): 2.0}, many), WIDE, SUM_PRODUCT)
        # A zero is never placed, so it is never looked up either.
        factor = padded({(1, 1): 3.0, (7, 1): 0.0}, many)
        assert len(DenseFactor.from_factor(factor, WIDE, SUM_PRODUCT)) == len(factor) - 1

    def test_counting_keeps_exact_python_ints(self, many):
        factor = padded({(1, 1): 10**30 + 1}, many, one=1)
        dense = DenseFactor.from_factor(factor, WIDE, COUNTING)
        assert dense.array.dtype == object
        assert as_sparse(dense, COUNTING).table == factor.table


@pytest.mark.parametrize("semiring,value", [(SUM_PRODUCT, 2.5), (COUNTING, 10**30)])
def test_from_factor_empty_scope_round_trips(semiring, value):
    dense = DenseFactor.from_factor(Factor((), {(): value}), WIDE, semiring)
    assert dense.array.shape == ()
    assert as_sparse(dense, semiring).table == {(): value}
    empty = DenseFactor.from_factor(Factor((), {}), WIDE, semiring)
    assert as_sparse(empty, semiring).table == {}


# Four variables, so every case's step box is ``size ** 4`` cells: at 81 and
# 10 000 einsum runs its plain loop, at 38 416 (>= 2**15) its path search
# unless there is one operand to contract.
BOX = ("A", "B", "C", "D")

# (id, participant scopes, output scope, reduced variables)
CONTRACTION_CASES = [
    ("one-operand", [("A", "B", "C", "D")], ("A",), ("B", "C", "D")),
    ("two-operands", [("A", "B", "C"), ("C", "D")], ("A", "D"), ("B", "C")),
    ("four-operands", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")], ("A", "C"), ("B", "D")),
    ("outer-product", [("A", "B"), ("C", "D")], ("A", "B", "C", "D"), ()),
]


def broadcast_reference(participants, semiring, domains, output_scope, reduce_variables, tag):
    """The broadcast-then-fold step, written out: every participant aligned
    to the full box, ``⊗`` by broadcasting, the trailing axes ufunc-folded."""
    ops = dense_ops_for(semiring)
    target = tuple(output_scope) + tuple(reduce_variables)
    product = None
    for factor in participants:
        aligned = aligned_array(as_dense(factor, domains, semiring), target)
        product = aligned if product is None else ops.mul(product, aligned)
    product = np.broadcast_to(np.asarray(product), tuple(len(domains[v]) for v in target))
    for _ in reduce_variables:
        product = aggregate_ufunc(tag).reduce(product, axis=-1)
    return np.array(product, dtype=ops.dtype)


def sparse_pipeline(participants, semiring, aggregate, reduce_variables):
    product = participants[0]
    for factor in participants[1:]:
        product = product.multiply(factor, semiring)
    for variable in reduce_variables:
        product = product.aggregate_marginalize(variable, aggregate.combine, semiring)
    return product


@pytest.fixture
def einsum_calls(monkeypatch):
    """Per ``np.einsum`` call, in order: whether it was handed a path.

    A path handed over must be the one ``optimize=True`` would search.
    """
    calls = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        path = kwargs.get("optimize", False)
        if path is not False:
            assert path == np.einsum_path(*args, optimize=True)[0]
        calls.append(path is not False)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return calls


class TestContraction:
    """Sum-product steps are one ``einsum``; the float contract holds."""

    @pytest.mark.parametrize("size", [3, 10, 14])
    @pytest.mark.parametrize(
        "case", CONTRACTION_CASES, ids=[case[0] for case in CONTRACTION_CASES]
    )
    def test_small_integer_floats_are_exact(self, case, size, einsum_calls):
        _, scopes, output, reduced = case
        domains = {v: tuple(range(size)) for v in BOX}
        rng = random.Random(size)
        participants = [
            sampled_factor_over(scope, domains, lambda r: float(r.randint(1, 4)), rng)
            for scope in scopes
        ]
        got = dense_join_reduce(participants, SUM_PRODUCT, domains, output, reduced, "sum")
        expected = sparse_pipeline(participants, SUM_PRODUCT, SemiringAggregate.sum(), reduced)
        assert as_sparse(got, SUM_PRODUCT).table == expected.table
        assert einsum_calls == [len(scopes) > 1 and size**4 >= 1 << 15]

    @pytest.mark.parametrize("size", [3, 14])
    @pytest.mark.parametrize(
        "case", CONTRACTION_CASES, ids=[case[0] for case in CONTRACTION_CASES]
    )
    @pytest.mark.parametrize(
        "semiring,sampler",
        [
            (SUM_PRODUCT, lambda r: r.uniform(0.1, 2.0)),
            (COMPLEX_SUM_PRODUCT, lambda r: complex(r.uniform(-1.0, 2.0), r.uniform(-1.0, 1.0))),
        ],
        ids=["sum-product", "complex-sum-product"],
    )
    def test_random_floats_agree_within_values_equal(self, semiring, sampler, case, size):
        _, scopes, output, reduced = case
        domains = {v: tuple(range(size)) for v in BOX}
        rng = random.Random(size + 1)
        participants = [sampled_factor_over(scope, domains, sampler, rng) for scope in scopes]
        got = dense_join_reduce(participants, semiring, domains, output, reduced, "sum")
        expected = sparse_pipeline(participants, semiring, SemiringAggregate.sum(), reduced)
        assert got.equals(expected, semiring)

    def test_unmentioned_output_and_reduced_variables(self, einsum_calls):
        domains = dict(DOMAINS, D=(0, 1, 2, 3, 4), E=("x", "y", "z"))
        rng = random.Random(14)
        participant = sampled_factor_over(
            ("A", "B"), domains, lambda r: float(r.randint(1, 4)), rng
        )
        got = dense_join_reduce(
            [participant], SUM_PRODUCT, domains, ("A", "D"), ("B", "E"), "sum"
        )
        assert einsum_calls == [False]
        assert got.scope == ("A", "D")
        marginal = participant.aggregate_marginalize("B", SemiringAggregate.sum().combine, SUM_PRODUCT)
        for a in domains["A"]:
            for d in domains["D"]:
                # D is a constant direction; E folds |Dom(E)| = 3 copies.
                assert got.value({"A": a, "D": d}, SUM_PRODUCT) == 3 * marginal.value(
                    {"A": a}, SUM_PRODUCT
                )
        assert np.array_equal(
            got.array,
            broadcast_reference(
                [participant], SUM_PRODUCT, domains, ("A", "D"), ("B", "E"), "sum"
            ),
        )

    @pytest.mark.parametrize("count", [52, 53])
    def test_more_than_52_variables_take_the_broadcast_path(self, count, einsum_calls):
        names = [f"V{i}" for i in range(count)]
        # Two-valued ends, one-valued middle: a small box over many axes.
        domains = {v: (0,) for v in names}
        for v in (names[0], names[1], names[-1]):
            domains[v] = (0, 1)
        half = count // 2
        rng = random.Random(count)
        participants = [
            sampled_factor_over(names[: half + 1], domains, lambda r: float(r.randint(1, 4)), rng, 1.0),
            sampled_factor_over(names[half:], domains, lambda r: float(r.randint(1, 4)), rng, 1.0),
        ]
        reduced = tuple(names[half:])
        got = dense_join_reduce(
            participants, SUM_PRODUCT, domains, tuple(names[:half]), reduced, "sum"
        )
        expected = sparse_pipeline(participants, SUM_PRODUCT, SemiringAggregate.sum(), reduced)
        assert as_sparse(got, SUM_PRODUCT).table == expected.table
        assert einsum_calls == ([False] if count <= 52 else [])

    @pytest.mark.parametrize(
        "case", CONTRACTION_CASES, ids=[case[0] for case in CONTRACTION_CASES]
    )
    @pytest.mark.parametrize(
        "semiring,tag,sampler",
        [
            (BOOLEAN, "or", lambda r: True),
            (COUNTING, "sum", lambda r: r.randint(1, 4) * 10**20),
            (MAX_PRODUCT, "max", lambda r: r.uniform(0.1, 2.0)),
            (MIN_PLUS, "min", lambda r: r.uniform(-1.0, 3.0)),
            (MAX_SUM, "max", lambda r: r.uniform(-2.0, 2.0)),
            (SUM_PRODUCT, "max", lambda r: r.uniform(0.1, 2.0)),
        ],
        ids=["boolean", "counting", "max-product", "min-plus", "max-sum", "sum-product-max"],
    )
    def test_other_steps_are_the_broadcast_bit_for_bit(
        self, semiring, tag, sampler, case, einsum_calls
    ):
        _, scopes, output, reduced = case
        domains = {v: tuple(range(4)) for v in BOX}
        rng = random.Random(15)
        participants = [sampled_factor_over(scope, domains, sampler, rng) for scope in scopes]
        got = dense_join_reduce(participants, semiring, domains, output, reduced, tag)
        expected = broadcast_reference(participants, semiring, domains, output, reduced, tag)
        assert got.array.dtype == expected.dtype
        assert np.array_equal(got.array, expected)
        # A sum-product step that reduces nothing is a contraction whatever
        # its tag; every other step here never reaches einsum.
        assert einsum_calls == ([False] if semiring is SUM_PRODUCT and not reduced else [])

    @pytest.mark.parametrize(
        "case", CONTRACTION_CASES, ids=[case[0] for case in CONTRACTION_CASES]
    )
    @pytest.mark.parametrize(
        "semiring,sampler",
        [
            (SUM_PRODUCT, lambda r: r.uniform(0.1, 2.0)),
            (COMPLEX_SUM_PRODUCT, lambda r: complex(r.uniform(-1.0, 2.0), r.uniform(-1.0, 1.0))),
        ],
        ids=["sum-product", "complex-sum-product"],
    )
    def test_a_memoised_path_contracts_bit_for_bit(self, semiring, sampler, case, monkeypatch):
        _, scopes, output, reduced = case
        domains = {v: tuple(range(14)) for v in BOX}
        rng = random.Random(16)
        participants = [sampled_factor_over(scope, domains, sampler, rng) for scope in scopes]
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: calls.append(args) or einsum(*args, **kwargs))
        for _ in range(2):  # the second contraction's path is a memo hit
            got = dense_join_reduce(participants, semiring, domains, output, reduced, "sum")
            searched = einsum(*calls[-1], optimize=True)
            assert np.array_equal(got.array, searched)

    def test_the_path_memo_is_keyed_by_shape_and_bounded(self):
        subscripts = "ab,bc,cd->ad"
        paths = []
        for shapes in (((2, 50), (50, 50), (50, 50)), ((50, 50), (50, 50), (50, 2))):
            path = _einsum_path(subscripts, shapes)
            operands = [np.ones(shape) for shape in shapes]
            assert list(path) == np.einsum_path(subscripts, *operands, optimize=True)[0]
            assert _einsum_path(subscripts, shapes) is path
            paths.append(path)
        assert paths[0] != paths[1]  # equal subscripts, other shapes: own path
        bound = _einsum_path.cache_info().maxsize
        for n in range(1, bound + 10):
            _einsum_path("ab,bc->ac", ((n, 2), (2, 3)))
        assert _einsum_path.cache_info().currsize == bound


class TestFrozenInputs:
    """Every dense kernel reads frozen arrays and returns a writeable array
    of its own: holders keep their arrays frozen, and a result that aliased
    one would be a stored array handed on."""

    @staticmethod
    def frozen(scope, semiring, sampler, seed=0):
        factor = sampled_factor(scope, semiring, sampler, random.Random(seed))
        return as_dense(factor, DOMAINS, semiring).freeze()

    @staticmethod
    def assert_fresh(result, inputs):
        assert result.array.flags.writeable
        assert not any(np.shares_memory(result.array, dense.array) for dense in inputs)

    @pytest.mark.parametrize(
        "semiring,tag,sampler",
        [
            (SUM_PRODUCT, "sum", lambda r: r.uniform(0.1, 2.0)),
            (MAX_PRODUCT, "max", lambda r: r.uniform(0.1, 2.0)),
            (COUNTING, "sum", lambda r: r.randint(1, 4)),
        ],
        ids=["contraction", "broadcast", "broadcast-object"],
    )
    @pytest.mark.parametrize(
        "scopes,output,reduced",
        [
            ([("A", "B")], ("A", "B"), ()),  # einsum returns a view of its operand
            ([("A", "B")], ("B", "A"), ()),
            ([("A", "B")], ("A",), ("B",)),
            ([("A", "B"), ("B", "C")], ("A", "C"), ("B",)),
            ([("A", "B"), ("B", "C")], ("A", "B", "C"), ()),
        ],
        ids=["identity", "transpose", "one-reduced", "join-reduced", "join"],
    )
    def test_dense_join_reduce(self, semiring, tag, sampler, scopes, output, reduced):
        inputs = [self.frozen(scope, semiring, sampler, seed) for seed, scope in enumerate(scopes)]
        result = dense_join_reduce(inputs, semiring, DOMAINS, output, reduced, tag)
        self.assert_fresh(result, inputs)

    @pytest.mark.parametrize("scope", [("A", "B"), ("B",)], ids=["pair", "unary"])
    @pytest.mark.parametrize(
        "semiring,aggregate,sampler", SEMIRING_CASES, ids=[case[0].name for case in SEMIRING_CASES]
    )
    def test_unary_kernels(self, semiring, aggregate, sampler, scope):
        source = self.frozen(scope, semiring, sampler)
        results = [source.product_marginalize("B", len(DOMAINS["B"]), semiring)]
        results += [source.power(exponent, semiring) for exponent in (0, 1, 3)]
        results += [source.indicator_projection(scope, semiring)]
        results += [source.indicator_projection(scope[:1], semiring)]
        for result in results:
            self.assert_fresh(result, [source])

    @pytest.mark.parametrize("listed", [False, True], ids=["one-operand", "with-listing"])
    def test_output_phase_dense_join(self, listed, monkeypatch):
        from repro.core import insideout
        from repro.core.outsidein import OutsideInStats
        from repro.factors.backend import DEFAULT_POLICY
        from repro.factors.index import TrieCache

        joined = []

        def spy(*args, **kwargs):
            joined.append(dense_join_reduce(*args, **kwargs))
            return joined[-1]

        monkeypatch.setattr(insideout, "dense_join_reduce", spy)
        sampler = lambda r: r.uniform(0.1, 2.0)
        factors = [self.frozen(("A", "B"), SUM_PRODUCT, sampler)]
        if listed:
            factors.append(sampled_factor(("B", "C"), SUM_PRODUCT, sampler, random.Random(1)))
        free = sorted({v for factor in factors for v in factor.scope})
        query = FAQQuery(
            [Variable(v, DOMAINS[v]) for v in free], free, {}, factors, SUM_PRODUCT
        )
        tries = TrieCache(query.order, SUM_PRODUCT)
        output = insideout.output_phase(
            query, list(query.factors), query.order, "dense", DEFAULT_POLICY,
            OutsideInStats(), tries,
        )
        [result] = joined
        inputs = [f if isinstance(f, DenseFactor) else tries.dense(f, query.domains()) for f in factors]
        assert all(dense.frozen for dense in inputs)
        self.assert_fresh(result, inputs)
        assert output.equals(query.evaluate_brute_force(), SUM_PRODUCT)
