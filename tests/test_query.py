"""Unit tests for :class:`repro.core.query.FAQQuery` and its brute-force evaluator."""

import pickle

import pytest

from repro.core.query import FAQQuery, QueryError, Variable
from repro.planner.signature import factor_digest
from repro.semiring.aggregates import ProductAggregate, SemiringAggregate
from repro.semiring.standard import COUNTING, MIN_PLUS

from _helpers import make_factor


def two_var_query(free=("A",)):
    psi = make_factor(("A", "B"), {(0, 0): 1, (0, 1): 2, (1, 1): 3})
    return FAQQuery(
        variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
        free=list(free),
        aggregates={v: SemiringAggregate.sum() for v in ("A", "B") if v not in free},
        factors=[psi],
        semiring=COUNTING,
    )


class TestVariable:
    def test_empty_domain_rejected(self):
        with pytest.raises(QueryError):
            Variable("X", ())

    def test_duplicate_domain_values_rejected(self):
        with pytest.raises(QueryError):
            Variable("X", (1, 1))

    def test_size(self):
        assert Variable("X", (1, 2, 3)).size == 3


class TestConstruction:
    def test_basic_accessors(self):
        query = two_var_query()
        assert query.num_variables == 2
        assert query.num_free == 1
        assert query.bound == ("B",)
        assert query.domain_size("B") == 2
        assert query.input_size == 3

    def test_free_must_be_prefix(self):
        psi = make_factor(("A", "B"), {(0, 0): 1})
        with pytest.raises(QueryError):
            FAQQuery(
                variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
                free=["B"],
                aggregates={"A": SemiringAggregate.sum()},
                factors=[psi],
                semiring=COUNTING,
            )

    def test_missing_aggregate_rejected(self):
        psi = make_factor(("A", "B"), {(0, 0): 1})
        with pytest.raises(QueryError):
            FAQQuery(
                variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
                free=[],
                aggregates={"A": SemiringAggregate.sum()},
                factors=[psi],
                semiring=COUNTING,
            )

    def test_extra_aggregate_rejected(self):
        psi = make_factor(("A",), {(0,): 1})
        with pytest.raises(QueryError):
            FAQQuery(
                variables=[Variable("A", (0, 1))],
                free=["A"],
                aggregates={"A": SemiringAggregate.sum()},
                factors=[psi],
                semiring=COUNTING,
            )

    def test_unknown_factor_variable_rejected(self):
        psi = make_factor(("Z",), {(0,): 1})
        with pytest.raises(QueryError):
            FAQQuery(
                variables=[Variable("A", (0, 1))],
                free=["A"],
                aggregates={},
                factors=[psi],
                semiring=COUNTING,
            )

    def test_duplicate_variable_rejected(self):
        with pytest.raises(QueryError):
            FAQQuery(
                variables=[Variable("A", (0, 1)), Variable("A", (0, 1))],
                free=[],
                aggregates={"A": SemiringAggregate.sum()},
                factors=[],
                semiring=COUNTING,
            )

    def test_zero_entries_are_pruned(self):
        psi = make_factor(("A",), {(0,): 0, (1,): 2})
        query = FAQQuery(
            variables=[Variable("A", (0, 1))],
            free=["A"],
            aggregates={},
            factors=[psi],
            semiring=COUNTING,
        )
        assert len(query.factors[0]) == 1


def one_var_query(factor, semiring=COUNTING):
    return FAQQuery(
        variables=[Variable("A", (0, 1, 2))],
        free=["A"],
        aggregates={},
        factors=[factor],
        semiring=semiring,
    )


class TestFactorsByReference:
    """A query copies its inputs, except a frozen factor it knows lists no
    zero of its semiring — that one it holds by reference."""

    def test_unfrozen_factor_is_copied_and_isolated(self):
        psi = make_factor(("A",), {(0,): 1, (1,): 2})
        query = one_var_query(psi)
        assert query.factors[0] is not psi
        psi.table[(2,)] = 7
        del psi.table[(0,)]
        assert query.factors[0].table == {(0,): 1, (1,): 2}

    def test_frozen_zero_free_factor_is_held_by_reference(self):
        psi = make_factor(("A",), {(0,): 1, (1,): 2})
        digest = factor_digest(psi)  # freezes
        query = one_var_query(psi)
        assert query.factors[0] is psi
        assert query.factors[0]._digest == digest
        # ... and by every later query, without another sweep.
        assert one_var_query(psi).factors[0] is psi

    def test_frozen_factor_with_explicit_zero_is_pruned_to_a_copy(self):
        psi = make_factor(("A",), {(0,): 0, (1,): 2})
        factor_digest(psi)
        query = one_var_query(psi)
        assert query.factors[0] is not psi
        assert query.factors[0].table == {(1,): 2}
        assert psi.table == {(0,): 0, (1,): 2}
        assert not psi.is_pruned(COUNTING)

    def test_zero_freedom_is_per_semiring(self):
        """Swept under COUNTING (zero 0) says nothing about MIN_PLUS (zero inf)."""
        inf = MIN_PLUS.zero
        psi = make_factor(("A",), {(0,): 1, (1,): inf})
        factor_digest(psi)
        assert one_var_query(psi, COUNTING).factors[0] is psi
        swept_again = one_var_query(psi, MIN_PLUS).factors[0]
        assert swept_again is not psi
        assert swept_again.table == {(0,): 1}
        # A table free of both zeros is shared by both queries.
        clean = make_factor(("A",), {(0,): 1, (1,): 2})
        factor_digest(clean)
        assert one_var_query(clean, COUNTING).factors[0] is clean
        assert one_var_query(clean, MIN_PLUS).factors[0] is clean
        assert one_var_query(clean, COUNTING).factors[0] is clean

    def test_with_ordering_of_a_digested_query_shares_its_factors(self):
        psi = make_factor(("A", "B", "C"), {(0, 0, 0): 1, (1, 0, 1): 2})
        query = FAQQuery(
            variables=[Variable(v, (0, 1)) for v in "ABC"],
            free=["A"],
            aggregates={"B": SemiringAggregate.sum(), "C": SemiringAggregate.sum()},
            factors=[psi],
            semiring=COUNTING,
        )
        digest = factor_digest(query.factors[0])
        reordered = query.with_ordering(["A", "C", "B"])
        assert reordered.factors[0] is query.factors[0]
        assert reordered.factors[0]._digest == digest

    def test_unpickled_factor_is_swept_again(self):
        """What a factor knows about its zeros does not survive pickling:
        the revived table is a plain dict, so the query copies it."""
        psi = make_factor(("A",), {(0,): 1, (1,): 2})
        factor_digest(psi)
        assert psi.is_pruned(COUNTING)
        revived = pickle.loads(pickle.dumps(psi))
        assert not revived.is_pruned(COUNTING)
        query = one_var_query(revived)
        assert query.factors[0] is not revived
        assert query.factors[0].table == psi.table

    def test_apply_delta_of_a_zero_free_parent_is_held_by_reference(self):
        from repro.factors import FactorDelta

        psi = make_factor(("A",), {(0,): 1, (1,): 2})
        factor_digest(psi)
        plain = psi.apply_delta(FactorDelta(("A",), {(2,): 5}), COUNTING)
        assert not plain.frozen  # nothing known about the parent yet
        assert one_var_query(psi).factors[0] is psi  # now it is
        child = psi.apply_delta(FactorDelta(("A",), {(0,): 0, (2,): 5}), COUNTING)
        assert child.table == {(1,): 2, (2,): 5}
        assert child.frozen and child._digest is None
        assert one_var_query(child).factors[0] is child
        # Known under COUNTING only: a MIN_PLUS update of it starts over.
        other = child.apply_delta(FactorDelta(("A",), {(0,): 3}), MIN_PLUS)
        assert not other.frozen


class TestDerivedSets:
    def test_k_set_contains_free_and_semiring_vars(self):
        psi = make_factor(("A", "B", "C"), {(0, 0, 0): 1})
        query = FAQQuery(
            variables=[Variable(v, (0, 1)) for v in "ABC"],
            free=["A"],
            aggregates={"B": SemiringAggregate.sum(), "C": ProductAggregate.product()},
            factors=[psi],
            semiring=COUNTING,
        )
        assert query.k_set == frozenset({"A", "B"})
        assert query.product_variables == ("C",)
        assert query.semiring_variables == ("B",)

    def test_tags(self):
        query = two_var_query()
        assert query.tag("A") == "free"
        assert query.tag("B") == "sum"

    def test_hypergraph_includes_isolated_variables(self):
        psi = make_factor(("A",), {(0,): 1})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=[],
            aggregates={"A": SemiringAggregate.sum(), "B": SemiringAggregate.sum()},
            factors=[psi],
            semiring=COUNTING,
        )
        assert "B" in query.hypergraph().vertices

    def test_factor_sizes(self):
        query = two_var_query()
        assert query.factor_sizes() == {frozenset({"A", "B"}): 3}


class TestWithOrdering:
    def test_reordering_preserves_free_prefix(self):
        psi = make_factor(("A", "B", "C"), {(0, 0, 0): 1})
        query = FAQQuery(
            variables=[Variable(v, (0, 1)) for v in "ABC"],
            free=["A"],
            aggregates={"B": SemiringAggregate.sum(), "C": SemiringAggregate.max()},
            factors=[psi],
            semiring=COUNTING,
        )
        reordered = query.with_ordering(["A", "C", "B"])
        assert reordered.order == ("A", "C", "B")
        assert reordered.aggregates["C"].tag == "max"

    def test_reordering_must_keep_free_first(self):
        query = two_var_query()
        with pytest.raises(QueryError):
            query.with_ordering(["B", "A"])

    def test_reordering_must_be_permutation(self):
        query = two_var_query()
        with pytest.raises(QueryError):
            query.with_ordering(["A"])


class TestBruteForce:
    def test_sum_over_bound_variable(self):
        query = two_var_query(free=("A",))
        result = query.evaluate_brute_force()
        assert result.table == {(0,): 3, (1,): 3}

    def test_scalar_query(self):
        query = two_var_query(free=())
        assert query.evaluate_scalar_brute_force() == 6

    def test_scalar_accessor_requires_no_free_variables(self):
        query = two_var_query(free=("A",))
        with pytest.raises(QueryError):
            query.evaluate_scalar_brute_force()

    def test_max_aggregate(self):
        psi = make_factor(("A", "B"), {(0, 0): 1, (0, 1): 5, (1, 0): 2})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=["A"],
            aggregates={"B": SemiringAggregate.max()},
            factors=[psi],
            semiring=COUNTING,
        )
        assert query.evaluate_brute_force().table == {(0,): 5, (1,): 2}

    def test_product_aggregate_requires_full_row(self):
        psi = make_factor(("A", "B"), {(0, 0): 2, (0, 1): 3, (1, 0): 5})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=["A"],
            aggregates={"B": ProductAggregate.product()},
            factors=[psi],
            semiring=COUNTING,
        )
        # A=0 lists both B values (product 6); A=1 misses B=1 (annihilated).
        assert query.evaluate_brute_force().table == {(0,): 6}

    def test_mixed_aggregates_match_manual_computation(self):
        psi_ab = make_factor(("A", "B"), {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4})
        psi_bc = make_factor(("B", "C"), {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2})
        query = FAQQuery(
            variables=[Variable(v, (0, 1)) for v in "ABC"],
            free=[],
            aggregates={
                "A": SemiringAggregate.sum(),
                "B": SemiringAggregate.max(),
                "C": SemiringAggregate.sum(),
            },
            factors=[psi_ab, psi_bc],
            semiring=COUNTING,
        )
        # phi = sum_A max_B sum_C psi_ab * psi_bc
        #     = sum_A max_B psi_ab * (sum_C psi_bc)
        # sum_C psi_bc: B=0 -> 2, B=1 -> 4
        # A=0: max(1*2, 2*4) = 8 ; A=1: max(3*2, 4*4) = 16 ; total 24.
        assert query.evaluate_scalar_brute_force() == 24
