"""Unit tests for :class:`repro.factors.factor.Factor`."""

import dataclasses
import math

import pytest

from repro.factors.factor import Factor, FactorError
from repro.semiring.standard import BOOLEAN, COUNTING, MIN_PLUS, SUM_PRODUCT


@pytest.fixture
def psi_ab():
    return Factor(("A", "B"), {(0, 0): 2, (0, 1): 3, (1, 1): 5})


class TestConstruction:
    def test_basic_properties(self, psi_ab):
        assert psi_ab.scope == ("A", "B")
        assert len(psi_ab) == 3
        assert psi_ab.variables == frozenset({"A", "B"})

    def test_duplicate_scope_variable_rejected(self):
        with pytest.raises(FactorError):
            Factor(("A", "A"), {})

    def test_arity_mismatch_rejected(self):
        with pytest.raises(FactorError):
            Factor(("A", "B"), {(1,): 1})

    def test_table_from_iterable_of_pairs(self):
        factor = Factor(("A",), [((0,), 1), ((1,), 2)])
        assert len(factor) == 2

    def test_default_name(self):
        factor = Factor(("A", "B"), {})
        assert "A" in factor.name and "B" in factor.name

    def test_an_adopted_table_makes_the_factor_the_constructor_makes(self, psi_ab):
        import pickle

        from repro.planner.signature import factor_digest

        table = dict(psi_ab.table)
        adopted = Factor._adopt(psi_ab.scope, table, psi_ab.name)
        assert adopted.table is table  # handed over, not copied
        assert (adopted.scope, adopted.name, len(adopted)) == (psi_ab.scope, psi_ab.name, 3)
        assert adopted.table == psi_ab.table and list(adopted.table) == list(psi_ab.table)
        assert adopted.equals(psi_ab, COUNTING)
        assert factor_digest(adopted) == factor_digest(Factor(psi_ab.scope, psi_ab.table))
        assert pickle.loads(pickle.dumps(adopted)).table == psi_ab.table

    def test_copy_is_independent(self, psi_ab):
        clone = psi_ab.copy()
        clone.table[(9, 9)] = 1
        assert (9, 9) not in psi_ab.table

    def test_contains_and_iter(self, psi_ab):
        assert (0, 1) in psi_ab
        assert (7, 7) not in psi_ab
        assert dict(iter(psi_ab)) == psi_ab.table


class TestLookups:
    def test_value_reads_assignment_dict(self, psi_ab):
        assert psi_ab.value({"A": 0, "B": 1}, COUNTING) == 3
        assert psi_ab.value({"A": 1, "B": 0}, COUNTING) == 0

    def test_value_ignores_extra_variables(self, psi_ab):
        assert psi_ab.value({"A": 0, "B": 0, "C": 42}, COUNTING) == 2

    def test_value_missing_variable_raises(self, psi_ab):
        with pytest.raises(FactorError):
            psi_ab.value({"A": 0}, COUNTING)

    def test_value_of_tuple(self, psi_ab):
        assert psi_ab.value_of_tuple((1, 1), COUNTING) == 5
        assert psi_ab.value_of_tuple((1, 0), COUNTING) == 0

    def test_assignments_iterates_dicts(self, psi_ab):
        rows = list(psi_ab.assignments())
        assert {"A": 0, "B": 1} in rows
        assert len(rows) == 3


class TestZeroHandling:
    def test_pruned_drops_explicit_zeros(self):
        factor = Factor(("A",), {(0,): 0, (1,): 2})
        assert len(factor.pruned(COUNTING)) == 1

    def test_is_identically_zero(self):
        assert Factor(("A",), {}).is_identically_zero(COUNTING)
        assert Factor(("A",), {(0,): 0}).is_identically_zero(COUNTING)
        assert not Factor(("A",), {(0,): 1}).is_identically_zero(COUNTING)


class TestConditioning:
    def test_condition_keeps_scope(self, psi_ab):
        conditioned = psi_ab.condition({"A": 0}, COUNTING)
        assert conditioned.scope == ("A", "B")
        assert set(conditioned.table) == {(0, 0), (0, 1)}

    def test_condition_on_unrelated_variable_is_noop(self, psi_ab):
        conditioned = psi_ab.condition({"Z": 1}, COUNTING)
        assert conditioned.table == psi_ab.table

    def test_restrict_drops_variables(self, psi_ab):
        restricted = psi_ab.restrict({"A": 0}, COUNTING)
        assert restricted.scope == ("B",)
        assert restricted.table == {(0,): 2, (1,): 3}

    def test_restrict_everything_gives_constant(self, psi_ab):
        restricted = psi_ab.restrict({"A": 1, "B": 1}, COUNTING)
        assert restricted.scope == ()
        assert restricted.table == {(): 5}


class TestProjections:
    def test_indicator_projection_values_are_one(self, psi_ab):
        projection = psi_ab.indicator_projection(["B"], COUNTING)
        assert projection.scope == ("B",)
        assert projection.table == {(0,): 1, (1,): 1}

    def test_indicator_projection_disjoint_raises(self, psi_ab):
        with pytest.raises(FactorError):
            psi_ab.indicator_projection(["Z"], COUNTING)

    def test_support_projection(self, psi_ab):
        assert psi_ab.support_projection(["A"]) == {(0,), (1,)}


def _projection_loop(factor, target, semiring):
    """The per-row loop the projection kernel replaced: the reference."""
    keep = [i for i, v in enumerate(factor.scope) if v in set(target)]
    table = {}
    for key, value in factor.table.items():
        if semiring.is_zero(value):
            continue
        table[tuple(key[i] for i in keep)] = semiring.one
    return tuple(factor.scope[i] for i in keep), table


#: A 3-variable table per semiring, listing that semiring's zero in a few
#: cells (0, 0.0, inf, False) among non-zero values, rows out of key order.
_ZEROS = [
    (COUNTING, [3, 0, 1, 2, 0, 7]),
    (SUM_PRODUCT, [0.5, 0.0, 1e-300, 2.0, 0.0, 1.5]),
    (MIN_PLUS, [0.0, math.inf, 1.0, 2.5, math.inf, -1.0]),
    (BOOLEAN, [True, False, True, True, False, True]),
]


def _listing_with_zeros(values):
    keys = [(2, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2), (2, 1, 1), (1, 1, 0),
            (2, 0, 0), (0, 1, 0), (1, 0, 0)]
    return Factor(("C", "A", "B"), {k: values[i % len(values)] for i, k in enumerate(keys)})


class TestProjectionKernel:
    """``indicator_projection`` gives the loop's keys, values and order."""

    @pytest.mark.parametrize("semiring, values", _ZEROS, ids=lambda x: getattr(x, "name", ""))
    @pytest.mark.parametrize("target", [["A"], ["B", "C"], ["A", "B", "C"]])
    def test_matches_the_loop(self, semiring, values, target):
        factor = _listing_with_zeros(values)
        scope, table = _projection_loop(factor, target, semiring)
        projected = factor.indicator_projection(target, semiring)
        assert projected.scope == scope
        assert list(projected.table.items()) == list(table.items())

    @pytest.mark.parametrize("semiring, values", _ZEROS, ids=lambda x: getattr(x, "name", ""))
    def test_memo_of_another_semiring_object_is_not_trusted(self, semiring, values):
        factor = _listing_with_zeros(values).freeze()
        other = dataclasses.replace(semiring)
        factor.table.zero_free = other  # a memo that does not answer for `semiring`
        for target in (["A"], ["B", "C"], ["A", "B", "C"]):
            scope, table = _projection_loop(factor, target, semiring)
            assert list(factor.indicator_projection(target, semiring).table.items()) == list(
                table.items())

    @pytest.mark.parametrize("semiring, values", _ZEROS, ids=lambda x: getattr(x, "name", ""))
    def test_zero_free_table_skips_the_test(self, semiring, values):
        factor = _listing_with_zeros(values).pruned(semiring).freeze()
        assert factor.is_pruned(semiring)
        for target in (["C"], ["C", "B"], ["A", "B", "C"]):
            scope, table = _projection_loop(factor, target, semiring)
            projected = factor.indicator_projection(target, semiring)
            assert projected.scope == scope
            assert list(projected.table.items()) == list(table.items())


class TestMarginalisation:
    def test_aggregate_marginalize_sum(self, psi_ab):
        reduced = psi_ab.aggregate_marginalize("B", lambda a, b: a + b, COUNTING)
        assert reduced.scope == ("A",)
        assert reduced.table == {(0,): 5, (1,): 5}

    def test_aggregate_marginalize_max(self, psi_ab):
        reduced = psi_ab.aggregate_marginalize("B", max, COUNTING)
        assert reduced.table == {(0,): 3, (1,): 5}

    def test_aggregate_marginalize_missing_variable_raises(self, psi_ab):
        with pytest.raises(FactorError):
            psi_ab.aggregate_marginalize("Z", max, COUNTING)

    def test_product_marginalize_requires_full_domain(self):
        # psi(A, B) with Dom(B) of size 2: group A=0 lists both B values,
        # group A=1 lists only one and must be annihilated by the implicit 0.
        factor = Factor(("A", "B"), {(0, 0): 2, (0, 1): 3, (1, 1): 5})
        reduced = factor.product_marginalize("B", 2, COUNTING)
        assert reduced.table == {(0,): 6}

    def test_product_marginalize_domain_size_one(self):
        factor = Factor(("A", "B"), {(0, 0): 2, (1, 0): 5})
        reduced = factor.product_marginalize("B", 1, COUNTING)
        assert reduced.table == {(0,): 2, (1,): 5}

    def test_product_marginalize_invalid_domain_raises(self, psi_ab):
        with pytest.raises(FactorError):
            psi_ab.product_marginalize("B", 0, COUNTING)


class TestPointwise:
    def test_power(self):
        factor = Factor(("A",), {(0,): 2, (1,): 3})
        powered = factor.power(3, COUNTING)
        assert powered.table == {(0,): 8, (1,): 27}

    def test_power_zero_gives_ones(self):
        factor = Factor(("A",), {(0,): 2})
        assert factor.power(0, COUNTING).table == {(0,): 1}

    def test_map_values(self):
        factor = Factor(("A",), {(0,): 2, (1,): 3})
        doubled = factor.map_values(lambda v: 2 * v)
        assert doubled.table == {(0,): 4, (1,): 6}

    def test_has_idempotent_range(self):
        zero_one = Factor(("A",), {(0,): 1, (1,): 0})
        assert zero_one.has_idempotent_range(COUNTING)
        assert not Factor(("A",), {(0,): 2}).has_idempotent_range(COUNTING)


class TestMultiply:
    def test_multiply_on_shared_variable(self):
        left = Factor(("A", "B"), {(0, 0): 2, (1, 1): 3})
        right = Factor(("B", "C"), {(0, 5): 7, (1, 6): 1})
        product = left.multiply(right, COUNTING)
        assert set(product.scope) == {"A", "B", "C"}
        assert product.value({"A": 0, "B": 0, "C": 5}, COUNTING) == 14
        assert product.value({"A": 1, "B": 1, "C": 6}, COUNTING) == 3
        assert len(product) == 2

    def test_multiply_disjoint_scopes_is_cross_product(self):
        left = Factor(("A",), {(0,): 2, (1,): 3})
        right = Factor(("B",), {(5,): 10})
        product = left.multiply(right, COUNTING)
        assert len(product) == 2
        assert product.value({"A": 1, "B": 5}, COUNTING) == 30

    def test_multiply_annihilates_on_zero(self):
        left = Factor(("A",), {(0,): 0, (1,): 3})
        right = Factor(("A",), {(0,): 5, (1,): 2})
        product = left.multiply(right, COUNTING)
        assert product.table == {(1,): 6}


class TestScopeAndEquality:
    def test_normalize_scope_reorders_tuples(self):
        factor = Factor(("B", "A"), {(1, 0): 7})
        reordered = factor.normalize_scope(("A", "B"))
        assert reordered.scope == ("A", "B")
        assert reordered.table == {(0, 1): 7}

    def test_equals_is_scope_order_insensitive(self):
        left = Factor(("A", "B"), {(0, 1): 7})
        right = Factor(("B", "A"), {(1, 0): 7})
        assert left.equals(right, COUNTING)

    def test_equals_treats_missing_as_zero(self):
        left = Factor(("A",), {(0,): 0})
        right = Factor(("A",), {})
        assert left.equals(right, COUNTING)

    def test_equals_detects_differences(self):
        left = Factor(("A",), {(0,): 1})
        right = Factor(("A",), {(0,): 2})
        assert not left.equals(right, COUNTING)

    def test_equals_requires_same_variable_set(self):
        left = Factor(("A",), {(0,): 1})
        right = Factor(("B",), {(0,): 1})
        assert not left.equals(right, COUNTING)
