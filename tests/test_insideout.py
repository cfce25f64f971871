"""Tests for the InsideOut algorithm (Algorithm 1 of the paper)."""

import pytest

from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, QueryError, Variable
from repro.factors.factor import Factor
from repro.semiring.aggregates import ProductAggregate, SemiringAggregate
from repro.semiring.standard import BOOLEAN, COUNTING, MAX_PRODUCT

from _helpers import make_factor, small_random_query


class TestScalarQueries:
    def test_matches_brute_force(self, triangle_query):
        expected = triangle_query.evaluate_scalar_brute_force()
        result = inside_out(triangle_query)
        assert result.scalar == expected

    def test_scalar_or_zero_on_empty_output(self):
        psi = Factor(("A",), {})
        query = FAQQuery(
            variables=[Variable("A", (0, 1))],
            free=[],
            aggregates={"A": SemiringAggregate.sum()},
            factors=[psi],
            semiring=COUNTING,
        )
        result = inside_out(query)
        assert result.scalar_or_zero(COUNTING) == 0

    def test_boolean_satisfiability_style_query(self):
        psi = make_factor(("A", "B"), {(0, 1): True})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=[],
            aggregates={v: SemiringAggregate.logical_or() for v in "AB"},
            factors=[psi],
            semiring=BOOLEAN,
        )
        assert inside_out(query).scalar is True

    def test_max_product_query(self):
        psi = make_factor(("A", "B"), {(0, 0): 0.5, (1, 1): 0.9})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=[],
            aggregates={v: SemiringAggregate.max() for v in "AB"},
            factors=[psi, psi],
            semiring=MAX_PRODUCT,
        )
        assert inside_out(query).scalar == pytest.approx(0.81)


class TestFreeVariables:
    def test_output_factor_over_free_variables(self):
        psi = make_factor(("A", "B"), {(0, 0): 1, (0, 1): 2, (1, 1): 3})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=["A"],
            aggregates={"B": SemiringAggregate.sum()},
            factors=[psi],
            semiring=COUNTING,
        )
        result = inside_out(query)
        assert result.factor.table == {(0,): 3, (1,): 3}

    def test_scalar_accessor_rejected_with_free_variables(self):
        psi = make_factor(("A",), {(0,): 1})
        query = FAQQuery(
            variables=[Variable("A", (0, 1))],
            free=["A"],
            aggregates={},
            factors=[psi],
            semiring=COUNTING,
        )
        result = inside_out(query)
        with pytest.raises(QueryError):
            _ = result.scalar

    def test_isolated_free_variable_is_expanded(self):
        # B is free but appears in no factor: the output must be constant in B.
        psi = make_factor(("A",), {(0,): 2, (1,): 5})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1, 2))],
            free=["A", "B"],
            aggregates={},
            factors=[psi],
            semiring=COUNTING,
        )
        result = inside_out(query)
        assert len(result.factor) == 6
        assert result.factor.value({"A": 1, "B": 2}, COUNTING) == 5

    def test_all_variables_free_is_a_join(self):
        left = make_factor(("A", "B"), {(0, 0): 1, (1, 1): 1})
        right = make_factor(("B", "C"), {(0, 5): 1, (1, 6): 1})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1)), Variable("C", (5, 6))],
            free=["A", "B", "C"],
            aggregates={},
            factors=[left, right],
            semiring=COUNTING,
        )
        result = inside_out(query)
        assert set(result.factor.table) == {(0, 0, 5), (1, 1, 6)}


class TestProductAggregates:
    def test_universal_quantifier_style(self):
        # forall B: psi(A, B) -- holds only for A values listing every B.
        psi = make_factor(("A", "B"), {(0, 0): 1, (0, 1): 1, (1, 0): 1})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=["A"],
            aggregates={"B": ProductAggregate.product()},
            factors=[psi],
            semiring=COUNTING,
        )
        result = inside_out(query)
        assert result.factor.table == {(0,): 1}

    def test_non_idempotent_factor_is_powered(self):
        # psi(A) does not mention B; the product over Dom(B) of size 3 must
        # raise psi to the third power.
        psi = make_factor(("A",), {(0,): 2})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1, 2))],
            free=["A"],
            aggregates={"B": ProductAggregate.product()},
            factors=[psi],
            semiring=COUNTING,
        )
        result = inside_out(query)
        assert result.factor.table == {(0,): 8}

    def test_idempotent_factor_is_left_alone(self):
        psi = make_factor(("A",), {(0,): 1})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1, 2))],
            free=["A"],
            aggregates={"B": ProductAggregate.product()},
            factors=[psi],
            semiring=COUNTING,
        )
        assert inside_out(query).factor.table == {(0,): 1}

    def test_matches_brute_force_on_random_product_queries(self):
        for seed in range(40):
            query = small_random_query(seed, allow_products=True)
            expected = query.evaluate_brute_force()
            got = inside_out(query).factor
            assert expected.equals(got, query.semiring), f"seed {seed}"


class TestOrderings:
    def test_explicit_equivalent_ordering_gives_same_result(self, triangle_query):
        expected = inside_out(triangle_query).scalar
        reordered = inside_out(triangle_query, ordering=["C", "A", "B"])
        assert reordered.scalar == expected

    def test_auto_ordering(self, triangle_query):
        expected = triangle_query.evaluate_scalar_brute_force()
        assert inside_out(triangle_query, ordering="auto").scalar == expected

    def test_invalid_ordering_string_rejected(self, triangle_query):
        with pytest.raises(QueryError):
            inside_out(triangle_query, ordering="fastest")

    def test_non_permutation_ordering_rejected(self, triangle_query):
        with pytest.raises(QueryError):
            inside_out(triangle_query, ordering=["A", "B"])

    def test_free_variables_must_stay_first(self):
        psi = make_factor(("A", "B"), {(0, 0): 1})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1))],
            free=["A"],
            aggregates={"B": SemiringAggregate.sum()},
            factors=[psi],
            semiring=COUNTING,
        )
        with pytest.raises(QueryError):
            inside_out(query, ordering=["B", "A"])


class TestEdgeCases:
    def test_no_factors_counts_domain_product(self):
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1, 2))],
            free=[],
            aggregates={"A": SemiringAggregate.sum(), "B": SemiringAggregate.sum()},
            factors=[],
            semiring=COUNTING,
        )
        # Empty product is 1 for each of the 6 assignments.
        assert inside_out(query).scalar == 6

    def test_bound_variable_absent_from_all_factors(self):
        psi = make_factor(("A",), {(0,): 2, (1,): 3})
        query = FAQQuery(
            variables=[Variable("A", (0, 1)), Variable("B", (0, 1, 2))],
            free=[],
            aggregates={"A": SemiringAggregate.sum(), "B": SemiringAggregate.sum()},
            factors=[psi],
            semiring=COUNTING,
        )
        # Sum over B contributes a factor |Dom(B)| = 3.
        assert inside_out(query).scalar == 15

    def test_constant_factor_participates(self):
        constant = Factor((), {(): 4})
        psi = make_factor(("A",), {(0,): 2})
        query = FAQQuery(
            variables=[Variable("A", (0, 1))],
            free=[],
            aggregates={"A": SemiringAggregate.sum()},
            factors=[constant, psi],
            semiring=COUNTING,
        )
        assert inside_out(query).scalar == 8

    def test_unknown_output_mode_rejected(self, triangle_query):
        with pytest.raises(QueryError):
            inside_out(triangle_query, output_mode="compressed")


class TestStatsAndAblation:
    def test_stats_record_every_elimination(self, triangle_query):
        result = inside_out(triangle_query)
        assert len(result.stats.steps) == 3
        assert result.stats.total_seconds >= 0.0
        assert result.stats.output_size == len(result.factor)

    def test_indicator_projections_shrink_intermediates(self):
        # Classic example: R(A,B) ⋈ S(B,C) ⋈ T(A,C) where S and T are very
        # selective.  Without indicator projections the intermediate on
        # eliminating C ignores R... build a case where the pruning helps.
        r = make_factor(("A", "B"), {(i, j): 1 for i in range(6) for j in range(6)})
        s = make_factor(("B", "C"), {(i, i): 1 for i in range(6)})
        t = make_factor(("A", "C"), {(i, i): 1 for i in range(6)})
        query = FAQQuery(
            variables=[Variable(v, tuple(range(6))) for v in "ABC"],
            free=[],
            aggregates={v: SemiringAggregate.sum() for v in "ABC"},
            factors=[r, s, t],
            semiring=COUNTING,
        )
        with_proj = inside_out(query, ordering=["C", "B", "A"])
        without_proj = inside_out(
            query, ordering=["C", "B", "A"], use_indicator_projections=False
        )
        assert with_proj.scalar == without_proj.scalar
        assert (
            with_proj.stats.max_intermediate_size
            <= without_proj.stats.max_intermediate_size
        )

    def test_results_identical_with_and_without_projections(self):
        for seed in range(25):
            query = small_random_query(seed + 100)
            a = inside_out(query).factor
            b = inside_out(query, use_indicator_projections=False).factor
            assert a.equals(b, query.semiring)


class TestAgainstBruteForceAtScale:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_queries(self, seed):
        query = small_random_query(seed + 500)
        expected = query.evaluate_brute_force()
        got = inside_out(query).factor
        assert expected.equals(got, query.semiring)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_boolean_queries(self, seed):
        import random

        rng = random.Random(seed)
        names = ["A", "B", "C", "D"][: rng.randint(2, 4)]
        domains = {v: tuple(range(rng.randint(2, 3))) for v in names}
        factors = []
        for _ in range(rng.randint(1, 3)):
            scope = tuple(rng.sample(names, rng.randint(1, len(names))))
            table = {}
            import itertools

            for values in itertools.product(*(domains[v] for v in scope)):
                if rng.random() < 0.6:
                    table[values] = True
            factors.append(Factor(scope, table))
        query = FAQQuery(
            variables=[Variable(v, domains[v]) for v in names],
            free=names[:1],
            aggregates={v: SemiringAggregate.logical_or() for v in names[1:]},
            factors=factors,
            semiring=BOOLEAN,
        )
        expected = query.evaluate_brute_force()
        got = inside_out(query).factor
        assert expected.equals(got, query.semiring)


class TestIdentityProjections:
    """An indicator projection that is 1 everywhere filters nothing: the
    step leaves it out (bit-identically), and only one that filters is drawn."""

    @staticmethod
    def _blocks_query(dense):
        """Two blocks sharing ``A``; every factor lists its whole box with
        non-zero values, so no projection of any step filters."""
        import itertools

        from repro.factors.dense import DenseFactor

        domains = {v: tuple(range(3)) for v in "ABCE"}
        factors = []
        for index, scope in enumerate([("A", "B"), ("B", "C"), ("A", "E"), ("E",)]):
            table = {
                cell: 1 + (index + sum(cell)) % 4
                for cell in itertools.product(*(domains[v] for v in scope))
            }
            factor = make_factor(scope, table)
            if dense:
                factor = DenseFactor.from_factor(factor, domains, COUNTING)
            factors.append(factor)
        return FAQQuery(
            variables=[Variable(v, domains[v]) for v in "ABCE"],
            free=[],
            aggregates={v: SemiringAggregate.sum() for v in "ABCE"},
            factors=factors,
            semiring=COUNTING,
        )

    @pytest.mark.parametrize("dense", [False, True], ids=["listing", "ndarray"])
    def test_zero_free_dense_step_draws_no_projection(self, dense, monkeypatch):
        from repro.factors.dense import DenseFactor

        query = self._blocks_query(dense)
        drawn = []
        for cls in (Factor, DenseFactor):
            original = cls.indicator_projection

            def counting(self, *args, _original=original, **kwargs):
                drawn.append(self)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "indicator_projection", counting)
        result = inside_out(query, backend="dense")
        assert {s.backend for s in result.stats.steps} == {"dense"}
        assert [s.projection_count for s in result.stats.steps] == [0, 0, 0, 0]
        assert drawn == []  # none was even built to be tested
        assert result.factor.table == query.evaluate_brute_force().table

    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_filtering_projection_is_still_drawn(self, backend):
        # S(B,C) lists 6 of its 36 cells: its projection onto {B,C} filters
        # the step that eliminates A.
        r = make_factor(("A", "B"), {(i, j): 1 for i in range(6) for j in range(6)})
        s = make_factor(("B", "C"), {(i, i): 1 for i in range(6)})
        t = make_factor(("A", "C"), {(i, i): 1 for i in range(6)})
        query = FAQQuery(
            variables=[Variable(v, tuple(range(6))) for v in "ABC"],
            free=[],
            aggregates={v: SemiringAggregate.sum() for v in "ABC"},
            factors=[r, s, t],
            semiring=COUNTING,
        )
        result = inside_out(query, ordering=["C", "B", "A"], backend=backend)
        first = result.stats.steps[0]
        assert (first.variable, first.projection_count) == ("A", 1)
        assert first.result_size == 6  # only the diagonal of (B, C) survives
        assert result.scalar == query.evaluate_brute_force().table[()]

    def test_fully_listed_sparse_factor_is_skipped_without_a_projection(self, monkeypatch):
        query = self._blocks_query(dense=False)
        built = []
        original = Factor.indicator_projection

        def counting(self, *args, **kwargs):
            built.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Factor, "indicator_projection", counting)
        result = inside_out(query, backend="sparse")
        assert all(s.projection_count == 0 for s in result.stats.steps)
        assert built == []
        assert result.factor.table == query.evaluate_brute_force().table

    def test_left_out_projection_still_counts_in_the_auto_choice(self):
        """R(A,B) lists its whole box, so its projection onto B is left out
        of C's step; counted as the listed cells it is, it keeps that step
        dense under ``"auto"`` (S alone lists 4 of 36 cells: too sparse)."""
        from repro.semiring.standard import SUM_PRODUCT

        r = make_factor(("A", "B"), {(i, j): 0.5 + i + j for i in range(6) for j in range(6)})
        s = make_factor(("B", "C"), {(i, i): 1.5 + i for i in range(4)})
        query = FAQQuery(
            variables=[Variable(v, tuple(range(6))) for v in "ABC"],
            free=["A"],
            aggregates={v: SemiringAggregate.sum() for v in "BC"},
            factors=[r, s],
            semiring=SUM_PRODUCT,
        )
        result = inside_out(query, ["A", "B", "C"], backend="auto")
        first = result.stats.steps[0]
        assert (first.variable, first.projection_count, first.backend) == ("C", 0, "dense")
        assert result.factor.equals(query.evaluate_brute_force(), SUM_PRODUCT)
