"""Unit tests for the cost-based query planner (:mod:`repro.planner`)."""

import math
import sys
import threading

import pytest

from repro.core import insideout as insideout_module
from repro.core.evo import is_equivalent_ordering
from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, QueryError, Variable
from repro.core.variable_elimination import variable_elimination
from repro.db import generic_join, join
from repro.db.relation import Relation
from repro.exec import StepResultCache
from repro.factors.factor import Factor
from repro.planner import (
    CostModel,
    PlanCache,
    STRATEGIES,
    STRATEGY_INSIDEOUT,
    candidate_orderings,
    execute,
    plan,
    query_signature,
)
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import BOOLEAN, COUNTING

from _helpers import small_random_query
from test_planner_differential import SEMIRINGS, _random_query


def _rename(query: FAQQuery, mapping):
    """A structurally identical query with renamed variables."""
    variables = [
        Variable(mapping[v], query.domain(v)) for v in query.order
    ]
    factors = [
        Factor(tuple(mapping[v] for v in f.scope), dict(f.table), name=f.name)
        for f in query.factors
    ]
    aggregates = {mapping[v]: agg for v, agg in query.aggregates.items()}
    return FAQQuery(
        variables=variables,
        free=[mapping[v] for v in query.free],
        aggregates=aggregates,
        factors=factors,
        semiring=query.semiring,
        name=query.name + "-renamed",
    )


def _indicator_join_query(cyclic: bool) -> FAQQuery:
    names = ["A", "B", "C"]
    dom = tuple(range(4))
    edge = {(a, b): True for a in dom for b in dom if (a + b) % 2 == 0}
    scopes = [("A", "B"), ("B", "C")] + ([("A", "C")] if cyclic else [])
    return FAQQuery(
        variables=[Variable(v, dom) for v in names],
        free=names,
        aggregates={},
        factors=[Factor(s, dict(edge)) for s in scopes],
        semiring=BOOLEAN,
        name="ind-join",
    )


def _path_query(n: int, dangling: bool) -> FAQQuery:
    """The path join ``R(a,b) S(b,c) T(c,d) U(d,e)`` in one of two shapes.

    Dangling: ``R``, ``S`` and ``T`` join into ``n * n`` tuples over
    ``a..d`` and ``U`` matches none of them, so the join is empty; a search
    walks all ``n * n`` pairs unless the dangling tuples go first.  Clean:
    every relation is the identity on ``range(n)``, so the join has ``n``
    tuples, but a search that binds ``a`` and ``d`` before the variables
    between them still tries all ``n * n`` pairs of ends.
    """
    if dangling:
        rows = {
            ("a", "b"): [(i, 0) for i in range(n)],
            ("b", "c"): [(0, j) for j in range(n)],
            ("c", "d"): [(j, 0) for j in range(n)],
            ("d", "e"): [(1, 0)],
        }
        domains = {"a": range(n), "b": (0,), "c": range(n), "d": (0, 1), "e": (0,)}
    else:
        scopes = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
        rows = {scope: [(i, i) for i in range(n)] for scope in scopes}
        domains = {v: range(n) for v in "abcde"}
    return FAQQuery(
        variables=[Variable(v, tuple(domains[v])) for v in "abcde"],
        free=list("abcde"),
        aggregates={},
        factors=[
            Factor(scope, {row: True for row in table}, name="".join(scope))
            for scope, table in rows.items()
        ],
        semiring=BOOLEAN,
        name="path",
    )


def _triangle_join_query() -> FAQQuery:
    """``R(A,B) S(B,C) T(A,C)`` over the edges of a sparse random graph."""
    import networkx as nx

    from repro.solvers.joins import natural_join_query, triangle_join_relations

    graph = nx.gnm_random_graph(100, 250, seed=3)
    return natural_join_query(triangle_join_relations(graph))


def _reference_join(query: FAQQuery) -> Factor:
    """A natural join's answer from the relational reference evaluator."""
    relations = [
        Relation(f"r{i}", f.scope, f.table.keys()) for i, f in enumerate(query.factors)
    ]
    joined = generic_join(relations)
    return Factor(
        joined.schema, {row: True for row in joined.tuples}
    ).normalize_scope(query.free)


class TestPlanning:
    def test_plan_matches_brute_force(self, triangle_query):
        result = plan(triangle_query, use_cache=False).execute()
        assert triangle_query.evaluate_brute_force().equals(
            result.factor, triangle_query.semiring
        )

    def test_chosen_ordering_is_equivalent(self):
        for seed in range(12):
            query = small_random_query(seed)
            chosen = plan(query, use_cache=False)
            assert is_equivalent_ordering(query, chosen.ordering), (
                f"seed={seed} ordering={chosen.ordering}"
            )

    def test_candidate_orderings_are_equivalent(self):
        for seed in range(12):
            query = small_random_query(seed)
            for candidate in candidate_orderings(query):
                assert is_equivalent_ordering(query, candidate), (
                    f"seed={seed} candidate={candidate}"
                )

    def test_explicit_ordering_override(self, triangle_query):
        order = ["C", "B", "A"]
        chosen = plan(triangle_query, ordering=order, use_cache=False)
        assert chosen.ordering == tuple(order)
        result = chosen.execute()
        assert triangle_query.evaluate_brute_force().equals(
            result.factor, triangle_query.semiring
        )

    def test_backend_and_strategy_overrides(self, triangle_query):
        chosen = plan(
            triangle_query,
            backend="sparse",
            strategy=STRATEGY_INSIDEOUT,
            use_cache=False,
        )
        assert chosen.backend == "sparse"
        assert chosen.strategy == STRATEGY_INSIDEOUT

    def test_invalid_overrides_raise(self, triangle_query):
        with pytest.raises(QueryError):
            plan(triangle_query, strategy="nonsense", use_cache=False)
        with pytest.raises(ValueError):
            plan(triangle_query, backend="nonsense", use_cache=False)
        with pytest.raises(QueryError):
            plan(triangle_query, ordering=["A", "B"], use_cache=False)

    def test_fully_pinned_plan_skips_scoring(self, triangle_query):
        model = CostModel()
        chosen = plan(
            triangle_query,
            ordering=list(triangle_query.order),
            strategy=STRATEGY_INSIDEOUT,
            backend="sparse",
            cost_model=model,
            use_cache=False,
        )
        assert model.invocations == 0
        assert math.isnan(chosen.estimated_cost)
        result = chosen.execute()
        assert triangle_query.evaluate_brute_force().equals(
            result.factor, triangle_query.semiring
        )

    def test_pinned_ordering_and_strategy_defers_backend_to_runtime(self, triangle_query):
        """Ordering+strategy pinned, backend open: no LP scoring pass; the
        engines' cheap per-step "auto" heuristic decides the representation."""
        model = CostModel()
        chosen = plan(
            triangle_query,
            ordering=list(triangle_query.order),
            strategy=STRATEGY_INSIDEOUT,
            cost_model=model,
            use_cache=False,
        )
        assert model.invocations == 0
        assert chosen.backend == "auto"
        result = chosen.execute()
        assert triangle_query.evaluate_brute_force().equals(
            result.factor, triangle_query.semiring
        )

    def test_caller_supplied_stats_bypass_the_cache(self, triangle_query):
        """Bespoke statistics must neither read nor populate cached plans
        (the cache key does not encode them)."""
        from repro.planner import QueryStatistics

        cache = PlanCache()
        default_plan = plan(triangle_query, cache=cache)
        assert len(cache) == 1
        custom = QueryStatistics.from_query(triangle_query)
        bespoke = plan(triangle_query, custom, cache=cache)
        assert not bespoke.cache_hit
        assert cache.hits == 0 and len(cache) == 1  # neither read nor stored
        again = plan(triangle_query, cache=cache)
        assert again.cache_hit
        assert again.strategy == default_plan.strategy

    def test_execute_helper(self, triangle_query):
        result = execute(triangle_query, use_cache=False)
        assert result.scalar_or_zero(COUNTING) == triangle_query.evaluate_brute_force().table.get(
            (), 0
        )


class TestStrategySpace:
    def test_insideout_always_applicable(self, triangle_query):
        pinned = plan(triangle_query, strategy=STRATEGY_INSIDEOUT, use_cache=False)
        assert pinned.strategy == STRATEGY_INSIDEOUT
        assert plan(triangle_query, use_cache=False).strategy == STRATEGY_INSIDEOUT

    def test_single_tag_allows_variable_elimination(self, triangle_query):
        """A single-aggregate query runs the variable-elimination baseline,
        which is InsideOut without projections — not a plan: naming it as
        a strategy is a typed error, pinned ordering or not."""
        baseline = variable_elimination(triangle_query)
        unprojected = inside_out(triangle_query, use_indicator_projections=False)
        assert baseline.factor.table == unprojected.factor.table
        with pytest.raises(QueryError):
            plan(triangle_query, strategy="variable-elimination", use_cache=False)
        with pytest.raises(QueryError):
            plan(
                triangle_query, strategy="variable-elimination",
                ordering=list(triangle_query.order), use_cache=False,
            )

    def test_mixed_tags_exclude_variable_elimination(self):
        names = ["A", "B", "C"]
        query = FAQQuery(
            variables=[Variable(v, (0, 1)) for v in names],
            free=["A"],
            aggregates={"B": SemiringAggregate.sum(), "C": SemiringAggregate.max()},
            factors=[Factor(("A", "B", "C"), {(0, 0, 0): 1})],
            semiring=COUNTING,
        )
        assert plan(query, use_cache=False).strategy == STRATEGY_INSIDEOUT
        with pytest.raises(QueryError):
            variable_elimination(query)

    def test_acyclic_indicator_join_is_semijoin_reduced(self):
        """Yannakakis is the output phase's reduction, not a strategy: an
        acyclic join plans like any query, and the reduction leaves every
        factor exactly the rows that take part in the join — wherever the
        dangling rows sit in the join tree."""
        query = _indicator_join_query(cyclic=False)
        assert plan(query, use_cache=False).strategy == STRATEGY_INSIDEOUT
        rows = {
            ("A", "B"): [(0, 0), (1, 1)],
            ("B", "C"): [(0, 0), (2, 2)],
            ("C", "D"): [(0, 5), (3, 3)],
        }
        factors = [Factor(scope, {r: True for r in table}) for scope, table in rows.items()]
        reduced = insideout_module._semijoin_reduce(factors, BOOLEAN, list("ABCD"))
        assert reduced is not None
        factors, binding = reduced
        assert [sorted(f.table) for f in factors] == [[(0, 0)], [(0, 0)], [(0, 5)]]
        assert sorted(binding) == ["A", "B", "C", "D"]

    def test_cyclic_indicator_join_is_not_semijoin_reduced(self):
        """A cyclic join has no join tree: the output phase searches it
        worst-case optimally in the plan's ordering, as generic join does."""
        query = _indicator_join_query(cyclic=True)
        assert plan(query, use_cache=False).strategy == STRATEGY_INSIDEOUT
        assert insideout_module._semijoin_reduce(
            list(query.factors), BOOLEAN, query.order
        ) is None

    def test_bound_variables_exclude_join_strategies(self, triangle_query):
        """Being all-free adds no strategy: a join and a count plan in the
        same space."""
        queries = [
            triangle_query,
            _indicator_join_query(cyclic=False),
            _indicator_join_query(cyclic=True),
        ]
        assert {plan(q, use_cache=False).strategy for q in queries} == set(STRATEGIES)

    @pytest.mark.parametrize("name", ["yannakakis", "generic-join"])
    def test_join_strategy_names_are_refused(self, name):
        query = _indicator_join_query(cyclic=False)
        with pytest.raises(QueryError):
            plan(query, strategy=name, use_cache=False)
        with pytest.raises(QueryError):
            plan(query, strategy=name, ordering=list(query.order), use_cache=False)

    @pytest.mark.parametrize("dangling", [True, False])
    def test_acyclic_join_work_is_linear_in_any_ordering(self, dangling):
        """Yannakakis' bound on the one path: the search takes
        ``O(input + output)`` steps on a path join, for the planner's
        choice and for every ordering it could be pinned to — including
        ``a,d,b,c``, which binds the two ends of the path first."""
        n = 2000
        query = _path_query(n, dangling)
        chosen = plan(query, use_cache=False)
        runs = [("planner", chosen.execute())]
        orderings = candidate_orderings(query) + [tuple("adbce")]
        for ordering in orderings:
            for strategy in STRATEGIES:
                pinned = plan(query, ordering=list(ordering), strategy=strategy)
                runs.append((f"{strategy} {ordering}", pinned.execute()))
        for label, result in runs:
            assert len(result.factor) == (0 if dangling else n), label
            steps = result.stats.join_stats.search_steps
            assert steps <= 4 * (n + len(result.factor)), (label, steps)

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_join_plan_takes_the_step_cache(self, cyclic):
        """Joins sparse enough that a relational evaluator used to be the
        planner's pick run on the step-DAG executor like any plan."""
        query = _triangle_join_query() if cyclic else _path_query(20, dangling=False)
        chosen = plan(query, use_cache=False)
        serial = chosen.execute()
        assert _reference_join(query).equals(serial.factor, BOOLEAN)
        cache = StepResultCache()
        cold = chosen.execute(step_cache=cache)
        computed = cache.stats()["computed"]
        assert computed >= 1
        warm = chosen.execute(step_cache=cache)
        assert cache.stats()["computed"] == computed
        assert cold.factor.table == warm.factor.table == serial.factor.table

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_every_join_strategy_agrees(self, cyclic):
        query = _indicator_join_query(cyclic)
        brute = query.evaluate_brute_force()
        for strategy in STRATEGIES:
            result = plan(query, strategy=strategy, use_cache=False).execute()
            assert brute.equals(result.factor, BOOLEAN), strategy


class TestPlanCache:
    def test_repeated_query_skips_ordering_search(self, triangle_query):
        """The acceptance criterion: a cache hit costs zero cost-model calls.

        Cached plans are always scored by the process-wide model (bespoke
        models bypass the cache), so its counter is the one to watch.
        """
        from repro.planner import DEFAULT_COST_MODEL

        cache = PlanCache()
        before = DEFAULT_COST_MODEL.invocations
        first = plan(triangle_query, cache=cache)
        assert not first.cache_hit
        searched = DEFAULT_COST_MODEL.invocations
        assert searched > before
        second = plan(triangle_query, cache=cache)
        assert second.cache_hit
        assert DEFAULT_COST_MODEL.invocations == searched  # no new cost-model work
        assert cache.hits == 1
        assert second.strategy == first.strategy
        assert second.ordering == first.ordering
        assert second.backend == first.backend

    def test_isomorphic_query_hits_cache(self, triangle_query):
        from repro.planner import DEFAULT_COST_MODEL

        cache = PlanCache()
        plan(triangle_query, cache=cache)
        searched = DEFAULT_COST_MODEL.invocations
        renamed = _rename(triangle_query, {"A": "X", "B": "Y", "C": "Z"})
        transferred = plan(renamed, cache=cache)
        assert transferred.cache_hit
        assert DEFAULT_COST_MODEL.invocations == searched
        assert set(transferred.ordering) == {"X", "Y", "Z"}
        assert is_equivalent_ordering(renamed, transferred.ordering)
        result = transferred.execute()
        assert renamed.evaluate_brute_force().equals(result.factor, COUNTING)

    def test_different_structure_misses_cache(self, triangle_query):
        cache = PlanCache()
        plan(triangle_query, cache=cache)
        # Different free set: a genuinely different query structure.
        other = FAQQuery(
            variables=[Variable(v, triangle_query.domain(v)) for v in triangle_query.order],
            free=["A"],
            aggregates={v: SemiringAggregate.sum() for v in ["B", "C"]},
            factors=triangle_query.factors,
            semiring=COUNTING,
        )
        chosen = plan(other, cache=cache)
        assert not chosen.cache_hit

    def test_signature_is_isomorphism_invariant(self, triangle_query):
        sig, _ = query_signature(triangle_query)
        renamed = _rename(triangle_query, {"A": "P", "B": "Q", "C": "R"})
        sig2, _ = query_signature(renamed)
        assert sig == sig2

    def test_indicator_and_weighted_variants_share_one_plan(self):
        """No plan depends on whether the values are all ones, so the
        weighted variant of a join hits the indicator variant's cached plan
        — and still gets the real products."""
        names = ["A", "B", "C"]
        dom = tuple(range(3))

        def query_with(value):
            table = {(a, b): value for a in dom for b in dom if (a + b) % 2 == 0}
            return FAQQuery(
                variables=[Variable(v, dom) for v in names],
                free=names,
                aggregates={},
                factors=[Factor(("A", "B"), dict(table)), Factor(("B", "C"), dict(table))],
                semiring=COUNTING,
            )

        cache = PlanCache()
        indicator = query_with(1)
        first = plan(indicator, cache=cache)
        assert first.execute().factor.equals(
            indicator.evaluate_brute_force(), COUNTING
        )
        weighted = query_with(2)
        second = plan(weighted, cache=cache)
        assert second.cache_hit and len(cache) == 1
        assert (second.strategy, second.ordering) == (first.strategy, first.ordering)
        assert second.execute().factor.equals(
            weighted.evaluate_brute_force(), COUNTING
        )

    def test_cache_hit_costs_no_stats_collection(self, triangle_query, monkeypatch):
        """A hit must not re-collect query statistics (hot-path guarantee)."""
        from repro.planner.cost import QueryStatistics

        cache = PlanCache()
        plan(triangle_query, cache=cache)
        calls = []
        original = QueryStatistics.from_query.__func__

        def counting_from_query(cls, query):
            calls.append(query)
            return original(cls, query)

        monkeypatch.setattr(
            QueryStatistics, "from_query", classmethod(counting_from_query)
        )
        hit = plan(triangle_query, cache=cache)
        assert hit.cache_hit
        assert calls == []

    def test_custom_cost_model_bypasses_the_cache(self, triangle_query):
        """Plans scored under a caller-supplied model / backend policy are
        bespoke: they neither read nor populate cached default plans."""
        from repro.factors.backend import BackendPolicy

        cache = PlanCache()
        default_plan = plan(triangle_query, cache=cache)
        assert len(cache) == 1
        sparse_only = CostModel(policy=BackendPolicy(cell_cap=1))
        other = plan(triangle_query, cache=cache, cost_model=sparse_only)
        assert not other.cache_hit
        assert other.backend == "sparse"  # its own policy was honoured
        assert cache.hits == 0 and len(cache) == 1  # neither read nor stored
        assert plan(triangle_query, cache=cache).cache_hit
        assert plan(triangle_query, cache=cache).backend == default_plan.backend

    def test_cost_model_agm_memo_is_stats_aware(self, triangle_query):
        """The same model scoring the same hypergraph under different factor
        statistics must not serve stale AGM bounds from the memo."""
        from repro.factors.backend import BackendPolicy
        from repro.planner import QueryStatistics

        # Sparse-only policy so the stats-dependent AGM term drives the cost.
        model = CostModel(policy=BackendPolicy(cell_cap=1))
        base = QueryStatistics.from_query(triangle_query)
        small = model.estimate(
            triangle_query, base, tuple(triangle_query.order)
        ).total_cost
        inflated = QueryStatistics(
            factor_sizes={k: v * 50 for k, v in base.factor_sizes.items()},
            domain_sizes=base.domain_sizes,
            num_factors=base.num_factors,
            total_input=base.total_input * 50,
            max_factor_size=base.max_factor_size * 50,
        )
        large = model.estimate(
            triangle_query, inflated, tuple(triangle_query.order)
        ).total_cost
        assert large > small

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        for seed in range(4):
            plan(small_random_query(seed), cache=cache)
        assert len(cache) <= 2

    def test_cache_counters_reset(self, triangle_query):
        cache = PlanCache()
        plan(triangle_query, cache=cache)
        plan(triangle_query, cache=cache)
        assert cache.hits == 1 and cache.misses == 1
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0 and len(cache) == 0


class TestExplain:
    def test_explain_reports_choice(self, triangle_query):
        chosen = plan(triangle_query, use_cache=False)
        report = chosen.explain()
        assert chosen.strategy in report
        assert "ordering" in report and "backend" in report
        assert "candidates considered" in report

    def test_explain_reports_cache_hit(self, triangle_query):
        cache = PlanCache()
        plan(triangle_query, cache=cache)
        hit = plan(triangle_query, cache=cache)
        assert "plan cache hit" in hit.explain()


class TestEngineIntegration:
    def test_insideout_plan_ordering(self, triangle_query):
        result = inside_out(triangle_query, ordering="plan")
        assert triangle_query.evaluate_brute_force().equals(result.factor, COUNTING)

    def test_variable_elimination_plan_ordering(self, triangle_query):
        result = variable_elimination(triangle_query, ordering="plan")
        assert triangle_query.evaluate_brute_force().equals(result.factor, COUNTING)

    def test_db_join_routes_through_planner(self):
        r = Relation("R", ("A", "B"), [(1, 2), (2, 3), (3, 4)])
        s = Relation("S", ("B", "C"), [(2, 5), (3, 6)])
        routed = join([r, s])
        reference = generic_join([r, s])
        assert routed.attributes == reference.attributes
        assert routed.project(sorted(routed.schema)).tuples == reference.project(
            sorted(reference.schema)
        ).tuples

    def test_db_join_pushes_projection_into_the_query(self):
        """output_attributes becomes existential aggregation, not a
        post-projection of the materialised full join."""
        r = Relation("R", ("A", "B"), [(i, i % 3) for i in range(30)])
        s = Relation("S", ("B", "C"), [(i % 3, i) for i in range(30)])
        projected = join([r, s], output_attributes=["A"])
        assert projected.schema == ("A",)
        reference = generic_join([r, s]).project(["A"])
        assert projected.tuples == reference.tuples
        with pytest.raises(Exception):
            join([r, s], output_attributes=["missing"])

    def test_count_models_neo_path_is_fully_pinned(self):
        """Beta-acyclic #SAT pins ordering AND strategy: zero scoring."""
        from repro.factors.compact import Clause, Literal
        from repro.planner import DEFAULT_COST_MODEL
        from repro.solvers.sat import CNFFormula, count_models

        formula = CNFFormula(
            [
                Clause([Literal("a", True), Literal("b", False)]),
                Clause([Literal("b", True), Literal("c", False)]),
            ]
        )
        assert formula.is_beta_acyclic()
        before = DEFAULT_COST_MODEL.invocations
        count = count_models(formula)
        assert count == formula.count_models_brute_force()
        assert DEFAULT_COST_MODEL.invocations == before

    def test_planner_strategies_constant(self):
        """One lowering of the one executor; joins and textbook variable
        elimination are no strategies of their own."""
        assert STRATEGIES == (STRATEGY_INSIDEOUT,)


def test_single_block_query_runs_the_exact_ordering_search_once(monkeypatch):
    """With one variable-bearing node in the Section 7 tree, the per-node
    search of ``approximate_faqw_ordering`` *is* the free-prefix-constrained
    search over the whole hypergraph, so ``candidate_orderings`` runs it
    once (it used to run it twice and drop the duplicate)."""
    from repro.datasets.cnf import random_k_cnf
    from repro.hypergraph import orderings
    from repro.planner.planner import candidate_orderings
    from repro.solvers.sat import sharp_sat_query

    searches = []
    search = orderings.best_ordering_search

    def counting(hypergraph, width_fn, free=()):
        searches.append(hypergraph.num_vertices)
        return search(hypergraph, width_fn, free=free)

    monkeypatch.setattr(orderings, "best_ordering_search", counting)
    query = sharp_sat_query(random_k_cnf(6, 10, 3, seed=57))
    # The list the two-search version returned for this query.
    assert candidate_orderings(query) == [
        ("x1", "x2", "x3", "x4", "x5", "x6"),
        ("x1", "x3", "x4", "x6", "x2", "x5"),
        ("x6", "x5", "x4", "x3", "x2", "x1"),
        ("x1", "x2", "x3", "x4", "x6", "x5"),
        ("x1", "x2", "x3", "x5", "x4", "x6"),
        ("x1", "x2", "x3", "x5", "x6", "x4"),
    ]
    assert searches == [6]

    # Two blocks (two components): each node's search sees only its own
    # variables, so the search over the whole hypergraph still runs.
    del searches[:]
    pair = {(0, 1): 1, (1, 0): 1}
    split = FAQQuery(
        [Variable(v, (0, 1)) for v in "abcd"], [],
        {v: SemiringAggregate.sum() for v in "abcd"},
        [Factor(("a", "b"), pair), Factor(("c", "d"), pair)], COUNTING,
    )
    candidate_orderings(split)
    assert searches == [2, 2, 4]


def _scored_candidates(model, case):
    """What ``model`` makes of every candidate of a fresh query object."""
    return [
        (
            estimate.ordering,
            estimate.total_cost,
            estimate.backend,
            tuple(None if math.isnan(s.est_size) else s.est_size for s in estimate.steps),
        )
        for estimate in plan(_random_query(*case), cost_model=model).candidates
    ]


def test_a_shared_cost_model_scores_like_a_fresh_one():
    """The ρ*/AGM memos last one search, so a model scoring many queries —
    in turn, or from 4 threads at once — gives every candidate the estimate
    a fresh model gives.  Each query is a new object: a memo that outlived
    its search would hand one query another's ρ* or AGM bound."""
    names = list(SEMIRINGS)
    cases = [(names[i % len(names)], i // len(names)) for i in range(64)]
    want = {case: _scored_candidates(CostModel(), case) for case in cases}

    shared = CostModel()
    assert {case: _scored_candidates(shared, case) for case in cases} == want

    got, errors = {}, []

    def worker(part):
        try:
            for case in part:
                got[case] = _scored_candidates(shared, case)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(cases[i::4],)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert got == want
