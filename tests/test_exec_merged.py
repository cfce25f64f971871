"""The content-addressed step IR: merged batches and the feedback loop.

The contracts under test:

* **exactly-once** — a merged multi-query batch executes every distinct
  step digest once (asserted on the executor's own counters), and not at
  all when a :class:`~repro.exec.StepResultCache` already holds it;
* **correct and bit-identical** — merged execution agrees with brute
  force and returns the same factor tables *and* the same
  :class:`~repro.core.insideout.InsideOutStats` (wall-clock seconds aside)
  as independent unshared runs, across semirings, also when concurrent
  requests merge the same batch on one step source;
* **closed loop** — :func:`~repro.planner.record_plan_feedback` folds
  observed-vs-estimated step sizes into the cached plan's health and, past
  the error threshold, invalidates the plan so the next request searches
  again;
* **free-prefix search** — the branch-and-bound ordering search honours a
  free-variable prefix constraint and still finds the constrained optimum.
"""

import itertools
import random
from dataclasses import replace

import pytest

from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, Variable
from repro.exec import DagExecutor, RunInfo, RunSpec, StepResultCache, lower_insideout
from repro.factors.factor import Factor
from repro.hypergraph.covers import fractional_edge_cover_number
from repro.hypergraph.elimination import elimination_sequence
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.orderings import best_ordering_exhaustive, best_ordering_search
from repro.planner import (
    PlanCache,
    observed_step_errors,
    plan,
    record_plan_feedback,
)
from repro.planner.cache import REPLAN_ERROR_THRESHOLD
from repro.serve import PlanFailure, PlanServer, ServeRequest

from _helpers import on_threads
from test_exec_parallel import _brute_force_by_block, _multi_block
from test_planner_differential import SEMIRINGS

MERGED_SEMIRINGS = ("counting", "max-product", "boolean")
REQUEST_THREADS = (1, 4)
_CHAIN_VARS = 6
_ORDER = tuple(f"x{i}" for i in range(1, _CHAIN_VARS + 1))


# ---------------------------------------------------------------------- #
# an overlapping query family: shared chain, per-variant unary head
# ---------------------------------------------------------------------- #
def _chain_family(semiring_name, variants=3):
    """Queries sharing every pair factor, differing in a unary on ``x1``.

    ``x1`` is first in the ordering, so it is eliminated *last* — the whole
    shared chain suffix collides in the step IR and only the head steps
    differ per variant.  The returned list ends with an exact duplicate of
    the first variant (same content, distinct object).
    """
    semiring, value_of, aggregate_factory, offset = SEMIRINGS[semiring_name]
    rng = random.Random(9_117 + offset)
    domain = (0, 1, 2)
    pair_tables = []
    for _ in range(_CHAIN_VARS - 1):
        table = {
            (a, b): value_of(rng)
            for a in domain
            for b in domain
            if rng.random() < 0.8
        }
        pair_tables.append(table or {(0, 0): value_of(rng)})

    def build(name, head_table):
        factors = [
            Factor((f"x{i}", f"x{i+1}"), dict(table), name=f"R{i}")
            for i, table in zip(range(1, _CHAIN_VARS), pair_tables)
        ]
        factors.append(Factor(("x1",), dict(head_table), name="head"))
        return FAQQuery(
            variables=[Variable(v, domain) for v in _ORDER],
            free=[],
            aggregates={v: aggregate_factory() for v in _ORDER},
            factors=factors,
            semiring=semiring,
            name=name,
        )

    heads = []
    for _ in range(variants):
        head = {(a,): value_of(rng) for a in domain if rng.random() < 0.8}
        heads.append(head or {(0,): value_of(rng)})
    queries = [build(f"q{j}", head) for j, head in enumerate(heads)]
    queries.append(build("q0-dup", heads[0]))
    return queries


def _assert_identical(serial, merged, context):
    """Output and stats must match the independent run exactly (not seconds)."""
    assert merged.ordering == serial.ordering, context
    assert merged.factor.scope == serial.factor.scope, context
    assert merged.factor.table == serial.factor.table, context
    s, m = serial.stats, merged.stats
    assert len(m.steps) == len(s.steps), context
    for a, b in zip(s.steps, m.steps):
        assert (
            a.variable, a.kind, a.induced_set, a.incident_count,
            a.projection_count, a.result_size, a.backend,
        ) == (
            b.variable, b.kind, b.induced_set, b.incident_count,
            b.projection_count, b.result_size, b.backend,
        ), f"{context}: step record diverged for {a.variable}"
    assert (
        m.join_stats.search_steps,
        m.join_stats.emitted_tuples,
        m.join_stats.intersections,
    ) == (
        s.join_stats.search_steps,
        s.join_stats.emitted_tuples,
        s.join_stats.intersections,
    ), context
    assert m.max_intermediate_size == s.max_intermediate_size, context
    assert m.output_size == s.output_size, context


# ---------------------------------------------------------------------- #
# merged batches: bit-identical and exactly-once
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("threads", REQUEST_THREADS)
@pytest.mark.parametrize("name", MERGED_SEMIRINGS)
def test_merged_batch_matches_independent_runs(name, threads):
    """One merged batch, or the same batch from ``threads`` concurrent
    requests on one step source."""
    queries = _chain_family(name)
    independent = [inside_out(q, ordering=list(_ORDER)) for q in queries]
    for query, run in zip(queries, independent):
        assert query.evaluate_brute_force().equals(run.factor, query.semiring)

    cache = StepResultCache()

    def run(_):
        info = RunInfo()
        merged = DagExecutor().run_many(
            [RunSpec(query=q, ordering=list(_ORDER)) for q in queries],
            step_cache=cache,
            info=info,
        )
        return merged, info

    outcomes = on_threads(threads, run, switch_interval=1e-5)
    for merged, _ in outcomes:
        for serial, shared, query in zip(independent, merged, queries):
            _assert_identical(serial, shared, f"{name}/threads={threads}/{query.name}")

    # Exactly once: every distinct digest executed a single time, in
    # whichever request claimed it first, and the overlap (shared chain +
    # the duplicate query) actually deduplicated.
    infos = [info for _, info in outcomes]
    merged_nodes = infos[0].merged_nodes
    assert sum(info.executed_nodes for info in infos) == merged_nodes
    assert sum(info.replayed_nodes for info in infos) == (threads - 1) * merged_nodes
    assert merged_nodes < infos[0].total_nodes
    assert cache.stats()["computed"] == merged_nodes


@pytest.mark.parametrize("name", MERGED_SEMIRINGS)
def test_warm_step_cache_replays_the_whole_batch(name):
    queries = _chain_family(name)
    cache = StepResultCache()
    executor = DagExecutor()
    specs = [RunSpec(query=q, ordering=list(_ORDER)) for q in queries]

    first = RunInfo()
    cold = executor.run_many(specs, step_cache=cache, info=first)
    second = RunInfo()
    warm = executor.run_many(specs, step_cache=cache, info=second)

    for a, b in zip(cold, warm):
        _assert_identical(a, b, f"{name}: warm replay diverged")
    assert second.executed_nodes == 0
    assert second.replayed_nodes == second.merged_nodes
    assert cache.stats()["replayed"] >= second.merged_nodes


def test_sequential_traffic_replays_shared_prefixes():
    """``inside_out(step_cache=...)`` shares steps across sequential calls."""
    queries = _chain_family("counting")
    cache = StepResultCache()
    baseline = [inside_out(q, ordering=list(_ORDER)) for q in queries]
    results = [
        inside_out(q, ordering=list(_ORDER), step_cache=cache) for q in queries
    ]
    for want, got in zip(baseline, results):
        _assert_identical(want, got, "sequential step-cache run diverged")
    stats = cache.stats()
    assert stats["replayed"] > 0
    # The duplicate tail query replays entirely: no new computations for it.
    before = cache.stats()["computed"]
    again = inside_out(queries[0], ordering=list(_ORDER), step_cache=cache)
    _assert_identical(baseline[0], again, "fully-cached rerun diverged")
    assert cache.stats()["computed"] == before


# ---------------------------------------------------------------------- #
# PlanServer: cross-query common sub-elimination in serving
# ---------------------------------------------------------------------- #
def _serve_options():
    return {"strategy": "insideout", "ordering": list(_ORDER)}


def test_plan_server_merges_batch_and_replays_repeats():
    queries = _chain_family("counting")
    expected = [inside_out(q, ordering=list(_ORDER)) for q in queries]
    with PlanServer() as server:
        results = server.execute_batch(
            [ServeRequest(query=q, options=_serve_options()) for q in queries]
        )
        stats = server.stats()
        for want, got in zip(expected, results):
            assert got.factor.table == want.factor.table
        # The duplicate coalesces by content; the rest merge by digest.
        assert stats["merged_queries"] == len(queries) - 1
        assert stats["merged_executed_steps"] == stats["merged_unique_steps"]
        assert stats["merged_unique_steps"] < stats["merged_total_steps"]

        # A repeated batch is answered from the warm step cache entirely.
        executed_before = server.stats()["merged_executed_steps"]
        repeat = server.execute_batch(
            [ServeRequest(query=q, options=_serve_options()) for q in _chain_family("counting")]
        )
        for want, got in zip(expected, repeat):
            assert got.factor.table == want.factor.table
        assert server.stats()["merged_executed_steps"] == executed_before


def test_plan_server_coalesce_opt_out_skips_sharing():
    queries = _chain_family("counting")[:2]
    expected = [inside_out(q, ordering=list(_ORDER)) for q in queries]
    with PlanServer() as server:
        results = server.execute_batch(
            [
                ServeRequest(query=q, coalesce=False, options=_serve_options())
                for q in queries
            ]
        )
        stats = server.stats()
    for want, got in zip(expected, results):
        assert got.factor.table == want.factor.table
    assert stats["merged_queries"] == 0
    assert stats["step_cache_computed"] == 0


# ---------------------------------------------------------------------- #
# the plans variable elimination used to win are InsideOut's
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("options", ({"strategy": "insideout"}, {}))
def test_plan_server_merges_freely_planned_requests(options):
    """The family the planner used to hand variable elimination plans as
    InsideOut, pinned or not, and merges into one batch."""
    queries = _chain_family("counting")[:-1]  # the distinct variants
    with PlanServer() as server:
        results = server.execute_batch(
            [ServeRequest(query=q, options=options) for q in queries]
        )
        stats = server.stats()
    for query, got in zip(queries, results):
        assert query.evaluate_brute_force().equals(got.factor, query.semiring)
        assert got.strategy == "insideout"
    assert stats["merged_queries"] == len(queries)
    assert 0 < stats["merged_executed_steps"] < stats["merged_total_steps"]


def test_plan_server_refuses_a_variable_elimination_request():
    """Variable elimination is no strategy: naming it is a typed failure."""
    query = _chain_family("counting")[0]
    request = ServeRequest(query=query, options={"strategy": "variable-elimination"})
    with PlanServer() as server:
        with pytest.raises(PlanFailure, match="variable-elimination"):
            server.execute_request(request)


def test_variable_elimination_plan_honours_the_step_cache():
    """The dense plan variable elimination used to win runs as InsideOut:
    no indicator projection of its steps filters, so none is drawn — the
    steps are variable elimination's — and the plan honours the step
    cache."""
    query = _multi_block("max-product", 1, domain=4, density=0.9)
    chosen = plan(query, backend="dense", cache=PlanCache())
    assert chosen.strategy == "insideout"
    dag = lower_insideout(query, list(chosen.ordering))
    assert dag.max_parallelism > 1
    assert any(node.reads for node in dag.nodes)

    serial = chosen.execute()
    assert query.semiring.values_equal(serial.scalar, _brute_force_by_block(query))
    assert {step.backend for step in serial.stats.steps} == {"dense"}
    assert all(step.projection_count == 0 for step in serial.stats.steps)

    cache = StepResultCache()
    cold = chosen.execute(step_cache=cache)
    computed = cache.stats()["computed"]
    assert computed == len(dag.nodes)
    warm = chosen.execute(step_cache=cache)
    _assert_identical(serial.raw, cold.raw, "dense plan/cold step cache")
    _assert_identical(serial.raw, warm.raw, "dense plan/warm step cache")
    assert cache.stats() == {
        "entries": computed, "computed": computed, "replayed": len(dag.nodes)
    }


def test_lone_unshared_runs_never_compute_digests(monkeypatch):
    """Content digests hash every base factor, so a run with nowhere to
    share steps must skip them — the sparse latency gates rest on this."""
    import repro.exec.dag as dag_module
    from repro.engine import Engine

    def forbidden(*args, **kwargs):
        raise AssertionError("annotate_digests called on an unshared lone run")

    query = _chain_family("counting")[0]
    want = query.evaluate_brute_force()
    real = dag_module.annotate_digests
    monkeypatch.setattr(dag_module, "annotate_digests", forbidden)
    assert want.equals(inside_out(query, ordering=list(_ORDER)).factor, query.semiring)
    chosen = plan(query, cache=PlanCache(), **_serve_options())
    assert want.equals(chosen.execute().factor, query.semiring)
    with Engine() as engine:
        served = engine.query(ServeRequest(query=query, coalesce=False, options=_serve_options()))
    assert want.equals(served.factor, query.semiring)

    # ... while a batch of one with a step source does address its steps.
    calls = []
    monkeypatch.setattr(
        dag_module, "annotate_digests",
        lambda *args, **kwargs: (calls.append(1), real(*args, **kwargs))[1],
    )
    cache = StepResultCache()
    DagExecutor().run_many(
        [RunSpec(query=query, ordering=list(_ORDER))], step_cache=cache
    )
    assert calls == [1] and cache.computed > 0


def test_plan_server_result_cache_answers_repeat_traffic():
    query = _chain_family("counting")[0]
    want = inside_out(query, ordering=list(_ORDER))
    with PlanServer(cache_results=True) as server:
        first = server.execute_request(ServeRequest(query=query, options=_serve_options()))
        again = server.execute_request(
            ServeRequest(query=_chain_family("counting")[0], options=_serve_options())
        )
        stats = server.stats()
    assert first.factor.table == want.factor.table
    assert again.factor.table == want.factor.table
    assert not first.coalesced and again.coalesced
    assert stats["result_cache_hits"] == 1


# ---------------------------------------------------------------------- #
# the closed planner feedback loop
# ---------------------------------------------------------------------- #
def _insideout_only_query():
    """Mixed aggregate tags force the insideout strategy (no VE, no joins)."""
    rng = random.Random(4242)
    domain = (0, 1, 2)
    names = [f"x{i}" for i in range(4)]
    factors = [
        Factor(
            (names[i], names[i + 1]),
            {
                (a, b): rng.randint(1, 4)
                for a in domain
                for b in domain
                if rng.random() < 0.8
            },
        )
        for i in range(3)
    ]
    from repro.semiring.aggregates import SemiringAggregate
    from repro.semiring.standard import COUNTING

    aggregates = {names[0]: SemiringAggregate.max()}
    aggregates.update({v: SemiringAggregate.sum() for v in names[1:]})
    return FAQQuery(
        variables=[Variable(v, domain) for v in names],
        free=[],
        aggregates=aggregates,
        factors=factors,
        semiring=COUNTING,
        name="feedback",
    )


def test_accurate_estimates_produce_zero_error_and_no_replan():
    query = _insideout_only_query()
    cache = PlanCache()
    chosen = plan(query, cache=cache)
    assert chosen.strategy == "insideout"
    assert chosen.cache_key is not None
    assert chosen.step_sizes
    executed = chosen.execute()

    sizes = [float(rec.result_size) for rec in executed.stats.steps]
    if len(chosen.step_sizes) == len(executed.stats.steps) + 1:
        sizes.append(float(executed.stats.output_size))
    perfect = replace(chosen, step_sizes=tuple(sizes))
    feedback = record_plan_feedback(perfect, executed.stats, cache=cache)
    assert feedback.errors
    assert feedback.worst == 0.0
    assert not feedback.replanned
    assert cache.replans == 0


def test_wild_estimates_trigger_replanning():
    query = _insideout_only_query()
    cache = PlanCache()
    chosen = plan(query, cache=cache)
    executed = chosen.execute()
    hits_before = cache.hits

    wrong = replace(chosen, step_sizes=tuple(1e9 for _ in chosen.step_sizes))
    feedback = record_plan_feedback(wrong, executed.stats, cache=cache)
    assert feedback.worst > REPLAN_ERROR_THRESHOLD
    assert feedback.replanned
    assert cache.replans == 1
    # The entry is gone: replanning the same query misses the cache.
    replanned = plan(query, cache=cache)
    assert cache.hits == hits_before
    assert replanned.cache_key is not None


def test_a_replan_that_changes_nothing_is_not_repeated():
    """Re-plan hysteresis: the same wild error, re-searched to the same
    plan, does not invalidate it again; a larger error still does."""
    query = _insideout_only_query()
    cache = PlanCache()
    chosen = plan(query, cache=cache)
    executed = chosen.execute()

    def wrong(by):
        again = plan(query, cache=cache)
        assert (again.strategy, again.backend, again.ordering) == (
            chosen.strategy, chosen.backend, chosen.ordering)
        skewed = tuple(float(rec.result_size) * by for rec in executed.stats.steps)
        skewed += (float(executed.stats.output_size) * by,) * (
            len(again.step_sizes) - len(skewed))
        return again, replace(again, step_sizes=skewed)

    _, skewed = wrong(1e3)
    assert record_plan_feedback(skewed, executed.stats, cache=cache).replanned
    assert cache.replans == 1
    for attempt in range(3):  # the re-search stored the same plan: tolerated now
        again, skewed = wrong(1e3)
        assert again.cache_hit == (attempt > 0)
        feedback = record_plan_feedback(skewed, executed.stats, cache=cache)
        assert feedback.worst > REPLAN_ERROR_THRESHOLD and not feedback.replanned
    assert cache.replans == 1
    for _ in range(3):  # the EWMA climbs towards the larger error and crosses
        _, skewed = wrong(1e6)
        if record_plan_feedback(skewed, executed.stats, cache=cache).replanned:
            break
    assert cache.replans == 2


def test_observed_errors_are_signed_logs():
    query = _insideout_only_query()
    chosen = plan(query, cache=PlanCache())
    executed = chosen.execute()
    errors = observed_step_errors(chosen.step_sizes, executed.stats)
    assert errors
    assert all(abs(e) < 50 for e in errors)
    # Shape mismatches are refused rather than misattributed.
    assert observed_step_errors(chosen.step_sizes[:-2], executed.stats) in ([],)


def _grid_marginal():
    """A dense grid-MRF marginal: the plan variable elimination used to win."""
    from repro.datasets.pgm_models import grid_model

    return grid_model(3, 3, domain_size=3, seed=1).marginal_query(["X0_0"])


def test_grid_plan_feeds_back_into_the_calibration():
    """Every plan carries step sizes into the feedback loop, the dense grid
    plan included (it skipped the loop while it was variable elimination)."""
    query = _grid_marginal()
    cache = PlanCache()
    chosen = plan(query, cache=cache)
    assert chosen.backend == "dense" and chosen.step_sizes
    executed = chosen.execute()
    wrong = replace(chosen, step_sizes=tuple(1e6 for _ in chosen.step_sizes))
    feedback = record_plan_feedback(wrong, executed.stats, cache=cache)
    assert feedback.errors


def test_served_view_runs_in_its_plan_ordering():
    """An incremental view lowers in the ordering its plan chose, not the
    written one."""
    from repro.factors.delta import FactorDelta

    query = _grid_marginal()
    factor = query.factors[0]
    cell = next(iter(factor.table))
    delta = FactorDelta(factor.scope, {cell: factor.table[cell] * 2})
    with PlanServer() as server:
        ordering = plan(query, cache=server.cache).ordering
        assert ordering != tuple(query.order)
        result = server.update_factor(ServeRequest(query=query), 0, delta)
    assert result.ordering == ordering
    updated = FAQQuery(
        variables=[query.variables[v] for v in query.order],
        free=list(query.free),
        aggregates=dict(query.aggregates),
        factors=[factor.apply_delta(delta, query.semiring)] + list(query.factors[1:]),
        semiring=query.semiring,
    )
    assert updated.evaluate_brute_force().equals(result.factor, query.semiring)


def test_plan_server_feeds_execution_back_into_its_cache():
    requests = [
        ServeRequest(query=query, options={"strategy": "insideout"})
        for query in _chain_family("counting")[:2]
    ]
    with PlanServer() as server:
        for request in requests:
            server.execute_request(request)
        stats = server.stats()
        key = server._plan_for(requests[0]).cache_key
    # The served plan's health record saw its executions.
    assert server.cache.health(key).observations >= 1
    assert "plan_replans" in stats


def test_a_served_replan_searches_again():
    """Feedback that invalidates a served plan makes the next request search
    again: the plan has one key, so no second entry answers the re-plan."""
    from repro.planner import DEFAULT_COST_MODEL

    request = ServeRequest(query=_insideout_only_query())
    with PlanServer() as server:
        server.execute_request(request)
        result = server.execute_request(request)
        served = server._plan_for(request)
        assert served.cache_hit
        wrong = replace(served, step_sizes=tuple(1e9 for _ in served.step_sizes))
        assert record_plan_feedback(wrong, result.stats, cache=server.cache).replanned
        scored = DEFAULT_COST_MODEL.invocations
        again = server._plan_for(request)
    assert not again.cache_hit
    assert DEFAULT_COST_MODEL.invocations > scored


# ---------------------------------------------------------------------- #
# free-prefix-constrained ordering search
# ---------------------------------------------------------------------- #
def _random_hypergraph(rng):
    n = rng.randint(2, 5)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randint(1, n + 2)):
        k = rng.randint(1, min(3, n))
        edges.append(frozenset(rng.sample(vertices, k)))
    return Hypergraph(vertices, edges)


def _width_of(hypergraph, order, width_fn):
    steps = elimination_sequence(hypergraph, order)
    return max((round(width_fn(step.union), 9) for step in steps), default=0.0)


@pytest.mark.parametrize("seed", range(8))
def test_constrained_search_matches_brute_force(seed):
    rng = random.Random(31_000 + seed)
    hypergraph = _random_hypergraph(rng)
    vertices = sorted(hypergraph.vertices, key=repr)

    def width_fn(bag):
        return fractional_edge_cover_number(hypergraph, bag, ignore_uncovered=True)

    free = set(rng.sample(vertices, rng.randint(0, len(vertices))))
    ordering, width = best_ordering_search(hypergraph, width_fn, free=free)
    assert set(ordering) == set(vertices)
    assert set(ordering[: len(free)]) == free

    brute = min(
        _width_of(hypergraph, perm, width_fn)
        for perm in itertools.permutations(vertices)
        if set(perm[: len(free)]) == free
    )
    assert abs(width - brute) < 1e-9
    assert abs(_width_of(hypergraph, ordering, width_fn) - width) < 1e-9


def test_empty_free_set_is_the_unconstrained_search():
    rng = random.Random(77)
    hypergraph = _random_hypergraph(rng)

    def width_fn(bag):
        return fractional_edge_cover_number(hypergraph, bag, ignore_uncovered=True)

    assert best_ordering_search(hypergraph, width_fn, free=()) == best_ordering_search(
        hypergraph, width_fn
    )


def test_exhaustive_candidates_respect_the_free_prefix():
    hypergraph = Hypergraph(["a", "b", "c"], [frozenset(["a", "b"]), frozenset(["b", "c"])])

    def width_fn(bag):
        return float(len(bag))

    chosen = best_ordering_exhaustive(
        hypergraph,
        width_fn,
        candidates=[("a", "b", "c"), ("b", "a", "c"), ("c", "b", "a")],
        free=("b",),
    )
    assert chosen[0] == "b"


def test_planner_prefers_free_prefix_orderings_for_free_queries():
    """A free-variable query still plans, and its ordering keeps the prefix."""
    rng = random.Random(5)
    domain = (0, 1)
    names = ["x0", "x1", "x2", "x3"]
    from repro.semiring.aggregates import SemiringAggregate
    from repro.semiring.standard import COUNTING

    factors = [
        Factor(
            (names[i], names[i + 1]),
            {(a, b): rng.randint(1, 3) for a in domain for b in domain},
        )
        for i in range(3)
    ]
    query = FAQQuery(
        variables=[Variable(v, domain) for v in names],
        free=["x0", "x1"],
        aggregates={v: SemiringAggregate.sum() for v in names[2:]},
        factors=factors,
        semiring=COUNTING,
        name="free-prefix",
    )
    chosen = plan(query, cache=PlanCache())
    assert set(chosen.ordering[:2]) == {"x0", "x1"}
