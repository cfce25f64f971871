"""The content-addressed step IR: merged batches and plan estimates.

The contracts under test:

* **exactly-once** — a merged multi-query batch executes every distinct
  step digest once (asserted on the executor's own counters), and not at
  all when a :class:`~repro.exec.StepResultCache` already holds it;
* **correct and bit-identical** — merged execution agrees with brute
  force and returns the same factor tables *and* the same
  :class:`~repro.core.insideout.InsideOutStats` (wall-clock seconds aside)
  as independent unshared runs, across semirings, also when concurrent
  requests merge the same batch on one step source;
* **estimate vs actual** — every plan carries its per-step size
  estimates, and :func:`~repro.planner.observed_step_errors` compares them
  with a run's observed sizes; an exact-key plan cache plans a query
  once, however loose those estimates are;
* **free-prefix search** — the branch-and-bound ordering search honours a
  free-variable prefix constraint and still finds the constrained optimum.
"""

import itertools
import random
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest

from repro.core.insideout import STEP_COMPUTED, STEP_REPLAYED, STEP_SHARED, inside_out
from repro.core.query import FAQQuery, Variable
from repro.exec import DagExecutor, RunSpec, StepResultCache, lower_insideout
from repro.factors.factor import Factor
from repro.hypergraph.covers import fractional_edge_cover_number
from repro.hypergraph.elimination import elimination_sequence
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.orderings import best_ordering_exhaustive, best_ordering_search
from repro.planner import PlanCache, observed_step_errors, plan
from repro.serve import PlanFailure, PlanServer, ServeRequest

from _helpers import Accounting, on_threads, step_accounting
from test_exec_parallel import _brute_force_by_block, _multi_block
from test_planner_differential import SEMIRINGS

MERGED_SEMIRINGS = ("counting", "max-product", "boolean")
REQUEST_THREADS = (1, 4)
_CHAIN_VARS = 6
_ORDER = tuple(f"x{i}" for i in range(1, _CHAIN_VARS + 1))


# ---------------------------------------------------------------------- #
# an overlapping query family: shared chain, per-variant unary head
# ---------------------------------------------------------------------- #
def _chain_family(semiring_name, variants=3, seed=0):
    """Queries sharing every pair factor, differing in a unary on ``x1``.

    ``x1`` is first in the ordering, so it is eliminated *last* — the whole
    shared chain suffix collides in the step IR and only the head steps
    differ per variant.  The returned list ends with an exact duplicate of
    the first variant (same content, distinct object).  Every ``seed``
    gives the same shape with other content.
    """
    semiring, value_of, aggregate_factory, offset = SEMIRINGS[semiring_name]
    rng = random.Random(9_117 + offset + 1_000 * seed)
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
        return DagExecutor().run_many(
            [RunSpec(query=q, ordering=list(_ORDER)) for q in queries],
            step_cache=cache,
        )

    outcomes = on_threads(threads, run, switch_interval=1e-5)
    for merged in outcomes:
        for serial, shared, query in zip(independent, merged, queries):
            _assert_identical(serial, shared, f"{name}/threads={threads}/{query.name}")

    # Exactly once: every distinct digest executed a single time, in
    # whichever request claimed it first, and the overlap (shared chain +
    # the duplicate query) actually deduplicated.
    counts = [step_accounting(merged) for merged in outcomes]
    merged_nodes = counts[0].unique
    assert sum(c.executed for c in counts) == merged_nodes
    assert sum(c.replayed for c in counts) == (threads - 1) * merged_nodes
    assert merged_nodes < counts[0].total
    assert cache.stats()["computed"] == merged_nodes


@pytest.mark.parametrize("name", MERGED_SEMIRINGS)
def test_warm_step_cache_replays_the_whole_batch(name):
    queries = _chain_family(name)
    cache = StepResultCache()
    executor = DagExecutor()
    specs = [RunSpec(query=q, ordering=list(_ORDER)) for q in queries]

    cold = executor.run_many(specs, step_cache=cache)
    warm = executor.run_many(specs, step_cache=cache)

    for a, b in zip(cold, warm):
        _assert_identical(a, b, f"{name}: warm replay diverged")
    second = step_accounting(warm)
    assert second.executed == 0
    assert second.replayed == second.unique
    assert cache.stats()["replayed"] >= second.unique


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


# ---------------------------------------------------------------------- #
# step templates: a query shape is lowered once
# ---------------------------------------------------------------------- #
@pytest.fixture
def template_store(monkeypatch):
    """A fresh, private step-template store."""
    import repro.exec.dag as dag_module
    from repro.caching import LruCache

    store = LruCache(maxsize=64)
    monkeypatch.setattr(dag_module, "_STEP_TEMPLATES", store)
    return store


def _specs(queries):
    return [RunSpec(query=q, ordering=list(_ORDER)) for q in queries]


def test_merged_batch_lowers_its_shape_once(template_store):
    """Eight same-shape queries in one merged batch: the first run builds
    the shape's template, the other seven reuse it."""
    queries = _chain_family("counting", variants=7)
    assert len(queries) == 8
    results = DagExecutor().run_many(_specs(queries))
    assert (template_store.misses, template_store.hits, len(template_store)) == (1, 7, 1)
    for query, result in zip(queries, results):
        assert result.factor.table == query.evaluate_brute_force().table


def test_lone_unshared_runs_never_touch_the_template_store(template_store):
    from repro.engine import Engine

    query = _chain_family("counting")[0]
    inside_out(query, ordering=list(_ORDER))
    plan(query, cache=PlanCache(), **_serve_options()).execute()
    with Engine() as engine:
        engine.query(ServeRequest(query=query, coalesce=False, options=_serve_options()))
    assert (template_store.hits, template_store.misses, len(template_store)) == (0, 0, 0)


def test_concurrent_batches_share_a_template_and_never_write_it(template_store):
    """Four plain threads, one step source, one shape, four contents: every
    answer is brute force's, every batch's step accounting is what it is
    alone, and the shared template's nodes still carry no digest."""
    families = [_chain_family("counting", seed=t) for t in range(4)]
    wants = [[q.evaluate_brute_force().table for q in family] for family in families]
    named = [
        {node.digest for q in family
         for node in lower_insideout(q, list(_ORDER), content_digests=True).nodes}
        for family in families
    ]
    # Disjoint contents: no batch can replay another's steps, so each
    # batch's counts are exact whatever the interleaving.
    assert all(not a & b for a, b in itertools.combinations(named, 2))
    alone = [
        step_accounting(DagExecutor().run_many(_specs(family), step_cache=StepResultCache()))
        for family in families
    ]
    cache = StepResultCache()

    def request(t):
        counts = []
        for _ in range(2):  # cold, then warm
            results = DagExecutor().run_many(_specs(families[t]), step_cache=cache)
            assert [r.factor.table for r in results] == wants[t]
            counts.append(step_accounting(results))
        return counts

    for t, (cold, warm) in enumerate(on_threads(4, request, switch_interval=1e-5)):
        assert cold == alone[t]
        assert warm == Accounting(
            total=cold.total, unique=cold.unique, executed=0, replayed=cold.unique,
        )
    assert len(template_store) == 1
    [(_, template)] = template_store.items()
    assert all(node.digest is None for node in template.skeleton.nodes)


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


def test_an_opted_out_repeat_shares_nothing_with_a_result_cache():
    """The one sharing switch is the request's: after a shared run filled
    the caches, a ``coalesce=False`` repeat through a result-caching server
    is executed again, privately — no result-cache answer, no step-cache
    lookup, nothing counted as coalesced."""
    query = _chain_family("counting")[0]
    want = inside_out(query, ordering=list(_ORDER))
    with PlanServer(cache_results=True) as server:
        server.execute_request(ServeRequest(query=query, options=_serve_options()))
        before = server.stats()
        private = [
            server.execute_request(
                ServeRequest(query=query, coalesce=False, options=_serve_options())
            )
            for _ in range(2)
        ]
        after = server.stats()
    assert all(r.factor.table == want.factor.table and not r.coalesced for r in private)
    assert after["result_cache_hits"] == after["coalesced"] == 0
    for counter in ("step_cache_entries", "step_cache_computed", "step_cache_replayed"):
        assert after[counter] == before[counter], counter


# ---------------------------------------------------------------------- #
# plan estimates vs observed sizes
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


def test_observed_errors_are_signed_logs():
    query = _insideout_only_query()
    chosen = plan(query, cache=PlanCache())
    executed = chosen.execute()
    errors = observed_step_errors(chosen.step_sizes, executed.stats)
    assert errors
    assert all(abs(e) < 50 for e in errors)
    # Estimates equal to the observed sizes read zero error at every step.
    observed = [float(rec.result_size) for rec in executed.stats.steps]
    if len(chosen.step_sizes) == len(observed) + 1:
        observed.append(float(executed.stats.output_size))
    assert observed_step_errors(observed, executed.stats) == [0.0] * len(errors)
    # Shape mismatches are refused rather than misattributed.
    assert observed_step_errors(chosen.step_sizes[:-2], executed.stats) in ([],)


def _grid_marginal():
    """A dense grid-MRF marginal: the plan variable elimination used to win."""
    from repro.datasets.pgm_models import grid_model

    return grid_model(3, 3, domain_size=3, seed=1).marginal_query(["X0_0"])


def test_grid_plan_reports_its_step_errors():
    """Every plan carries its step-size estimates, the dense grid plan
    included (it carried none while it was variable elimination)."""
    query = _grid_marginal()
    chosen = plan(query, cache=PlanCache())
    assert chosen.backend == "dense" and chosen.step_sizes
    executed = chosen.execute()
    assert observed_step_errors(chosen.step_sizes, executed.stats)


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


def _sparse_triangle_count():
    """A triangle count over a sparse random graph: AGM bounds its steps
    loosely, so the observed sizes sit far from the estimates."""
    from repro.semiring.aggregates import SemiringAggregate
    from repro.semiring.standard import COUNTING

    rng = random.Random(4711)
    vertices = range(40)
    edges = {(a, b) for a in vertices for b in vertices if a != b and rng.random() < 0.08}
    table = {edge: 1 for edge in edges}
    names = ("a", "b", "c")
    return FAQQuery(
        variables=[Variable(v, tuple(vertices)) for v in names],
        free=[],
        aggregates={v: SemiringAggregate.sum() for v in names},
        factors=[Factor(scope, dict(table)) for scope in (("a", "b"), ("b", "c"), ("a", "c"))],
        semiring=COUNTING,
        name="sparse-triangles",
    )


def test_a_loosely_estimated_query_is_planned_once():
    """An exact-key plan cache plans a served query once, however far its
    estimates sit from the observed sizes: a re-search would run the same
    cost model on the same statistics."""
    from repro.planner import DEFAULT_COST_MODEL

    request = ServeRequest(query=_sparse_triangle_count())
    with PlanServer() as server:
        first = server.execute_request(request)
        scored = DEFAULT_COST_MODEL.invocations
        for _ in range(4):
            server.execute_request(request)
        stats = server.stats()
        served = server._plan_for(request)
    assert stats["plan_cache_misses"] == 1
    assert DEFAULT_COST_MODEL.invocations == scored
    assert served.cache_hit
    errors = observed_step_errors(served.step_sizes, first.stats)
    assert max(abs(e) for e in errors) > 1.5


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


def test_replayed_step_records_are_the_cached_values():
    """A replay reports the very record the computing run made, and records
    and stats are frozen, so no caller can change what the next replay
    reports.  Each run sums its own join counters: a caller that edits a
    replayed run's counters changes neither the step entry nor what the
    next replay reports."""
    [query] = _chain_family("counting", variants=1)[:1]
    cache = StepResultCache()
    spec = RunSpec(query, ordering=list(_ORDER))
    [cold] = DagExecutor().run_many([spec], step_cache=cache)
    [warm] = DagExecutor().run_many([spec], step_cache=cache)
    assert warm.stats.steps and len(warm.stats.steps) == len(cold.stats.steps)
    assert all(w is c for w, c in zip(warm.stats.steps, cold.stats.steps))
    with pytest.raises(FrozenInstanceError):
        warm.stats.steps[0].result_size = -1
    with pytest.raises(FrozenInstanceError):
        warm.stats.max_intermediate_size = -1
    want = [(r.variable, r.result_size, r.backend) for r in cold.stats.steps]
    warm.stats.join_stats.search_steps = -1
    [again] = DagExecutor().run_many([spec], step_cache=cache)
    assert [(r.variable, r.result_size, r.backend) for r in again.stats.steps] == want
    assert again.stats.join_stats == cold.stats.join_stats


def test_provenance_tags_account_for_a_merged_batch():
    """Cold, a merged batch tags one node per distinct digest ``computed``
    and every other (run, node) pair ``shared``; warm on the same step
    source, every owner is ``replayed`` instead.  Served through
    ``Engine.batch``, the ``merged_*`` keys are the provenance sums."""
    from repro.engine import Engine

    queries = _chain_family("counting")
    dags = [lower_insideout(q, list(_ORDER), content_digests=True) for q in queries]
    total = sum(len(dag.nodes) for dag in dags)
    distinct = len({node.digest for dag in dags for node in dag.nodes})
    assert distinct < total
    cache = StepResultCache()

    def tags(results):
        return Counter(tag for result in results for tag in result.stats.provenance)

    cold = DagExecutor().run_many(_specs(queries), step_cache=cache)
    assert [len(r.stats.provenance) for r in cold] == [len(dag.nodes) for dag in dags]
    assert tags(cold) == {STEP_COMPUTED: distinct, STEP_SHARED: total - distinct}
    warm = DagExecutor().run_many(_specs(queries), step_cache=cache)
    assert tags(warm) == {STEP_REPLAYED: distinct, STEP_SHARED: total - distinct}
    for a, b in zip(cold, warm):
        _assert_identical(a, b, "warm provenance run diverged")

    with Engine() as engine:
        served = []
        for _ in range(2):  # cold, then warm on the engine's step cache
            results = engine.batch(
                [ServeRequest(query=q, options=_serve_options()) for q in queries]
            )
            served += [r for r in results if not r.coalesced]
        stats = engine.stats()
    counted = tags(served)
    assert counted[STEP_REPLAYED] > 0
    assert stats["merged_total_steps"] == sum(counted.values())
    assert stats["merged_executed_steps"] == counted[STEP_COMPUTED]
    assert stats["merged_replayed_steps"] == counted[STEP_REPLAYED]
    assert stats["merged_unique_steps"] == counted[STEP_COMPUTED] + counted[STEP_REPLAYED]


# ---------------------------------------------------------------------- #
# a read the step leaves out is not in its name
# ---------------------------------------------------------------------- #
def _with_heads(name, heads):
    """``_chain_family``'s first query once per head table (a unary on
    ``x1``, sparse ``dict`` or a ready factor), and the index of the step
    that reads the head as an indicator projection."""
    [query] = _chain_family(name, variants=1)[:1]
    queries = []
    for j, head in enumerate(heads):
        if isinstance(head, dict):
            head = Factor(("x1",), head, name="head")
        queries.append(FAQQuery(
            variables=[query.variables[v] for v in _ORDER], free=[],
            aggregates=dict(query.aggregates),
            factors=list(query.factors[:-1]) + [head],
            semiring=query.semiring, name=f"h{j}",
        ))
    head_slot = len(query.factors) - 1
    [reader] = [
        node.index for node in lower_insideout(queries[0], list(_ORDER)).nodes
        if head_slot in node.reads
    ]
    return queries, reader


def _merged_against_independent(queries):
    """One merged batch: ``==`` independent runs, which agree with brute
    force (exactly on integer semirings, to float tolerance otherwise)."""
    merged = DagExecutor().run_many(_specs(queries))
    for query, result in zip(queries, merged):
        alone = inside_out(query, ordering=list(_ORDER))
        assert query.evaluate_brute_force().equals(alone.factor, query.semiring)
        _assert_identical(alone, result, query.name)
    return merged


@pytest.mark.parametrize("name", ("counting", "max-product"))
def test_requests_differing_in_a_whole_box_factor_compute_its_reader_once(name):
    """Every head lists its whole box, so the step reading it leaves its
    projection out and names the read by its scope: the batch computes
    that step once, sparse heads and a dense one alike."""
    from repro.factors.dense import DenseFactor

    semiring = SEMIRINGS[name][0]
    heads = [{(a,): 1 + a + 2 * j for a in range(3)} for j in range(3)]
    dense = Factor(("x1",), {(a,): 7 + a for a in range(3)})
    heads.append(DenseFactor.from_factor(dense, {"x1": (0, 1, 2)}, semiring))
    queries, reader = _with_heads(name, heads)
    merged = _merged_against_independent(queries)
    assert [r.stats.provenance[reader] for r in merged] == (
        [STEP_COMPUTED] + [STEP_SHARED] * (len(queries) - 1)
    )
    # Only the steps that consume a head remain per request.
    assert step_accounting(merged).executed == reader + 1 + 2 * len(queries)


@pytest.mark.parametrize("gap", ("missing-cell", "dense-zero"))
def test_a_factor_short_of_its_box_is_read_by_content(gap):
    """A head missing one cell, or dense with one zero cell, filters: the
    step reading it is named by the head's content, computed per head."""
    from repro.factors.dense import DenseFactor

    semiring = SEMIRINGS["counting"][0]
    heads = []
    for j in range(3):
        head = Factor(("x1",), {(a,): 1 + a + 2 * j for a in range(3) if a != 1})
        if gap == "dense-zero":
            head = DenseFactor.from_factor(head, {"x1": (0, 1, 2)}, semiring)
            assert head.cells == 3 and not head.lists_every_cell(semiring)
        heads.append(head)
    queries, reader = _with_heads("counting", heads)
    merged = _merged_against_independent(queries)
    assert [r.stats.provenance[reader] for r in merged] == [STEP_COMPUTED] * len(queries)


def test_a_claim_resolved_between_read_and_claim_is_replayed(monkeypatch):
    """The exactly-once race, made deterministic: a second caller reads no
    entry, the claimant fulfils before that caller takes the lock, and the
    caller must replay the stored entry instead of claiming the key again
    (which recomputed the step: 14 executed nodes for 13 merged, now and
    then, in the four-thread merged-batch test)."""
    cache = StepResultCache()
    assert cache.lookup_or_claim("k") is None  # the claimant
    entry = object()
    real_get = cache._entries.get
    raced = []

    def get_then_fulfil(key, default=None):
        value = real_get(key, default)
        if not raced:
            raced.append(key)
            cache.fulfil(key, entry)  # the claimant finishes right after the read
        return value

    monkeypatch.setattr(cache._entries, "get", get_then_fulfil)
    assert cache.lookup_or_claim("k") is entry
    assert not cache._inflight
    assert cache.stats() == {"entries": 1, "computed": 1, "replayed": 1}
