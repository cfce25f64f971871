"""Planner benchmark (ROADMAP item): overhead, savings, caching, serving.

Five questions, answered with numbers a future PR can diff:

1. **Planning cost** — how long does ``plan(query)`` take cold (cost-based
   search over candidate orderings, one LP per distinct induced set) vs warm
   (a :class:`~repro.planner.cache.PlanCache` hit on repeated traffic), and
   how expensive is the branch-and-bound exact ordering search on the
   7-variable single-block #SAT query that used to take ~1 minute under the
   seed permutation scan?
2. **Execution savings** — is ``plan(query).execute()`` (planning included,
   warm cache) faster end-to-end than the unplanned written-order InsideOut
   baseline on Table-1 workloads?
3. **Cache behaviour** — what hit rate does repeated query traffic see?
4. **Sparse kernels** — on a multi-block sparse workload
   (``exec:sparse-parallel``), what does the vectorized flat-table kernel
   buy over the pure-Python trie kernel on one thread?  And
   (``exec:flat-warm-store``) what does keeping the flat encodings per
   content, in a warm ``SharedTrieCache``, buy over encoding per run?
5. **Batched serving throughput** — on repeated Table-1 traffic, what do
   request coalescing + shared base-factor tries + pooled execution
   (:mod:`repro.serve`) buy over a serial ``plan().execute()`` loop?

Results are recorded through the shared ``--json`` channel
(``_sizes.record_result``) and, on a full-size run, also merged into
``BENCH_planner.json`` at the repository root so the perf trajectory is
checked in.  ``benchmarks/compare_bench.py`` diffs a fresh run against the
checked-in file and fails CI on large regressions of the ratio metrics.
"""

from __future__ import annotations

import itertools
import os
import random
import time

import numpy as np
import pytest

from _sizes import pick, publish, quick_mode, record_result

from repro.core.faqw import approximate_faqw_ordering
from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, Variable
from repro.datasets.cnf import random_k_cnf
from repro.datasets.pgm_models import grid_model
from repro.datasets.queries import example_5_6_query
from repro.factors.backend import BackendPolicy
from repro.factors.delta import FactorDelta
from repro.factors.factor import Factor
from repro.factors.index import SharedTrieCache
from repro.incremental import IncrementalView
from repro.planner import PlanCache, plan
from repro.planner.signature import query_content_key
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import MAX_PRODUCT, SUM_PRODUCT
from repro.serve import PlanServer, ServeRequest
from repro.solvers.sat import sharp_sat_query

REPEAT_TRAFFIC = pick(50, 5)
BATCH_TRAFFIC = pick(60, 9)
SPARSE_BLOCKS = pick(4, 2)
SPARSE_CHAIN = pick(4, 3)
SPARSE_DOMAIN = pick(64, 6)
SHARED_QUERIES = pick(8, 3)
SHARED_CHAIN = pick(12, 5)
SHARED_DOMAIN = pick(12, 4)

GRID = grid_model(pick(3, 2), pick(4, 2), domain_size=pick(3, 2), seed=8)
SAT_FORMULA = random_k_cnf(
    num_variables=pick(7, 5), num_clauses=pick(16, 8), clause_width=3, seed=57
)


def _workloads():
    """Name → FAQ query for the end-to-end comparisons (Table-1 rows)."""
    return {
        "table1-marginal-grid": GRID.marginal_query([GRID.variables[0]]),
        "table1-map-grid": GRID.map_query([GRID.variables[0]]),
        "fig1-example-5.6": example_5_6_query(domain_size=pick(12, 3), seed=5),
    }


def _best_of(fn, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _cold_sat_ordering_seconds() -> float:
    """Time the #SAT ordering search with a cold process-wide ρ* memo."""
    from repro.hypergraph.covers import clear_rho_star_cache

    clear_rho_star_cache()
    start = time.perf_counter()
    approximate_faqw_ordering(sharp_sat_query(SAT_FORMULA))
    return time.perf_counter() - start


def _measure(name, query):
    """One workload's planning/execution/caching numbers (shared by tests)."""
    cache = PlanCache()
    cold_plan = plan(query, cache=cache)
    planning_cold = cold_plan.planning_seconds

    planning_warm = float("inf")
    for _ in range(REPEAT_TRAFFIC):
        warm_plan = plan(query, cache=cache)
        planning_warm = min(planning_warm, warm_plan.planning_seconds)
    hit_rate = cache.hits / max(cache.hits + cache.misses, 1)
    assert warm_plan.cache_hit, "repeated traffic must hit the plan cache"

    e2e_seconds, _ = _best_of(lambda: plan(query, cache=cache).execute())
    baseline_seconds, _ = _best_of(
        lambda: inside_out(query, ordering=None, backend="sparse")
    )
    return record_result(
        f"planner:{name}",
        planning_cold_s=planning_cold,
        planning_warm_s=planning_warm,
        cache_hit_rate=hit_rate,
        plan_execute_s=e2e_seconds,
        written_order_insideout_s=baseline_seconds,
        end_to_end_speedup=baseline_seconds / e2e_seconds if e2e_seconds else float("inf"),
        strategy=cold_plan.strategy,
        backend=cold_plan.backend,
    )


# ---------------------------------------------------------------------- #
# micro benchmarks (pytest-benchmark groups)
# ---------------------------------------------------------------------- #
@pytest.mark.benchmark(group="planner-planning")
def test_plan_cold(benchmark):
    query = GRID.marginal_query([GRID.variables[0]])
    benchmark(lambda: plan(query, cache=PlanCache()))


@pytest.mark.benchmark(group="planner-planning")
def test_plan_warm_cache_hit(benchmark):
    query = GRID.marginal_query([GRID.variables[0]])
    cache = PlanCache()
    plan(query, cache=cache)
    benchmark(lambda: plan(query, cache=cache))


@pytest.mark.benchmark(group="planner-ordering-search")
def test_branch_and_bound_sat_ordering(benchmark):
    """The 7-variable single-block #SAT ordering search (seed: ~1 minute)."""
    query = sharp_sat_query(SAT_FORMULA)
    benchmark(lambda: approximate_faqw_ordering(query))


# ---------------------------------------------------------------------- #
# shape assertions + the machine-readable trajectory
# ---------------------------------------------------------------------- #
@pytest.mark.shape
def test_shape_planning_vs_execution():
    """Warm planning is negligible and repeated traffic hits the cache."""
    records = [_measure(name, query) for name, query in _workloads().items()]
    for record in records:
        print(
            f"\n[planner] {record['name']}: cold={record['planning_cold_s'] * 1e3:.1f}ms "
            f"warm={record['planning_warm_s'] * 1e6:.0f}us "
            f"hit_rate={record['cache_hit_rate']:.2f} "
            f"plan+execute={record['plan_execute_s'] * 1e3:.2f}ms "
            f"baseline={record['written_order_insideout_s'] * 1e3:.2f}ms "
            f"speedup={record['end_to_end_speedup']:.2f}x "
            f"[{record['strategy']}/{record['backend']}]"
        )
        # A cache hit must be orders of magnitude cheaper than the search.
        assert record["planning_warm_s"] < record["planning_cold_s"]
        # All but the first plan() of the repeated traffic hit the cache.
        assert record["cache_hit_rate"] >= REPEAT_TRAFFIC / (REPEAT_TRAFFIC + 1) - 1e-9

    if not quick_mode():
        # The planned end-to-end run beats written-order InsideOut on the
        # Table-1 workloads (the planner picks better orderings/backends).
        speedups = sorted(
            (r["end_to_end_speedup"] for r in records), reverse=True
        )
        assert speedups[1] > 1.0, f"expected ≥2 workloads to speed up, got {speedups}"
        records.append(
            record_result(
                "planner:sat7-ordering-search",
                seconds=_cold_sat_ordering_seconds(),
                seed_seconds=64.0,  # measured pre-branch-and-bound
            )
        )
        publish(records)


@pytest.mark.shape
def test_shape_sat_planning_budget():
    """Planning the single-block #SAT query is far below the seed's ~1 min."""
    query = sharp_sat_query(SAT_FORMULA)
    start = time.perf_counter()
    ordering = approximate_faqw_ordering(query)
    elapsed = time.perf_counter() - start
    print(f"\n[planner] #SAT ordering search: {elapsed * 1e3:.1f}ms (seed ~64000ms)")
    assert sorted(ordering) == sorted(query.order)
    assert elapsed < 10.0


def _sparse_multiblock_query(
    blocks=SPARSE_BLOCKS, chain=SPARSE_CHAIN, domain=SPARSE_DOMAIN, seed=331
):
    """Disjoint *sparse* max-product chains — the flat-kernel workload.

    Pair factors at 50% density keep every elimination in the sparse
    regime (dict tables, no dense arrays), where the per-row Python trie
    walk is the bottleneck the vectorized flat kernel replaces.
    """
    rng = random.Random(seed)
    values = tuple(range(domain))
    variables, aggregates, factors = [], {}, []
    for block in range(blocks):
        names = [f"b{block}x{i}" for i in range(chain)]
        for name in names:
            variables.append(Variable(name, values))
            aggregates[name] = SemiringAggregate.max()
        for left, right in zip(names, names[1:]):
            table = {
                pair: round(rng.uniform(0.1, 2.0), 6)
                for pair in itertools.product(values, values)
                if rng.random() < 0.5
            }
            factors.append(Factor((left, right), table, name=f"{left}{right}"))
    return FAQQuery(
        variables, [], aggregates, factors, MAX_PRODUCT, name="sparse-multiblock"
    )


@pytest.mark.shape
def test_shape_sparse_flat_vs_trie():
    """The vectorized sparse kernel on one thread (exec:sparse-parallel).

    ``flat_vs_trie_x`` — the flat-table kernel (NumPy code columns, fused
    multiply-then-marginalize) vs the pure-Python trie kernel on the same
    sparse workload, both on one thread.  An algorithmic/vectorization
    win: no cores required.

    Bit-identity of the flat run against the trie run is asserted
    unconditionally — the kernel must never change answers.
    """
    query = _sparse_multiblock_query()
    trie_only = BackendPolicy(flat_enabled=False)
    flat_forced = BackendPolicy(flat_min_rows=0)

    trie_s, trie_result = _best_of(
        lambda: inside_out(query, backend="sparse", backend_policy=trie_only)
    )
    flat_s, flat_result = _best_of(
        lambda: inside_out(query, backend="sparse", backend_policy=flat_forced)
    )
    assert flat_result.factor.table == trie_result.factor.table
    assert any(step.backend == "flat" for step in flat_result.stats.steps)

    cpus = os.cpu_count() or 1
    flat_vs_trie = trie_s / flat_s if flat_s else float("inf")
    record = record_result(
        "exec:sparse-parallel",
        trie_w1_s=trie_s,
        flat_w1_s=flat_s,
        flat_vs_trie_x=flat_vs_trie,
        cpu_count=cpus,
        blocks=SPARSE_BLOCKS,
    )
    print(
        f"\n[exec] sparse-parallel multiblock: trie={trie_s * 1e3:.1f}ms "
        f"flat={flat_s * 1e3:.1f}ms ({flat_vs_trie:.2f}x) (cpus={cpus})"
    )
    if not quick_mode():
        publish([record])


@pytest.mark.shape
def test_shape_flat_warm_store():
    """Per-content encodings across runs (exec:flat-warm-store).

    ``flat_warm_vs_cold_x`` — the sparse max-product chains run against a
    warm :class:`~repro.factors.index.SharedTrieCache` (columns, code maps
    and join indexes already there, as for a repeated query in
    :mod:`repro.serve`) over the same run without a store, which encodes
    every base table first.  Both sides run the flat kernel on one thread;
    the ratio is what encoding once per content instead of once per run
    buys, so it needs no cores and is gated on every host.
    """
    query = _sparse_multiblock_query()
    query_content_key(query)  # the digests the store indexes factors by
    store = SharedTrieCache(query.order, query.semiring, query.factors)
    flat_forced = BackendPolicy(flat_min_rows=0)  # as in exec:sparse-parallel

    def run(shared_tries):
        return inside_out(
            query, backend="sparse", backend_policy=flat_forced,
            shared_tries=shared_tries,
        )

    run(store)
    cold_s, cold_result = _best_of(lambda: run(None))
    warm_s, warm_result = _best_of(lambda: run(store))
    assert warm_result.factor.table == cold_result.factor.table
    assert [step.backend for step in warm_result.stats.steps] == [
        step.backend for step in cold_result.stats.steps
    ]
    assert any(step.backend == "flat" for step in warm_result.stats.steps)

    warm_vs_cold = cold_s / warm_s if warm_s else float("inf")
    record = record_result(
        "exec:flat-warm-store",
        flat_cold_s=cold_s,
        flat_warm_s=warm_s,
        flat_warm_vs_cold_x=warm_vs_cold,
        cpu_count=os.cpu_count() or 1,
        blocks=SPARSE_BLOCKS,
    )
    print(
        f"\n[exec] flat-warm-store multiblock: cold={cold_s * 1e3:.1f}ms "
        f"warm={warm_s * 1e3:.1f}ms ({warm_vs_cold:.2f}x)"
    )
    if not quick_mode():
        if os.environ.get("FAQ_BENCH_STRICT", "") not in ("", "0"):
            assert warm_vs_cold >= 1.5, (
                f"expected a warm store ≥1.5x over re-encoding, got {warm_vs_cold:.2f}x"
            )
        publish([record])


def _shared_subplan_batch(
    queries=SHARED_QUERIES, chain=SHARED_CHAIN, domain=SHARED_DOMAIN, seed=23
):
    """Overlapping chain queries: shared pair factors, per-query unary head.

    The head unary sits on the *first* ordering variable — eliminated last —
    so every query's elimination suffix over the shared chain collides in
    the content-addressed step IR; only the head steps are query-specific.
    The factor objects are shared across the queries, as real multi-query
    traffic over one database would share them.
    """
    rng = np.random.default_rng(seed)
    values = tuple(range(domain))
    names = [f"x{i}" for i in range(1, chain + 1)]
    pair_factors = [
        Factor(
            (names[i], names[i + 1]),
            {
                (int(a), int(b)): float(rng.uniform(0.1, 1.0))
                for a in values
                for b in values
                if rng.random() < 0.6
            },
            name=f"R{i}",
        )
        for i in range(chain - 1)
    ]
    batch = []
    for j in range(queries):
        head = Factor(
            (names[0],),
            {(int(a),): float(rng.uniform(0.1, 1.0)) for a in values},
            name=f"U{j}",
        )
        batch.append(
            FAQQuery(
                variables=[Variable(v, values) for v in names],
                free=[],
                aggregates={v: SemiringAggregate.sum() for v in names},
                factors=list(pair_factors) + [head],
                semiring=SUM_PRODUCT,
                name=f"shared-{j}",
            )
        )
    return batch, names


@pytest.mark.shape
def test_shape_batch_shared_subplans():
    """Cross-query common sub-elimination (planner:batch-shared-subplans).

    Measures what the merged multi-sink step DAG buys on a batch of
    overlapping queries: each distinct step digest executes once, so the
    shared chain suffix is paid for once instead of once per query.  The
    dedup ratio is the executor's own counter (total/executed steps); the
    speedup compares the merged batch against independent execution of the
    same requests on an identically-configured server.
    """
    batch, names = _shared_subplan_batch()
    # Backend pinned to the reference's default so the bit-identity check
    # compares like with like (dense reductions sum in a different order).
    options = {"strategy": "insideout", "ordering": names, "backend": "sparse"}
    requests = [ServeRequest(query=q, options=options) for q in batch]
    cache = PlanCache()

    expected = [inside_out(q, ordering=names) for q in batch]

    def merged_run():
        with PlanServer(pool_size=1, cache=cache) as server:
            results = server.execute_batch(requests)
            return results, server.stats()

    def independent_run():
        with PlanServer(pool_size=1, cache=cache) as server:
            return server.execute_batch(requests, coalesce=False)

    merged_s, (merged_results, stats) = _best_of(merged_run)
    independent_s, independent_results = _best_of(independent_run)

    for want, shared, solo in zip(expected, merged_results, independent_results):
        assert shared.factor.table == want.factor.table
        assert solo.factor.table == want.factor.table
    assert stats["merged_queries"] == len(batch)
    assert stats["merged_executed_steps"] == stats["merged_unique_steps"]

    dedup = (
        stats["merged_total_steps"] / stats["merged_executed_steps"]
        if stats["merged_executed_steps"]
        else float("inf")
    )
    speedup = independent_s / merged_s if merged_s else float("inf")
    record = record_result(
        "planner:batch-shared-subplans",
        queries=len(batch),
        chain_variables=len(names),
        merged_s=merged_s,
        independent_s=independent_s,
        total_steps=stats["merged_total_steps"],
        executed_steps=stats["merged_executed_steps"],
        shared_step_dedup_x=dedup,
        shared_batch_speedup_x=speedup,
    )
    print(
        f"\n[serve] shared subplans ({len(batch)} queries, {len(names)}-var chain): "
        f"independent={independent_s * 1e3:.1f}ms merged={merged_s * 1e3:.1f}ms "
        f"speedup={speedup:.2f}x dedup={dedup:.2f}x "
        f"({stats['merged_executed_steps']}/{stats['merged_total_steps']} steps executed)"
    )
    if not quick_mode():
        # Dedup is an algorithmic win (a counter ratio, not wall-clock), and
        # the speedup follows from it on any host — no cores required.
        assert dedup >= 1.5, f"expected ≥1.5x step dedup, got {dedup:.2f}x"
        assert speedup >= 1.5, f"expected ≥1.5x merged speedup, got {speedup:.2f}x"
        publish([record])


@pytest.mark.shape
def test_shape_incremental_delta_vs_full():
    """Single-cell delta maintenance vs full recomputation (incr:delta-vs-full).

    The Table-1 grid marginal under a stream of single-cell factor updates:
    the :class:`IncrementalView` answers each update by delta propagation
    (sum-product is ⊕-invertible) with every untouched elimination step
    replayed from the content-addressed snapshot, while the baseline
    re-runs the whole InsideOut elimination.  The answers are checked
    against brute force; the speedup is the row compare_bench.py gates.
    """
    query = GRID.marginal_query([GRID.variables[0]])
    view = IncrementalView(query)
    view.result()
    cell = sorted(view.query.factors[0].table)[0]
    fresh_values = itertools.count(2)

    def one_update():
        delta = FactorDelta(
            view.query.factors[0].scope, {cell: float(next(fresh_values))}
        )
        return view.update_factor(0, delta)

    incr_s, updated = _best_of(one_update)
    full_s, reference = _best_of(
        lambda: inside_out(view.query, ordering=list(view.ordering), backend="sparse")
    )
    assert reference.factor.normalize_scope(view.query.free).equals(
        updated, query.semiring
    )
    assert view.stats.delta_updates > 0  # the ⊕-invertible regime engaged
    assert view.stats.nodes_reused > 0  # untouched steps replayed

    speedup = full_s / incr_s if incr_s else float("inf")
    record = record_result(
        "incr:delta-vs-full",
        incremental_update_s=incr_s,
        full_recompute_s=full_s,
        incremental_speedup_x=speedup,
        nodes_reused=view.stats.nodes_reused,
        nodes_executed=view.stats.nodes_executed,
        regimes=dict(view.stats.regimes),
    )
    print(
        f"\n[incr] delta-vs-full (Table-1 grid marginal): "
        f"incr={incr_s * 1e3:.2f}ms full={full_s * 1e3:.2f}ms "
        f"speedup={speedup:.2f}x "
        f"(reused={view.stats.nodes_reused}, executed={view.stats.nodes_executed})"
    )
    if not quick_mode():
        # Replay-vs-execute is an algorithmic win (no cores required): a
        # single-cell delta must beat the full recompute by ≥3x.
        assert speedup >= 3.0, f"expected ≥3x incremental speedup, got {speedup:.2f}x"
        publish([record])


@pytest.mark.shape
def test_shape_batched_serving_throughput():
    """Batched serving vs a serial plan().execute() loop (planner:batch-*)."""
    queries = list(_workloads().values())
    traffic = [queries[i % len(queries)] for i in range(BATCH_TRAFFIC)]
    cache = PlanCache()
    for query in queries:  # both sides start with warm plans
        plan(query, cache=cache)

    serial_s, serial_results = _best_of(
        lambda: [plan(q, cache=cache).execute() for q in traffic]
    )
    requests = [ServeRequest(query=q) for q in traffic]
    with PlanServer(pool_size=4, cache=cache) as server:
        server.execute_batch(requests)  # warm the shared tries
        batch_s, batch_results = _best_of(lambda: server.execute_batch(requests))
        nocoalesce_s, nocoalesce_results = _best_of(
            lambda: server.execute_batch(requests, coalesce=False)
        )
        stats = server.stats()

    semiring_of = {id(q): q.semiring for q in queries}
    for query, serial_result, batched, uncoalesced in zip(
        traffic, serial_results, batch_results, nocoalesce_results
    ):
        semiring = semiring_of[id(query)]
        assert serial_result.factor.equals(batched.factor, semiring)
        assert serial_result.factor.equals(uncoalesced.factor, semiring)

    cpus = os.cpu_count() or 1
    throughput = serial_s / batch_s if batch_s else float("inf")
    throughput_nocoalesce = serial_s / nocoalesce_s if nocoalesce_s else float("inf")
    record = record_result(
        "planner:batch-table1-traffic",
        queries=len(traffic),
        unique_queries=len(queries),
        serial_loop_s=serial_s,
        batch_s=batch_s,
        batch_nocoalesce_s=nocoalesce_s,
        throughput_x=throughput,
        throughput_nocoalesce_x=throughput_nocoalesce,
        shared_trie_hits=stats["shared_trie_hits"],
        cpu_count=cpus,
    )
    print(
        f"\n[serve] batch traffic ({len(traffic)} queries, {len(queries)} unique): "
        f"serial={serial_s * 1e3:.1f}ms batch={batch_s * 1e3:.1f}ms "
        f"({throughput:.1f}x) no-coalesce={nocoalesce_s * 1e3:.1f}ms "
        f"({throughput_nocoalesce:.1f}x) trie_hits={stats['shared_trie_hits']} "
        f"(cpus={cpus})"
    )
    if not quick_mode():
        # Coalescing repeated traffic is an algorithmic win — it does not
        # need cores, so this holds even on a single-CPU host.
        assert throughput >= 3.0, f"expected ≥3x batched throughput, got {throughput:.2f}x"
        publish([record])
