"""The shared-memory process-pool executor backend and its fleet plumbing.

Covers the ``workers_mode="process"`` contract end to end:

* agreement with brute force, and bit-identity with ``workers=1`` of the
  same scheduler (tables, step records, join counters), on genuinely
  parallel multi-block queries and on the planner differential harness's
  random family;
* graceful degradation when a worker process dies mid-step (retry
  in-process, finish serially, never hang);
* transparent fallback to the thread pool when the run context cannot
  cross the process boundary (lambda semirings);
* the digest-keyed :class:`~repro.exec.StepResultCache` working through
  the process scheduler (exactly-once compute, replay on repeat);
* ``workers="auto"`` resolution and argument validation;
* the shared-memory stores themselves (:class:`~repro.exec.ShmBlobStore`,
  :class:`~repro.exec.SharedCacheStore`) and the replica fleet adopting
  the parent's published warm caches at startup.

The ``FAQ_BENCH_STRICT=1`` scaling gate (process workers=4 at least 2x
workers=1) lives here too, guarded on a >=4-core machine.
"""

import dataclasses
import itertools
import os
import random
import time

import pytest

from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, QueryError, Variable
from repro.exec import (
    AUTO_WORKERS_CAP,
    DagExecutor,
    SharedCacheStore,
    ShmBlobStore,
    StepResultCache,
    lower_insideout,
    read_blob,
    validate_workers,
)
from repro.faults import ACTION_KILL, SITE_WORKER_KILL, FaultPlan, injected_faults
from repro.factors.backend import BackendPolicy
from repro.factors.factor import Factor
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import BOOLEAN, MAX_PRODUCT, MIN_PLUS

from test_exec_parallel import _assert_correct, _assert_identical
from test_planner_differential import SEMIRINGS, _random_query

ELIGIBLE = {
    "max-product": (MAX_PRODUCT, lambda rng: round(rng.uniform(0.1, 2.0), 3),
                    SemiringAggregate.max),
    "min-plus": (MIN_PLUS, lambda rng: round(rng.uniform(-1.0, 3.0), 3),
                 SemiringAggregate.min),
    "boolean": (BOOLEAN, lambda rng: True, SemiringAggregate.logical_or),
}


def _multi_block(name, seed, blocks=3, chain=3, domain=6, density=0.5):
    """Disjoint sparse chain blocks: real step-DAG parallelism."""
    semiring, value_of, aggregate_factory = ELIGIBLE[name]
    rng = random.Random(104_729 * seed + sum(ord(c) for c in name))
    variables, factors, aggregates = [], [], {}
    for block in range(blocks):
        names = [f"b{block}v{i}" for i in range(chain)]
        for v in names:
            variables.append(Variable(v, tuple(range(domain))))
            aggregates[v] = aggregate_factory()
        for left, right in zip(names, names[1:]):
            table = {
                values: value_of(rng)
                for values in itertools.product(range(domain), range(domain))
                if rng.random() < density
            }
            factors.append(Factor((left, right), table, name=f"{left}{right}"))
    return FAQQuery(
        variables=variables, free=[], aggregates=aggregates,
        factors=factors, semiring=semiring,
    )


def _brute_force_by_block(query):
    """The oracle for a disjoint-block scalar query: the ⊗ of each block's
    brute-force value (the joint assignment box is out of brute force's reach)."""
    semiring = query.semiring
    value = semiring.one
    for block in sorted({v.split("v")[0] for v in query.order}):
        names = [v for v in query.order if v.split("v")[0] == block]
        part = FAQQuery(
            variables=[query.variables[v] for v in names], free=[],
            aggregates={v: query.aggregates[v] for v in names},
            factors=[f for f in query.factors if set(f.scope) <= set(names)],
            semiring=semiring,
        ).evaluate_brute_force()
        value = semiring.mul(value, part.table.get((), semiring.zero))
    return value


# ---------------------------------------------------------------------- #
# correctness and bit-identity
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(ELIGIBLE))
@pytest.mark.parametrize("seed", range(3))
def test_process_matches_serial_on_multi_block(name, seed):
    query = _multi_block(name, seed)
    serial = inside_out(query, backend="sparse")
    assert query.semiring.values_equal(
        serial.scalar_or_zero(query.semiring), _brute_force_by_block(query)
    ), f"{name}/seed={seed}: disagreement with brute force"
    for workers in (2, 4):
        executor = DagExecutor(workers=workers, workers_mode="process")
        parallel = executor.run(query, backend="sparse")
        _assert_identical(
            serial, parallel, f"{name}/seed={seed}/process-workers={workers}"
        )
        info = executor.last_process_info
        assert info is not None and info["remote_steps"] > 0, (
            f"{name}/seed={seed}: the pool never executed a step remotely"
        )
        assert not info["degraded"]


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@pytest.mark.parametrize("seed", range(4))
def test_process_matches_serial_on_random_family(name, seed):
    # The harness's random family includes product aggregates, all-free
    # queries and unpicklable ("set") semirings — the latter exercise the
    # transparent thread fallback.
    query = _random_query(name, seed)
    serial = inside_out(query, ordering=None, backend="sparse")
    parallel = inside_out(
        query, ordering=None, backend="sparse", workers=4, workers_mode="process"
    )
    _assert_correct(query, parallel, f"{name}/seed={seed}/process")
    _assert_identical(serial, parallel, f"{name}/seed={seed}/process")


def test_flat_kernel_composes_with_process_pool():
    """Flat-kernel steps run inside worker processes bit-identically."""
    force_flat = BackendPolicy(flat_min_rows=0)
    no_flat = BackendPolicy(flat_enabled=False)
    query = _multi_block("max-product", 5)
    trie = inside_out(query, backend="sparse", backend_policy=no_flat)
    executor = DagExecutor(workers=4, workers_mode="process")
    flat = executor.run(query, backend="sparse", backend_policy=force_flat)
    assert flat.factor.table == trie.factor.table
    assert any(s.backend == "flat" for s in flat.stats.steps)
    assert executor.last_process_info["remote_steps"] > 0
    # And the flat backend labels match the serial flat run's exactly.
    serial_flat = inside_out(query, backend="sparse", backend_policy=force_flat)
    assert [s.backend for s in flat.stats.steps] == [
        s.backend for s in serial_flat.stats.steps
    ]


# ---------------------------------------------------------------------- #
# fault injection
# ---------------------------------------------------------------------- #
def test_worker_crash_degrades_to_serial_not_hang():
    query = _multi_block("max-product", 1)
    serial = inside_out(query, backend="sparse")
    # Poison the worker that receives the first dispatched step: it exits
    # before replying.
    with injected_faults(FaultPlan(schedule={SITE_WORKER_KILL: {1: ACTION_KILL}})) as plan:
        executor = DagExecutor(workers=4, workers_mode="process")
        result = executor.run(query, backend="sparse")
    assert plan.injected.get(SITE_WORKER_KILL) == 1
    assert query.semiring.values_equal(
        result.scalar_or_zero(query.semiring), _brute_force_by_block(query)
    ), "crash-recovery: disagreement with brute force"
    _assert_identical(serial, result, "crash-recovery")
    info = executor.last_process_info
    assert info["degraded"], "a dead worker must degrade the pool"
    assert info["retried_steps"] >= 1, "the lost step must be retried in-process"
    assert info["remote_steps"] + info["local_steps"] == len(
        lower_insideout(query, list(serial.ordering))
        .nodes
    )


def test_crash_with_step_cache_resolves_claims():
    """A mid-run crash must not leave dangling in-flight cache claims."""
    query = _multi_block("min-plus", 2)
    serial = inside_out(query, backend="sparse")
    cache = StepResultCache()
    with injected_faults(FaultPlan(schedule={SITE_WORKER_KILL: {2: ACTION_KILL}})) as plan:
        executor = DagExecutor(workers=3, workers_mode="process")
        first = executor.run(query, backend="sparse", step_cache=cache)
    assert plan.injected.get(SITE_WORKER_KILL) == 1
    assert query.semiring.values_equal(
        first.scalar_or_zero(query.semiring), _brute_force_by_block(query)
    ), "crash+cache: disagreement with brute force"
    _assert_identical(serial, first, "crash+cache")
    # A later run on the same cache replays everything (nothing wedged).
    second = inside_out(query, backend="sparse", step_cache=cache)
    _assert_identical(serial, second, "crash+cache/replay")
    assert cache.replayed > 0


# ---------------------------------------------------------------------- #
# fallbacks and caching
# ---------------------------------------------------------------------- #
def test_unpicklable_context_falls_back_to_threads():
    lambda_semiring = dataclasses.replace(MAX_PRODUCT, mul=lambda a, b: a * b)
    query = _multi_block("max-product", 3)
    query = FAQQuery(
        variables=[query.variables[v] for v in query.order],
        free=list(query.free),
        aggregates=dict(query.aggregates),
        factors=list(query.factors),
        semiring=lambda_semiring,
    )
    serial = inside_out(query, backend="sparse")
    executor = DagExecutor(workers=4, workers_mode="process")
    result = executor.run(query, backend="sparse")
    assert executor.last_process_info is None, "pool should refuse lambda semirings"
    _assert_identical(serial, result, "thread-fallback")


def test_step_cache_through_process_scheduler():
    query = _multi_block("max-product", 4)
    serial = inside_out(query, backend="sparse")
    cache = StepResultCache()
    executor = DagExecutor(workers=4, workers_mode="process")
    cold = executor.run(query, backend="sparse", step_cache=cache)
    _assert_identical(serial, cold, "process-cache/cold")
    computed_after_cold = cache.computed
    warm = executor.run(query, backend="sparse", step_cache=cache)
    _assert_identical(serial, warm, "process-cache/warm")
    assert cache.computed == computed_after_cold, "warm run recomputed a step"
    assert cache.replayed >= computed_after_cold


# ---------------------------------------------------------------------- #
# workers="auto" and validation
# ---------------------------------------------------------------------- #
def test_workers_auto_resolution():
    resolved = validate_workers("auto")
    assert isinstance(resolved, int)
    assert 1 <= resolved <= AUTO_WORKERS_CAP
    assert resolved <= max(os.cpu_count() or 1, 1)
    query = _random_query("counting", 3)
    serial = inside_out(query)
    auto = inside_out(query, workers="auto")
    assert auto.factor.table == serial.factor.table
    executor = DagExecutor(workers="auto")
    assert executor.workers == resolved


def test_workers_validation_still_rejects_junk():
    query = _random_query("counting", 0)
    for bad in (0, -2, True, "automatic", 1.5):
        with pytest.raises(QueryError):
            inside_out(query, workers=bad)
    with pytest.raises(QueryError):
        DagExecutor(workers=2, workers_mode="fibers")
    with pytest.raises(QueryError):
        inside_out(query, workers=2, workers_mode="fibers")


def test_plan_server_accepts_auto_and_validates_mode():
    from repro.serve.server import PlanServer

    with PlanServer(workers="auto") as server:
        assert isinstance(server.workers, int) and server.workers >= 1
        assert server.workers_mode == "thread"
    with pytest.raises(QueryError):
        PlanServer(workers_mode="greenlets")


# ---------------------------------------------------------------------- #
# the shared-memory stores
# ---------------------------------------------------------------------- #
def test_blob_store_roundtrip_and_idempotence():
    store = ShmBlobStore()
    try:
        value = {"table": {(1, 2): 3.5}, "scope": ("x", "y")}
        name = store.put("k1", value)
        assert store.put("k1", {"other": True}) == name, "put must be idempotent"
        assert store.name_for("k1") == name
        assert store.name_for("missing") is None
        assert read_blob(name) == value
        assert len(store) == 1
    finally:
        store.close()
    assert len(store) == 0


def test_shared_cache_store_roundtrip_and_rejection():
    sections = {"rho_star": {"kind": "k", "version": 1, "entries": [(1, 2.0)]}}
    store = SharedCacheStore.publish(sections)
    try:
        assert SharedCacheStore.adopt(store.name) == sections
    finally:
        store.close()
    # Best-effort contract: anything invalid adopts nothing.
    assert SharedCacheStore.adopt(None) == {}
    assert SharedCacheStore.adopt("") == {}
    assert SharedCacheStore.adopt("psm_does_not_exist_xyz") == {}
    blob_store = ShmBlobStore()
    try:
        # A blob segment is not a cache store (no checksum) — rejected.
        name = blob_store.put("k", [1, 2, 3])
        assert SharedCacheStore.adopt(name) == {}
    finally:
        blob_store.close()


def test_cache_section_dump_and_adopt():
    from repro.hypergraph.covers import (
        adopt_rho_star_section,
        dump_rho_star_section,
    )
    from repro.planner import plan
    from repro.planner.cache import PlanCache

    query = _random_query("max-product", 9)
    cache = PlanCache()
    plan(query, cache=cache)  # warms both the plan cache and the rho* memo
    plans = cache.dump_section()
    assert plans["entries"], "planning should have cached a plan"
    other = PlanCache()
    assert other.adopt_section(plans) == len(plans["entries"])
    assert other.adopt_section({"kind": "wrong", "version": 0, "entries": []}) == 0
    rho = dump_rho_star_section()
    assert adopt_rho_star_section(rho) == len(rho["entries"])
    assert adopt_rho_star_section(None) == 0


def test_cold_replica_adopts_fleet_warm_caches():
    """The satellite-6 contract: a cold replica starts fleet-warm."""
    from repro.engine import Engine

    query = _multi_block("max-product", 6)
    engine = Engine()
    warm = engine.query(query)  # warms the engine plan cache + rho* memo
    with engine.serve(replicas=1, health_interval=None) as tier:
        results = tier.serve_batch([query])
        assert results[0].factor.table == warm.factor.table
        stats = tier._set.replicas[0].ping()
        assert stats is not None
        assert stats["shared_cache_adopted"] > 0, (
            "cold replica failed to adopt the published fleet caches"
        )
    engine.close()


# ---------------------------------------------------------------------- #
# the strict scaling gate
# ---------------------------------------------------------------------- #
@pytest.mark.skipif(
    not os.environ.get("FAQ_BENCH_STRICT"),
    reason="perf regression gates run under FAQ_BENCH_STRICT=1",
)
def test_process_scaling_beats_serial():
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(f"needs >= 4 cores for the 2x gate, have {cpus}")
    query = _multi_block(
        "max-product", 0, blocks=4, chain=4, domain=24, density=0.6
    )
    serial = inside_out(query, backend="sparse")

    def timed(workers, mode):
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            result = inside_out(
                query, backend="sparse", workers=workers, workers_mode=mode
            )
            best = min(best, time.perf_counter() - started)
            assert result.factor.table == serial.factor.table
        return best

    t1 = timed(1, "thread")
    t4 = timed(4, "process")
    assert t1 / t4 >= 2.0, (
        f"process workers=4 only {t1 / t4:.2f}x over workers=1 "
        f"(serial {t1 * 1e3:.1f}ms, parallel {t4 * 1e3:.1f}ms)"
    )
