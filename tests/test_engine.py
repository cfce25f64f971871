"""The top-level :class:`repro.Engine` facade."""

import pytest

from repro import Engine, EngineConfig, PlanFailure, ServeRequest, ServeResult
from repro.core.query import QueryError
from repro.planner import PlanCache, plan

from test_planner_differential import _random_query


def _reference(query):
    return plan(query, cache=PlanCache()).execute().factor


def test_engine_query_returns_typed_result():
    query = _random_query("counting", 0)
    with Engine() as engine:
        result = engine.query(query)
    assert isinstance(result, ServeResult)
    assert result.factor.table == _reference(query).table
    assert result.replica is None  # in-process path


def test_engine_config_and_overrides():
    config = EngineConfig(pool_size=2, plan_cache_size=16)
    engine = Engine(config, plan_cache_size=32)
    assert engine.config.pool_size == 2
    assert engine.config.plan_cache_size == 32  # override wins
    assert engine.cache.maxsize == 32
    engine.close()
    with pytest.raises(TypeError):
        Engine(no_such_option=1)


def test_engine_batch_coalesces_value_equal_queries():
    clients = [_random_query("counting", 3) for _ in range(4)]
    with Engine() as engine:
        results = engine.batch(clients)
        stats = engine.stats()
    assert stats["submitted"] == 4
    assert len({tuple(sorted(r.factor.table.items())) for r in results}) == 1


def test_engine_accepts_requests_and_options():
    query = _random_query("counting", 1)
    with Engine() as engine:
        via_option = engine.query(query, backend="sparse")
        via_request = engine.query(ServeRequest(query=query, options={"backend": "sparse"}))
        assert via_option.backend == via_request.backend == "sparse"
        with pytest.raises(PlanFailure):
            engine.query(query, strategy="no-such-strategy")
        with pytest.raises(QueryError):
            engine.query(query, frobnicate=1)  # unknown option name


def test_engine_plan_cache_is_shared_across_calls():
    with Engine() as engine:
        engine.query(_random_query("counting", 2))
        first = engine.cache.hits + engine.cache.misses
        assert first > 0
        engine.query(_random_query("counting", 2))  # value-equal repeat
        assert engine.cache.hits > 0


def test_engine_explain_and_plan():
    query = _random_query("counting", 0)
    with Engine() as engine:
        chosen = engine.plan(query)
        assert chosen.strategy
        assert chosen.ordering
        assert "strategy" in engine.explain(query)


def test_engine_close_is_idempotent_and_final():
    engine = Engine()
    engine.query(_random_query("counting", 0))
    engine.close()
    engine.close()
    with pytest.raises(RuntimeError):
        engine.query(_random_query("counting", 0))


def test_engine_stats_have_one_shape_across_the_lifecycle():
    """Zeros before first use, the final counts after ``close()`` — never a
    shorter dict, so ``stats()["coalesced"]`` is safe to read at any point."""
    engine = Engine()
    fresh = engine.stats()
    assert fresh["submitted"] == fresh["coalesced"] == fresh["merged_queries"] == 0
    queries = [_random_query("counting", seed) for seed in range(3)]
    engine.batch(queries)
    in_use = engine.stats()
    engine.close()
    closed = engine.stats()
    assert sorted(fresh) == sorted(in_use) == sorted(closed)
    assert in_use["submitted"] == closed["submitted"] == len(queries)
    assert closed["plan_cache_misses"] == in_use["plan_cache_misses"] > 0
    with pytest.raises(RuntimeError):
        engine.query(queries[0])
    never_used = Engine()
    never_used.close()
    assert sorted(never_used.stats()) == sorted(closed)


@pytest.mark.slow
def test_engine_serve_starts_a_replicated_tier():
    query = _random_query("counting", 4)
    want = _reference(query)
    engine = Engine(replicas=2, health_interval=None)
    with engine.serve() as tier:
        [result] = tier.serve_batch([query])
    assert result.replica in (0, 1)
    assert result.factor.table == want.table
    engine.close()


@pytest.mark.slow
def test_engine_serve_overrides_replace_config():
    engine = Engine(tenant_limit=1)
    with engine.serve(replicas=1, tenant_limit=None) as tier:
        assert tier.tenant_limit is None
        assert len(tier._set) == 1
    engine.close()
