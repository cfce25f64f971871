"""The replicated serving tier: correctness, coalescing, shedding, restarts.

Replica processes make these tests inherently multi-process; they stay
small (tiny queries, fleets of 1–2) so the suite remains fast on 1-CPU
hosts.  Determinism notes inline: admission and coalescing decisions all
happen *before* the first ``await`` inside ``Frontend.submit``, so a
single ``gather`` over a batch observes them in submission order.
"""

import asyncio

import pytest

from repro.planner import PlanCache, plan
from repro.serve import (
    Frontend,
    Overloaded,
    PlanFailure,
    ServeRequest,
    ServeResult,
)

from test_planner_differential import _random_query

pytestmark = pytest.mark.slow


def _reference(query):
    return plan(query, cache=PlanCache()).execute().factor


@pytest.fixture
def frontend():
    fe = Frontend(replicas=2, health_interval=None)
    yield fe
    fe.close()


def test_replicas_match_in_process_reference(frontend):
    queries = [_random_query("counting", seed) for seed in range(4)]
    expected = [_reference(q) for q in queries]
    results = frontend.serve_batch(queries)
    for result, want in zip(results, expected):
        assert isinstance(result, ServeResult)
        assert result.replica in (0, 1)
        assert result.factor.scope == want.scope
        assert result.factor.table == want.table


def test_value_equal_requests_coalesce_across_clients(frontend):
    # Five *distinct* objects with identical content — different clients
    # issuing the same query.  All submissions register their content key
    # before the first await, so every duplicate deterministically joins
    # the primary's in-flight execution.
    clients = [_random_query("counting", 7) for _ in range(5)]
    assert len({id(q) for q in clients}) == 5
    results = frontend.serve_batch(clients)
    assert [r.coalesced for r in results] == [False, True, True, True, True]
    assert len({tuple(sorted(r.factor.table.items())) for r in results}) == 1
    stats = frontend.stats()
    assert stats["submitted"] == 5
    assert stats["coalesced"] == 4
    # One execution tier-wide: exactly one replica served exactly one request.
    served = [p["served"] for p in frontend.ping() if p is not None]
    assert sum(served) == 1


def test_coalescing_opt_out_executes_every_request(frontend):
    clients = [
        ServeRequest(query=_random_query("counting", 3), coalesce=False)
        for _ in range(3)
    ]
    results = frontend.serve_batch(clients)
    assert all(not r.coalesced for r in results)
    assert sum(p["served"] for p in frontend.ping() if p is not None) == 3


def test_factor_tables_ship_once_per_replica(frontend):
    # Value-equal traffic re-sent in a second batch must not re-ship factor
    # payloads: the replicas' known-digest sets are already warm.
    frontend.serve_batch([ServeRequest(query=_random_query("counting", 9), coalesce=False)
                          for _ in range(2)])
    known_after_first = [len(r.known) for r in frontend._set.replicas]
    assert sum(known_after_first) >= 1
    frontend.serve_batch([ServeRequest(query=_random_query("counting", 9), coalesce=False)
                          for _ in range(2)])
    assert [len(r.known) for r in frontend._set.replicas] == known_after_first


def test_tenant_quota_sheds_excess_in_flight():
    with Frontend(replicas=1, health_interval=None, tenant_limit=1) as fe:
        requests = [
            ServeRequest(query=_random_query("counting", seed), tenant="acme", coalesce=False)
            for seed in range(3)
        ]
        outcomes = fe.serve_batch(requests, return_exceptions=True)
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        ok = [o for o in outcomes if isinstance(o, ServeResult)]
        # The first submission occupies the quota before any await; the
        # other two are shed at admission.
        assert len(ok) == 1 and len(shed) == 2
        assert all(e.tenant == "acme" for e in shed)
        assert fe.stats()["shed_tenant"] == 2


def test_tenant_quota_holds_on_the_merged_path():
    def same_tenant_batch():
        # One factor set -> one sharing key -> one merged group under merge=True.
        return [
            ServeRequest(query=_random_query("counting", 3), tenant="acme") for _ in range(4)
        ]

    with Frontend(replicas=1, health_interval=None, tenant_limit=1) as fe:
        outcomes = fe.serve_batch(same_tenant_batch(), return_exceptions=True, merge=False)
        assert sum(isinstance(o, Overloaded) for o in outcomes) == 3
        assert fe.stats()["shed_tenant"] == 3
        # As one group the four would put acme at 4 in flight: shed whole.
        outcomes = fe.serve_batch(same_tenant_batch(), return_exceptions=True)
        assert all(isinstance(o, Overloaded) and o.tenant == "acme" for o in outcomes)
        stats = fe.stats()
        assert stats["shed_tenant"] == 3 + 4
        assert stats["merged_groups"] == 0


def test_merged_group_admission_checks_queue_bound_and_types():
    group = [ServeRequest(query=_random_query("counting", 3)) for _ in range(4)]
    with Frontend(replicas=1, health_interval=None, max_pending=3) as fe:
        # The bound applies to the backlog *with* the group, not before it.
        outcomes = fe.serve_batch(group, return_exceptions=True)
        assert all(isinstance(o, Overloaded) for o in outcomes)
        assert fe.stats()["shed_queue"] == 4
        assert fe.serve_batch(group[:3])[0].factor.equals(
            _reference(group[0].query), group[0].query.semiring
        )
        with pytest.raises(TypeError, match="ServeRequest"):
            asyncio.run(fe.submit_many([group[0].query]))


def test_tenant_quota_is_per_tenant():
    with Frontend(replicas=1, health_interval=None, tenant_limit=1) as fe:
        requests = [
            ServeRequest(query=_random_query("counting", seed), tenant=f"t{seed}", coalesce=False)
            for seed in range(3)
        ]
        outcomes = fe.serve_batch(requests, return_exceptions=True)
        assert all(isinstance(o, ServeResult) for o in outcomes)
        assert fe.stats()["shed_tenant"] == 0


def test_global_queue_bound_sheds():
    with Frontend(replicas=1, health_interval=None, max_pending=1) as fe:
        requests = [
            ServeRequest(query=_random_query("counting", seed), coalesce=False)
            for seed in range(4)
        ]
        outcomes = fe.serve_batch(requests, return_exceptions=True)
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        assert len(shed) == 3
        assert fe.stats()["shed_queue"] == 3


def test_deadline_aware_rejection():
    with Frontend(replicas=1, health_interval=None) as fe:
        # Prime the latency estimate as if the tier were very slow; the
        # admission check then sheds any deadline a backlogged tier cannot
        # meet, while a no-deadline request sails through.
        fe._latency_ewma = 5.0
        requests = [
            ServeRequest(query=_random_query("counting", 1), coalesce=False),
            ServeRequest(query=_random_query("counting", 2), deadline=0.001, coalesce=False),
            ServeRequest(query=_random_query("counting", 3), coalesce=False),
        ]
        outcomes = fe.serve_batch(requests, return_exceptions=True)
        assert isinstance(outcomes[0], ServeResult)
        assert isinstance(outcomes[1], Overloaded)
        assert "deadline" in str(outcomes[1])
        assert isinstance(outcomes[2], ServeResult)
        assert fe.stats()["shed_deadline"] == 1


def test_generous_deadline_is_served(frontend):
    [result] = frontend.serve_batch([
        ServeRequest(query=_random_query("counting", 4), deadline=60.0)
    ])
    assert isinstance(result, ServeResult)


def test_replica_crash_is_restarted_and_request_retried():
    with Frontend(replicas=1, health_interval=None) as fe:
        query = _random_query("counting", 5)
        want = _reference(query)
        [first] = fe.serve_batch([query])
        assert first.factor.table == want.table
        # Kill the whole fleet out from under the tier.
        for handle in fe._set.replicas:
            handle.process.terminate()
            handle.process.join(5.0)
        [again] = fe.serve_batch([_random_query("counting", 5)])
        assert again.factor.table == want.table
        stats = fe.stats()
        assert stats["replica_crashes"] >= 1
        assert stats["fleet"][0]["restarts"] >= 1
        assert stats["fleet"][0]["alive"]


def test_health_loop_restarts_dead_replicas():
    with Frontend(replicas=1, health_interval=0.05) as fe:
        async def scenario():
            await fe.submit(ServeRequest(query=_random_query("counting", 6)))
            fe._set.replicas[0].process.terminate()
            fe._set.replicas[0].process.join(5.0)
            for _ in range(100):
                await asyncio.sleep(0.05)
                if fe._set.replicas[0].alive():
                    break
            assert fe._set.replicas[0].alive()
            await fe._cancel_health_task()

        asyncio.run(scenario())


def test_plan_failure_is_typed_and_crosses_the_pipe(frontend):
    bad = ServeRequest(
        query=_random_query("counting", 8),
        options={"strategy": "no-such-strategy"},
    )
    outcomes = frontend.serve_batch([bad], return_exceptions=True)
    assert isinstance(outcomes[0], PlanFailure)
    assert "no-such-strategy" in str(outcomes[0])
    # The replica survived the bad request.
    assert all(p is not None for p in frontend.ping())


def test_a_failing_group_member_does_not_mark_the_others_coalesced():
    """A merged group in which one request fails: the good request was run,
    not shared, so it comes back ``coalesced=False`` and counts as served —
    a failure is its own request's outcome, not a cause to re-run the rest."""
    query = _random_query("counting", 3)
    group = [
        ServeRequest(query=query),
        ServeRequest(query=query, options={"strategy": "yannakakis"}),
    ]
    with Frontend(replicas=1, health_interval=None) as fe:
        good, bad = fe.serve_batch(group, return_exceptions=True)
        [pong] = fe.ping()
        assert fe.stats()["coalesced"] == 0
    assert isinstance(bad, PlanFailure)
    assert isinstance(good, ServeResult) and not good.coalesced
    assert good.factor.table == _reference(query).table
    assert pong["served"] == 1 and pong["result_cache_hits"] == 0


def test_factorized_output_rejected_at_the_frontend(frontend):
    request = ServeRequest(query=_random_query("counting", 2), output_mode="factorized")
    outcomes = frontend.serve_batch([request], return_exceptions=True)
    assert isinstance(outcomes[0], PlanFailure)
    assert "process boundary" in str(outcomes[0])


def test_ping_reports_replica_counters(frontend):
    frontend.serve_batch([_random_query("counting", 0), _random_query("counting", 1)])
    pongs = frontend.ping()
    assert len(pongs) == 2
    assert all(p is not None and "served" in p and "factor_store" in p for p in pongs)
    assert sum(p["served"] for p in pongs) == 2


def test_shed_decays_latency_ewma():
    """A failure/slow burst pins the latency EWMA high; sheds produce no
    latency sample, so without decay the estimate could never recover and
    every deadline-carrying request would be rejected forever.  Each shed
    now decays the EWMA by one step, so the tier probes its way back to
    admitting real work."""
    with Frontend(replicas=1, health_interval=None) as fe:
        fe._latency_ewma = 100.0
        fe._pending = 1  # a standing backlog: estimated wait == the EWMA

        async def drive():
            request = ServeRequest(
                query=_random_query("counting", 5), deadline=1.0, coalesce=False
            )
            for attempt in range(60):
                try:
                    return attempt, await fe.submit(request)
                except Overloaded:
                    continue
            raise AssertionError("EWMA never decayed enough to admit a request")

        sheds, result = asyncio.run(drive())
        assert isinstance(result, ServeResult)
        assert sheds > 0  # the first attempts were shed...
        assert fe.stats()["shed_deadline"] == sheds
        # ...and the estimate ended up low enough to admit, then was
        # refreshed by the admitted request's real latency sample.
        assert fe._latency_ewma < 100.0
        fe._pending = 0


def test_decay_latency_steps_the_ewma_down():
    fe = Frontend(replicas=1, health_interval=None)
    try:
        assert fe._latency_ewma is None
        fe._decay_latency()  # no observation yet: stays unset
        assert fe._latency_ewma is None
        fe._latency_ewma = 10.0
        fe._decay_latency()
        assert fe._latency_ewma == pytest.approx(8.0)
    finally:
        fe.close()


def test_async_with_closes_the_fleet_and_aclose_is_idempotent():
    query = _random_query("counting", 2)

    async def scenario():
        async with Frontend(replicas=1, health_interval=0.05) as fe:
            result = await fe.submit(ServeRequest(query=query))
            handles = list(fe._set.replicas)
            assert all(handle.alive() for handle in handles)
        return fe, handles, result

    fe, handles, result = asyncio.run(scenario())
    assert result.factor.table == _reference(query).table
    assert not any(handle.alive() for handle in handles)
    assert fe._health_task is None
    asyncio.run(fe.aclose())  # a second close does nothing
    assert not any(handle.alive() for handle in handles)
    with pytest.raises(RuntimeError):
        fe.serve_batch([query])


def test_closed_frontend_refuses_work():
    fe = Frontend(replicas=1, health_interval=None)
    fe.close()
    with pytest.raises(RuntimeError):
        fe.serve_batch([_random_query("counting", 0)])
