"""Replicated serving tier benchmark (ROADMAP item 2): open-loop Zipf traffic.

The horizontal tier (:class:`repro.serve.Frontend`) stacks two orthogonal
wins over a single in-process :class:`~repro.serve.PlanServer`, and this
module measures them separately so neither can hide behind the other:

1. **capacity** — N replica processes execute distinct queries in
   parallel.  Measured with coalescing *disabled* (every request
   executes), as ``replica_speedup_x`` = single-replica wall / N-replica
   wall on identical traffic.  Process parallelism needs cores, so the row
   records ``cpu_count`` and the hard ≥2× assertion only gates under
   ``FAQ_BENCH_STRICT=1`` on ≥4-core hosts.
2. **content-hash coalescing** — value-equal in-flight requests from
   *different clients* (distinct query objects rebuilt per request)
   execute once tier-wide.  Measured on the same fleet with coalescing
   enabled: the dedup count and the wall-clock ratio
   (``coalesce_dedup_x``) are recorded but not CI-gated — how many
   duplicates overlap in flight depends on host speed.

Traffic is open-loop (Poisson arrivals at a fixed offered rate,
independent of completions — arrivals do not wait for the server) with
Zipf-skewed popularity over a pool of query classes, the standard serving
shape: a few hot queries dominate, a long tail keeps the caches honest.
Per-request latency percentiles come from the coalesced fleet run.

Results land in the shared ``--json`` channel and, on full-size runs, are
merged into ``BENCH_planner.json`` (``serve:*`` rows) where
``benchmarks/compare_bench.py`` trends them across PRs.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import time

import pytest

from _sizes import pick, publish, quick_mode, record_result

from repro.core.query import FAQQuery, Variable
from repro.factors.factor import Factor
from repro.planner import PlanCache, plan
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import SUM_PRODUCT
from repro.serve import Frontend, ServeRequest

REQUESTS = pick(150, 12)
CLASSES = pick(8, 3)
REPLICAS = pick(4, 2)
OFFERED_RPS = pick(2000.0, 500.0)  # offered load; open-loop, not paced by service
CHAIN = pick(5, 3)
DOMAIN = pick(8, 3)
ZIPF_S = 1.1
DRIVE_REPEAT = pick(2, 1)


def _query_class(class_id: int) -> FAQQuery:
    """A fresh query object of class ``class_id`` (deterministic content).

    Every call builds *new* objects — value-equal to earlier builds of the
    same class but distinct in identity, exactly like the same query
    arriving from different clients.  Coalescing therefore has to work on
    content digests; object identity never matches.
    """
    rng = random.Random(1000 + class_id)
    names = [f"q{class_id}v{i}" for i in range(CHAIN)]
    domain = tuple(range(DOMAIN))
    variables = [Variable(name, domain) for name in names]
    factors = []
    for i in range(CHAIN - 1):
        table = {
            (a, b): round(rng.uniform(0.1, 1.0), 6)
            for a in range(DOMAIN)
            for b in range(DOMAIN)
        }
        factors.append(Factor((names[i], names[i + 1]), table))
    return FAQQuery(
        variables=variables,
        free=[names[0]],
        aggregates={name: SemiringAggregate.sum() for name in names[1:]},
        factors=factors,
        semiring=SUM_PRODUCT,
        name=f"serve-class-{class_id}",
    )


def _zipf_weights(n: int, s: float = ZIPF_S):
    raw = [1.0 / (rank**s) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def _schedule(seed: int):
    """``[(arrival_offset_s, class_id), ...]`` — Poisson arrivals, Zipf classes."""
    rng = random.Random(seed)
    weights = _zipf_weights(CLASSES)
    arrivals, t = [], 0.0
    for _ in range(REQUESTS):
        t += rng.expovariate(OFFERED_RPS)
        cid = rng.choices(range(CLASSES), weights=weights)[0]
        arrivals.append((t, cid))
    return arrivals


def _drive(frontend: Frontend, arrivals, coalesce: bool):
    """Replay the arrival schedule; returns ``([(latency, cid, result)], wall)``.

    Open-loop: each request sleeps until its scheduled arrival, then
    submits regardless of how backed up the tier is.  Latency is measured
    from submission (post-arrival) to completion.
    """

    async def _run():
        base = time.perf_counter()

        async def one(offset, cid):
            delay = offset - (time.perf_counter() - base)
            if delay > 0:
                await asyncio.sleep(delay)
            request = ServeRequest(query=_query_class(cid), coalesce=coalesce)
            started = time.perf_counter()
            result = await frontend.submit(request)
            return time.perf_counter() - started, cid, result

        outs = await asyncio.gather(*(one(offset, cid) for offset, cid in arrivals))
        return list(outs), time.perf_counter() - base

    return asyncio.run(_run())


def _best_drive(frontend: Frontend, arrivals, coalesce: bool, repeat: int = DRIVE_REPEAT):
    best_outs, best_wall = None, float("inf")
    for _ in range(repeat):
        outs, wall = _drive(frontend, arrivals, coalesce)
        if wall < best_wall:
            best_outs, best_wall = outs, wall
    return best_outs, best_wall


def _percentile(sorted_values, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _warm(frontend: Frontend) -> None:
    """Ship every class's factor tables and warm each replica's plans."""
    frontend.serve_batch(
        [ServeRequest(query=_query_class(cid), coalesce=False) for cid in range(CLASSES)]
    )


@pytest.mark.shape
def test_shape_serve_tier_openloop_zipf():
    """Open-loop Zipf traffic: replica capacity scaling + tier-wide dedup."""
    arrivals = _schedule(seed=7)
    expected = {
        cid: plan(_query_class(cid), cache=PlanCache()).execute().factor
        for cid in range(CLASSES)
    }

    # -- capacity: coalescing off, every request executes ---------------- #
    with Frontend(replicas=1, health_interval=None) as single:
        _warm(single)
        _, single_wall = _best_drive(single, arrivals, coalesce=False)
    with Frontend(replicas=REPLICAS, health_interval=None) as fleet:
        _warm(fleet)
        _, fleet_nocoalesce_wall = _best_drive(fleet, arrivals, coalesce=False)

        # -- dedup: same fleet, coalescing on --------------------------- #
        outs, fleet_wall = _best_drive(fleet, arrivals, coalesce=True)
        stats = fleet.stats()
        pongs = [p for p in fleet.ping() if p is not None]

    for latency, cid, result in outs:
        assert result.factor.table == expected[cid].table
        assert latency >= 0.0
    assert stats["shed_queue"] == stats["shed_tenant"] == stats["shed_deadline"] == 0
    assert len(pongs) == REPLICAS, "every replica alive after the run"

    latencies = sorted(latency for latency, _, _ in outs)
    coalesced = sum(1 for _, _, result in outs if result.coalesced)
    cpus = os.cpu_count() or 1
    replica_speedup = (
        single_wall / fleet_nocoalesce_wall if fleet_nocoalesce_wall else float("inf")
    )
    dedup_x = fleet_nocoalesce_wall / fleet_wall if fleet_wall else float("inf")
    record = record_result(
        "serve:openloop-zipf",
        requests=REQUESTS,
        classes=CLASSES,
        replicas=REPLICAS,
        offered_rps=OFFERED_RPS,
        single_wall_s=single_wall,
        fleet_nocoalesce_wall_s=fleet_nocoalesce_wall,
        fleet_wall_s=fleet_wall,
        replica_speedup_x=replica_speedup,
        coalesce_dedup_x=dedup_x,
        coalesced=coalesced,
        throughput_rps=REQUESTS / fleet_wall if fleet_wall else float("inf"),
        p50_s=_percentile(latencies, 0.50),
        p95_s=_percentile(latencies, 0.95),
        p99_s=_percentile(latencies, 0.99),
        cpu_count=cpus,
    )
    print(
        f"\n[serve] open-loop zipf ({REQUESTS} req, {CLASSES} classes, "
        f"{REPLICAS} replicas @ {OFFERED_RPS:.0f} rps offered): "
        f"single={single_wall * 1e3:.0f}ms fleet={fleet_nocoalesce_wall * 1e3:.0f}ms "
        f"(speedup {replica_speedup:.2f}x) coalesced fleet={fleet_wall * 1e3:.0f}ms "
        f"(dedup {dedup_x:.2f}x, {coalesced} coalesced) "
        f"p50={record['p50_s'] * 1e3:.1f}ms p95={record['p95_s'] * 1e3:.1f}ms "
        f"p99={record['p99_s'] * 1e3:.1f}ms (cpus={cpus})"
    )
    if not quick_mode():
        # Hot classes repeat tens of times at this offered rate; some of
        # those arrivals overlap in flight on any realistic host.
        assert coalesced > 0, "expected tier-wide dedup on Zipf traffic"
        # Wall-clock process-parallel speedup needs cores, so the ≥2×
        # acceptance threshold only hard-gates on dedicated ≥4-core hosts
        # (FAQ_BENCH_STRICT=1); elsewhere the recorded row + the
        # compare_bench.py trend gate (cpu-sensitive) carry the signal.
        if os.environ.get("FAQ_BENCH_STRICT", "") not in ("", "0") and cpus >= 4:
            assert replica_speedup >= 2.0, (
                f"expected ≥2x fleet speedup on {cpus} cores, got {replica_speedup:.2f}x"
            )
        publish([record])


RESTART_CHAIN = pick(6, 3)
RESTART_DOMAIN = pick(12, 3)
RESTART_REPEAT = pick(3, 1)


def _restart_query() -> FAQQuery:
    """A chain query big enough that a cold baseline run dominates a
    restored-view delta propagation (fresh objects per call, like a
    restarted process rebuilding its request)."""
    rng = random.Random(4242)
    names = [f"rv{i}" for i in range(RESTART_CHAIN)]
    domain = tuple(range(RESTART_DOMAIN))
    variables = [Variable(name, domain) for name in names]
    factors = []
    for i in range(RESTART_CHAIN - 1):
        table = {
            (a, b): round(rng.uniform(0.1, 1.0), 6)
            for a in range(RESTART_DOMAIN)
            for b in range(RESTART_DOMAIN)
        }
        factors.append(Factor((names[i], names[i + 1]), table))
    return FAQQuery(
        variables=variables,
        free=[names[0]],
        aggregates={n: SemiringAggregate.sum() for n in names[1:]},
        factors=factors,
        semiring=SUM_PRODUCT,
        name="warm-restart",
    )


@pytest.mark.shape
def test_shape_warm_restart_beats_cold(tmp_path):
    """ROADMAP item 4: a server restarted over its snapshot spill answers
    its first incremental request warm — measured as time-to-first-answer
    against a cold restart of the identical server.

    ``cold_restart_s`` = construct a fresh :class:`PlanServer` (no spill)
    and apply one factor delta: plan + full baseline run + propagation.
    ``warm_restart_s`` = construct a server over the previous incarnation's
    :class:`SnapshotStore` and apply the same delta: restore + propagation
    only (``incremental_full_runs == 0`` certifies no hidden recompute).
    Both legs are best-of-``RESTART_REPEAT``; warm must be faster (see the
    note at the assertion for why the bar is not a multiple any more).
    """
    from repro.factors import FactorDelta
    from repro.serve import PlanServer, SnapshotStore

    spill_dir = tmp_path / "spill"
    query = _restart_query()
    scope = query.factors[0].scope
    delta1 = FactorDelta(scope, {(0, 0): 0.5})
    delta2 = FactorDelta(scope, {(1, 1): 0.25})
    updated = query.factors[0].apply_delta(delta1, query.semiring)
    after1 = FAQQuery(
        variables=[query.variables[v] for v in query.order],
        free=query.free,
        aggregates=query.aggregates,
        factors=[updated] + list(query.factors[1:]),
        semiring=query.semiring,
        name=query.name,
    )

    # The previous incarnation: serve + update once, spilling the warm view.
    seed_server = PlanServer(snapshot_store=SnapshotStore(spill_dir))
    seed_server.update_factor(ServeRequest(query=query), 0, delta1)
    assert seed_server.stats()["snapshot_saves"] >= 1
    seed_server.shutdown()

    def first_answer(make_server):
        """Construct a server and apply ``delta2``: ``(seconds, result, stats)``."""
        started = time.perf_counter()
        server = make_server()
        result = server.update_factor(ServeRequest(query=after1), 0, delta2)
        seconds = time.perf_counter() - started
        stats = server.stats()
        server.shutdown()
        return seconds, result, stats

    # Best of RESTART_REPEAT per leg, like the file's other shapes.
    # Cold restart: no spill — plan, full baseline, then the delta.
    colds = [first_answer(PlanServer) for _ in range(RESTART_REPEAT)]
    # Warm restart: restore the spilled view, then the delta.  Each
    # incarnation gets its own copy of the spill, because a server spills
    # again after the update and would leave the next one a view of the
    # *updated* content.
    warms = []
    for attempt in range(RESTART_REPEAT):
        spill = shutil.copytree(spill_dir, tmp_path / f"spill-{attempt}")
        warms.append(
            first_answer(lambda: PlanServer(snapshot_store=SnapshotStore(spill)))
        )
    cold_restart_s, cold, _ = min(colds, key=lambda run: run[0])
    warm_restart_s = min(seconds for seconds, _, _ in warms)
    for _, warm, stats in warms:
        assert warm.factor.table == cold.factor.table, "warm answer must be bit-identical"
        assert stats["snapshot_restores"] >= 1, "the warm server never restored"
        assert stats["incremental_full_runs"] == 0, "warm restart paid a full recompute"

    speedup = cold_restart_s / warm_restart_s if warm_restart_s else float("inf")
    record = record_result(
        "serve:warm-restart",
        chain=RESTART_CHAIN,
        domain=RESTART_DOMAIN,
        cold_restart_s=cold_restart_s,
        warm_restart_s=warm_restart_s,
        warm_restart_speedup_x=speedup,
    )
    print(
        f"\n[serve] warm restart (chain={RESTART_CHAIN}, domain={RESTART_DOMAIN}): "
        f"cold={cold_restart_s * 1e3:.1f}ms warm={warm_restart_s * 1e3:.1f}ms "
        f"({speedup:.2f}x faster to first incremental answer)"
    )
    if not quick_mode():
        # The bar used to be >=2x and the recorded ratio 7.0x (single-shot:
        # cold 47-66 ms, warm 8-13 ms) — but ~70 % of that cold leg was cold
        # *planning*, i.e. scipy.linprog calls for the chain's cover LPs.
        # With the LPs solved at their own size the cold leg is 12-13 ms
        # best-of-3 (20-24 ms single-shot) and the warm leg 6-7 ms, six runs
        # 1.7-2.4x: both legs do the work they always did, the numerator's
        # LPs shrank.  A multiple would gate planning time, not the restore;
        # the restore's own claim is that it beats a cold start (and pays no
        # full run, asserted above).  compare_bench.py trends the ratio.
        assert warm_restart_s < cold_restart_s, (
            f"warm restart ({warm_restart_s * 1e3:.1f}ms) must beat a cold one "
            f"({cold_restart_s * 1e3:.1f}ms)"
        )
        publish([record])


@pytest.mark.shape
def test_shape_admission_sheds_only_over_capacity():
    """A tiny pending bound sheds the overflow and serves the rest.

    The admission decision happens before the first ``await`` in
    ``Frontend.submit``, so with ``max_pending=2`` a burst of value-equal
    requests yields exactly: primaries/coalesced waiters admitted, the
    rest shed as :class:`Overloaded` — never a hang, never a lost request.
    """
    from repro.serve import Overloaded, ServeResult

    burst = pick(12, 6)
    with Frontend(replicas=1, health_interval=None, max_pending=2) as fe:
        outcomes = fe.serve_batch(
            [ServeRequest(query=_query_class(cid % CLASSES), coalesce=False)
             for cid in range(burst)],
            return_exceptions=True,
        )
    served = [o for o in outcomes if isinstance(o, ServeResult)]
    shed = [o for o in outcomes if isinstance(o, Overloaded)]
    assert len(served) + len(shed) == burst
    assert len(served) >= 2 and len(shed) >= 1
    assert fe.stats()["shed_queue"] == len(shed)
