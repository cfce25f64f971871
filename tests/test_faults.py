"""Deterministic fault injection and the hardening it drives.

This file is the single home for failure-path testing.  Before PR 10 the
failure modes were each covered by a bespoke monkeypatch scattered across
the suite (a wedged step-cache claimant in the incremental tests, a hand-set
shed EWMA in the frontend tests); those scenarios are promoted here onto the
named fault sites of :mod:`repro.faults` so one seeded :class:`FaultPlan`
can replay any of them exactly.

Layers, bottom up:

* the :class:`FaultPlan` harness itself (determinism, schedules, child
  configs);
* :class:`RetryPolicy` validation and backoff shape;
* :class:`SnapshotStore` durability (atomic, checksummed, version-tagged,
  best-effort under injected I/O faults);
* in-process hardening — ``step.kernel`` faults abandon step-cache claims
  and surface as typed :class:`PlanFailure`;
* the wire — RPC deadlines (``drop`` → :class:`ReplicaTimeout`), protocol
  desync (``corrupt`` → :class:`ReplicaCrashed`), kills, busy-vs-wedged
  pings, idempotent close;
* warm restarts — a killed server resumes incremental service from its
  snapshot spill (``snapshot_restores >= 1``, no full recompute);
* updates stay in-process, and a fleet answers each content with its own
  answer, before and after an update alike;
* chaos — seeded randomized fault schedules against live traffic.  The
  invariant: every request terminates with a bit-correct answer or a
  typed :class:`ServeError`.  Never a hang, never a wrong answer.

The short chaos profile runs in tier-1 (``chaos`` marker); the long soak
is additionally marked ``slow``.
"""

import threading
import time

import pytest

from repro.caching import seal, unseal, write_atomic
from repro.core.insideout import inside_out
from repro.core.query import FAQQuery, QueryError, Variable
from repro.exec import (
    DagExecutor,
    RunSpec,
    StepResultCache,
)
from repro.factors import Factor, FactorDelta
from repro.factors.index import SharedTrieCache
from repro.faults import (
    ACTION_CORRUPT,
    ACTION_DELAY,
    ACTION_DROP,
    ACTION_ERROR,
    ACTION_KILL,
    SITE_REPLICA_KILL,
    SITE_SNAPSHOT_IO,
    SITE_STEP_KERNEL,
    SITE_WIRE_RECV,
    SITE_WIRE_SEND,
    SITES,
    FaultPlan,
    InjectedFault,
    clear_plan,
    current_plan,
    injected_faults,
    install_plan,
)
from repro.planner import query_content_key
from repro.semiring.aggregates import SemiringAggregate
from repro.semiring.standard import COUNTING
from repro.serve import (
    Frontend,
    PlanFailure,
    PlanServer,
    ReplicaCrashed,
    ReplicaHandle,
    ReplicaSet,
    ReplicaTimeout,
    RetryPolicy,
    ServeError,
    ServeRequest,
    ServeResult,
    SnapshotStore,
)
from repro.serve import replica as replica_module
from repro.serve.snapshot import SNAPSHOT_KIND, SNAPSHOT_VERSION

from _helpers import on_threads, step_accounting
from test_exec_parallel import _multi_block


# ---------------------------------------------------------------------- #
# query helpers
# ---------------------------------------------------------------------- #
def _chain_query(length=3, salt=0, name=None):
    """A small counting chain query; ``salt`` varies the table content."""
    names = [f"v{i}" for i in range(length)]
    variables = [Variable(n, (0, 1, 2)) for n in names]
    factors = [
        Factor(
            (names[i], names[i + 1]),
            {
                (a, b): (a + 2 * b + i + salt) % 5 + 1
                for a in range(3)
                for b in range(3)
            },
            name=f"f{i}",
        )
        for i in range(length - 1)
    ]
    return FAQQuery(
        variables=variables,
        free=[names[0]],
        aggregates={n: SemiringAggregate.sum() for n in names[1:]},
        factors=factors,
        semiring=COUNTING,
        name=name or f"chain{length}s{salt}",
    )


def _expected(query):
    """Fault-free reference answer (brute force, listing scope)."""
    return query.evaluate_brute_force()


def _assert_answer(query, factor, label=""):
    assert _expected(query).equals(factor, COUNTING), f"wrong answer {label}"


def _updated_query(query, deltas):
    """The query after applying ``(factor_index, delta)`` batches (new factors)."""
    factors = list(query.factors)
    for index, delta in deltas:
        factors[index] = factors[index].apply_delta(delta, query.semiring)
    return FAQQuery(
        variables=[query.variables[v] for v in query.order],
        free=query.free,
        aggregates=query.aggregates,
        factors=factors,
        semiring=query.semiring,
        name=query.name,
    )


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no process-global plan installed."""
    clear_plan()
    yield
    clear_plan()


# ---------------------------------------------------------------------- #
# the FaultPlan harness
# ---------------------------------------------------------------------- #
class TestFaultPlan:
    def test_schedule_fires_exactly_the_nth_call(self):
        plan = FaultPlan(schedule={SITE_STEP_KERNEL: {3: ACTION_ERROR}})
        draws = [plan.draw(SITE_STEP_KERNEL) for _ in range(5)]
        assert draws == [None, None, ACTION_ERROR, None, None]
        assert plan.calls[SITE_STEP_KERNEL] == 5
        assert plan.injected == {SITE_STEP_KERNEL: 1}
        assert plan.total_injected == 1

    def test_seeded_rates_are_reproducible(self):
        script_a = [
            FaultPlan(seed=42, rates={SITE_WIRE_RECV: 0.3}).draw(SITE_WIRE_RECV)
            for _ in range(1)
        ]
        plan_a = FaultPlan(seed=42, rates={SITE_WIRE_RECV: 0.3})
        plan_b = FaultPlan(seed=42, rates={SITE_WIRE_RECV: 0.3})
        script_a = [plan_a.draw(SITE_WIRE_RECV) for _ in range(200)]
        script_b = [plan_b.draw(SITE_WIRE_RECV) for _ in range(200)]
        assert script_a == script_b
        assert any(a is not None for a in script_a)
        # A different seed yields a different script (with overwhelming odds).
        plan_c = FaultPlan(seed=43, rates={SITE_WIRE_RECV: 0.3})
        assert [plan_c.draw(SITE_WIRE_RECV) for _ in range(200)] != script_a

    def test_rate_actions_restricted_to_given_set(self):
        plan = FaultPlan(seed=7, rates={SITE_WIRE_SEND: (1.0, [ACTION_DELAY])})
        assert {plan.draw(SITE_WIRE_SEND) for _ in range(20)} == {ACTION_DELAY}

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(rates={"wire.teleport": 0.5})
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(schedule={"quantum.flip": {1: ACTION_ERROR}})

    def test_child_config_roundtrip(self):
        plan = FaultPlan(
            seed=11,
            rates={SITE_WIRE_RECV: (0.25, [ACTION_DROP, ACTION_CORRUPT])},
            schedule={SITE_REPLICA_KILL: {2: ACTION_KILL}},
            delay=0.005,
        )
        config = plan.child_config(3)
        assert config["seed"] == 11 + 7919 * 4  # per-replica offset
        child = FaultPlan.from_config(config)
        assert child.delay == 0.005
        # The child's schedule still fires call 2 at replica.kill.
        assert child.draw(SITE_REPLICA_KILL) is None
        assert child.draw(SITE_REPLICA_KILL) == ACTION_KILL
        # Configs survive pickling (they cross the process boundary).
        import pickle

        assert FaultPlan.from_config(pickle.loads(pickle.dumps(config))) is not None
        assert FaultPlan.from_config(None) is None

    def test_injected_faults_restores_previous_plan(self):
        outer = FaultPlan(seed=1)
        install_plan(outer)
        with injected_faults(FaultPlan(seed=2)) as inner:
            assert current_plan() is inner
        assert current_plan() is outer
        clear_plan()
        assert current_plan() is None

    def test_draw_is_thread_safe(self):
        plan = FaultPlan(seed=5, rates={SITE_STEP_KERNEL: 0.5})
        errors = []

        def hammer():
            try:
                for _ in range(500):
                    plan.draw(SITE_STEP_KERNEL)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert plan.calls[SITE_STEP_KERNEL] == 2000


# ---------------------------------------------------------------------- #
# RetryPolicy
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(QueryError):
            RetryPolicy(attempts=0)
        with pytest.raises(QueryError):
            RetryPolicy(rpc_timeout=0.0)
        RetryPolicy(attempts=1)  # the minimum is fine

    def test_backoff_is_bounded_exponential(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.08, jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.01)
        assert policy.backoff(2) == pytest.approx(0.02)
        assert policy.backoff(3) == pytest.approx(0.04)
        assert policy.backoff(4) == pytest.approx(0.08)
        assert policy.backoff(10) == pytest.approx(0.08)  # capped

    def test_backoff_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=1.0, jitter=0.5)
        for _ in range(50):
            delay = policy.backoff(2)
            assert 0.02 <= delay <= 0.03


# ---------------------------------------------------------------------- #
# SnapshotStore durability
# ---------------------------------------------------------------------- #
class TestSnapshotStore:
    def test_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        sections = {"views": [("k", {"answer": 42})], "results": None}
        assert store.save("server", sections)
        assert store.load("server") == sections
        stats = store.stats()
        assert stats["snapshot_saves"] == 1
        assert stats["snapshot_loads"] == 1
        assert stats["snapshot_save_errors"] == 0
        assert stats["snapshot_load_errors"] == 0

    def test_missing_file_is_a_clean_miss(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.load("never-saved") is None
        assert store.stats()["snapshot_load_errors"] == 0

    def test_corrupted_payload_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.save("server", {"views": []})
        path = store.path_for("server")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload bit: the checksum must catch it
        path.write_bytes(bytes(raw))
        assert store.load("server") is None

    def test_wrong_magic_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.path_for("server").write_bytes(b"NOTASNAP" + b"\0" * 64)
        assert store.load("server") is None

    def test_injected_io_faults_are_best_effort(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with injected_faults(FaultPlan(schedule={SITE_SNAPSHOT_IO: {1: ACTION_ERROR}})):
            assert store.save("server", {"views": []}) is False
        assert store.stats()["snapshot_save_errors"] == 1
        assert store.save("server", {"views": []})  # recovers once clear
        with injected_faults(FaultPlan(schedule={SITE_SNAPSHOT_IO: {1: ACTION_ERROR}})):
            assert store.load("server") is None
        assert store.stats()["snapshot_load_errors"] == 1
        assert store.load("server") == {"views": []}

    def test_failed_save_leaves_previous_snapshot_intact(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.save("server", {"generation": 1})
        with injected_faults(FaultPlan(schedule={SITE_SNAPSHOT_IO: {1: ACTION_ERROR}})):
            assert store.save("server", {"generation": 2}) is False
        assert store.load("server") == {"generation": 1}


# ---------------------------------------------------------------------- #
# in-process hardening (promoted from the old monkeypatch tests)
# ---------------------------------------------------------------------- #
class TestInProcessFaults:
    def test_step_kernel_fault_abandons_claim_then_recovers(self):
        """A kernel fault must release the step-cache claim (no wedge)."""
        query = _chain_query()
        cache = StepResultCache(maxsize=64)
        executor = DagExecutor()
        with injected_faults(FaultPlan(schedule={SITE_STEP_KERNEL: {1: ACTION_ERROR}})):
            with pytest.raises(InjectedFault):
                executor.run(query, step_cache=cache)
        assert not cache._inflight, "a failed step left its claim wedged"
        # The very next run (same cache) succeeds — nothing waits forever.
        result = executor.run(query, step_cache=cache)
        _assert_answer(query, result.factor, "after claim release")

    def test_nth_step_kernel_call_is_the_nth_executed_step(self):
        """One draw per executed step — semiring, product and output alike —
        so a scheduled call number names a step, not a draw inside one."""
        query = _chain_query(length=5)  # four semiring steps, then the output
        cache = StepResultCache(maxsize=64)
        plan = FaultPlan(schedule={SITE_STEP_KERNEL: {3: ACTION_ERROR}})
        with injected_faults(plan):
            with pytest.raises(InjectedFault):
                DagExecutor().run(query, step_cache=cache)
        assert plan.calls[SITE_STEP_KERNEL] == 3
        assert cache.computed == 2, "the fault must land on the third step"
        assert not cache._inflight

    @pytest.mark.parametrize("threads", [1, 4], ids=["1-thread", "4-thread"])
    def test_step_kernel_draws_equal_executed_nodes(self, threads):
        """Requests run alone or concurrently on one step source draw
        exactly once per executed node; a replayed node draws nothing."""
        query = _multi_block("max-product", 1)
        spec = RunSpec(query, backend="sparse")
        cache = StepResultCache()

        def run(_):
            return step_accounting(DagExecutor().run_many([spec], step_cache=cache))

        with injected_faults(FaultPlan()) as plan:
            cold = on_threads(threads, run, switch_interval=1e-5)
            executed = sum(info.executed for info in cold)
            assert executed == cold[0].total
            assert plan.calls[SITE_STEP_KERNEL] == executed
            warm = on_threads(threads, run)
            assert sum(info.executed for info in warm) == 0
            assert plan.calls[SITE_STEP_KERNEL] == executed

    def test_pool_shared_state_survives_thread_contention(self):
        """Concurrent requests share one trie store and one step source.
        More threads than cores, switching every 10 µs: a lost update breaks
        the step accounting or the answer."""
        query = _multi_block("max-product", 3, blocks=6)
        serial = inside_out(query, backend="sparse")
        query_content_key(query)  # leaves the digest memo the store keys by
        for _ in range(3):
            store = SharedTrieCache(query.order, query.semiring, query.factors)
            cache = StepResultCache()

            def run(_):
                [result] = DagExecutor().run_many(
                    [RunSpec(query, backend="sparse", shared_tries=store)],
                    step_cache=cache,
                )
                return result

            outcomes = on_threads(6, run, switch_interval=1e-5)
            for result in outcomes:
                assert result.factor.table == serial.factor.table
            infos = [step_accounting([result]) for result in outcomes]
            assert sum(info.executed for info in infos) == infos[0].total
            assert cache.computed == infos[0].total
            assert sum(info.replayed for info in infos) == 5 * infos[0].total

    def test_server_converts_kernel_fault_to_typed_plan_failure(self):
        server = PlanServer()
        query = _chain_query()
        with injected_faults(FaultPlan(schedule={SITE_STEP_KERNEL: {1: ACTION_ERROR}})):
            with pytest.raises(PlanFailure) as info:
                server.execute_request(ServeRequest(query=query, coalesce=False))
        assert "InjectedFault" in str(info.value)
        result = server.execute_request(ServeRequest(query=query, coalesce=False))
        _assert_answer(query, result.factor, "served after injected kernel fault")
        server.shutdown()

    def test_failed_merged_run_reruns_each_request_alone(self):
        """A kernel fault in a merged run of two requests fails neither:
        each spec re-runs alone, and no merged run is counted."""
        queries = [_chain_query(salt=salt) for salt in (1, 2)]
        requests = [ServeRequest(query=q, options={"strategy": "insideout"}) for q in queries]
        schedule = {SITE_STEP_KERNEL: {1: ACTION_ERROR}}
        with PlanServer() as server, injected_faults(FaultPlan(schedule=schedule)) as plan:
            results = server.execute_batch(requests)
            stats = server.stats()
        assert plan.calls[SITE_STEP_KERNEL] > 1
        for query, result in zip(queries, results):
            _assert_answer(query, result.factor, "after a failed merged run")
            assert not result.coalesced
        assert stats["merged_queries"] == stats["merged_batches"] == 0

    def test_freely_planned_request_draws_the_same_site(self):
        """A request naming variable elimination is a typed failure before
        any step draws the site; the same query planned freely (the plan
        variable elimination used to win) is a run of the one driver: a
        ``step.kernel`` fault is a typed failure, the step-cache claims are
        abandoned, and the site is drawn once per executed node."""
        query = _chain_query(length=5)  # four elimination steps, then the output
        refused = ServeRequest(query=query, options={"strategy": "variable-elimination"})
        request = ServeRequest(query=query)
        schedule = {SITE_STEP_KERNEL: {3: ACTION_ERROR}}
        with PlanServer() as server, injected_faults(FaultPlan(schedule=schedule)) as plan:
            with pytest.raises(PlanFailure, match="variable-elimination"):
                server.execute_request(refused)
            assert plan.calls.get(SITE_STEP_KERNEL, 0) == 0
            with pytest.raises(PlanFailure) as info:
                server.execute_request(request)
            assert "InjectedFault" in str(info.value)
            assert plan.calls[SITE_STEP_KERNEL] == 3
            assert not server._step_results._inflight, "a failed step left its claim wedged"
            assert server.stats()["step_cache_computed"] == 2
            # An identical request replays the two finished steps and computes
            # the rest; a wedged claim would block it forever.
            result = server.submit(request).result(timeout=30)
            assert result.strategy == "insideout"
            _assert_answer(query, result.factor, "served after injected kernel fault")
            stats = server.stats()
            assert (stats["step_cache_computed"], stats["step_cache_replayed"]) == (5, 2)
            # draws == executed nodes: five computed plus the one that faulted.
            assert plan.calls[SITE_STEP_KERNEL] == 5 + 1


# ---------------------------------------------------------------------- #
# the wire: deadlines, desync, kills, pings, close
# ---------------------------------------------------------------------- #
@pytest.mark.slow
class TestReplicaWireFaults:
    def test_dropped_reply_surfaces_as_replica_timeout(self):
        replica = ReplicaHandle(0, rpc_timeout=0.5)
        try:
            query = _chain_query()
            # A dropped request means no reply ever comes: the RPC deadline
            # must fire instead of hanging forever.
            with injected_faults(
                FaultPlan(schedule={SITE_WIRE_SEND: {1: ACTION_DROP}})
            ):
                started = time.monotonic()
                with pytest.raises(ReplicaTimeout):
                    replica.execute([ServeRequest(query=query)])
                assert time.monotonic() - started < 5.0
            assert replica.timeouts == 1
            # ReplicaTimeout is a ReplicaCrashed: callers restart and go on.
            replica.restart()
            [result] = replica.execute([ServeRequest(query=query)])
            _assert_answer(query, result.factor, "after timeout restart")
        finally:
            replica.close()

    def test_corrupt_send_is_a_protocol_desync_not_a_hang(self):
        replica = ReplicaHandle(0, rpc_timeout=5.0)
        try:
            query = _chain_query()
            with injected_faults(
                FaultPlan(schedule={SITE_WIRE_SEND: {1: ACTION_CORRUPT}})
            ):
                with pytest.raises(ReplicaCrashed):
                    replica.execute([ServeRequest(query=query)])
            replica.restart()
            [result] = replica.execute([ServeRequest(query=query)])
            _assert_answer(query, result.factor, "after desync restart")
        finally:
            replica.close()

    def test_corrupt_reply_rejected_by_validation(self):
        replica = ReplicaHandle(0, rpc_timeout=5.0)
        try:
            with injected_faults(
                FaultPlan(schedule={SITE_WIRE_RECV: {1: ACTION_CORRUPT}})
            ):
                with pytest.raises(ReplicaCrashed):
                    replica.execute([ServeRequest(query=_chain_query())])
        finally:
            replica.close()

    def test_injected_kill_detected_and_restartable(self):
        replica = ReplicaHandle(0, rpc_timeout=5.0)
        try:
            query = _chain_query()
            with injected_faults(
                FaultPlan(schedule={SITE_REPLICA_KILL: {1: ACTION_KILL}})
            ):
                with pytest.raises(ReplicaCrashed):
                    replica.execute([ServeRequest(query=query)])
            assert not replica.alive()
            replica.restart()
            # The restarted replica lost its factor tables; the NEED
            # handshake re-ships them transparently.
            [result] = replica.execute([ServeRequest(query=query)])
            _assert_answer(query, result.factor, "after kill restart")
        finally:
            replica.close()

    def test_busy_replica_ping_returns_cached_pong_not_restart(self):
        replica = ReplicaHandle(0, rpc_timeout=5.0)
        try:
            first = replica.ping()
            assert first is not None and first.get("served") == 0
            # Simulate "busy": the handle lock is held by an in-flight RPC.
            with replica.lock:
                pong = replica.ping(lock_wait=0.05)
            # Busy is not wedged: we get the cached pong, no restart needed.
            assert pong is first
        finally:
            replica.close()

    def test_wedged_replica_ping_returns_none(self):
        replica = ReplicaHandle(0, rpc_timeout=5.0)
        try:
            with injected_faults(
                FaultPlan(schedule={SITE_WIRE_SEND: {1: ACTION_DROP}})
            ):
                assert replica.ping(timeout=0.3) is None
        finally:
            replica.close()

    def test_close_is_idempotent_and_fleet_registered_for_atexit(self):
        fleet = ReplicaSet(2, rpc_timeout=5.0)
        assert fleet in replica_module._LIVE_SETS
        fleet.close()
        fleet.close()  # second close is a no-op
        handle = ReplicaHandle(0, rpc_timeout=5.0)
        handle.close()
        handle.close()


# ---------------------------------------------------------------------- #
# warm restarts from snapshot spill
# ---------------------------------------------------------------------- #
def _spilled_sections(tmp_path, name):
    """The sections a server spills after one answer and one view update."""
    store = SnapshotStore(tmp_path)
    server = PlanServer(snapshot_store=store, cache_results=True)
    request = ServeRequest(query=_chain_query(name=name))
    server.execute_request(request)
    server.update_factor(request, 0, FactorDelta(("v0", "v1"), {(0, 0): 9}))
    server.shutdown()
    raw = store.path_for("server").read_bytes()
    sections = unseal(raw, kind=SNAPSHOT_KIND, version=SNAPSHOT_VERSION)
    assert sections["views"] and sections["results"]["entries"]
    return sections


def _restores(tmp_path, sections, version):
    """``snapshot_restores`` of a server revived over ``sections`` sealed at
    ``version``."""
    path = SnapshotStore(tmp_path).path_for("server")
    write_atomic(path, seal(sections, kind=SNAPSHOT_KIND, version=version))
    revived = PlanServer(snapshot_store=SnapshotStore(tmp_path), cache_results=True)
    try:
        return revived.stats()["snapshot_restores"]
    finally:
        revived.shutdown()


class TestWarmRestart:
    def test_server_restart_resumes_incremental_from_snapshot(self, tmp_path):
        """The in-process acceptance path: spill on update, restore warm."""
        store = SnapshotStore(tmp_path)
        query = _chain_query(name="warm")
        delta1 = FactorDelta(("v0", "v1"), {(0, 0): 9})
        delta2 = FactorDelta(("v0", "v1"), {(1, 1): 7})
        after1 = _updated_query(query, [(0, delta1)])
        after2 = _updated_query(after1, [(0, delta2)])

        server = PlanServer(snapshot_store=store)
        request = ServeRequest(query=query)
        _assert_answer(query, server.execute_request(request).factor, "baseline")
        result = server.update_factor(request, 0, delta1)
        _assert_answer(after1, result.factor, "first update")
        assert store.stats()["snapshot_saves"] >= 1, "update must spill"
        server.shutdown()

        # A "restarted" server over the same directory restores the warm
        # view and answers the next incremental update without a full run.
        revived = PlanServer(snapshot_store=SnapshotStore(tmp_path))
        stats = revived.stats()
        assert stats["snapshot_restores"] >= 1
        result = revived.update_factor(ServeRequest(query=after1), 0, delta2)
        _assert_answer(after2, result.factor, "post-restore update")
        stats = revived.stats()
        assert stats["incremental_hits"] >= 1, "restored view must be warm"
        assert stats["incremental_full_runs"] == 0, (
            "a warm restart must not pay a cold full recompute"
        )
        revived.shutdown()

    def test_spill_under_another_content_key_version_adopts_nothing(self, tmp_path):
        """A spill names factors and steps by content digest, and its
        factors carry their digest memos: one sealed under the previous
        content-key version must restore no view and no result."""
        from repro.planner.signature import CONTENT_KEY_VERSION, sealed_version
        from repro.serve.server import _RESULT_SNAPSHOT_VERSION

        for tag in (SNAPSHOT_VERSION, _RESULT_SNAPSHOT_VERSION):
            assert tag == sealed_version(tag[0])  # each follows the content key
        sections = _spilled_sections(tmp_path, "stale-spill")
        stale = (1, CONTENT_KEY_VERSION - 1)
        assert _restores(tmp_path, sections, SNAPSHOT_VERSION) >= 2  # views and results
        assert _restores(tmp_path, sections, stale) == 0
        assert SnapshotStore(tmp_path).load("server") is None
        # the result section inside a current envelope carries its own tag
        sections = dict(sections, views=[], results=dict(sections["results"], version=stale))
        assert _restores(tmp_path, sections, SNAPSHOT_VERSION) == 0

    def test_spill_of_the_previous_layout_adopts_nothing(self, tmp_path):
        """A view's spilled state is its step cache's entries from layout 2
        on, a dense factor pickles its non-zero count memo from layout 3
        on, step records are frozen, slotted values from layout 4 on, and a
        view spills its kept run's intermediates from layout 5 on: a spill
        sealed at an earlier layout restores no view and no result."""
        from repro.planner.signature import sealed_version

        assert SNAPSHOT_VERSION == sealed_version(5)
        sections = _spilled_sections(tmp_path, "old-layout")
        for layout in (1, 2, 3, 4):
            assert _restores(tmp_path, sections, sealed_version(layout)) == 0

    def test_restored_result_cache_serves_without_recompute(self, tmp_path):
        store = SnapshotStore(tmp_path)
        query = _chain_query(name="warm-results")
        server = PlanServer(snapshot_store=store)
        request = ServeRequest(query=query)
        first = server.execute_request(request)
        assert server.snapshot_now()
        server.shutdown()

        revived = PlanServer(snapshot_store=SnapshotStore(tmp_path))
        again = revived.execute_request(request)
        assert again.factor.table == first.factor.table
        revived.shutdown()


# ---------------------------------------------------------------------- #
# updates are in-process; the fleet reads content
# ---------------------------------------------------------------------- #
def test_fleet_answers_each_content_after_an_in_process_update():
    """Content addressing alone keeps a fleet's reads consistent across
    an update, the property the removed epoch gate claimed to guard.

    The update is applied in-process by ``PlanServer.update_factor``; the
    fleet never sees that server, only the two contents.  What no other
    test covers is one fleet holding both contents at once: the pre- and
    post-update queries in one coalesced batch, then again uncoalesced in
    the other order, each answered with its own content's table, and the
    fleet's post-update table equal to the in-process update's."""
    query = _chain_query(name="content-read")
    delta = FactorDelta(("v0", "v1"), {(0, 0): 11, (2, 1): 4})
    updated = _updated_query(query, [(0, delta)])
    server = PlanServer()
    try:
        fresh = server.update_factor(ServeRequest(query=query), 0, delta)
    finally:
        server.shutdown()
    _assert_answer(updated, fresh.factor, "in-process update")
    assert not _expected(query).equals(_expected(updated), COUNTING)
    with Frontend(replicas=2, health_interval=None) as frontend:
        before, after = frontend.serve_batch(
            [ServeRequest(query=query), ServeRequest(query=updated)]
        )
        again_after, again_before = frontend.serve_batch(
            [ServeRequest(query=updated, coalesce=False),
             ServeRequest(query=query, coalesce=False)]
        )
    for label, outcome, want in (
        ("pre-update", before, query),
        ("post-update", after, updated),
        ("post-update, uncoalesced", again_after, updated),
        ("pre-update, uncoalesced", again_before, query),
    ):
        _assert_answer(want, outcome.factor, label)
    assert fresh.factor.table == after.factor.table


# ---------------------------------------------------------------------- #
# observability & frontend resilience
# ---------------------------------------------------------------------- #
@pytest.mark.slow
class TestObservability:
    def test_stats_expose_robustness_counters(self):
        with Frontend(replicas=1, health_interval=None) as frontend:
            query = _chain_query(name="obs")
            frontend.serve_batch([ServeRequest(query=query)])
            pongs = frontend.ping()
            stats = frontend.stats()
        for key in ("retries", "timeouts", "faults_injected", "replica_crashes"):
            assert key in stats, f"missing stats key {key!r}"
        assert stats["faults_injected"] == 0  # no plan installed
        (pong,) = pongs
        for key in ("faults_injected", "snapshot_restores", "snapshot_saves"):
            assert key in pong, f"missing pong key {key!r}"
        fleet = stats["fleet"]
        assert all("timeouts" in row for row in fleet)

    def test_retry_counters_advance_on_injected_timeouts(self):
        query = _chain_query(name="retry-count")
        with Frontend(
            replicas=1,
            health_interval=None,
            retry=RetryPolicy(attempts=3, base_delay=0.01, rpc_timeout=0.5),
        ) as frontend:
            with injected_faults(
                FaultPlan(schedule={SITE_WIRE_SEND: {1: ACTION_DROP}})
            ):
                result = frontend.serve_batch([ServeRequest(query=query)])[0]
                # faults_injected reads the live plan, so sample it here.
                assert frontend.stats()["faults_injected"] >= 1
            _assert_answer(query, result.factor, "served through a retry")
            stats = frontend.stats()
            assert stats["retries"] >= 1
            assert stats["timeouts"] >= 1

    def test_frontend_close_is_idempotent(self):
        frontend = Frontend(replicas=1, health_interval=None)
        frontend.close()
        frontend.close()

    def test_shed_ewma_recovers_after_injected_latency_spike(self):
        """The promoted shed-EWMA scenario: a wire-delay fault inflates the
        latency estimate; the estimate must decay and admit again."""
        query = _chain_query(name="ewma")
        with Frontend(replicas=1, health_interval=None) as frontend:
            plan = FaultPlan(
                schedule={SITE_WIRE_RECV: {1: ACTION_DELAY}}, delay=0.3
            )
            with injected_faults(plan):
                frontend.serve_batch([ServeRequest(query=query, coalesce=False)])
            assert frontend.stats()["latency_ewma_s"] >= 0.05
            # Deadline-bearing requests shed while the estimate is hot,
            # then admit again once fault-free traffic decays it.
            deadline = 0.05
            admitted = False
            for _ in range(200):
                outcome = frontend.serve_batch(
                    [ServeRequest(query=query, coalesce=False, deadline=deadline)],
                    return_exceptions=True,
                )[0]
                if isinstance(outcome, ServeResult):
                    admitted = True
                    break
                assert isinstance(outcome, ServeError)
            assert admitted, "the shed EWMA never recovered"


# ---------------------------------------------------------------------- #
# chaos: seeded fault schedules against live traffic
# ---------------------------------------------------------------------- #
def _chaos_wave(frontend, queries, expected, wave, width=5):
    """One wave of concurrent uncoalesced requests; asserts the invariant:
    every outcome is bit-correct or a typed ServeError.  Returns counts."""
    picks = [(wave + k) % len(queries) for k in range(width)]
    outcomes = frontend.serve_batch(
        [ServeRequest(query=queries[i], coalesce=False) for i in picks],
        return_exceptions=True,
    )
    ok = errors = 0
    for i, outcome in zip(picks, outcomes):
        if isinstance(outcome, ServeResult):
            assert expected[i].equals(outcome.factor, COUNTING), (
                f"chaos wave {wave}: WRONG answer for query {i}"
            )
            ok += 1
        else:
            assert isinstance(outcome, ServeError), (
                f"chaos wave {wave}: untyped failure {outcome!r}"
            )
            errors += 1
    return ok, errors


@pytest.mark.chaos
def test_chaos_short_profile():
    """Tier-1 chaos: 40 requests under a seeded schedule hitting every
    parent-side fleet fault site.  No hangs, no wrong answers."""
    queries = [_chain_query(length=3 + (i % 2), salt=i, name=f"chaos{i}") for i in range(4)]
    expected = [_expected(q) for q in queries]
    plan = FaultPlan(
        seed=2016,
        schedule={
            SITE_REPLICA_KILL: {3: ACTION_KILL},
            SITE_WIRE_SEND: {5: ACTION_CORRUPT, 11: ACTION_DELAY},
            SITE_WIRE_RECV: {8: ACTION_DROP, 14: ACTION_CORRUPT},
        },
        delay=0.01,
    )
    served = failed = 0
    with Frontend(
        replicas=2,
        health_interval=None,
        retry=RetryPolicy(attempts=4, base_delay=0.01, rpc_timeout=1.5),
    ) as frontend:
        with injected_faults(plan):
            for wave in range(8):
                ok, errors = _chaos_wave(frontend, queries, expected, wave)
                served += ok
                failed += errors
        assert plan.total_injected >= 5, "the schedule never fired"
        assert set(plan.injected) == {
            SITE_REPLICA_KILL,
            SITE_WIRE_SEND,
            SITE_WIRE_RECV,
        }
        # The tier recovered: fault-free traffic is all answers again.
        ok, errors = _chaos_wave(frontend, queries, expected, wave=0)
        assert errors == 0 and ok == 5
    assert served + failed == 40
    assert served >= 30, "retries should absorb most injected faults"


@pytest.mark.chaos
@pytest.mark.slow
def test_chaos_soak_covers_every_fault_site(tmp_path):
    """The long soak: >=200 requests under seeded random fault schedules
    covering all five sites, in two phases (fleet wire faults, then
    in-process execution/snapshot faults).  The invariant throughout:
    every request terminates with a bit-correct answer or a typed
    ServeError — never a hang, never a wrong answer."""
    queries = [_chain_query(length=3 + (i % 2), salt=i, name=f"soak{i}") for i in range(4)]
    expected = [_expected(q) for q in queries]
    covered = set()
    total_requests = 0

    # -- phase 1: the fleet under wire/replica chaos (150 requests) ----- #
    plan_fleet = FaultPlan(
        seed=20160626,
        rates={
            SITE_REPLICA_KILL: 0.02,
            SITE_WIRE_SEND: (0.04, [ACTION_DELAY, ACTION_CORRUPT]),
            SITE_WIRE_RECV: (0.03, [ACTION_DROP, ACTION_DELAY, ACTION_CORRUPT]),
        },
        schedule={
            # Guarantee coverage regardless of the seeded draws.
            SITE_REPLICA_KILL: {7: ACTION_KILL},
            SITE_WIRE_SEND: {9: ACTION_CORRUPT},
            SITE_WIRE_RECV: {13: ACTION_DROP},
        },
        delay=0.01,
    )
    served = failed = 0
    with Frontend(
        replicas=2,
        health_interval=None,
        retry=RetryPolicy(attempts=4, base_delay=0.01, rpc_timeout=1.0),
    ) as frontend:
        with injected_faults(plan_fleet):
            for wave in range(30):
                ok, errors = _chaos_wave(frontend, queries, expected, wave)
                served += ok
                failed += errors
                total_requests += 5
        covered.update(plan_fleet.injected)
        # Recovery: with the plan cleared the tier answers everything.
        ok, errors = _chaos_wave(frontend, queries, expected, wave=0)
        assert errors == 0 and ok == 5
    assert served + failed == 150
    assert served >= 100

    # -- phase 2: serving under kernel + snapshot I/O chaos ------------- #
    plan_serve = FaultPlan(
        seed=7919,
        rates={SITE_STEP_KERNEL: 0.12, SITE_SNAPSHOT_IO: 0.3},
        schedule={
            SITE_STEP_KERNEL: {2: ACTION_ERROR},
            SITE_SNAPSHOT_IO: {1: ACTION_ERROR},
        },
    )
    server = PlanServer(snapshot_store=SnapshotStore(tmp_path / "soak"))
    with injected_faults(plan_serve):
        for i in range(60):
            idx = i % len(queries)
            try:
                result = server.execute_request(
                    ServeRequest(query=queries[idx], coalesce=bool(i % 2))
                )
                assert expected[idx].equals(result.factor, COUNTING), (
                    f"soak serve {i}: WRONG answer"
                )
            except PlanFailure:
                pass  # typed, and the server stays serviceable
            total_requests += 1
        # Incremental updates under the same chaos: on failure the view
        # stays at its pre-update content (consistent — cold, never wrong).
        current = queries[0]
        for round_no in range(6):
            delta = FactorDelta(("v0", "v1"), {(0, 0): round_no + 2})
            try:
                result = server.update_factor(
                    ServeRequest(query=current), 0, delta
                )
            except PlanFailure:
                continue
            current = _updated_query(current, [(0, delta)])
            assert _expected(current).equals(result.factor, COUNTING), (
                f"soak update {round_no}: WRONG post-update answer"
            )
    covered.update(plan_serve.injected)
    assert plan_serve.injected.get(SITE_STEP_KERNEL, 0) >= 1
    assert plan_serve.injected.get(SITE_SNAPSHOT_IO, 0) >= 1

    # Fault-free recovery: the same server answers everything correctly.
    for idx, query in enumerate(queries):
        result = server.execute_request(ServeRequest(query=query, coalesce=False))
        assert expected[idx].equals(result.factor, COUNTING)
    server.shutdown()

    assert total_requests >= 200, total_requests
    assert covered == set(SITES), (
        f"soak did not cover every fault site: missing {set(SITES) - covered}"
    )
