"""The in-process serving loop: one warm engine behind a typed submit API.

:class:`PlanServer` owns a thread pool, a shared
:class:`~repro.planner.cache.PlanCache` and a bounded store of
:class:`~repro.factors.index.SharedTrieCache` instances.  The pool is the
server's only source of threads: a request's elimination steps run on the
pool thread that serves it, and concurrent requests meet only in the
locked shared stores and the step-result cache's claim protocol.  The
redesigned surface speaks :class:`~repro.serve.api.ServeRequest` /
:class:`~repro.serve.api.ServeResult` only; a bare ``FAQQuery`` is refused
with a typed :class:`~repro.core.query.QueryError`.

Two reuse effects stack on repeated traffic, both keyed by *content* —
stable cross-process digests from :func:`repro.planner.signature.query_content_key`
and :func:`~repro.planner.signature.factor_digest` — never by object
identity, so nothing is pinned and nothing is invalidated in place (new
content makes new keys; old entries age out of their LRUs):

1. **content-hash coalescing** — value-equal in-flight requests (even
   distinct objects from different clients) execute once; duplicates get
   the same result flagged ``coalesced=True``.
2. **digest-keyed warm tries** — the store for a (query content,
   ordering) indexes base factors by their content digest, so value-equal
   queries rebuilt as fresh objects skip re-indexing their inputs.

Plans come from the plan cache under the query's structural signature,
which the content key has already computed and memoised: a value-equal
repeat is a plan-cache hit that scores nothing.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.caching import LruCache
from repro.core.insideout import STEP_COMPUTED, STEP_REPLAYED
from repro.core.query import QueryError
from repro.exec import DagExecutor, StepResultCache
from repro.factors.delta import FactorDelta
from repro.factors.index import SharedTrieCache
from repro.incremental import IncrementalView
from repro.planner import (
    Plan,
    PlanCache,
    PlanResult,
    STRATEGY_INSIDEOUT,
    plan,
    query_content_key,
)
from repro.planner.signature import sealed_version
from repro.serve.api import PlanFailure, ServeRequest, ServeResult
from repro.serve.snapshot import SnapshotStore

_MAX_SHARED_QUERIES = 64
_MAX_INCREMENTAL_VIEWS = 32
_RESULT_CACHE_SIZE = 256
_STEP_CACHE_SIZE = 512

# kind/version tags of the completed-result section inside a snapshot
# (layout 2: a result's stats and step records are frozen, slotted values).
_RESULT_SNAPSHOT_KIND = "repro-serve-results"
_RESULT_SNAPSHOT_VERSION = sealed_version(2)


def _require_request(request: Any) -> None:
    """Refuse anything but a :class:`ServeRequest` with a typed error."""
    if not isinstance(request, ServeRequest):
        raise QueryError(
            f"PlanServer takes ServeRequest objects, got {type(request).__name__}; "
            "wrap the query in repro.serve.ServeRequest"
        )


def _plan_failure(exc: Exception) -> PlanFailure:
    """The one conversion of an engine exception (a ``QueryError``, an
    injected kernel fault, ...) into the typed, non-retryable failure."""
    name = type(exc).__name__
    failure = PlanFailure(
        str(exc) if isinstance(exc, QueryError) else f"{name}: {exc}", cause_type=name
    )
    failure.__cause__ = exc
    return failure


class PlanServer:
    """A long-lived serving loop over the planner and the engines.

    Every request is served as part of a batch — a single request is a
    batch of one — and every plan it executes, like every incremental
    update, runs on the one step-DAG driver
    (:class:`repro.exec.DagExecutor`).  A batch differs only in its size
    and its step source (the server's step-result cache, or none for a
    ``coalesce=False`` request); an update re-runs only its cone of the
    run its :class:`~repro.incremental.IncrementalView` keeps.  A
    request's steps run on the thread that serves it; concurrency is
    across requests.

    Sharing is per request (:attr:`ServeRequest.coalesce`): the coalescible
    requests of a batch run as one merged multi-sink step DAG in which
    each distinct step digest executes once.

    Parameters
    ----------
    pool_size:
        Thread-pool size for concurrent request execution: a positive
        integer, or ``None`` for the CPU count.
    cache:
        The :class:`~repro.planner.cache.PlanCache` to plan against
        (defaults to a server-private one).  A query is planned once per
        exact signature: its later requests, and those of isomorphic
        queries whose factor sizes share its log2 buckets, reuse the plan.
    cache_results:
        Keep a bounded LRU of *completed* :class:`ServeResult` objects
        keyed by content digest, answering value-identical repeats without
        re-execution.  Off by default in-process (in-process repeats
        already replay from the step-result cache); the replica tier enables it —
        its rendezvous-routed traffic concentrates repeats per replica.
    snapshot_store:
        A :class:`~repro.serve.snapshot.SnapshotStore` to spill the warm
        incremental views and completed results to after every update
        batch, and to restore them from at construction, so a restarted
        server answers its first update warm.  ``None`` (the default)
        keeps nothing on disk.
    """

    def __init__(
        self,
        *,
        pool_size: Optional[int] = None,
        cache: Optional[PlanCache] = None,
        cache_results: bool = False,
        snapshot_store: Optional[SnapshotStore] = None,
    ) -> None:
        if pool_size is not None and (
            isinstance(pool_size, bool) or not isinstance(pool_size, int) or pool_size < 1
        ):
            raise QueryError(f"pool_size must be a positive integer or None, got {pool_size!r}")
        self.pool_size = pool_size or os.cpu_count() or 1
        self.cache = cache if cache is not None else PlanCache()
        self._pool = ThreadPoolExecutor(
            max_workers=self.pool_size, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        # content key -> primary in-flight future (typed path only).
        self._inflight: Dict[str, "Future[ServeResult]"] = {}
        # (query content key, ordering) -> SharedTrieCache (LRU).
        self._shared = LruCache(maxsize=_MAX_SHARED_QUERIES)
        self._evicted_trie_hits = 0
        self._evicted_trie_misses = 0
        # content-addressed step IR caches: completed elimination steps
        # (replayed into later runs of coalescible requests — equal step
        # digests certify bit-identical results) and completed whole results.
        self._step_results = StepResultCache(maxsize=_STEP_CACHE_SIZE)
        self._results: Optional[LruCache] = (
            LruCache(maxsize=_RESULT_CACHE_SIZE) if cache_results else None
        )
        self._result_cache_hits = 0
        # query content key -> warm IncrementalView (LRU).  An update hit
        # answers from the view's maintained state instead of re-executing.
        self._incremental = LruCache(maxsize=_MAX_INCREMENTAL_VIEWS)
        self._incremental_hits = 0
        self._incremental_misses = 0
        # Durable snapshot spill: restore warm views + completed results
        # from a prior incarnation over the same directory, and spill
        # after every update batch (best-effort on both sides).
        self._snapshots = snapshot_store
        self._snapshot_restores = 0
        self._restore_snapshots()
        self._merged_batches = 0
        self._merged_queries = 0
        self._merged_total_nodes = 0
        self._merged_executed_nodes = 0
        self._merged_replayed_nodes = 0
        self._submitted = 0
        self._coalesced = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # the submit loop
    # ------------------------------------------------------------------ #
    def submit(self, request: ServeRequest) -> "Future[ServeResult]":
        """Enqueue one request; returns a future resolving to its result.

        Value-equal requests already in flight coalesce onto one execution:
        the duplicate's future resolves to the same result with
        ``coalesced=True``.  Asyncio callers wrap the returned future with
        :func:`asyncio.wrap_future`.
        """
        if self._closed:
            raise RuntimeError("PlanServer is shut down")
        _require_request(request)
        key = request.content_key if request.coalesce else None
        with self._lock:
            self._submitted += 1
            if key is not None:
                primary = self._inflight.get(key)
                if primary is not None:
                    self._coalesced += 1
                    return _chain_coalesced(primary)
            future: "Future[ServeResult]" = Future()
            if key is not None:
                self._inflight[key] = future
        self._pool.submit(self._fulfil, request, key, future)
        return future

    def execute_request(self, request: ServeRequest) -> ServeResult:
        """Execute one request synchronously on the calling thread.

        A batch of one on the calling thread: bypasses the pool and the
        in-flight coalescing map but shares the plan cache, trie stores
        and step-result cache.  A failure raises :class:`PlanFailure`.
        """
        [outcome] = self._serve([request])
        if isinstance(outcome, PlanFailure):
            raise outcome
        return outcome

    def update_factor(
        self, request: ServeRequest, factor_index: int, delta: FactorDelta
    ) -> ServeResult:
        """Apply one factor update and answer the request incrementally.

        Shorthand for :meth:`update_factors` with a single-delta batch —
        see there for the semantics.
        """
        return self.update_factors(request, [(factor_index, delta)])

    def update_factors(
        self, request: ServeRequest, deltas: Sequence[Tuple[int, FactorDelta]]
    ) -> ServeResult:
        """Apply a batch of factor updates atomically and answer incrementally.

        The request's query identifies the *current* (pre-update) state;
        each ``(factor_index, delta)`` changes cells of
        ``query.factors[factor_index]``, applied in order as **one atomic
        batch**: every cache keyed by the pre-update content keeps
        answering with the consistent pre-batch state, and the view is
        stored under the post-batch key only once the whole batch has been
        applied — no request can observe a half-applied batch.  A warm
        :class:`~repro.incremental.IncrementalView` for the query's content
        key answers by re-running each update's cone of the run it keeps
        (counted in ``incremental_hits``); a cold
        miss plans the query, builds a baseline, then applies the batch.

        Updates never mutate old factors — they stay frozen under their
        digests — so every digest-keyed cache stays sound and nothing is
        evicted here: updated factors have *new* digests, the old content
        is still a valid query whose cached tries, steps and results are
        still its correct answer, and entries nobody asks for again age
        out of their LRUs.  When the server owns a
        :class:`~repro.serve.snapshot.SnapshotStore`, the advanced view is
        spilled to disk afterwards so a restarted server resumes warm.
        """
        if self._closed:
            raise RuntimeError("PlanServer is shut down")
        if request.output_mode != "listing":
            raise PlanFailure(
                "incremental updates support listing output only "
                f"(got output_mode={request.output_mode!r})"
            )
        deltas = list(deltas)
        if not deltas:
            raise PlanFailure("update_factors needs at least one (index, delta) pair")
        started = time.perf_counter()
        try:
            old_key: Optional[str] = query_content_key(request.query)
        except TypeError:
            old_key = None
        view: Optional[IncrementalView] = (
            self._incremental.pop(old_key) if old_key is not None else None
        )
        with self._lock:
            if view is not None:
                self._incremental_hits += 1
            else:
                self._incremental_misses += 1
        if view is None:
            try:
                chosen = self._plan_for(request)
                view = IncrementalView(request.query, ordering=list(chosen.ordering))
                view.result()  # baseline answer + its kept run
            except Exception as exc:  # noqa: BLE001 - typed, e.g. a kernel fault
                raise _plan_failure(exc)
        factor: Any = None
        try:
            for factor_index, delta in deltas:
                factor = view.update_factor(factor_index, delta)
        except Exception as exc:  # noqa: BLE001 - typed, e.g. a kernel fault
            raise _plan_failure(exc)
        try:
            new_key = query_content_key(view.query)
        except TypeError:
            pass  # no content key: the view could never be found again
        else:
            self._incremental.put(new_key, view)
        self._spill_snapshots()
        return ServeResult(
            factor=factor,
            ordering=tuple(view.ordering),
            strategy=STRATEGY_INSIDEOUT,
            backend=view.backend,
            content_key=replace(request, query=view.query).content_key,
            coalesced=False,
            replica=None,
            seconds=time.perf_counter() - started,
            stats=replace(view.stats, regimes=dict(view.stats.regimes)),
        )

    # ------------------------------------------------------------------ #
    # durable snapshot spill / restore
    # ------------------------------------------------------------------ #
    def _restore_snapshots(self) -> None:
        """Adopt views + completed results from a prior incarnation's spill.

        Best-effort: a missing, torn, corrupt or stale-version file adopts
        nothing (the store validates magic + checksum + version).  Each
        restored view starts with fresh stats, so ``full_runs == 0`` on a
        restored view certifies its answers never paid a cold full run.
        """
        if self._snapshots is None:
            return
        sections = self._snapshots.load("server")
        if not isinstance(sections, dict):
            return
        restored = 0
        for key, state in sections.get("views") or []:
            try:
                view = IncrementalView.restore(state)
            except Exception:  # noqa: BLE001 - a stale entry, not a failure
                continue
            self._incremental.put(key, view)
            restored += 1
        if self._results is not None:
            restored += self._results.adopt_entries(
                sections.get("results"),
                kind=_RESULT_SNAPSHOT_KIND,
                version=_RESULT_SNAPSHOT_VERSION,
            )
        with self._lock:
            self._snapshot_restores += restored

    def _spill_snapshots(self) -> bool:
        """Persist the warm views + result cache (best-effort; False on failure)."""
        if self._snapshots is None:
            return False
        sections: Dict[str, Any] = {
            "views": [(key, view.dump_state()) for key, view in self._incremental.items()],
        }
        if self._results is not None:
            sections["results"] = self._results.dump_entries(
                kind=_RESULT_SNAPSHOT_KIND, version=_RESULT_SNAPSHOT_VERSION
            )
        try:
            return self._snapshots.save("server", sections)
        except Exception:  # noqa: BLE001 - spill must never fail the request
            return False

    def snapshot_now(self) -> bool:
        """Spill the current warm state immediately (e.g. before shutdown)."""
        return self._spill_snapshots()

    def execute_batch(
        self,
        requests: Sequence[ServeRequest],
        coalesce: bool = True,
    ) -> List[ServeResult]:
        """Execute ``requests`` as one batch; results come back in input order.

        With ``coalesce=True`` value-equal requests execute once and share
        one result (duplicates flagged ``coalesced=True``), and the batch's
        elimination plans are lowered to content-addressed step DAGs and
        merged into one multi-sink DAG — structurally identical elimination
        steps *across distinct queries* execute exactly once and replay into
        every run that needs them, with per-query stats attributed back to
        each result.  With ``coalesce=False`` every request runs privately,
        fanned out over the pool.  The first failure, in input order, raises.
        """
        for request in requests:
            _require_request(request)
        if not coalesce:
            futures = [self.submit(replace(r, coalesce=False)) for r in requests]
            return [future.result() for future in futures]
        if self._closed:
            raise RuntimeError("PlanServer is shut down")
        with self._lock:
            self._submitted += len(requests)
        outcomes = self._serve(requests)
        for outcome in outcomes:
            if isinstance(outcome, PlanFailure):
                raise outcome
        return outcomes

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _serve(
        self, requests: Sequence[ServeRequest]
    ) -> List[Union[ServeResult, PlanFailure]]:
        """Serve a batch: one outcome per request, in input order.

        The one execution path of the server — a single request is a batch
        of one.  In order:

        1. content-key duplicates coalesce onto one representative;
        2. the completed-result cache answers what it holds;
        3. every other representative is planned (a failure is its outcome);
        4. the coalescible representatives run as one merged multi-sink
           step DAG (:meth:`repro.exec.DagExecutor.run_many`) on the
           server's step-result cache, and each ``coalesce=False`` one runs
           alone without it — a private execution shares no step and so
           computes no step digest.

        A merged run of two or more specs that raises re-runs each spec
        alone — merging is an optimisation, never a correctness risk; a
        failed run of one spec is its request's :class:`PlanFailure`.
        """
        reps: List[ServeRequest] = []
        rep_of: List[int] = []
        first_of: Dict[str, int] = {}
        for request in requests:
            key = request.content_key if request.coalesce else None
            rep = first_of.get(key) if key is not None else None
            if rep is None:
                rep = len(reps)
                reps.append(request)
                if key is not None:
                    first_of[key] = rep
            rep_of.append(rep)
        if len(reps) < len(requests):
            with self._lock:
                self._coalesced += len(requests) - len(reps)

        outcomes: List[Any] = [self._completed_result(r) for r in reps]
        planned: List[Tuple[int, Plan, Any, float]] = []  # (rep, plan, spec, started)
        for i, request in enumerate(reps):
            if outcomes[i] is not None:
                continue
            started = time.perf_counter()
            try:
                chosen, shared = self._prepare(request)
            except Exception as exc:  # noqa: BLE001 - typed per request
                outcomes[i] = _plan_failure(exc)
                continue
            planned.append((i, chosen, chosen.run_spec(request.output_mode, shared), started))

        jobs = [([p for p in planned if reps[p[0]].coalesce], self._step_results)]
        jobs += [([p], None) for p in planned if not reps[p[0]].coalesce]
        executor = DagExecutor()
        while jobs:
            runs, step_cache = jobs.pop(0)
            if not runs:
                continue
            try:
                results = executor.run_many(
                    [spec for _, _, spec, _ in runs], step_cache=step_cache
                )
            except Exception as exc:  # noqa: BLE001 - typed per request
                if len(runs) == 1:
                    outcomes[runs[0][0]] = _plan_failure(exc)
                else:  # one bad spec must not fail the specs merged with it
                    jobs[:0] = [([run], step_cache) for run in runs]
                continue
            if len(runs) > 1:
                tags = [tag for result in results for tag in result.stats.provenance]
                with self._lock:
                    self._merged_batches += 1
                    self._merged_queries += len(runs)
                    self._merged_total_nodes += len(tags)
                    self._merged_executed_nodes += tags.count(STEP_COMPUTED)
                    self._merged_replayed_nodes += tags.count(STEP_REPLAYED)
            for (i, chosen, _, started), result in zip(runs, results):
                executed = PlanResult(
                    plan=chosen,
                    factor=result.factor,
                    factorized=result.factorized,
                    ordering=result.ordering,
                    raw=result,
                )
                outcomes[i] = self._finish(reps[i], chosen, executed, started)

        seen = set()
        served: List[Union[ServeResult, PlanFailure]] = []
        for rep in rep_of:
            outcome = outcomes[rep]
            if rep in seen and isinstance(outcome, ServeResult):
                outcome = outcome.mark_coalesced()
            seen.add(rep)
            served.append(outcome)
        return served

    def _fulfil(
        self, request: ServeRequest, key: Optional[str], future: "Future[ServeResult]"
    ) -> None:
        try:
            [outcome] = self._serve([request])
        except BaseException as exc:  # noqa: BLE001 - forwarded to the future
            outcome = exc
        self._retire(key, future)
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)

    def _retire(self, key: Optional[str], future: "Future[ServeResult]") -> None:
        # Remove from the in-flight map *before* resolving the future, so a
        # request arriving after resolution starts a fresh execution
        # instead of coalescing onto a completed one forever.
        if key is None:
            return
        with self._lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]

    def _completed_result(self, request: ServeRequest) -> Optional[ServeResult]:
        """A completed-result cache hit for this request, if any.

        Engaged only for coalescible requests — ``coalesce=False`` promises
        a private execution (e.g. a timed run), which a replayed result
        would violate just as much as a shared in-flight one.
        """
        if self._results is None or not request.coalesce:
            return None
        key = request.content_key
        if key is None:
            return None
        hit = self._results.get(key)
        if hit is None:
            return None
        with self._lock:
            self._result_cache_hits += 1
        return hit.mark_coalesced()

    def _finish(
        self,
        request: ServeRequest,
        chosen: Plan,
        executed: PlanResult,
        started: float,
    ) -> ServeResult:
        """Build the typed result and fill caches."""
        result = ServeResult(
            factor=executed.factor,
            factorized=executed.factorized,
            ordering=tuple(executed.ordering),
            strategy=chosen.strategy,
            backend=chosen.backend,
            content_key=request.content_key,
            coalesced=False,
            replica=None,
            seconds=time.perf_counter() - started,
            stats=executed.stats,
        )
        if (
            self._results is not None
            and request.coalesce
            and request.output_mode == "listing"
            and result.content_key is not None
        ):
            self._results.put(result.content_key, result)
        return result

    def _prepare(self, request: ServeRequest) -> Tuple[Plan, Optional[SharedTrieCache]]:
        """The front half of every execution: plan, fetch warm tries.

        Returns the plan and the cross-run trie store to execute against
        (``None`` for a query with no content key — it already forgoes
        coalescing and step sharing, and forgoes warm tries too).
        """
        chosen = self._plan_for(request)
        try:
            key = (query_content_key(request.query), tuple(chosen.ordering))
        except TypeError:
            return chosen, None
        with self._lock:
            shared = self._shared.get(key)
            if shared is None:
                # The content key above left a digest memo on every factor,
                # which is what the store indexes them by.
                shared = SharedTrieCache(
                    chosen.ordering, request.query.semiring, request.query.factors
                )
                for _, evicted in self._shared.put(key, shared):
                    self._evicted_trie_hits += evicted.hits
                    self._evicted_trie_misses += evicted.misses
        return chosen, shared

    def _plan_for(self, request: ServeRequest) -> Plan:
        return plan(request.query, cache=self.cache, **request.plan_kwargs())

    # ------------------------------------------------------------------ #
    # observability + lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Serving counters: submissions, coalescing, cache and trie reuse.

        ``coalesced`` counts requests answered by another request's
        execution (content-hash coalescing).  The trie counters are cumulative over the
        server's lifetime — stores evicted from the LRU contribute the
        counts they had at eviction time, so ``shared_trie_hits`` is
        monotone and safe to trend.
        """
        with self._lock:
            shared = [store for _, store in self._shared.items()]
            submitted = self._submitted
            coalesced = self._coalesced
            evicted_hits = self._evicted_trie_hits
            evicted_misses = self._evicted_trie_misses
            inflight = len(self._inflight)
            merged = {
                "merged_batches": self._merged_batches,
                "merged_queries": self._merged_queries,
                "merged_total_steps": self._merged_total_nodes,
                "merged_unique_steps": self._merged_executed_nodes + self._merged_replayed_nodes,
                "merged_executed_steps": self._merged_executed_nodes,
                "merged_replayed_steps": self._merged_replayed_nodes,
            }
            result_cache_hits = self._result_cache_hits
            incremental_views = len(self._incremental)
            incremental_hits = self._incremental_hits
            incremental_misses = self._incremental_misses
            incremental_full_runs = sum(
                view.stats.full_runs for _, view in self._incremental.items()
            )
            snapshot_restores = self._snapshot_restores
        snapshot_stats = (
            self._snapshots.stats()
            if self._snapshots is not None
            else {
                "snapshot_saves": 0,
                "snapshot_save_errors": 0,
                "snapshot_loads": 0,
                "snapshot_load_errors": 0,
            }
        )
        step_stats = self._step_results.stats()
        return {
            "submitted": submitted,
            "coalesced": coalesced,
            "inflight": inflight,
            "plan_cache_hits": self.cache.hits,
            "plan_cache_misses": self.cache.misses,
            "shared_trie_stores": len(shared),
            "shared_trie_hits": evicted_hits + sum(s.hits for s in shared),
            "shared_trie_misses": evicted_misses + sum(s.misses for s in shared),
            "step_cache_entries": step_stats["entries"],
            "step_cache_computed": step_stats["computed"],
            "step_cache_replayed": step_stats["replayed"],
            "result_cache_hits": result_cache_hits,
            "incremental_views": incremental_views,
            "incremental_hits": incremental_hits,
            "incremental_misses": incremental_misses,
            "incremental_full_runs": incremental_full_runs,
            "snapshot_restores": snapshot_restores,
            **snapshot_stats,
            **merged,
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for in-flight requests."""
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "PlanServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)


def _chain_coalesced(primary: "Future[ServeResult]") -> "Future[ServeResult]":
    """A future resolving to the primary's result flagged ``coalesced=True``."""
    chained: "Future[ServeResult]" = Future()

    def _copy(done: "Future[ServeResult]") -> None:
        if done.cancelled():
            chained.cancel()
            return
        exc = done.exception()
        if exc is not None:
            chained.set_exception(exc)
        else:
            chained.set_result(done.result().mark_coalesced())

    primary.add_done_callback(_copy)
    return chained

