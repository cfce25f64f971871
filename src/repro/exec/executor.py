"""The one elimination driver: a step-DAG executor over the content-addressed step IR.

:class:`DagExecutor` is where every elimination run executes — InsideOut and
textbook variable elimination (InsideOut without its indicator projections)
alike.  A run is lowered to its :class:`~repro.exec.dag.StepDag` and its
steps execute inline on the calling thread, in elimination order.
Concurrency lives one level up, across requests (the serving tier's pool);
the step sources a run shares with other requests are thread-safe.

There is one implementation, :meth:`DagExecutor.run_many`: lower each run,
merge the runs' nodes by content digest, execute, finish.  A single query
(:meth:`DagExecutor.run`) is a batch of one.  The content addresses of
:func:`~repro.exec.dag.annotate_digests` enable sharing along two axes:

* **across the runs of one batch** — nodes with equal content digests
  execute exactly once: the first run introducing a digest owns the
  execution, every other (run, node) pair replays the owner's entry into
  its own context;
* **across batches**, through a *step source*: a
  :class:`StepResultCache`, a digest-keyed LRU of finished step results.
  A server holds one shared across its traffic, so sequential repeated
  requests replay shared elimination prefixes; an incremental view holds
  a private one, so a re-run after a factor update executes only the
  dirty subgraph.

Digests cost a hash of every base factor, so they are computed only when
there is something to share with: a step source is attached, or more than
one run is merged.  A lone run with neither skips them.

Replaying an entry merges the *original* step record and join-counter
delta, so per-run stats describe the logical execution and stay identical
to an uncached run (wall-clock ``seconds`` aside).

Guarantees (enforced by ``tests/test_exec_parallel.py`` and
``tests/test_exec_merged.py``):

* the output factor agrees with brute-force evaluation and is
  **bit-identical** with or without a step source and inside or outside a
  merged batch, and
* the :class:`~repro.core.insideout.InsideOutStats` totals (per-step
  records, join counters, max intermediate size) are identical too —
  per-node counters are accumulated privately and merged in elimination
  order once the run completes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.caching import LruCache
from repro.core.insideout import (
    EliminationRecord,
    InsideOutResult,
    InsideOutStats,
    _validated_ordering,
    eliminate_product_step,
    eliminate_semiring_step,
    output_phase,
)
from repro.core.output import FactorizedOutput
from repro.core.outsidein import OutsideInStats
from repro.core.query import FAQQuery, QueryError
from repro.exec.dag import (
    KIND_OUTPUT,
    KIND_PRODUCT,
    KIND_SEMIRING,
    lower_insideout,
)
from repro.factors.backend import (
    BACKEND_SPARSE,
    BackendPolicy,
    DEFAULT_POLICY,
    as_sparse,
    validate_backend,
)
from repro.factors.factor import Factor
from repro.factors.index import SharedTrieCache, TrieCache
from repro.faults import SITE_STEP_KERNEL, maybe_raise


@dataclass(frozen=True)
class _StepEntry:
    """A finished step: its outputs plus the stats it logically performed."""

    outputs: Tuple[Optional[Factor], ...]
    record: Optional[EliminationRecord]
    join_delta: OutsideInStats


class StepResultCache:
    """Digest-keyed LRU of completed elimination-step results.

    Keys are ``(node digest, backend)`` pairs — equal digests certify equal
    inputs and operation, the backend pins the representation choice, and
    callers only engage the cache under the default
    :class:`~repro.factors.backend.BackendPolicy` — so a hit replays a
    bit-identical result.  The serving tier holds one per
    :class:`~repro.serve.PlanServer`, shared across queries, which is what
    makes *sequential* repeated traffic skip shared elimination prefixes.
    An :class:`~repro.incremental.IncrementalView` holds a private one:
    a node's digest folds in its input digests down to the base factors,
    so after a factor update exactly the subgraph downstream of the
    touched factor misses, and the clean nodes replay.

    Thread-safe, with an in-flight claim map so concurrent executions of
    the same digest compute it exactly once: the first caller *claims* the
    key and computes, later callers block until the claimant fulfils (or
    abandons) it.  ``computed``/``replayed`` count resolved lookups and are
    the executor counters the differential tests assert exactly-once with.

    A pickled cache is its bound and its entries in LRU order; claims, the
    lock and the counters belong to the live process.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self._entries = LruCache(maxsize=maxsize)
        self._lock = threading.Lock()
        self._inflight: Dict[object, threading.Event] = {}
        self.computed = 0
        self.replayed = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __getstate__(self):
        return {"maxsize": self._entries.maxsize, "entries": list(self._entries.items())}

    def __setstate__(self, state) -> None:
        self.__init__(state["maxsize"])
        for key, entry in state["entries"]:
            self._entries.put(key, entry)

    def lookup_or_claim(self, key) -> Optional[_StepEntry]:
        """Return a finished entry, or claim ``key`` and return ``None``.

        A ``None`` return means the caller now *owns* the computation and
        must resolve the claim with :meth:`fulfil` or :meth:`abandon` —
        other threads asking for the same key are blocked on it.
        """
        while True:
            entry = self._entries.get(key)
            if entry is not None:
                with self._lock:
                    self.replayed += 1
                return entry
            with self._lock:
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    return None
            event.wait()

    def fulfil(self, key, entry: _StepEntry) -> None:
        """Store the computed entry and release any blocked claimants."""
        self._entries.put(key, entry)
        with self._lock:
            self.computed += 1
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    def abandon(self, key) -> None:
        """Release a claim without a result (the computation failed)."""
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    def clear(self) -> None:
        self._entries.clear()
        with self._lock:
            self.computed = 0
            self.replayed = 0

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "computed": self.computed,
            "replayed": self.replayed,
        }


@dataclass
class RunSpec:
    """One query's execution parameters: the arguments of ``inside_out``."""

    query: FAQQuery
    ordering: Sequence[str] | str | None = None
    use_indicator_projections: bool = True
    output_mode: str = "listing"
    backend: str = BACKEND_SPARSE
    backend_policy: BackendPolicy | None = None
    shared_tries: SharedTrieCache | None = None


@dataclass
class RunInfo:
    """Step accounting of one :meth:`DagExecutor.run_many` call.

    Pass one as ``info`` to receive the counts (they accumulate, so one
    object can total several calls).
    """

    total_nodes: int = 0     # sum of per-run DAG nodes
    merged_nodes: int = 0    # distinct nodes after digest merging
    executed_nodes: int = 0  # merged nodes actually computed
    replayed_nodes: int = 0  # merged nodes served from the step source


class _RunState:
    """The mutable execution context of one lowered run.

    Validates and lowers its :class:`RunSpec`, then owns the slots, the
    per-run :class:`~repro.factors.index.TrieCache`, and the per-node
    records/join counters.  ``execute_node`` runs a node's kernel;
    ``capture``/``replay`` move a node's outputs *and* its logical stats in
    and out of step entries, so a replayed run's stats match an uncached
    run's.
    """

    __slots__ = (
        "query", "order", "dag", "output_mode", "backend", "policy", "uip",
        "slots", "tries", "records", "node_join_stats", "started",
    )

    def __init__(self, spec: RunSpec, content_digests: bool) -> None:
        if spec.output_mode not in ("listing", "factorized"):
            raise QueryError(f"unknown output mode {spec.output_mode!r}")
        self.query = query = spec.query
        self.output_mode = spec.output_mode
        self.backend = validate_backend(spec.backend)
        self.policy = (
            spec.backend_policy if spec.backend_policy is not None else DEFAULT_POLICY
        )
        self.uip = spec.use_indicator_projections
        self.order = order = _validated_ordering(query, spec.ordering)
        self.started = time.perf_counter()
        # Digests do not encode bespoke policy thresholds, so a run under a
        # non-default policy gets none and shares nothing.
        self.dag = dag = lower_insideout(
            query, order,
            use_indicator_projections=self.uip,
            output_mode=self.output_mode,
            content_digests=content_digests and self.policy is DEFAULT_POLICY,
        )

        semiring = query.semiring
        self.slots: List[Optional[Factor]] = [None] * dag.num_slots
        # An empty product is the constant 1 over all free assignments.
        self.slots[: dag.num_base] = list(query.factors) or [
            Factor._adopt((), {(): semiring.one}, "unit")
        ]

        # One trie index per run, shared across elimination steps: surviving
        # factors keep their per-variable buckets instead of being re-hashed
        # at every step (the ordering is the global trie order, so the
        # variable being eliminated is always the deepest remaining level).
        self.tries = TrieCache(order, semiring)
        self.tries.adopt_parent(spec.shared_tries)
        self.records: List[Optional[EliminationRecord]] = [None] * len(dag.nodes)
        self.node_join_stats = [OutsideInStats() for _ in dag.nodes]

    # ------------------------------------------------------------------ #
    def cache_key(self, index: int):
        """The step-source key of a node (``None`` disables sharing)."""
        digest = self.dag.nodes[index].digest
        return None if digest is None else (digest, self.backend)

    def execute_node(self, index: int) -> None:
        """Run a node's kernel, writing its output slots and its record.

        The one ``node.kind`` → kernel dispatch, and the ``step.kernel``
        fault site: drawn once per *executed* step (a replayed step never
        gets here), so the n-th call of a :class:`~repro.faults.FaultPlan`
        schedule names the n-th executed step.
        """
        maybe_raise(SITE_STEP_KERNEL)
        node = self.dag.nodes[index]
        slots = self.slots
        join_stats = self.node_join_stats[index]
        incident = [slots[s] for s in node.incident]
        if node.kind == KIND_SEMIRING:
            slots[node.outputs[0]], self.records[index] = eliminate_semiring_step(
                self.query, incident, [slots[s] for s in node.reads], node.variable,
                self.uip, join_stats,
                backend=self.backend, policy=self.policy, tries=self.tries,
            )
        elif node.kind == KIND_PRODUCT:
            new_factors, self.records[index] = eliminate_product_step(
                self.query, [f for f in incident if f is not None], node.variable
            )
            # Outputs align positionally with the incident slots (a None input
            # keeps a None output).  Product steps replace marginalised/powered
            # factors with new objects; drop the dead factors' cached tries.
            fresh = iter(new_factors)
            for old, out in zip(incident, node.outputs):
                slots[out] = new = None if old is None else next(fresh)
                if new is not old:
                    self.tries.discard(old)
        elif node.kind == KIND_OUTPUT:
            slots[node.outputs[0]] = output_phase(
                self.query, [f for f in incident if f is not None], self.order,
                self.backend, self.policy, join_stats, self.tries,
            )
        else:  # pragma: no cover - defensive
            raise QueryError(f"no elimination kernel for step kind {node.kind!r}")

    def capture(self, index: int) -> _StepEntry:
        """Snapshot an executed node as a shareable step-cache entry."""
        return _StepEntry(
            outputs=tuple(self.slots[s] for s in self.dag.nodes[index].outputs),
            record=self.records[index],
            join_delta=replace(self.node_join_stats[index]),
        )

    def replay(self, index: int, entry: _StepEntry) -> None:
        """Apply a finished entry as if this run had executed the node.

        Input-independent by design (consumed input slots are only touched
        to drop their now-dead tries, guarded for not-yet-filled slots), so
        a merged run may replay a node before the replaying run's own
        producers have run.
        """
        node = self.dag.nodes[index]
        for slot, factor in zip(node.outputs, entry.outputs):
            self.slots[slot] = factor
        if entry.record is not None:
            self.records[index] = replace(entry.record)
        self.node_join_stats[index].merge(entry.join_delta)
        if node.kind == KIND_PRODUCT:
            for slot, new in zip(node.incident, entry.outputs):
                old = self.slots[slot]
                if old is not None and new is not old:
                    self.tries.discard(old)
        elif node.kind == KIND_SEMIRING:
            for slot in node.incident:
                old = self.slots[slot]
                if old is not None:
                    self.tries.discard(old)

    def finish(self) -> InsideOutResult:
        """Assemble the run's result and stats in elimination order.

        Totals are accumulated independently of the order nodes were
        executed or replayed in (a merged batch replays a run's nodes out of
        its own order), so they match an independent run's.
        """
        query, dag = self.query, self.dag
        stats = InsideOutStats()
        for index in range(len(dag.nodes)):
            record = self.records[index]
            if record is not None:
                stats.steps.append(record)
                if record.kind == KIND_PRODUCT or record.incident_count > 0:
                    stats.max_intermediate_size = max(
                        stats.max_intermediate_size, record.result_size
                    )
            stats.join_stats.merge(self.node_join_stats[index])

        semiring = query.semiring
        if self.output_mode == "factorized":
            factorized = FactorizedOutput(
                free=tuple(self.order[: query.num_free]),
                factors=tuple(
                    as_sparse(self.slots[s], semiring)
                    for s in dag.final_live
                    if self.slots[s] is not None
                ),
                semiring=semiring,
                domains={v: query.domain(v) for v in query.free},
            )
            stats.output_size = -1
            stats.total_seconds = time.perf_counter() - self.started
            return InsideOutResult(
                factor=None, factorized=factorized,
                ordering=tuple(self.order), stats=stats,
            )

        output = self.slots[dag.final_live[0]]
        stats.output_size = len(output)
        stats.total_seconds = time.perf_counter() - self.started
        return InsideOutResult(
            factor=output, factorized=None, ordering=tuple(self.order), stats=stats
        )


@dataclass
class _MergedNode:
    """One node of the merged multi-sink DAG."""

    owner: Tuple[int, int]                      # (run index, node index)
    key: Optional[tuple]                        # step cache key, if shareable
    subscribers: List[Tuple[int, int]] = field(default_factory=list)


class DagExecutor:
    """Executes lowered elimination step DAGs — the one driver.

    Every step runs inline on the calling thread, in elimination order.

    Parameters
    ----------
    workers:
        Only ``1`` is accepted.  The parameter exists for the benchmark's
        executor probe, which builds ``DagExecutor(workers=1)``, and leaves
        with that probe (ROADMAP 1(b)'s ``exec.dag_overhead_x``).
    """

    def __init__(self, workers: int = 1) -> None:
        if workers != 1 or isinstance(workers, bool):
            raise QueryError(
                f"DagExecutor runs every step on the calling thread; got workers={workers!r}"
            )

    # ------------------------------------------------------------------ #
    def run(
        self,
        query: FAQQuery,
        ordering: Sequence[str] | str | None = None,
        use_indicator_projections: bool = True,
        output_mode: str = "listing",
        backend: str = BACKEND_SPARSE,
        backend_policy: BackendPolicy | None = None,
        shared_tries: SharedTrieCache | None = None,
        step_cache=None,
    ) -> InsideOutResult:
        """Execute one query: a :meth:`run_many` batch of one.

        Accepts the same arguments as
        :func:`repro.core.insideout.inside_out` and returns the same
        :class:`~repro.core.insideout.InsideOutResult`.
        """
        spec = RunSpec(
            query, ordering, use_indicator_projections, output_mode,
            backend, backend_policy, shared_tries,
        )
        return self.run_many([spec], step_cache=step_cache)[0]

    def run_many(
        self,
        specs: Sequence[RunSpec],
        step_cache=None,
        info: RunInfo | None = None,
    ) -> List[InsideOutResult]:
        """Lower, merge by digest, execute and finish a batch of runs.

        The runs' step DAGs are merged by content address: nodes with equal
        ``(digest, backend)`` keys collapse into one merged node, owned by
        the first run that introduced the digest; every other (run, node)
        pair subscribes and has the owner's entry replayed into its own
        context.  Each distinct key therefore executes **exactly once** per
        batch — and not at all when ``step_cache`` already holds it.

        ``step_cache`` is the batch's *step source*: a
        :class:`StepResultCache`, shared by a server's traffic or private to
        a standing query (the dirty-subgraph regime of incremental
        evaluation: after a factor update the stale keys are exactly the
        nodes downstream of the touched base factors, so only that subgraph
        re-executes — for *any* semiring, no algebraic assumptions).
        Finished steps are replayed from / stored into it under the default
        backend policy only.

        Results and per-run stats are bit-identical to independent
        :meth:`run` calls without a step source (wall-clock ``seconds``
        fields aside; they reflect where the work actually happened).
        Pass a :class:`RunInfo` as ``info`` to receive the step accounting.
        """
        specs = list(specs)
        if not specs:
            return []
        # Content digests hash every base factor, so only runs that can
        # share steps — with a step source, or with each other — pay for them.
        digests = step_cache is not None or len(specs) > 1
        states = [_RunState(spec, digests) for spec in specs]

        # Merge by content address: the first (run, node) with a key owns it.
        merged: List[_MergedNode] = []
        owner_of: Dict[tuple, int] = {}
        for r, state in enumerate(states):
            for index in range(len(state.dag.nodes)):
                key = state.cache_key(index)
                mid = owner_of.get(key) if key is not None else None
                if mid is None:
                    mid = len(merged)
                    merged.append(_MergedNode(owner=(r, index), key=key))
                    if key is not None:
                        owner_of[key] = mid
                else:
                    merged[mid].subscribers.append((r, index))

        # Merged-id order is a topological order of the owner edges (every
        # owner dependency maps to an earlier merged id) — for a lone run,
        # plain elimination order.  Replays are input-independent, so a
        # subscriber's own producers need not have run before its replay.
        replayed = 0
        for node in merged:
            r, index = node.owner
            state = states[r]
            shared = node.key is not None and step_cache is not None
            entry = step_cache.lookup_or_claim(node.key) if shared else None
            if entry is not None:
                state.replay(index, entry)
                replayed += 1
            elif shared or node.subscribers:
                # The claim must be resolved on *every* exit path between
                # here and fulfil — capture included — or later claimants of
                # the same digest block forever on the in-flight event.
                try:
                    state.execute_node(index)
                    entry = state.capture(index)
                except BaseException:
                    if shared:
                        step_cache.abandon(node.key)
                    raise
                if shared:
                    step_cache.fulfil(node.key, entry)
            else:
                state.execute_node(index)
            for sub_run, sub_index in node.subscribers:
                states[sub_run].replay(sub_index, entry)

        if info is not None:
            info.total_nodes += sum(len(state.dag.nodes) for state in states)
            info.merged_nodes += len(merged)
            info.executed_nodes += len(merged) - replayed
            info.replayed_nodes += replayed
        return [state.finish() for state in states]
