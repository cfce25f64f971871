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
  requests replay shared elimination prefixes.

An incremental view needs neither: it keeps one lowered run of its
standing query (a *kept* :class:`_RunState`, no digests), and after a
factor update re-runs only the nodes downstream of the changed base slot
(:meth:`_RunState.rerun_cone`).

Digests cost a hash of every base factor, so they are computed only when
there is something to share with: a step source is attached, or more than
one run is merged.  A lone run with neither skips them, and lowers its
query afresh.  A run that names its steps instead instantiates its query
shape's step template (:mod:`repro.exec.dag`): the shape is lowered and
its per-node headers hashed once per process (the key covers scopes,
orders, free variables, aggregates, semiring, projection switch, output
mode and domains), and each run pays one hash per node for digests
byte-identical to encoding every payload whole.

A step entry's outputs, record and join counters never change, so a
replay stores references to them and tags the node ``replayed`` or
``shared`` (``computed`` if the run executed it); the run's stats are read
from those references, identical to an uncached run's (wall-clock
``seconds`` aside), and their ``provenance`` says what the run paid for.

Guarantees (enforced by ``tests/test_exec_parallel.py`` and
``tests/test_exec_merged.py``):

* the output factor agrees with brute-force evaluation and is
  **bit-identical** with or without a step source and inside or outside a
  merged batch, and
* the :class:`~repro.core.insideout.InsideOutStats` totals (per-step
  records, join counters, max intermediate size) are identical too —
  per-node counters are held per node and summed once the run completes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.caching import LruCache
from repro.core.insideout import (
    STEP_COMPUTED,
    STEP_REPLAYED,
    STEP_SHARED,
    EliminationRecord,
    InsideOutResult,
    InsideOutStats,
    _validated_ordering,
    apply_output_delta,
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
    """A finished step: its outputs, its record and its join counters."""

    outputs: Tuple[Optional[Factor], ...]
    record: Optional[EliminationRecord]
    join: OutsideInStats


def _support_moved(was, now, change: Optional[Factor], semiring) -> bool:
    """Whether ``now`` lists other cells than ``was`` (``change``: the Δ
    between them, whose keys are the only cells that can differ, or
    ``None``)."""
    was, now = as_sparse(was, semiring).table, as_sparse(now, semiring).table
    if change is None:
        return was.keys() != now.keys()
    return any((key in was) != (key in now) for key in change.table)


class StepResultCache:
    """Digest-keyed LRU of completed elimination-step results.

    Keys are ``(node digest, backend)`` pairs — equal digests certify equal
    inputs and operation, the backend pins the representation choice, and
    callers only engage the cache under the default
    :class:`~repro.factors.backend.BackendPolicy` — so a hit replays a
    bit-identical result.  The serving tier holds one per
    :class:`~repro.serve.PlanServer`, shared across queries, which is what
    makes *sequential* repeated traffic skip shared elimination prefixes.

    Thread-safe, with an in-flight claim map so concurrent executions of
    the same digest compute it exactly once: the first caller *claims* the
    key and computes, later callers block until the claimant fulfils (or
    abandons) it.  ``computed``/``replayed`` count resolved lookups and are
    the executor counters the differential tests assert exactly-once with.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self._entries = LruCache(maxsize=maxsize)
        self._lock = threading.Lock()
        self._inflight: Dict[object, threading.Event] = {}
        self.computed = 0
        self.replayed = 0

    def __len__(self) -> int:
        return len(self._entries)

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
                    # fulfil stores before it drops the claim: a claim
                    # resolved since the read above left its entry here.
                    entry = self._entries.get(key)
                    if entry is not None:
                        self.replayed += 1
                        return entry
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


class _RunState:
    """The mutable execution context of one lowered run.

    Validates and lowers its :class:`RunSpec`, then owns the slots, the
    per-run :class:`~repro.factors.index.TrieCache`, and per node its
    record, its join counters and its provenance tag.  ``execute_node``
    runs a node's kernel; ``capture``/``replay`` move a node's outputs,
    record and join counters in and out of step entries by reference, so a
    replayed run's stats match an uncached run's.

    A *kept* run outlives its first execution: an
    :class:`~repro.incremental.IncrementalView` holds one for its standing
    query (:meth:`execute_all`), and :meth:`rerun_cone` re-runs the nodes
    downstream of a changed base slot against every other slot's factor
    and index.  It never releases a node's inputs (:meth:`release`); it
    drops the index of a factor an update replaced.
    """

    __slots__ = (
        "query", "order", "dag", "output_mode", "backend", "policy", "uip",
        "slots", "tries", "records", "joins", "provenance", "started",
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
        self.joins: List[Optional[OutsideInStats]] = [None] * len(dag.nodes)
        self.provenance: List[Optional[str]] = [None] * len(dag.nodes)

    # ------------------------------------------------------------------ #
    def cache_key(self, index: int):
        """The step-source key of a node (``None`` disables sharing)."""
        digest = self.dag.nodes[index].digest
        return None if digest is None else (digest, self.backend)

    def _kernel(self, node, incident: List[Optional[Factor]], join_stats: OutsideInStats):
        """A node's outputs over ``incident``, in its incident slots' place,
        and its record (``None`` for the output node).

        The one ``node.kind`` → kernel dispatch, and the ``step.kernel``
        fault site: drawn once per kernel call (a replayed step never gets
        here), so the n-th call of a :class:`~repro.faults.FaultPlan`
        schedule names the n-th kernel run.
        """
        maybe_raise(SITE_STEP_KERNEL)
        if node.kind == KIND_SEMIRING:
            new, record = eliminate_semiring_step(
                self.query, incident, [self.slots[s] for s in node.reads], node.variable,
                self.uip, join_stats,
                backend=self.backend, policy=self.policy, tries=self.tries,
            )
            return (new,), record
        if node.kind == KIND_PRODUCT:
            new_factors, record = eliminate_product_step(
                self.query, [f for f in incident if f is not None], node.variable
            )
            # Outputs align positionally with the incident slots (a None
            # input keeps a None output).
            fresh = iter(new_factors)
            return tuple(None if old is None else next(fresh) for old in incident), record
        if node.kind == KIND_OUTPUT:
            return (output_phase(
                self.query, [f for f in incident if f is not None], self.order,
                self.backend, self.policy, join_stats, self.tries,
            ),), None
        raise QueryError(f"no elimination kernel for step kind {node.kind!r}")  # pragma: no cover

    def execute_node(self, index: int) -> None:
        """Run a node's kernel, writing its output slots, record and counters."""
        node = self.dag.nodes[index]
        self.joins[index] = join_stats = OutsideInStats()
        self.provenance[index] = STEP_COMPUTED
        incident = [self.slots[s] for s in node.incident]
        outputs, self.records[index] = self._kernel(node, incident, join_stats)
        for slot, factor in zip(node.outputs, outputs):
            self.slots[slot] = factor

    def execute_all(self) -> None:
        """Run every node, in elimination order, keeping every slot's index."""
        for index in range(len(self.dag.nodes)):
            self.execute_node(index)

    def rerun_cone(self, query: FAQQuery, slot: int, delta: Optional[Factor],
                   difference: Callable) -> Tuple[int, int]:
        """Install ``query``, whose factor ``slot`` changed, in this kept run
        and re-run the nodes downstream of that base slot.

        ``delta`` is the change as a factor Δ with ``old ⊕ Δ = new``, or
        ``None`` when ``⊕`` cannot express it; ``difference(old, new,
        keys)`` gives the same for a slot a node rewrote (``keys``: the
        cells that may differ, ``None`` for all), and an empty factor when
        nothing differs.

        A node is clean, and keeps its result, when none of its incident
        slots changed and no slot it reads for a projection changed its
        support.  A dirty semiring or output node whose changed incident
        slots all carry a Δ, and whose projections stand, is *corrected*:
        with its projections fixed the step is multilinear in its incident
        factors, so its new result is the kept one ``⊕`` one step per
        changed slot — that slot's Δ, the new factors of the changed slots
        before it, the old ones of those after it.  Every other dirty node
        recomputes over the current slots.  A slot that comes out unchanged
        keeps its old factor, which ends the cone there.  Returns the
        ``(reused, executed)`` node counts; on an exception the run is
        left as it was.
        """
        semiring = query.semiring
        slots = self.slots
        previous = self.query
        read = {s for node in self.dag.nodes for s in node.reads}
        old: Dict[int, Optional[Factor]] = {slot: slots[slot]}  # each slot written: before
        deltas: Dict[int, Optional[Factor]] = {}  # each changed slot: its Δ, or None
        moved = set()  # changed slots read for a projection, whose support moved

        def changed(out: int, was: Factor, change: Optional[Factor]) -> None:
            deltas[out] = change
            if out in read and _support_moved(was, slots[out], change, semiring):
                moved.add(out)

        reused = executed = 0
        try:
            self.query = query
            slots[slot] = query.factors[slot]
            changed(slot, old[slot], delta)
            for node in self.dag.nodes:
                touched = [s for s in node.incident if s in deltas]
                stands = moved.isdisjoint(node.reads)
                if not touched and stands:
                    reused += 1
                    continue
                executed += 1
                before = [slots[s] for s in node.outputs]
                for out, was in zip(node.outputs, before):
                    old.setdefault(out, was)
                if (stands and node.kind != KIND_PRODUCT
                        and all(deltas[s] is not None for s in touched)):
                    correction = self._correction(node, touched, old, deltas)
                    kept = as_sparse(before[0], semiring)
                    slots[node.outputs[0]] = apply_output_delta(kept, correction, semiring)
                    keys = [correction.table]
                else:
                    self.execute_node(node.index)
                    keys = [None] * len(before)
                for out, was, cells in zip(node.outputs, before, keys):
                    if was is None:
                        continue  # a product step's None stays None
                    change = difference(was, slots[out], cells)
                    if change is not None and not change.table:
                        slots[out] = was  # unchanged: the old factor and its index stay
                    else:
                        changed(out, was, change)
        except BaseException:
            for s, was in old.items():
                if slots[s] is not was and slots[s] is not None:
                    self.tries.discard(slots[s])
                slots[s] = was
            self.query = previous
            raise
        for s, was in old.items():
            if was is not None and slots[s] is not was:
                self.tries.discard(was)
        return reused, executed

    def _correction(self, node, touched: List[int], old: Dict[int, Optional[Factor]],
                    deltas: Dict[int, Optional[Factor]]) -> Factor:
        """The ``⊕`` of a node's step over each changed incident slot's Δ,
        with the new factors of the changed slots before it in the node's
        incident order and the old factors of those after it (sparse)."""
        semiring = self.query.semiring
        total = None
        for position, changed in enumerate(touched):
            later = touched[position + 1:]
            incident = [
                deltas[s] if s == changed else old[s] if s in later else self.slots[s]
                for s in node.incident
            ]
            try:
                (term,), _ = self._kernel(node, incident, OutsideInStats())
            finally:
                self.tries.discard(deltas[changed])
            term = as_sparse(term, semiring)
            total = term if total is None else apply_output_delta(total, term, semiring)
        return total

    def capture(self, index: int) -> _StepEntry:
        """Snapshot an executed node as a shareable step-cache entry."""
        return _StepEntry(
            outputs=tuple(self.slots[s] for s in self.dag.nodes[index].outputs),
            record=self.records[index],
            join=self.joins[index],
        )

    def replay(self, index: int, entry: _StepEntry, tag: str) -> None:
        """Apply a finished entry as if this run had executed the node.

        The node takes the entry's outputs, record and join counters by
        reference, and ``tag`` as its provenance.

        Input-independent by design (consumed input slots are only touched
        to drop their now-dead tries, guarded for not-yet-filled slots), so
        a merged run may replay a node before the replaying run's own
        producers have run.
        """
        node = self.dag.nodes[index]
        for slot, factor in zip(node.outputs, entry.outputs):
            self.slots[slot] = factor
        self.records[index] = entry.record
        self.joins[index] = entry.join
        self.provenance[index] = tag
        self.release(index)

    def release(self, index: int) -> None:
        """Drop the indexes of the factors node ``index`` consumed, once its
        outputs are in place: a semiring step's incident factors, and the
        ones a product step replaced (one it passes through lives on).
        Guarded for not-yet-filled slots.  A kept run releases nothing."""
        node, slots = self.dag.nodes[index], self.slots
        if node.kind == KIND_SEMIRING:
            consumed = node.incident
        elif node.kind == KIND_PRODUCT:
            consumed = [s for s, out in zip(node.incident, node.outputs) if slots[s] is not slots[out]]
        else:
            return
        for slot in consumed:
            if slots[slot] is not None:
                self.tries.discard(slots[slot])

    def finish(self) -> InsideOutResult:
        """Assemble the run's result and stats in elimination order.

        Totals are read from the per-node references, independently of the
        order nodes were executed or replayed in (a merged batch replays a
        run's nodes out of its own order), so they match an independent
        run's.
        """
        query, dag = self.query, self.dag
        semiring = query.semiring
        factor = factorized = None
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
        else:
            factor = self.slots[dag.final_live[0]]

        records = tuple(r for r in self.records if r is not None)
        joins = self.joins
        stats = InsideOutStats(
            steps=records,
            provenance=tuple(self.provenance),
            join_stats=OutsideInStats(
                sum(j.search_steps for j in joins),
                sum(j.emitted_tuples for j in joins),
                sum(j.intersections for j in joins),
            ),
            max_intermediate_size=max(
                (r.result_size for r in records
                 if r.kind == KIND_PRODUCT or r.incident_count > 0),
                default=0,
            ),
            output_size=-1 if factor is None else len(factor),
            total_seconds=time.perf_counter() - self.started,
        )
        return InsideOutResult(
            factor=factor, factorized=factorized, ordering=tuple(self.order), stats=stats
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
    ) -> List[InsideOutResult]:
        """Lower, merge by digest, execute and finish a batch of runs.

        The runs' step DAGs are merged by content address: nodes with equal
        ``(digest, backend)`` keys collapse into one merged node, owned by
        the first run that introduced the digest; every other (run, node)
        pair subscribes and has the owner's entry replayed into its own
        context.  Each distinct key therefore executes **exactly once** per
        batch — and not at all when ``step_cache`` already holds it.

        ``step_cache`` is the batch's *step source*: a
        :class:`StepResultCache`, shared by a server's traffic.  Finished
        steps are replayed from / stored into it under the default backend
        policy only.

        Results and per-run stats are bit-identical to independent
        :meth:`run` calls without a step source (wall-clock ``seconds``
        fields aside; they reflect where the work actually happened).  Each
        result's ``stats.provenance`` tags its nodes ``computed``,
        ``replayed`` or ``shared``: the batch executed its ``computed``
        nodes, one per distinct key it did not find in ``step_cache``.
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
        for node in merged:
            r, index = node.owner
            state = states[r]
            shared = node.key is not None and step_cache is not None
            entry = step_cache.lookup_or_claim(node.key) if shared else None
            if entry is not None:
                state.replay(index, entry, STEP_REPLAYED)
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
                state.release(index)
            else:
                state.execute_node(index)
                state.release(index)
            for sub_run, sub_index in node.subscribers:
                states[sub_run].replay(sub_index, entry, STEP_SHARED)
        return [state.finish() for state in states]
