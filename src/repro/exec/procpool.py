"""A process-pool backend for the step-DAG executor.

Threads only help the dense kernels (NumPy releases the GIL); the sparse
trie kernel and the flat kernel's Python glue still serialise on it.
``DagExecutor(workers_mode="process")`` escapes the GIL entirely: the
parent lowers the run as usual, then drives a pool of worker *processes*
over the same step DAG.

Data movement is digest-keyed shared memory, not pipe pickling: every
factor a worker needs (base factors and intermediate step results alike)
is published once into a :class:`~repro.exec.shm.ShmBlobStore` segment —
keyed by the slot's content digest when the step IR carries one — and a
worker receives only ``(slot, segment name)`` references, attaching and
unpickling each segment at most once per worker.  Workers execute the very
same step kernels (:func:`~repro.core.insideout.eliminate_semiring_step`,
:func:`~repro.core.insideout.eliminate_product_step`) against a
worker-local :class:`~repro.factors.index.TrieCache`; the kernels are pure
functions of their input factors, so results, step records, and join
counters are identical to a ``workers=1`` run no matter which process ran a
step.  The output phase always runs in the parent (its result never feeds
another step).

Fault handling is degrade-don't-hang: a worker dying mid-step (EOF on its
pipe) marks the pool *degraded* — the lost step is retried in-process by
the parent and every remaining step runs serially in-process, so a crashed
worker costs wall-clock, never the run.  A worker that reports a step
*error* (not a death) has the step retried in-process too, which either
succeeds or re-raises the real exception with a proper traceback.

Environments whose run context cannot cross a process boundary (lambda
semirings, unpicklable aggregates) raise
:class:`ProcessPoolUnavailable` at pool construction; the executor falls
back to the thread scheduler.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.insideout import (
    eliminate_product_step,
    eliminate_semiring_step,
)
from repro.core.outsidein import OutsideInStats
from repro.core.query import FAQQuery, Variable
from repro.exec.dag import KIND_PRODUCT, KIND_SEMIRING
from repro.exec.shm import ShmBlobStore, ensure_tracker_running, read_blob
from repro.factors.index import TrieCache
from repro.faults import SITE_WORKER_KILL, fire

class ProcessPoolUnavailable(Exception):
    """The run context cannot be shipped to worker processes."""


def build_run_spec(state) -> Dict[str, Any]:
    """The per-run context shipped to every worker once.

    The query travels as a *skeleton* — variables, free prefix, aggregates
    and semiring, but no factor tables (those go through shared memory,
    once per worker, as the steps need them).
    """
    query = state.query
    skeleton = FAQQuery(
        variables=[Variable(v, query.domain(v)) for v in query.order],
        free=list(query.free),
        aggregates=dict(query.aggregates),
        factors=[],
        semiring=query.semiring,
        name=query.name,
    )
    return {
        "query": skeleton,
        "order": list(state.order),
        "backend": state.backend,
        "policy": state.policy,
        "uip": state.uip,
    }


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #
class _WorkerRun:
    """Worker-local mirror of the parent's run state."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.query: FAQQuery = spec["query"]
        self.order = spec["order"]
        self.backend = spec["backend"]
        self.policy = spec["policy"]
        self.uip = spec["uip"]
        self.slots: Dict[int, Any] = {}
        self.blobs: Dict[str, Any] = {}  # segment name -> factor
        self.tries = TrieCache(self.order, self.query.semiring)

    def load_refs(self, refs) -> None:
        for slot, name in refs:
            if name is None:
                self.slots[slot] = None
            else:
                factor = self.blobs.get(name)
                if factor is None:
                    factor = read_blob(name)
                    self.blobs[name] = factor
                self.slots[slot] = factor

    def execute(self, payload) -> Tuple[Tuple[Any, ...], Any, OutsideInStats]:
        kind, variable, incident, reads, outputs, refs = payload
        self.load_refs(refs)
        join_stats = OutsideInStats()
        if kind == KIND_SEMIRING:
            incident_factors = [self.slots[s] for s in incident]
            others = [self.slots[s] for s in reads]
            new_factor, record = eliminate_semiring_step(
                self.query, incident_factors, others, variable, self.uip,
                join_stats, backend=self.backend, policy=self.policy,
                tries=self.tries,
            )
            self.slots[outputs[0]] = new_factor
            return (new_factor,), record, join_stats
        if kind == KIND_PRODUCT:
            # Mirrors _RunState.execute_node: outputs align positionally
            # with the incident slots; None inputs keep None outputs.
            pairs = [
                (k, self.slots[s]) for k, s in enumerate(incident)
                if self.slots[s] is not None
            ]
            new_factors, record = eliminate_product_step(
                self.query, [factor for _, factor in pairs], variable
            )
            outs: List[Any] = [None] * len(outputs)
            for (k, old), new in zip(pairs, new_factors):
                outs[k] = new
                self.slots[outputs[k]] = new
                if new is not old:
                    self.tries.discard(old)
            return tuple(outs), record, join_stats
        raise ValueError(f"process worker cannot execute step kind {kind!r}")


def _worker_main(conn) -> None:
    """The worker process entry point (module-level for spawn picklability)."""
    run: Optional[_WorkerRun] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        tag = message[0]
        if tag == "run":
            run = _WorkerRun(message[1])
        elif tag == "step":
            index = message[1]
            try:
                outputs, record, join_stats = run.execute(message[2])
            except BaseException as exc:  # noqa: BLE001 - reported to parent
                try:
                    conn.send(("error", index, repr(exc)))
                except (OSError, ValueError):
                    return
                continue
            try:
                conn.send(("done", index, outputs, record, join_stats))
            except (OSError, ValueError):
                return
        elif tag == "crash":
            os._exit(17)
        elif tag == "exit":
            return


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
class _Worker:
    __slots__ = ("process", "conn", "alive", "present", "busy_on")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.alive = True
        self.present: Set[int] = set()  # slots already shipped
        self.busy_on: Optional[int] = None  # in-flight node index


class ProcessPool:
    """Drives one lowered run over a pool of worker processes."""

    def __init__(self, workers: int, spec: Dict[str, Any], context=None) -> None:
        try:
            pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ProcessPoolUnavailable(
                f"run context is not picklable for process workers: {exc!r}"
            ) from exc
        ctx = context if context is not None else multiprocessing.get_context()
        ensure_tracker_running()  # fork children must share the tracker
        self.workers: List[_Worker] = []
        try:
            for _ in range(workers):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main, args=(child_conn,), daemon=True
                )
                process.start()
                child_conn.close()
                parent_conn.send(("run", spec))
                self.workers.append(_Worker(process, parent_conn))
        except Exception as exc:
            self.shutdown()
            raise ProcessPoolUnavailable(
                f"could not start process workers: {exc!r}"
            ) from exc
        self.info: Dict[str, Any] = {
            "mode": "process",
            "workers": workers,
            "remote_steps": 0,
            "local_steps": 0,
            "retried_steps": 0,
            "degraded": False,
            "shipped_blobs": 0,
        }

    # ------------------------------------------------------------------ #
    def run(self, state, dag, step_cache=None) -> Dict[str, Any]:
        """Execute ``dag`` against ``state``; returns the pool info dict."""
        from multiprocessing.connection import wait

        blob_store = ShmBlobStore()
        slot_digests = getattr(dag, "slot_digests", None) or [None] * dag.num_slots
        indegree = {node.index: len(node.depends_on) for node in dag.nodes}
        dependents = dag.dependents()
        ready = sorted(
            (index for index, degree in indegree.items() if degree == 0),
            reverse=True,
        )
        total = len(dag.nodes)
        processed = 0
        claimed: Dict[int, tuple] = {}   # node index -> held cache key
        parked: Dict[tuple, List[int]] = {}  # key -> nodes awaiting our claim

        def complete(index: int) -> None:
            nonlocal processed
            processed += 1
            for dependent in dependents[index]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)

        def resolve(index: int, entry) -> None:
            """Fulfil a held claim and release any nodes parked on it."""
            key = claimed.pop(index, None)
            if key is None:
                return
            step_cache.fulfil(key, entry)
            for waiter in parked.pop(key, ()):
                state.replay(waiter, entry)
                complete(waiter)

        def execute_local(index: int) -> None:
            key = claimed.get(index)
            if key is None:
                state.execute_node(index)
                self.info["local_steps"] += 1
                return
            try:
                state.execute_node(index)
                entry = state.capture(index)
            except BaseException:
                step_cache.abandon(claimed.pop(index))
                raise
            self.info["local_steps"] += 1
            resolve(index, entry)

        def handle_death(worker: _Worker) -> None:
            worker.alive = False
            self.info["degraded"] = True
            try:
                worker.conn.close()
            except OSError:
                pass
            index = worker.busy_on
            worker.busy_on = None
            if index is not None:
                self.info["retried_steps"] += 1
                execute_local(index)
                complete(index)

        try:
            while processed < total:
                deferred: List[int] = []
                while ready:
                    index = ready.pop()
                    node = dag.nodes[index]
                    key = state.cache_key(index) if step_cache is not None else None
                    if key is not None and index not in claimed:
                        if key in parked or any(k == key for k in claimed.values()):
                            # Our own run holds this claim in flight; park the
                            # node instead of deadlocking the event loop on
                            # the cache's in-flight event.
                            parked.setdefault(key, []).append(index)
                            continue
                        entry = step_cache.lookup_or_claim(key)
                        if entry is not None:
                            state.replay(index, entry)
                            complete(index)
                            continue
                        claimed[index] = key
                    idle = next(
                        (w for w in self.workers if w.alive and w.busy_on is None),
                        None,
                    )
                    remote_ok = (
                        node.kind in (KIND_SEMIRING, KIND_PRODUCT)
                        and not self.info["degraded"]
                    )
                    if not remote_ok:
                        execute_local(index)
                        complete(index)
                    elif idle is None:
                        deferred.append(index)
                    else:
                        self._dispatch(
                            idle, state, node, blob_store, slot_digests
                        )
                        if not idle.alive:
                            handle_death(idle)
                ready = deferred
                if processed >= total:
                    break
                busy = [w for w in self.workers if w.alive and w.busy_on is not None]
                if not busy:
                    if ready:
                        continue  # degraded mid-loop; drain locally
                    raise RuntimeError("process pool stalled with no runnable steps")
                for conn in wait([w.conn for w in busy]):
                    worker = next(w for w in busy if w.conn is conn)
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        handle_death(worker)
                        continue
                    index = worker.busy_on
                    worker.busy_on = None
                    if message[0] == "done":
                        _, _, outputs, record, join_delta = message
                        from repro.exec.executor import _StepEntry

                        entry = _StepEntry(
                            outputs=tuple(outputs),
                            record=record,
                            join_delta=join_delta,
                        )
                        state.replay(index, entry)
                        node = dag.nodes[index]
                        for slot in node.outputs:
                            worker.present.add(slot)
                        self.info["remote_steps"] += 1
                        resolve(index, entry)
                        complete(index)
                    else:  # ("error", index, repr) — retry in-process
                        self.info["retried_steps"] += 1
                        execute_local(index)
                        complete(index)
        except BaseException:
            for key in claimed.values():
                step_cache.abandon(key)
            raise
        finally:
            blob_store.close()
        return dict(self.info)

    # ------------------------------------------------------------------ #
    def _dispatch(self, worker: _Worker, state, node, blob_store, slot_digests) -> None:
        """Ship missing inputs by reference and send one step to a worker."""
        state.enter_step()  # the step.kernel fault site, as for in-parent steps
        refs: List[Tuple[int, Optional[str]]] = []
        for slot in tuple(node.incident) + tuple(node.reads):
            if slot in worker.present:
                continue
            factor = state.slots[slot]
            if factor is None:
                refs.append((slot, None))
            else:
                key = slot_digests[slot] if slot_digests[slot] is not None else slot
                before = len(blob_store)
                name = blob_store.put(key, factor)
                if len(blob_store) > before:
                    self.info["shipped_blobs"] += 1
                refs.append((slot, name))
            worker.present.add(slot)
        payload = (
            node.kind, node.variable, tuple(node.incident), tuple(node.reads),
            tuple(node.outputs), refs,
        )
        if fire(SITE_WORKER_KILL) is not None:
            # Poison the target worker: it exits before replying, which
            # exercises the death-recovery path deterministically.
            try:
                worker.conn.send(("crash",))
            except OSError:
                pass
        worker.busy_on = node.index
        try:
            worker.conn.send(("step", node.index, payload))
        except (OSError, ValueError):
            worker.alive = False  # caller runs the death path

    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        for worker in self.workers:
            if worker.alive:
                try:
                    worker.conn.send(("exit",))
                except (OSError, ValueError):
                    pass
            try:
                worker.conn.close()
            except OSError:
                pass
        for worker in self.workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
