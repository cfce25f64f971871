"""Worker processes as an execution site of the step-DAG executor.

Threads only help the dense kernels (NumPy releases the GIL); the sparse
trie kernel and the flat kernel's Python glue still serialise on it.
``DagExecutor(workers_mode="process")`` escapes the GIL without a second
scheduler: the driver's ordinary scheduler threads (one per worker) call
:meth:`ProcessPool.execute_node` where they would call
``_RunState.execute_node``.  The call takes an idle worker, ships the
step's missing inputs, blocks on the worker's reply with the GIL released,
and replays the reply into the run — readiness, the step-source claim
protocol and the merged-node bookkeeping all stay in
:mod:`repro.exec.executor`.

Data movement is digest-keyed shared memory, not pipe pickling: every
factor a worker needs (base factors and intermediate step results alike)
is published once into a :class:`~repro.exec.shm.ShmBlobStore` segment —
keyed by the slot's content digest when the step IR carries one — and a
worker receives only ``(slot, segment name)`` references, attaching and
unpickling each segment at most once per worker.  Workers run the very
same node→kernel dispatch (:func:`~repro.exec.executor.run_step_kernel`)
against a worker-local :class:`~repro.factors.index.TrieCache`; the kernels
are pure functions of their input factors, so results, step records, and
join counters are identical to a ``workers=1`` run no matter which process
ran a step.  The output phase always runs in the parent (its result never
feeds another step).

Fault handling is degrade-don't-hang: a worker dying mid-step (EOF on its
pipe) or reporting a step *error* marks the pool *degraded* — the calling
thread redoes the step in-process (which either succeeds or re-raises the
real exception with a proper traceback) and every remaining step runs
in-process on the scheduler threads, so a crashed worker costs wall-clock,
never the run.

Environments whose run context cannot cross a process boundary (lambda
semirings, unpicklable aggregates) raise
:class:`ProcessPoolUnavailable` at pool construction; the executor's
threads then compute every step in-process.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.outsidein import OutsideInStats
from repro.core.query import FAQQuery, Variable
from repro.exec.dag import KIND_OUTPUT
from repro.exec.executor import capture_step, run_step_kernel
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
    """The run context :func:`run_step_kernel` needs, worker-local."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.query: FAQQuery = spec["query"]
        self.backend = spec["backend"]
        self.policy = spec["policy"]
        self.uip = spec["uip"]
        self.slots: Dict[int, Any] = {}
        self.blobs: Dict[str, Any] = {}  # segment name -> factor
        self.tries = TrieCache(spec["order"], self.query.semiring)

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

    def execute(self, node, refs):
        """Run one step; the reply is the entry the parent replays."""
        self.load_refs(refs)
        join_stats = OutsideInStats()
        record = run_step_kernel(self, node, join_stats)
        return capture_step(self, node, record, join_stats)


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
            try:
                reply = ("done", run.execute(message[1], message[2]))
            except BaseException as exc:  # noqa: BLE001 - reported to parent
                reply = ("error", repr(exc))
            try:
                conn.send(reply)
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
    __slots__ = ("process", "conn", "present")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.present: Set[int] = set()  # slots already shipped


class ProcessPool:
    """Worker processes that the scheduler's threads run one run's steps on."""

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
        self._idle: "queue.SimpleQueue[_Worker]" = queue.SimpleQueue()
        self._blobs = ShmBlobStore()
        self._lock = threading.Lock()  # guards the info counters
        self.info: Dict[str, Any] = {
            "mode": "process",
            "workers": workers,
            "remote_steps": 0,
            "local_steps": 0,
            "retried_steps": 0,
            "degraded": False,
            "shipped_blobs": 0,
        }
        try:
            for _ in range(workers):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main, args=(child_conn,), daemon=True
                )
                process.start()
                child_conn.close()
                parent_conn.send(("run", spec))
                worker = _Worker(process, parent_conn)
                self.workers.append(worker)
                self._idle.put(worker)
        except Exception as exc:
            self.shutdown()
            raise ProcessPoolUnavailable(
                f"could not start process workers: {exc!r}"
            ) from exc

    # ------------------------------------------------------------------ #
    def execute_node(self, state, index: int) -> None:
        """Execute one node of ``state``'s run, on an idle worker if possible.

        Called from the scheduler's threads in place of
        ``state.execute_node(index)``.  A node that cannot go remote — the
        output phase, a degraded pool, no idle worker — or whose worker
        failed is computed in-process by the calling thread.
        """
        state.enter_step()  # the step.kernel fault site, once per step
        node = state.dag.nodes[index]
        worker = None
        if node.kind != KIND_OUTPUT and not self.info["degraded"]:
            try:
                worker = self._idle.get_nowait()
            except queue.Empty:
                pass
        remote = worker is not None and self._run_remote(worker, state, node)
        if not remote:
            state.compute_node(index)
        with self._lock:
            self.info["remote_steps" if remote else "local_steps"] += 1

    def _run_remote(self, worker: _Worker, state, node) -> bool:
        """One step on ``worker``; ``False`` means redo it in-process.

        The worker goes back on the idle queue on every path but its own
        death, which is how a broken pipe — or a step that could not even
        be shipped — reads from here.
        """
        done = False
        try:
            self._dispatch(worker, state, node)
            tag, entry = worker.conn.recv()  # blocks with the GIL released
            done = tag == "done"
            if done:
                worker.present.update(node.outputs)
        except (EOFError, OSError, ValueError):
            worker = None
        finally:
            if worker is not None:
                self._idle.put(worker)
        if done:
            state.replay(node.index, entry)
        else:
            with self._lock:
                self.info["degraded"] = True
                self.info["retried_steps"] += 1
        return done

    def _dispatch(self, worker: _Worker, state, node) -> None:
        """Ship missing inputs by reference and send one step to a worker."""
        slot_digests = state.dag.slot_digests
        refs: List[Tuple[int, Optional[str]]] = []
        for slot in node.incident + node.reads:
            if slot in worker.present:
                continue
            factor = state.slots[slot]
            if factor is None:
                refs.append((slot, None))
            else:
                digest = slot_digests[slot] if slot_digests else None
                refs.append(
                    (slot, self._blobs.put(slot if digest is None else digest, factor))
                )
            worker.present.add(slot)
        if fire(SITE_WORKER_KILL) is not None:
            # Poison the target worker: it exits before replying, which
            # exercises the death-recovery path deterministically.
            worker.conn.send(("crash",))
        worker.conn.send(("step", node, refs))

    # ------------------------------------------------------------------ #
    def shutdown(self) -> Dict[str, Any]:
        """Stop the workers, unlink the shipped segments, return the info."""
        for worker in self.workers:
            try:
                worker.conn.send(("exit",))
            except (OSError, ValueError):
                pass  # already dead
            try:
                worker.conn.close()
            except OSError:
                pass
        for worker in self.workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        self.info["shipped_blobs"] = len(self._blobs)
        self._blobs.close()
        return dict(self.info)
