"""Per-layer metrics of the traced run, derived from the recorded spans.

A layer is a module under ``src/repro/``; a span name starts with the layer
it was recorded for.  Numbers here are per op: the spans of one op are
summed by name first, then the median over ops is reported.  When no
measured op reached a layer (the planner chose variable elimination, which
reports no per-step clock) the probe runs stand in for the ops.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from trace import PROBE, ROOT, Tracer
from workloads import median0, percentile

KERNELS = ("trie", "flat", "dense")

# Workload design: the spans a workload was built to stress must carry at
# least DOMINANT_MIN of its op time, and the spans it is the named control
# for at most CONTROL_MAX.
DOMINANT_MIN = 0.6
CONTROL_MAX = 0.2
PLANNER = ("planner.plan_cold", "planner.plan_warm")
SERVE = ("serve.content_key", "serve.execute", "serve.submit")
DESIGN: Dict[str, Tuple[Tuple[str, ...], Tuple[Tuple[str, ...], ...]]] = {
    # workload: (built for, (control for, ...))
    "dense-pgm": (("core.ve_execute", "core.execute", "factors.dense"),
                  (("factors.trie", "factors.flat"), PLANNER, SERVE)),
    "sparse-count": (("factors.trie",), (("factors.flat",),)),
    "sparse-max": (("factors.flat",), (("factors.trie",),)),
    "plan-cold": (("planner.plan_cold",), ()),
    # The merged step-DAG run: lowering, merging, step cache, kernels.
    "batch-shared": (("exec.run_many",), ()),
    "incr-stream": (("incremental.update",), ()),
    # Everything but the replica's execution, the wait to be sent included.
    "serve-zipf": (SERVE + (ROOT,), ()),
}


def span_metrics(tracer: Tracer, workload: str, speed: Dict[int, float],
                 metrics: Dict[str, float]) -> None:
    """Fill every metric that is a function of the spans alone.

    ``speed`` maps an op to the host slowdown while it ran; span times are
    divided by it, like the end-to-end latencies (probe runs are not).
    """
    spans = tracer.spans
    slow = [speed.get(op_id, 1.0) for _, op_id, *_ in spans]
    selfs = [seconds / by for seconds, by in zip(tracer.self_seconds(), slow)]
    self_by = tracer.per_op(selfs)
    time_by = tracer.per_op([(end - start) / by
                             for (_, _, start, end, _, _), by in zip(spans, slow)])
    rows_by = tracer.per_op([rows for *_, rows in spans])
    count_by = tracer.per_op([1] * len(spans))
    ops = set(tracer.op_ids(ROOT))
    probes = set(tracer.op_ids(PROBE))

    def sample(table: Dict[str, Dict[int, float]], name: str) -> List[float]:
        by_op = table.get(name, {})
        return ([v for op, v in by_op.items() if op in ops]
                or [v for op, v in by_op.items() if op in probes])

    def ms(name: str) -> float:
        return 1e3 * median0(sample(time_by, name))

    metrics["planner.plan_cold_ms"] = ms("planner.plan_cold")
    metrics["planner.plan_warm_us"] = 1e3 * ms("planner.plan_warm")
    metrics["serve.content_key_us"] = 1e3 * ms("serve.content_key")
    metrics["core.execute_ms"] = ms("core.execute")
    metrics["core.ve_execute_ms"] = ms("core.ve_execute")
    metrics["core.output_phase_ms"] = 1e3 * median0(sample(self_by, "core.execute"))
    metrics["core.steps_ms"] = metrics["core.execute_ms"] - metrics["core.output_phase_ms"]
    metrics["core.max_intermediate_rows"] = max(
        [rows for name, *_, rows in spans if name in ("core.execute", "core.ve_execute")],
        default=0)
    for kernel in KERNELS:
        name = f"factors.{kernel}"
        seconds = sample(time_by, name)
        metrics[f"{name}_step_ms"] = 1e3 * median0(seconds)
        metrics[f"factors.steps_{kernel}"] = (
            statistics.fmean(sample(count_by, name)) if seconds else 0.0)
        if kernel != "dense" and sum(seconds):
            metrics[f"{name}_rows_per_s"] = sum(sample(rows_by, name)) / sum(seconds)
    metrics["incremental.update_ms"] = ms("incremental.update")
    metrics["exec.run_many_ms"] = ms("exec.run_many")

    roots = dict(time_by.get(ROOT, {}))
    total = sum(roots.values())
    if not total:
        return
    inside = sum(value for (name, op_id, *_), value in zip(spans, selfs)
                 if op_id in ops and name != ROOT)
    metrics["trace.coverage_share"] = inside / total

    if "serve.submit" in time_by:
        replica = self_by.get("serve.replica_exec", {})
        beyond = [roots[op] - replica.get(op, 0.0) for op in roots]
        metrics["serve.overhead_ms"] = 1e3 * median0(beyond)
        metrics["serve.overhead_share"] = sum(beyond) / total
        metrics["serve.latency_p99_ms"] = 1e3 * percentile(list(roots.values()), 0.99)

    def share(names: Tuple[str, ...]) -> float:
        return sum(sum(v for op, v in self_by.get(n, {}).items() if op in ops)
                   for n in names) / total

    built_for, controls = DESIGN[workload]
    metrics["design.dominant_share"] = share(built_for)
    metrics["design.control_share"] = max((share(names) for names in controls), default=0.0)


def design_violations(metrics: Dict[str, float]) -> List[str]:
    found = []
    if metrics["design.dominant_share"] < DOMINANT_MIN:
        found.append(f"design.dominant_share {metrics['design.dominant_share']:.3f} "
                     f"< {DOMINANT_MIN}")
    if metrics["design.control_share"] > CONTROL_MAX:
        found.append(f"design.control_share {metrics['design.control_share']:.3f} "
                     f"> {CONTROL_MAX}")
    return found
