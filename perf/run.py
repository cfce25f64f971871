"""The repo's one benchmark: ``python perf/run.py``.

Runs the workloads named in ``BENCHMARK.json`` and the ungated ``serve-zipf``
— each in its own fresh process, so peak memory, the process-wide ρ* memo
and the default plan cache do not leak from one workload into the next —
prints every metric as ``workload metric value unit``, checks every answer
against :mod:`reference`, and exits non-zero if any answer is wrong.

``--trace 0`` (default) measures the end-to-end metrics with tracing off.
``--trace 1`` repeats the run with the same seed and reports the per-layer
metrics instead; every seventh op of it runs untraced, so that the tracing
overhead is measured in the same process.  A traced run at full size also
fails when the workload no longer stresses the layer it was built for
(``layers.DESIGN``).

The last line printed for a workload is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
# setup_s is the median of several set-ups: three at least, and more of a
# cheap one until they add up to two and a half seconds.
SETUPS_MIN, SETUPS_MAX, SETUPS_SECONDS = 3, 15, 2.5
# Measured and reported like the others, but not among BENCHMARK.json's
# workloads, which later changes are gated on: identical runs of it on the
# shared reference host differ by more than any bound a metric may have
# (perf/README.md, "Repeatability").
UNGATED = ("serve-zipf",)


def load_spec() -> Dict[str, Any]:
    with open(ROOT_DIR / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(spec: Dict[str, Any]) -> List[str]:
    return [w["name"] for w in spec["workloads"]] + list(UNGATED)


def host_record() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------- #
# one workload, in this process
# ---------------------------------------------------------------------- #
def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    if not (ROOT_DIR / "src" / "repro").is_dir():
        print("perf/run.py: no src/repro beside perf/ — nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT_DIR / "src"))
    import layers
    from trace import Tracer
    from workloads import WORKLOADS, percentile

    name = args.workload[0]
    workload = WORKLOADS[name](args.size)
    setup_seconds, setup_raw = [], []
    budget = SETUPS_SECONDS if args.size == "full" else 0.0
    while len(setup_raw) < SETUPS_MIN or (
            sum(setup_raw) < budget and len(setup_raw) < SETUPS_MAX):
        if setup_raw:
            workload.teardown()
        gc.collect()
        slowdown = workload.slowdown()
        start = time.perf_counter()
        workload.setup(args.seed)
        setup_raw.append(time.perf_counter() - start)
        slowdown = (slowdown + workload.slowdown()) / 2
        setup_seconds.append(setup_raw[-1] / slowdown)

    tracer: Optional[Tracer] = None
    metrics: Dict[str, float] = {}
    try:
        if args.trace:
            tracer = Tracer()
            before = process_counters()
            records = workload.measure(args.seconds, tracer)
            after = process_counters()
            metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
            counter_metrics(before, after, metrics)
            workload.probes(metrics, make_guard(metrics), tracer)
            layers.span_metrics(tracer, name, {r.op_id: r.speed for r in records}, metrics)
            p50 = {flag: workload.latency_quantile(
                [r for r in records if r.traced == flag], 0.5) for flag in (True, False)}
            metrics["trace.overhead_share"] = p50[True] / p50[False] - 1
            update = metrics["incremental.update_ms"]
            if update:
                metrics["incremental.speedup_x"] = metrics["incremental.full_recompute_ms"] / update
        else:
            records = workload.measure(args.seconds, None)
        failed = workload.verify(records, args.perturb_reference)
    finally:
        workload.teardown()

    if tracer is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{name}.trace.jsonl")
    else:
        latencies = workload.latencies(records)
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "latency_p50_ms": 1e3 * workload.latency_quantile(records, 0.5),
            "latency_p95_ms": 1e3 * workload.latency_quantile(records, 0.95),
            "throughput_ops": workload.throughput(records),
            "peak_rss_mb": workload.peak_rss_kb() / 1024,
        }

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    attempted = len(records)
    print(f"{name} ops_attempted {attempted} count")
    print(f"{name} ops_succeeded {attempted - failed} count")
    print(f"{name} ops_failed {failed} count")
    print(f"{name} failed_share {failed / attempted:.6f} share")
    if not args.trace:
        raw = [r.latency for r in records if r.latency >= 0]
        print(f"{name} latency_samples {len(latencies)} count")
        slow = statistics.median(r.speed for r in records if r.latency >= 0)
        print(f"{name} host_slowdown {slow:.4f} x")
        print(f"{name} setup_raw_s {statistics.median(setup_raw):.6g} s")
        print(f"{name} latency_p50_raw_ms {1e3 * percentile(raw, 0.5):.6g} ms")
        print(f"{name} latency_p95_raw_ms {1e3 * percentile(raw, 0.95):.6g} ms")
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    if workload.first_error:
        print(f"first failed op:\n{workload.first_error}", file=sys.stderr)
    # Tiny inputs are all fixed costs: the design check is for the sized run.
    violations = (layers.design_violations(metrics)
                  if args.trace and args.size == "full" else [])
    for violation in violations:
        print(f"{name}: workload design check: {violation}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failed or violations else 0


def process_counters() -> Tuple[int, int, int]:
    """(cost-model invocations, ρ* memo hits, ρ* memo misses) of this process."""
    from repro.hypergraph.covers import rho_star_cache_info
    from repro.planner import DEFAULT_COST_MODEL

    info = rho_star_cache_info()
    return DEFAULT_COST_MODEL.invocations, info["hits"], info["misses"]


def counter_metrics(before, after, metrics: Dict[str, float]) -> None:
    scored, hits, misses = (b - a for a, b in zip(before, after))
    metrics["planner.candidates_scored"] = scored
    metrics["hypergraph.rho_star_lp_calls"] = misses
    metrics["hypergraph.rho_star_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0


def make_guard(metrics: Dict[str, float]) -> Callable[[str, Callable[[], Any]], None]:
    """Probes are diagnostics: one that raises reports 0 and a traceback,
    and the run goes on."""

    def guard(name: str, probe: Callable[[], Any]) -> None:
        try:
            value = probe()
        except Exception:
            print(f"probe {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return
        if value is not None:
            metrics[name] = value

    return guard


# ---------------------------------------------------------------------- #
# several workloads, one fresh process each
# ---------------------------------------------------------------------- #
def child(args: argparse.Namespace, name: str, perturb: bool = False,
          **override: Any) -> Tuple[int, str]:
    """Run one workload in a fresh interpreter; returns (exit code, stdout)."""
    options = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "size": args.size, **override}
    command = [sys.executable, str(HERE / "run.py"), "--workload", name]
    for key, value in options.items():
        command += [f"--{key}", str(value)]
    if perturb:
        command.append("--perturb-reference")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    return done.returncode, done.stdout


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    names = args.workload or workload_names(spec)
    host = host_record()
    print("# host " + " ".join(f"{k}={v}" for k, v in host.items()))
    results, worst = {}, 0
    for name in names:
        code, output = child(args, name)
        sys.stdout.write(output)
        sys.stdout.flush()
        worst = max(worst, code)
        lines = output.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"host": host, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "results": results}, handle, indent=1)
    return worst


# ---------------------------------------------------------------------- #
# --smoke
# ---------------------------------------------------------------------- #
def smoke(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload at tiny size, both ways, plus the self-test that a
    wrong reference is noticed."""
    problems: List[str] = []
    for workload in workload_names(spec):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, output = child(args, workload, seconds=1, trace=trace, size="smoke")
            if code:
                problems.append(f"{workload} --trace {trace}: exit code {code}")
            printed = [line.split() for line in output.splitlines()
                       if line.startswith(workload + " ")]
            for metric in declared:
                units = [p[3] for p in printed if p[1] == metric["name"]]
                if units != [metric["unit"]]:
                    problems.append(
                        f"{workload} --trace {trace}: {metric['name']} printed with "
                        f"units {units}, expected once with {metric['unit']}")
        print(f"smoke {workload} done")
    code, output = child(args, "sparse-count", seconds=1, trace=0, size="smoke", perturb=True)
    report = json.loads(output.strip().splitlines()[-1])
    if code == 0 or report["failed"] == 0 or report["correct"]:
        problems.append("a perturbed reference went unnoticed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    spec = load_spec()
    names = workload_names(spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", metavar="PATH", help="also write all results here")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny size, with self-checks")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="self-test: compare against deliberately wrong answers")
    args = parser.parse_args()
    if args.smoke:
        return smoke(args, spec)
    if args.workload and len(args.workload) == 1 and not args.json:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
