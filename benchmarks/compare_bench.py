#!/usr/bin/env python
"""Trend the checked-in benchmark JSON across PRs (CI regression gate).

Compares a fresh ``--json`` run of the benchmark harness against the
checked-in baseline (``BENCH_planner.json``) and **fails** (exit code 1)
when a ratio metric regresses by more than ``--max-regression`` (default
30%).

Only *ratio* metrics are gated — speedups, hit rates, throughput
multipliers.  They are measured within one run on one machine, so they are
comparable across hosts (the checked-in numbers come from the author's
machine, CI runs on whatever runner it gets); raw second timings are
printed for context but never gate.  Metrics marked CPU-sensitive (thread
speedups, batch throughput) additionally require the fresh host to have at
least as many cores as the baseline host before a regression can fail the
run — fewer cores legitimately produce smaller multipliers.

Usage::

    python -m pytest benchmarks/bench_planner.py benchmarks/bench_serve.py \
        -q -m shape --json fresh.json
    python benchmarks/compare_bench.py fresh.json \
        [--baseline BENCH_planner.json] [--max-regression 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# metric field -> cpu_sensitive.  Higher is better for these.
RATIO_FIELDS = {
    "end_to_end_speedup": False,
    "cache_hit_rate": False,
    "throughput_x": True,
    "throughput_nocoalesce_x": True,
    # serve:* — fleet wall-clock over a single replica on identical
    # open-loop traffic; process parallelism, so cpu-sensitive.  The
    # coalescing dedup ratio is deliberately NOT gated: it *shrinks* as
    # hosts gain cores (the no-coalesce denominator parallelises), so
    # trending it across machines would gate on hardware, not code.
    "replica_speedup_x": True,
    # planner:batch-shared-subplans — cross-query step dedup.  The dedup
    # ratio is an executor counter and the speedup an algorithmic win on a
    # single-threaded server, so neither needs cores to reproduce.
    "shared_step_dedup_x": False,
    "shared_batch_speedup_x": False,
    # incr:delta-vs-full — single-cell delta maintenance vs a full
    # recompute.  Replay-vs-execute is an algorithmic win (no cores
    # required), so the ratio is gated on every host.
    "incremental_speedup_x": False,
    # exec:sparse-parallel — the vectorized flat kernel over the
    # pure-Python trie kernel is a single-thread vectorization win (gated
    # everywhere).
    "flat_vs_trie_x": False,
    # exec:flat-warm-store — the same flat run with its encodings, code
    # maps and join indexes already in a warm SharedTrieCache vs encoding
    # them per run.  Work not done, on one thread: gated on every host.
    "flat_warm_vs_cold_x": False,
    # serve:warm-restart — time-to-first-incremental-answer of a server
    # restarted over its snapshot spill vs a cold restart.  Replaying the
    # restored view vs a full baseline run is an algorithmic win (no cores
    # required), so the ratio is gated on every host.
    "warm_restart_speedup_x": False,
}

# informational raw timings (seconds; printed, never gating)
TIMING_FIELDS = (
    "planning_cold_s",
    "planning_warm_s",
    "plan_execute_s",
    "written_order_insideout_s",
    "seconds",
    "trie_w1_s",
    "flat_w1_s",
    "flat_cold_s",
    "flat_warm_s",
    "serial_loop_s",
    "batch_s",
    "merged_s",
    "independent_s",
    "single_wall_s",
    "fleet_nocoalesce_wall_s",
    "fleet_wall_s",
    "cold_restart_s",
    "warm_restart_s",
    "p50_s",
    "p95_s",
    "p99_s",
)


def _load(path: Path):
    """Returns ``(quick_flag, rows_by_name)`` for a benchmark JSON file."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"compare_bench: cannot read {path}: {exc}")
    rows = {
        row["name"]: row
        for row in payload.get("results", [])
        if isinstance(row, dict) and "name" in row
    }
    return bool(payload.get("quick")), rows


def compare(fresh: dict, baseline: dict, max_regression: float):
    """Yield (severity, message) comparison lines; severity in {ok, info, fail}."""
    shared = sorted(set(fresh) & set(baseline))
    if not shared:
        yield "info", "no shared benchmark rows between fresh run and baseline"
        return
    # A gated baseline row with no fresh counterpart means a benchmark was
    # renamed or dropped without regenerating the baseline — its regression
    # gate would otherwise just silently disappear.
    gated_fields = set(RATIO_FIELDS)
    for name in sorted(set(baseline) - set(fresh)):
        if gated_fields & set(baseline[name]):
            yield "fail", (
                f"{name}: gated baseline row missing from the fresh run — "
                "rename/removal requires regenerating the checked-in baseline"
            )
        else:
            yield "info", f"{name}: baseline-only row (not gated)"
    for name in shared:
        fresh_row, base_row = fresh[name], baseline[name]
        fresh_cpus = fresh_row.get("cpu_count")
        base_cpus = base_row.get("cpu_count")
        for field, cpu_sensitive in RATIO_FIELDS.items():
            if field not in fresh_row or field not in base_row:
                continue
            fresh_value, base_value = fresh_row[field], base_row[field]
            if not isinstance(fresh_value, (int, float)) or not isinstance(
                base_value, (int, float)
            ):
                continue
            bound = base_value * (1.0 - max_regression)
            line = (
                f"{name} {field}: baseline={base_value:.3f} fresh={fresh_value:.3f} "
                f"(floor {bound:.3f})"
            )
            if fresh_value >= bound:
                yield "ok", line
            elif (
                cpu_sensitive
                and fresh_cpus is not None
                and base_cpus is not None
                and fresh_cpus < base_cpus
            ):
                yield "info", line + f" [not gated: {fresh_cpus} < {base_cpus} cores]"
            else:
                yield "fail", line
        for field in TIMING_FIELDS:
            if field in fresh_row and field in base_row:
                yield "info", (
                    f"{name} {field}: baseline={base_row[field] * 1e3:.2f}ms "
                    f"fresh={fresh_row[field] * 1e3:.2f}ms [timing, not gated]"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path, help="--json output of a fresh benchmark run")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_planner.json",
        help="checked-in baseline (default: BENCH_planner.json at the repo root)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="maximum tolerated relative drop of a ratio metric (default 0.30)",
    )
    args = parser.parse_args(argv)

    fresh_quick, fresh = _load(args.fresh)
    baseline_quick, baseline = _load(args.baseline)
    if fresh_quick or baseline_quick:
        print("compare_bench: quick-mode results are not comparable; skipping")
        return 0

    failures = 0
    for severity, message in compare(fresh, baseline, args.max_regression):
        marker = {"ok": " ok ", "info": "info", "fail": "FAIL"}[severity]
        print(f"[{marker}] {message}")
        if severity == "fail":
            failures += 1
    if failures:
        print(
            f"compare_bench: {failures} ratio metric(s) regressed more than "
            f"{args.max_regression:.0%} vs {args.baseline}"
        )
        return 1
    print("compare_bench: no gated regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
