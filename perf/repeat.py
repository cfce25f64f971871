"""Is the benchmark repeatable?  ``python perf/repeat.py``.

Runs the full untraced set twice with the same seed and prints, for every
end-to-end metric of every workload, the two values and their relative gap.
Fails if a gap on a workload ``BENCHMARK.json`` lists exceeds the bound it
gives that metric: two runs of the same code must agree within the
benchmark's own bounds, or the bounds mean nothing.  A third set on another
seed is printed beside them, unchecked, to show the numbers do not belong to
one seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent


def run_set(seed: int, label: str) -> Dict[str, Any]:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"repeat-{label}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", str(seed), "--json", str(path)],
        stdout=subprocess.DEVNULL, check=False)
    if done.returncode:
        raise SystemExit(f"set {label} (seed {seed}) exited with code {done.returncode}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["results"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--other-seed", type=int, default=12)
    args = parser.parse_args()
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    first = run_set(args.seed, "a")
    second = run_set(args.seed, "b")
    other = run_set(args.other_seed, "other")

    print(f"{'workload':14s} {'metric':16s} {'run a':>12s} {'run b':>12s} "
          f"{'gap':>8s} {'bound':>6s} {'seed ' + str(args.other_seed):>12s}")
    exceeded = 0
    gated = {w["name"] for w in spec["workloads"]}
    for workload in first:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b, c = (run[workload]["metrics"][name]["value"] for run in (first, second, other))
            gap = abs(b - a) / a
            over = gap > metric["bound"]
            note = "  EXCEEDED" if over else ""
            if workload in gated:
                exceeded += over
            else:
                note += "  (not gated)"
            print(f"{workload:14s} {name:16s} {a:12.4f} {b:12.4f} {gap:8.4f} "
                  f"{metric['bound']:6.2f} {c:12.4f}{note}")
    print(f"{exceeded} gaps over their bound")
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
