"""Self-check of the benchmark across all workloads.

    python3 perfbench/selfcheck.py [--seconds S] [--seed N]

Runs every workload traced on the default systems and untraced on the spare
systems, then checks what no single run can: every reported function and
every layer records at least one span on some workload, and every run is
correct (outputs equal the references with and without tracing, self times
add up to the traced wall time).  Exits 1 on any problem.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int, systems: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--systems", systems]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])}: exit {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    problems = []
    seen: dict[str, list[str]] = {}
    for name in workloads.WORKLOADS:
        for trace, systems in ((1, "default"), (0, "spare")):
            result = run(name, args.seed, args.seconds, trace, systems)
            print(f"{name:16s} trace={trace} systems={systems:8s} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace} systems={systems} is not correct")
            if trace:
                for metric, entry in result["metrics"].items():
                    if metric.endswith((".calls", ".self_s")) and entry["value"] > 0:
                        seen.setdefault(metric.rsplit(".", 1)[0], []).append(name)
    for prefix in spans.REPORTED:
        if prefix not in seen:
            problems.append(f"{prefix} recorded no span on any workload")
    for layer in spans.LAYERS:
        if layer not in seen:
            problems.append(f"layer {layer} recorded no span on any workload")
    for prefix in spans.REPORTED + spans.LAYERS:
        print(f"  {prefix:36s} {', '.join(sorted(set(seen.get(prefix, [])))) or '-'}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
