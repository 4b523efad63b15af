"""mustab benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--systems default|spare]

Run from the root of a checkout; mustab is imported from its ``src/``.
Every measurement happens in a fresh child process (child.py), one thread
each, and every output is checked against the references in ``refs/``.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median time of
one pass of the workload over the passes that fit in ``--seconds``;
``setup_s``, the median over SETUP_RUNS + 1 children of the time from
interpreter start until the inputs are ready; and ``peak_rss_mib``, the
timed child's ``ru_maxrss``.  ``--trace 1`` runs the workload untraced and
then traced, half of ``--seconds`` each, and reports the per-layer metrics of
spans.py plus ``trace.overhead_s`` (traced minus untraced median pass time).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted``/``failed`` count checked units
(profile rows, shadowing rows, certificates, theorem reports); their ratio is
ops_failed_share.  A result file with the platform, the Python version,
nproc, the git commit and the seeds goes to ``results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 5  # setup-only children per run, besides the timed child
CHILD_LIMIT_S = 150.0
# Self times must add up to the traced wall time; allow this share for the
# few perf_counter calls between the benchmark's own span and its timer.
SELF_SUM_TOLERANCE = 0.01

UNITS = {"calls": "count", "self_s": "s", "distinct_share": "share",
         "start_sets_per_delta": "ratio"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(args, trace: int, seconds: float, setup_only: bool = False,
              spans_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--systems", args.systems,
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_LIMIT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args) -> tuple[dict, list[dict], dict]:
    setups = [run_child(args, 0, 0, setup_only=True) for _ in range(SETUP_RUNS)]
    timed = run_child(args, 0, args.seconds)
    setups.append(timed)
    metrics = {
        "wall_s": (timed["wall_s"], "s"),
        "setup_s": (statistics.median(c["setup_s"] for c in setups), "s"),
        "peak_rss_mib": (timed["peak_rss_mib"], "MiB"),
    }
    extra = {"wall_raw_s": timed["wall_raw_s"],
             "setup_samples_s": [c["setup_s"] for c in setups],
             "setup_raw_samples_s": [c["setup_raw_s"] for c in setups]}
    return metrics, timed["passes"], extra


def per_layer(args, spans_out: Path) -> tuple[dict, list[dict], dict]:
    plain = run_child(args, 0, args.seconds / 2)
    traced = run_child(args, 1, args.seconds / 2, spans_out=spans_out)
    layer_passes = [p["layers"] for p in traced["passes"]]
    layers = {k: statistics.median(lp[k] for lp in layer_passes) for k in layer_passes[0]}
    setup = traced["setup_layers"]
    metrics = {}
    for name, value in layers.items():
        if name in ("self_total_s", "root_total_s"):
            continue
        kind = name.rsplit(".", 1)[1]
        if kind in ("calls", "self_s"):
            value += setup[name]  # layer work done while setting up counts too
        metrics[name] = (value, UNITS.get(kind, "ratio"))
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")

    # Self-checks: tracing must not change a byte of output, and the self
    # times of every pass must add up to that pass's traced wall time.
    problems = []
    digests = {p["digest"] for p in plain["passes"] + traced["passes"]}
    if len(digests) != 1:
        problems.append("outputs differ between passes or under tracing")
    for p in traced["passes"]:
        lp = p["layers"]
        if abs(lp["self_total_s"] - lp["root_total_s"]) > 1e-6 * max(1.0, lp["root_total_s"]):
            problems.append("span self times do not add up to their roots")
        if abs(lp["root_total_s"] - p["elapsed_s"]) > SELF_SUM_TOLERANCE * p["elapsed_s"]:
            problems.append("span self times do not add up to the traced wall time")
    extra = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
             "untraced_wall_raw_s": plain["wall_raw_s"], "traced_wall_raw_s": traced["wall_raw_s"],
             "self_check_problems": sorted(set(problems))}
    return metrics, plain["passes"] + traced["passes"], extra


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--systems", default="default", choices=workloads.SYSTEM_SETS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mustab" / "__init__.py").is_file():
        return fail(f"no mustab sources under {ROOT / 'src'}; run from a mustab checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.systems}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, passes, extra = per_layer(args, results / f"spans-{stem}.json")
        else:
            metrics, passes, extra = end_to_end(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as ex:
        return fail(f"{args.workload}: {ex}")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = extra.get("self_check_problems", [])
    correct = failed == 0 and not problems
    mismatched = sorted({k for p in passes for k in p["mismatched"]})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "systems": args.systems,
        "inputs": workloads.inputs(args.workload, args.systems),
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_share": failed / attempted if attempted else 1.0,
        "mismatched_operations": mismatched,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "pass_walls_raw_s": [p["wall_raw_s"] for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    for name in ("wall_raw_s", "untraced_wall_raw_s", "traced_wall_raw_s"):
        if name in extra:
            print(f"{name:48s} {extra[name]:.6g} s (not rescaled)")
    print(f"{'ops_failed_share':48s} {result['ops_failed_share']:.6g} share "
          f"({failed} of {attempted} checked units, {len(passes)} passes)")
    for problem in problems + [f"output differs from reference: {k}" for k in mismatched]:
        print(f"FAIL {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
