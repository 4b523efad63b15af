"""One measured process: set up a workload, then run passes of it.

Started by run.py, one fresh interpreter per measurement.  Prints one JSON
object as its last stdout line.  ``--t0`` is the parent's ``time.monotonic()``
just before it started this process (the clock is system-wide), so the
setup time runs from interpreter start until the inputs are ready: importing
mustab, writing the systems and loading the reference outputs.

Every time is reported twice: ``*_raw_s`` as the clock read it, and the
rescaled value of probe.py that cancels the shared host's speed drift.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# A run stops starting passes after --seconds, but takes at least this many
# so its median has something to choose from, unless HARD_LIMIT_S is reached.
MIN_PASSES = 3
HARD_LIMIT_S = 60.0


def refs_path(workload: str, system_set: str) -> Path:
    return HERE / "refs" / f"{workload}-{system_set}.json"


def run_pass(ops, refs, speed: probe.SpeedProbe, tracer) -> dict:
    lo = len(tracer.spans) if tracer else 0
    key_lo = {p: len(v) for p, v in tracer.keys.items()} if tracer else {}
    wall = wall_raw = elapsed = 0.0
    scale: dict[int, float] = {}
    attempted = failed = 0
    mismatched = []
    digest = hashlib.sha256()
    for op in ops:
        if tracer:
            tracer.run_id += 1
            idx = tracer.open(spans.BENCH_SPAN)
        mark = speed.mark()
        t = time.perf_counter()
        try:
            code, text = op.call()
        except Exception as ex:  # a crash is a failed operation, not a failed benchmark
            code, text = -1, f"{type(ex).__name__}: {ex}"
        took = time.perf_counter() - t
        if tracer:
            tracer.close(idx)
        net, rescaled = speed.rescale(mark, took)
        elapsed += took
        wall_raw += net
        wall += rescaled
        if tracer:
            scale[tracer.run_id] = rescaled / net if net > 0 else 1.0
        a, f = workloads.compare(op.kind, refs.get(op.key), code, text)
        attempted += a
        failed += f
        if f:
            mismatched.append(op.key)
        digest.update(f"{op.key}\0{code}\0{text}\0".encode())
    record = {"wall_s": wall, "wall_raw_s": wall_raw, "elapsed_s": elapsed,
              "attempted": attempted, "failed": failed,
              "mismatched": mismatched, "digest": digest.hexdigest()}
    if tracer:
        keys = {p: v[key_lo[p]:] for p, v in tracer.keys.items()}
        record["layers"] = spans.summarize(tracer.spans[lo:], lo, keys, scale)
    return record


def main(argv=None) -> int:
    speed = probe.SpeedProbe()
    speed.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--systems", default="default", choices=workloads.SYSTEM_SETS)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    import mustab

    where = Path(mustab.__file__).resolve()
    if ROOT / "src" not in where.parents:
        print(f"mustab was imported from {where}, not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        setup_span = tracer.open("bench.setup")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=results)
    try:
        ops = workloads.build(args.workload, args.seed, args.systems, workdir)
        with open(refs_path(args.workload, args.systems), encoding="utf-8") as fh:
            refs = {k: tuple(v) for k, v in json.load(fh).items()}
        setup_raw, setup = speed.rescale((0, 0.0), time.monotonic() - args.t0)
        if tracer:
            tracer.close(setup_span)
            setup_end = len(tracer.spans)
        report: dict = {"setup_s": setup, "setup_raw_s": setup_raw}
        if not args.setup_only:
            passes = report["passes"] = []
            start = time.perf_counter()
            while True:
                passes.append(run_pass(ops, refs, speed, tracer))
                spent = time.perf_counter() - start
                if (spent >= args.seconds and len(passes) >= MIN_PASSES) or spent >= HARD_LIMIT_S:
                    break
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        tracer.uninstall()
        setup_scale = {0: setup / setup_raw if setup_raw > 0 else 1.0}
        report["setup_layers"] = spans.summarize(tracer.spans[:setup_end], 0, {}, setup_scale)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "run"],
                           "spans": tracer.spans}, fh, separators=(",", ":"))
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if "passes" in report:
        for key in ("wall_s", "wall_raw_s"):
            report[key] = statistics.median(p[key] for p in report["passes"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
