"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record.py [--workload NAME ...] [--systems default spare]

Runs each operation once on the base systems in the generator's own point
order and writes ``refs/<workload>-<set>.json`` as {operation: [exit code,
exact output text]}.  Relabelled runs must reproduce these bytes, so record
only at a commit whose outputs are known to be right, and say so in the
commit that changes a reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

from child import HERE, refs_path  # also puts src/ and this directory on sys.path
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                    choices=workloads.WORKLOADS)
    ap.add_argument("--systems", nargs="*", default=list(workloads.SYSTEM_SETS),
                    choices=workloads.SYSTEM_SETS)
    args = ap.parse_args(argv)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    for name in args.workload:
        for system_set in args.systems:
            workdir = tempfile.mkdtemp(prefix="record-", dir=results)
            try:
                refs = {op.key: list(op.call())
                        for op in workloads.build(name, None, system_set, workdir)}
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            bad = {k: code for k, (code, _) in refs.items() if code != 0}
            if bad:
                print(f"{name}/{system_set}: nonzero exit codes {bad}", file=sys.stderr)
                return 1
            path = refs_path(name, system_set)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote {path.relative_to(HERE.parent)}: {len(refs)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
