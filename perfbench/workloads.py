"""The benchmark's four workloads.

Each workload is a fixed list of base systems (or theorem probes) and, per
base system, the operations a user runs on it.  The run seed relabels every
base system by a seeded permutation of its points (labels travel with their
points), writes it to a system file, and shuffles the order of the
operations.  Relabelling is an isometry, so every reported number and every
byte of output stays the same while point indices, enumeration order and
branch order change with the seed; that keeps the work per run comparable
across seeds and lets every run be checked against the outputs recorded in
``refs/``.

``theorem_check`` draws its own systems from its seed argument, so the probes
keep the acceptance gate's seeds and the run seed only orders them.

Two system sets exist: ``default`` (what the benchmark measures) and
``spare`` (other base systems and theorem seeds, with their own recorded
outputs, for checking a later claim on inputs nobody tuned against).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# Base generator seeds per set; every system is GeneratorSpec(n, seed).
SYSTEM_SEEDS = {"default": (3, 4, 5), "spare": (13, 14, 15)}
SHADOWING_SEEDS = {"default": (3, 4), "spare": (13, 14)}
# theorem_check seeds per set: 0 is the acceptance gate's own seed.
THEOREM_SEEDS = {"default": 0, "spare": 1}
# (item, trials, max_points): the gate's max_points, about a tenth of its trials.
THEOREM_PROBES = (("1", 8, 5), ("2", 30, 4), ("4", 20, 4), ("5", 20, 4), ("7", 40, 4))

# Certificates are built for every map of the certified ball; a ball larger
# than this means the workload no longer does what it was chosen for.
BALL_LIMIT = 64

WORKLOADS = ("profile-measure", "profile-point", "shadowing", "theorem-probes")
SYSTEM_SETS = tuple(SYSTEM_SEEDS)


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` returns (exit code, output text)."""

    key: str   # names the operation in the reference file
    kind: str  # how the output splits into checked units; see units()
    call: Callable[[], tuple[int, str]]


def units(kind: str, text: str) -> list:
    """The checked units of one output: profile rows, certificates or a report."""
    obj = json.loads(text)
    if kind == "rows":
        return obj["rows"]
    if kind == "certificates":
        return obj
    return [obj]


def compare(kind: str, ref: tuple[int, str] | None, code: int, text: str) -> tuple[int, int]:
    """(attempted, failed) units of one output against its reference.

    The reference is the exact output text, so an output whose units all
    match but whose bytes differ still counts one failure.
    """
    if ref is None:
        return 1, 1
    ref_code, ref_text = ref
    want = units(kind, ref_text)
    if code != ref_code:
        return len(want), len(want)
    try:
        got = units(kind, text)
    except (ValueError, KeyError, TypeError):
        return len(want), len(want)
    failed = sum(1 for i, u in enumerate(want) if i >= len(got) or got[i] != u)
    failed += max(0, len(got) - len(want))
    if failed == 0 and text != ref_text:
        failed = 1
    return max(len(want), len(got)), failed


def relabel(sysf, rng: random.Random):
    """The same system with its points in a seeded order; labels move along."""
    from mustab import EndoMap, Measure, SystemFile, validate_space

    space = sysf.space
    n = space.n
    perm = list(range(n))  # new index j holds old point perm[j]
    rng.shuffle(perm)
    inv = [0] * n
    for j, old in enumerate(perm):
        inv[old] = j
    new_space = validate_space(
        [space.labels[p] for p in perm],
        [[space.dist[p][q] for q in perm] for p in perm],
    )
    maps = {name: EndoMap(new_space, tuple(inv[m.table[p]] for p in perm))
            for name, m in sysf.maps.items()}
    measures = {name: Measure(new_space, tuple(mu.weights[p] for p in perm))
                for name, mu in sysf.measures.items()}
    return SystemFile(new_space, maps, measures, None)


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        import mustab.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = mustab.cli.main(argv)
        return code, out.getvalue()
    return call


def _certificates(path: str) -> Callable[[], tuple[int, str]]:
    """Build and verify a semiconjugacy certificate for every map of the
    certified ball, at every positive tolerance of the ``full`` grid."""

    def call() -> tuple[int, str]:
        import mustab

        sysf = mustab.load_system(path)
        f, mu = sysf.maps["f"], sysf.measures["full"]
        labels = f.space.labels
        e = mustab.default_expansivity_constant(f)
        out = []
        for eps in mustab.ThresholdGrid.epsilons(f.space, mu):
            if eps <= 0:
                continue
            delta = mustab.shadowing_delta(f, min(e, eps) / 8, mustab.MODE_WEAK, mu)
            certs = []
            for g in mustab.enumerate_perturbations(f, delta, budget=BALL_LIMIT):
                cert = mustab.build_semiconjugacy(f, g, mu, eps, e)
                result = mustab.verify_semiconjugacy(cert)
                certs.append({
                    "eps": str(eps),
                    "g": sorted([labels[x], labels[y]] for x, y in enumerate(g.table)),
                    "epsilon": str(cert.epsilon),
                    "delta": str(cert.delta),
                    "mass_defect": str(cert.mass_defect),
                    "domain": sorted(labels[x] for x in cert.domain),
                    "h": sorted([labels[x], labels[y]] for x, y in cert.h.entries),
                    "checks": [[c.name, c.passed] for c in cert.checks + result.checks],
                    "passed": cert.passed and result.passed,
                })
            out.extend(sorted(certs, key=lambda c: c["g"]))
        return 0, json.dumps(out, separators=(",", ":"))
    return call


def _theorem(item: str, trials: int, seed: int, max_points: int) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        import mustab

        report = mustab.theorem_check(item, trials=trials, seed=seed, max_points=max_points)
        text = json.dumps(dataclasses.asdict(report), indent=1, sort_keys=True)
        return (0 if report.passed else 1), text
    return call


def _system_file(n: int, base: int, seed: int | None, workdir: str) -> str:
    """Generate GeneratorSpec(n, base), relabel it for ``seed`` (None keeps
    the generator's order) and write it; returns the file path."""
    import mustab

    sysf = mustab.generate_system(mustab.GeneratorSpec(n=n, seed=base))
    if seed is not None:
        sysf = relabel(sysf, random.Random(f"relabel:{seed}:{n}:{base}"))
    path = os.path.join(workdir, f"n{n}-s{base}.json")
    mustab.save_system(sysf, path)
    return path


def build(workload: str, seed: int | None, system_set: str, workdir: str) -> list[Op]:
    """The operations of one pass.  ``seed`` None builds the unrelabelled,
    unshuffled pass that the reference outputs are recorded from."""
    ops: list[Op] = []
    if workload == "profile-measure":
        for base in SYSTEM_SEEDS[system_set]:
            path = _system_file(5, base, seed, workdir)
            for target in ("measure:full", "setvalued:full"):
                argv = ["stability-profile", path, "--target", target, "--json"]
                ops.append(Op(f"n5-s{base} {target}", "rows", _cli(argv)))
    elif workload == "profile-point":
        for base in SYSTEM_SEEDS[system_set]:
            path = _system_file(6, base, seed, workdir)
            argv = ["stability-profile", path, "--target", "point:p0", "--json"]
            ops.append(Op(f"n6-s{base} point:p0", "rows", _cli(argv)))
    elif workload == "shadowing":
        for base in SHADOWING_SEEDS[system_set]:
            path = _system_file(16, base, seed, workdir)
            argv = ["shadowing-profile", path, "--measure", "full", "--json"]
            ops.append(Op(f"n16-s{base} shadowing-profile", "rows", _cli(argv)))
            ops.append(Op(f"n16-s{base} certificates", "certificates", _certificates(path)))
    elif workload == "theorem-probes":
        tseed = THEOREM_SEEDS[system_set]
        for item, trials, max_points in THEOREM_PROBES:
            ops.append(Op(f"item {item} trials {trials} max_points {max_points} seed {tseed}",
                          "theorem", _theorem(item, trials, tseed, max_points)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed is not None:
        random.Random(f"order:{seed}").shuffle(ops)
    return ops


def inputs(workload: str, system_set: str) -> dict:
    """The seeds that fix a workload's inputs, for the result file."""
    if workload == "theorem-probes":
        return {"theorem_seed": THEOREM_SEEDS[system_set],
                "probes": [list(p) for p in THEOREM_PROBES]}
    seeds = SHADOWING_SEEDS if workload == "shadowing" else SYSTEM_SEEDS
    return {"generator_seeds": list(seeds[system_set])}
