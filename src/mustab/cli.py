"""Command-line front end.

Exit codes are part of the contract:

* 0 — command ran and every checked property held
* 1 — a counterexample or failed verification was found
* 2 — bad arguments or malformed input
* 3 — the perturbation budget was exceeded and sampling was not allowed

``MUSTAB_BUDGET`` overrides the default enumeration budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .core import (
    DEFAULT_BUDGET,
    ThresholdGrid,
    exact,
    render_rational,
)
from .conjugacy import build_semiconjugacy, verify_semiconjugacy
from .errors import (
    BudgetExceeded,
    MustabError,
    ShadowMissing,
    SoundnessError,
    UsageError,
)
from .expansivity import (
    default_expansivity_constant,
    expansivity_threshold,
    is_measure_expansive,
    separation_matrix,
    uniform_expansivity_steps,
)
from .shadowing import MODE_ALL, MODE_FULL, MODE_WEAK, SHADOWING_MODES, shadowing_delta
from .stability import (
    MeasureTarget,
    PointTarget,
    SetValuedTarget,
    stability_profile,
)
from .systems import GeneratorSpec, SystemFile, generate_system, load_system, render_system
from .theorems import THEOREM_ITEMS, theorem_check


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, Fraction):
        return render_rational(x)
    return str(x)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(out)


def _budget(flag: int | None) -> int:
    """The enumeration budget: --budget, else MUSTAB_BUDGET, else the default."""
    if flag is not None:
        value, source = flag, "--budget"
    else:
        raw = os.environ.get("MUSTAB_BUDGET")
        if raw is None:
            return DEFAULT_BUDGET
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"MUSTAB_BUDGET={raw!r} is not an integer") from None
        source = "MUSTAB_BUDGET"
    if value < 1:
        raise UsageError(f"{source} must be positive")
    return value


def _fraction_arg(text: str) -> Fraction:
    try:
        return exact(text)
    except (ValueError, ZeroDivisionError, TypeError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational like 3/4") from None


def _pick_map(sysf: SystemFile, name: str | None):
    if name is not None:
        return name, sysf.map(name)
    if "f" in sysf.maps:
        return "f", sysf.maps["f"]
    if len(sysf.maps) == 1:
        name = next(iter(sysf.maps))
        return name, sysf.maps[name]
    raise UsageError("several maps in file; pick one with --map")


def _pick_measure(sysf: SystemFile, name: str | None, required: bool = False):
    if name is not None:
        return name, sysf.measure(name)
    if len(sysf.measures) == 1:
        name = next(iter(sysf.measures))
        return name, sysf.measures[name]
    if required:
        raise UsageError("several measures in file; pick one with --measure")
    return None, None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    sysf = load_system(args.file)
    space = sysf.space
    if args.json:
        print(json.dumps({
            "valid": True,
            "points": space.n,
            "distance_values": [render_rational(v) for v in space.distance_values],
            "maps": sorted(sysf.maps),
            "measures": sorted(sysf.measures),
        }, indent=2))
    else:
        print(
            f"ok: {space.n} points, {len(space.distance_values)} distinct distances, "
            f"maps [{', '.join(sorted(sysf.maps))}], "
            f"measures [{', '.join(sorted(sysf.measures))}]"
        )
    return 0


def _cmd_analyze(args) -> int:
    sysf = load_system(args.file)
    space = sysf.space
    names = [args.map] if args.map else sorted(sysf.maps)
    if space.n < 2:
        if args.json:
            print(json.dumps({"points": 1, "maps": {}}, indent=2))
        else:
            print("space: 1 point; separation analysis needs at least 2")
        return 0
    payload: dict = {
        "points": space.n,
        "d_min": render_rational(space.d_min),
        "diameter": render_rational(space.diameter),
        "maps": {},
    }
    for name in names:
        f = sysf.map(name)
        sep = expansivity_threshold(f)
        e = default_expansivity_constant(f)
        steps = uniform_expansivity_steps(f, e, space.d_min)
        sepm = separation_matrix(f)
        entry = {
            "bijective": f.is_bijective(),
            "separation": render_rational(sep),
            "expansivity_constant": render_rational(e),
            "uniform_steps": steps,
            "separation_matrix": [
                [render_rational(v) for v in row] for row in sepm.sep
            ],
            "measure_expansive": {},
        }
        for mname in sorted(sysf.measures):
            entry["measure_expansive"][mname] = is_measure_expansive(
                f, e, sysf.measures[mname]
            )
        payload["maps"][name] = entry
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"space: {space.n} points, d_min {_fmt(space.d_min)}, "
          f"diameter {_fmt(space.diameter)}")
    for name, entry in payload["maps"].items():
        print(f"map {name}: bijective={entry['bijective']} "
              f"separation={entry['separation']} "
              f"expansivity_constant={entry['expansivity_constant']} "
              f"uniform_steps={_fmt(entry['uniform_steps'])}")
        print("separation matrix:")
        print(_table(
            [""] + list(space.labels),
            [[space.labels[i]] + list(row)
             for i, row in enumerate(entry["separation_matrix"])],
        ))
        for mname, flag in entry["measure_expansive"].items():
            print(f"  measure-expansive under {mname}: {flag}")
    return 0


def _cmd_shadowing_profile(args) -> int:
    sysf = load_system(args.file)
    fname, f = _pick_map(sysf, args.map)
    mname, mu = _pick_measure(sysf, args.measure)
    if args.mode:
        modes = [args.mode]
        if args.mode != MODE_ALL and mu is None:
            raise UsageError(f"mode {args.mode!r} needs a measure (--measure)")
    else:
        modes = [MODE_ALL] + ([MODE_FULL, MODE_WEAK] if mu is not None else [])
    grid = ThresholdGrid.epsilons(f.space, mu)
    rows = []
    for eps in grid:
        for mode in modes:
            delta = shadowing_delta(f, eps, mode, mu)
            rows.append({"eps": eps, "mode": mode, "delta": delta})
    if args.json:
        print(json.dumps({
            "map": fname,
            "measure": mname,
            "rows": [
                {"eps": render_rational(r["eps"]), "mode": r["mode"],
                 "delta": render_rational(r["delta"])}
                for r in rows
            ],
        }, indent=2))
        return 0
    print(_table(
        ["eps", "mode", "delta"],
        [[_fmt(r["eps"]), r["mode"], _fmt(r["delta"])] for r in rows],
    ))
    return 0


def _parse_target(sysf: SystemFile, spec: str):
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise UsageError("target must look like point:LABEL, measure:NAME "
                         "or setvalued:NAME")
    if kind == "point":
        try:
            idx = sysf.space.index(rest)
        except KeyError:
            raise UsageError(f"no point labelled {rest!r}") from None
        return PointTarget(idx)
    if kind == "measure":
        return MeasureTarget(sysf.measure(rest))
    if kind == "setvalued":
        return SetValuedTarget(sysf.measure(rest))
    raise UsageError(f"unknown target kind {kind!r}")


def _cmd_stability_profile(args) -> int:
    sysf = load_system(args.file)
    fname, f = _pick_map(sysf, args.map)
    target = _parse_target(sysf, args.target)
    profile = stability_profile(
        f, target, budget=_budget(args.budget), sample=args.sample,
        seed=args.seed, sample_size=args.sample_size,
    )
    if args.json:
        print(json.dumps({
            "map": fname,
            "mode": profile.mode,
            "target": args.target,
            "rows": [
                {"eps": render_rational(r.eps),
                 "delta_star": None if r.delta_star is None
                 else render_rational(r.delta_star),
                 "exhaustive": r.exhaustive}
                for r in profile.rows
            ],
        }, indent=2))
        return 0
    rows = [
        [_fmt(r.eps), _fmt(r.delta_star), "yes" if r.exhaustive else "sampled"]
        for r in profile.rows
    ]
    print(f"stability profile ({profile.mode} mode, map {fname})")
    print(_table(["eps", "delta*", "exhaustive"], rows))
    return 0


def _cmd_semiconjugacy(args) -> int:
    sysf = load_system(args.file)
    fname, f = _pick_map(sysf, args.map)
    g = sysf.map(args.perturbed)
    _, mu = _pick_measure(sysf, args.measure, required=True)
    cert = build_semiconjugacy(f, g, mu, args.eps, args.expansivity)
    result = verify_semiconjugacy(cert)
    ok = cert.passed and result.passed
    labels = f.space.labels
    if args.json:
        print(json.dumps({
            "map": fname,
            "perturbed": args.perturbed,
            "eps_requested": render_rational(cert.eps_requested),
            "epsilon": render_rational(cert.epsilon),
            "delta": render_rational(cert.delta),
            "mass_defect": render_rational(cert.mass_defect),
            "domain": sorted(labels[x] for x in cert.domain),
            "h": {labels[x]: labels[y] for x, y in sorted(cert.h.entries)},
            "checks": [
                {"name": c.name, "passed": c.passed} for c in result.checks
            ],
            "passed": ok,
        }, indent=2))
        return 0 if ok else 1
    print(f"semiconjugacy {args.perturbed} -> {fname}: "
          f"delta={_fmt(cert.delta)} epsilon={_fmt(cert.epsilon)} "
          f"mass_defect={_fmt(cert.mass_defect)}")
    print("domain: " + " ".join(sorted(labels[x] for x in cert.domain)))
    for x, y in sorted(cert.h.entries):
        print(f"  h({labels[x]}) = {labels[y]}")
    for c in result.checks:
        print(f"check {c.name}: {'pass' if c.passed else 'FAIL'}")
    return 0 if ok else 1


def _cmd_check_theorem(args) -> int:
    item = args.item if args.item is not None else args.item_flag
    if item is None:
        raise UsageError("pick a theorem item (positional or --item)")
    report = theorem_check(
        item, trials=args.trials, seed=args.seed,
        max_points=args.max_points, budget=_budget(args.budget),
    )
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2))
        return 0 if report.passed else 1
    verdict = "holds" if report.passed else "REFUTED"
    print(f"item {report.item}: {verdict} "
          f"({report.systems} systems, {report.checks} checks)")
    for note in report.notes:
        print(f"note: {note}")
    if report.counterexample is not None:
        print("counterexample:")
        print(json.dumps(report.counterexample, indent=2))
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(
        n=args.points, seed=args.seed, model=args.model,
        coordinate_range=args.coordinate_range,
    )
    sysf = generate_system(spec)
    text = render_system(sysf)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as ex:
            raise UsageError(f"cannot write {args.out}: {ex}") from None
        print(f"wrote {args.out}: {sysf.space.n} points, "
              f"{len(sysf.maps)} map(s), {len(sysf.measures)} measure(s)")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mustab",
        description="exact stability workbench for maps on finite metric spaces",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a system file against every axiom")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="report separation and expansivity data")
    p.add_argument("file")
    p.add_argument("--map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("shadowing-profile",
                       help="largest shadowing delta per tolerance and mode")
    p.add_argument("file")
    p.add_argument("--map")
    p.add_argument("--measure")
    p.add_argument("--mode", choices=SHADOWING_MODES + ("mu",))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_shadowing_profile)

    p = sub.add_parser("stability-profile",
                       help="largest stable perturbation radius per tolerance")
    p.add_argument("file")
    p.add_argument("--map")
    p.add_argument("--target", "--mode", dest="target", required=True,
                   help="point:LABEL, measure:NAME or setvalued:NAME")
    p.add_argument("--budget", type=int)
    p.add_argument("--sample", action="store_true",
                   help="fall back to sampling when the ball exceeds the budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-size", type=int, default=500)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stability_profile)

    p = sub.add_parser("semiconjugacy",
                       help="build and verify a witness map for a perturbation")
    p.add_argument("file")
    p.add_argument("--map", "--f", dest="map")
    p.add_argument("--perturbed", "--g", dest="perturbed", required=True)
    p.add_argument("--measure")
    p.add_argument("--eps", type=_fraction_arg, required=True)
    p.add_argument("--expansivity", "--e", dest="expansivity", type=_fraction_arg)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_semiconjugacy)

    p = sub.add_parser("check-theorem",
                       help="probe a transfer principle on generated systems")
    p.add_argument("item", nargs="?", choices=THEOREM_ITEMS)
    p.add_argument("--item", dest="item_flag", choices=THEOREM_ITEMS)
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-points", type=int, default=4)
    p.add_argument("--budget", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_theorem)

    p = sub.add_parser("gen", help="generate a reproducible random system")
    p.add_argument("--points", "-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--model", default="l1-lattice")
    p.add_argument("--coordinate-range", type=int, default=8)
    p.add_argument("--out", "-o")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        return 3
    except (SoundnessError, ShadowMissing) as ex:
        print(f"verification failed: {ex}", file=sys.stderr)
        return 1
    except MustabError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
