"""Span tracing around calls into mustab's public functions.

The tracer lives entirely in the benchmark: it replaces each listed function,
by object identity, in every ``mustab.*`` module namespace (so calls made
through ``from .x import y`` are caught too) and in the ``ThresholdGrid``
class, and puts the originals back on ``uninstall``.  Spans stay in memory
until the run ends.

Per-element accessors (``exact``, ``render_rational``, ``ball_masks``,
``mass_of_mask``, ``EndoMap`` methods, ``orbit_lasso``, ``shadow_point``) are
left out on purpose: a wrapper costs about as much as one call of theirs, so
their time is charged to the caller's self time instead.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# function name in the mustab package -> metric prefix "<layer>.<name>".
# Layers take the names of the src/mustab/ modules; the grid helpers share one
# prefix because together they are "grid setup".
WRAPPED = {
    "validate_space": "core.validate_space",
    "perturbation_count": "core.perturbation_count",
    "enumerate_perturbations": "core.enumerate_perturbations",
    "sample_perturbations": "core.sample_perturbations",
    "subset_masses": "core.grid",
    "ThresholdGrid.deltas": "core.grid",
    "ThresholdGrid.epsilons": "core.grid",
    "c0_distance": "core.c0_distance",
    "pushforward": "core.pushforward",
    "convex_combine": "core.convex_combine",
    "ac_threshold": "core.ac_threshold",
    "is_abs_continuous": "core.is_abs_continuous",
    "abs_continuity_witness": "core.abs_continuity_witness",
    "atoms": "core.atoms",
    "separation_matrix": "expansivity.separation_matrix",
    "expansivity_threshold": "expansivity.expansivity_threshold",
    "default_expansivity_constant": "expansivity.default_expansivity_constant",
    "uniform_expansivity_steps": "expansivity.uniform_expansivity_steps",
    "is_measure_expansive": "expansivity.is_measure_expansive",
    "measure_expansivity_witness": "expansivity.measure_expansivity_witness",
    "shadowing_delta": "shadowing.shadowing_delta",
    "shadowable_start_set": "shadowing.shadowable_start_set",
    "lasso_oracle": "shadowing.lasso_oracle",
    "build_semiconjugacy": "conjugacy.build_semiconjugacy",
    "verify_semiconjugacy": "conjugacy.verify_semiconjugacy",
    "orbit_closure": "conjugacy.orbit_closure",
    "stability_profile": "stability.stability_profile",
    "stability_delta": "stability.stability_delta",
    "theorem_check": "stability.theorem_check",
    "setvalued_from_partial": "stability.setvalued_from_partial",
    "generate_system": "systems.generate_system",
    "parse_system": "systems.parse_system",
    "render_system": "systems.render_system",
    "load_system": "systems.load_system",
    "save_system": "systems.save_system",
    "cli.main": "cli.main",
}

# Prefixes whose distinct-argument share is reported: repeated identical calls
# are work a cache or a restructured caller could skip.
DISTINCT = ("core.grid", "shadowing.shadowing_delta",
            "shadowing.shadowable_start_set", "expansivity.separation_matrix")

LAYERS = ("core", "expansivity", "shadowing", "conjugacy", "stability",
          "systems", "cli")

# The span the benchmark opens around each operation; its self time is the
# benchmark's own work (output capture, serialisation).
BENCH_SPAN = "bench.op"

# Per-function metrics reported by the traced run.
REPORTED = ("stability.stability_profile", "stability.theorem_check",
            "core.grid", "core.perturbation_count",
            "shadowing.shadowing_delta", "shadowing.shadowable_start_set",
            "conjugacy.build_semiconjugacy", "conjugacy.verify_semiconjugacy",
            "expansivity.separation_matrix", "cli.main")

_PLAIN = (int, str, Fraction, float, bool, type(None))


class Tracer:
    """Records (name, start, end, parent, run id) spans and argument keys."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.keys: dict[str, list] = {p: [] for p in DISTINCT}
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._ids: dict[int, tuple] = {}
        self._values: dict = {}

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _token(self, value):
        """A hashable stand-in equal for equal arguments, hashed once per object."""
        if isinstance(value, _PLAIN):
            return value
        hit = self._ids.get(id(value))
        if hit is None:
            try:
                token = self._values.setdefault(value, len(self._values))
            except TypeError:
                token = ("unhashable", id(value))
            hit = (value, token)  # keeps value alive so its id stays unique
            self._ids[id(value)] = hit
        return hit[1]

    def _wrap(self, fn, prefix: str, label: str):
        tracer = self
        keys = self.keys.get(prefix)

        def traced(*args, **kwargs):
            if keys is not None:
                keys.append((label, tuple(tracer._token(a) for a in args),
                             tuple(sorted((k, tracer._token(v))
                                          for k, v in kwargs.items()))))
            idx = tracer.open(prefix)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        import mustab
        import mustab.cli

        originals = {}
        for label, prefix in WRAPPED.items():
            if label.startswith("ThresholdGrid."):
                attr = label.split(".", 1)[1]
                cm = vars(mustab.ThresholdGrid)[attr]
                self._saved.append((mustab.ThresholdGrid, attr, cm))
                setattr(mustab.ThresholdGrid, attr,
                        classmethod(self._wrap(cm.__func__, prefix, label)))
                continue
            owner = mustab.cli if label == "cli.main" else mustab
            fn = getattr(owner, label.rsplit(".", 1)[-1], None)
            if fn is None:
                raise LookupError(f"mustab has no public function {label!r}")
            originals[id(fn)] = (fn, self._wrap(fn, prefix, label))
        for modname, module in list(sys.modules.items()):
            if modname != "mustab" and not modname.startswith("mustab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def self_times(spans: list[list], lo: int = 0) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` is a slice starting at absolute index ``lo`` that holds whole
    trees, so every parent index in it is ``-1`` or at least ``lo``.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3] - lo] -= s[2] - s[1]
    return out


def summarize(spans: list[list], lo: int, keys: dict[str, list],
              scale: dict[int, float]) -> dict[str, float]:
    """Calls and self time per prefix and per layer over one stretch of spans.

    Self times are multiplied by ``scale[run id]``, the speed rescaling of
    the operation they belong to (see probe.py); ``self_total_s`` and
    ``root_total_s`` stay raw for the self-check.
    """
    selfs = self_times(spans, lo)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + st * scale.get(s[4], 1.0)
    out: dict[str, float] = {}
    for prefix in REPORTED:
        out[f"{prefix}.calls"] = calls.get(prefix, 0)
        out[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    for prefix in DISTINCT:
        made = keys.get(prefix, [])
        out[f"{prefix}.distinct_share"] = len(set(made)) / len(made) if made else 0.0
    deltas = calls.get("shadowing.shadowing_delta", 0)
    out["shadowing.start_sets_per_delta"] = (
        calls.get("shadowing.shadowable_start_set", 0) / deltas if deltas else 0.0)
    out["self_total_s"] = sum(selfs)
    out["root_total_s"] = sum(s[2] - s[1] for s in spans if s[3] < 0)
    return out
