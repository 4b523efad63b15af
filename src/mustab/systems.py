"""Reading, writing and generating whole systems.

A system file bundles one finite metric space with named self-maps and named
measures.  The JSON layout is fixed so that rendering is byte-deterministic:

    {
      "points":   ["p0", "p1", ...],
      "metric":   [["0", "3/2", ...], ...],       exact rationals as strings
      "maps":     {"f": [1, 0, ...], ...},        tables of point indices
      "measures": {"full": ["1/2", ...], ...},
      "generator": {...}                          optional provenance block
    }

Floats are rejected everywhere; "0.5" the JSON number never round-trips, so
rationals travel as strings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import EndoMap, FiniteMetricSpace, Measure, render_rational, validate_space
from .errors import MissingMeasure, RangeTooSmall, UsageError

GENERATOR_MODELS = ("l1-lattice", "explicit")

#: Identifies the sampling algorithm so files stay reproducible even if the
#: default generator ever changes.
GENERATOR_ALGORITHM = "mt19937/sample-cells-v1"


@dataclass(frozen=True)
class SystemFile:
    """One space plus its named maps and measures, as stored on disk."""

    space: FiniteMetricSpace
    maps: dict[str, EndoMap] = field(default_factory=dict)
    measures: dict[str, Measure] = field(default_factory=dict)
    generator: dict | None = None

    def map(self, name: str) -> EndoMap:
        try:
            return self.maps[name]
        except KeyError:
            raise UsageError(
                f"no map named {name!r}; available: {', '.join(sorted(self.maps)) or 'none'}"
            ) from None

    def measure(self, name: str) -> Measure:
        try:
            return self.measures[name]
        except KeyError:
            raise MissingMeasure(
                f"no measure named {name!r}; available: "
                f"{', '.join(sorted(self.measures)) or 'none'}"
            ) from None


def parse_system(text: str) -> SystemFile:
    """Parse and fully validate a system file; raises UsageError or a
    metric-axiom error naming the first problem found."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as ex:
        raise UsageError(f"not valid JSON: {ex}") from None
    except RecursionError:
        raise UsageError("not valid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise UsageError("top level must be a JSON object")
    for key in ("points", "metric", "maps", "measures"):
        if key not in obj:
            raise UsageError(f"missing required key {key!r}")

    points = obj["points"]
    if (not isinstance(points, list) or not points
            or not all(isinstance(p, str) for p in points)):
        raise UsageError('"points" must be a nonempty list of strings')
    metric = obj["metric"]
    if not isinstance(metric, list) or not all(isinstance(r, list) for r in metric):
        raise UsageError('"metric" must be a list of rows')
    for row in metric:
        for v in row:
            if isinstance(v, float):
                raise UsageError(
                    f"metric entry {v!r} is a float; write rationals as strings"
                )
    try:
        space = validate_space(points, metric)
    except (ValueError, TypeError, ZeroDivisionError) as ex:
        raise UsageError(f"bad metric: {ex}") from None

    maps_obj = obj["maps"]
    if not isinstance(maps_obj, dict):
        raise UsageError('"maps" must be an object')
    maps: dict[str, EndoMap] = {}
    for name, table in maps_obj.items():
        if (not isinstance(table, list)
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in table)):
            raise UsageError(f'map "{name}" must be a list of point indices')
        try:
            maps[name] = EndoMap(space, tuple(table))
        except ValueError as ex:
            raise UsageError(f'map "{name}": {ex}') from None

    meas_obj = obj["measures"]
    if not isinstance(meas_obj, dict):
        raise UsageError('"measures" must be an object')
    measures: dict[str, Measure] = {}
    for name, weights in meas_obj.items():
        if not isinstance(weights, list):
            raise UsageError(f'measure "{name}" must be a list of weights')
        for v in weights:
            if isinstance(v, float):
                raise UsageError(
                    f'measure "{name}" has float weight {v!r}; use strings'
                )
        try:
            measures[name] = Measure.from_weights(space, weights)
        except (ValueError, TypeError, ZeroDivisionError) as ex:
            raise UsageError(f'measure "{name}": {ex}') from None

    generator = obj.get("generator")
    if generator is not None and not isinstance(generator, dict):
        raise UsageError('"generator" must be an object when present')
    return SystemFile(space, maps, measures, generator)


def render_system(sysf: SystemFile) -> str:
    """Serialize with a fixed field order; byte-identical for equal inputs."""
    obj: dict = {
        "points": list(sysf.space.labels),
        "metric": [
            [render_rational(v) for v in row] for row in sysf.space.dist
        ],
        "maps": {name: list(m.table) for name, m in sysf.maps.items()},
        "measures": {
            name: [render_rational(w) for w in m.weights]
            for name, m in sysf.measures.items()
        },
    }
    if sysf.generator is not None:
        obj["generator"] = sysf.generator
    return json.dumps(obj, indent=2) + "\n"


def load_system(path: str) -> SystemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise UsageError(f"cannot read {path}: {ex}") from None
    return parse_system(text)


def save_system(sysf: SystemFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_system(sysf))


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for a random system: same spec, same bytes."""

    n: int
    seed: int
    model: str = "l1-lattice"
    coordinate_range: int = 8


def generate_system(spec: GeneratorSpec) -> SystemFile:
    """Build a system from ``spec``.

    ``l1-lattice`` samples distinct cells of a coordinate_range-square grid
    and takes taxicab distances, which satisfy the triangle inequality by
    construction; a random self-map "f", a point mass "dirac" and a
    full-support measure "full" round it out.  ``explicit`` is the
    de-randomized variant: the first n cells in row-major order, the
    identity map, and the same two measure shapes pinned to point 0.
    """
    if spec.n < 1:
        raise UsageError("need at least 1 point to generate a system")
    if spec.model not in GENERATOR_MODELS:
        raise UsageError(
            f"unknown model {spec.model!r}; available: {', '.join(GENERATOR_MODELS)}"
        )
    side = spec.coordinate_range
    if side < 1 or side * side < spec.n:
        raise RangeTooSmall(
            f"a {side}x{side} grid cannot hold {spec.n} distinct points"
        )

    if spec.model == "l1-lattice":
        rng = random.Random(spec.seed)
        cells = rng.sample(range(side * side), spec.n)
    else:
        cells = list(range(spec.n))
        rng = None
    coords = [divmod(c, side) for c in cells]
    labels = tuple(f"p{i}" for i in range(spec.n))
    dist = [
        [
            Fraction(abs(a[0] - b[0]) + abs(a[1] - b[1]))
            for b in coords
        ]
        for a in coords
    ]
    space = validate_space(labels, dist)

    if rng is not None:
        ftab = tuple(rng.randrange(spec.n) for _ in range(spec.n))
        center = rng.randrange(spec.n)
        raw = [Fraction(rng.randint(1, 9)) for _ in range(spec.n)]
    else:
        ftab = tuple(range(spec.n))
        center = 0
        raw = [Fraction(1) for _ in range(spec.n)]
    total = sum(raw)
    f = EndoMap(space, ftab)
    measures = {
        "dirac": Measure.dirac(space, center),
        "full": Measure(space, tuple(w / total for w in raw)),
    }
    meta = {
        "model": spec.model,
        "n": spec.n,
        "seed": spec.seed,
        "coordinate_range": spec.coordinate_range,
        "algorithm": GENERATOR_ALGORITHM,
    }
    return SystemFile(space, {"f": f}, measures, meta)
