"""Finite metric spaces with exact rational distances, maps on them, and
rational probability measures.

Everything here is exact: distances, weights and thresholds are
``fractions.Fraction`` values, never floats; for the searches a space also
keeps its distances as ints scaled by their common denominator.  On a finite
space every map is continuous and every subset is closed, so the usual
topological definitions collapse to finite combinatorics; this module
supplies the combinatorial primitives the rest of the package builds on.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    BudgetExceeded,
    DuplicateLabel,
    MismatchedSpace,
    NonSymmetric,
    NonzeroDiagonal,
    NotAbsolutelyContinuous,
    NotBijective,
    OutOfRange,
    TriangleViolation,
    ZeroOffDiagonal,
)

#: Default cap on how many perturbed maps an enumeration may visit.
DEFAULT_BUDGET = 10**6

RationalLike = Union[Fraction, int, str]


def exact(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts Fractions, ints and strings like ``"3/4"`` or ``"2"``.  Floats
    are rejected: silent binary rounding has no place in an exact workbench.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def render_rational(value: Fraction) -> str:
    """Inverse of :func:`exact` for serialization: ``7/2`` or ``3``."""
    return str(value)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A validated finite metric space: labels plus an exact distance matrix."""

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown point label {label!r}") from None

    @cached_property
    def distance_values(self) -> tuple[Fraction, ...]:
        """Distinct positive distances, sorted ascending."""
        vals = {self.dist[i][j] for i in range(self.n) for j in range(i + 1, self.n)}
        return tuple(sorted(vals))

    @cached_property
    def distance_ranks(self) -> tuple[tuple[int, ...], ...]:
        """rank[i][j]: the index of dist[i][j] in (0,) + distance_values.

        dist[i][j] <= radius exactly when rank[i][j] <= radius_rank(radius),
        so radius tests become integer comparisons.
        """
        rank = {v: r for r, v in enumerate((Fraction(0),) + self.distance_values)}
        return tuple(tuple(rank[d] for d in row) for row in self.dist)

    @cached_property
    def scale(self) -> int:
        """The least common denominator of the distances."""
        return lcm(*(d.denominator for row in self.dist for d in row))

    @cached_property
    def scaled_dist(self) -> tuple[tuple[int, ...], ...]:
        """dist times ``scale``: the same order and sums, on ints."""
        s = self.scale
        return tuple(tuple(d.numerator * (s // d.denominator) for d in row) for row in self.dist)

    @cached_property
    def nearest_first(self) -> tuple[tuple[int, ...], ...]:
        """Per point y, every point by distance from y, ties by index."""
        n = self.n
        return tuple(
            tuple(sorted(range(n), key=lambda c: (self.distance_ranks[c][y], c))) for y in range(n)
        )

    def radius_rank(self, radius: Fraction) -> int:
        """The largest index into (0,) + distance_values of a value <= radius.

        -1 for a negative radius, which no distance satisfies.
        """
        return bisect_right(self.distance_values, radius) if radius >= 0 else -1

    @cached_property
    def d_min(self) -> Fraction:
        """Least positive distance; the resolution of the space."""
        return self.distance_values[0]

    @cached_property
    def diameter(self) -> Fraction:
        return self.distance_values[-1]

    @cached_property
    def _ball_cache(self) -> dict[Fraction, tuple[int, ...]]:
        return {}

    def ball_masks(self, radius: Fraction) -> tuple[int, ...]:
        """Bitmask per center of the closed ball of ``radius`` around it."""
        cached = self._ball_cache.get(radius)
        if cached is not None:
            return cached
        r = self.radius_rank(radius)
        result = tuple(
            sum(1 << x for x, k in enumerate(row) if k <= r) for row in self.distance_ranks
        )
        self._ball_cache[radius] = result
        return result

    def ball(self, center: int, radius: Fraction) -> frozenset[int]:
        """Closed ball as a point set."""
        row = self.dist[center]
        return frozenset(x for x in range(self.n) if row[x] <= radius)


def validate_space(labels: Sequence[str], dist: Sequence[Sequence[RationalLike]]) -> FiniteMetricSpace:
    """Check every metric axiom and return the validated space.

    Raises a :class:`~mustab.errors.SpaceValidationError` subclass naming the
    first violated axiom together with witness indices.  The triangle scan is
    lexicographic over (i, j, k), testing dist[i][j] <= dist[i][k] + dist[k][j].
    """
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    if n == 0:
        raise ValueError("a metric space needs at least one point")
    seen: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if lab in seen:
            raise DuplicateLabel(lab, seen[lab], i)
        seen[lab] = i
    if len(dist) != n or any(len(row) != n for row in dist):
        raise ValueError(f"distance matrix must be {n}x{n}")
    d = tuple(tuple(exact(v) for v in row) for row in dist)
    for i in range(n):
        for j in range(n):
            if d[i][j] < 0:
                raise ValueError(f"dist[{i}][{j}] is negative")
    for i in range(n):
        if d[i][i] != 0:
            raise NonzeroDiagonal(i)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise NonSymmetric(i, j)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] == 0:
                raise ZeroOffDiagonal(i, j)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                if d[i][j] > d[i][k] + d[k][j]:
                    raise TriangleViolation(i, j, k)
    return FiniteMetricSpace(labels, d)


@dataclass(frozen=True)
class EndoMap:
    """A total self-map of a finite metric space, stored as a lookup table."""

    space: FiniteMetricSpace
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.space.n
        if len(self.table) != n:
            raise ValueError(f"map table must have {n} entries")
        for i, v in enumerate(self.table):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ValueError(f"table[{i}] = {v!r} is not a point index")

    @cached_property
    def _memo(self) -> dict:
        """Results of pure functions of this map, keyed by function and arguments.

        Sound because the map is frozen: equal fields give equal results.
        """
        return {}

    def __call__(self, i: int) -> int:
        return self.table[i]

    def iterate(self, i: int, k: int) -> int:
        for _ in range(k):
            i = self.table[i]
        return i

    def is_bijective(self) -> bool:
        return len(set(self.table)) == self.space.n

    def inverse(self) -> "EndoMap":
        if not self.is_bijective():
            raise NotBijective("map is not a bijection")
        inv = [0] * self.space.n
        for i, v in enumerate(self.table):
            inv[v] = i
        return EndoMap(self.space, tuple(inv))

    def compose(self, other: "EndoMap") -> "EndoMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if self.space != other.space:
            raise MismatchedSpace("cannot compose maps over different spaces")
        return EndoMap(self.space, tuple(self.table[v] for v in other.table))

    @classmethod
    def identity(cls, space: FiniteMetricSpace) -> "EndoMap":
        return cls(space, tuple(range(space.n)))


@dataclass(frozen=True)
class Measure:
    """A rational probability measure given by pointwise weights."""

    space: FiniteMetricSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        n = self.space.n
        if len(self.weights) != n:
            raise ValueError(f"measure needs {n} weights")
        total = Fraction(0)
        for i, w in enumerate(self.weights):
            if not isinstance(w, Fraction):
                raise TypeError(f"weights[{i}] is not a Fraction; use Measure.from_weights")
            if w < 0:
                raise ValueError(f"weights[{i}] is negative")
            total += w
        if total != 1:
            raise ValueError(f"weights sum to {total}, expected 1")

    @classmethod
    def from_weights(cls, space: FiniteMetricSpace, weights: Iterable[RationalLike]) -> "Measure":
        return cls(space, tuple(exact(w) for w in weights))

    @classmethod
    def dirac(cls, space: FiniteMetricSpace, point: int) -> "Measure":
        w = [Fraction(0)] * space.n
        w[point] = Fraction(1)
        return cls(space, tuple(w))

    @classmethod
    def uniform(cls, space: FiniteMetricSpace) -> "Measure":
        share = Fraction(1, space.n)
        return cls(space, tuple(share for _ in range(space.n)))

    def mass(self, points: Iterable[int]) -> Fraction:
        return sum((self.weights[p] for p in points), Fraction(0))


def atoms(mu: Measure) -> frozenset[int]:
    """Points of positive mass.  On a finite space these carry all the mass."""
    return frozenset(i for i, w in enumerate(mu.weights) if w > 0)


def c0_distance(f: EndoMap, g: EndoMap) -> Fraction:
    """Uniform distance between two maps: the largest pointwise displacement."""
    if f.space != g.space:
        raise MismatchedSpace("maps live over different spaces")
    d = f.space.dist
    return max(d[a][b] for a, b in zip(f.table, g.table))


def _ball_choices(f: EndoMap, delta: Fraction) -> list[tuple[int, ...]]:
    """Per point x, the points within ``delta`` of f(x), ascending.

    The delta-ball around f is the product of these tuples, in this order.
    """
    space = f.space
    r = space.radius_rank(delta)
    return [tuple(x for x, k in enumerate(space.distance_ranks[v]) if k <= r) for v in f.table]


def perturbation_count(f: EndoMap, delta: Fraction) -> int:
    """How many maps lie within uniform distance ``delta`` of ``f``."""
    if delta < 0:
        raise OutOfRange("delta must be >= 0")
    count = 1
    for choices in _ball_choices(f, delta):
        count *= len(choices)
    return count


def enumerate_perturbations(
    f: EndoMap, delta: Fraction, budget: int = DEFAULT_BUDGET
) -> Iterator[EndoMap]:
    """Yield every map g with c0_distance(f, g) <= delta.

    The order is deterministic: lexicographic in the point index, then in the
    candidate target index.  Raises :class:`BudgetExceeded` up front when the
    exact count is larger than ``budget``.
    """
    count = perturbation_count(f, delta)
    if count > budget:
        raise BudgetExceeded(count, budget)
    space = f.space
    choices = _ball_choices(f, delta)

    def _gen() -> Iterator[EndoMap]:
        for table in product(*choices):
            yield EndoMap(space, table)

    return _gen()


def sample_perturbations(
    f: EndoMap, delta: Fraction, count: int, seed: int
) -> list[EndoMap]:
    """Draw ``count`` maps uniformly (with replacement) from the delta-ball.

    Used when exhaustive enumeration would blow the budget; downstream
    verdicts based on a sample are only ever "no counterexample found".
    """
    space = f.space
    choices = _ball_choices(f, delta)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(EndoMap(space, tuple(rng.choice(c) for c in choices)))
    return out


def pushforward(bijection: EndoMap, mu: Measure) -> Measure:
    """Transport ``mu`` along a bijection: result(H(x)) = mu(x)."""
    if bijection.space != mu.space:
        raise MismatchedSpace("map and measure live over different spaces")
    if not bijection.is_bijective():
        raise NotBijective("pushforward needs a bijection")
    w = [Fraction(0)] * mu.space.n
    for i, v in enumerate(bijection.table):
        w[v] = mu.weights[i]
    return Measure(mu.space, tuple(w))


def is_abs_continuous(mu: Measure, nu: Measure) -> bool:
    """True iff every nu-null set is mu-null, i.e. support(mu) <= support(nu)."""
    return abs_continuity_witness(mu, nu) is None


def abs_continuity_witness(mu: Measure, nu: Measure) -> int | None:
    """Least-index point with mu-mass but no nu-mass; None when mu << nu."""
    if mu.space != nu.space:
        raise MismatchedSpace("measures live over different spaces")
    for p in range(mu.space.n):
        if mu.weights[p] > 0 and nu.weights[p] == 0:
            return p
    return None


def convex_combine(t: RationalLike, mu: Measure, nu: Measure) -> Measure:
    """Exact mixture t*mu + (1-t)*nu for t in [0, 1]."""
    if mu.space != nu.space:
        raise MismatchedSpace("measures live over different spaces")
    t = exact(t)
    if not 0 <= t <= 1:
        raise OutOfRange(f"t = {t} is outside [0, 1]")
    return Measure(
        mu.space,
        tuple(t * a + (1 - t) * b for a, b in zip(mu.weights, nu.weights)),
    )


def ac_threshold(mu: Measure, nu: Measure, eps: RationalLike) -> Fraction | None:
    """Smallest nu-mass of a set whose mu-mass exceeds ``eps``.

    Any eps' below the returned value then satisfies: nu(B) <= eps' implies
    mu(B) <= eps.  Returns None (read: +infinity) when no subset has
    mu-mass above ``eps``, which happens exactly when eps >= 1.

    Requires mu << nu.  Computed by branch and bound over subsets of the
    atoms of mu: adding a mu-null point can only raise the nu-mass, and once
    mu(B) > eps holds, supersets are never better.
    """
    eps = exact(eps)
    if eps < 0:
        raise OutOfRange("eps must be >= 0")
    witness = abs_continuity_witness(mu, nu)
    if witness is not None:
        raise NotAbsolutelyContinuous(witness)
    atom_list = sorted(atoms(mu))
    best: Fraction | None = None

    def descend(idx: int, mu_acc: Fraction, nu_acc: Fraction) -> None:
        nonlocal best
        if best is not None and nu_acc >= best:
            return
        if mu_acc > eps:
            best = nu_acc
            return
        if idx == len(atom_list):
            return
        p = atom_list[idx]
        descend(idx + 1, mu_acc + mu.weights[p], nu_acc + nu.weights[p])
        descend(idx + 1, mu_acc, nu_acc)

    descend(0, Fraction(0), Fraction(0))
    return best


def subset_masses(mu: Measure) -> tuple[Fraction, ...]:
    """Every value mu can assign to a subset, sorted ascending.

    Built by the classic sum-set accumulation; duplicates collapse, so the
    result is usually far smaller than 2^n.
    """
    sums = {Fraction(0)}
    for w in mu.weights:
        if w > 0:
            sums |= {s + w for s in sums}
    return tuple(sorted(sums))


@dataclass(frozen=True)
class ThresholdGrid:
    """The finitely many thresholds at which any predicate here can flip.

    Distances change ball membership; subset masses change measure
    comparisons; half the minimum distance represents "below every positive
    distance", where only the unperturbed map survives.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                raise ValueError("grid values must be strictly increasing")

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def top(self) -> Fraction:
        return self.values[-1]

    @classmethod
    def deltas(cls, space: FiniteMetricSpace) -> "ThresholdGrid":
        """Grid for perturbation radii: positive distances plus d_min/2.

        A one-point space has no positive distances; its only radius is 0.
        """
        if not space.distance_values:
            return cls((Fraction(0),))
        vals = set(space.distance_values)
        vals.add(space.d_min / 2)
        return cls(tuple(sorted(vals)))

    @classmethod
    def epsilons(cls, space: FiniteMetricSpace, mu: Measure | None = None) -> "ThresholdGrid":
        """Grid for tolerances tied to ``mu``: distances, masses, d_min/2.

        Without a measure only the metric thresholds are relevant.
        """
        vals = set(space.distance_values)
        if vals:
            vals.add(space.d_min / 2)
        else:
            vals.add(Fraction(0))
        if mu is not None:
            if space != mu.space:
                raise MismatchedSpace("grid requested for a measure over another space")
            vals.update(subset_masses(mu))
        return cls(tuple(sorted(vals)))
