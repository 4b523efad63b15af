"""Separation of orbit pairs and expansivity thresholds.

For a map f on a finite space, the orbit of a pair (x, y) under (f, f) is
eventually periodic, so the supremum of d(f^k x, f^k y) over all k is a
maximum attained within n^2 steps.  Everything expansivity-related reduces
to that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import EndoMap, FiniteMetricSpace, Measure, ThresholdGrid
from .errors import MismatchedSpace, SinglePoint


@dataclass(frozen=True)
class SeparationMatrix:
    space: FiniteMetricSpace
    sep: tuple[tuple[Fraction, ...], ...]

    def __getitem__(self, pair: tuple[int, int]) -> Fraction:
        return self.sep[pair[0]][pair[1]]


def separation_matrix(f: EndoMap) -> SeparationMatrix:
    """sep[x][y] = max over k >= 0 of d(f^k(x), f^k(y)).

    Each pair orbit is followed until it repeats; the pair state space has
    n^2 elements, so the loop below terminates within n^2 steps.  Memoised
    on the map.
    """
    sm = f._memo.get("separation_matrix")
    if sm is None:
        sm = f._memo["separation_matrix"] = _separation_matrix(f)
    return sm


def _separation_matrix(f: EndoMap) -> SeparationMatrix:
    space = f.space
    n = space.n
    dist = space.dist
    table = f.table
    sep = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            a, b = x, y
            best = dist[a][b]
            seen = {(a, b)}
            while True:
                a, b = table[a], table[b]
                if (a, b) in seen:
                    break
                seen.add((a, b))
                d = dist[a][b]
                if d > best:
                    best = d
            sep[x][y] = best
            sep[y][x] = best
    return SeparationMatrix(space, tuple(tuple(row) for row in sep))


def expansivity_threshold(f: EndoMap) -> Fraction:
    """The least pairwise separation s*.

    f is expansive with constant e exactly when e < s*: below s*, every pair
    of distinct points is eventually separated beyond e.
    """
    if f.space.n < 2:
        raise SinglePoint("separation needs at least two points")
    sm = separation_matrix(f)
    n = f.space.n
    return min(sm.sep[x][y] for x in range(n) for y in range(x + 1, n))


def default_expansivity_constant(f: EndoMap) -> Fraction:
    """Largest delta-grid value strictly below the threshold s*.

    Always exists: d_min/2 sits below d_min <= s*.
    """
    s_star = expansivity_threshold(f)
    candidates = [v for v in ThresholdGrid.deltas(f.space) if v < s_star]
    return candidates[-1]


def uniform_expansivity_steps(f: EndoMap, e: Fraction, spread: Fraction) -> int | None:
    """Least N such that staying e-close for N steps forces d(x, y) < spread.

    Concretely: returns the least N with
        d(f^k(x), f^k(y)) <= e for all 0 <= k <= N   implies   d(x, y) < spread.
    Returns None when some pair with d(x, y) >= spread is never separated
    beyond e (so no horizon works).
    """
    space = f.space
    n = space.n
    dist = space.dist
    table = f.table
    needed = 0
    for x in range(n):
        for y in range(x + 1, n):
            if dist[x][y] < spread:
                continue
            # This pair must be separated beyond e by step N.
            a, b = x, y
            k = 0
            seen = {(a, b)}
            first_escape = None
            while True:
                if dist[a][b] > e:
                    first_escape = k
                    break
                a, b = table[a], table[b]
                k += 1
                if (a, b) in seen:
                    break
                seen.add((a, b))
            if first_escape is None:
                return None
            if first_escape > needed:
                needed = first_escape
    return needed


def is_measure_expansive(f: EndoMap, e: Fraction, mu: Measure) -> bool:
    """Whether every point's dynamical e-ball {y : sep(x, y) <= e} is mu-null.

    On a finite space this is always False for e >= 0: any atom a of mu has
    sep(a, a) = 0 <= e, so its own dynamical ball already carries mass.
    The function exists so the impossibility is checkable, not assumed.
    """
    return measure_expansivity_witness(f, e, mu) is None


def measure_expansivity_witness(f: EndoMap, e: Fraction, mu: Measure) -> int | None:
    """A point whose dynamical e-ball has positive mass, or None.

    For e >= 0 the least-index atom of mu is always a witness.
    """
    if f.space != mu.space:
        raise MismatchedSpace("map and measure live over different spaces")
    sm = separation_matrix(f)
    n = f.space.n
    for x in range(n):
        ball_mass = sum(
            (mu.weights[y] for y in range(n) if sm.sep[x][y] <= e), Fraction(0)
        )
        if ball_mass > 0:
            return x
    return None
