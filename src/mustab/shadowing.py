"""Decidable shadowing on finite spaces.

A delta-pseudo-orbit is a walk in the graph with an edge x -> w whenever
d(f(x), w) <= delta.  A point x0 is an eps-shadowable start when every
infinite pseudo-orbit from x0 stays within eps of some true orbit.  Because
the space is finite this is decidable two independent ways:

* a subset automaton whose state is (last pseudo-orbit point, tube), where
  the tube is the image set f^k({candidates still alive}); the start fails
  exactly when an empty tube is reachable, and
* a depth-bounded search that tracks every candidate's current position
  individually and never collapses them into a set.

The two routes agree by construction only if the tube collapse is sound,
which is exactly what the cross-validation tests check.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .core import EndoMap, FiniteMetricSpace, Measure, ThresholdGrid
from .errors import (
    BoundTooSmallWarning,
    MismatchedSpace,
    MissingMeasure,
    OutOfRange,
    SoundnessError,
)

MODE_ALL = "all"
MODE_FULL = "full"
MODE_WEAK = "weak"
SHADOWING_MODES = (MODE_ALL, MODE_FULL, MODE_WEAK)


@dataclass(frozen=True)
class PseudoOrbitGraph:
    """Successor lists of the delta-pseudo-orbit relation."""

    space: FiniteMetricSpace
    delta: Fraction
    succ: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, f: EndoMap, delta: Fraction) -> "PseudoOrbitGraph":
        if delta < 0:
            raise OutOfRange("delta must be >= 0")
        space = f.space
        n = space.n
        dist = space.dist
        succ = tuple(
            tuple(w for w in range(n) if dist[f.table[x]][w] <= delta)
            for x in range(n)
        )
        return cls(space, delta, succ)


@dataclass(frozen=True)
class TubeState:
    """Automaton state: last pseudo-orbit point plus the tube of images."""

    last: int
    tube: frozenset[int]


def tube_states(f: EndoMap, eps: Fraction, prefix: list[int] | tuple[int, ...]) -> list[TubeState]:
    """Run the tube automaton along one explicit prefix.

    Returns the state after each prefix point.  Exposed so tests can compare
    the automaton's incremental update against a direct definition-level scan.
    """
    space = f.space
    n = space.n
    dist = space.dist
    table = f.table
    if not prefix:
        raise ValueError("prefix must be non-empty")
    tube = {x for x in range(n) if dist[x][prefix[0]] <= eps}
    out = [TubeState(prefix[0], frozenset(tube))]
    for w in prefix[1:]:
        tube = {table[x] for x in tube}
        tube = {x for x in tube if dist[x][w] <= eps}
        out.append(TubeState(w, frozenset(tube)))
    return out


def shadowable_start_set(f: EndoMap, eps: Fraction, delta: Fraction) -> frozenset[int]:
    """Starts x0 from which every infinite delta-pseudo-orbit is eps-shadowed.

    Explores the tube automaton forward from every initial state, then marks
    backward-reachable failure states.  An empty tube after some prefix means
    that prefix has no shadowing point; conversely, if no prefix empties the
    tube then nested finite candidate sets have a common point, so every
    infinite pseudo-orbit is shadowed.  x0 qualifies iff its initial state
    cannot reach an empty tube.
    """
    if eps < 0 or delta < 0:
        raise OutOfRange("eps and delta must be >= 0")
    space = f.space
    n = space.n
    dist = space.dist
    table = f.table
    eps_masks = space.ball_masks(eps)
    succ = PseudoOrbitGraph.build(f, delta).succ

    image_cache: dict[int, int] = {}

    def image(mask: int) -> int:
        out = image_cache.get(mask)
        if out is None:
            out = 0
            m = mask
            while m:
                low = m & -m
                out |= 1 << table[low.bit_length() - 1]
                m ^= low
            image_cache[mask] = out
        return out

    # Forward exploration over (last, tube) states, recording reverse edges.
    initial = [(x0, eps_masks[x0]) for x0 in range(n)]
    rev: dict[tuple[int, int], list[tuple[int, int]]] = {}
    failing: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set(initial)
    stack = list(initial)
    while stack:
        state = stack.pop()
        last, tube = state
        img = image(tube)
        fails_here = False
        for w in succ[last]:
            new_tube = img & eps_masks[w]
            if new_tube == 0:
                fails_here = True
                continue
            nxt = (w, new_tube)
            rev.setdefault(nxt, []).append(state)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
        if fails_here:
            failing.append(state)

    bad: set[tuple[int, int]] = set(failing)
    queue = deque(failing)
    while queue:
        state = queue.popleft()
        for prev in rev.get(state, ()):
            if prev not in bad:
                bad.add(prev)
                queue.append(prev)

    return frozenset(x0 for x0, m in initial if (x0, m) not in bad)


def shadowing_delta(
    f: EndoMap,
    eps: Fraction,
    mode: str = MODE_ALL,
    mu: Measure | None = None,
) -> Fraction:
    """Largest grid delta at which the requested shadowing mode holds.

    Modes over the shadowable-start set S(eps, delta):
      all  -- S is the whole space;
      full -- S carries all of mu's mass (support(mu) inside S);
      weak -- mu(S) >= 1 - eps.

    S shrinks as delta grows, so the predicate is antitone and the scan walks
    the grid top-down.  Below d_min the only pseudo-orbits are true orbits,
    which shadow themselves, so d_min/2 always passes.
    """
    if mode == "mu":  # compatibility alias for the full-mass mode
        mode = MODE_FULL
    if mode not in SHADOWING_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode in (MODE_FULL, MODE_WEAK):
        if mu is None:
            raise MissingMeasure(f"mode {mode!r} needs a measure")
        if mu.space != f.space:
            raise MismatchedSpace("map and measure live over different spaces")
    grid = ThresholdGrid.deltas(f.space)
    for delta in reversed(grid.values):
        s = shadowable_start_set(f, eps, delta)
        if mode == MODE_ALL:
            ok = len(s) == f.space.n
        elif mode == MODE_FULL:
            ok = all(p in s for p in range(f.space.n) if mu.weights[p] > 0)
        else:
            ok = mu.mass(s) >= 1 - eps
        if ok:
            return delta
    raise SoundnessError("sub-grid delta must pass; shadowing oracle is unsound")


def exact_oracle_bound(n: int) -> int:
    """Depth at which lasso_oracle verdicts become exact: n * 2^n.

    The shortest prefix that empties a tube visits distinct automaton states,
    of which there are fewer than n * 2^n.
    """
    return n * 2**n


def lasso_oracle(
    f: EndoMap, eps: Fraction, delta: Fraction, start: int, bound: int
) -> bool:
    """Brute-force shadowability check, independent of the tube automaton.

    Walks all delta-pseudo-orbit prefixes from ``start`` up to length
    ``bound`` depth-first, carrying each candidate point's current image
    separately (a candidate dies when it drifts beyond eps of the prefix).
    Prefixes whose (last point, per-candidate positions) state was already
    visited are pruned; revisiting such a state closes a lasso, so nothing
    new can happen along it.

    Returns False as soon as some prefix kills every candidate: that verdict
    is sound at any bound.  A True verdict is exact when ``bound`` is at
    least n * 2^n (see :func:`exact_oracle_bound`); below that it only means
    "no refutation found" and a :class:`BoundTooSmallWarning` is emitted.
    """
    if eps < 0 or delta < 0:
        raise OutOfRange("eps and delta must be >= 0")
    if bound < 0:
        raise OutOfRange("bound must be >= 0")
    space = f.space
    n = space.n
    dist = space.dist
    table = f.table
    if not 0 <= start < n:
        raise OutOfRange(f"start {start} is not a point index")

    dead = -1
    init = tuple(x if dist[x][start] <= eps else dead for x in range(n))
    # start itself is alive at distance 0, so the initial state never fails
    init_state = (start, init)
    seen = {init_state}
    frontier = [init_state]
    depth = 0
    truncated = False
    while frontier:
        if depth == bound:
            truncated = True
            break
        depth += 1
        next_frontier = []
        for last, positions in frontier:
            fl = table[last]
            dist_fl = dist[fl]
            for w in range(n):
                if dist_fl[w] > delta:
                    continue
                dw = dist[w]
                moved = []
                any_alive = False
                for p in positions:
                    if p == dead:
                        moved.append(dead)
                        continue
                    q = table[p]
                    if dw[q] <= eps:
                        moved.append(q)
                        any_alive = True
                    else:
                        moved.append(dead)
                if not any_alive:
                    return False
                state = (w, tuple(moved))
                if state not in seen:
                    seen.add(state)
                    next_frontier.append(state)
        frontier = next_frontier

    if truncated and bound < exact_oracle_bound(n):
        warnings.warn(
            BoundTooSmallWarning(
                f"bound {bound} < {exact_oracle_bound(n)}; "
                "'true' verdict means only that no refutation was found"
            )
        )
    return True
