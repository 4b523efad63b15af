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

A transition (last, tube) --w--> (w, f(tube) & B(w, eps)) does not depend on
delta; delta only decides which edges exist.  So one exploration with every
edge present, each edge labelled by the least delta admitting it, answers
every delta at once: a start's *failure radius* is the least delta at which
an empty tube becomes reachable from it (a bottleneck path problem), and the
start is shadowable exactly below that radius.  Every shadowing query reads
these radii, computed once per (f, eps).
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .core import EndoMap, Measure, ThresholdGrid
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


def failure_ranks(f: EndoMap, eps: Fraction) -> tuple[int | None, ...]:
    """Per start x0, the rank of its failure radius, or None if it never fails.

    The failure radius of x0 is the least delta at which x0 stops being
    eps-shadowable.  It is always a distance of the space, and rank r stands
    for ``((0,) + f.space.distance_values)[r]``.  x0 lies in S(eps, delta)
    exactly when its rank is None or exceeds the rank of delta, the largest
    r whose radius is <= delta.  Rank 0 never occurs: true orbits shadow
    themselves.  Memoised per (f, eps) on the map.
    """
    if eps < 0:
        raise OutOfRange("eps must be >= 0")
    key = ("failure_ranks", eps)
    ranks = f._memo.get(key)
    if ranks is None:
        ranks = f._memo[key] = _failure_ranks(f, eps)
    return ranks


def _failure_ranks(f: EndoMap, eps: Fraction) -> tuple[int | None, ...]:
    """One exploration of the tube automaton with every edge present.

    Edge last --w--> carries the rank of d(f(last), w); delta admits it iff
    that rank is at most the rank of delta.  A state's value is the least
    rank r such that an empty tube is reachable from it along edges of rank
    <= r: a failing state starts at the least rank of a w that empties its
    tube, and b(prev) = min(b(prev), max(edge rank, b(state))) is propagated
    backwards in ascending rank with a bucket queue.  An empty tube after
    some prefix means that prefix has no shadowing point; conversely, if no
    prefix empties the tube then nested finite candidate sets have a common
    point, so every infinite pseudo-orbit is shadowed.
    """
    space = f.space
    n = space.n
    table = f.table
    dist_rank = space.distance_ranks
    eps_masks = space.ball_masks(eps)
    never = len(space.distance_values) + 1

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

    # Forward exploration over (last, tube) states; state x0 < n is the
    # initial state of start x0.  rev[j] lists (i, rank) per edge i -> j.
    states = [(x0, eps_masks[x0]) for x0 in range(n)]
    ids = {state: i for i, state in enumerate(states)}
    rev: list[list[tuple[int, int]]] = [[] for _ in states]
    best = [never] * n
    buckets: list[list[int]] = [[] for _ in range(never)]
    i = 0
    while i < len(states):
        last, tube = states[i]
        img = image(tube)
        ranks = dist_rank[table[last]]
        fails_at = never
        for w in range(n):
            new_tube = img & eps_masks[w]
            if new_tube == 0:
                if ranks[w] < fails_at:
                    fails_at = ranks[w]
                continue
            j = ids.setdefault((w, new_tube), len(states))
            if j == len(states):
                states.append((w, new_tube))
                rev.append([])
                best.append(never)
            rev[j].append((i, ranks[w]))
        if fails_at < never:
            best[i] = fails_at
            buckets[fails_at].append(i)
        i += 1

    for value, bucket in enumerate(buckets):
        # states pushed at this same value are appended and read in turn
        for state in bucket:
            if best[state] != value:
                continue  # superseded by a smaller value
            for prev, r in rev[state]:
                b = r if r > value else value
                if b < best[prev]:
                    best[prev] = b
                    buckets[b].append(prev)

    return tuple(None if b == never else b for b in best[:n])


def shadowable_start_set(f: EndoMap, eps: Fraction, delta: Fraction) -> frozenset[int]:
    """Starts x0 from which every infinite delta-pseudo-orbit is eps-shadowed.

    x0 qualifies iff its failure radius (see :func:`failure_ranks`) exceeds
    delta, for any delta >= 0, on the grid or off it.
    """
    if eps < 0 or delta < 0:
        raise OutOfRange("eps and delta must be >= 0")
    top = f.space.radius_rank(delta)
    return frozenset(
        x0 for x0, b in enumerate(failure_ranks(f, eps)) if b is None or b > top
    )


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

    S shrinks as delta grows: it loses the starts whose failure radius is at
    most delta.  So the answer sits just below the radius at which the lost
    starts first outweigh what the mode allows: any start (all), any mass
    (full), or mass above eps (weak, as mu has total mass 1).  Below d_min
    the only pseudo-orbits are true orbits, which shadow themselves, so
    d_min/2 always passes.
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
    ranks = failure_ranks(f, eps)
    if mode == MODE_ALL:
        weights, allowance = (1,) * f.space.n, 0
    else:
        weights, allowance = mu.weights, (0 if mode == MODE_FULL else eps)
    # Delta grid value k has rank k: d_min/2 (0 on one point), then the
    # distances.  Walk the failing starts by rank until too much is lost.
    distances = f.space.distance_values
    top = len(distances)
    lost = 0
    for b, w in sorted((b, w) for b, w in zip(ranks, weights) if b is not None):
        lost += w
        if lost > allowance:
            top = b - 1
            break
    if top < 0:
        raise SoundnessError("sub-grid delta must pass; shadowing oracle is unsound")
    return distances[top - 1] if top else ThresholdGrid.deltas(f.space).values[0]


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
