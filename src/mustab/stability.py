"""Decision procedures for perturbation stability of finite-space maps.

Three flavours of "f survives perturbation" are implemented.  For a
perturbed map g (uniformly delta-close to f) a witness is:

* point mode, at a marked point p: a map h on the g-orbit closure of p with
  f(h(y)) = h(g(y)) that moves no orbit point farther than eps;
* measure mode, at a measure mu: a g-invariant set Y missing at most eps of
  mu's mass plus such an h on Y;
* set-valued mode, at mu: a set-valued H with mu-null images inside
  eps-balls, f(H(x)) = H(g(x)) pointwise (empty maps to empty), whose domain
  carries mass at least 1 - eps.

All modes are monotone in eps, so each perturbation g has an exact minimal
passing tolerance, and stability thresholds over the whole grid follow from
the worst tolerance per radius over the largest perturbation ball.  A
witness reads g only on the g-orbit closure of its roots (p, mu's atoms, or
every point for set-valued witnesses), so one depth-first search over those
closures finds the worsts in every mode.  delta_star(eps) is then the
largest grid delta whose ball contains no perturbation needing more than
eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .conjugacy import CheckResult, PartialMap
from .core import (
    DEFAULT_BUDGET,
    EndoMap,
    FiniteMetricSpace,
    Measure,
    ThresholdGrid,
    atoms,
    exact,
    perturbation_count,
    sample_perturbations,
)
from .errors import (
    BudgetExceeded,
    MismatchedSpace,
    OutOfRange,
    SoundnessError,
)


@dataclass(frozen=True)
class PointTarget:
    point: int


@dataclass(frozen=True)
class MeasureTarget:
    measure: Measure


@dataclass(frozen=True)
class SetValuedTarget:
    measure: Measure


Target = Union[PointTarget, MeasureTarget, SetValuedTarget]


def target_mode(target: Target) -> str:
    if isinstance(target, PointTarget):
        return "point"
    if isinstance(target, MeasureTarget):
        return "measure"
    if isinstance(target, SetValuedTarget):
        return "setvalued"
    raise TypeError(f"not a stability target: {target!r}")


class StabilityDelta(NamedTuple):
    delta_star: Fraction | None
    exhaustive: bool


@dataclass(frozen=True)
class ProfileRow:
    eps: Fraction
    delta_star: Fraction | None
    exhaustive: bool


@dataclass(frozen=True)
class StabilityProfile:
    mode: str
    rows: tuple[ProfileRow, ...]


@dataclass(frozen=True)
class SetValuedMap:
    """A map from points to point sets; empty image means "not in the domain"."""

    space: FiniteMetricSpace
    images: tuple[frozenset[int], ...]

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(x for x, img in enumerate(self.images) if img)


# ---------------------------------------------------------------------------
# minimal passing tolerance, per perturbation
#
# The searches run on ints: every distance and every target weight is scaled
# by one common denominator, so they only compare and add ints, and a result
# becomes a Fraction once, when it enters a table.


def _hmin(
    dist: Sequence[Sequence[int]],
    ftab: tuple[int, ...],
    gtab: tuple[int, ...],
    roots: Sequence[int],
    by_dist: tuple[tuple[int, ...], ...],
    upper: int | None,
) -> int | None:
    """Minimal max displacement of an h with f(h(y)) = h(g(y)) on Y, the
    g-orbit closure of ``roots``; None when no such h exists.

    Every point of Y is g^k(r) for some root r, and there h is forced to be
    f^k(h(r)).  So h is fixed by its values at the roots, and the search
    branches only there, in the given order, skipping a root an earlier one
    already forced.  Each choice is pushed forward along the g-chain until it
    meets an assigned point, where the forced value must agree.  Every h on
    Y that intertwines is reached exactly once, so the minimum is the one
    over all such h.  Branch and bound: candidates are tried nearest first.
    Returns the exact minimum when it is below ``upper`` (exclusive), else
    None.  Distances may be any exact ordered numbers; the kernel passes
    scaled ints.
    """
    assign: dict[int, int] = {}
    best = upper
    found = None

    def search(idx: int, curmax) -> None:
        nonlocal best, found
        while idx < len(roots) and roots[idx] in assign:
            idx += 1
        if idx == len(roots):
            best = curmax
            found = curmax
            return
        y = roots[idx]
        for c in by_dist[y]:
            d0 = dist[c][y]
            if best is not None and d0 >= best and d0 >= curmax:
                break  # candidates sorted by distance: the rest are no better
            m = curmax if curmax > d0 else d0
            if best is not None and m >= best:
                break
            trail = [y]
            assign[y] = c
            a, v = y, c
            ok = True
            while True:
                b = gtab[a]
                w = ftab[v]
                if b in assign:
                    ok = assign[b] == w
                    break
                dd = dist[w][b]
                if dd > m:
                    if best is not None and dd >= best:
                        ok = False
                        break
                    m = dd
                assign[b] = w
                trail.append(b)
                a, v = b, w
            if ok:
                search(idx + 1, m)
            for x in trail:
                del assign[x]

    search(0, 0)
    return found


def _mass_tables(weights: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Per run of 8 points, the mass of each subset of the run.

    The mass of a point mask is then one lookup per byte of the mask, with
    setup linear in n rather than a table over all 2^n masks.
    """
    tables = []
    for lo in range(0, len(weights), 8):
        table = [0]
        for w in weights[lo:lo + 8]:
            table += [s + w for s in table]
        tables.append(tuple(table))
    return tuple(tables)


def _eps_min_measure(
    dist: tuple[tuple[int, ...], ...],
    ftab: tuple[int, ...],
    gtab: tuple[int, ...],
    one: int,
    mass_tables: tuple[tuple[int, ...], ...],
    atom_list: tuple[int, ...],
    by_dist: tuple[tuple[int, ...], ...],
) -> int:
    """Least eps at which g admits a measure-mode witness, times the scale
    ``one``.  Always <= one.

    A witness can be shrunk to the g-orbit closure of the atoms it keeps
    without losing mass or feasibility, so only closures of atom subsets
    need examining, with those atoms as the roots of h.  The closure of a
    union is the union of the closures, so these are the unions of the
    atoms' orbits, built atom by atom, each once.  An h on a closure
    restricts to every closure inside it, so a closure that needs at least
    ``best`` for h makes every closure holding it need as much: it is
    dropped, and no union is built from it.  The empty set is admissible and
    costs exactly eps = 1.
    """
    best = one  # empty Y: all mass lost, trivial h
    live = [(0, ())]  # closures to build unions from, with their atoms
    seen = {0}
    dead: list[int] = []
    for a in atom_list:
        orbit = 0
        x = a
        while not orbit >> x & 1:
            orbit |= 1 << x
            x = gtab[x]
        for y_mask, roots in live[:]:
            if y_mask >> a & 1:
                continue  # the closure already holds a, so it is its own union
            u = y_mask | orbit
            if u in seen:
                continue
            seen.add(u)
            if dead and any(not z & ~u for z in dead):
                continue
            u_roots = roots + (a,)
            out_mass = one
            m = u
            for table in mass_tables:
                out_mass -= table[m & 255]
                m >>= 8
            if out_mass < best:
                hm = _hmin(dist, ftab, gtab, u_roots, by_dist, best)
                if hm is None or hm >= out_mass:
                    # u costs hm, and so at least does every closure above it
                    if hm is not None:
                        best = hm
                    dead.append(u)
                    continue
                best = out_mass
            live.append((u, u_roots))
    return best


def _eps_min_setvalued(
    ftab: tuple[int, ...],
    gtab: tuple[int, ...],
    one: int,
    weights: tuple[int, ...],
    levels: tuple[tuple[int, tuple[int, ...]], ...],
) -> int:
    """Least eps at which g admits a set-valued witness, times the scale
    ``one``.  Always <= one.

    Valid set-valued maps are closed under pointwise union, so a greatest
    fixed point of the pruning operator below is the best possible H for a
    given ball radius; the domain-mass condition then pins the final eps.
    Ball configurations only change at distance values, giving finitely many
    radius levels to scan: ``levels`` pairs each scaled radius below one with
    its balls, already cut down to the massless points.
    """
    n = len(ftab)
    fbit = [1 << ftab[z] for z in range(n)]
    best = one
    for t, balls in levels:
        if t >= best:
            break
        H = list(balls)
        changed = True
        while changed:
            changed = False
            for x in range(n):
                hx = H[x]
                tgt = H[gtab[x]]
                if hx:
                    new = 0
                    img = 0
                    m = hx
                    while m:
                        low = m & -m
                        z = low.bit_length() - 1
                        fz = fbit[z]
                        if tgt & fz:
                            new |= low
                            img |= fz
                        m ^= low
                    if new != hx:
                        H[x] = new
                        changed = True
                    if tgt & ~img:
                        H[gtab[x]] = tgt & img
                        changed = True
                elif tgt:
                    # empty image forces the successor's image empty too
                    H[gtab[x]] = 0
                    changed = True
        lost = one
        for x in range(n):
            if H[x]:
                lost -= weights[x]
        cand = t if t > lost else lost
        if cand < best:
            best = cand
    return best


class _Kernel(NamedTuple):
    """One target's witness search on ints: ``search(gtab)`` is the least
    passing tolerance of g times ``scale``, or None when g admits none.

    The search reads g only on the g-orbit closure of ``roots`` (p, the
    sorted atoms, or every point in set-valued mode), and
    ``search(gtab, roots[:k])`` bounds from above the tolerance of every g
    that agrees on the closure of the first k roots: it is exact for point
    and measure kernels, and the cap for a set-valued kernel short of n
    roots.  ``cap`` is the worst value a search can return: None (no
    witness) in point mode, ``scale`` (tolerance 1) otherwise.
    """

    search: Callable[..., int | None]
    scale: int
    roots: tuple[int, ...]
    cap: int | None


def _kernel(f: EndoMap, target: Target) -> _Kernel:
    """Bind the per-perturbation search for one target, in time polynomial
    in n.

    The scale is the least common denominator of the distances and the
    target's weights.  Point and measure mode share one intertwining search,
    _hmin: point mode roots it at the marked point p, so h lives on the
    g-orbit closure of p; measure mode roots it at the atoms of each subset
    it tries.
    """
    space = f.space
    ftab = f.table
    by_dist = space.nearest_first
    mode = target_mode(target)
    if mode == "point":
        p = target.point
        if not 0 <= p < space.n:
            raise OutOfRange(f"point {p} is not an index into the space")
        dist, roots = space.scaled_dist, (p,)
        return _Kernel(
            lambda gtab, roots=roots: _hmin(dist, ftab, gtab, roots, by_dist, None),
            space.scale, roots, None)
    mu = target.measure
    if mu.space != space:
        raise MismatchedSpace("target measure lives over another space")
    scale = lcm(space.scale, *(w.denominator for w in mu.weights))
    weights = tuple(w.numerator * (scale // w.denominator) for w in mu.weights)
    k = scale // space.scale
    dist = tuple(tuple(d * k for d in row) for row in space.scaled_dist)
    if mode == "setvalued":
        massless = sum(1 << x for x, w in enumerate(weights) if not w)
        radii = (Fraction(0),) + space.distance_values
        levels = tuple(
            (t, tuple(b & massless for b in space.ball_masks(r)))
            for r, t in zip(radii, sorted({d for row in dist for d in row}))
            if t < scale
        )
        points = tuple(range(space.n))
        return _Kernel(
            lambda gtab, roots=points: scale if len(roots) < len(points)
            else _eps_min_setvalued(ftab, gtab, scale, weights, levels),
            scale, points, scale)
    tables = _mass_tables(weights)
    atom_list = tuple(sorted(atoms(mu)))
    return _Kernel(
        lambda gtab, roots=atom_list: _eps_min_measure(
            dist, ftab, gtab, scale, tables, roots, by_dist),
        scale, atom_list, scale)


# ---------------------------------------------------------------------------
# worst tolerances over nested perturbation balls

# One table per target: (delta, worst eps_min over the delta-ball, exhaustive)
# for every grid delta, largest first.  A worst value of None reads "some map
# in the ball admits no witness at any tolerance".
_Table = list[tuple[Fraction, Union[Fraction, None], bool]]


def _raise_worst(running: list[int | None], r: int, em: int | None) -> None:
    """Fold in a map of rank r whose least tolerance is em: running[s] is the
    worst over ranks 0..s, and None (no witness at all) tops every int."""
    for s in range(r, len(running)):
        cur = running[s]
        if cur is None or (em is not None and em <= cur):
            break  # the running worsts ascend from here on
        running[s] = em


def _read_worsts(space: FiniteMetricSpace, running: list[int | None], scale: int,
                 deltas: tuple[Fraction, ...]) -> list[Fraction | None]:
    return [None if (w := running[space.radius_rank(d)]) is None else Fraction(w, scale)
            for d in deltas]


def _worst_tolerances(
    f: EndoMap,
    kernels: list[_Kernel],
    deltas: tuple[Fraction, ...],
    draws: Iterable[tuple[int, ...]],
) -> list[list[Fraction | None]]:
    """Per kernel, the worst tolerance at each radius over the maps
    ``draws`` of the ball at the largest of the ascending ``deltas``: a
    sample for a radius too large to search, or, in the tests, every map of
    the ball as the reference for _forest_worsts.

    One pass serves every kernel and every radius: each map's distance from
    f is ranked once, and smaller balls read the running worst over lower
    ranks.  Memory is O(kernels x radii), however many maps are drawn.  The
    worsts stay scaled ints until they are read out as Fractions.
    """
    space = f.space
    rows = [space.distance_ranks[v] for v in f.table]
    searches = [(kernel.search, kernel.cap) for kernel in kernels]
    by_rank: list[list[int | None]] = [
        [0] * (len(space.distance_values) + 1) for _ in kernels]
    for gtab in draws:
        r = 0
        for row, x in zip(rows, gtab):
            if row[x] > r:
                r = row[x]
        for (search, cap), running in zip(searches, by_rank):
            # as in _forest_worsts: at None or the cap no map can raise a worst
            if running[r] is not None and running[r] != cap:
                _raise_worst(running, r, search(gtab))
    return [_read_worsts(space, running, kernel.scale, deltas)
            for kernel, running in zip(kernels, by_rank)]


def _forest_worsts(
    f: EndoMap, kernel: _Kernel, deltas: tuple[Fraction, ...],
) -> list[Fraction | None]:
    """A kernel's exact worst tolerance over the ball at each of the
    ascending ``deltas``, by a depth-first search over orbit forests instead
    of a walk over the ball.

    The kernel reads g only on Y, the g-orbit closure of its roots.  A map
    of the ball that agrees with a partial map g defined exactly on Y has
    g's tolerance and a rank at least g's rank r, the largest distance rank
    of g(x) from f(x); g = f off Y reaches rank r.  So the running worst
    over ranks 0..R is the same over these orbit forests as over the ball.
    A set-valued kernel is rooted at every point, so its forests are the
    maps of the ball, each reached once.

    A forest grows one point at a time: the first unassigned point on the
    orbit of the first root whose orbit is still open, its candidates
    within the top radius of f(x), lowest rank first.  A node at rank r
    whose running worst over ranks 0..r is already the kernel's cap is
    dropped: every completion ranks at least r, and no search exceeds the
    cap.  Once the orbits of the first k roots close, ``search(g,
    roots[:k])`` bounds every completion's tolerance from above; with every
    orbit closed it is g's exact tolerance.  A bound no larger than the
    running worst at r cannot raise any running worst, so the subtree is
    skipped: the running worsts only grow.
    """
    space = f.space
    ranks = space.distance_ranks
    top = space.radius_rank(deltas[-1])
    cands = [[(c, ranks[v][c]) for c in space.nearest_first[v] if ranks[v][c] <= top]
             for v in f.table]
    search, roots, cap = kernel.search, kernel.roots, kernel.cap
    running: list[int | None] = [0] * (top + 1)  # worst over ranks 0..r
    g = [-1] * space.n
    # one frame per assigned point, as deep as Y is large: point x on the
    # orbit of roots[k], the rank r of the forest before x, x's next candidate
    frames = [[roots[0], 0, 0, 0]]
    while frames:
        frame = frames[-1]
        x, k, r, i = frame
        if i == len(cands[x]):
            g[x] = -1
            frames.pop()
            continue
        c, rc = cands[x][i]
        frame[3] = i + 1
        if rc < r:
            rc = r
        if running[rc] is None or running[rc] == cap:
            frame[3] = len(cands[x])  # candidates ascend in rank: the rest rank >= rc
            continue
        g[x] = c
        if g[c] < 0:
            frames.append([c, k, rc, 0])
            continue
        # the orbits of roots[:k + 1] are closed, and so is every root they hold
        k += 1
        while k < len(roots) and g[roots[k]] >= 0:
            k += 1
        em = search(g, roots[:k])
        if k == len(roots):
            _raise_worst(running, rc, em)
        elif em is None or em > running[rc]:
            frames.append([roots[k], k, rc, 0])
    return _read_worsts(space, running, kernel.scale, deltas)


def _tolerance_tables(
    f: EndoMap,
    targets: list[Target],
    budget: int = DEFAULT_BUDGET,
    sample: bool = False,
    seed: int = 0,
    sample_size: int = 500,
) -> list[_Table]:
    """One table per target, from the balls of f.

    The ball of the largest grid delta that fits the budget (counted in
    maps, whatever the mode) is searched once per target, and every smaller
    delta reads off the same search.  A larger delta raises BudgetExceeded,
    or with ``sample=True`` draws a seeded uniform sample of its ball, which
    every target walks; its verdict rests on those draws alone and is marked
    non-exhaustive.
    """
    if sample and sample_size < 1:
        raise OutOfRange("sample_size must be >= 1")
    kernels = [_kernel(f, target) for target in targets]
    deltas = ThresholdGrid.deltas(f.space).values
    tables: list[_Table] = [[] for _ in kernels]
    fit = len(deltas)
    while fit and (count := perturbation_count(f, deltas[fit - 1])) > budget:
        if not sample:
            raise BudgetExceeded(count, budget)
        fit -= 1
        delta = deltas[fit]
        drawn = sample_perturbations(
            f, delta, sample_size, seed * 1_000_003 + len(deltas) - 1 - fit)
        worst = _worst_tolerances(f, kernels, (delta,), (g.table for g in drawn))
        for table, (w,) in zip(tables, worst):
            table.append((delta, w, False))
    if fit:
        for table, kernel in zip(tables, kernels):
            ws = _forest_worsts(f, kernel, deltas[:fit])
            table.extend((d, w, True) for d, w in zip(reversed(deltas[:fit]), reversed(ws)))
    return tables


def _delta_star(table: _Table, eps: Fraction) -> StabilityDelta:
    for delta, worst, exhaustive in table:
        if worst is not None and worst <= eps:
            return StabilityDelta(delta, exhaustive)
    return StabilityDelta(None, True)


# ---------------------------------------------------------------------------
# public entry points


def _default_grid(f: EndoMap, target: Target) -> ThresholdGrid:
    if isinstance(target, PointTarget):
        mu = Measure.dirac(f.space, target.point)
    else:
        mu = target.measure
    return ThresholdGrid.epsilons(f.space, mu)


def stability_delta(
    f: EndoMap,
    target: Target,
    eps,
    budget: int = DEFAULT_BUDGET,
    sample: bool = False,
    seed: int = 0,
    sample_size: int = 500,
) -> StabilityDelta:
    """Largest grid delta at which every delta-perturbation passes at eps.

    At each grid delta either the full ball is enumerated (when it fits the
    budget) or, with ``sample=True``, a seeded uniform sample stands in and a
    passing verdict is downgraded to "no counterexample found" via
    exhaustive=False.  Without sampling a too-large ball raises
    BudgetExceeded.  Returns delta_star None when even the sub-grid delta
    (only f itself) fails.
    """
    eps = exact(eps)
    if eps < 0:
        raise OutOfRange("eps must be >= 0")
    (table,) = _tolerance_tables(f, [target], budget, sample, seed, sample_size)
    return _delta_star(table, eps)


def _row_sort_key(delta_star: Fraction | None) -> tuple:
    return (0, Fraction(0)) if delta_star is None else (1, delta_star)


def stability_profile(
    f: EndoMap,
    target: Target,
    grid: ThresholdGrid | None = None,
    budget: int = DEFAULT_BUDGET,
    sample: bool = False,
    seed: int = 0,
    sample_size: int = 500,
) -> StabilityProfile:
    """delta_star for every eps on the grid canonical for the target measure.

    Every row reads the same table, as stability_delta would build it.  The
    rows are checked to be nondecreasing in eps; a violation would mean one
    of the mode oracles is unsound, so it raises rather than returning
    quietly wrong data.
    """
    # the tables validate the target, so they come before its default grid
    (table,) = _tolerance_tables(f, [target], budget, sample, seed, sample_size)
    eps_grid = grid if grid is not None else _default_grid(f, target)
    rows = [ProfileRow(eps, *_delta_star(table, eps)) for eps in eps_grid]
    for a, b in zip(rows, rows[1:]):
        if _row_sort_key(a.delta_star) > _row_sort_key(b.delta_star):
            raise SoundnessError(
                f"profile not monotone: delta*({a.eps}) = {a.delta_star} "
                f"> delta*({b.eps}) = {b.delta_star}"
            )
    return StabilityProfile(target_mode(target), tuple(rows))


def setvalued_from_partial(
    h: PartialMap,
    mu: Measure,
    eps,
    f: EndoMap | None = None,
    g: EndoMap | None = None,
) -> tuple[SetValuedMap, tuple]:
    """Lift a partial map to a set-valued map and report which of the four
    stability conditions it satisfies at (mu, eps).

    The lift sends domain points to singletons and everything else to the
    empty set.  The intertwining condition f(H(x)) = H(g(x)) is only checked
    when both maps are supplied.
    """
    if h.space != mu.space:
        raise MismatchedSpace("partial map and measure live over different spaces")
    eps = exact(eps)
    space = mu.space
    mapping = h.as_dict()
    images = tuple(
        frozenset((mapping[x],)) if x in mapping else frozenset()
        for x in range(space.n)
    )
    sv = SetValuedMap(space, images)

    dom_mass = mu.mass(sv.domain)
    mass_ok = dom_mass >= 1 - eps

    null_witness = next(
        (x for x in sorted(mapping) if mu.weights[mapping[x]] > 0), None
    )
    close_witness = next(
        (x for x in sorted(mapping) if space.dist[mapping[x]][x] > eps), None
    )
    checks = [
        CheckResult("domain_mass", mass_ok, None if mass_ok else (dom_mass,)),
        CheckResult("null_images", null_witness is None,
                    None if null_witness is None else (null_witness, mapping[null_witness])),
        CheckResult("c0_close", close_witness is None,
                    None if close_witness is None else (close_witness,)),
    ]
    if f is not None and g is not None:
        if f.space != space or g.space != space:
            raise MismatchedSpace("maps live over different spaces")
        comm_witness = None
        for x in range(space.n):
            img = frozenset(f.table[z] for z in images[x])
            if img != images[g.table[x]]:
                comm_witness = x
                break
        checks.append(
            CheckResult("intertwines", comm_witness is None,
                        None if comm_witness is None else (comm_witness,))
        )
    return sv, tuple(checks)
