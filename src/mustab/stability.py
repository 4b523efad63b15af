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
passing tolerance; stability thresholds over the whole grid follow from one
enumeration of the perturbation ball.  delta_star(eps) is then the largest
grid delta whose ball contains no perturbation needing more than eps.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .conjugacy import CheckResult, PartialMap, build_semiconjugacy, verify_semiconjugacy
from .core import (
    DEFAULT_BUDGET,
    EndoMap,
    FiniteMetricSpace,
    Measure,
    ThresholdGrid,
    _ball_choices,
    ac_threshold,
    atoms,
    convex_combine,
    enumerate_perturbations,
    exact,
    perturbation_count,
    pushforward,
    sample_perturbations,
    validate_space,
)
from .errors import (
    BudgetExceeded,
    MismatchedSpace,
    OutOfRange,
    SoundnessError,
    UsageError,
)
from .expansivity import default_expansivity_constant
from .shadowing import MODE_WEAK, shadowing_delta
from .systems import GeneratorSpec, SystemFile, generate_system, render_system


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
    passing tolerance of g times ``scale``, or None when g admits none."""

    search: Callable[[tuple[int, ...]], int | None]
    scale: int


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
        return _Kernel(lambda gtab: _hmin(dist, ftab, gtab, roots, by_dist, None), space.scale)
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
        return _Kernel(
            lambda gtab: _eps_min_setvalued(ftab, gtab, scale, weights, levels), scale)
    tables = _mass_tables(weights)
    atom_list = tuple(sorted(atoms(mu)))
    return _Kernel(
        lambda gtab: _eps_min_measure(dist, ftab, gtab, scale, tables, atom_list, by_dist),
        scale)


def _eps_min_fn(f: EndoMap, target: Target) -> Callable[[tuple[int, ...]], Fraction | None]:
    """The kernel's result for one perturbation as the exact tolerance."""
    search, scale = _kernel(f, target)
    return lambda gtab: None if (v := search(gtab)) is None else Fraction(v, scale)


# ---------------------------------------------------------------------------
# worst tolerances over nested perturbation balls

# One table per target: (delta, worst eps_min over the delta-ball, exhaustive)
# for every grid delta, largest first.  A worst value of None reads "some map
# in the ball admits no witness at any tolerance".
_Table = list[tuple[Fraction, Union[Fraction, None], bool]]


def _worst_tolerances(
    f: EndoMap,
    kernels: list[_Kernel],
    deltas: tuple[Fraction, ...],
    draws: Iterable[tuple[int, ...]] | None = None,
) -> list[list[Fraction | None]]:
    """Per kernel, the worst tolerance over the ball at each radius.

    ``deltas`` ascend.  One pass over the ball at the largest of them serves
    every kernel and every radius: each map's distance from f is ranked
    once, and smaller balls read the running worst over lower ranks.  With
    ``draws`` only those maps, drawn from that ball, are visited.  Memory is
    O(kernels x radii), whatever the size of the ball.  The worsts stay
    scaled ints until they are read out as Fractions.
    """
    space = f.space
    rows = [space.distance_ranks[v] for v in f.table]
    if draws is None:
        draws = product(*_ball_choices(f, deltas[-1]))
    searches = [kernel.search for kernel in kernels]
    by_rank: list[list[int | None]] = [
        [0] * (len(space.distance_values) + 1) for _ in kernels]
    for gtab in draws:
        r = 0
        for row, x in zip(rows, gtab):
            if row[x] > r:
                r = row[x]
        for search, worst in zip(searches, by_rank):
            cur = worst[r]
            if cur is not None:  # None already absorbs whatever search says
                em = search(gtab)
                if em is None or em > cur:
                    worst[r] = em
    out = []
    for kernel, worst in zip(kernels, by_rank):
        running: list[Fraction | None] = []
        cur: int | None = 0
        for em in worst:
            if cur is not None and (em is None or em > cur):
                cur = em
            running.append(None if cur is None else Fraction(cur, kernel.scale))
        out.append([running[space.radius_rank(d)] for d in deltas])
    return out


def _tolerance_tables(
    f: EndoMap,
    targets: list[Target],
    budget: int = DEFAULT_BUDGET,
    sample: bool = False,
    seed: int = 0,
    sample_size: int = 500,
) -> list[_Table]:
    """One table per target, all from the same walks over the balls of f.

    The largest grid delta whose ball fits the budget is walked once, and
    every smaller delta reads off the same pass.  A larger delta raises
    BudgetExceeded, or with ``sample=True`` draws a seeded uniform sample of
    its ball; its verdict rests on those draws alone and is marked
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
        worst = _worst_tolerances(f, kernels, deltas[:fit])
        for table, ws in zip(tables, worst):
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


# ---------------------------------------------------------------------------
# randomized verification of the transfer principles on generated systems


@dataclass(frozen=True)
class TheoremReport:
    item: str
    trials: int
    systems: int
    checks: int
    passed: bool
    counterexample: dict | None
    notes: tuple[str, ...] = ()


THEOREM_ITEMS = ("1", "2", "4", "5", "7", "basicas")


def isolated_point_system() -> tuple[FiniteMetricSpace, EndoMap, int]:
    """Three points, one far from the close pair, under the identity map.

    The far point is a fixed point whose removal costs all the mass of a
    point mass sitting on it; the system separates the three stability
    flavours at small tolerances.
    """
    ten = Fraction(10)
    one = Fraction(1)
    zero = Fraction(0)
    dist = (
        (zero, ten, ten),
        (ten, zero, one),
        (ten, one, zero),
    )
    space = validate_space(("p", "a", "b"), dist)
    return space, EndoMap.identity(space), 0


def _frac_str(x: Fraction | None) -> str | None:
    return None if x is None else str(Fraction(x))


def _random_measure(space: FiniteMetricSpace, rng: random.Random,
                    support: Iterable[int] | None = None) -> Measure:
    n = space.n
    if support is None:
        support = rng.sample(range(n), rng.randint(1, n))
    w = [Fraction(0)] * n
    for x in support:
        w[x] = Fraction(rng.randint(1, 9))
    tot = sum(w)
    return Measure(space, tuple(v / tot for v in w))


def _system_payload(sysf: SystemFile, spec: GeneratorSpec) -> dict:
    return {
        "generator": {"n": spec.n, "seed": spec.seed, "model": spec.model,
                      "coordinate_range": spec.coordinate_range},
        "system": json.loads(render_system(sysf)),
    }


class _Trial(NamedTuple):
    index: int
    sysf: SystemFile
    spec: GeneratorSpec
    f: EndoMap
    rng: random.Random

    def refuted(self, item: str, trials: int, checks: int, **fields) -> TheoremReport:
        """A failing report whose counterexample replays this trial's system."""
        return TheoremReport(
            item, trials, self.index + 1, checks, False,
            {"trial": self.index, **fields, **_system_payload(self.sysf, self.spec)},
        )


def _trials(trials: int, seed: int, max_points: int, budget: int,
            min_points: int = 2) -> Iterator[_Trial]:
    """One generated system per trial; its map f must fit the budget."""
    for index in range(trials):
        rng = random.Random(9_000_000 + seed * 1_000_003 + index)
        n = rng.randint(min_points, max_points)
        spec = GeneratorSpec(n=n, seed=rng.randrange(2**30))
        sysf = generate_system(spec)
        f = sysf.maps["f"]
        count = perturbation_count(f, ThresholdGrid.deltas(f.space).top)
        if count > budget:
            raise BudgetExceeded(count, budget)
        yield _Trial(index, sysf, spec, f, rng)


def _item_1(trials: int, seed: int, max_points: int, budget: int) -> TheoremReport:
    # marked-point stability and point-mass stability agree below tolerance 1
    checks = 0
    for trial in _trials(trials, seed, max_points, budget):
        space = trial.f.space
        n = space.n
        diracs = [Measure.dirac(space, p) for p in range(n)]
        tables = _tolerance_tables(
            trial.f,
            [PointTarget(p) for p in range(n)] + [MeasureTarget(mu) for mu in diracs],
            budget,
        )
        for p, mu in enumerate(diracs):
            for eps in ThresholdGrid.epsilons(space, mu):
                if eps >= 1:
                    continue
                a = _delta_star(tables[p], eps).delta_star
                b = _delta_star(tables[n + p], eps).delta_star
                checks += 1
                if a != b:
                    return trial.refuted(
                        "1", trials, checks, point=space.labels[p],
                        eps=_frac_str(eps), point_delta=_frac_str(a),
                        measure_delta=_frac_str(b),
                    )
    return TheoremReport("1", trials, trials, checks, True, None)


def _item_2(trials: int, seed: int, max_points: int, budget: int) -> TheoremReport:
    # stability under a dominating measure transfers below the mass threshold
    checks = 0
    for trial in _trials(trials, seed, max_points, budget):
        space = trial.f.space
        nu = _random_measure(space, trial.rng, support=range(space.n))
        mu = _random_measure(space, trial.rng)
        t_mu, t_nu = _tolerance_tables(
            trial.f, [MeasureTarget(mu), MeasureTarget(nu)], budget)
        nu_grid = ThresholdGrid.epsilons(space, nu)
        for eps in ThresholdGrid.epsilons(space, mu):
            thr = ac_threshold(mu, nu, eps)
            a = _delta_star(t_mu, eps).delta_star
            for eps2 in nu_grid:
                if eps2 > eps or (thr is not None and eps2 >= thr):
                    continue
                b = _delta_star(t_nu, eps2).delta_star
                checks += 1
                if a is None or (b is not None and a < b):
                    return trial.refuted(
                        "2", trials, checks, eps=_frac_str(eps),
                        eps_transferred=_frac_str(eps2),
                        threshold=_frac_str(thr),
                        delta_dominated=_frac_str(a),
                        delta_dominating=_frac_str(b),
                        mu=[_frac_str(w) for w in mu.weights],
                        nu=[_frac_str(w) for w in nu.weights],
                    )
    return TheoremReport("2", trials, trials, checks, True, None)


def _group_powers(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    n = len(perm)
    ident = tuple(range(n))
    powers = [ident]
    t = perm
    while t != ident:
        powers.append(t)
        t = tuple(perm[x] for x in t)
    return powers


def _symmetrize(space: FiniteMetricSpace, perm: tuple[int, ...]) -> FiniteMetricSpace:
    # average the metric over the cyclic group of perm: perm becomes an isometry
    powers = _group_powers(perm)
    m = len(powers)
    n = space.n
    dist = [
        [sum(space.dist[P[i]][P[j]] for P in powers) / m for j in range(n)]
        for i in range(n)
    ]
    return validate_space(space.labels, dist)


def _modulus(space: FiniteMetricSpace, htab: tuple[int, ...], t: Fraction) -> Fraction:
    """Largest displacement of an h-image pair whose source pair is t-close."""
    out = Fraction(0)
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            if space.dist[i][j] <= t:
                d = space.dist[htab[i]][htab[j]]
                if d > out:
                    out = d
    return out


def _item_4(trials: int, seed: int, max_points: int, budget: int) -> TheoremReport:
    # isometric conjugation: identical profiles; general bijection: profiles
    # degrade by no more than the moduli of continuity of the bijection
    checks = 0
    notes: list[str] = []
    skipped = 0
    for trial in _trials(trials, seed, max_points, budget, min_points=3):
        f0, rng = trial.f, trial.rng
        space0 = f0.space
        n = space0.n

        perm = list(range(n))
        while tuple(perm) == tuple(range(n)):
            rng.shuffle(perm)
        perm = tuple(perm)
        space_i = _symmetrize(space0, perm)
        f = EndoMap(space_i, f0.table)
        iso = EndoMap(space_i, perm)
        mu = _random_measure(space_i, rng)
        f_conj = iso.compose(f).compose(iso.inverse())
        mu_conj = pushforward(iso, mu)
        (t_f,) = _tolerance_tables(f, [MeasureTarget(mu)], budget)
        (t_c,) = _tolerance_tables(f_conj, [MeasureTarget(mu_conj)], budget)
        grid_a = ThresholdGrid.epsilons(space_i, mu)
        grid_b = ThresholdGrid.epsilons(space_i, mu_conj)
        if grid_a.values != grid_b.values:
            return trial.refuted("4", trials, checks, kind="isometric",
                                 reason="grid mismatch")
        for eps in grid_a:
            a = _delta_star(t_f, eps).delta_star
            b = _delta_star(t_c, eps).delta_star
            checks += 1
            if a != b:
                return trial.refuted(
                    "4", trials, checks, kind="isometric", perm=list(perm),
                    eps=_frac_str(eps), delta_original=_frac_str(a),
                    delta_conjugated=_frac_str(b),
                )

        hperm = None
        for _ in range(50):
            cand = list(range(n))
            rng.shuffle(cand)
            if any(
                space0.dist[cand[i]][cand[j]] != space0.dist[i][j]
                for i in range(n) for j in range(i + 1, n)
            ):
                hperm = tuple(cand)
                break
        if hperm is None:
            skipped += 1
            continue
        h = EndoMap(space0, hperm)
        hinv = h.inverse()
        nu = _random_measure(space0, rng)
        g_conj = h.compose(f0).compose(hinv)
        nu_conj = pushforward(h, nu)
        dgrid0 = ThresholdGrid.deltas(space0)
        (t_f0,) = _tolerance_tables(f0, [MeasureTarget(nu)], budget)
        (t_c0,) = _tolerance_tables(g_conj, [MeasureTarget(nu_conj)], budget)
        mod_levels = (Fraction(0),) + space0.distance_values
        for eps in ThresholdGrid.epsilons(space0, nu_conj):
            m1 = max(t for t in mod_levels if _modulus(space0, hperm, t) <= eps)
            eps_back = min(eps, m1)
            d_f = _delta_star(t_f0, eps_back).delta_star
            if d_f is None:
                continue
            m2 = max(t for t in dgrid0.values
                     if _modulus(space0, hinv.table, t) <= d_f)
            lhs = _delta_star(t_c0, eps).delta_star
            checks += 1
            if lhs is None or lhs < m2:
                return trial.refuted(
                    "4", trials, checks, kind="bijection", perm=list(hperm),
                    eps=_frac_str(eps), eps_back=_frac_str(eps_back),
                    delta_original=_frac_str(d_f),
                    delta_required=_frac_str(m2),
                    delta_conjugated=_frac_str(lhs),
                )
    if skipped:
        notes.append(f"{skipped} trial(s) had no non-isometric bijection")
    return TheoremReport("4", trials, trials, checks, True, None, tuple(notes))


def _item_5(trials: int, seed: int, max_points: int, budget: int) -> TheoremReport:
    # blending measures never hurts more than the worse ingredient, once the
    # tolerance is clamped under half the separation constant
    checks = 0
    weights = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    for trial in _trials(trials, seed, max_points, budget):
        f = trial.f
        space = f.space
        e = default_expansivity_constant(f)
        mu = _random_measure(space, trial.rng)
        nu = _random_measure(space, trial.rng)
        combos = [convex_combine(t, mu, nu) for t in weights]
        t_mu, t_nu, *t_combos = _tolerance_tables(
            f, [MeasureTarget(m) for m in [mu, nu, *combos]], budget)
        for t, combo, t_combo in zip(weights, combos, t_combos):
            for eps in ThresholdGrid.epsilons(space, combo):
                eps_c = min(e / 2, eps)
                rhs_a = _delta_star(t_mu, eps_c).delta_star
                rhs_b = _delta_star(t_nu, eps_c).delta_star
                lhs = _delta_star(t_combo, eps).delta_star
                checks += 1
                rhs = None
                if rhs_a is not None and rhs_b is not None:
                    rhs = min(rhs_a, rhs_b)
                if rhs is not None and (lhs is None or lhs < rhs):
                    return trial.refuted(
                        "5", trials, checks, blend=_frac_str(t),
                        eps=_frac_str(eps), eps_clamped=_frac_str(eps_c),
                        delta_blend=_frac_str(lhs),
                        delta_mu=_frac_str(rhs_a), delta_nu=_frac_str(rhs_b),
                        mu=[_frac_str(w) for w in mu.weights],
                        nu=[_frac_str(w) for w in nu.weights],
                    )
    return TheoremReport("5", trials, trials, checks, True, None)


def _item_7(trials: int, seed: int, max_points: int, budget: int) -> TheoremReport:
    # the shadowing threshold at the clamped tolerance lower-bounds the
    # stability threshold, and the constructive witness route certifies it
    checks = 0
    notes: list[str] = []
    cap = 128
    sampled = False
    for trial in _trials(trials, seed, max_points, budget):
        f = trial.f
        e = default_expansivity_constant(f)
        measures = trial.sysf.measures
        mu = measures["dirac"] if trial.index % 2 else measures["full"]
        (t_mu,) = _tolerance_tables(f, [MeasureTarget(mu)], budget)
        for eps in ThresholdGrid.epsilons(f.space, mu):
            eps1 = min(e, eps) / 8
            delta_w = shadowing_delta(f, eps1, MODE_WEAK, mu)
            lhs = _delta_star(t_mu, eps).delta_star
            checks += 1
            if lhs is None or lhs < delta_w:
                return trial.refuted(
                    "7", trials, checks, eps=_frac_str(eps),
                    eps_clamped=_frac_str(eps1),
                    delta_shadowing=_frac_str(delta_w),
                    delta_stability=_frac_str(lhs),
                    measure=[_frac_str(w) for w in mu.weights],
                )
            if eps <= 0:
                continue
            ball = list(enumerate_perturbations(f, delta_w, budget))
            if len(ball) > cap:
                ball = random.Random(seed * 7919 + trial.index).sample(ball, cap)
                sampled = True
            for g in ball:
                cert = build_semiconjugacy(f, g, mu, eps, e)
                result = verify_semiconjugacy(cert)
                checks += 1
                if not (result.passed and cert.passed
                        and cert.mass_defect <= cert.epsilon):
                    return trial.refuted(
                        "7", trials, checks, eps=_frac_str(eps),
                        perturbation=list(g.table),
                        failed_checks=[c.name for c in result.checks if not c.passed],
                    )
    if sampled:
        notes.append(f"witness balls larger than {cap} maps were sampled")
    return TheoremReport("7", trials, trials, checks, True, None, tuple(notes))


def _item_basicas(trials: int, seed: int, max_points: int, budget: int) -> TheoremReport:
    # fixed pinned-down system: the three flavours separate exactly as frozen
    space, f, p = isolated_point_system()
    mu = Measure.dirac(space, p)
    t_point, t_meas, t_sv = _tolerance_tables(
        f, [PointTarget(p), MeasureTarget(mu), SetValuedTarget(mu)])
    half, one, ten = Fraction(1, 2), Fraction(1), Fraction(10)
    expected = [
        ("point", t_point, half, one),
        ("point", t_point, one, one),
        ("point", t_point, ten, ten),
        ("measure", t_meas, half, one),
        ("measure", t_meas, one, ten),
        ("measure", t_meas, ten, ten),
        ("setvalued", t_sv, half, None),
        ("setvalued", t_sv, one, ten),
        ("setvalued", t_sv, ten, ten),
    ]
    checks = 0
    for mode, table, eps, want in expected:
        got = _delta_star(table, eps).delta_star
        checks += 1
        if got != want:
            return TheoremReport(
                "basicas", 1, 1, checks, False,
                {"mode": mode, "eps": _frac_str(eps),
                 "expected": _frac_str(want), "got": _frac_str(got)},
            )
    # marked point and point mass agree strictly below 1, split at 1
    for eps in ThresholdGrid.epsilons(space, mu):
        checks += 1
        a = _delta_star(t_point, eps).delta_star
        b = _delta_star(t_meas, eps).delta_star
        if eps < 1 and a != b:
            return TheoremReport(
                "basicas", 1, 1, checks, False,
                {"mode": "agreement", "eps": _frac_str(eps),
                 "point": _frac_str(a), "measure": _frac_str(b)},
            )
    if _delta_star(t_point, one).delta_star == _delta_star(t_meas, one).delta_star:
        return TheoremReport(
            "basicas", 1, 1, checks + 1, False,
            {"mode": "divergence", "eps": "1",
             "reason": "modes failed to separate at tolerance 1"},
        )
    return TheoremReport("basicas", 1, 1, checks + 1, True, None)


_ITEM_CHECKS = {
    "1": _item_1,
    "2": _item_2,
    "4": _item_4,
    "5": _item_5,
    "7": _item_7,
    "basicas": _item_basicas,
}


def theorem_check(
    item: str,
    trials: int = 40,
    seed: int = 0,
    max_points: int = 4,
    budget: int = DEFAULT_BUDGET,
) -> TheoremReport:
    """Probe one transfer principle on randomly generated systems.

    Every reported counterexample carries the generator coordinates and the
    full system, so failures replay deterministically.  ``basicas`` ignores
    trials/max_points: it is a single pinned system with frozen expectations.
    """
    if item not in _ITEM_CHECKS:
        raise UsageError(
            f"unknown theorem item {item!r}; pick one of {', '.join(THEOREM_ITEMS)}"
        )
    if trials < 1:
        raise OutOfRange("trials must be >= 1")
    if max_points < 2:
        raise OutOfRange("max_points must be >= 2")
    return _ITEM_CHECKS[item](trials, seed, max_points, budget)
