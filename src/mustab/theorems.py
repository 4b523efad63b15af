"""Randomized probes of the transfer principles on generated systems.

Each probe draws seeded systems and builds the stability tables it compares
with the machinery in stability.py.  A probe is a generator that yields once
per check: a false value when the check holds, or ``(trial, fields)`` when it
fails, where ``fields`` holds the raw ``Fraction``s, ``Measure``s and Nones
that describe the failure (``trial`` is None for the pinned ``basicas``
system).  A probe with something to note appends it to the ``notes`` list it
is given.  ``theorem_check`` is the one loop over the probes: it counts the
checks and reports the first failure, with everything needed to replay it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .conjugacy import build_semiconjugacy, verify_semiconjugacy
from .core import (
    DEFAULT_BUDGET,
    EndoMap,
    FiniteMetricSpace,
    Measure,
    ThresholdGrid,
    ac_threshold,
    convex_combine,
    enumerate_perturbations,
    perturbation_count,
    pushforward,
    validate_space,
)
from .errors import BudgetExceeded, OutOfRange, UsageError
from .expansivity import default_expansivity_constant
from .shadowing import MODE_WEAK, shadowing_delta
from .stability import (
    MeasureTarget,
    PointTarget,
    SetValuedTarget,
    _delta_star,
    _tolerance_tables,
)
from .systems import GeneratorSpec, SystemFile, generate_system, render_system


@dataclass(frozen=True)
class TheoremReport:
    item: str
    trials: int
    systems: int
    checks: int
    passed: bool
    counterexample: dict | None
    notes: tuple[str, ...] = ()


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


def _json(x):
    """Fractions as strings, measures as their weights, sequences as lists."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Measure):
        return _json(x.weights)
    if isinstance(x, (list, tuple)):
        return [_json(v) for v in x]
    if isinstance(x, dict):
        return {k: _json(v) for k, v in x.items()}
    return x


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
            {"trial": self.index, **_json(fields), **_system_payload(self.sysf, self.spec)},
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


def _item_1(trials: int, seed: int, max_points: int, budget: int,
            notes: list[str]) -> Iterator[tuple | bool]:
    # marked-point stability and point-mass stability agree below tolerance 1.
    # Both tables come from the orbit-forest search rooted at p, with _hmin
    # at the leaves; they differ in the leaf and in what is pruned.  The
    # point leaf is _hmin itself and may be None, which drops every forest
    # ranked at least as high.  The Dirac leaf is _eps_min_measure: the same
    # _hmin capped at the whole mass 1, so never None, and one atom leaves no
    # partial bound to prune by.  The probe checks that prune, that cap and
    # the grid and table layers; _hmin itself is checked only by
    # tests/bruteforce.py.
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
                yield a != b and (trial, dict(
                    point=space.labels[p], eps=eps, point_delta=a, measure_delta=b))


def _item_2(trials: int, seed: int, max_points: int, budget: int,
            notes: list[str]) -> Iterator[tuple | bool]:
    # stability under a dominating measure transfers below the mass threshold
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
                yield (a is None or (b is not None and a < b)) and (trial, dict(
                    eps=eps, eps_transferred=eps2, threshold=thr,
                    delta_dominated=a, delta_dominating=b, mu=mu, nu=nu))


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


def _item_4(trials: int, seed: int, max_points: int, budget: int,
            notes: list[str]) -> Iterator[tuple | bool]:
    # isometric conjugation: identical profiles; general bijection: profiles
    # degrade by no more than the moduli of continuity of the bijection
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
        if grid_a.values != grid_b.values:  # counted as a check only when it fails
            yield trial, dict(kind="isometric", reason="grid mismatch")
        for eps in grid_a:
            a = _delta_star(t_f, eps).delta_star
            b = _delta_star(t_c, eps).delta_star
            yield a != b and (trial, dict(
                kind="isometric", perm=perm, eps=eps, delta_original=a,
                delta_conjugated=b))

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
            yield (lhs is None or lhs < m2) and (trial, dict(
                kind="bijection", perm=hperm, eps=eps, eps_back=eps_back,
                delta_original=d_f, delta_required=m2, delta_conjugated=lhs))
    if skipped:
        notes.append(f"{skipped} trial(s) had no non-isometric bijection")


def _item_5(trials: int, seed: int, max_points: int, budget: int,
            notes: list[str]) -> Iterator[tuple | bool]:
    # blending measures never hurts more than the worse ingredient, once the
    # tolerance is clamped under half the separation constant
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
                rhs = None
                if rhs_a is not None and rhs_b is not None:
                    rhs = min(rhs_a, rhs_b)
                yield (rhs is not None and (lhs is None or lhs < rhs)) and (trial, dict(
                    blend=t, eps=eps, eps_clamped=eps_c, delta_blend=lhs,
                    delta_mu=rhs_a, delta_nu=rhs_b, mu=mu, nu=nu))


def _item_7(trials: int, seed: int, max_points: int, budget: int,
            notes: list[str]) -> Iterator[tuple | bool]:
    # the shadowing threshold at the clamped tolerance lower-bounds the
    # stability threshold, and the constructive witness route certifies it
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
            yield (lhs is None or lhs < delta_w) and (trial, dict(
                eps=eps, eps_clamped=eps1, delta_shadowing=delta_w,
                delta_stability=lhs, measure=mu))
            if eps <= 0:
                continue
            ball = list(enumerate_perturbations(f, delta_w, budget))
            if len(ball) > cap:
                ball = random.Random(seed * 7919 + trial.index).sample(ball, cap)
                sampled = True
            for g in ball:
                cert = build_semiconjugacy(f, g, mu, eps, e)
                result = verify_semiconjugacy(cert)
                ok = result.passed and cert.passed and cert.mass_defect <= cert.epsilon
                yield not ok and (trial, dict(
                    eps=eps, perturbation=g.table,
                    failed_checks=[c.name for c in result.checks if not c.passed]))
    if sampled:
        notes.append(f"witness balls larger than {cap} maps were sampled")


def _item_basicas(trials: int, seed: int, max_points: int, budget: int,
                  notes: list[str]) -> Iterator[tuple | bool]:
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
    for mode, table, eps, want in expected:
        got = _delta_star(table, eps).delta_star
        yield got != want and (None, dict(mode=mode, eps=eps, expected=want, got=got))
    # marked point and point mass agree strictly below 1, split at 1
    for eps in ThresholdGrid.epsilons(space, mu):
        a = _delta_star(t_point, eps).delta_star
        b = _delta_star(t_meas, eps).delta_star
        yield eps < 1 and a != b and (None, dict(
            mode="agreement", eps=eps, point=a, measure=b))
    split = _delta_star(t_point, one).delta_star != _delta_star(t_meas, one).delta_star
    yield not split and (None, dict(
        mode="divergence", eps=one, reason="modes failed to separate at tolerance 1"))


_ITEM_CHECKS = {
    "1": _item_1,
    "2": _item_2,
    "4": _item_4,
    "5": _item_5,
    "7": _item_7,
    "basicas": _item_basicas,
}

THEOREM_ITEMS = tuple(_ITEM_CHECKS)


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
    if item == "basicas":  # one pinned system, so one trial
        trials = 1
    notes: list[str] = []
    checks = 0
    for failure in _ITEM_CHECKS[item](trials, seed, max_points, budget, notes):
        checks += 1
        if failure:
            trial, fields = failure
            if trial is None:
                return TheoremReport(item, trials, trials, checks, False, _json(fields))
            return trial.refuted(item, trials, checks, **fields)
    return TheoremReport(item, trials, trials, checks, True, None, tuple(notes))
