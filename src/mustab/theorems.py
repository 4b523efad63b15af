"""Randomized probes of the transfer principles on generated systems.

Each probe draws seeded systems, builds the stability tables it compares
with the machinery in stability.py, and reports the first counterexample
with everything needed to replay it.
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
    # marked-point stability and point-mass stability agree below tolerance 1.
    # Both tables come from the orbit-forest search rooted at p, with _hmin
    # at the leaves; they differ in the leaf and in what is pruned.  The
    # point leaf is _hmin itself and may be None, which drops every forest
    # ranked at least as high.  The Dirac leaf is _eps_min_measure: the same
    # _hmin capped at the whole mass 1, so never None, and one atom leaves no
    # partial bound to prune by.  The probe checks that prune, that cap and
    # the grid and table layers; _hmin itself is checked only by
    # tests/bruteforce.py.
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
