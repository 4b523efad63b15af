"""Tube automaton, shadowable-start sets, and the independent lasso oracle."""

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest

from mustab import (
    EndoMap,
    GeneratorSpec,
    MODE_ALL,
    MODE_FULL,
    MODE_WEAK,
    Measure,
    SHADOWING_MODES,
    ThresholdGrid,
    exact_oracle_bound,
    generate_system,
    lasso_oracle,
    shadowable_start_set,
    shadowing_delta,
)
from mustab.errors import (
    BoundTooSmallWarning,
    MismatchedSpace,
    MissingMeasure,
    OutOfRange,
)

from bruteforce import direct_tube, random_pseudo_prefix


@dataclass(frozen=True)
class TubeState:
    """Automaton state: last pseudo-orbit point plus the tube of images."""

    last: int
    tube: frozenset[int]


def tube_states(f: EndoMap, eps: Fraction, prefix: list[int] | tuple[int, ...]) -> list[TubeState]:
    """Run the tube automaton along one explicit prefix.

    Returns the state after each prefix point, for comparing the automaton's
    incremental update against a direct definition-level scan.
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


def test_tube_states_need_a_prefix(two_point):
    with pytest.raises(ValueError):
        tube_states(EndoMap.identity(two_point), Fraction(1), [])


def test_tube_matches_direct_scan():
    """The incremental update agrees with the per-candidate definition."""
    rng = random.Random(7)
    for seed in range(10):
        sysf = generate_system(GeneratorSpec(n=3 + seed % 3, seed=200 + seed))
        f = sysf.maps["f"]
        space = f.space
        for _ in range(6):
            eps = rng.choice(space.distance_values + (space.d_min / 2,))
            delta = rng.choice(space.distance_values)
            prefix = random_pseudo_prefix(space, f.table, delta, rng, rng.randint(1, 7))
            states = tube_states(f, eps, prefix)
            assert len(states) == len(prefix)
            for k, st in enumerate(states):
                assert st.last == prefix[k]
                assert st.tube == direct_tube(space, f.table, eps, prefix[: k + 1])


def test_start_set_true_orbits_only(three_cycle):
    space, shift = three_cycle
    for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
        assert shadowable_start_set(shift, eps, Fraction(1, 2)) == {0, 1, 2}


def test_start_set_cycle_breaks_at_full_delta(three_cycle):
    _, shift = three_cycle
    assert shadowable_start_set(shift, Fraction(1, 2), Fraction(1)) == frozenset()


def test_start_set_wide_tolerance_path(path_space):
    ident = EndoMap.identity(path_space)
    assert shadowable_start_set(ident, Fraction(2), Fraction(1)) == {0, 1, 2, 3}


def test_start_set_rejects_negative(two_point):
    with pytest.raises(OutOfRange):
        shadowable_start_set(EndoMap.identity(two_point), Fraction(-1), Fraction(0))


def test_start_set_monotone_in_both_arguments():
    for seed in (0, 1, 2):
        sysf = generate_system(GeneratorSpec(n=4, seed=300 + seed))
        f = sysf.maps["f"]
        space = f.space
        eps_values = ThresholdGrid.epsilons(space).values
        delta_values = ThresholdGrid.deltas(space).values
        for delta in delta_values:
            sets = [shadowable_start_set(f, eps, delta) for eps in eps_values]
            for small, big in zip(sets, sets[1:]):
                assert small <= big  # grows with eps
        for eps in eps_values:
            sets = [shadowable_start_set(f, eps, delta) for delta in delta_values]
            for wide, narrow in zip(sets, sets[1:]):
                assert narrow <= wide  # shrinks with delta


def test_delta_three_cycle(three_cycle):
    _, shift = three_cycle
    assert shadowing_delta(shift, Fraction(1, 2)) == Fraction(1, 2)


def test_delta_path_identity_wide(path_space):
    assert shadowing_delta(EndoMap.identity(path_space), Fraction(2)) == 3


def test_delta_path_dirac_full_mode(path_space):
    ident = EndoMap.identity(path_space)
    m0 = Measure.dirac(path_space, 0)
    assert shadowing_delta(ident, Fraction(1), MODE_FULL, m0) == Fraction(1, 2)
    # "mu" is accepted as an alias for the full-support mode
    assert shadowing_delta(ident, Fraction(1), "mu", m0) == Fraction(1, 2)
    # the weak mode tolerates losing m0's mass entirely at eps = 1
    assert shadowing_delta(ident, Fraction(1), MODE_WEAK, m0) == 3


def test_delta_argument_validation(two_point, path_space):
    ident = EndoMap.identity(two_point)
    with pytest.raises(MissingMeasure):
        shadowing_delta(ident, Fraction(1), MODE_FULL)
    with pytest.raises(ValueError):
        shadowing_delta(ident, Fraction(1), "loose")
    with pytest.raises(MismatchedSpace):
        shadowing_delta(ident, Fraction(1), MODE_FULL, Measure.uniform(path_space))


def test_delta_never_below_subgrid():
    """The sub-grid radius admits only true orbits, which shadow themselves."""
    for seed in range(6):
        sysf = generate_system(GeneratorSpec(n=2 + seed % 4, seed=400 + seed))
        f = sysf.maps["f"]
        floor = f.space.d_min / 2
        assert shadowing_delta(f, Fraction(0)) >= floor
        for mu in sysf.measures.values():
            assert shadowing_delta(f, Fraction(0), MODE_FULL, mu) >= floor


def test_mode_hierarchy_on_seeded_systems():
    """All-points pass implies full-support pass implies mass-tolerant pass."""
    for seed in range(8):
        sysf = generate_system(GeneratorSpec(n=3 + seed % 3, seed=500 + seed))
        f = sysf.maps["f"]
        space = f.space
        for mu in sysf.measures.values():
            for eps in ThresholdGrid.epsilons(space, mu):
                d_all = shadowing_delta(f, eps, MODE_ALL)
                d_full = shadowing_delta(f, eps, MODE_FULL, mu)
                d_weak = shadowing_delta(f, eps, MODE_WEAK, mu)
                assert d_all <= d_full <= d_weak


# ---------------------------------------------------------------------------
# lasso oracle


def test_oracle_bound_value():
    assert exact_oracle_bound(4) == 64
    assert exact_oracle_bound(5) == 160


def test_oracle_subgrid_always_true(three_cycle):
    _, shift = three_cycle
    for x0 in range(3):
        assert lasso_oracle(shift, Fraction(0), Fraction(1, 2), x0, 24)


def test_oracle_refutes_three_cycle(three_cycle):
    _, shift = three_cycle
    assert not lasso_oracle(shift, Fraction(1, 2), Fraction(1), 0, 24)


def test_oracle_path_wide(path_space):
    ident = EndoMap.identity(path_space)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lasso_oracle(ident, Fraction(2), Fraction(1), 0, 64)


def test_oracle_warns_below_exact_bound(path_space):
    ident = EndoMap.identity(path_space)
    with pytest.warns(BoundTooSmallWarning):
        assert lasso_oracle(ident, Fraction(2), Fraction(1), 0, 1)


def test_oracle_false_verdicts_are_silent(three_cycle):
    """Refutations are sound at any bound, so no warning is attached."""
    _, shift = three_cycle
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not lasso_oracle(shift, Fraction(1, 2), Fraction(1), 0, 3)


def test_oracle_validates_arguments(two_point):
    ident = EndoMap.identity(two_point)
    with pytest.raises(OutOfRange):
        lasso_oracle(ident, Fraction(-1), Fraction(0), 0, 8)
    with pytest.raises(OutOfRange):
        lasso_oracle(ident, Fraction(0), Fraction(0), 5, 8)
    with pytest.raises(OutOfRange):
        lasso_oracle(ident, Fraction(0), Fraction(0), 0, -1)


def test_oracle_agrees_with_automaton_small_system():
    """One generated 3-point system, every grid pair, every start."""
    sysf = generate_system(GeneratorSpec(n=3, seed=77))
    f = sysf.maps["f"]
    space = f.space
    bound = exact_oracle_bound(3)
    for eps in ThresholdGrid.epsilons(space):
        for delta in ThresholdGrid.deltas(space):
            s = shadowable_start_set(f, eps, delta)
            for x0 in range(space.n):
                assert (x0 in s) == lasso_oracle(f, eps, delta, x0, bound)


# ---------------------------------------------------------------------------
# shadowing_delta and off-grid start sets against the lasso oracle


def _oracle_starts(f, eps, delta):
    bound = exact_oracle_bound(f.space.n)
    return frozenset(
        x0 for x0 in range(f.space.n) if lasso_oracle(f, eps, delta, x0, bound)
    )


def _scan_delta(f, eps, mode, mu, oracle):
    """Top-down scan of the delta grid over oracle start sets."""
    n = f.space.n
    for delta in reversed(ThresholdGrid.deltas(f.space).values):
        s = oracle[delta]
        if mode == MODE_ALL:
            ok = len(s) == n
        elif mode == MODE_FULL:
            ok = all(p in s for p in range(n) if mu.weights[p] > 0)
        else:
            ok = mu.mass(s) >= 1 - eps
        if ok:
            return delta
    return None


@pytest.mark.parametrize("which", ["cluster", "three_cycle"])
def test_delta_and_off_grid_starts_match_oracle_on_every_self_map(
    which, cluster_space, three_cycle
):
    space = cluster_space if which == "cluster" else three_cycle[0]
    n = space.n
    deltas = ThresholdGrid.deltas(space).values
    off_grid = tuple((a + b) / 2 for a, b in zip(deltas, deltas[1:]))
    off_grid += (space.diameter + 1,)
    measures = (Measure.dirac(space, 0), Measure.uniform(space))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ftab in product(range(n), repeat=n):
            f = EndoMap(space, ftab)
            eps_values = set()
            for mu in measures:
                eps_values.update(ThresholdGrid.epsilons(space, mu).values)
            oracles = {
                eps: {d: _oracle_starts(f, eps, d) for d in deltas + off_grid}
                for eps in sorted(eps_values)
            }
            for eps, oracle in oracles.items():
                for delta in off_grid:
                    assert shadowable_start_set(f, eps, delta) == oracle[delta], (
                        ftab, eps, delta)
            for mu in measures:
                for eps in ThresholdGrid.epsilons(space, mu):
                    oracle = oracles[eps]
                    for mode in SHADOWING_MODES:
                        want = _scan_delta(f, eps, mode, mu, oracle)
                        got = shadowing_delta(f, eps, mode, mu)
                        assert got == want, (ftab, mu.weights, eps, mode)


def test_repeated_calls_on_one_map_match_fresh_maps():
    """Answers on one map, asked in shuffled order, equal a fresh map's."""
    rng = random.Random(5)
    for seed in (600, 601, 602):
        sysf = generate_system(GeneratorSpec(n=5, seed=seed))
        f = sysf.maps["f"]
        mu = sysf.measures["full"]
        space = f.space
        eps_values = list(ThresholdGrid.epsilons(space, mu).values)
        deltas = ThresholdGrid.deltas(space).values
        for _ in range(2):
            rng.shuffle(eps_values)
            for eps in eps_values:
                fresh = EndoMap(space, f.table)
                mode = rng.choice(SHADOWING_MODES)
                assert shadowing_delta(f, eps, mode, mu) == shadowing_delta(
                    fresh, eps, mode, mu)
                delta = rng.choice(deltas)
                assert shadowable_start_set(f, eps, delta) == shadowable_start_set(
                    EndoMap(space, f.table), eps, delta)
