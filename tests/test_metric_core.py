"""Spaces, maps, measures and the exact-rational primitives."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mustab import (
    EndoMap,
    Measure,
    ThresholdGrid,
    abs_continuity_witness,
    ac_threshold,
    atoms,
    c0_distance,
    convex_combine,
    enumerate_perturbations,
    exact,
    is_abs_continuous,
    perturbation_count,
    pushforward,
    render_rational,
    sample_perturbations,
    subset_masses,
    validate_space,
)
from mustab.errors import (
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

from bruteforce import naive_ac_threshold, all_subsets


# ---------------------------------------------------------------------------
# exact() / render_rational


def test_exact_accepts_fractions_ints_strings():
    assert exact(Fraction(3, 4)) == Fraction(3, 4)
    assert exact(7) == Fraction(7)
    assert exact("3/4") == Fraction(3, 4)
    assert exact(" 2 ") == Fraction(2)


def test_exact_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        exact(0.5)
    with pytest.raises(TypeError):
        exact(True)


def test_render_rational_round_trips():
    for text in ("0", "7/2", "3", "1/1000000"):
        assert render_rational(exact(text)) == text


# ---------------------------------------------------------------------------
# validate_space


def test_two_point_space_is_valid():
    space = validate_space(("a", "b"), ((0, 1), (1, 0)))
    assert space.n == 2
    assert space.dist[0][1] == 1
    assert space.d_min == 1
    assert space.diameter == 1


def test_zero_off_diagonal_detected():
    with pytest.raises(ZeroOffDiagonal) as exc:
        validate_space(("a", "b"), ((0, 0), (0, 0)))
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_triangle_violation_carries_witness():
    with pytest.raises(TriangleViolation) as exc:
        validate_space(("a", "b", "c"), ((0, 1, 3), (1, 0, 1), (3, 1, 0)))
    assert (exc.value.i, exc.value.j, exc.value.k) == (0, 2, 1)


def test_nonsymmetric_detected():
    with pytest.raises(NonSymmetric):
        validate_space(("a", "b"), ((0, 1), (2, 0)))


def test_nonzero_diagonal_detected():
    with pytest.raises(NonzeroDiagonal):
        validate_space(("a", "b"), ((1, 1), (1, 0)))


def test_duplicate_label_detected():
    with pytest.raises(DuplicateLabel):
        validate_space(("a", "a"), ((0, 1), (1, 0)))


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        validate_space(("a", "b"), ((0, -1), (-1, 0)))


def test_nonsquare_matrix_rejected():
    with pytest.raises(ValueError):
        validate_space(("a", "b"), ((0, 1),))


def test_float_distances_rejected():
    with pytest.raises(TypeError):
        validate_space(("a", "b"), ((0, 0.5), (0.5, 0)))


def test_index_lookup(two_point):
    assert two_point.index("b") == 1
    with pytest.raises(KeyError):
        two_point.index("zz")


def test_ball_and_masks(path_space):
    assert path_space.ball(0, Fraction(1)) == frozenset({0, 1})
    masks = path_space.ball_masks(Fraction(1))
    assert masks[0] == 0b0011
    assert masks[1] == 0b0111
    assert masks[2] == 0b1110


# ---------------------------------------------------------------------------
# EndoMap


def test_endomap_validates_table(two_point):
    with pytest.raises(ValueError):
        EndoMap(two_point, (0,))
    with pytest.raises(ValueError):
        EndoMap(two_point, (0, 2))
    with pytest.raises(ValueError):
        EndoMap(two_point, (0, True))


def test_endomap_iterate_compose_inverse(path_space):
    shift = EndoMap(path_space, (1, 2, 3, 3))
    assert shift.iterate(0, 3) == 3
    assert shift.compose(shift).table == (2, 3, 3, 3)
    assert not shift.is_bijective()
    with pytest.raises(NotBijective):
        shift.inverse()
    swap = EndoMap(path_space, (3, 2, 1, 0))
    assert swap.inverse().table == (3, 2, 1, 0)


# ---------------------------------------------------------------------------
# c0_distance


def test_c0_identical_maps_is_zero(two_point):
    f = EndoMap.identity(two_point)
    assert c0_distance(f, f) == 0


def test_c0_swap_two_points(two_point):
    ident = EndoMap.identity(two_point)
    swap = EndoMap(two_point, (1, 0))
    assert c0_distance(ident, swap) == 1


def test_c0_path_drift(path_space):
    ident = EndoMap.identity(path_space)
    drift = EndoMap(path_space, (1, 2, 3, 3))
    assert c0_distance(ident, drift) == 1


def test_c0_mismatched_space(two_point, path_space):
    with pytest.raises(MismatchedSpace):
        c0_distance(EndoMap.identity(two_point), EndoMap.identity(path_space))


def test_c0_is_a_metric_on_the_map_space(three_cycle):
    """Exhaustive over all 27 maps: symmetry, zero iff equal, triangle."""
    space, _ = three_cycle
    maps = [EndoMap(space, t) for t in product(range(3), repeat=3)]
    for f in maps:
        for g in maps:
            d = c0_distance(f, g)
            assert d == c0_distance(g, f)
            assert (d == 0) == (f.table == g.table)
    for f in maps:
        for g in maps:
            dfg = c0_distance(f, g)
            for h in maps:
                assert dfg <= c0_distance(f, h) + c0_distance(h, g)


# ---------------------------------------------------------------------------
# perturbation enumeration


def test_enumerate_small_ball_is_identity_only(two_point):
    f = EndoMap.identity(two_point)
    out = list(enumerate_perturbations(f, Fraction(1, 2)))
    assert [g.table for g in out] == [(0, 1)]
    assert perturbation_count(f, Fraction(1, 2)) == 1


def test_enumerate_full_ball_two_points(two_point):
    f = EndoMap.identity(two_point)
    out = list(enumerate_perturbations(f, Fraction(1)))
    assert len(out) == 4
    assert perturbation_count(f, Fraction(1)) == 4


def test_perturbation_count_path(path_space):
    f = EndoMap.identity(path_space)
    assert perturbation_count(f, Fraction(1)) == 2 * 3 * 3 * 2


def test_enumeration_matches_naive_filter(path_space):
    """Every map in the ball and only those, cross-checked against all n^n."""
    f = EndoMap(path_space, (1, 0, 2, 2))
    for delta in ThresholdGrid.deltas(path_space):
        got = {g.table for g in enumerate_perturbations(f, delta)}
        want = {
            t
            for t in product(range(4), repeat=4)
            if max(path_space.dist[f.table[i]][t[i]] for i in range(4)) <= delta
        }
        assert got == want


def test_enumeration_order_is_stable(two_point):
    f = EndoMap.identity(two_point)
    a = [g.table for g in enumerate_perturbations(f, Fraction(1))]
    b = [g.table for g in enumerate_perturbations(f, Fraction(1))]
    assert a == b == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumeration_budget(two_point):
    f = EndoMap.identity(two_point)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_perturbations(f, Fraction(1), budget=3)
    assert exc.value.count == 4
    assert exc.value.budget == 3


def test_enumeration_negative_delta(two_point):
    with pytest.raises(OutOfRange):
        perturbation_count(EndoMap.identity(two_point), Fraction(-1))


def test_sample_perturbations_stay_in_ball(path_space):
    f = EndoMap.identity(path_space)
    sample = sample_perturbations(f, Fraction(1), 50, seed=3)
    assert len(sample) == 50
    assert all(c0_distance(f, g) <= 1 for g in sample)
    again = sample_perturbations(f, Fraction(1), 50, seed=3)
    assert [g.table for g in sample] == [g.table for g in again]


# ---------------------------------------------------------------------------
# measures


def test_measure_weights_must_sum_to_one(two_point):
    with pytest.raises(ValueError):
        Measure.from_weights(two_point, ("1/2", "1/3"))
    with pytest.raises(ValueError):
        Measure.from_weights(two_point, ("3/2", "-1/2"))
    with pytest.raises(TypeError):
        Measure(two_point, (0.5, 0.5))


def test_dirac_uniform_mass(two_point):
    ma = Measure.dirac(two_point, 0)
    assert ma.weights == (1, 0)
    u = Measure.uniform(two_point)
    assert u.mass([0]) == Fraction(1, 2)


def test_pushforward_identity(uniform_two, two_point):
    assert pushforward(EndoMap.identity(two_point), uniform_two) == uniform_two


def test_pushforward_swap(two_point):
    mu = Measure.from_weights(two_point, ("2/3", "1/3"))
    swap = EndoMap(two_point, (1, 0))
    assert pushforward(swap, mu).weights == (Fraction(1, 3), Fraction(2, 3))
    assert pushforward(swap, Measure.dirac(two_point, 0)) == Measure.dirac(
        two_point, 1
    )


def test_pushforward_needs_bijection(two_point, uniform_two):
    with pytest.raises(NotBijective):
        pushforward(EndoMap(two_point, (0, 0)), uniform_two)


def test_pushforward_round_trip(path_space):
    rng = random.Random(11)
    for _ in range(25):
        perm = list(range(4))
        rng.shuffle(perm)
        h = EndoMap(path_space, tuple(perm))
        w = [Fraction(rng.randint(0, 5)) for _ in range(4)]
        w[0] += 1
        total = sum(w)
        mu = Measure(path_space, tuple(v / total for v in w))
        assert pushforward(h, pushforward(h.inverse(), mu)) == mu


def test_abs_continuity(two_point, uniform_two):
    ma = Measure.dirac(two_point, 0)
    assert is_abs_continuous(ma, uniform_two)
    assert not is_abs_continuous(uniform_two, ma)
    assert abs_continuity_witness(uniform_two, ma) == 1
    assert is_abs_continuous(uniform_two, uniform_two)


def test_atoms_frozen_cases(two_point, uniform_two):
    assert atoms(uniform_two) == {0, 1}
    assert atoms(Measure.dirac(two_point, 0)) == {0}
    assert atoms(Measure.from_weights(two_point, (1, 0))) == {0}


def test_atoms_agree_with_pointmass_domination(path_space):
    """Atoms are exactly the points whose point mass the measure dominates."""
    rng = random.Random(5)
    for _ in range(250):
        w = [Fraction(rng.randint(0, 3)) for _ in range(4)]
        if sum(w) == 0:
            w[rng.randrange(4)] = Fraction(1)
        total = sum(w)
        mu = Measure(path_space, tuple(v / total for v in w))
        dominated = {
            p
            for p in range(4)
            if is_abs_continuous(Measure.dirac(path_space, p), mu)
        }
        assert atoms(mu) == dominated


def test_convex_combine_endpoints_and_midpoint(two_point, uniform_two):
    ma = Measure.dirac(two_point, 0)
    mb = Measure.dirac(two_point, 1)
    assert convex_combine(1, ma, uniform_two) == ma
    assert convex_combine(0, ma, uniform_two) == uniform_two
    assert convex_combine("1/2", ma, mb) == uniform_two
    with pytest.raises(OutOfRange):
        convex_combine(2, ma, mb)


# ---------------------------------------------------------------------------
# ac_threshold


def test_ac_threshold_uniform_quarter(two_point, uniform_two):
    assert ac_threshold(uniform_two, uniform_two, "1/4") == Fraction(1, 2)


def test_ac_threshold_dirac_zero(two_point, uniform_two):
    ma = Measure.dirac(two_point, 0)
    assert ac_threshold(ma, uniform_two, 0) == Fraction(1, 2)


def test_ac_threshold_infinite_sentinel(uniform_two):
    assert ac_threshold(uniform_two, uniform_two, 1) is None


def test_ac_threshold_requires_domination(two_point, uniform_two):
    ma = Measure.dirac(two_point, 0)
    with pytest.raises(NotAbsolutelyContinuous) as exc:
        ac_threshold(uniform_two, ma, 0)
    assert exc.value.witness == 1


def test_ac_threshold_matches_naive_and_contract(path_space):
    """Random pairs mu << nu: agree with the 2^n scan, and every subset with
    nu-mass under the threshold has mu-mass at most eps."""
    rng = random.Random(23)
    for _ in range(60):
        nw = [Fraction(rng.randint(1, 6)) for _ in range(4)]
        nt = sum(nw)
        nu = Measure(path_space, tuple(v / nt for v in nw))
        mw = [Fraction(rng.randint(0, 6)) for _ in range(4)]
        if sum(mw) == 0:
            mw[0] = Fraction(1)
        mt = sum(mw)
        mu = Measure(path_space, tuple(v / mt for v in mw))
        for eps in (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1)):
            m = ac_threshold(mu, nu, eps)
            assert m == naive_ac_threshold(mu, nu, eps)
            if m is None:
                continue
            assert m > 0
            for B in all_subsets(range(4)):
                if nu.mass(B) < m:
                    assert mu.mass(B) <= eps


# ---------------------------------------------------------------------------
# grids


def test_subset_masses_uniform(uniform_two):
    assert subset_masses(uniform_two) == (0, Fraction(1, 2), 1)


def test_delta_grid_contents(path_space):
    grid = ThresholdGrid.deltas(path_space)
    assert grid.values == (Fraction(1, 2), 1, 2, 3)
    assert grid.top == 3
    assert len(grid) == 4


def test_epsilon_grid_adds_masses(path_space):
    mu = Measure.dirac(path_space, 0)
    grid = ThresholdGrid.epsilons(path_space, mu)
    assert grid.values == (0, Fraction(1, 2), 1, 2, 3)
    bare = ThresholdGrid.epsilons(path_space)
    assert bare.values == (Fraction(1, 2), 1, 2, 3)


def test_one_point_space_grids():
    space = validate_space(("only",), ((0,),))
    assert ThresholdGrid.deltas(space).values == (0,)
    mu = Measure.dirac(space, 0)
    assert ThresholdGrid.epsilons(space, mu).values == (0, 1)


def test_grid_requires_increasing_values():
    with pytest.raises(ValueError):
        ThresholdGrid((Fraction(1), Fraction(1)))


def test_epsilon_grid_checks_space(two_point, path_space):
    with pytest.raises(MismatchedSpace):
        ThresholdGrid.epsilons(two_point, Measure.dirac(path_space, 0))


# ---------------------------------------------------------------------------
# property-based checks


@st.composite
def rational_weights(draw, n=4):
    raw = draw(
        st.lists(
            st.integers(0, 9), min_size=n, max_size=n
        ).filter(lambda xs: sum(xs) > 0)
    )
    total = sum(raw)
    return tuple(Fraction(x, total) for x in raw)


@given(rational_weights(), rational_weights(), st.integers(0, 4))
@settings(max_examples=80)
def test_convex_combine_is_a_measure(wa, wb, num):
    space = validate_space(
        ("0", "1", "2", "3"),
        tuple(tuple(Fraction(abs(i - j)) for j in range(4)) for i in range(4)),
    )
    mu = Measure(space, wa)
    nu = Measure(space, wb)
    t = Fraction(num, 4)
    combo = convex_combine(t, mu, nu)
    assert sum(combo.weights) == 1
    assert atoms(combo) <= atoms(mu) | atoms(nu)


@given(st.lists(st.integers(0, 3), min_size=4, max_size=4),
       st.lists(st.integers(0, 3), min_size=4, max_size=4))
@settings(max_examples=80)
def test_c0_distance_bounds(ta, tb):
    space = validate_space(
        ("0", "1", "2", "3"),
        tuple(tuple(Fraction(abs(i - j)) for j in range(4)) for i in range(4)),
    )
    f = EndoMap(space, tuple(ta))
    g = EndoMap(space, tuple(tb))
    d = c0_distance(f, g)
    assert 0 <= d <= space.diameter
    assert d == c0_distance(g, f)
