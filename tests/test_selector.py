"""Selection algorithm tests: greedy residual reduction, bisection to
exact feasibility, ball-union reachability, and the exhaustive oracles."""

import gc
import itertools
import math
import signal
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from conftest import copy_accumulator, random_actuators, random_system
from minreach import (
    EPS_FLOOR_REL,
    EXACT_TOL,
    ActuatorSet,
    Ball,
    CapacityError,
    GreedyTrace,
    HittingSetInstance,
    InputError,
    LtiSystem,
    NumericalInfeasibilityError,
    TIE_BAND_REL,
    TransferSpec,
    bisection_exact,
    brute_force_opt,
    build_lemma1,
    build_lemma2,
    epsilon_a,
    erdos_renyi,
    greedy_eps,
    is_controllable,
    is_feasible,
    min_hitting_set,
    random_target,
    reachable_subspace,
    residual,
    star,
    subset_reach,
    transfer_vector,
)
from minreach import reachcore, selector
from minreach.numkit import RANK_TOL, _SpanBuilder
from minreach.reachcore import _ReachAccumulator
from test_reachcore import block_diagonal, permuted, twin_blocks

DIAG12 = LtiSystem(np.diag([1.0, 2.0]))


class Hung(Exception):
    pass


def within_seconds(seconds, call):
    """Run ``call()`` and raise Hung if it outlasts `seconds`."""

    def expire(signum, frame):
        raise Hung(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def star_transfer(x1):
    sys_ = star(4)
    spec = TransferSpec(x0=np.zeros(5), x1=np.array(x1, dtype=float))
    return sys_, transfer_vector(sys_, spec)


class TestGreedyTrace:
    def test_valid_trace(self):
        trace = GreedyTrace(chosen=(1, 2), residuals=(2.0, 1.0, 0.0), epsilon=1e-6)
        assert trace.chosen == (1, 2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            GreedyTrace(chosen=(1,), residuals=(2.0, 1.0, 0.0), epsilon=1.0)

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            GreedyTrace(chosen=(1, 1), residuals=(2.0, 1.0, 0.5), epsilon=1.0)

    def test_rejects_non_decreasing_residuals(self):
        with pytest.raises(InputError):
            GreedyTrace(chosen=(1, 2), residuals=(2.0, 1.0, 1.0), epsilon=2.0)

    def test_rejects_final_above_epsilon(self):
        with pytest.raises(InputError):
            GreedyTrace(chosen=(1,), residuals=(2.0, 1.0), epsilon=0.5)

    @pytest.mark.parametrize("index", [1.5, True, "1"])
    def test_rejects_a_pick_that_is_not_an_integer(self, index):
        with pytest.raises(InputError):
            GreedyTrace(chosen=(index,), residuals=(2.0, 1.0), epsilon=1.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, "1.0", True])
    def test_rejects_an_epsilon_that_is_not_a_finite_number(self, epsilon):
        with pytest.raises(InputError, match=r"^epsilon: "):
            GreedyTrace(chosen=(1,), residuals=(2.0, 1.0), epsilon=epsilon)

    @pytest.mark.parametrize("residual", ["1.0", True, math.inf])
    def test_rejects_a_residual_that_is_not_a_finite_number(self, residual):
        with pytest.raises(InputError, match=r"^residuals: "):
            GreedyTrace(chosen=(1,), residuals=(2.0, residual), epsilon=1.5)

    def test_accepts_integral_picks(self):
        trace = GreedyTrace(
            chosen=(2.0, np.int64(1)), residuals=(2.0, 1.0, 0.0), epsilon=0.5
        )
        assert trace.chosen == (2, 1)
        assert all(type(i) is int for i in trace.chosen)


class TestBall:
    def test_rejects_non_positive_radius(self):
        with pytest.raises(InputError):
            Ball(center=[1.0], radius_sq=0.0)
        with pytest.raises(InputError):
            Ball(center=[1.0], radius_sq=-1.0)

    def test_rejects_non_finite_center(self):
        with pytest.raises(InputError):
            Ball(center=[np.nan], radius_sq=1.0)


class TestGreedyEps:
    def test_loose_threshold_selects_nothing(self):
        rng = np.random.default_rng(113)
        sys_ = random_system(rng, 4)
        v = rng.standard_normal(4)
        delta, trace = greedy_eps(sys_, v, float(v @ v) + 1.0)
        assert delta.cardinality == 0
        assert trace.residuals == (pytest.approx(float(v @ v)),)

    def test_zero_vector_selects_nothing(self):
        delta, trace = greedy_eps(DIAG12, [0.0, 0.0], 1e-9)
        assert delta.cardinality == 0
        assert trace.residuals == (0.0,)

    def test_diagonal_axis_by_axis(self):
        delta, trace = greedy_eps(DIAG12, [1.0, 1.0], 1e-6)
        assert delta.indices == (1, 2)
        assert trace.chosen == (1, 2)
        assert trace.residuals == (
            pytest.approx(2.0, abs=1e-12),
            pytest.approx(1.0, abs=1e-12),
            pytest.approx(0.0, abs=1e-12),
        )

    def test_first_pick_can_leave_more_than_the_optimum_bound(self):
        # The residual is not supermodular in the set (Jadbabaie, Olshevsky,
        # Pappas and Tzoumas, IEEE TAC 2019), so no contraction by
        # 1 - 1/k* per pick holds: here k* = 2, and the best single index
        # leaves more than half of ||v||^2. The trace still strictly
        # decreases and stops at the first residual at most eps.
        a = np.zeros((5, 5))
        a[0, 1], a[0, 4], a[1, 2] = 0.29003177, 0.27121503, 1.22774495
        a[2, 2], a[3, 1] = 0.34999058, -0.93768133
        sys_ = LtiSystem(a)
        v = np.array([0.70567885, 0.85337443, 0.36007212, 1.4745147, -1.11134686])
        nv2 = float(v @ v)
        eps = 1e-6 * nv2
        assert brute_force_opt(sys_, v, eps).indices == (3, 5)
        singles = [residual(sys_, ActuatorSet(5, (i,)), v) for i in range(1, 6)]
        assert min(singles) == singles[2] > nv2 / 2
        delta, trace = greedy_eps(sys_, v, eps)
        assert delta.indices == trace.chosen == (3, 5)
        assert trace.residuals[:2] == (nv2, singles[2])
        assert trace.residuals[1] > eps >= trace.residuals[2]

    def test_rejects_non_positive_eps(self):
        with pytest.raises(InputError):
            greedy_eps(DIAG12, [1.0, 1.0], 0.0)
        with pytest.raises(InputError):
            greedy_eps(DIAG12, [1.0, 1.0], -1.0)

    def test_terminates_below_threshold(self):
        rng = np.random.default_rng(127)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            sys_ = random_system(rng, n)
            v = rng.standard_normal(n)
            eps = 1e-3 * float(v @ v)
            delta, trace = greedy_eps(sys_, v, eps)
            assert trace.residuals[-1] <= eps
            assert delta.cardinality <= n
            assert delta.indices == tuple(sorted(trace.chosen))

    def test_smallest_index_tie_break(self):
        # Both axes give an identical gain of 1 for the first pick.
        delta, trace = greedy_eps(DIAG12, [1.0, 1.0], 1.5)
        assert trace.chosen == (1,)

    @pytest.mark.parametrize("n", [25, 50, 100])
    def test_gains_equal_up_to_rounding_tie_to_the_smallest_index(self, n):
        # Every closure spans the whole space, so every first gain is
        # ||v||^2 up to rounding.
        sys_ = erdos_renyi(n, 0)
        v = random_target(n, 0)
        _, trace = greedy_eps(sys_, v, 0.5 * float(v @ v))
        assert trace.chosen[0] == 1

    def test_a_gain_clearly_above_the_tie_band_wins_at_a_higher_index(self):
        # The band here is TIE_BAND_REL * 2 * ||v||^2, about 2^-48. Gains 1
        # and (1 + 2^-40)^2 differ by about 2^-39; 1 and (1 + 2^-52)^2 by 2^-51.
        assert 2**-49 < TIE_BAND_REL * 2 * 2.0 < 2**-47
        _, trace = greedy_eps(DIAG12, [1.0, 1.0 + 2.0**-40], 1.5)
        assert trace.chosen == (2,)
        _, trace = greedy_eps(DIAG12, [1.0, 1.0 + 2.0**-52], 1.5)
        assert trace.chosen == (1,)


class TestBisectionExact:
    @pytest.mark.parametrize(
        "x1, expected",
        [
            ([1, 0, 0, 0, 0], (1,)),
            ([0, 1, 1, 0, 0], (2, 3)),
            ([1, 1, 1, 0, 0], (2, 3)),
        ],
    )
    def test_star_network_published_sets(self, x1, expected):
        sys_, v = star_transfer(x1)
        delta, final_eps, trace = bisection_exact(sys_, v, 0.001)
        assert delta.indices == expected
        report = is_feasible(sys_, delta, v)
        assert report.feasible
        assert abs(final_eps - epsilon_a(sys_, v)) <= 0.001 / 2.0

    def test_output_always_exactly_feasible(self):
        rng = np.random.default_rng(131)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            sys_ = random_system(rng, n)
            v = rng.standard_normal(n)
            delta, final_eps, trace = bisection_exact(sys_, v, 1e-3 * float(v @ v))
            assert is_feasible(sys_, delta, v).feasible
            assert 0.0 < final_eps <= float(v @ v)
            assert trace.residuals[-1] <= final_eps

    def test_terminates_when_accuracy_is_below_float_spacing(self):
        # ||v||^2 = 2e12, where floats are about 2.4e-4 apart: the bracket
        # stops shrinking long before its width reaches 1e-6.
        sys_, v = star_transfer([0, 1e6, 1e6, 0, 0])
        delta, final_eps, trace = within_seconds(
            10, lambda: bisection_exact(sys_, v, 1e-6)
        )
        assert set(delta.indices) == {2, 3}
        assert is_feasible(sys_, delta, v).feasible
        assert trace.residuals[-1] <= final_eps

    def test_a_stuck_path_raises_its_own_error(self):
        # The stuck center lies off W's range, so no pick reduces its
        # residual: the first probe, at half of ||v||^2, raises the path's
        # error, as greedy_eps at that threshold does.
        sys_, stuck, _ = stuck_union()
        v = stuck.center
        nv2 = float(v @ v)
        with pytest.raises(NumericalInfeasibilityError) as got:
            bisection_exact(sys_, v, 1e-3)
        with pytest.raises(NumericalInfeasibilityError) as want:
            greedy_eps(sys_, v, nv2 / 2.0)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("no candidate reduces the residual below ")
        assert got.value.residual_sq == want.value.residual_sq == nv2

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            bisection_exact(DIAG12, [1.0, 1.0], 0.0)
        with pytest.raises(InputError):
            bisection_exact(DIAG12, [0.0, 0.0], 1e-3)


def naive_bisection(sys_, v, accuracy):
    """Reference for bisection_exact: the same bracket arithmetic and final
    ladder, with a fresh public greedy_eps run at every probe."""
    nv2 = float(v @ v)
    floor = EPS_FLOOR_REL * nv2
    exact = EXACT_TOL * nv2
    lo, hi = 0.0, nv2
    eps = (lo + hi) / 2.0
    last_feasible = False
    while hi - lo > accuracy and lo < eps < hi:
        _, trace = greedy_eps(sys_, v, max(eps, floor))
        last_feasible = trace.residuals[-1] <= exact
        if last_feasible:
            lo = eps
        else:
            hi = eps
        eps = (lo + hi) / 2.0
    if not last_feasible:
        hi = eps
        eps = (lo + hi) / 2.0
    ladder = [max(eps, floor)] + ([lo] if lo > floor else []) + [floor]
    for probe in dict.fromkeys(ladder):
        delta, trace = greedy_eps(sys_, v, probe)
        if trace.residuals[-1] <= exact:
            return delta, probe, trace
    raise AssertionError("a greedy run at the floor ended above the exact tolerance")


def outcome(call):
    try:
        delta, eps_used, trace = call()
    except NumericalInfeasibilityError as exc:
        return ("error", str(exc), exc.residual_sq)
    return ("ok", delta.indices, eps_used, trace.chosen, trace.residuals, trace.epsilon)


def equivalence_systems(rng):
    """Erdos-Renyi digraphs, 2x2 block-diagonal systems, and weighted
    systems whose output dimension exceeds the state dimension."""
    systems = [erdos_renyi(int(rng.integers(4, 16)), seed) for seed in range(17)]
    for _ in range(17):
        blocks = int(rng.integers(1, 5))
        a = np.zeros((2 * blocks, 2 * blocks))
        for b in range(blocks):
            a[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = rng.standard_normal((2, 2))
        systems.append(LtiSystem(a))
    for _ in range(16):
        n = int(rng.integers(2, 6))
        q = int(rng.integers(n + 1, n + 4))
        systems.append(LtiSystem(rng.standard_normal((n, n)), rng.standard_normal((q, n))))
    return systems


class TestLargeExactSolve:
    def test_n300_exact_solve_takes_under_five_seconds(self):
        sys_ = erdos_renyi(300, 1)
        delta, _, trace = within_seconds(
            5, lambda: bisection_exact(sys_, random_target(300, 1), 1.0)
        )
        assert delta.cardinality == 1
        assert trace.residuals[-1] <= EXACT_TOL * trace.residuals[0]


class TestBisectionMatchesNaive:
    def test_fifty_seeded_systems(self):
        rng = np.random.default_rng(179)
        kinds = set()
        for sys_ in equivalence_systems(rng):
            v = rng.standard_normal(sys_.output_dim) * float(10.0 ** rng.integers(-3, 4))
            for rel in (1e-3, 1e-9):
                accuracy = rel * float(v @ v)
                got = outcome(lambda: bisection_exact(sys_, v, accuracy))
                want = outcome(lambda: naive_bisection(sys_, v, accuracy))
                assert got == want
                kinds.add(got[0])
        assert kinds == {"ok", "error"}


class TestSubsetReach:
    def test_origin_ball_needs_nothing(self):
        rng = np.random.default_rng(137)
        sys_ = random_system(rng, 3)
        delta, ball_index = subset_reach(sys_, [Ball(np.zeros(3), 1e-6)])
        assert delta.cardinality == 0
        assert ball_index == 1

    def test_picks_cheaper_ball(self):
        balls = [
            Ball(center=[1.0, 1.0], radius_sq=1e-6),
            Ball(center=[1.0, 0.0], radius_sq=1e-6),
        ]
        delta, ball_index = subset_reach(DIAG12, balls)
        assert delta.indices == (1,)
        assert ball_index == 2

    def test_star_single_ball(self):
        sys_ = star(4)
        center = np.zeros(5)
        center[0] = 1.0
        delta, ball_index = subset_reach(sys_, [Ball(center, 1e-6)])
        assert delta.cardinality == 1
        assert ball_index == 1

    def test_duplicate_balls_tie_to_smallest_index(self):
        ball = Ball(center=[1.0, 1.0], radius_sq=1e-6)
        _, ball_index = subset_reach(DIAG12, [ball, ball])
        assert ball_index == 1

    def test_rejects_empty_list(self):
        with pytest.raises(InputError):
            subset_reach(DIAG12, [])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InputError):
            subset_reach(DIAG12, [Ball(center=[1.0, 2.0, 3.0], radius_sq=1.0)])

    @pytest.mark.parametrize("stuck_first", [True, False])
    def test_a_ball_the_greedy_cannot_reach_loses(self, stuck_first):
        sys_, stuck, reachable = stuck_union()
        balls = [stuck, reachable] if stuck_first else [reachable, stuck]
        want, _ = greedy_eps(sys_, reachable.center, reachable.radius_sq)
        assert want.cardinality == 2
        assert subset_reach(sys_, balls) == (want, 2 if stuck_first else 1)

    def test_a_union_no_greedy_reaches_raises_the_first_balls_error(self):
        # The message names how many balls were tried, then gives the
        # first ball's error.
        sys_, stuck, _ = stuck_union()
        balls = [stuck, Ball(2.0 * stuck.center, stuck.radius_sq)]
        with pytest.raises(NumericalInfeasibilityError) as first:
            greedy_eps(sys_, stuck.center, stuck.radius_sq)
        with pytest.raises(NumericalInfeasibilityError) as got:
            subset_reach(sys_, balls)
        assert str(got.value) == f"no ball is reached (2 tried); ball 1: {first.value}"
        assert got.value.residual_sq == first.value.residual_sq

    def test_balls_after_a_one_pick_best_make_no_greedy_run(self, greedy_runs):
        # Only the empty set beats one pick, and it needs no run.
        n = 40
        rng = np.random.default_rng(197)
        sys_ = LtiSystem(erdos_renyi(n, 2).a, rng.standard_normal((n // 2, n)))
        balls = [Ball(sys_.w @ random_target(n, 20 + k), 0.05) for k in range(8)]
        per_ball = [
            greedy_eps(LtiSystem(sys_.a, sys_.w), ball.center, ball.radius_sq)[0]
            for ball in balls
        ]
        assert [delta.cardinality for delta in per_ball] == [1] * 8
        greedy_runs.clear()
        assert subset_reach(sys_, balls) == (per_ball[0], 1)
        assert len(greedy_runs) == 1

    def test_no_ball_after_an_empty_best_is_looked_at(self, greedy_runs):
        # Ball 2 holds the origin; ball 3 would need a run and ball 4 is stuck.
        sys_, stuck, reachable = stuck_union()
        holds_origin = Ball(reachable.center, 2.0 * float(reachable.center @ reachable.center))
        balls = [reachable, holds_origin, reachable, stuck]
        assert subset_reach(sys_, balls) == (ActuatorSet(sys_.n, []), 2)
        assert len(greedy_runs) == 1

    def test_reported_ball_is_reached(self):
        rng = np.random.default_rng(139)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            sys_ = random_system(rng, n)
            balls = [
                Ball(rng.standard_normal(n), float(rng.uniform(0.01, 1.0)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            delta, ball_index = subset_reach(sys_, balls)
            winner = balls[ball_index - 1]
            assert residual(sys_, delta, winner.center) <= winner.radius_sq


def stuck_union():
    """A system of a 2-state and a 1-state block with five output rows, a
    ball centered off W's range, where every greedy gets stuck, and a
    reachable ball that takes two picks, both of squared radius 1e-6."""
    rng = np.random.default_rng(20)
    a = rng.standard_normal((3, 3))
    a[:2, 2] = a[2, :2] = 0.0
    w = rng.standard_normal((5, 3))
    q, _ = np.linalg.qr(w, mode="complete")
    stuck = Ball(q[:, 3] + 0.5 * q[:, 4], 1e-6)
    reachable = Ball(w @ rng.standard_normal(3), 1e-6)
    return LtiSystem(a, w), stuck, reachable


@pytest.fixture
def greedy_runs(monkeypatch):
    """The path of every _greedy_core run made from now on, in order."""
    paths = []
    core = selector._greedy_core

    def recording(path, *args):
        paths.append(path)
        core(path, *args)

    monkeypatch.setattr(selector, "_greedy_core", recording)
    return paths


def per_ball_subset_reach(sys_, balls):
    """subset_reach by one greedy_eps per ball, each on a fresh twin of the
    system: the smallest set wins, ties to the smallest index, and a ball
    whose greedy raises is skipped. With no ball reached, the first ball's
    error is raised, its message after the number of balls tried."""
    best, first_error = None, None
    for k, ball in enumerate(balls, start=1):
        try:
            delta, _ = greedy_eps(LtiSystem(sys_.a, sys_.w), ball.center, ball.radius_sq)
        except NumericalInfeasibilityError as exc:
            first_error = first_error or exc
            continue
        if best is None or delta.cardinality < best[0].cardinality:
            best = (delta, k)
    if best is None:
        raise NumericalInfeasibilityError(
            f"no ball is reached ({len(balls)} tried); ball 1: {first_error}",
            residual_sq=first_error.residual_sq,
        )
    return best


def union_outcome(call):
    try:
        delta, ball_index = call()
    except NumericalInfeasibilityError as exc:
        return ("error", str(exc), exc.residual_sq)
    return ("ok", delta, ball_index)


def counted_builds(monkeypatch):
    """The 0-based indices whose closures get built from now on, in order."""
    built = []
    build = reachcore._index_closure

    def counting(a, i0, cap):
        built.append(i0)
        return build(a, i0, cap)

    monkeypatch.setattr(reachcore, "_index_closure", counting)
    return built


def ten_permuted_blocks(seed, weighted=False):
    """A system of ten Gaussian 4-state blocks with its states relabelled,
    and a target: each block needs its own actuator, so a greedy run to a
    tight threshold takes ten picks. A weighted one has 43 output rows."""
    rng = np.random.default_rng(seed)
    a = permuted(rng, block_diagonal(rng, [4] * 10))
    if not weighted:
        return LtiSystem(a), rng.standard_normal(40)
    # 43 output rows: no span of fewer than ten blocks fills the output
    # space, and a target in W's range is reachable.
    w = rng.standard_normal((43, 40))
    return LtiSystem(a, w), w @ rng.standard_normal(40)


@pytest.fixture
def include_calls(monkeypatch):
    """The 0-based index of every _ReachAccumulator.include call made."""
    calls = []
    include = _ReachAccumulator.include

    def counting(acc, i0):
        calls.append(i0)
        return include(acc, i0)

    monkeypatch.setattr(_ReachAccumulator, "include", counting)
    return calls


class TestSharedClosureCache:
    def test_subset_reach_matches_per_ball_greedy_on_fresh_systems(self):
        rng = np.random.default_rng(181)
        for k in range(20):
            n = int(rng.integers(2, 7))
            sys_ = random_system(rng, n, weighted=bool(k % 2))
            balls = [
                Ball(rng.standard_normal(sys_.output_dim), float(rng.uniform(0.01, 1.0)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            delta, ball_index = subset_reach(sys_, balls)
            per_ball = [
                greedy_eps(LtiSystem(sys_.a, sys_.w), ball.center, ball.radius_sq)[0]
                for ball in balls
            ]
            best = min(range(len(balls)), key=lambda j: per_ball[j].cardinality)
            assert (delta, ball_index) == (per_ball[best], best + 1)
        # Block-diagonal systems whose balls take several picks (or none,
        # when a ball holds the origin), each center negated into a second
        # ball of the same cardinality, and, on weighted systems with more
        # output rows than states, balls centered off W's range, where
        # every greedy gets stuck; every sixth union has only those.
        rng = np.random.default_rng(223)
        seen = set()
        for k in range(24):
            sizes = [int(s) for s in rng.integers(1, 5, size=int(rng.integers(2, 6)))]
            a = block_diagonal(rng, sizes)
            n = a.shape[0]
            w = rng.standard_normal((n + 2, n)) if k % 2 else None
            sys_ = LtiSystem(a, w)
            balls = []
            for _ in range(int(rng.integers(1, 4)) * (k % 6 != 5)):
                x = rng.standard_normal(n) * (rng.random(n) < 0.6)
                center = x if w is None else w @ x
                rel = float(rng.choice([1.5, 0.3, 1e-9, 1e-9]))
                radius_sq = rel * float(center @ center) + 1e-12
                balls += [Ball(center, radius_sq), Ball(-center, radius_sq)]
            if w is not None:
                q, _ = np.linalg.qr(w, mode="complete")
                for _ in range(int(rng.integers(1, 3))):
                    off = q[:, n:] @ rng.standard_normal(2)
                    balls.insert(int(rng.integers(0, len(balls) + 1)), Ball(off, 1e-6))
            got = union_outcome(lambda: subset_reach(sys_, balls))
            assert got == union_outcome(lambda: per_ball_subset_reach(sys_, balls))
            seen.add(got[0] if got[0] == "error" else min(got[1].cardinality, 2))
        assert seen == {"error", 0, 1, 2}

    def test_subset_reach_builds_each_closure_at_most_once(self, monkeypatch):
        built = counted_builds(monkeypatch)
        rng = np.random.default_rng(191)
        for seed in range(3):
            n = 12
            sys_ = LtiSystem(erdos_renyi(n, seed).a, rng.standard_normal((n // 2, n)))
            balls = [
                Ball(sys_.w @ random_target(n, seed * 8 + k), 0.05)
                for k in range(8)
            ]
            built.clear()
            subset_reach(sys_, balls)
            assert 0 < len(built) <= n
            assert len(set(built)) == len(built)

    def test_every_call_shares_one_closure_table(self, monkeypatch):
        # Each call builds only the closures it needs, and none twice: the
        # greedy calls a few, the set calls the indices of their own set.
        built = counted_builds(monkeypatch)
        n = 12
        sys_ = LtiSystem(erdos_renyi(n, 3).a, np.eye(n))
        v = random_target(n, 3)
        delta = ActuatorSet(n, (2, 5))
        greedy_eps(sys_, v, 0.1)
        bisection_exact(sys_, v, 1e-3)
        subset_reach(sys_, [Ball(v, 0.5), Ball(-v, 0.05)])
        by_greedy = set(built)
        assert 0 < len(by_greedy) < n
        residual(sys_, delta, v)
        is_feasible(sys_, delta, v)
        reachable_subspace(sys_, delta)
        is_controllable(sys_, delta)
        assert set(built) == by_greedy | {1, 4}
        assert len(set(built)) == len(built)

    def test_a_permuted_block_path_builds_one_closure_per_pick(self, monkeypatch):
        # Every index of a block reaches the whole block, so its group's
        # bound is the residual's mass on the block, and the first candidate
        # scored in the heaviest block certifies the pick. Its closure is
        # certified full, so one verdict per pick is asked and no closure
        # is built.
        built = counted_builds(monkeypatch)
        sys_, v = ten_permuted_blocks(401)
        _, trace = greedy_eps(sys_, v, 1e-9 * float(v @ v))
        assert len(trace.chosen) == 10
        assert built == []
        assert list(sys_._verdicts) == [i - 1 for i in trace.chosen]

    @pytest.mark.parametrize("n", [25, 50, 100, 300])
    def test_exact_solve_on_erdos_renyi_builds_one_closure(self, monkeypatch, n):
        # One verdict is asked, of index 0, and it is certified with no
        # closure built.
        built = counted_builds(monkeypatch)
        sys_ = erdos_renyi(n, 1)
        bisection_exact(sys_, random_target(n, 1), 1.0)
        assert built == []
        assert sys_._verdicts == {0: True}

    @pytest.mark.parametrize(
        "call",
        [
            lambda sys_, delta, v: residual(sys_, delta, v),
            lambda sys_, delta, v: is_feasible(sys_, delta, v),
            lambda sys_, delta, v: reachable_subspace(sys_, delta),
            lambda sys_, delta, v: is_controllable(sys_, delta),
        ],
        ids=["residual", "is_feasible", "reachable_subspace", "is_controllable"],
    )
    def test_set_calls_build_only_their_own_closures(self, monkeypatch, call):
        # Index 2 reaches every state and its closure is certified full, so
        # its fold builds no closure, and the fold of index 5 into its cover
        # changes nothing and asks for no verdict.
        built = counted_builds(monkeypatch)
        n = 12
        sys_ = erdos_renyi(n, 4)
        call(sys_, ActuatorSet(n, (2, 5)), random_target(n, 4))
        assert built == []
        assert sys_._verdicts == {1: True}
        assert sys_._reach_bits[1] == (1 << n) - 1 and sys_._full(1)

    def test_weighted_subset_reach_builds_one_closure(self, monkeypatch):
        # Every index's fold into the empty set spans the output space, so
        # the first candidate built certifies the pick for every ball.
        built = counted_builds(monkeypatch)
        n = 40
        rng = np.random.default_rng(197)
        sys_ = LtiSystem(erdos_renyi(n, 2).a, rng.standard_normal((n // 2, n)))
        balls = [Ball(sys_.w @ random_target(n, 20 + k), 0.05) for k in range(8)]
        subset_reach(sys_, balls)
        assert built == [0]
        assert list(sys_._closures) == [0]

    def test_brute_force_opt_builds_only_the_closures_it_folds(self, monkeypatch):
        # The size-1 walk stops at {1}, which reaches e_1, before it folds
        # any other index. Unweighted, the fold asks for index 0's verdict
        # alone, certified with no closure built; with W = I it builds the
        # closure of index 0 alone.
        built = counted_builds(monkeypatch)
        n = 12
        v = np.zeros(n)
        v[0] = 1.0
        sys_ = star(n - 1)
        assert brute_force_opt(sys_, v, 1e-9).indices == (1,)
        assert built == []
        assert sys_._verdicts == {0: True}
        assert brute_force_opt(LtiSystem(sys_.a, np.eye(n)), v, 1e-9).indices == (1,)
        assert built == [0]

    def test_epsilon_a_builds_each_closure_once(self, monkeypatch):
        # Unweighted, every verdict is certified with no closure built; with
        # W = I every closure is built, once.
        built = counted_builds(monkeypatch)
        n = 10
        sys_ = erdos_renyi(n, 4)
        v = random_target(n, 4)
        epsilon_a(sys_, v)
        assert built == []
        assert sys_._verdicts == dict.fromkeys(range(n), True)
        epsilon_a(LtiSystem(sys_.a, np.eye(n)), v)
        assert sorted(built) == list(range(n))

    def test_an_unweighted_greedy_keeps_only_closures_that_are_not_full(self):
        # Gaussian blocks and the hub of two twin blocks, whose closure is
        # not full. v is opposite on the twins and zero on the hub, so the
        # hub's bound, its mass on both twins, is scored first, and its
        # closure, in which v has no mass, is never picked. The path stays
        # basis-free, and the hub's closure is the only one built.
        for seed in range(3):
            rng = np.random.default_rng([2611, seed])
            a = scipy.linalg.block_diag(twin_blocks(rng, 3), block_diagonal(rng, [4, 2, 5]))
            sys_ = LtiSystem(a)
            hub = 6
            v = rng.standard_normal(sys_.n)
            v[3:hub] = -v[:3]
            v[hub] = 0.0
            _, trace = greedy_eps(sys_, v, 1e-9 * float(v @ v))
            assert len(trace.chosen) == 5 and hub + 1 not in trace.chosen
            assert list(sys_._closures) == [hub]
            assert {i0 for i0, full in sys_._verdicts.items() if not full} == {hub}

    @pytest.mark.parametrize("weighted", [False, True])
    def test_every_call_leaves_one_fold_table_the_closures(self, weighted):
        # Besides its reach tables, a system keeps the closures and the
        # fullness verdicts alone: every fold, trial or set, is made in the
        # caller's own accumulator. Unweighted, every closure is certified
        # full and none is built; a weighted system asks for no verdict.
        n = 12
        sys_ = erdos_renyi(n, 6)
        if weighted:
            sys_ = LtiSystem(sys_.a, np.random.default_rng(6).standard_normal((8, n)))
        v = random_target(sys_.output_dim, 6)
        delta = ActuatorSet(n, (3, 7))
        greedy_eps(sys_, v, 1e-6 * float(v @ v))
        bisection_exact(sys_, v, 1e-3)
        subset_reach(sys_, [Ball(v, 0.5), Ball(-v, 0.05)])
        brute_force_opt(sys_, v, 0.5 * float(v @ v))
        epsilon_a(sys_, v)
        residual(sys_, delta, v)
        is_feasible(sys_, delta, v)
        reachable_subspace(sys_, delta)
        assert vars(sys_).keys() - {"a", "w"} == {
            "_verdicts" if not weighted else "_closures", "_reach", "_reach_bits",
            "_reach_groups",
        }

    def test_system_is_freed_without_the_cycle_collector(self):
        # Every table a solve leaves lives on the system, so dropping the
        # last reference frees it at once; a cache elsewhere would keep it.
        rng = np.random.default_rng(5)
        unweighted = erdos_renyi(20, 5)
        v = random_target(20, 5)
        weighted = LtiSystem(unweighted.a, rng.standard_normal((13, 20)))
        balls = [Ball(weighted.w @ random_target(20, k), 0.5) for k in range(3)]
        solves = [
            (unweighted, lambda sys_: bisection_exact(sys_, v, 1.0), {"_verdicts"}),
            (weighted, lambda sys_: subset_reach(sys_, balls), {"_closures"}),
        ]
        del unweighted, weighted
        gc.disable()
        try:
            while solves:
                sys_, solve, tables = solves.pop()
                solve(sys_)
                assert tables <= vars(sys_).keys()
                ref = weakref.ref(sys_)
                del sys_
                assert ref() is None
        finally:
            gc.enable()


class TestFoldCopies:
    """A fold of one index into an empty span is a copy of the index's
    closure, made by each path, walk and set call for itself: the closures,
    which every call on the system shares, are read and never written."""

    @pytest.mark.parametrize("kind", ["er", "blocks", "weighted"])
    def test_a_fold_into_the_empty_set_copies_the_closure(self, kind):
        rng = np.random.default_rng(["er", "blocks", "weighted"].index(kind))
        for seed in range(3):
            n = int(rng.integers(8, 30))
            if kind == "blocks":
                a = np.zeros((n, n))
                lo = 0
                while lo < n:
                    hi = min(n, lo + int(rng.integers(2, 6)))
                    a[lo:hi, lo:hi] = rng.standard_normal((hi - lo, hi - lo))
                    lo = hi
                sys_ = LtiSystem(a)
            else:
                sys_ = erdos_renyi(n, seed)
                if kind == "weighted":
                    q = int(rng.integers(1, n + 3))
                    sys_ = LtiSystem(sys_.a, rng.standard_normal((q, n)))
            if sys_.w is None:
                # An unweighted fold of a full closure into the empty set is
                # its cover alone. Its twin with W = I copies the closure.
                for i0 in range(n):
                    root = _ReachAccumulator(sys_)
                    root.include(i0)
                    assert root.basis_free == sys_._full(i0)
                    assert (root.cover, root.rank) == (sys_._reach_bits[i0], sys_._closure(i0).rank)
                sys_ = LtiSystem(sys_.a, np.eye(n))
            for i0 in range(n):
                closure = sys_._closure(i0)
                acc = _ReachAccumulator(sys_)
                acc.include(i0)
                assert not np.shares_memory(acc.state._q, closure._q)
                assert acc.state.rank == closure.rank
                assert acc.state.span().tobytes() == closure.span().tobytes()
                # The output span is the range of W on the closure: its rank,
                # and the projector of an SVD basis of that range.
                u, sv, _ = np.linalg.svd(sys_.w @ closure.span(), full_matrices=False)
                u = u[:, sv > 1e-9 * sv[0]]
                q = acc.out.span()
                assert q.shape == u.shape
                assert np.allclose(q @ q.T, u @ u.T, rtol=0.0, atol=1e-9)

    def test_an_unweighted_closure_that_is_not_full_is_copied_into_the_empty_cover(self):
        # The hub of two twin blocks reaches 9 states with a closure of rank
        # 5, so its fold into the empty cover leaves the basis-free mode: the
        # state span is a copy of the closure, and the residual is v less
        # its projection on it.
        rng = np.random.default_rng(1931)
        sys_ = LtiSystem(twin_blocks(rng, 4))
        hub = sys_.n - 1
        closure = sys_._closure(hub)
        assert (closure.rank, sys_._reach_bits[hub].bit_count()) == (5, 9)
        built = closure.span().tobytes()
        acc = _ReachAccumulator(sys_)
        mark = acc.mark()
        acc.include(hub)
        assert not acc.basis_free and acc.cover == sys_._reach_bits[hub]
        assert not np.shares_memory(acc.state._q, closure._q)
        assert acc.state.span().tobytes() == closure.span().tobytes()
        v = rng.standard_normal(sys_.n)
        q = closure.span()
        r = v - q @ (q.T @ v)
        assert acc.residual_sq(v) == pytest.approx(float(r @ r), rel=1e-12)
        # Rolled back, it is the empty set again, and the closure is as built.
        acc.truncate(mark)
        assert acc.basis_free and acc.rank == 0 and acc.residual_sq(v) == float(v @ v)
        assert closure.span().tobytes() == built

    def test_a_weighted_path_copies_only_its_accumulator_spans(self, monkeypatch):
        # One copy, of its first pick's closure into the state span of its
        # one accumulator: every other fold is made in place, and every
        # fold score adds to the path's own output span and rolls it back.
        copies = []
        copy = _SpanBuilder.copy

        def counting(builder):
            copies.append(builder)
            return copy(builder)

        monkeypatch.setattr(_SpanBuilder, "copy", counting)
        sys_, v = ten_permuted_blocks(409, True)
        _, trace = greedy_eps(sys_, v, 1e-9 * float(v @ v))
        assert len(trace.chosen) == 10
        assert copies == [sys_._closure(trace.chosen[0] - 1)]


class TestSpanCapacity:
    """A span's buffer is sized to its rank: wider than the rank, or as wide
    as the space, after every add."""

    @pytest.mark.parametrize("kind", ["er", "blocks", "weighted"])
    def test_capacity_exceeds_rank_after_every_add(self, kind, monkeypatch):
        narrow = []
        add = _SpanBuilder.add

        def checked(builder, col, tol=None):
            out = add(builder, col, tol)
            width = builder._q.shape[1]
            assert width > builder.rank or width == builder.dim
            narrow.append(width < builder.dim)
            return out

        monkeypatch.setattr(_SpanBuilder, "add", checked)
        rng = np.random.default_rng(["er", "blocks", "weighted"].index(kind) + 40)
        # An unweighted solve builds no closure it certifies full, so every
        # closure is also built by its sweep.
        for seed in range(3):
            for n in (12, int(rng.integers(20, 45))):
                if kind == "blocks":
                    a = np.zeros((n, n))
                    lo = 0
                    while lo < n:
                        hi = min(n, lo + int(rng.integers(2, 11)))
                        a[lo:hi, lo:hi] = rng.standard_normal((hi - lo, hi - lo))
                        lo = hi
                    sys_ = LtiSystem(a)
                else:
                    sys_ = erdos_renyi(n, seed)
                    if kind == "weighted":
                        q = int(rng.integers(1, n + 3))
                        sys_ = LtiSystem(sys_.a, rng.standard_normal((q, n)))
                v = rng.standard_normal(n)
                if sys_.w is not None:
                    v = sys_.w @ v
                greedy_eps(sys_, v, 1e-3 * float(v @ v))
                bisection_exact(LtiSystem(sys_.a, sys_.w), v, 1.0)
                if n == 12:
                    list(reachcore._subset_residuals(sys_, v))
                for i0 in range(n):
                    sys_._closure(i0)
        assert any(narrow) and not all(narrow)

    def test_greedy_peak_memory_follows_the_closure_ranks(self):
        # 60 blocks of 5 states: every closure has rank 5, and the greedy
        # picks one index per block. Buffers of n columns held 43 MB here.
        rng = np.random.default_rng(300)
        n = 300
        a = np.zeros((n, n))
        for lo in range(0, n, 5):
            a[lo : lo + 5, lo : lo + 5] = rng.standard_normal((5, 5))
        v = rng.standard_normal(n)
        sys_ = LtiSystem(a)
        tracemalloc.start()
        try:
            delta, _ = greedy_eps(sys_, v, 1e-6 * float(v @ v))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert delta.cardinality == 60
        assert peak < 12e6


class TestUnrepresentableSquaredNorm:
    # Finite, non-zero targets whose v @ v is inf or 0.0. The answer on the
    # star is {2, 3} at every scale where ||v||^2 is representable.
    TARGETS = [[0.0, s, s, 0.0, 0.0] for s in (1e155, 1e-200)]

    @pytest.mark.parametrize("v", TARGETS, ids=["overflow", "underflow"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda sys_, v: greedy_eps(sys_, v, 1e-300),
            lambda sys_, v: bisection_exact(sys_, v, 1.0),
            lambda sys_, v: brute_force_opt(sys_, v, 0.0),
            lambda sys_, v: epsilon_a(sys_, v),
            lambda sys_, v: residual(sys_, ActuatorSet(5, (2, 3)), v),
            lambda sys_, v: is_feasible(sys_, ActuatorSet(5, (2, 3)), v),
            lambda sys_, v: subset_reach(sys_, [Ball(v, 1.0)]),
        ],
        ids=[
            "greedy", "bisection", "brute", "epsilon_a", "residual", "feasible", "balls"
        ],
    )
    def test_is_refused_by_name(self, v, call):
        name = r"^(v|balls\[0\]: center): squared norm "
        with pytest.raises(InputError, match=name):
            call(star(4), v)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_representable_neighbours_are_solved(self, scale):
        v = [0.0, scale, scale, 0.0, 0.0]
        assert bisection_exact(star(4), v, 1.0)[0].indices == (2, 3)
        assert brute_force_opt(star(4), v, 0.0).indices == (2, 3)


class TestBruteForceOpt:
    def test_zero_vector(self):
        assert brute_force_opt(DIAG12, [0.0, 0.0], 1e-9).cardinality == 0

    def test_diagonal_needs_both(self):
        delta = brute_force_opt(DIAG12, [1.0, 1.0], 1e-6)
        assert delta.indices == (1, 2)

    def test_star_axis_needs_one(self):
        delta = brute_force_opt(star(4), [1.0, 0.0, 0.0, 0.0, 0.0], 1e-6)
        assert delta.cardinality == 1

    def test_exhausted_cap_returns_none(self):
        assert brute_force_opt(DIAG12, [1.0, 1.0], 1e-6, k_max=1) is None

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            brute_force_opt(LtiSystem(np.eye(17)), np.ones(17), 1e-6)

    @pytest.mark.parametrize("k_max", [2.7, True, "2"])
    def test_rejects_a_cap_that_is_not_an_integer(self, k_max):
        with pytest.raises(InputError):
            brute_force_opt(LtiSystem(np.eye(3)), np.ones(3), 1e-6, k_max)

    def test_accepts_an_integral_float_cap(self):
        sys_ = LtiSystem(np.eye(3))
        assert brute_force_opt(sys_, np.ones(3), 1e-6, 2.0) is None
        assert brute_force_opt(sys_, np.ones(3), 1e-6, 3.0).indices == (1, 2, 3)

    def test_walk_for_size_k_skips_prefixes_that_cannot_reach_k(self, include_calls):
        # Every index carries a part of v, so no set of at most 11 of the 12
        # reaches it. The walk for size k extends a subset S only when the
        # indices above S's largest can still fill it up to k, and folds
        # each subset it keeps once, a single index too. The subsets of s
        # indices whose largest, m, leaves k - s indices above it number
        # the sum over m <= n - 1 - (k - s) of C(m, s - 1), which is
        # C(n - k + s, s). The output weight keeps the coverage rule out.
        n, k_max = 12, 11
        sys_ = LtiSystem(np.diag(np.arange(1.0, n + 1)), w=np.eye(n))
        assert brute_force_opt(sys_, np.ones(n), 1e-6, k_max) is None
        walked = [
            combo
            for k in range(k_max + 1)
            for size in range(1, k + 1)
            for combo in itertools.combinations(range(n), size)
            if n - 1 - combo[-1] >= k - size
        ]
        expected = sum(
            math.comb(n - k + s, s) for k in range(k_max + 1) for s in range(1, k + 1)
        )
        assert expected == len(walked) == 8166
        assert len(include_calls) == expected

    def test_walk_for_size_k_skips_subsets_that_cannot_cover_v(self, include_calls):
        # Index i reaches only state i, and v is 1 on every state. So the
        # walk for size k keeps a subset of fewer than k indices only when
        # it and every index above its largest cover all 12 states, which
        # holds for the prefixes {1..j} alone; no subset of k < 12 indices
        # covers them. Nor does {1..k-1} with one index more, so the walk
        # for size k folds {1..j} for j = 1..k-2 alone; an unweighted
        # system shares no fold between walks, so {1} is folded once per
        # walk from k = 3: 0 + 1 + ... + 9 = 45.
        n, k_max = 12, 11
        sys_ = LtiSystem(np.diag(np.arange(1.0, n + 1)))
        assert brute_force_opt(sys_, np.ones(n), 1e-6, k_max) is None
        assert len(include_calls) == sum(k - 2 for k in range(2, k_max + 1))
        assert len(include_calls) == 45

    def test_rejects_negative_eps(self):
        with pytest.raises(InputError):
            brute_force_opt(DIAG12, [1.0, 1.0], -1e-6)

    @pytest.mark.parametrize("eps", ["0.5", b"1", True, np.True_, math.nan, math.inf])
    def test_rejects_an_eps_that_is_not_a_finite_number(self, eps):
        with pytest.raises(InputError, match=r"^eps: "):
            brute_force_opt(DIAG12, [1.0, 1.0], eps)

    def test_minimal_among_feasible(self):
        rng = np.random.default_rng(149)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            sys_ = random_system(rng, n)
            v = rng.standard_normal(n)
            eps = 1e-2 * float(v @ v)
            opt = brute_force_opt(sys_, v, eps)
            assert opt is not None
            greedy, _ = greedy_eps(sys_, v, eps)
            assert opt.cardinality <= greedy.cardinality
            assert residual(sys_, opt, v) <= eps


def combinations_oracle(sys_, v, eps, k_max):
    """Reference for brute_force_opt: every combination by size, then in
    lexicographic order, each folded into a fresh accumulator."""
    for k in range(k_max + 1):
        for combo in itertools.combinations(range(sys_.n), k):
            acc = _ReachAccumulator(sys_)
            for i0 in combo:
                acc.include(i0)
            if acc.residual_sq(v) <= eps:
                return tuple(i0 + 1 for i0 in combo)
    return None


def per_mask_epsilon_a(sys_, v):
    """Reference for epsilon_a: every subset folded into a fresh accumulator."""
    n = sys_.n
    res = []
    for mask in range(1 << n):
        acc = _ReachAccumulator(sys_)
        for i0 in range(n):
            if mask >> i0 & 1:
                acc.include(i0)
        res.append(acc.residual_sq(v))
    tol = EXACT_TOL * float(v @ v)
    return min(
        (
            res[mask]
            for mask in range(1 << n)
            if res[mask] > tol
            and any(res[mask | 1 << i0] <= tol for i0 in range(n) if not mask >> i0 & 1)
        ),
        default=math.inf,
    )


def sparse_block_system(rng, n, weighted):
    """Block-diagonal system of one to four sparse random blocks, so that
    closures differ between indices and optimal sets vary in size."""
    a = np.zeros((n, n))
    cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(0, 4)), replace=False))
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        block = rng.standard_normal((hi - lo, hi - lo))
        block[rng.random(block.shape) < 0.6] = 0.0
        a[lo:hi, lo:hi] = block
    w = rng.standard_normal((int(rng.integers(1, n + 1)), n)) if weighted else None
    return LtiSystem(a, w)


class TestExhaustiveOraclesMatchReferences:
    def test_brute_force_matches_combinations(self):
        rng = np.random.default_rng(1601)
        outcomes = []
        for case in range(120):
            n = 4 + case % 10
            weighted = case % 3 == 0
            sys_ = sparse_block_system(rng, n, weighted)
            v = rng.standard_normal(sys_.output_dim)
            eps = float(rng.choice([EXACT_TOL, 1e-2, 0.3])) * float(v @ v)
            k_max = int(rng.integers(0, 4)) if n > 7 else None
            got = brute_force_opt(sys_, v, eps, k_max)
            want = combinations_oracle(sys_, v, eps, n if k_max is None else k_max)
            assert (None if got is None else got.indices) == want, (case, n, k_max)
            outcomes.append((weighted, want))
        assert sum(want is None for _, want in outcomes) >= 10
        assert sum(want is not None and len(want) >= 2 for _, want in outcomes) >= 10
        assert sum(weighted and want is not None for weighted, want in outcomes) >= 10

    def test_epsilon_a_matches_per_mask_sweep(self):
        rng = np.random.default_rng(1607)
        finite = 0
        for case in range(14):
            n = 4 + case % 7
            sys_ = sparse_block_system(rng, n, weighted=case % 2 == 1)
            v = rng.standard_normal(sys_.output_dim)
            value = epsilon_a(sys_, v)
            assert repr(value) == repr(per_mask_epsilon_a(sys_, v)), case
            finite += math.isfinite(value)
        assert finite >= 7


def plain_walk(sys_, v):
    """Reference for _subset_residuals: the depth-first walk over every
    subset that shares no subtree. Each subset is its prefix's accumulator
    copied and extended by one index, from an explicit stack of subsets
    still to extend."""
    n = sys_.n
    root = _ReachAccumulator(sys_)
    yield 0, root.residual_sq(v)
    stack = [(root, 0, 0)]
    while stack:
        acc, mask, i0 = stack.pop()
        if i0 == n:
            continue
        stack.append((acc, mask, i0 + 1))
        child = copy_accumulator(acc)
        child.include(i0)
        child_mask = mask | 1 << i0
        yield child_mask, child.residual_sq(v)
        stack.append((child, child_mask, i0 + 1))


def by_size(pairs, k_max):
    """The pairs of at most `k_max` indices, by size, and within a size in
    the order given, which for the plain walk is lexicographic: the order
    of the by-size walk of _subset_residuals."""
    pairs = list(pairs)
    return [pair for k in range(k_max + 1) for pair in pairs if pair[0].bit_count() == k]


def cycle_blocks(*sizes):
    """Block-diagonal system of weighted directed cycles: the closure of
    every state is its whole block."""
    n = sum(sizes)
    a = np.zeros((n, n))
    lo = 0
    for size in sizes:
        for j in range(size):
            a[lo + (j + 1) % size, lo + j] = 1.0 + j
        lo += size
    return LtiSystem(a)


class TestSharedSubsetWalk:
    """The full walk shares the subtree of a fold that adds nothing, and
    yields what the plain walk yields, to the bit and in the same order;
    the by-size walk yields the plain walk's subsets by size."""

    def test_walk_matches_the_plain_walk(self):
        rng = np.random.default_rng(1709)
        kinds = ("blocks", "diagonal", "weighted", "duplicated-rows")
        for case in range(24):
            n = 4 + case % 6
            kind = kinds[case % 4]
            if kind == "diagonal":
                sys_ = LtiSystem(np.diag(rng.permutation(n) + 1.0))
            elif kind == "duplicated-rows":
                rows = rng.standard_normal((int(rng.integers(1, n)), n))
                a = sparse_block_system(rng, n, weighted=False).a
                sys_ = LtiSystem(a, np.vstack([rows, rows]))
            else:
                sys_ = sparse_block_system(rng, n, weighted=kind == "weighted")
            v = rng.standard_normal(sys_.output_dim)
            plain = list(plain_walk(sys_, v))
            got = list(reachcore._subset_residuals(sys_, v))
            assert repr(got) == repr(plain), (case, kind)
            for k_max in range(n + 1):
                got = list(reachcore._subset_residuals(sys_, v, k_max))
                assert repr(got) == repr(by_size(plain, k_max)), (case, kind, k_max)

    @pytest.mark.parametrize(
        "sizes, expected", [((4, 4, 4), 310), ((4, 3, 3), 160)]
    )
    def test_epsilon_a_folds_each_shared_subtree_once(
        self, include_calls, sizes, expected
    ):
        sys_ = cycle_blocks(*sizes)
        v = np.random.default_rng(1733).standard_normal(sys_.n)
        assert math.isfinite(epsilon_a(sys_, v))
        assert len(include_calls) == expected

    def test_epsilon_a_copies_one_closure_per_single_index(self, monkeypatch):
        # The walk folds every subset into its one accumulator in place and
        # rolls it back. On the W = I twin, each single index's fold into
        # the empty set copies its closure, and nothing else is copied.
        # Every closure of the unweighted system is full, so its walk only
        # grows covers and copies nothing.
        copies = []
        copy = _SpanBuilder.copy

        def counting(builder):
            copies.append(builder)
            return copy(builder)

        monkeypatch.setattr(_SpanBuilder, "copy", counting)
        unweighted = cycle_blocks(4, 4, 4)
        v = np.random.default_rng(1733).standard_normal(unweighted.n)
        weighted = LtiSystem(unweighted.a, np.eye(unweighted.n))
        got = epsilon_a(weighted, v)
        assert copies == [weighted._closure(i0) for i0 in range(weighted.n)]
        copies.clear()
        assert epsilon_a(unweighted, v) == pytest.approx(got, rel=1e-12)
        assert copies == []
        monkeypatch.undo()
        assert repr(got) == repr(per_mask_epsilon_a(weighted, v))
        assert repr(epsilon_a(unweighted, v)) == repr(per_mask_epsilon_a(unweighted, v))

    def test_epsilon_a_makes_no_add_that_is_absorbed(self, span_adds):
        # Every closure is certified full, so every fold only grows the
        # cover, with no add. The sweep of each closure stops once it fills
        # its index's reach, and with W = I, where every fold takes
        # Gram-Schmidt, each fold stops once its state span fills its
        # subset's reach.
        sys_ = cycle_blocks(4, 4, 4)
        v = np.random.default_rng(1733).standard_normal(sys_.n)
        assert math.isfinite(epsilon_a(sys_, v))
        assert span_adds == []
        for i0 in range(sys_.n):
            sys_._closure(i0)
        assert math.isfinite(epsilon_a(LtiSystem(sys_.a, np.eye(sys_.n)), v))
        assert span_adds and all(accepted for _, accepted in span_adds)

    def test_a_fold_the_output_weight_kills_is_not_shared(self):
        # Index 1 grows the state span by e1, which W kills, so the output
        # rank is unchanged. Index 2 then adds e2 and e1 + t e3 with t just
        # above the rank tolerance. Past e1 that leaves 0.1 t e3 in the
        # output, which W keeps; without e1 it leaves 0.1 t e3 only through
        # a column of norm 1, and the output span absorbs it. So {1, 2}
        # reaches v and {2} does not.
        t = 5 * RANK_TOL
        a = np.zeros((3, 3))
        a[:, 1] = [1.0, 0.0, t]
        sys_ = LtiSystem(a, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.1]])
        v = np.array([0.0, 1.0])
        res = dict(reachcore._subset_residuals(sys_, v))
        assert res[0b010] == 1.0
        assert res[0b011] == 0.0
        assert repr(sorted(res.items())) == repr(sorted(plain_walk(sys_, v)))


def reach_rows(a):
    """Bitmask of the states each index reaches in the digraph of `a`, with
    an edge j -> k when ``a[k, j] != 0``, by repeated boolean squaring."""
    n = a.shape[0]
    r = (a != 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        r = (r.astype(np.int64) @ r.astype(np.int64)) > 0
    return [sum(1 << k for k in range(n) if r[k, j]) for j in range(n)]


def uncovered(v, hull):
    """Squared mass of `v` outside the states of bitmask `hull`, summed in
    index order."""
    return sum(float(v[j]) ** 2 for j in range(len(v)) if not hull >> j & 1)


def kept_by_coverage(rows, v, limit, k, mask):
    """Whether the walk for size k keeps `mask`: no prefix of it (its j
    smallest indices, j >= 1) has a hull that leaves more than `limit` of
    v uncovered. A prefix of fewer than k indices also reaches every index
    above its largest."""
    n = len(rows)
    members = [i0 for i0 in range(n) if mask >> i0 & 1]
    for j in range(1, len(members) + 1):
        hull = 0
        for i0 in members[:j]:
            hull |= rows[i0]
        if j < k:
            for i0 in range(members[j - 1] + 1, n):
                hull |= rows[i0]
        if uncovered(v, hull) > limit:
            return False
    return True


def completed(rows, v, limit, k, mask):
    """Whether the walk for size k folds `mask` as far as the lookahead
    goes: a set of k - 1 indices only when one index above its largest
    brings its hull within `limit` of v."""
    n = len(rows)
    members = [i0 for i0 in range(n) if mask >> i0 & 1]
    if len(members) != k - 1:
        return True
    hull = 0
    for i0 in members:
        hull |= rows[i0]
    return any(uncovered(v, hull | rows[j]) <= limit for j in range(members[-1] + 1, n))


def hub_system(rng, n, hub):
    """Star with its hub at index `hub`: the hub drives every other state,
    which share one eigenvalue, so the hub's closure holds e_hub and one
    direction among the others, and each other index reaches itself."""
    a = np.diag(np.full(n, 0.5))
    a[hub, hub] = 1.5
    a[:, hub] += np.where(np.arange(n) == hub, 0.0, rng.uniform(0.5, 2.0, n))
    return LtiSystem(a)


def bidiagonal_system(rng, n):
    """Lower bidiagonal system: index i reaches states i..n."""
    a = np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(n - 1), -1)
    return LtiSystem(a)


def masked_er_system(rng, n):
    """Random digraph with about 1.5 edges per state and normal weights."""
    a = rng.standard_normal((n, n))
    a[rng.random((n, n)) >= 1.5 / n] = 0.0
    return LtiSystem(a)


@pytest.fixture
def built_masks(monkeypatch):
    """The bitmask of every subset that _ReachAccumulator.include builds, in
    call order. Each accumulator keeps a stack of the masks folded into it,
    which starts at mask 0: a fold pushes one, and `truncate` pops one. For
    the by-size walk, which shares no subtree: a fold whose subtree is
    shared changed nothing and is not rolled back."""
    masks = {}
    alive = []
    built = []
    include = _ReachAccumulator.include
    truncate = _ReachAccumulator.truncate

    def recording(acc, i0):
        include(acc, i0)
        if id(acc) not in masks:
            # Held, so that no later accumulator reuses its id.
            alive.append(acc)
            masks[id(acc)] = [0]
        stack = masks[id(acc)]
        stack.append(stack[-1] | 1 << i0)
        built.append(stack[-1])

    def popping(acc, mark):
        truncate(acc, mark)
        masks[id(acc)].pop()

    monkeypatch.setattr(_ReachAccumulator, "include", recording)
    monkeypatch.setattr(_ReachAccumulator, "truncate", popping)
    return built


class TestCoveragePrune:
    """brute_force_opt skips a subset whose reach leaves more than eps of v
    uncovered, with TIE_BAND_REL * n * ||v||^2 of slack, on unweighted
    systems only."""

    def test_residual_is_at_least_the_uncovered_mass_less_the_slack(self):
        # The lemma the rule rests on: every accumulated column is zero
        # outside the reach of its subset's indices.
        rng = np.random.default_rng(1901)
        makers = (
            lambda n: sparse_block_system(rng, n, weighted=False),
            lambda n: bidiagonal_system(rng, n),
            lambda n: masked_er_system(rng, n),
        )
        checked = pruned = 0
        for case in range(60):
            n = 5 + case % 8
            sys_ = makers[case % 3](n)
            rows = reach_rows(sys_.a)
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            slack = TIE_BAND_REL * n * float(v @ v)
            for _ in range(60):
                combo = tuple(
                    int(i) for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False)
                )
                hull = 0
                for i0 in combo:
                    hull |= rows[i0]
                lost = math.fsum(float(v[j]) ** 2 for j in range(n) if not hull >> j & 1)
                res = residual(sys_, ActuatorSet(n, [i0 + 1 for i0 in combo]), v)
                assert res >= lost - slack, (case, combo)
                checked += 1
                pruned += lost > 0.0
        assert checked == 3600
        assert pruned >= 1000

    def test_boundary_eps_is_a_residual_below_its_uncovered_mass(self):
        # eps is exactly the residual of the set the search should return,
        # and rounding left that residual below the mass its reach leaves
        # uncovered. Without the slack the walk would skip that set.
        rng = np.random.default_rng(1907)
        found = []
        for case in range(400):
            if len(found) == 12:
                break
            n = int(rng.integers(4, 8))
            sys_ = sparse_block_system(rng, n, weighted=False)
            v = rng.standard_normal(n)
            rows = reach_rows(sys_.a)
            for combo in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(1, n)
            ):
                hull = 0
                for i0 in combo:
                    hull |= rows[i0]
                want = tuple(i0 + 1 for i0 in combo)
                res = residual(sys_, ActuatorSet(n, want), v)
                if res < uncovered(v, hull) and combinations_oracle(sys_, v, res, n) == want:
                    for k_max in (None, len(combo), n):
                        got = brute_force_opt(sys_, v, res, k_max)
                        assert got is not None and got.indices == want, (case, k_max)
                    found.append(want)
                    break
        assert len(found) == 12
        assert any(len(want) >= 2 for want in found)

    @pytest.mark.parametrize(
        "kind", ["weighted", "dense", "lemma1", "lemma2", "hub", "blocks"]
    )
    def test_walks_fold_what_the_full_walks_fold_less_what_coverage_rules_out(
        self, kind, built_masks, include_calls
    ):
        rng = np.random.default_rng(1913)
        fewer = completions_ruled_out = 0
        for case in range(12):
            if kind in ("lemma1", "lemma2"):
                build = build_lemma1 if kind == "lemma1" else build_lemma2
                sys_, v = build(random_instance(rng, m_max=5, p_max=4))
                eps = EXACT_TOL * float(v @ v)
            elif kind == "hub":
                # v on the hub's state exceeds eps, so no set without the
                # hub covers v.
                n = 4 + case % 6
                sys_ = hub_system(rng, n, hub=case % n)
                v = rng.standard_normal(n)
                eps = EXACT_TOL * float(v @ v)
            else:
                n = 4 + case % 6
                if kind == "weighted":
                    sys_ = sparse_block_system(rng, n, weighted=True)
                elif kind == "blocks":
                    sys_ = sparse_block_system(rng, n, weighted=False)
                else:
                    sys_ = random_system(rng, n)
                v = rng.standard_normal(sys_.output_dim)
                eps = float(rng.choice([EXACT_TOL, 1e-2, 0.3])) * float(v @ v)
            k_max = sys_.n
            got = brute_force_opt(sys_, v, eps)
            got_masks, got_includes = list(built_masks), len(include_calls)
            built_masks.clear()
            include_calls.clear()
            # The by-size walk with no limit, on a fresh twin, up to its first
            # hit. With no limit every fold of the walk for size k leads to a
            # subset of k indices, so each mask built belongs to the walk for
            # the size of the next subset yielded.
            twin = LtiSystem(sys_.a, sys_.w)
            full, hit = [], None
            for mask, res in reachcore._subset_residuals(twin, v, k_max):
                full += [(mask.bit_count(), built) for built in built_masks[len(full):]]
                if res <= eps:
                    hit = mask
                    break
            want = None if hit is None else tuple(i0 + 1 for i0 in range(k_max) if hit >> i0 & 1)
            assert (None if got is None else got.indices) == want, case
            if kind == "weighted":
                kept = [mask for _, mask in full]
            else:
                rows = reach_rows(sys_.a)
                limit = eps + TIE_BAND_REL * sys_.n * float(v @ v)
                by_hull = [(k, mask) for k, mask in full if kept_by_coverage(rows, v, limit, k, mask)]
                kept = [mask for k, mask in by_hull if completed(rows, v, limit, k, mask)]
                if kind != "blocks":
                    # An index that reaches every state carrying v completes
                    # every set below it, and the sets above it lie outside
                    # the hull rule already.
                    assert kept == [mask for _, mask in by_hull], case
                completions_ruled_out += len(kept) < len(by_hull)
            assert got_masks == kept, case
            if kind in ("weighted", "dense"):
                assert got_includes == len(include_calls), case
            fewer += got_includes < len(include_calls)
            built_masks.clear()
            include_calls.clear()
        if kind in ("lemma1", "lemma2"):
            assert fewer >= 6
        if kind == "blocks":
            assert completions_ruled_out >= 4

    def test_the_search_folds_only_the_answer_on_three_blocks(self, include_calls):
        # No set of two indices reaches all three blocks, so the walk for
        # size 2 folds nothing, and the walk for size 3 folds {1} and then
        # only the prefixes of {1, 5, 9}, which one index completes.
        sys_ = cycle_blocks(4, 4, 4)
        v = np.random.default_rng(1931).standard_normal(sys_.n)
        assert brute_force_opt(sys_, v, 1e-6 * float(v @ v)).indices == (1, 5, 9)
        assert include_calls == [0, 4, 8]
        assert sorted(sys_._verdicts) == [0, 4, 8]
        assert sys_._closures == {}

    def test_a_walk_below_k_keeps_the_sets_no_index_completes(self):
        # The lookahead drops a set of k - 1 indices from the walk for size
        # k only; the walk for its own size yields it. Each index of
        # diag(1, 2, 3) reaches itself alone, and v = (0, 1, 1). {2, 3}
        # covers v, and no index above 3 completes it; no index alone comes
        # within the limit, so the lookahead scans every hull. A lookahead
        # one level deeper would drop {2, 3} and {1, 2, 3}.
        sys_ = LtiSystem(np.diag([1.0, 2.0, 3.0]))
        v = np.array([0.0, 1.0, 1.0])
        got = list(reachcore._subset_residuals(sys_, v, 3, 0.5))
        assert repr(got) == repr([(0, 2.0), (0b110, 0.0), (0b111, 0.0)])
        plain = dict(plain_walk(sys_, v))
        assert repr(got) == repr([(mask, plain[mask]) for mask, _ in got])
        # Index 4 reaches every state and the others themselves alone, and
        # v = ones: {4} covers v with no index above it, and each {i} is
        # completed by {i, 4} alone.
        n = 4
        a = np.diag(np.arange(1.0, n + 1))
        a[: n - 1, n - 1] = 1.0
        sys_ = LtiSystem(a)
        v = np.ones(n)
        limit = 1e-6 + TIE_BAND_REL * n * float(v @ v)
        got = list(reachcore._subset_residuals(sys_, v, 2, limit))
        top = 1 << (n - 1)
        assert [mask for mask, _ in got] == [0, top, 0b1 | top, 0b10 | top, 0b100 | top]
        assert dict(got)[top] <= 1e-6
        plain = dict(plain_walk(sys_, v))
        assert repr(got) == repr([(mask, plain[mask]) for mask, _ in got])
        # With v = ones, {1} with the indices above it covers v, so the hull
        # rule keeps it, but {1, 2} and {1, 3} each leave 1 > limit outside:
        # no index completes {1}, and the walk for size 2 drops it.
        sys_ = LtiSystem(np.diag([1.0, 2.0, 3.0]))
        v = np.ones(3)
        assert [mask for mask, _ in reachcore._subset_residuals(sys_, v, 2, 0.5)] == [0]


def exhaustive_hitting_set(instance):
    """Independent oracle: first hitting set in cardinality-then-lex order."""
    families = [set(s) for s in instance.sets]
    for k in range(instance.m + 1):
        for combo in itertools.combinations(range(1, instance.m + 1), k):
            members = set(combo)
            if all(s & members for s in families):
                return combo
    raise AssertionError("universe itself must hit every non-empty set")


def random_instance(rng, m_max=8, p_max=6):
    m = int(rng.integers(1, m_max + 1))
    p = int(rng.integers(1, p_max + 1))
    sets = []
    for _ in range(p):
        size = int(rng.integers(1, m + 1))
        members = rng.choice(m, size=size, replace=False) + 1
        sets.append(tuple(int(j) for j in members))
    covered = set()
    for members in sets:
        covered.update(members)
    for j in range(1, m + 1):
        if j not in covered:
            k = int(rng.integers(0, len(sets)))
            sets[k] = tuple(sorted(set(sets[k]) | {j}))
    return HittingSetInstance(m=m, sets=tuple(sets))


class TestMinHittingSet:
    def test_disjoint_singletons(self):
        instance = HittingSetInstance(m=2, sets=((1,), (2,)))
        assert min_hitting_set(instance) == (1, 2)

    def test_common_element(self):
        instance = HittingSetInstance(m=3, sets=((1, 2), (2, 3)))
        assert min_hitting_set(instance) == (2,)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(151)
        for _ in range(60):
            instance = random_instance(rng)
            assert min_hitting_set(instance) == exhaustive_hitting_set(instance)

    def test_disjoint_triples_return_at_once(self):
        instance = HittingSetInstance(
            m=30, sets=tuple((j, j + 1, j + 2) for j in range(1, 31, 3))
        )
        got = within_seconds(3, lambda: min_hitting_set(instance))
        assert got == tuple(range(1, 29, 3))

    def test_a_deep_search_needs_no_recursion(self):
        # 1500 disjoint pairs: the first branch takes 1500 elements in a
        # row, deeper than the interpreter's default recursion limit.
        instance = HittingSetInstance(
            m=3000, sets=tuple((2 * j - 1, 2 * j) for j in range(1, 1501))
        )
        got = within_seconds(10, lambda: min_hitting_set(instance))
        assert got == tuple(range(1, 3000, 2))

    def test_result_hits_every_set(self):
        rng = np.random.default_rng(157)
        for _ in range(30):
            instance = random_instance(rng)
            hit = set(min_hitting_set(instance))
            assert all(set(s) & hit for s in instance.sets)


class TestDeterminism:
    def test_greedy_identical_runs(self):
        rng = np.random.default_rng(163)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            sys_ = random_system(rng, n)
            v = rng.standard_normal(n)
            eps = 1e-3 * float(v @ v)
            first = greedy_eps(sys_, v, eps)
            second = greedy_eps(sys_, v, eps)
            assert first[1].chosen == second[1].chosen
            assert first[1].residuals == second[1].residuals

    def test_bisection_identical_runs(self):
        rng = np.random.default_rng(167)
        sys_ = random_system(rng, 5)
        v = rng.standard_normal(5)
        first = bisection_exact(sys_, v, 1e-3)
        second = bisection_exact(sys_, v, 1e-3)
        assert first[0].indices == second[0].indices
        assert first[1] == second[1]
