"""Selection algorithm tests: greedy residual reduction, bisection to
exact feasibility, ball-union reachability, and the exhaustive oracles."""

import gc
import itertools
import math
import signal
import weakref

import numpy as np
import pytest

from conftest import random_actuators, random_system
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
from minreach import reachcore
from minreach.numkit import RANK_TOL
from minreach.reachcore import _ReachAccumulator

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


def counted_builds(monkeypatch):
    """The 0-based indices whose closures get built from now on, in order."""
    built = []
    build = reachcore._index_closure

    def counting(a, i0):
        built.append(i0)
        return build(a, i0)

    monkeypatch.setattr(reachcore, "_index_closure", counting)
    return built


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

    @pytest.mark.parametrize("n", [25, 50, 100, 300])
    def test_exact_solve_on_erdos_renyi_builds_one_closure(self, monkeypatch, n):
        built = counted_builds(monkeypatch)
        bisection_exact(erdos_renyi(n, 1), random_target(n, 1), 1.0)
        assert built == [0]

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
        built = counted_builds(monkeypatch)
        n = 12
        call(erdos_renyi(n, 4), ActuatorSet(n, (2, 5)), random_target(n, 4))
        assert built == [1, 4]

    def test_weighted_subset_reach_builds_one_closure(self, monkeypatch):
        # Every W C_i spans the output space, so the first candidate built
        # certifies the pick for every ball.
        built = counted_builds(monkeypatch)
        n = 40
        rng = np.random.default_rng(197)
        sys_ = LtiSystem(erdos_renyi(n, 2).a, rng.standard_normal((n // 2, n)))
        balls = [Ball(sys_.w @ random_target(n, 20 + k), 0.05) for k in range(8)]
        subset_reach(sys_, balls)
        assert built == [0]
        assert list(sys_._output_closures) == [0]

    def test_brute_force_opt_builds_only_the_closures_it_folds(self, monkeypatch):
        # The size-1 walk stops at {1}, which reaches e_1, before it folds
        # any other index.
        built = counted_builds(monkeypatch)
        n = 12
        v = np.zeros(n)
        v[0] = 1.0
        assert brute_force_opt(star(n - 1), v, 1e-9).indices == (1,)
        assert built == [0]

    def test_epsilon_a_builds_each_closure_once(self, monkeypatch):
        built = counted_builds(monkeypatch)
        n = 10
        epsilon_a(erdos_renyi(n, 4), random_target(n, 4))
        assert sorted(built) == list(range(n))

    def test_system_is_freed_without_the_cycle_collector(self):
        # Every table a solve leaves lives on the system, so dropping the
        # last reference frees it at once; a cache elsewhere would keep it.
        rng = np.random.default_rng(5)
        unweighted = erdos_renyi(20, 5)
        v = random_target(20, 5)
        weighted = LtiSystem(unweighted.a, rng.standard_normal((13, 20)))
        balls = [Ball(weighted.w @ random_target(20, k), 0.5) for k in range(3)]
        solves = [
            (unweighted, lambda sys_: bisection_exact(sys_, v, 1.0)),
            (weighted, lambda sys_: subset_reach(sys_, balls)),
        ]
        del unweighted, weighted
        gc.disable()
        try:
            while solves:
                sys_, solve = solves.pop()
                solve(sys_)
                tables = {"_closures", "_output_closures", "_first_folds"}
                assert tables <= vars(sys_).keys()
                ref = weakref.ref(sys_)
                del sys_
                assert ref() is None
        finally:
            gc.enable()


class TestSharedFirstFolds:
    """A fold of one index into the empty set is made once per system and
    shared by every target, walk and set call."""

    def test_set_call_after_subset_reach_makes_no_fold(self, include_calls):
        # Every ball picks index 1 first, and its fold reaches every ball.
        n = 40
        rng = np.random.default_rng(197)
        sys_ = LtiSystem(erdos_renyi(n, 2).a, rng.standard_normal((n // 2, n)))
        balls = [Ball(sys_.w @ random_target(n, 20 + k), 0.05) for k in range(8)]
        delta, ball_index = subset_reach(sys_, balls)
        residual(sys_, delta, balls[ball_index - 1].center)
        assert delta.indices == (1,)
        assert include_calls == [0]

    @pytest.mark.parametrize("kind", ["er", "blocks", "weighted"])
    def test_shared_folds_equal_fresh_folds_and_are_read_only(self, kind):
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
            for i0 in range(n):
                acc = _ReachAccumulator(sys_).extended(i0)
                fresh = _ReachAccumulator(sys_)
                fresh.include(i0)
                assert sys_._first_folds[i0] == (acc.state, acc.out)
                assert _ReachAccumulator(sys_).extended(i0).state is acc.state
                for shared, own in [(acc.state, fresh.state), (acc.out, fresh.out)]:
                    if own is None:
                        assert shared is None
                        continue
                    r = own.rank
                    assert (shared.dim, shared.rank) == (own.dim, r)
                    assert shared._q[:, :r].tobytes() == own._q[:, :r].tobytes()
                    with pytest.raises(ValueError):
                        shared._q[:, r - 1] = 0.0


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
        # indices above S's largest can still fill it up to k.
        # A single index is folded into the empty set once per system, not
        # once per walk. The output weight keeps the coverage rule out.
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
        singles = {combo for combo in walked if len(combo) == 1}
        expected = len(singles) + sum(len(combo) > 1 for combo in walked)
        assert expected == 8101
        assert len(include_calls) == expected

    def test_walk_for_size_k_skips_subsets_that_cannot_cover_v(self, include_calls):
        # Index i reaches only state i, and v is 1 on every state. So the
        # walk for size k keeps a subset of fewer than k indices only when
        # it and every index above its largest cover all 12 states, which
        # holds for the prefixes {1..j} alone; no subset of k < 12 indices
        # covers them. The walk for size k folds {1..j} for j = 1..k-1,
        # and {1} is folded once per system: 1 + (1 + ... + 9) = 46.
        n, k_max = 12, 11
        sys_ = LtiSystem(np.diag(np.arange(1.0, n + 1)))
        assert brute_force_opt(sys_, np.ones(n), 1e-6, k_max) is None
        assert len(include_calls) == 1 + sum(k - 2 for k in range(3, k_max + 1))
        assert len(include_calls) == 46

    def test_rejects_negative_eps(self):
        with pytest.raises(InputError):
            brute_force_opt(DIAG12, [1.0, 1.0], -1e-6)

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


def plain_walk(sys_, v, k, least=0):
    """Reference for _subset_residuals: the depth-first walk that shares no
    subtree. Each subset is its prefix's accumulator copied and extended
    by one index, from an explicit stack of subsets still to extend."""
    n = sys_.n
    nv2 = float(v @ v)
    root = _ReachAccumulator(sys_)
    yield 0, nv2 - root.project_norm_sq(v)
    stack = [(root, 0, 0, 0)]
    while stack:
        acc, mask, size, i0 = stack.pop()
        if i0 == n or size == k or n - i0 < least - size:
            continue
        stack.append((acc, mask, size, i0 + 1))
        child = acc.copy()
        child.include(i0)
        child_mask = mask | 1 << i0
        yield child_mask, nv2 - child.project_norm_sq(v)
        stack.append((child, child_mask, size + 1, i0 + 1))


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
    """The walk shares the subtree of a fold that adds nothing, and yields
    what the plain walk yields, to the bit and in the same order."""

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
            walks = [(n, 0), (2, 0), (n, 1)] + [(k, k) for k in range(n + 1)]
            for k, least in walks:
                got = list(reachcore._subset_residuals(sys_, v, k, least))
                want = list(plain_walk(sys_, v, k, least))
                assert repr(got) == repr(want), (case, kind, k, least)

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
        res = dict(reachcore._subset_residuals(sys_, v, 3))
        assert res[0b010] == 1.0
        assert res[0b011] == 0.0
        assert repr(sorted(res.items())) == repr(sorted(plain_walk(sys_, v, 3)))


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
    """The bitmask of every subset that _ReachAccumulator.extended builds,
    in call order. An accumulator the walk did not build (its root) has
    mask 0."""
    masks = {}
    alive = []
    built = []
    extended = _ReachAccumulator.extended

    def recording(acc, i0):
        child = extended(acc, i0)
        mask = masks.get(id(acc), 0) | 1 << i0
        alive.append(child)
        masks[id(child)] = mask
        built.append(mask)
        return child

    monkeypatch.setattr(_ReachAccumulator, "extended", recording)
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

    @pytest.mark.parametrize("kind", ["weighted", "dense", "lemma1", "lemma2"])
    def test_walks_fold_what_the_full_walks_fold_less_what_coverage_rules_out(
        self, kind, built_masks, include_calls
    ):
        rng = np.random.default_rng(1913)
        fewer = 0
        for case in range(12):
            if kind in ("lemma1", "lemma2"):
                build = build_lemma1 if kind == "lemma1" else build_lemma2
                sys_, v = build(random_instance(rng, m_max=5, p_max=4))
                eps = EXACT_TOL * float(v @ v)
            else:
                n = 4 + case % 6
                if kind == "weighted":
                    sys_ = sparse_block_system(rng, n, weighted=True)
                else:
                    sys_ = random_system(rng, n)
                v = rng.standard_normal(sys_.output_dim)
                eps = float(rng.choice([EXACT_TOL, 1e-2, 0.3])) * float(v @ v)
            k_max = sys_.n
            got = brute_force_opt(sys_, v, eps)
            got_masks, got_includes = list(built_masks), len(include_calls)
            built_masks.clear()
            include_calls.clear()
            # The parent's walks: one per size, no limit, on a fresh twin.
            twin = LtiSystem(sys_.a, sys_.w)
            full = []
            for k in range(k_max + 1):
                start = len(built_masks)
                hit = next(
                    (
                        mask
                        for mask, res in reachcore._subset_residuals(twin, v, k, k)
                        if mask.bit_count() == k and res <= eps
                    ),
                    None,
                )
                full += [(k, mask) for mask in built_masks[start:]]
                if hit is not None:
                    break
            want = None if hit is None else tuple(i0 + 1 for i0 in range(k_max) if hit >> i0 & 1)
            assert (None if got is None else got.indices) == want, case
            if kind == "weighted":
                kept = [mask for _, mask in full]
            else:
                rows = reach_rows(sys_.a)
                limit = eps + TIE_BAND_REL * sys_.n * float(v @ v)
                kept = [mask for k, mask in full if kept_by_coverage(rows, v, limit, k, mask)]
            assert got_masks == kept, case
            if kind in ("weighted", "dense"):
                assert got_includes == len(include_calls), case
            fewer += got_includes < len(include_calls)
            built_masks.clear()
            include_calls.clear()
        if kind in ("lemma1", "lemma2"):
            assert fewer >= 6


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
