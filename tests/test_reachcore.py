"""Reachability core tests: domain types, Krylov columns, reachable
subspaces, feasibility, controllability, transfer vectors, and the
exact one-step relaxation threshold."""

import math
from collections import deque

import numpy as np
import pytest

from conftest import lstsq_residual_sq, random_actuators, random_system
from minreach import (
    ActuatorSet,
    CapacityError,
    DimensionError,
    EXACT_TOL,
    InputError,
    LtiSystem,
    TIE_BAND_REL,
    TransferSpec,
    UnsupportedOperationError,
    epsilon_a,
    erdos_renyi,
    is_controllable,
    is_feasible,
    reachable_subspace,
    residual,
    star,
    transfer_vector,
)
from minreach import reachcore
from minreach.numkit import _SpanBuilder
from minreach.selector import _GreedyPath, _greedy_core

DIAG12 = LtiSystem(np.diag([1.0, 2.0]))


class TestLtiSystem:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            LtiSystem([[1.0, 2.0]])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            LtiSystem(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            LtiSystem([[np.inf]])

    def test_rejects_weight_column_mismatch(self):
        with pytest.raises(DimensionError):
            LtiSystem(np.eye(3), w=np.eye(2))

    def test_output_dim(self):
        assert LtiSystem(np.eye(3)).output_dim == 3
        assert LtiSystem(np.eye(3), w=np.ones((2, 3))).output_dim == 2

    def test_matrices_read_only(self):
        sys_ = LtiSystem(np.eye(2))
        with pytest.raises(ValueError):
            sys_.a[0, 0] = 7.0


class TestActuatorSet:
    def test_sorts_indices(self):
        assert ActuatorSet(4, (3, 1)).indices == (1, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            ActuatorSet(4, (2, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            ActuatorSet(4, (0,))
        with pytest.raises(InputError):
            ActuatorSet(4, (5,))

    @pytest.mark.parametrize("n", [3.7, True, "3"])
    def test_rejects_a_dimension_that_is_not_an_integer(self, n):
        with pytest.raises(InputError):
            ActuatorSet(n, (1,))

    @pytest.mark.parametrize("index", [1.5, True])
    def test_rejects_an_index_that_is_not_an_integer(self, index):
        with pytest.raises(InputError):
            ActuatorSet(3, (index,))

    def test_accepts_integral_floats(self):
        delta = ActuatorSet(3.0, (2.0, np.int64(1)))
        assert (delta.n, delta.indices) == (3, (1, 2))
        assert type(delta.n) is int
        assert all(type(i) is int for i in delta.indices)

    def test_empty_and_full(self):
        assert ActuatorSet.empty(3).cardinality == 0
        assert ActuatorSet.full(3).indices == (1, 2, 3)

    def test_delta_and_b(self):
        delta = ActuatorSet(3, (1, 3))
        assert delta.to_delta().tolist() == [1.0, 0.0, 1.0]
        b = delta.to_b()
        assert np.array_equal(b, np.diag([1.0, 0.0, 1.0]))
        assert delta.cardinality == int(np.count_nonzero(np.diag(b)))

    def test_with_index_and_contains(self):
        delta = ActuatorSet(3, (2,))
        assert delta.with_index(2) is delta
        assert delta.with_index(1).indices == (1, 2)
        assert 2 in delta
        assert 3 not in delta


class TestTransferSpec:
    def test_rejects_bad_window(self):
        with pytest.raises(InputError):
            TransferSpec(x0=[0.0], x1=[1.0], t0=1.0, t1=1.0)
        with pytest.raises(InputError):
            TransferSpec(x0=[0.0], x1=[1.0], t0=2.0, t1=1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError):
            TransferSpec(x0=[0.0], x1=[1.0, 2.0])

    def test_defaults(self):
        spec = TransferSpec(x0=[0.0], x1=[1.0])
        assert spec.t0 == 0.0
        assert spec.t1 == 1.0


class TestReachableSubspace:
    def test_empty_set_empty_basis(self):
        rng = np.random.default_rng(47)
        sys_ = random_system(rng, 4)
        assert reachable_subspace(sys_, ActuatorSet.empty(4)).rank == 0

    def test_full_set_full_rank(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            sys_ = random_system(rng, n)
            assert reachable_subspace(sys_, ActuatorSet.full(n)).rank == n

    def test_star_center_rank_one(self):
        assert reachable_subspace(star(4), ActuatorSet(5, (1,))).rank == 1

    def test_spans_raw_krylov_columns(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            sys_ = random_system(rng, n)
            delta = random_actuators(rng, n, min_size=1)
            basis = reachable_subspace(sys_, delta)
            for i in delta.indices:
                cur = np.zeros(n)
                cur[i - 1] = 1.0
                for _ in range(n):
                    assert basis.contains(cur, tol_sq=1e-10 * float(cur @ cur))
                    cur = sys_.a @ cur

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            reachable_subspace(DIAG12, ActuatorSet(3, (1,)))


class TestResidual:
    def test_empty_set_full_norm(self):
        rng = np.random.default_rng(61)
        sys_ = random_system(rng, 4)
        v = rng.standard_normal(4)
        assert residual(sys_, ActuatorSet.empty(4), v) == pytest.approx(float(v @ v))

    def test_full_set_zero(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            sys_ = random_system(rng, n)
            v = rng.standard_normal(n)
            assert residual(sys_, ActuatorSet.full(n), v) <= 1e-9

    def test_star_center_axis(self):
        v = np.zeros(5)
        v[0] = 1.0
        assert residual(star(4), ActuatorSet(5, (1,)), v) <= 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            sys_ = random_system(rng, n)
            delta = random_actuators(rng, n)
            v = rng.standard_normal(n)
            res = residual(sys_, delta, v)
            assert 0.0 <= res <= float(v @ v) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            residual(DIAG12, ActuatorSet(2, (1,)), [1.0, 2.0, 3.0])


class TestIsFeasible:
    def test_zero_vector_always_feasible(self):
        report = is_feasible(DIAG12, ActuatorSet.empty(2), [0.0, 0.0])
        assert report.feasible
        assert report.residual_sq == 0.0

    def test_star_center_axis_feasible(self):
        v = np.zeros(5)
        v[0] = 1.0
        report = is_feasible(star(4), ActuatorSet(5, (1,)), v)
        assert report.feasible
        assert report.basis_rank == 1

    def test_diagonal_single_actuator_infeasible(self):
        report = is_feasible(DIAG12, ActuatorSet(2, (1,)), [1.0, 1.0])
        assert not report.feasible
        assert report.residual_sq == pytest.approx(1.0, abs=1e-12)

    def test_flag_matches_threshold(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            sys_ = random_system(rng, n)
            delta = random_actuators(rng, n)
            v = rng.standard_normal(n)
            report = is_feasible(sys_, delta, v)
            assert report.feasible == (
                report.residual_sq <= EXACT_TOL * float(v @ v)
            )
            assert report.residual_sq <= float(v @ v) + 1e-12


class TestIsControllable:
    def test_full_set_always(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            sys_ = random_system(rng, n)
            assert is_controllable(sys_, ActuatorSet.full(n))

    def test_star_center_alone_insufficient(self):
        assert not is_controllable(star(4), ActuatorSet(5, (1,)))

    def test_star_all_leaves_sufficient(self):
        assert is_controllable(star(4), ActuatorSet(5, (2, 3, 4, 5)))

    def test_identity_weight_allowed(self):
        sys_ = LtiSystem(np.diag([1.0, 2.0]), w=np.eye(2))
        assert is_controllable(sys_, ActuatorSet.full(2))

    def test_non_identity_weight_rejected(self):
        sys_ = LtiSystem(np.diag([1.0, 2.0]), w=np.ones((1, 2)))
        with pytest.raises(UnsupportedOperationError):
            is_controllable(sys_, ActuatorSet.full(2))


class TestTransferVector:
    def test_origin_start(self):
        rng = np.random.default_rng(83)
        sys_ = random_system(rng, 3)
        x1 = rng.standard_normal(3)
        spec = TransferSpec(x0=np.zeros(3), x1=x1)
        assert np.allclose(transfer_vector(sys_, spec), x1, atol=1e-12)

    def test_zero_dynamics(self):
        sys_ = LtiSystem(np.zeros((2, 2)))
        spec = TransferSpec(x0=[1.0, 2.0], x1=[3.0, 5.0], t0=0.5, t1=4.0)
        assert np.allclose(transfer_vector(sys_, spec), [2.0, 3.0], atol=1e-12)

    def test_scalar_exponential(self):
        sys_ = LtiSystem([[1.0]])
        spec = TransferSpec(x0=[1.0], x1=[0.0], t0=0.0, t1=1.0)
        assert transfer_vector(sys_, spec)[0] == pytest.approx(-np.e, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            transfer_vector(DIAG12, TransferSpec(x0=[0.0], x1=[1.0]))


class TestEpsilonA:
    def test_diagonal_two_axes(self):
        assert epsilon_a(DIAG12, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_single_axis(self):
        assert epsilon_a(DIAG12, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_star_positive(self):
        v = np.zeros(5)
        v[0] = 1.0
        value = epsilon_a(star(4), v)
        assert value > 0.0

    def test_positive_or_infinite(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            sys_ = random_system(rng, n)
            v = rng.standard_normal(n)
            value = epsilon_a(sys_, v)
            assert value > 0.0 or math.isinf(value)

    def test_sentinel_when_no_one_step_subset(self):
        # Every single index reaches the target, so no subset is both
        # infeasible and one index away from feasible.
        sys_ = LtiSystem([[1.0]])
        assert epsilon_a(sys_, [1.0]) == pytest.approx(1.0)
        rng = np.random.default_rng(97)
        sys2 = random_system(rng, 2)
        v = rng.standard_normal(2)
        value = epsilon_a(sys2, v)
        assert value > 0.0 or math.isinf(value)

    def test_rejects_zero_vector(self):
        with pytest.raises(InputError):
            epsilon_a(DIAG12, [0.0, 0.0])

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            epsilon_a(LtiSystem(np.eye(17)), np.ones(17))


class TestSemanticProperties:
    def test_monotonicity_under_inclusion(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            sys_ = random_system(rng, n)
            v = rng.standard_normal(n)
            small = random_actuators(rng, n)
            extra = [i for i in range(1, n + 1) if i not in small.indices]
            big = small
            for i in extra[: max(1, len(extra) // 2)]:
                big = big.with_index(i)
            assert residual(sys_, small, v) >= residual(sys_, big, v) - 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(103)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            sys_ = random_system(rng, n)
            delta = random_actuators(rng, n)
            v = rng.standard_normal(n)
            base = residual(sys_, delta, v)
            for c in (0.5, 3.0):
                scaled = residual(sys_, delta, c * v)
                assert scaled == pytest.approx(c * c * base, rel=1e-9, abs=1e-9)

    def test_time_invariance_of_feasibility(self):
        rng = np.random.default_rng(107)
        band = (0.5 * EXACT_TOL, 2.0 * EXACT_TOL)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 6))
            sys_ = random_system(rng, n)
            delta = random_actuators(rng, n, min_size=1)
            x0 = rng.standard_normal(n)
            x1 = rng.standard_normal(n)
            flags = []
            skip = False
            for tau in (0.5, 1.0, 3.0):
                v = transfer_vector(sys_, TransferSpec(x0=x0, x1=x1, t0=0.0, t1=tau))
                report = is_feasible(sys_, delta, v)
                rel = report.residual_sq / max(float(v @ v), 1e-300)
                if band[0] <= rel <= band[1]:
                    skip = True
                    break
                flags.append(report.feasible)
            if skip:
                continue
            checked += 1
            assert len(set(flags)) == 1
        assert checked >= 40

    def test_agrees_with_least_squares_membership(self):
        rng = np.random.default_rng(109)
        band = (0.5 * EXACT_TOL, 2.0 * EXACT_TOL)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 8))
            sys_ = random_system(rng, n)
            delta = random_actuators(rng, n)
            v = rng.standard_normal(n)
            nv2 = float(v @ v)
            rel = lstsq_residual_sq(sys_, delta, v) / nv2
            if band[0] <= rel <= band[1]:
                continue
            checked += 1
            assert is_feasible(sys_, delta, v).feasible == (rel <= EXACT_TOL)
        assert checked >= 40


def scalar_closure(a, i0):
    """The breadth-first Krylov sweep of one index, one builder add at a time."""
    n = a.shape[0]
    builder = _SpanBuilder(n)
    seed = np.zeros(n)
    seed[i0] = 1.0
    frontier = deque([builder.add(seed)])
    while frontier and builder.rank < n:
        direction = builder.add(a @ frontier.popleft())
        if direction is not None:
            frontier.append(direction)
    return builder


def scalar_best_extension(acc, indices, v, band=0.0):
    """One copy and include per index, gains summed in Python floats.
    Returns the first index whose gain is positive and within `band` of
    the largest gain, with its trial, or (-1, None) when no gain is
    positive."""
    trials = {}
    for i0 in indices:
        trial = acc.copy()
        gain = 0.0
        for direction in trial.include(i0):
            dot = float(direction @ v)
            gain += dot * dot
        if gain > 0.0:
            trials[i0] = (gain, trial)
    if not trials:
        return -1, None
    top = max(gain for gain, _ in trials.values())
    return next((i0, trial) for i0, (gain, trial) in trials.items() if gain >= top - band)


def fold_greedy(sys_, v, eps):
    """The greedy by trial folds: at each step scalar_best_extension with
    the tie band, the winner's fold judging it as _greedy_core does (a
    winner that does not lower the residual leaves the candidates).
    Returns the 0-based picks, the residual trace and whether it stuck."""
    band = TIE_BAND_REL * sys_.n * float(v @ v)
    acc = reachcore._ReachAccumulator(sys_)
    offered = list(range(sys_.n))
    picks, residuals = [], [float(v @ v)]
    while residuals[-1] > eps:
        i0, trial = scalar_best_extension(acc, offered, v, band)
        if trial is None:
            return picks, residuals, True
        offered.remove(i0)
        res = trial.residual_sq(v)
        if res < residuals[-1]:
            acc = trial
            picks.append(i0)
            residuals.append(res)
    return picks, residuals, False


def residual_closure_greedy(sys_, v, eps):
    """The package's greedy path for `v` grown down to `eps`, in the form
    fold_greedy returns."""
    path = _GreedyPath(sys_, v)
    _greedy_core(path, eps)
    return path.chosen, path.residuals, path.stuck is not None


def same_span(x, y):
    return x.rank == y.rank and np.array_equal(x._q[:, : x.rank], y._q[:, : y.rank])


def block_diagonal(rng, sizes):
    n = sum(sizes)
    a = np.zeros((n, n))
    start = 0
    for size in sizes:
        a[start : start + size, start : start + size] = rng.standard_normal((size, size))
        start += size
    return a


class TestBatchedClosuresAndExtensions:
    """Closure builds give the reference sweep's results to the bit, and
    the greedy's residual-closure gains pick what trial folds pick."""

    def systems(self):
        rng = np.random.default_rng(2024)
        for n in (6, 23, 40):
            yield random_system(rng, n)
            yield random_system(rng, n, weighted=True)
            yield LtiSystem(block_diagonal(rng, [1 + k % 4 for k in range(n // 2)]))
            sparse = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.08)
            yield LtiSystem(sparse, rng.standard_normal((n + 3, n)))

    def test_closures_match_the_single_sweep(self):
        for sys_ in self.systems():
            for i0 in range(sys_.n):
                built = reachcore._index_closure(sys_.a, i0)
                assert same_span(built, scalar_closure(sys_.a, i0))

    def test_picks_match_fold_gains_with_the_tie_band(self):
        rng = np.random.default_rng(77)
        steps = 0
        for sys_ in self.systems():
            v = rng.standard_normal(sys_.output_dim)
            eps = 1e-12 * float(v @ v)
            got = residual_closure_greedy(sys_, v, eps)
            assert got == fold_greedy(sys_, v, eps)
            steps += len(got[0])
        assert steps > 2 * len(list(self.systems()))

    def test_residual_traces_match_the_fold_greedy_bit_for_bit(self):
        rng = np.random.default_rng(503)
        weighted_wide = stuck = 0
        for case in range(520):
            n = int(rng.integers(3, 11))
            kind = case % 4
            if kind == 0:
                a = erdos_renyi(n, case).a
            elif kind == 1:
                a = block_diagonal(rng, [1 + k % 3 for k in range(n // 2)])
            else:
                a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.25)
            w = None
            if kind == 3:
                w = rng.standard_normal((int(rng.integers(1, a.shape[0] + 4)), a.shape[0]))
                weighted_wide += w.shape[0] > w.shape[1]
            sys_ = LtiSystem(a, w)
            v = rng.standard_normal(sys_.output_dim)
            eps = float(10.0 ** rng.uniform(-14, -1)) * float(v @ v)
            got = residual_closure_greedy(sys_, v, eps)
            assert got == fold_greedy(sys_, v, eps)
            stuck += got[2]
        assert weighted_wide >= 30
        assert stuck >= 10

    def test_the_fold_judges_a_pick_that_cannot_lower_the_residual(self, monkeypatch):
        # After axis 3 the residual is one ulp of ||v||^2. Axes 1 and 2 each
        # score 6e-17, but folding either in leaves the projected norm at
        # 1.0, so each is dropped in turn and the path is stuck.
        sys_ = LtiSystem(np.diag([1.0, 2.0, 3.0]))
        v = np.array([7.75e-9, 7.75e-9, 1.0])
        folds = []
        include = reachcore._ReachAccumulator.include

        def recording(acc, i0):
            folds.append(i0)
            return include(acc, i0)

        monkeypatch.setattr(reachcore._ReachAccumulator, "include", recording)
        got = residual_closure_greedy(sys_, v, 1e-20)
        assert folds == [2, 0, 1]
        assert got == ([2], [1.0 + 2.0**-52, 2.0**-52], True)
        monkeypatch.undo()
        assert got == fold_greedy(sys_, v, 1e-20)


class TestCertifiedPicks:
    """The greedy builds a candidate only when bounds cannot certify the
    pick without it, and still picks what trial folds over every candidate
    pick. Each case below defeats a shortcut that looks sound."""

    def test_reach_table_matches_breadth_first_search(self):
        def searched(a):
            n = a.shape[0]
            table = np.zeros((n, n), dtype=bool)
            for i in range(n):
                table[i, i] = True
                frontier = deque([i])
                while frontier:
                    j = frontier.popleft()
                    for k in np.flatnonzero(a[:, j] != 0.0):
                        if not table[i, k]:
                            table[i, k] = True
                            frontier.append(k)
            return table

        rng = np.random.default_rng(1019)
        for case in range(90):
            n = int(rng.integers(1, 30))
            if case % 3 == 0:
                a = rng.standard_normal((n, n)) * (rng.random((n, n)) < rng.uniform(0, 0.3))
            elif case % 3 == 1:
                a = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3))
            else:
                order = rng.permutation(n)
                a = block_diagonal(rng, [n])[np.ix_(order, order)] * (rng.random((n, n)) < 0.1)
            assert np.array_equal(LtiSystem(a)._reach, searched(a)), case
        # A path of 2000 states, far deeper than the recursion limit.
        chain = LtiSystem(np.diag(np.ones(1999), -1))._reach
        assert np.array_equal(chain, np.tril(np.ones((2000, 2000), dtype=bool)).T)

    def test_bounds_track_the_support_of_each_pick(self):
        # On an upper-triangular A, state i reaches only states up to i, but
        # taking a pick's directions out of i's closure spreads it over the
        # pick's states: after the first pick, the residual on the states i
        # reaches no longer bounds i's score.
        rng = np.random.default_rng(1009)
        for case in range(40):
            n = int(rng.integers(4, 13))
            a = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3))
            sys_ = LtiSystem(a)
            v = rng.standard_normal(n)
            eps = 1e-12 * float(v @ v)
            assert residual_closure_greedy(sys_, v, eps) == fold_greedy(sys_, v, eps), case

    def test_an_index_inside_the_band_of_a_later_score_is_kept(self):
        # Scores 1, 1 + 24u and 1 + 54u against a band of 36u (u = 2^-52):
        # index 2's score moves the pick off index 0 to index 1, so index 1
        # cannot be skipped for lying within the band of index 0's score.
        u = 2.0**-52
        v = np.array([1.0, math.sqrt(1.0 + 25 * u), math.sqrt(1.0 + 54 * u)])
        sys_ = LtiSystem(np.diag([1.0, 2.0, 3.0]))
        got = residual_closure_greedy(sys_, v, 1e-30)
        assert got[0] == [1, 2, 0]
        assert got == fold_greedy(sys_, v, 1e-30)

    def test_a_score_that_grows_after_a_pick_is_not_bounded_by_the_old_one(self):
        # Gains are not submodular. Index 1's closure holds (e0 + e2) / sqrt 2
        # and scores 0 for v = e0 - e2; after index 0 is picked it holds e2
        # and scores 1, and ties index 2 (Minoux's lazy greedy, which keeps
        # old scores as bounds, would pick index 2).
        a = np.zeros((3, 3))
        a[0, 1] = a[2, 1] = 1.0
        sys_ = LtiSystem(a)
        v = np.array([1.0, 0.0, -1.0])
        got = residual_closure_greedy(sys_, v, 1e-20)
        assert got[0] == [0, 1]
        assert got == fold_greedy(sys_, v, 1e-20)

    def test_support_prefilter_never_skips_an_overlapping_closure(self, monkeypatch):
        # With every candidate built, each closure whose tracked support
        # misses the new directions' support has an exactly zero product
        # with them, so the exact test would skip it too; and every residual
        # closure stays zero outside its tracked support.
        absorb = _GreedyPath.absorb_fresh
        checked = []

        def checking(path):
            d = path.fresh
            if d is not None:
                hit = d.any(axis=1)
                for i0, (z, _) in path.bases.items():
                    if not (path.support[i0] & hit).any():
                        assert not (d.T @ z).any()
                        checked.append(i0)
            absorb(path)
            for i0, (z, _) in path.bases.items():
                assert not (z.any(axis=1) & ~path.support[i0]).any()

        monkeypatch.setattr(_GreedyPath, "absorb_fresh", checking)
        rng = np.random.default_rng(1013)
        for case in range(60):
            n = int(rng.integers(4, 20))
            if case % 3 == 0:
                a = block_diagonal(rng, [1 + k % 4 for k in range(n // 2)])
            elif case % 3 == 1:
                a = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3))
            else:
                a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.15)
            sys_ = LtiSystem(a)
            v = rng.standard_normal(sys_.n)
            path = _GreedyPath(sys_, v)
            for i0 in range(sys_.n):
                path._build(i0)
            _greedy_core(path, 1e-12 * float(v @ v))
            want = fold_greedy(sys_, v, 1e-12 * float(v @ v))
            assert (path.chosen, path.residuals, path.stuck is not None) == want
        assert len(checked) > 400
