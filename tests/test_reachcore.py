"""Reachability core tests: domain types, Krylov columns, reachable
subspaces, feasibility, controllability, transfer vectors, and the
exact one-step relaxation threshold."""

import functools
import math
from collections import Counter, deque
from operator import or_

import numpy as np
import pytest

from conftest import copy_accumulator, lstsq_residual_sq, random_actuators, random_system
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
    bisection_exact,
    epsilon_a,
    erdos_renyi,
    is_controllable,
    is_feasible,
    reachable_subspace,
    random_target,
    residual,
    star,
    transfer_vector,
)
from minreach import reachcore
from minreach.numkit import _SpanBuilder
from minreach.selector import _BOUND_SLACK_REL, _GreedyPath, _greedy_core

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
        b = delta.to_b()
        assert np.array_equal(b, np.diag([1.0, 0.0, 1.0]))
        assert delta.cardinality == int(np.count_nonzero(np.diag(b)))

    def test_with_index_and_contains(self):
        delta = ActuatorSet(3, (2,))
        assert delta.with_index(2) is delta
        assert delta.with_index(1).indices == (1, 2)
        assert 2 in delta
        assert 3 not in delta

    @pytest.mark.parametrize("index", [1.5, True])
    def test_with_index_rejects_an_index_that_is_not_an_integer(self, index):
        with pytest.raises(InputError):
            ActuatorSet(3, (2,)).with_index(index)


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

    @pytest.mark.parametrize("field", ["t0", "t1"])
    @pytest.mark.parametrize("value", ["1", "2.0", True, np.True_])
    def test_a_time_that_is_a_string_or_a_boolean_is_refused(self, field, value):
        times = {"t0": -1.0, "t1": 3.0, field: value}
        with pytest.raises(InputError, match=rf"^{field}: expected a number, got "):
            TransferSpec(x0=[0.0], x1=[1.0], **times)

    @pytest.mark.parametrize("field", ["t0", "t1"])
    def test_a_non_finite_time_is_refused(self, field):
        with pytest.raises(InputError, match=rf"^{field}: must be finite"):
            TransferSpec(x0=[0.0], x1=[1.0], **{field: math.nan})


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
                    nc2 = float(cur @ cur)
                    assert nc2 - basis.project_norm_sq(cur) <= 1e-10 * nc2
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

    def test_non_identity_weight_is_refused_before_any_fold(self, span_adds):
        sys_ = LtiSystem(np.diag([1.0, 2.0]), w=np.ones((1, 2)))
        with pytest.raises(UnsupportedOperationError):
            is_controllable(sys_, ActuatorSet.full(2))
        assert span_adds == []


#: Every call that takes an actuator set, as ``call(sys_, delta, v)``.
SET_CALLS = {
    "reachable_subspace": lambda sys_, delta, v: reachable_subspace(sys_, delta),
    "residual": residual,
    "is_feasible": is_feasible,
    "is_controllable": lambda sys_, delta, v: is_controllable(sys_, delta),
}


class TestSetDimension:
    """A set over another dimension than the system's is refused first:
    before a bad vector, and before a non-identity W."""

    MESSAGE = "actuator set is over dimension 3, system has n=2"

    @pytest.mark.parametrize("call", list(SET_CALLS))
    def test_refuses_a_set_over_another_dimension(self, call):
        with pytest.raises(DimensionError) as exc_info:
            SET_CALLS[call](DIAG12, ActuatorSet(3, (1,)), [1.0, 2.0])
        assert str(exc_info.value) == self.MESSAGE

    @pytest.mark.parametrize("call", ["residual", "is_feasible"])
    @pytest.mark.parametrize("v", [[1.0, 2.0, 3.0], [1.0, math.inf], [1e200, 0.0]])
    def test_the_set_is_refused_before_the_vector(self, call, v):
        with pytest.raises(DimensionError) as exc_info:
            SET_CALLS[call](DIAG12, ActuatorSet(3, (1,)), v)
        assert str(exc_info.value) == self.MESSAGE

    def test_the_set_is_refused_before_the_weight(self):
        sys_ = LtiSystem(np.diag([1.0, 2.0]), w=np.ones((1, 2)))
        with pytest.raises(DimensionError) as exc_info:
            is_controllable(sys_, ActuatorSet(3, (1,)))
        assert str(exc_info.value) == self.MESSAGE


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
    """One copy and include per index, gains summed in Python floats over
    the new output directions: the unit vectors of the newly covered
    states when the trial is basis-free. Returns the first index whose
    gain is positive and within `band` of the largest gain, with its
    trial, or (-1, None) when no gain is positive."""
    trials = {}
    for i0 in indices:
        trial = copy_accumulator(acc)
        start = trial.output_rank
        trial.include(i0)
        if trial.basis_free:
            new = trial.cover & ~acc.cover
            directions = np.eye(len(v))[[j for j in range(len(v)) if new >> j & 1]]
        else:
            directions = trial.output_builder.span(start).T
        gain = 0.0
        for direction in directions:
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
                built = sys_._closure(i0)
                assert same_span(built, scalar_closure(sys_.a, i0))

    def repeated_row_cases(self):
        """Weighted systems whose W repeats its first row, each with a
        target. W has rank 10, so every index whose closure has rank 10 or
        more folds into the whole range of W, and those fold gains differ by
        rounding alone: the tie band decides the first pick. At seeds 50 and
        191 every index reaches every state, and how the gains round depends
        on the BLAS kernel. In the third case index 0 reaches itself alone,
        and `v` lies in the range of W with a squared part of 4 bands
        outside W e_0, so index 0's gain lies about 4 bands below the top on
        every kernel."""
        for seed in (50, 191):
            rng = np.random.default_rng(seed)
            w = rng.standard_normal((11, 15))
            w[10] = w[0]
            yield LtiSystem(erdos_renyi(15, seed).a, w), rng.standard_normal(11)
        rng = np.random.default_rng(1913)
        w = rng.standard_normal((11, 15))
        w[10] = w[0]
        a = erdos_renyi(15, 1913).a.copy()
        a[:, 0] = 0.0
        x = w[:, 0]
        u = w @ rng.standard_normal(15)
        u -= (u @ x) / (x @ x) * x
        u /= np.linalg.norm(u)
        yield LtiSystem(a, w), x + math.sqrt(4 * TIE_BAND_REL * 15 * float(x @ x)) * u

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
        # The first pick is the smallest index within the band of the top
        # fold gain, on whichever kernel runs the test. Index 0's distance
        # below the top, in bands, is rounding alone in the first two cases
        # (0.0 to 9.92 over the six kernels of tools/kernel_suite.py) and
        # the planted 4 bands in the third.
        below = []
        for sys_, v in self.repeated_row_cases():
            nv2 = float(v @ v)
            band = TIE_BAND_REL * sys_.n * nv2
            gains = []
            for i0 in range(sys_.n):
                fold = reachcore._ReachAccumulator(sys_)
                fold.include(i0)
                gains.append(nv2 - fold.residual_sq(v))
            top = max(gains)
            first = next(i0 for i0, gain in enumerate(gains) if gain >= top - band)
            below.append((top - gains[0]) / band)
            got = residual_closure_greedy(sys_, v, 0.5 * nv2)
            assert got[0] == [first]
            assert got == fold_greedy(sys_, v, 0.5 * nv2)
        assert max(below[:2]) < 12 and 3.5 < below[2] < 4.5

    def test_weighted_first_scores_are_the_first_fold_gains(self):
        # The gain the trial of i would take, to the bit.
        rng = np.random.default_rng(78)
        weighted = [sys_ for sys_ in self.systems() if sys_.w is not None]
        cases = [(sys_, rng.standard_normal(sys_.output_dim)) for sys_ in weighted]
        cases += list(self.repeated_row_cases())
        for sys_, v in cases:
            path = _GreedyPath(sys_, v)
            for i0 in range(sys_.n):
                path._build(i0)
                fold = reachcore._ReachAccumulator(sys_)
                fold.include(i0)
                assert path.scores[i0] == fold.out.project_norm_sq(v)

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
        # Hub 0 drives states 1 and 2 with equal weights, so its closure,
        # span{e0, e1 + e2}, has rank 2 of the 3 states it reaches: it is
        # not full, and its pick leaves the basis-free mode. It leaves
        # (v1 e1 - v1 e2) / 2, far below one ulp of ||v||^2, and ||v||^2
        # less the projected norm cannot show it. Axes 1 and 2 each score
        # v1^2 / 2 > 0, but folding either in leaves the residual where it
        # was, so each is dropped in turn and the path is stuck. The same on
        # every OpenBLAS kernel of tools/kernel_suite.py.
        a = np.zeros((3, 3))
        a[1, 0] = a[2, 0] = 1.0
        sys_ = LtiSystem(a)
        assert [sys_._full(i0) for i0 in range(3)] == [False, True, True]
        v = np.array([1.1, 1.2e-8, 0.0])
        folds = []
        include = reachcore._ReachAccumulator.include

        def recording(acc, i0):
            folds.append(i0)
            return include(acc, i0)

        monkeypatch.setattr(reachcore._ReachAccumulator, "include", recording)
        got = residual_closure_greedy(sys_, v, 1e-20)
        assert folds == [0, 1, 2]
        assert got[0] == [0] and got[1][0] == float(v @ v) and got[2]
        monkeypatch.undo()
        assert got == fold_greedy(sys_, v, 1e-20)

    def test_coordinate_residuals_are_the_mass_outside_the_cover(self):
        # Every closure of diag(1, 2, 3) is full, so the path stays
        # basis-free, and each residual is the mass of v outside the axes
        # picked, with no projection to round it: the tiny axes are picked
        # too, down to exactly 0.0.
        sys_ = LtiSystem(np.diag([1.0, 2.0, 3.0]))
        v = np.array([7.75e-9, 7.75e-9, 1.0])
        got = residual_closure_greedy(sys_, v, 1e-20)
        assert got == ([2, 0, 1], [float(v @ v), 2 * 7.75e-9**2, 7.75e-9**2, 0.0], False)
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
        # A path of 2000 states, the deepest digraph of its size: it takes
        # the most squarings to close.
        chain = LtiSystem(np.diag(np.ones(1999), -1))._reach
        assert np.array_equal(chain, np.tril(np.ones((2000, 2000), dtype=bool)).T)
        order = rng.permutation(40)
        more = [
            np.array([[0.0]]),
            np.array([[-2.0]]),
            np.zeros((6, 6)),
            np.ones((7, 7)),
            np.diag(np.ones(39), -1)[np.ix_(order, order)],
        ]
        for n in (65, 70, 130):
            more.append(rng.standard_normal((n, n)) * (rng.random((n, n)) < 2.0 / n))
        for a in more:
            sys_ = LtiSystem(a)
            assert np.array_equal(sys_._reach, searched(a))
            assert sys_._reach_bits == tuple(
                sum(1 << int(j) for j in np.flatnonzero(row)) for row in sys_._reach
            )

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
                    if not (path.support[path.group[i0]] & hit).any():
                        assert not (d.T @ z).any()
                        checked.append(i0)
            absorb(path)
            for i0, (z, _) in path.bases.items():
                assert not (z.any(axis=1) & ~path.support[path.group[i0]]).any()

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
            v = rng.standard_normal(a.shape[0])
            # An unweighted path keeps a basis only for a closure that is
            # not full; the weighted twin, W = I, keeps one for every
            # candidate and tracks the same supports.
            for w in (None, np.eye(a.shape[0])):
                sys_ = LtiSystem(a, w)
                path = _GreedyPath(sys_, v)
                for i0 in range(sys_.n):
                    path._build(i0)
                _greedy_core(path, 1e-12 * float(v @ v))
                want = fold_greedy(sys_, v, 1e-12 * float(v @ v))
                assert (path.chosen, path.residuals, path.stuck is not None) == want
        assert len(checked) > 400

    def test_a_path_that_leaves_the_basis_free_mode_rebuilds_its_coverage_scores(self):
        # Built at the start, each index of a block has a full closure and
        # is scored by coverage. The hub's pick leaves the basis-free mode,
        # and each goes back to pending. Built then from its closure,
        # replaying every pick, it is a candidate built only after the pick:
        # same basis, same score.
        rng = np.random.default_rng(1831)
        rebuilt = 0
        for size in (2, 3, 4, 5, 6):
            hub, blocks = twin_blocks(rng, size), block_diagonal(rng, [3, 4])
            m, n = hub.shape[0], hub.shape[0] + blocks.shape[0]
            a = np.zeros((n, n))
            a[:m, :m] = hub
            a[m:, m:] = blocks
            sys_ = LtiSystem(a)
            # The last block carries too little of v to be picked, so its
            # candidates are left when the path stops.
            v = rng.standard_normal(n) * np.where(np.arange(n) < n - 4, 1.0, 1e-3)
            eps = 1e-5 * float(v @ v)
            early, late = _GreedyPath(sys_, v), _GreedyPath(sys_, v)
            for i0 in range(sys_.n):
                early._build(i0)
            coord = set(np.flatnonzero(early.coord).tolist())
            for path in (early, late):
                _greedy_core(path, eps)
                path.absorb_fresh()
            assert early.chosen == late.chosen and m - 1 in early.chosen
            assert not early.coord.any() and not late.coord.any()
            assert not coord & set(early.bases)
            for i0 in sorted(coord):
                if early.pending[i0]:
                    early._build(i0)
            for i0, (z, s) in early.bases.items():
                if late.pending[i0]:
                    late._build(i0)
                want_z, want_s = late.bases[i0]
                assert z.tobytes() == want_z.tobytes() and s.tobytes() == want_s.tobytes()
                assert early.scores[i0] == late.scores[i0]
                rebuilt += i0 in coord
        assert rebuilt >= 5


def twin_blocks(rng, size):
    """Two copies of one Gaussian block of `size` states, and a last state,
    the hub, that drives the first state of each copy with weight 1. The
    hub's closure has rank size + 1 of the 2 size + 1 states it reaches,
    so it is not full; every other closure is."""
    n = 2 * size + 1
    a = np.zeros((n, n))
    a[:size, :size] = a[size:-1, size:-1] = rng.standard_normal((size, size))
    a[0, -1] = a[size, -1] = 1.0
    return a


def permuted(rng, a):
    """`a` with its states relabelled by a random permutation, so that the
    states of a block are not contiguous."""
    perm = rng.permutation(a.shape[0])
    return a[np.ix_(perm, perm)]


class TestReachGroups:
    """The greedy keeps one support row and one bound per group of indices
    with equal reach rows. Every index's group row is the row that a
    per-index table gives, and every bound that table's row sum, to the
    bit."""

    def systems(self):
        rng = np.random.default_rng(1811)
        for case in range(48):
            n = int(rng.integers(2, 40))
            kind = case % 4
            if kind == 0:
                a = permuted(rng, block_diagonal(rng, [1 + k % 5 for k in range(n // 3 + 1)]))
            elif kind == 1:
                a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
            elif kind == 2:
                a = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3))
            else:
                a = permuted(rng, block_diagonal(rng, [1 + k % 4 for k in range(n // 2 + 1)]))
            m = a.shape[0]
            if kind < 3:
                yield LtiSystem(a)
            elif case % 8 == 3:
                yield LtiSystem(a, rng.standard_normal((int(rng.integers(1, m + 4)), m)))
            else:
                rows = rng.choice(m, int(rng.integers(1, m + 1)), replace=False)
                yield LtiSystem(a, np.eye(m)[rows])

    def test_groups_are_the_distinct_reach_rows_in_order(self):
        for sys_ in self.systems():
            group, rows = sys_._reach_groups
            assert np.array_equal(rows[group], sys_._reach)
            assert len(rows) == len(set(sys_._reach_bits))
            firsts = [int(np.flatnonzero(group == g)[0]) for g in range(len(rows))]
            assert firsts == sorted(firsts)
            assert sys_._reach_groups is sys_._reach_groups

    def test_groups_are_the_unique_construction(self):
        # The groups numbered by first occurrence, and their rows picked by
        # np.unique's first indices, on the seeded systems and on digraphs
        # from erdos_renyi.
        systems = [*self.systems(), *(erdos_renyi(n, n + 7) for n in (5, 12, 40, 150))]
        for sys_ in systems:
            ids = {}
            want = np.array([ids.setdefault(bits, len(ids)) for bits in sys_._reach_bits])
            group, rows = sys_._reach_groups
            assert np.array_equal(group, want)
            assert np.array_equal(rows, sys_._reach[np.unique(want, return_index=True)[1]])
            assert not group.flags.writeable and not rows.flags.writeable

    def test_group_rows_and_bounds_are_the_per_index_ones(self, monkeypatch):
        absorb = _GreedyPath.absorb_fresh
        tables = {}

        def check(path, table):
            assert np.array_equal(path.support[path.group], table)
            if path.acc.out is None:
                r2 = path.r * path.r
                slack = 1.0 + _BOUND_SLACK_REL * table.shape[0]
                want = np.where(table, r2, 0.0).sum(axis=1) * slack
                assert path.bounds.tobytes() == want.tobytes()

        def checking(path):
            # The rule of a support per index: every row that meets the new
            # directions' support takes it in.
            table = tables[path]
            d = path.fresh
            absorb(path)
            if d is not None:
                hit = d.any(axis=1)
                table[(table & hit).any(axis=1)] |= hit
            check(path, table)

        monkeypatch.setattr(_GreedyPath, "absorb_fresh", checking)
        rng = np.random.default_rng(1812)
        picks = grouped = 0
        for sys_ in self.systems():
            v = rng.standard_normal(sys_.output_dim)
            path = _GreedyPath(sys_, v)
            tables[path] = sys_._reach.copy()
            check(path, tables[path])
            _greedy_core(path, 1e-12 * float(v @ v))
            picks += len(path.chosen)
            grouped += path.support.shape[0] < sys_.n
        assert picks > 250 and grouped > 30


class TestInPlaceFold:
    """The greedy folds each pick into its own accumulator in place, and
    rolls a rejected one back."""

    def systems(self):
        rng = np.random.default_rng(1823)
        for sizes in ([3, 1, 4], [5, 2, 4, 3, 1, 6], [4, 9, 2, 5, 10, 3, 6]):
            a = permuted(rng, block_diagonal(rng, sizes))
            n = a.shape[0]
            yield LtiSystem(a)
            for q in (n // 2, n + 3):
                yield LtiSystem(a, rng.standard_normal((q, n)))

    def hub_systems(self):
        """Unweighted systems with a closure that is not full: a fold that
        takes it leaves the basis-free mode, and later folds grow its state
        buffer."""
        rng = np.random.default_rng(1826)
        for sizes in ([3, 1, 4], [5, 2, 4, 3, 1, 6], [4, 9, 2, 5, 10, 3, 6]):
            blocks = block_diagonal(rng, sizes)
            hub = twin_blocks(rng, 4)
            m, n = blocks.shape[0], blocks.shape[0] + hub.shape[0]
            a = np.zeros((n, n))
            a[:m, :m] = blocks
            a[m:, m:] = hub
            yield LtiSystem(permuted(rng, a))

    def test_a_rolled_back_fold_leaves_the_accumulator_as_it_was(self):
        rng = np.random.default_rng(1824)
        grown = rolled = 0
        for sys_ in [*self.systems(), *self.hub_systems()]:
            n = sys_.n
            for _ in range(20):
                order = [int(i0) for i0 in rng.permutation(n)]
                k = int(rng.integers(1, n))
                acc = reachcore._ReachAccumulator(sys_)
                for i0 in order[:k]:
                    acc.include(i0)
                # Indices that reach a state outside the accumulator's cover.
                new = [i0 for i0 in order[k:] if sys_._reach_bits[i0] & ~acc.cover]
                if len(new) < 2:
                    continue
                before = copy_accumulator(acc)
                buffer = acc.state._q
                mark = acc.mark()
                acc.include(new[0])
                assert acc.rank > before.rank
                grown += acc.state._q is not buffer
                acc.truncate(mark)
                assert acc.mark() == before.mark() == mark
                assert same_bits(acc.state, before.state) and same_bits(acc.out, before.out)
                # It then folds what it would have folded without the trial.
                acc.include(new[1])
                before.include(new[1])
                assert acc.mark() == before.mark()
                assert same_bits(acc.state, before.state) and same_bits(acc.out, before.out)
                rolled += 1
        assert grown > 10 and rolled > 60

    def test_a_rejected_pick_is_rolled_back(self, monkeypatch):
        # The judge rejects the first trial (a fold into the empty set), the
        # second pick's trial and two trials in a row. Every trial is folded
        # into the path's one accumulator, which is then the fold of its
        # picks.
        residual_sq = reachcore._ReachAccumulator.residual_sq
        calls = []

        def rejecting(acc, v):
            calls.append(acc)
            return math.inf if len(calls) in (1, 3, 6, 7) else residual_sq(acc, v)

        monkeypatch.setattr(reachcore._ReachAccumulator, "residual_sq", rejecting)
        rng = np.random.default_rng(1825)
        for sys_ in self.systems():
            if sys_.n < 10 or sys_.output_dim < sys_.n:
                continue
            v = rng.standard_normal(sys_.output_dim)
            calls.clear()
            path = _GreedyPath(sys_, v)
            _greedy_core(path, 1e-12 * float(v @ v))
            assert len(path.chosen) + 4 == len(calls) and len(path.chosen) > 4
            assert {id(acc) for acc in calls} == {id(path.acc)}
            want = reachcore._ReachAccumulator(sys_)
            for i0 in path.chosen:
                want.include(i0)
            got = path.acc
            assert got.mark() == want.mark()
            assert same_bits(got.state, want.state) and same_bits(got.out, want.out)


def uncapped_closure(a, i0):
    """The breadth-first closure sweep with no rank cap: each accepted
    direction's image under `a` is offered to the span, until no accepted
    direction is left or the span is the whole space."""
    n = a.shape[0]
    builder = _SpanBuilder(n)
    seed = np.zeros(n)
    seed[i0] = 1.0
    builder.add(seed)
    j = 0
    while j < builder.rank < n:
        builder.add(a @ builder.column(j))
        j += 1
    return builder


def uncapped_fold(sys_, order):
    """The state and output spans of folding the uncapped closures of the
    0-based indices `order`, in that order, with no cap: into the empty
    state span a copy of the first closure, then every column of each later
    closure offered to the state span, and after each fold the W-image of
    every new state column offered to the output span, full or not. Also
    returns how many of those offers were absorbed."""
    state = _SpanBuilder(sys_.n)
    out = None if sys_.w is None else _SpanBuilder(sys_.output_dim)
    absorbed = 0
    for i0 in order:
        src = uncapped_closure(sys_.a, i0)
        start = state.rank
        if not start:
            state = src.copy()
        else:
            for k in range(src.rank):
                absorbed += state.add(src.column(k)) is None
        if out is not None:
            for col in (sys_.w @ state.span(start)).T:
                absorbed += out.add(col) is None
    return state, out, absorbed


def same_bits(x, y):
    """Whether two spans hold the same columns to the bit, or both are None."""
    if x is None or y is None:
        return x is y
    return x.rank == y.rank and np.array_equal(
        x.span().view(np.int64), y.span().view(np.int64)
    )


def spans_alike(acc, state):
    """Whether the unweighted accumulator `acc` spans what the builder
    `state` spans: the same rank, and orthogonal projectors equal within
    1e-9 per entry."""
    q, p = acc.basis().columns, state.span()
    return q.shape == p.shape and np.allclose(q @ q.T, p @ p.T, rtol=0.0, atol=1e-9)


class TestRankCaps:
    """A closure stops at the rank of its reach, a fold at the rank of its
    subset's reach, and an output span takes nothing once full. Each cap
    skips only `add` calls that would be absorbed, so every closure, and
    every span on a weighted system, keeps the bits of the uncapped sweep
    and fold. An unweighted fold, basis-free, a copy of its first closure or
    begun from its cover's unit vectors, spans what the uncapped fold
    spans."""

    def systems(self):
        rng = np.random.default_rng(4409)
        for n in (6, 11, 16):
            blocks = block_diagonal(rng, [1 + k % 4 for k in range(n // 2)])
            sparse = rng.standard_normal((n, n)) * (rng.random((n, n)) < 1.5 / n)
            for a in (blocks, sparse, rng.standard_normal((n, n))):
                yield LtiSystem(a)
                m = a.shape[0]
                for q in (m // 2, m + 3):
                    yield LtiSystem(a, rng.standard_normal((q, m)))

    def test_closures_and_folds_keep_the_uncapped_bits(self):
        rng = np.random.default_rng(4421)
        absorbed = checked = 0
        for sys_ in self.systems():
            n = sys_.n
            def kept(acc, state, out):
                if sys_.w is None:
                    return spans_alike(acc, state)
                return same_bits(acc.state, state) and same_bits(acc.out, out)

            for i0 in range(n):
                assert same_bits(sys_._closure(i0), uncapped_closure(sys_.a, i0))
                state, out, skipped = uncapped_fold(sys_, [i0])
                acc = reachcore._ReachAccumulator(sys_)
                acc.include(i0)
                assert kept(acc, state, out)
                absorbed += skipped
            for _ in range(12):
                delta = random_actuators(rng, n)
                acc = reachcore._accumulate(sys_, delta)
                state, out, skipped = uncapped_fold(sys_, [i - 1 for i in delta.indices])
                assert kept(acc, state, out)
                absorbed += skipped
                order = [int(i0) for i0 in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
                acc = reachcore._ReachAccumulator(sys_)
                for i0 in order:
                    acc.include(i0)
                state, out, skipped = uncapped_fold(sys_, order)
                assert kept(acc, state, out)
                absorbed += skipped
                checked += 2
        # The caps had absorbed offers to skip.
        assert checked == 648 and absorbed > 10_000


class TestSpanAddCounts:
    """`add` calls pinned with the span_adds fixture, as Counter of
    ``(dim, accepted)``."""

    def test_a_strongly_connected_block_closure_makes_one_add_per_state(self, span_adds):
        sizes = (3, 5, 1, 4)
        sys_ = LtiSystem(block_diagonal(np.random.default_rng(4451), sizes))
        i0 = 0
        for size in sizes:
            for _ in range(size):
                span_adds.clear()
                assert sys_._closure(i0).rank == size
                assert Counter(span_adds) == {(sys_.n, True): size}
                i0 += 1

    def test_a_first_fold_takes_one_output_add_per_output_row(self, span_adds):
        # The fold into the empty set copies the closure, with no state add,
        # and adds W-images until the output span is full: min(q, n) adds.
        rng = np.random.default_rng(4457)
        n = 12
        a = rng.standard_normal((n, n))
        for q in (n // 2, n + 3):
            sys_ = LtiSystem(a, rng.standard_normal((q, n)))
            sys_._closure(3)
            span_adds.clear()
            acc = reachcore._ReachAccumulator(sys_)
            acc.include(3)
            assert (acc.state.rank, acc.out.rank) == (n, min(q, n))
            assert Counter(span_adds) == {(q, True): min(q, n)}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_an_exact_solve_makes_one_add_per_state(self, span_adds, seed):
        # One closure of rank n; it is full, so the first pick's fold is
        # its cover, with no add.
        n = 50
        bisection_exact(erdos_renyi(n, seed), random_target(n, seed), 1.0)
        assert Counter(span_adds) == {(n, True): n}

    def test_a_coordinate_fold_makes_no_add(self, span_adds):
        # Every closure of a Gaussian block system is full, so every fold,
        # in any order, only grows the cover.
        rng = np.random.default_rng(4463)
        sys_ = LtiSystem(permuted(rng, block_diagonal(rng, [3, 5, 1, 4, 2])))
        n = sys_.n
        assert all(sys_._full(i0) for i0 in range(n))
        span_adds.clear()
        for _ in range(20):
            order = [int(i0) for i0 in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
            acc = reachcore._ReachAccumulator(sys_)
            for i0 in order:
                acc.include(i0)
            assert acc.basis_free
            assert acc.cover == functools.reduce(or_, (sys_._reach_bits[i0] for i0 in order))
        assert span_adds == []
