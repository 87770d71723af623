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
    TransferSpec,
    UnsupportedOperationError,
    epsilon_a,
    is_controllable,
    is_feasible,
    reachable_subspace,
    residual,
    star,
    transfer_vector,
)
from minreach import reachcore
from minreach.numkit import _SpanBuilder

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


def scalar_best_extension(acc, indices, cache, v):
    """One copy and include per index, gains summed in Python floats."""
    best_gain, best = 0.0, (-1, None)
    for i0 in indices:
        trial = acc.copy()
        gain = 0.0
        for direction in trial.include(i0, cache):
            dot = float(direction @ v)
            gain += dot * dot
        if gain > best_gain:
            best_gain, best = gain, (i0, trial)
    return best


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
    """Batched closure builds and candidate folds give the one-at-a-time
    results to the bit, on spans of equal and of unequal ranks."""

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
            indices = list(range(sys_.n))[::-1]
            for i0, built in zip(indices, reachcore._index_closures(sys_.a, indices)):
                assert same_span(built, scalar_closure(sys_.a, i0))

    def test_best_extension_matches_copy_and_include(self, monkeypatch):
        # A small stack budget also exercises several chunks per call.
        monkeypatch.setattr(reachcore, "_STACK_BYTES", 8 * 40 * 40 * 3)
        rng = np.random.default_rng(77)
        for sys_ in self.systems():
            cache = sys_._closures
            v = rng.standard_normal(sys_.output_dim)
            acc = reachcore._ReachAccumulator(sys_)
            for start in ([], [int(rng.integers(sys_.n))]):
                for i0 in start:
                    acc.include(i0, cache)
                indices = [i0 for i0 in range(sys_.n) if i0 not in start]
                got_i0, got = acc.best_extension(indices, cache, v)
                want_i0, want = scalar_best_extension(acc, indices, cache, v)
                assert got_i0 == want_i0
                if want is not None:
                    assert same_span(got.state, want.state)
                    assert (got.out is None) == (want.out is None)
                    assert got.out is None or same_span(got.out, want.out)
