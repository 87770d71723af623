"""Reachability core: system and actuator types, reachable subspaces,
feasibility tests, and the exact one-step relaxation threshold.

The system is dx/dt = A x + B u with B = diag(delta) for a zero-one
vector delta; an actuator set is the set of indices where delta is one.
A transfer from x0 at t0 to x1 at t1 is feasible exactly when the
transfer vector x1 - exp(A (t1 - t0)) x0 lies in the reachable subspace
span[B | AB | ... | A^(n-1) B]. With an output weight W the same test is
applied to the W-image of that subspace.

All public actuator indices are 1-based.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    DimensionError,
    InputError,
    UnsupportedOperationError,
)
from .numkit import (
    OrthoBasis,
    _SpanBuilder,
    _SpanStack,
    as_matrix,
    as_square,
    as_vector,
    mat_exp,
)

#: Relative exact-feasibility tolerance: a transfer vector v counts as
#: inside a subspace when the squared residual is at most EXACT_TOL * ||v||^2.
EXACT_TOL = 1e-8

#: Hard cap on the state dimension accepted by exhaustive routines.
N_BRUTE = 16


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """Linear time-invariant system, optionally with an output weight.

    Parameters
    ----------
    a : array_like
        Square state matrix, shape ``(n, n)``.
    w : array_like, optional
        Output weight applied to reachable directions, shape ``(q, n)``.
        When omitted the output space is the state space itself.
    """

    a: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self):
        a = as_square(self.a, "a")
        if a.shape[0] == 0:
            raise InputError("a: state dimension must be at least 1")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        if self.w is not None:
            w = as_matrix(self.w, "w")
            if w.shape[1] != a.shape[0]:
                raise DimensionError(
                    f"w: expected {a.shape[0]} columns, got {w.shape[1]}"
                )
            if w.shape[0] == 0:
                raise InputError("w: output dimension must be at least 1")
            w.setflags(write=False)
            object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        """State dimension."""
        return self.a.shape[0]

    @property
    def output_dim(self) -> int:
        """Dimension of the space feasibility is tested in."""
        return self.n if self.w is None else self.w.shape[0]

    @cached_property
    def _closures(self) -> "_ClosureCache":
        # Safe to share: the system is frozen and `a` is read-only.
        return _ClosureCache(self.a)


@dataclass(frozen=True)
class ActuatorSet:
    """A set of actuated state indices, stored 1-based and sorted.

    Parameters
    ----------
    n : int
        State dimension the indices refer to.
    indices : iterable of int
        Distinct indices in ``1..n``; any order is accepted and sorted.
    """

    n: int
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise InputError("n: must be at least 1")
        object.__setattr__(self, "n", n)
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise InputError(f"indices: duplicates in {idx}")
        for i in idx:
            if not 1 <= i <= n:
                raise InputError(f"indices: {i} outside 1..{n}")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    @classmethod
    def empty(cls, n: int) -> "ActuatorSet":
        return cls(n, ())

    @classmethod
    def full(cls, n: int) -> "ActuatorSet":
        return cls(n, range(1, int(n) + 1))

    @property
    def cardinality(self) -> int:
        return len(self.indices)

    def to_delta(self) -> np.ndarray:
        """Zero-one indicator vector of length n."""
        delta = np.zeros(self.n)
        for i in self.indices:
            delta[i - 1] = 1.0
        return delta

    def to_b(self) -> np.ndarray:
        """The diagonal input matrix diag(delta)."""
        return np.diag(self.to_delta())

    def with_index(self, i: int) -> "ActuatorSet":
        """A new set with index `i` added."""
        if i in self.indices:
            return self
        return ActuatorSet(self.n, self.indices + (int(i),))

    def __contains__(self, i) -> bool:
        return i in self.indices


@dataclass(frozen=True, eq=False)
class TransferSpec:
    """Endpoint data for a state transfer: reach x1 at t1 from x0 at t0."""

    x0: np.ndarray
    x1: np.ndarray
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self):
        x0 = as_vector(self.x0, "x0")
        x1 = as_vector(self.x1, "x1")
        if x0.shape[0] != x1.shape[0]:
            raise DimensionError(
                f"x0 and x1 lengths differ: {x0.shape[0]} vs {x1.shape[0]}"
            )
        t0 = float(self.t0)
        t1 = float(self.t1)
        if not (np.isfinite(t0) and np.isfinite(t1)):
            raise InputError("t0, t1: must be finite")
        if not t1 > t0:
            raise InputError(f"time window must satisfy t1 > t0, got [{t0}, {t1}]")
        x0.setflags(write=False)
        x1.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)

    @property
    def n(self) -> int:
        return self.x0.shape[0]


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility test."""

    residual_sq: float
    feasible: bool
    basis_rank: int


def _check_system_vector(sys: LtiSystem, v, name: str = "v") -> np.ndarray:
    v = as_vector(v, name)
    if v.shape[0] != sys.output_dim:
        raise DimensionError(
            f"{name}: expected length {sys.output_dim}, got {v.shape[0]}"
        )
    return v


def _check_actuators(sys: LtiSystem, delta: ActuatorSet) -> None:
    if delta.n != sys.n:
        raise DimensionError(
            f"actuator set is over dimension {delta.n}, system has n={sys.n}"
        )


#: Size in bytes of the span stacks that closures are built in, and that
#: greedy trials are folded in, a batch of indices at a time. Larger
#: batches run fewer numpy calls but hold more memory at once.
_STACK_BYTES = 1 << 20


class _ClosureCache:
    """Lazily computed per-index state-space closures for one state matrix.

    The closure of index i is the smallest A-invariant subspace containing
    the i-th unit vector: exactly the span of the Krylov columns of i,
    accumulated by repeatedly applying A to each newly accepted orthonormal
    direction until the span stops growing.

    Each ``LtiSystem`` owns one cache, created on first use (``sys._closures``)
    and shared by every call on that system, so each closure is built at
    most once per system. The cache keeps `a` and never the system: a
    reference back would form a cycle, and the n closures would then live
    until the cyclic garbage collector ran.
    """

    __slots__ = ("a", "_bases")

    def __init__(self, a: np.ndarray):
        self.a = a
        self._bases: list[_SpanBuilder | None] = [None] * a.shape[0]

    def prefetch(self, indices) -> None:
        """Build the closures of the 0-based `indices` not built yet, in
        batches of _STACK_BYTES."""
        missing = [i0 for i0 in indices if self._bases[i0] is None]
        step = max(1, _STACK_BYTES // (8 * self.a.shape[0] ** 2))
        for start in range(0, len(missing), step):
            chunk = missing[start : start + step]
            for i0, basis in zip(chunk, _index_closures(self.a, chunk)):
                self._bases[i0] = basis

    def state_closure(self, i0: int) -> _SpanBuilder:
        """Closure builder for 0-based index `i0`. Treat as read-only."""
        basis = self._bases[i0]
        if basis is None:
            self.prefetch((i0,))
            basis = self._bases[i0]
        return basis


def _index_closures(a: np.ndarray, indices: list[int]) -> list[_SpanBuilder]:
    """Closures of the 0-based `indices`, built side by side in one stack.

    Each closure is the breadth-first Krylov sweep described on
    _ClosureCache: step j applies `a` to accepted direction j and adds the
    result, until no accepted direction is left to apply or the span is
    the whole space. Every closure takes step j at the same time, so steps
    at which all spans have the same rank run batched.
    """
    n = a.shape[0]
    stack = _SpanStack(len(indices), n)
    seeds = np.zeros((len(indices), n))
    seeds[np.arange(len(indices)), indices] = 1.0
    stack.add(seeds)
    builders = stack.builders
    j = 0
    while True:
        live = [j < b.rank < n for b in builders]
        if all(live):
            stack.add((a @ stack.q[:, :, j, None])[:, :, 0])
        elif any(live):
            for builder, on in zip(builders, live):
                if on:
                    builder.add(a @ builder.column(j))
        else:
            return builders
        j += 1


class _ReachAccumulator:
    """Incremental reachable subspace for a growing actuator set.

    Maintains a state-space span (where invariance lives) and, when the
    system carries an output weight, a parallel output-space span that
    projections and gains are measured in. The greedy scores candidates
    with :meth:`best_extension`; copies serve the exhaustive subset walk,
    which extends a copy of each subset's prefix.
    """

    __slots__ = ("sys", "state", "out")

    def __init__(self, sys: LtiSystem):
        self.sys = sys
        self.state = _SpanBuilder(sys.n)
        self.out = _SpanBuilder(sys.output_dim) if sys.w is not None else None

    def copy(self) -> "_ReachAccumulator":
        other = _ReachAccumulator.__new__(_ReachAccumulator)
        other.sys = self.sys
        other.state = self.state.copy()
        other.out = None if self.out is None else self.out.copy()
        return other

    def best_extension(
        self, indices: list[int], cache: _ClosureCache, v: np.ndarray
    ) -> tuple[int, "_ReachAccumulator | None"]:
        """The index of `indices` whose closure gains the most for `v`.

        The gain of index i0 is what ``trial = self.copy()`` followed by
        ``sum(float(d @ v) ** 2 for d in trial.include(i0, cache))`` gives,
        to the bit. Returns the first index (in the order given) with the
        largest positive gain and its trial, or ``(-1, None)`` when no gain
        is positive.

        The trials of a batch of indices (_STACK_BYTES worth) share span
        stacks and fold column k of their closures together, so steps at
        which all of them have the same rank run batched.
        """
        cache.prefetch(indices)
        n = self.sys.n
        size = 8 * (n * n + (0 if self.out is None else self.out.dim ** 2))
        step = max(1, _STACK_BYTES // size)
        # Closure columns are strided views; the columns of an (n, n)
        # buffer have the same stride, which BLAS results depend on.
        cols = np.empty((n, n))
        best_gain = 0.0
        best: tuple[int, _ReachAccumulator | None] = (-1, None)
        for start in range(0, len(indices), step):
            chunk = indices[start : start + step]
            state = _SpanStack.copies(self.state, len(chunk))
            out = None if self.out is None else _SpanStack.copies(self.out, len(chunk))
            sources = [cache.state_closure(i0) for i0 in chunk]
            gains = self._fold_gains(state, out, sources, cols, v)
            for c, gain in enumerate(gains):
                # Strict comparison in index order: ties go to the first.
                if gain > best_gain:
                    best_gain = gain
                    trial = _ReachAccumulator.__new__(_ReachAccumulator)
                    trial.sys = self.sys
                    trial.state = state.builders[c].copy()
                    trial.out = None if out is None else out.builders[c].copy()
                    best = (chunk[c], trial)
            # Free this chunk's stacks before the next chunk allocates its own.
            del state, out
        return best

    def _fold_gains(
        self,
        state: _SpanStack,
        out: _SpanStack | None,
        sources: list[_SpanBuilder],
        cols: np.ndarray,
        v: np.ndarray,
    ) -> list[float]:
        """Fold ``sources[c]`` into trial c of `state` (and `out`), column
        by column, and return each trial's gain for `v`."""
        w = self.sys.w
        m = len(sources)
        gains = np.zeros(m)
        for k in range(max(src.rank for src in sources)):
            if all(k < src.rank for src in sources):
                for c, src in enumerate(sources):
                    cols[:, c] = src.column(k)
                added, batch = state.add(cols[:, :m].T)
            else:
                added = [
                    b.add(src.column(k)) if k < src.rank else None
                    for b, src in zip(state.builders, sources)
                ]
                batch = None
            if out is not None:
                if batch is not None:
                    added, batch = out.add((w @ batch[:, :, None])[:, :, 0])
                else:
                    added = [
                        None if d is None else b.add(w @ d)
                        for b, d in zip(out.builders, added)
                    ]
            if batch is not None:
                vs = np.broadcast_to(v[:, None], (m, v.shape[0], 1))
                dots = (batch[:, None, :] @ vs)[:, 0, 0]
                gains += dots * dots
            else:
                for c, d in enumerate(added):
                    if d is not None:
                        dot = float(d @ v)
                        gains[c] += dot * dot
        return gains.tolist()

    def include(self, i0: int, cache: _ClosureCache) -> list[np.ndarray]:
        """Fold in the closure of 0-based index `i0`.

        Returns the output-space directions that were newly accepted, in
        acceptance order.
        """
        src = cache.state_closure(i0)
        w = self.sys.w
        added: list[np.ndarray] = []
        for k in range(src.rank):
            direction = self.state.add(src.column(k))
            if direction is None:
                continue
            if w is None:
                added.append(direction)
            else:
                out_dir = self.out.add(w @ direction)
                if out_dir is not None:
                    added.append(out_dir)
        return added

    @property
    def output_builder(self) -> _SpanBuilder:
        return self.state if self.out is None else self.out

    @property
    def state_rank(self) -> int:
        return self.state.rank

    def project_norm_sq(self, v: np.ndarray) -> float:
        nv2 = float(v @ v)
        return min(max(self.output_builder.project_norm_sq(v), 0.0), nv2)

    def residual_sq(self, v: np.ndarray) -> float:
        return float(v @ v) - self.project_norm_sq(v)

    def to_basis(self) -> OrthoBasis:
        return self.output_builder.freeze()


def _accumulate(sys: LtiSystem, delta: ActuatorSet) -> _ReachAccumulator:
    cache = sys._closures
    acc = _ReachAccumulator(sys)
    for i in delta.indices:
        acc.include(i - 1, cache)
    return acc


def reachable_subspace(sys: LtiSystem, delta: ActuatorSet) -> OrthoBasis:
    """Orthonormal basis of the reachable subspace for actuator set `delta`.

    With an output weight the basis spans the W-image of the state-space
    reachable subspace and lives in the output space. The basis is
    deterministic for fixed inputs: indices are folded in ascending order
    and each index's closure directions in their generation order.
    """
    _check_actuators(sys, delta)
    return _accumulate(sys, delta).to_basis()


def residual(sys: LtiSystem, delta: ActuatorSet, v) -> float:
    """Squared distance from `v` to the reachable subspace of `delta`.

    Always non-negative; zero (up to tolerance) exactly when the transfer
    from the origin to `v` is feasible.
    """
    _check_actuators(sys, delta)
    v = _check_system_vector(sys, v)
    return _accumulate(sys, delta).residual_sq(v)


def is_feasible(sys: LtiSystem, delta: ActuatorSet, v) -> FeasibilityReport:
    """Exact-feasibility test of the transfer vector `v` under `delta`.

    Feasible means the squared residual is at most ``EXACT_TOL * ||v||^2``.
    The zero vector is feasible under any actuator set.
    """
    _check_actuators(sys, delta)
    v = _check_system_vector(sys, v)
    acc = _accumulate(sys, delta)
    res = acc.residual_sq(v)
    nv2 = float(v @ v)
    return FeasibilityReport(
        residual_sq=res,
        feasible=res <= EXACT_TOL * nv2,
        basis_rank=acc.output_builder.rank,
    )


def is_controllable(sys: LtiSystem, delta: ActuatorSet) -> bool:
    """Whether `delta` renders the pair (A, diag(delta)) controllable.

    Defined for the unweighted variant only; a system with a non-identity
    output weight raises UnsupportedOperationError.
    """
    _check_actuators(sys, delta)
    if sys.w is not None and not (
        sys.w.shape[0] == sys.n and np.array_equal(sys.w, np.eye(sys.n))
    ):
        raise UnsupportedOperationError(
            "controllability is defined for the unweighted variant only"
        )
    state_sys = sys if sys.w is None else LtiSystem(sys.a)
    return _accumulate(state_sys, delta).state_rank == sys.n


def transfer_vector(sys: LtiSystem, spec: TransferSpec) -> np.ndarray:
    """The vector v = x1 - exp(A (t1 - t0)) x0 whose reachability decides
    the transfer. Returned in state space; apply the output weight
    separately when working with the weighted variant.

    Raises InputError when exp(A (t1 - t0)) x0 overflows float64.
    """
    if spec.n != sys.n:
        raise DimensionError(
            f"transfer endpoints have length {spec.n}, system has n={sys.n}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        v = spec.x1 - mat_exp(sys.a, spec.t1 - spec.t0) @ spec.x0
    # A non-finite entry of the exponential turns its row of v into inf or
    # nan even where x0 is zero, so checking v covers both overflows.
    if not np.all(np.isfinite(v)):
        raise InputError(
            f"exp(A (t1 - t0)) x0 overflows float64 over the time window "
            f"[{spec.t0}, {spec.t1}]; shorten the window or rescale A"
        )
    return v


def _subset_residuals(
    sys: LtiSystem, v: np.ndarray, k: int
) -> Iterator[tuple[int, float]]:
    """Yield ``(mask, residual_sq)`` of `v` for every subset of at most `k`
    0-based indices, keyed by index bitmask. Each residual is what the
    subset's ``_ReachAccumulator.residual_sq(v)`` gives, with ||v||^2
    computed once.

    Subsets are walked depth first, each index included before it is
    skipped, so the subsets of each size come in lexicographic order. Each
    subset is its prefix's accumulator copied and extended by one index,
    so each is built once. The walk keeps an explicit stack of subsets
    still to extend, which holds at most n + 1 accumulators.
    """
    n = sys.n
    cache = sys._closures
    nv2 = float(v @ v)
    root = _ReachAccumulator(sys)
    yield 0, nv2 - root.project_norm_sq(v)
    # (accumulator, mask, size, next index the subset may be extended by)
    stack = [(root, 0, 0, 0)]
    while stack:
        acc, mask, size, i0 = stack.pop()
        if i0 == n or size == k:
            continue
        stack.append((acc, mask, size, i0 + 1))
        child = acc.copy()
        child.include(i0, cache)
        child_mask = mask | 1 << i0
        yield child_mask, nv2 - child.project_norm_sq(v)
        stack.append((child, child_mask, size + 1, i0 + 1))


def epsilon_a(sys: LtiSystem, v) -> float:
    """Exact one-step relaxation threshold of the pair (A, v).

    Over all actuator subsets S that are infeasible for `v` but become
    feasible after adding some single index, takes the minimum squared
    residual of `v` against the reachable subspace of S. Returns
    ``math.inf`` when no subset has that one-step property.

    Exhaustive over all 2^n subsets; requires ``n <= N_BRUTE``.
    """
    if sys.n > N_BRUTE:
        raise CapacityError(
            f"epsilon_a is exhaustive and capped at n={N_BRUTE}, got n={sys.n}"
        )
    v = _check_system_vector(sys, v)
    nv2 = float(v @ v)
    if nv2 == 0.0:
        raise InputError("v: must be non-zero")
    res = dict(_subset_residuals(sys, v, sys.n))
    tol = EXACT_TOL * nv2

    def feasible(mask: int) -> bool:
        return res[mask] <= tol

    best = math.inf
    n = sys.n
    for mask in range(1 << n):
        if feasible(mask):
            continue
        if any(
            not mask & (1 << i0) and feasible(mask | (1 << i0)) for i0 in range(n)
        ):
            best = min(best, res[mask])
    return best
