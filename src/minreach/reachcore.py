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
    as_int,
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
    def _closures(self) -> dict[int, _SpanBuilder]:
        """The closures built so far, by 0-based index. An index's closure
        is built when a call first needs it (see _closure) and is shared by
        every later call on this system. Safe to share because the system
        is frozen and `a` is read-only; treat the builders as read-only."""
        return {}

    def _closure(self, i0: int) -> _SpanBuilder:
        """The closure of 0-based index `i0`, built on first use."""
        table = self._closures
        if i0 not in table:
            table[i0] = _index_closure(self.a, i0)
        return table[i0]

    @cached_property
    def _first_folds(self) -> dict[int, tuple[_SpanBuilder, _SpanBuilder | None]]:
        """The folds of one index into the empty set made so far, by 0-based
        index: the ``(state, out)`` builders that
        ``_ReachAccumulator(self).include(i0)`` leaves. Such a fold is the
        same whatever the target, so _ReachAccumulator.extended makes it
        once and every greedy, subset walk and set call on this system
        shares it. Builders, not an accumulator, which refers back to the
        system and would make a reference cycle. Their bases are read-only,
        so a write into a shared fold raises."""
        return {}

    @cached_property
    def _output_closures(self) -> dict[int, _SpanBuilder]:
        """The spans W C_i built so far of the closures C_i, by 0-based
        index, in the output space: the closure table itself without an
        output weight. Filled by _output_closure; treat as read-only."""
        return self._closures if self.w is None else {}

    def _output_closure(self, i0: int) -> _SpanBuilder:
        """The span W C_i of the closure of 0-based index `i0`, built on
        first use from the closure's columns in order."""
        table = self._output_closures
        if i0 not in table:
            closure = self._closure(i0)
            if self.w is not None:
                image = _SpanBuilder(self.output_dim)
                for k in range(closure.rank):
                    image.add(self.w @ closure.column(k))
                table[i0] = image
        return table[i0]

    @cached_property
    def _reach_bits(self) -> tuple[int, ...]:
        """Row i of `_reach` as an integer bitmask: bit j is set when i
        reaches state j."""
        n = self.n
        succ = [np.flatnonzero(self.a[:, j]).tolist() for j in range(n)]
        comp = _strong_components(succ)
        members: list[list[int]] = [[] for _ in range(max(comp) + 1)]
        for j, c in enumerate(comp):
            members[c].append(j)
        # Tarjan's algorithm numbers a component after every component it
        # reaches, so one pass in that order ORs in finished reach sets.
        reach = []
        for c, states in enumerate(members):
            bits = 0
            for j in states:
                bits |= 1 << j
                for k in succ[j]:
                    if comp[k] != c:
                        bits |= reach[comp[k]]
            reach.append(bits)
        return tuple(reach[c] for c in comp)

    @cached_property
    def _reach(self) -> np.ndarray:
        """Boolean ``(n, n)`` table whose row i marks the states that i
        reaches in the digraph of `a`, i itself included, with an edge
        j -> k when ``a[k, j] != 0``. The closure of i is exactly zero
        outside row i: each of its columns is a combination of `a`
        applied to e_i and to earlier columns. Read-only."""
        n = self.n
        size = (n + 7) // 8
        packed = b"".join(bits.to_bytes(size, "little") for bits in self._reach_bits)
        table = np.unpackbits(
            np.frombuffer(packed, np.uint8).reshape(n, size),
            axis=1,
            count=n,
            bitorder="little",
        ).astype(bool)
        table.setflags(write=False)
        return table


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Strong component of every vertex of the digraph with successor
    lists `succ`, numbered in the order Tarjan's algorithm completes them:
    every component a vertex reaches has a number no larger than its own.
    Iterative, so deep digraphs need no recursion."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    count = done = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            j, e = work.pop()
            if e == 0:
                index[j] = low[j] = count
                count += 1
                stack.append(j)
            edges = succ[j]
            while e < len(edges):
                k = edges[e]
                e += 1
                if index[k] < 0:
                    work.append((j, e))
                    work.append((k, 0))
                    break
                if comp[k] < 0:
                    low[j] = min(low[j], index[k])
            else:
                if low[j] == index[j]:
                    while True:
                        k = stack.pop()
                        comp[k] = done
                        if k == j:
                            break
                    done += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[j])
    return comp


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
        n = as_int(self.n, "n")
        if n < 1:
            raise InputError("n: must be at least 1")
        object.__setattr__(self, "n", n)
        idx = tuple(as_int(i, "indices") for i in self.indices)
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


def _index_closure(a: np.ndarray, i0: int) -> _SpanBuilder:
    """Closure of the 0-based index `i0`: the smallest A-invariant subspace
    containing the i0-th unit vector, the span of its Krylov columns.

    Built by a breadth-first sweep: step j applies `a` to accepted
    direction j and adds the result, until no accepted direction is left
    to apply or the span is the whole space.
    """
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


class _ReachAccumulator:
    """Incremental reachable subspace for a growing actuator set.

    Maintains a state-space span (where invariance lives) and, when the
    system carries an output weight, a parallel output-space span that
    projections and gains are measured in. `extended` serves the greedy,
    which folds its winner into a new accumulator, the exhaustive subset
    walk, which extends each subset's prefix, and _accumulate. A fold into
    the empty set comes from the system's shared table and holds read-only
    builders: `include` writes only into an accumulator that `copy` or the
    constructor made.
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

    def extended(self, i0: int) -> "_ReachAccumulator":
        """A new accumulator equal to this one with the closure of 0-based
        index `i0` folded in. From the empty set it wraps the system's
        shared fold (see LtiSystem._first_folds), made on first use."""
        if self.state.rank:
            other = self.copy()
            other.include(i0)
            return other
        table = self.sys._first_folds
        if i0 not in table:
            fold = _ReachAccumulator(self.sys)
            fold.include(i0)
            for builder in (fold.state, fold.out):
                if builder is not None:
                    builder._q.setflags(write=False)
            table[i0] = (fold.state, fold.out)
        other = _ReachAccumulator.__new__(_ReachAccumulator)
        other.sys = self.sys
        other.state, other.out = table[i0]
        return other

    def include(self, i0: int) -> list[np.ndarray]:
        """Fold in the closure of 0-based index `i0`.

        Returns the output-space directions that were newly accepted, in
        acceptance order.
        """
        src = self.sys._closure(i0)
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
    """The accumulator of `delta`, its indices folded in ascending order:
    the shared fold of the smallest, then one copy that takes the rest."""
    acc = _ReachAccumulator(sys)
    if not delta.indices:
        return acc
    first, *rest = delta.indices
    acc = acc.extended(first - 1)
    if rest:
        acc = acc.copy()
        for i in rest:
            acc.include(i - 1)
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
    return _accumulate(sys, delta).state_rank == sys.n


def transfer_vector(sys: LtiSystem, spec: TransferSpec) -> np.ndarray:
    """The vector v = x1 - exp(A (t1 - t0)) x0 whose reachability decides
    the transfer. Returned in state space; apply the output weight
    separately when working with the weighted variant.

    Raises InputError when exp(A (t1 - t0)) x0 overflows float64. From
    the origin the vector is x1 and the exponential is not taken.
    """
    if spec.n != sys.n:
        raise DimensionError(
            f"transfer endpoints have length {spec.n}, system has n={sys.n}"
        )
    if not spec.x0.any():
        return spec.x1.copy()
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
    sys: LtiSystem, v: np.ndarray, k: int, least: int = 0, limit: float | None = None
) -> Iterator[tuple[int, float]]:
    """Yield ``(mask, residual_sq)`` of `v` for every subset of at most `k`
    0-based indices that is a subset of one with at least `least`, keyed by
    index bitmask. Each residual is what the subset's
    ``_ReachAccumulator.residual_sq(v)`` gives, with ||v||^2 computed once.

    Subsets are walked depth first, each index included before it is
    skipped, so the subsets of each size come in lexicographic order. Each
    subset is its prefix's accumulator extended by one index
    (_ReachAccumulator.extended), so each is built at most once per walk,
    and each single index at most once per system; a prefix with too few
    indices left to reach `least` is not extended. The walk holds at most
    two accumulators per level of depth. A closure is built when the walk
    first folds its index.

    Coverage rule, for a `limit` on an unweighted system: a subset is
    neither folded nor yielded, and nor is any subset below it, when the
    squared mass of `v` outside its hull exceeds `limit`. The hull is the
    union of the rows of `LtiSystem._reach` of its indices and, for a
    subset of fewer than `k` indices, of every index above its largest.
    Every accumulated column is exactly zero outside the reach of its
    subset's indices, so each subset left out has a residual of at least
    that mass less rounding: a caller that passes its threshold plus a
    rounding slack loses no subset within the threshold. A shared
    continuation (below) is pruned by X's hull, the smaller one, for both
    of its copies, which is as sound. With an output weight the output
    span is not confined to the reach, and `limit` is ignored.

    Sharing rule: when extending a subset X of `size` indices by index i
    leaves the state rank unchanged, the fold wrote nothing, so X + {i} has
    X's accumulator to the bit, and its subtree (X + {i} extended by
    indices above i) does the same arithmetic as X's continuation (X
    extended by indices above i). That continuation is then walked once,
    from X, and its ``(mask, residual)`` list yielded twice: first with bit
    i set, then without, which is the order of the plain walk. It is shared
    only where the pruning cannot tell the two subtrees apart, ``least <=
    size`` and ``size + n - i <= k``: always in the full walk, never in a
    walk for exactly k indices. An unchanged output rank is not enough: a
    weighted fold may grow the state span in a direction W kills, and the
    larger state span changes what later folds add.
    """
    n = sys.n
    nv2 = float(v @ v)
    reach = sys._reach_bits
    if sys.w is not None:
        limit = None
    if limit is not None:
        # suffix[i]: the states that some index >= i reaches.
        suffix = [0] * (n + 1)
        for i0 in range(n - 1, -1, -1):
            suffix[i0] = suffix[i0 + 1] | reach[i0]
        mass = (v * v).tolist()

    def extensions(acc, mask, size, start, res, cover):
        # Every subset mask + T, T a non-empty set of indices >= start,
        # where `res` is mask's residual and `cover` the states it reaches.
        for i0 in range(start, n):
            if size == k or n - i0 < least - size:
                return
            bit = 1 << i0
            child_cover = cover | reach[i0]
            if limit is not None:
                hull = child_cover if size + 1 == k else child_cover | suffix[i0 + 1]
                if sum(m for j, m in enumerate(mass) if not hull >> j & 1) > limit:
                    continue
            child = acc.extended(i0)
            if (
                child.state_rank == acc.state_rank
                and least <= size
                and size + n - i0 <= k
            ):
                rest = list(extensions(acc, mask, size, i0 + 1, res, cover))
                yield mask | bit, res
                for sub_mask, sub_res in rest:
                    yield sub_mask | bit, sub_res
                yield from rest
                return
            child_res = nv2 - child.project_norm_sq(v)
            yield mask | bit, child_res
            yield from extensions(
                child, mask | bit, size + 1, i0 + 1, child_res, child_cover
            )

    root = _ReachAccumulator(sys)
    root_res = nv2 - root.project_norm_sq(v)
    yield 0, root_res
    yield from extensions(root, 0, 0, 0, root_res, 0)


def epsilon_a(sys: LtiSystem, v) -> float:
    """Exact one-step relaxation threshold of the pair (A, v).

    Over all actuator subsets S that are infeasible for `v` but become
    feasible after adding some single index, takes the minimum squared
    residual of `v` against the reachable subspace of S. Returns
    ``math.inf`` when no subset has that one-step property.

    Exhaustive over all 2^n subsets; requires ``n <= N_BRUTE``. The
    residuals come from one full subset walk, which folds each subtree it
    can share once (see _subset_residuals), and are streamed into an array
    indexed by subset bitmask as the walk yields them, so no list of 2^n
    pairs is held; the one-step test is n vectorised passes over it.
    """
    if sys.n > N_BRUTE:
        raise CapacityError(
            f"epsilon_a is exhaustive and capped at n={N_BRUTE}, got n={sys.n}"
        )
    v = _check_system_vector(sys, v)
    nv2 = float(v @ v)
    if nv2 == 0.0:
        raise InputError("v: must be non-zero")
    n = sys.n
    res = np.empty(1 << n)
    for mask, r in _subset_residuals(sys, v, n):
        res[mask] = r
    feasible = res <= EXACT_TOL * nv2
    # one_step[mask]: adding some index missing from mask makes it feasible.
    one_step = np.zeros(1 << n, dtype=bool)
    every = np.arange(1 << n)
    for i0 in range(n):
        lacking = every[(every & 1 << i0) == 0]
        one_step[lacking] |= feasible[lacking | 1 << i0]
    candidates = res[one_step & ~feasible]
    return float(candidates.min()) if candidates.size else math.inf
