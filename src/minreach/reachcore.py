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
    _absorb_tol,
    as_finite,
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

#: A closure is certified full with no Gram-Schmidt sweep when each residual
#: of its Hessenberg reduction exceeds _FULL_MARGIN times the sweep's absorb
#: tolerance (_certified_full). Over 8,583 closures of 274 seeded systems
#: (Erdos-Renyi, 2/n-sparse, 20%-dense lower-triangular, block, star and
#: lemma1/lemma2 systems, and Erdos-Renyi scaled by 1e-6 and 1e6), no
#: closure that the sweep finds not full had a ratio above 3.3. Full ones
#: had at least 9.1e4, except on lower-triangular and 1e-6-scaled systems
#: (down to 0.014 and 1.7): those are declined, and the sweep decides them.
_FULL_MARGIN = 1e3


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

    An `a` or `w` whose squared Frobenius norm overflows float64 is
    refused: no closure column or W-image has a norm above the matrix's, so
    no span operation can overflow on an accepted system.
    """

    a: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self):
        a = as_square(self.a, "a")
        if a.shape[0] == 0:
            raise InputError("a: state dimension must be at least 1")
        _check_frobenius(a, "a")
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
            _check_frobenius(w, "w")
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
        is built when a call first reads its columns, or when `_full` cannot
        certify it (see _closure), and is shared by every later call on
        this system. Safe to share because the system is frozen and `a` is
        read-only. The builders stay read-only because every fold copies: a
        fold into an empty span takes a copy of the closure, and any other
        fold only reads its columns (_ReachAccumulator.include)."""
        return {}

    @cached_property
    def _verdicts(self) -> dict[int, bool]:
        """Whether each index's closure is full, by 0-based index, for the
        indices `_full` has been asked about."""
        return {}

    def _closure(self, i0: int) -> _SpanBuilder:
        """The closure of 0-based index `i0`, built on first use: by a fold
        or a score that reads its columns, or by `_full` when the
        certificate declines. Its rank is capped at ``|R(i0)|``, the states
        i0 reaches (`_reach_bits`): the closure is exactly zero outside them
        (see `_reach`), so once it has that rank it spans them, and every
        later column would be absorbed (see _index_closure)."""
        table = self._closures
        if i0 not in table:
            table[i0] = _index_closure(self.a, i0, self._reach_bits[i0].bit_count())
        return table[i0]

    def _full(self, i0: int) -> bool:
        """Whether the closure of 0-based index `i0` is full: its rank is
        ``|R(i0)|``, so it spans exactly the unit vectors e_j of the states
        j that i0 reaches (see _closure). Decided once per system: true when
        `_certified_full` certifies it, with no closure built; otherwise by
        building the closure and comparing its rank, so a closure that is
        not full is built as it always was."""
        verdicts = self._verdicts
        if i0 not in verdicts:
            verdicts[i0] = _certified_full(self.a, self._reach[i0], i0) or (
                self._closure(i0).rank == self._reach_bits[i0].bit_count()
            )
        return verdicts[i0]

    @cached_property
    def _reach(self) -> np.ndarray:
        """Boolean ``(n, n)`` table whose row i marks the states that i
        reaches in the digraph of `a`, i itself included, with an edge
        j -> k when ``a[k, j] != 0``. The closure of i is exactly zero
        outside row i: each of its columns is a combination of `a`
        applied to e_i and to earlier columns. Read-only.

        Built by repeated boolean squaring: T starts as the edges plus the
        identity, and each ``T @ T > 0`` marks the walks of up to twice the
        length, until T stops growing. The product is taken in float32:
        each entry counts states, so it is at most n, exact for n up to
        2^24. A digraph whose longest shortest path has length L takes
        about log2(L) + 1 squarings of n^3 work each, so a deep sparse one,
        such as a chain, is the costliest."""
        t = (self.a.T != 0.0) | np.eye(self.n, dtype=bool)
        while True:
            f = t.astype(np.float32)
            grown = f @ f > 0.0
            if np.count_nonzero(grown) == np.count_nonzero(t):
                break
            t = grown
        t.setflags(write=False)
        return t

    @cached_property
    def _reach_bits(self) -> tuple[int, ...]:
        """Row i of `_reach` as an integer bitmask: bit j is set when i
        reaches state j. Only the rows of `_reach_groups` are packed, one
        per group, and every index reads its group's."""
        group, rows = self._reach_groups
        packed = np.packbits(rows, axis=1, bitorder="little")
        bits = [int.from_bytes(row.tobytes(), "little") for row in packed]
        return tuple(bits[g] for g in group.tolist())

    @cached_property
    def _reach_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """``(group, rows)``: `rows` holds the distinct rows of `_reach`, in
        order of first occurrence, and ``group[i]`` is the position of row i
        among them. Indices of one group reach the same states, so a greedy
        that tracks a support per index can keep one per group: each index's
        starts as its row, and every update ORs the same states into each
        support that meets them, so supports that start equal stay equal
        and a group never splits. Read-only.

        Two indices reach the same states exactly when each reaches the
        other, so the groups are the strongly connected components of the
        digraph of `a`. Each index's component is named by its smallest
        member, the first state it both reaches and is reached from (itself
        at the latest); the smallest members in increasing order are the
        first occurrences of the distinct rows."""
        r = self._reach
        first = (r & r.T).argmax(axis=1)
        firsts = np.flatnonzero(first == np.arange(self.n))
        group = np.searchsorted(firsts, first)
        rows = r[firsts]
        group.setflags(write=False)
        rows.setflags(write=False)
        return group, rows


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

    def to_b(self) -> np.ndarray:
        """The input matrix B = diag(delta), delta the zero-one indicator
        vector of the set."""
        delta = np.zeros(self.n)
        delta[[i - 1 for i in self.indices]] = 1.0
        return np.diag(delta)

    def with_index(self, i: int) -> "ActuatorSet":
        """A new set with index `i` added."""
        i = as_int(i, "i")
        if i in self.indices:
            return self
        return ActuatorSet(self.n, self.indices + (i,))

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
        t0 = as_finite(self.t0, "t0")
        t1 = as_finite(self.t1, "t1")
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


def _check_frobenius(x: np.ndarray, name: str) -> None:
    """Refuse the matrix `x` when its squared Frobenius norm overflows
    float64 (see LtiSystem)."""
    # np.vdot, as in _check_system_vector, warns of no overflow.
    if math.isinf(float(np.vdot(x, x))):
        raise InputError(
            f"{name}: squared Frobenius norm overflows float64 "
            f"(largest |entry| {float(np.abs(x).max()):.3g}); rescale it"
        )


def _check_system_vector(sys: LtiSystem, v, name: str = "v") -> np.ndarray:
    """`v` as a finite float64 vector of the output space's length.

    A non-zero `v` whose ``v @ v`` overflows to inf or underflows to 0 is
    refused: no residual or threshold relative to ``||v||^2`` could be
    stated for it. An exactly zero `v` is accepted.
    """
    v = as_vector(v, name)
    if v.shape[0] != sys.output_dim:
        raise DimensionError(
            f"{name}: expected length {sys.output_dim}, got {v.shape[0]}"
        )
    # np.vdot, unlike v @ v, warns of no overflow, and costs less than
    # np.errstate; it takes the same BLAS dot for a float64 vector.
    nv2 = float(np.vdot(v, v))
    if math.isinf(nv2) or (nv2 == 0.0 and v.any()):
        raise InputError(
            f"{name}: squared norm {'overflows' if nv2 else 'underflows'} "
            f"float64 (largest |entry| {float(np.abs(v).max()):.3g}); rescale it"
        )
    return v


def _index_closure(a: np.ndarray, i0: int, cap: int) -> _SpanBuilder:
    """Closure of the 0-based index `i0`: the smallest A-invariant subspace
    containing the i0-th unit vector, the span of its Krylov columns.

    Built by a breadth-first sweep: step j applies `a` to accepted
    direction j and adds the result, until no accepted direction is left
    to apply or the rank reaches `cap`.

    A cap at the number of states i0 reaches keeps every bit: each column
    is exactly zero outside them, so a span of that rank is all of them,
    and a further column lies in it. Gram-Schmidt with one
    re-orthogonalisation leaves such a column a residual of rounding size,
    O(eps * ||col||) (Giraud, Langou, Rozloznik and van den Eshof, 2005),
    far below ``_absorb_tol(||col||)``, so `add` would absorb it and
    change nothing.
    """
    n = a.shape[0]
    builder = _SpanBuilder(n)
    seed = np.zeros(n)
    seed[i0] = 1.0
    builder.add(seed)
    j = 0
    while j < builder.rank < cap:
        builder.add(a @ builder.column(j))
        j += 1
    return builder


def _certified_full(a: np.ndarray, row: np.ndarray, i0: int) -> bool:
    """Whether the closure of 0-based index `i0` is certified full, with no
    closure built; `row` marks R(i0), the states i0 reaches (row i0 of
    LtiSystem._reach). False means only that the certificate declines.

    The closure is the Krylov space of e_i0 in the states of R(i0), under
    the submatrix S of `a` on them (see LtiSystem._reach). One orthogonal
    Hessenberg reduction S = Q H Q^T, with i0 moved to the front so that
    Q e_1 = e_1, is the sweep of _index_closure in exact arithmetic: step k
    adds ``S q_k``, of norm ``||H[:k+2, k]||``, and leaves it the residual
    ``|H[k+1, k]|`` (Paige, IEEE TAC 1981). The sweep reaches rank |R(i0)|
    when no step's residual is at or below `_absorb_tol` of its norm, so
    the certificate asks each residual to exceed `_FULL_MARGIN` times that
    tolerance, a gap wider than rounding in either computation was measured
    to close. No norm of an accepted system overflows (LtiSystem refuses
    its `a`); on a bare array whose norms do, they give inf or nan, and the
    certificate declines with no warning.
    """
    states = np.flatnonzero(row)
    m = states.size
    if m == 1:
        return True
    # Imported here, as in mat_exp.
    from scipy.linalg.lapack import dgehrd, dgehrd_lwork

    k = int(np.count_nonzero(row[:i0]))
    states[0], states[k] = i0, states[0]
    # S is gathered row by row, m x n then m x m, never as a copy of all
    # of `a`. The queried workspace lets LAPACK take its blocked path above
    # m = 128 (3x faster at m = 1000); the default, m, forces the unblocked
    # one.
    h = dgehrd(a[states].take(states, 1), lwork=int(dgehrd_lwork(m)[0]))[0]
    # The Hessenberg part: the reflectors below the subdiagonal are zeroed.
    h[np.arange(m)[:, None] > np.arange(1, m + 1)] = 0.0
    norms = np.sqrt(np.einsum("ij,ij->j", h[:, :-1], h[:, :-1]))
    return bool((np.abs(h.diagonal(-1)) > _FULL_MARGIN * _absorb_tol(norms)).all())


def _bit_mask(bits: int, n: int) -> np.ndarray:
    """Boolean vector of length `n` whose entry j is bit j of `bits`."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _unit_columns(bits: int, n: int) -> np.ndarray:
    """The unit vectors e_j of the states j in bitmask `bits`, as the
    columns of an ``(n, popcount)`` array in ascending state order."""
    rows = np.flatnonzero(_bit_mask(bits, n))
    cols = np.zeros((n, rows.size))
    cols[rows, np.arange(rows.size)] = 1.0
    return cols


class _ReachAccumulator:
    """Incremental reachable subspace for a growing actuator set.

    ``cover`` is the bitmask of the states the indices folded in reach, the
    OR of their `LtiSystem._reach_bits`. The state span is exactly zero
    outside them, so its `rank` is at most ``cover.bit_count()``, and once
    it has that rank it spans them.

    On an unweighted system the accumulator starts basis-free, and stays so
    while its rank is ``cover.bit_count()``: ``state`` holds no column, and
    the span is span{e_j : j in cover}. The residual of a target is then
    its mass outside the cover, and folding in a full closure
    (LtiSystem._full), which spans the states its index reaches, only ORs
    its reach row into the cover, with no `add` call. Folding in a closure
    that is not full and reaches a state outside the cover first writes the
    unit columns of the cover into ``state``, which spans the same space
    exactly, and goes on with Gram-Schmidt, as every fold on a weighted
    system does. A weighted accumulator keeps a state-space span (where
    invariance lives) and a parallel output-space span that projections
    and gains are measured in.

    `include` is the one way to grow the set, for the greedy's picks, the
    exhaustive subset walk and _accumulate alike, and it folds in place. A
    caller that needs the accumulator as it was takes a `mark` before the
    fold and undoes it with `truncate`: each span rolls back to its rank
    then (_SpanBuilder.truncate), and `cover` to its value, so an
    accumulator that left the basis-free state returns to it. The columns
    the fold appended stay in the buffers until a later `add` writes over
    them, and the columns kept are not touched, so a rolled-back
    accumulator folds as it would have had the fold never been made.
    """

    __slots__ = ("sys", "state", "out", "cover")

    def __init__(self, sys: LtiSystem):
        self.sys = sys
        self.state = _SpanBuilder(sys.n)
        self.out = _SpanBuilder(sys.output_dim) if sys.w is not None else None
        self.cover = 0

    @property
    def basis_free(self) -> bool:
        """Whether the span is span{e_j : j in cover}, held by the cover
        alone: an unweighted accumulator with no state column."""
        return self.out is None and not self.state.rank

    @property
    def rank(self) -> int:
        """Rank of the state span."""
        return self.state.rank or self.cover.bit_count()

    @property
    def output_rank(self) -> int:
        """Rank of the span that residuals are measured in."""
        return self.rank if self.out is None else self.out.rank

    def mark(self) -> tuple[int, int, int]:
        """The state and output builders' ranks and the cover, which
        `truncate` restores."""
        return self.state.rank, self.output_builder.rank, self.cover

    def truncate(self, mark: tuple[int, int, int]) -> None:
        """Roll back every fold made in place since `mark` was taken."""
        rank, out_rank, self.cover = mark
        self.state.truncate(rank)
        if self.out is not None:
            self.out.truncate(out_rank)

    def include(self, i0: int) -> None:
        """Fold in the closure of 0-based index `i0`, in place: in a
        basis-free accumulator, OR its reach row into the cover when the
        closure is full (LtiSystem._full, which builds no closure that it
        certifies full); otherwise append the state directions it accepts
        to ``state`` and their W-images to ``out`` (_SpanBuilder.add_images).

        Into an empty state span the fold is a copy of the closure, which is
        already orthonormal and spans exactly that subspace; the system's
        closure itself is never written. Two caps skip `add` calls that
        could only be absorbed, so every bit is kept. The fold stops once
        the state rank reaches ``cover.bit_count()``: the span is then every
        state the indices reach, and each closure column left lies in it,
        with a residual of rounding size after the re-orthogonalisation (see
        _index_closure). So a basis-free accumulator that covers every state
        i0 reaches is left as it is. And once the output span is the whole
        output space, no W-image is added.
        """
        sys = self.sys
        bits = sys._reach_bits[i0]
        if self.basis_free:
            if not bits & ~self.cover:
                return
            if sys._full(i0):
                self.cover |= bits
                return
            if self.cover:
                self.state = _SpanBuilder.holding(_unit_columns(self.cover, sys.n))
        src = sys._closure(i0)
        self.cover |= bits
        state = self.state
        start = state.rank
        if not start:
            self.state = state = src.copy()
        else:
            full = self.cover.bit_count()
            for k in range(src.rank):
                if state.rank == full:
                    break
                state.add(src.column(k))
        if self.out is not None:
            self.out.add_images(sys.w, state.span(start))

    @property
    def output_builder(self) -> _SpanBuilder:
        return self.state if self.out is None else self.out

    def residual_sq(self, v: np.ndarray) -> float:
        """Squared distance from `v` to the output span. Basis-free, it is
        the mass of `v` outside the cover, ``r @ r`` for `v` with the
        cover's entries zeroed; otherwise ``||v||^2`` less the projection's
        squared norm clamped to ``[0, ||v||^2]``."""
        if self.basis_free:
            r = np.where(_bit_mask(self.cover, v.shape[0]), 0.0, v)
            return float(r @ r)
        nv2 = float(v @ v)
        return nv2 - min(max(self.output_builder.project_norm_sq(v), 0.0), nv2)

    def basis(self) -> OrthoBasis:
        """Orthonormal basis of the output span: when basis-free, the unit
        vectors of the cover in ascending state order."""
        if self.basis_free:
            return OrthoBasis._trusted(self.sys.n, _unit_columns(self.cover, self.sys.n))
        return self.output_builder.freeze()


def _accumulate(sys: LtiSystem, delta: ActuatorSet) -> _ReachAccumulator:
    """The accumulator of `delta`, its indices folded in ascending order
    (_ReachAccumulator.include): a copy of the smallest index's closure, or
    its cover when the closure is full and the system unweighted, that
    takes the rest in place. A set over another dimension than `sys`
    raises DimensionError."""
    if delta.n != sys.n:
        raise DimensionError(
            f"actuator set is over dimension {delta.n}, system has n={sys.n}"
        )
    acc = _ReachAccumulator(sys)
    for i in delta.indices:
        acc.include(i - 1)
    return acc


def reachable_subspace(sys: LtiSystem, delta: ActuatorSet) -> OrthoBasis:
    """Orthonormal basis of the reachable subspace for actuator set `delta`.

    With an output weight the basis spans the W-image of the state-space
    reachable subspace and lives in the output space. The basis is
    deterministic for fixed inputs: indices are folded in ascending order
    and each index's closure directions in their generation order, the
    smallest index's closure taken as it is. On an unweighted system whose
    folds all took full closures, it is the unit vectors of the states the
    set reaches, in ascending state order.
    """
    return _accumulate(sys, delta).basis()


def residual(sys: LtiSystem, delta: ActuatorSet, v) -> float:
    """Squared distance from `v` to the reachable subspace of `delta`.

    Always non-negative; zero (up to tolerance) exactly when the transfer
    from the origin to `v` is feasible.
    """
    acc = _accumulate(sys, delta)
    return acc.residual_sq(_check_system_vector(sys, v))


def is_feasible(sys: LtiSystem, delta: ActuatorSet, v) -> FeasibilityReport:
    """Exact-feasibility test of the transfer vector `v` under `delta`.

    Feasible means the squared residual is at most ``EXACT_TOL * ||v||^2``.
    The zero vector is feasible under any actuator set.
    """
    acc = _accumulate(sys, delta)
    v = _check_system_vector(sys, v)
    res = acc.residual_sq(v)
    nv2 = float(v @ v)
    return FeasibilityReport(
        residual_sq=res,
        feasible=res <= EXACT_TOL * nv2,
        basis_rank=acc.output_rank,
    )


def is_controllable(sys: LtiSystem, delta: ActuatorSet) -> bool:
    """Whether `delta` renders the pair (A, diag(delta)) controllable.

    Defined for the unweighted variant only; a system with a non-identity
    output weight raises UnsupportedOperationError.
    """
    # _accumulate refuses a set over another dimension first; any other
    # set on a weighted system is refused here, before it is folded.
    if delta.n == sys.n and sys.w is not None and not (
        sys.w.shape[0] == sys.n and np.array_equal(sys.w, np.eye(sys.n))
    ):
        raise UnsupportedOperationError(
            "controllability is defined for the unweighted variant only"
        )
    return _accumulate(sys, delta).rank == sys.n


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
    sys: LtiSystem, v: np.ndarray, k_max: int | None = None, limit: float | None = None
) -> Iterator[tuple[int, float]]:
    """Yield ``(mask, residual_sq)`` of `v` for subsets of 0-based indices,
    keyed by index bitmask, the empty set first. Each residual is the
    subset's ``_ReachAccumulator.residual_sq(v)``, and the empty set's is
    ``v @ v`` itself.

    A walk folds each subset into its prefix's accumulator in place
    (_ReachAccumulator.include), and rolls it back to the subset's `mark`
    once the subset's subtree is walked. A closure is built when a walk
    first folds its index and reads its columns; on an unweighted system a
    fold into a basis-free accumulator asks for the index's verdict
    (LtiSystem._full) first, which builds no closure that it certifies
    full. A fold that can add no rank makes no `add` call (see
    _ReachAccumulator.include). On an unweighted system a subset
    whose folds all took full closures is basis-free, and its residual
    depends on its cover alone: it is taken once per cover and call.

    Full walk (``k_max=None``, for epsilon_a): every subset, depth first
    from one accumulator, each index included before it is skipped.
    Sharing rule: when extending a subset X by index i leaves the state
    rank (_ReachAccumulator.rank) unchanged, the fold changed nothing. It
    added no column, and it did not grow the cover: its first column, e_i,
    lies outside the span unless i is in the cover, and with i every state
    i reaches; a basis-free X, whose rank is its cover's popcount, is then
    left as it is. So X + {i} has X's accumulator to the bit, and its
    subtree (X + {i} extended by indices above i) does the same arithmetic
    as X's continuation (X extended by indices above i). That continuation
    is then walked once, from X, and its ``(mask, residual)`` list yielded
    twice: first with bit i set, then without, which is the order of the
    plain walk. An unchanged output rank is not enough: a weighted fold may
    grow the state span in a direction W kills, and the larger state span
    changes what later folds add. `limit` is not read.

    By-size walk (integer `k_max`, for brute_force_opt): the subsets of at
    most `k_max` indices by increasing size, in lexicographic order within
    a size. Each size k is walked depth first from a fresh accumulator,
    with no subtree shared; a prefix of fewer than k indices is folded but
    neither scored nor yielded, and is not extended when too few indices
    lie above it. Coverage rule, for a `limit` on an unweighted system: a
    subset is neither folded nor yielded, and nor is any subset below it,
    when the squared mass of `v` outside its hull exceeds `limit`. The hull
    is the union of the rows of `LtiSystem._reach` of its indices (its
    prefix's ``_ReachAccumulator.cover`` and its last index's row) and, for
    a subset of fewer than k indices, of every index above its largest.
    Every accumulated column is exactly zero outside the reach of its
    subset's indices, so each subset left out has a residual of at least
    that mass less rounding: a caller that passes its threshold plus a
    rounding slack loses no subset within the threshold. With an output
    weight the output span is not confined to the reach, and `limit` is
    ignored. The mass outside a hull is summed once per call and kept by
    hull, so every decision keeps its bits. Lookahead: a subset of k - 2
    indices is not extended by index i when every hull of it, i and one
    index j above i leaves more than `limit` outside, which are the hulls
    the walk tests once i is folded. An index whose reach alone leaves at
    most `limit` outside completes every subset that ends at or below it,
    so up to the largest such index no hull is scanned.
    """
    n = sys.n
    nv2 = float(v @ v)
    # The residual of each basis-free subset's cover met so far, by cover.
    by_cover: dict[int, float] = {}

    def residual_sq(acc):
        if not acc.basis_free:
            return acc.residual_sq(v)
        if acc.cover not in by_cover:
            by_cover[acc.cover] = acc.residual_sq(v)
        return by_cover[acc.cover]

    def every(acc, mask, start, res):
        # Every subset mask + T, T a non-empty set of indices >= start,
        # where `res` is mask's residual.
        for i0 in range(start, n):
            bit = 1 << i0
            rank, mark = acc.rank, acc.mark()
            acc.include(i0)
            if acc.rank == rank:
                rest = list(every(acc, mask, i0 + 1, res))
                yield mask | bit, res
                for sub_mask, sub_res in rest:
                    yield sub_mask | bit, sub_res
                yield from rest
                return
            child_res = residual_sq(acc)
            yield mask | bit, child_res
            yield from every(acc, mask | bit, i0 + 1, child_res)
            acc.truncate(mark)

    yield 0, nv2
    if k_max is None:
        yield from every(_ReachAccumulator(sys), 0, 0, nv2)
        return
    reach = sys._reach_bits
    if sys.w is not None:
        limit = None
    if limit is not None:
        # suffix[i]: the states that some index >= i reaches.
        suffix = [0] * (n + 1)
        for i0 in range(n - 1, -1, -1):
            suffix[i0] = suffix[i0 + 1] | reach[i0]
        mass = (v * v).tolist()
        # The mass of v outside each hull met so far, by hull.
        outside: dict[int, float] = {}

        def uncovered(hull):
            if hull not in outside:
                outside[hull] = sum(m for j, m in enumerate(mass) if not hull >> j & 1)
            return outside[hull]

    def of_size(acc, mask, size, start, k):
        # Every subset mask + T of k indices, T a set of indices >= start.
        for i0 in range(start, n - k + size + 1):
            if limit is not None:
                hull = acc.cover | reach[i0]
                if size + 1 < k:
                    if size + 2 == k and i0 > solo and all(
                        uncovered(hull | reach[j]) > limit for j in range(i0 + 1, n)
                    ):
                        continue
                    hull |= suffix[i0 + 1]
                if uncovered(hull) > limit:
                    continue
            mark = acc.mark()
            acc.include(i0)
            if size + 1 == k:
                yield mask | 1 << i0, residual_sq(acc)
            else:
                yield from of_size(acc, mask | 1 << i0, size + 1, i0 + 1, k)
            acc.truncate(mark)

    # The largest index whose reach alone leaves at most `limit` outside, or
    # -1, found when the walk for size 2 starts.
    solo = -1
    for k in range(1, k_max + 1):
        if k == 2 and limit is not None:
            solo = next((j for j in range(n - 1, -1, -1) if uncovered(reach[j]) <= limit), -1)
        yield from of_size(_ReachAccumulator(sys), 0, 0, 0, k)


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
    for mask, r in _subset_residuals(sys, v):
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
