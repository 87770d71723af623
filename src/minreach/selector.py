"""Actuator selection algorithms: greedy residual reduction, bisection to
exact feasibility, sparsest selection over ball unions, and exhaustive
oracles used for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, InputError, NumericalInfeasibilityError
from .numkit import (
    _SpanBuilder,
    _absorb_tol,
    _proj_sq,
    as_finite,
    as_int,
    as_positive,
    as_vector,
)
from .reachcore import (
    EXACT_TOL,
    N_BRUTE,
    ActuatorSet,
    LtiSystem,
    _check_system_vector,
    _ReachAccumulator,
    _subset_residuals,
    _unit_columns,
)

if TYPE_CHECKING:
    from .reductions import HittingSetInstance

#: The bisection never probes a squared-residual target below
#: EPS_FLOOR_REL * ||v||^2; tighter demands are not resolvable in float64.
EPS_FLOOR_REL = 1e-12

#: Greedy gains within TIE_BAND_REL * n * ||v||^2 of the largest gain tie
#: (four ulps of ||v||^2 per state), and ties go to the smallest index.
TIE_BAND_REL = 4 * 2.0**-52

#: A greedy candidate not built yet is bounded by ||r on U||^2 times
#: 1 + _BOUND_SLACK_REL * n (see _GreedyPath): half the tie band, so a
#: score at its bound is still certified. Measured on seeded systems, no
#: score came within 0.4 * n ulps of ||r on U||^2 above it.
_BOUND_SLACK_REL = TIE_BAND_REL / 2

#: The smallest positive float64.
_TINY = math.ulp(0.0)


@dataclass(frozen=True)
class GreedyTrace:
    """Record of one greedy run.

    ``chosen`` lists the picked indices (1-based) in pick order.
    ``residuals`` holds the squared residual after each pick, with
    position 0 the residual of the empty set. ``epsilon`` is the
    threshold the run was asked to reach.
    """

    chosen: tuple[int, ...]
    residuals: tuple[float, ...]
    epsilon: float

    def __post_init__(self):
        chosen = tuple(as_int(i, "chosen") for i in self.chosen)
        residuals = tuple(as_finite(r, "residuals") for r in self.residuals)
        epsilon = as_finite(self.epsilon, "epsilon")
        if len(residuals) != len(chosen) + 1:
            raise InputError("residuals must have one entry per pick plus the start")
        if len(set(chosen)) != len(chosen):
            raise InputError(f"chosen has duplicates: {chosen}")
        for prev, cur in zip(residuals, residuals[1:]):
            if not cur < prev:
                raise InputError("residuals must be strictly decreasing")
        if residuals[-1] > epsilon:
            raise InputError("final residual exceeds epsilon")
        object.__setattr__(self, "chosen", chosen)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "epsilon", epsilon)


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball given by its center and squared radius."""

    center: np.ndarray
    radius_sq: float

    def __post_init__(self):
        center = as_vector(self.center, "center")
        radius_sq = as_positive(self.radius_sq, "radius_sq")
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius_sq", radius_sq)


class _GreedyPath:
    """The greedy pick sequence for one target, grown on demand.

    The greedy picks the same index at every step whatever the threshold
    is; the threshold only decides where a run stops. Every greedy run for
    target `v` is therefore a prefix of one pick sequence, and this object
    holds the part computed so far: the accumulator, the 0-based picks and
    the residual trace (position 0 is ``||v||^2``). ``r`` is the residual
    of `v` against the span reached so far.

    A candidate i is built only when a pick cannot be certified without
    it. Until it is built, candidate i is ``pending`` and ``bounds[i]``
    bounds its score: ``||r on U_i||^2 * (1 + _BOUND_SLACK_REL * n)``.
    U_i, the row of i's group in ``support``, starts as the states i
    reaches and takes in, in pick order, the support of each pick's new
    state directions that meets it, so i's residual closure is exactly
    zero outside it. The indices of a group reach the same states
    (LtiSystem._reach_groups), so they share one row of ``support``, one
    row sum ``sums[i]`` of r^2 over it and one flag in each ``meets``;
    ``group[i]`` is i's group. A weighted path bounds every score by
    ``||r||^2 * (1 + _BOUND_SLACK_REL * n)``. ``scores[i]`` is the gain for
    `v` of folding i in; scores are -inf for candidates pending or gone.

    An unweighted path has two modes, those of its accumulator
    (_ReachAccumulator.basis_free).

    - Basis-free, the span reached is span{e_j : j in cover}, and ``r`` is
      `v` with the cover's entries zeroed. A candidate whose closure is
      full (LtiSystem._full) would add the unit vectors of the states it
      reaches outside the cover, so its score is exactly ``sums[i]``, its
      bound without the slack, and its pick certifies at once. Such a
      candidate is marked in ``coord`` and needs no basis. The new state
      directions of a pick, in ``fresh``, are the unit vectors of the
      states it newly covers.
    - Otherwise ``r`` is `v` less its projection on the output span, and
      the new directions are the columns the pick's fold appended.

    Every other built candidate has a residual closure ``bases[i] = (z,
    s)``: an orthonormal basis z of the part of i's closure outside the
    state span reached so far, and the norm s[j] that closure column j keeps
    outside it. Bases start as views of the system's closures, which are
    read, never written. An unweighted score is the gain of z for the
    residual r; a weighted one is the gain of folding the W-images of z into
    the output span reached so far (`_fold_score`), by the same
    _SpanBuilder.add_images that the fold of i takes. Before the first pick,
    z is i's closure, and the fold of i into the empty set is a copy of it,
    so the score is that fold's gain to the bit. ``blocks`` keeps each
    pick's new state directions, the groups they met and ``r`` then: a
    candidate built late replays the ones that met its group in order, and
    so holds the basis and score it would hold had it been built at the
    start. When a pick's fold leaves the basis-free mode, which it never
    re-enters, each candidate in ``coord`` goes back to pending, and is
    built that way once a pick needs it.

    Every pick folds into the path's accumulator in place
    (_ReachAccumulator.include), and a pick that the fold rejects is rolled
    back (_ReachAccumulator.truncate).

    When the sequence cannot continue, ``stuck`` holds the message, with
    ``{eps!r}`` standing for the threshold of the query that meets it and
    ``{res!r}`` for the last residual.
    """

    __slots__ = ("v", "band", "acc", "group", "support", "pending", "sums",
                 "bounds", "coord", "bases", "scores", "blocks", "r", "fresh",
                 "chosen", "residuals", "stuck")

    def __init__(self, sys: LtiSystem, v: np.ndarray):
        self.v = v
        self.acc = _ReachAccumulator(sys)
        self.chosen: list[int] = []
        self.residuals = [float(v @ v)]
        self.band = TIE_BAND_REL * sys.n * self.residuals[0]
        self.group, rows = sys._reach_groups
        self.support = rows.copy()
        self.pending = np.ones(sys.n, dtype=bool)
        self.coord = np.zeros(sys.n, dtype=bool)
        self.scores = np.full(sys.n, -np.inf)
        self.bases: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.r = v
        self.fresh: np.ndarray | None = None
        self.stuck: str | None = None
        self._bound()

    def prefix(self, eps: float) -> tuple[list[int], list[float]]:
        """Picks and residual trace of the greedy run with threshold `eps`.

        Extends the path only when `eps` lies below its last residual.
        Raises NumericalInfeasibilityError when the path is stuck above
        `eps`.
        """
        if self.residuals[-1] > eps:
            if self.stuck is None:
                _greedy_core(self, eps)
            if self.stuck is not None:
                res = self.residuals[-1]
                raise NumericalInfeasibilityError(
                    self.stuck.format(eps=eps, res=res), residual_sq=res
                )
        k = next(k for k, res in enumerate(self.residuals) if res <= eps)
        return self.chosen[:k], self.residuals[: k + 1]

    def _bound(self) -> None:
        """Bound the score of every pending candidate by the residual r,
        and score the candidates in ``coord`` by their row sums."""
        r2 = self.r * self.r
        n = self.group.shape[0]
        slack = 1.0 + _BOUND_SLACK_REL * n
        if self.acc.out is None:
            # A row sum, not a product with BLAS, whose kernels may round
            # equal rows differently: equal supports keep equal bounds.
            self.sums = np.where(self.support, r2, 0.0).sum(axis=1)[self.group]
            self.bounds = self.sums * slack
            self.scores[self.coord] = self.sums[self.coord]
        else:
            self.bounds = np.full(n, float(r2.sum()) * slack)

    def absorb_fresh(self) -> None:
        """Take the last pick's new state directions D out of every built
        residual closure that overlaps them, and rescore; a closure with
        every column absorbed leaves the candidates. A closure whose
        group's support misses D's is skipped without arithmetic. When the
        pick left the basis-free mode, each candidate in ``coord`` is
        pending again. Then update the supports, the bounds and the scores
        in ``coord``."""
        d, self.fresh = self.fresh, None
        if d is None:
            return
        # A copy, which late builds replay: a view would keep the whole
        # basis array of the accumulator it came from alive.
        d = d.copy()
        acc = self.acc
        hit = d.any(axis=1)
        if acc.basis_free:
            # D is the unit vectors of the states the pick newly covers.
            self.r = r = np.where(hit, 0.0, self.r)
        else:
            q = acc.output_builder.span()
            # Renormalising a column that lost most of its norm magnifies
            # its rounding in reached directions, which the residual of v
            # is not in.
            self.r = r = self.v - q @ (q.T @ self.v)
        meets = (self.support & hit).any(axis=1)
        self.support[meets] |= hit
        self.blocks.append((d, meets, r))
        touched = [i0 for i0 in self.bases if meets[self.group[i0]]]
        if touched:
            builder = _SpanBuilder.holding(d)
            for i0 in touched:
                self._absorb(i0, d, builder, r)
        if acc.out is not None:
            for i0, (z, _) in self.bases.items():
                self.scores[i0] = self._fold_score(z)
        if not acc.basis_free:
            self.pending |= self.coord
            self.scores[self.coord] = -np.inf
            self.coord[:] = False
        self._bound()

    def _absorb(
        self, i0: int, d: np.ndarray, builder: _SpanBuilder, r: np.ndarray
    ) -> None:
        """Take the directions D that `builder` holds out of candidate i0's
        residual closure when D overlaps it, by _SpanBuilder.add, and score
        it against `r` on an unweighted path. A column is absorbed when a
        fold would absorb its unit closure column, at ``_absorb_tol(1.0)``
        in that column's scale."""
        z, s = self.bases[i0]
        if not (d.T @ z).any():
            return
        t = d.shape[1]
        builder.truncate(t)
        tol = _absorb_tol(1.0)
        kept = []
        for j in range(z.shape[1]):
            u = builder.add(z[:, j], tol=tol / s[j])
            if u is not None:
                kept.append(s[j] * float(u @ z[:, j]))
        if not kept:
            self.drop(i0)
            return
        z = builder.span(t).copy()
        self.bases[i0] = (z, np.array(kept))
        if self.acc.out is None:
            self.scores[i0] = _proj_sq(z, r)

    def _fold_score(self, z: np.ndarray) -> float:
        """Gain for the residual of folding the W-image of `z` into the
        output span reached so far. The columns are added to the path's own
        output span, which is then rolled back to its rank before."""
        out = self.acc.out
        o = out.rank
        out.add_images(self.acc.sys.w, z)
        gain = _proj_sq(out.span(o), self.r)
        out.truncate(o)
        return gain

    def _build(self, i0: int) -> None:
        """Make pending candidate i0's score: on a basis-free path with a
        full closure, its row sum; otherwise from its residual closure, made
        from its closure by replaying every earlier pick's directions in
        order."""
        sys = self.acc.sys
        closure = sys._closure(i0)
        self.pending[i0] = False
        if self.acc.basis_free and sys._full(i0):
            self.coord[i0] = True
            self.scores[i0] = self.sums[i0]
            return
        self.bases[i0] = (closure.span(), np.ones(closure.rank))
        if self.acc.out is None:
            self.scores[i0] = closure.project_norm_sq(self.v)
        for d, meets, r in self.blocks:
            if meets[self.group[i0]]:
                self._absorb(i0, d, _SpanBuilder.holding(d), r)
                if i0 not in self.bases:
                    return
        if self.acc.out is not None:
            self.scores[i0] = self._fold_score(self.bases[i0][0])

    def drop(self, i0: int) -> None:
        """Remove built candidate i0."""
        self.bases.pop(i0, None)
        self.coord[i0] = False
        self.scores[i0] = -np.inf

    def pick(self) -> int | None:
        """The next pick: the smallest index whose score is positive and
        within ``band`` of the largest score, exactly as over every
        candidate built; None when no score is positive.

        Index p is taken when every smaller candidate is certified out,
        its score or bound being at most zero or below ``M - band``, with
        M the largest score built, and its own score is at least
        ``max(M, largest pending bound) - band``. Otherwise the pending
        candidate with the largest bound is built, ties to the smallest
        index, and the test is made again.
        """
        pending, scores = self.pending, self.scores
        while True:
            top = float(scores.max(initial=0.0))
            value = np.where(pending, self.bounds, scores)
            # Positive and within the band: at least top - band, and at
            # least the smallest positive float, which only a positive
            # value is.
            live = value >= max(top - self.band, _TINY)
            p = int(live.argmax())
            if not live[p]:
                return None
            waiting = self.bounds.max(where=pending, initial=-np.inf)
            if not pending[p] and scores[p] >= max(top, waiting) - self.band:
                return p
            self._build(int((pending & (self.bounds == waiting)).argmax()))


def _greedy_core(path: _GreedyPath, eps: float) -> None:
    """Extend `path` until its residual is at most `eps` or it is stuck.

    Each step picks the smallest index whose score is positive and within
    ``path.band`` of the largest score (see _GreedyPath.pick), and folds it
    into the path's accumulator in place (_ReachAccumulator.include). The
    fold judges the pick: one that does not lower the residual leaves the
    candidates, its fold is rolled back, and the step picks again.
    With no positive score left, the path records why in ``path.stuck``.
    """
    v = path.v
    res = path.residuals[-1]
    while res > eps:
        path.absorb_fresh()
        acc = path.acc
        rank, mark = acc.rank, acc.mark()
        while True:
            pick = path.pick()
            if pick is None:
                path.stuck = (
                    "no candidate reduces the residual below {eps!r}; "
                    "stuck at squared residual {res!r}"
                )
                return
            acc.include(pick)
            new_res = acc.residual_sq(v)
            path.drop(pick)
            if new_res < res:
                break
            acc.truncate(mark)
        if acc.basis_free:
            path.fresh = _unit_columns(acc.cover & ~mark[2], acc.sys.n)
        else:
            path.fresh = acc.state.span(rank)
        path.chosen.append(pick)
        res = new_res
        path.residuals.append(res)


def _greedy_trace(
    n: int, chosen: list[int], residuals: list[float], eps: float
) -> tuple[ActuatorSet, GreedyTrace]:
    picks = tuple(i0 + 1 for i0 in chosen)
    return ActuatorSet(n, picks), GreedyTrace(
        chosen=picks, residuals=tuple(residuals), epsilon=eps
    )


def greedy_eps(sys: LtiSystem, v, eps: float) -> tuple[ActuatorSet, GreedyTrace]:
    """Greedily select actuators until the squared residual is at most `eps`.

    Starting from the empty set, each step adds the index whose reachable
    directions give the largest projected-norm gain for `v`. Gains within
    ``TIE_BAND_REL * n * ||v||^2`` of the largest tie, and ties go to the
    smallest index. The threshold is absolute (same units as
    ``||v||^2``). The run is the prefix, up to the first residual at most
    `eps`, of the one greedy path for `v`. A candidate's closure is built
    only when the pick cannot be certified without it, and at most once per
    system.

    Returns the selected set and the pick-by-pick trace.
    """
    eps = as_positive(eps, "eps")
    v = _check_system_vector(sys, v)
    chosen, residuals = _GreedyPath(sys, v).prefix(eps)
    return _greedy_trace(sys.n, chosen, residuals, eps)


def bisection_exact(
    sys: LtiSystem, v, accuracy: float
) -> tuple[ActuatorSet, float, GreedyTrace]:
    """Bisect the greedy threshold down to exact feasibility.

    Maintains a bracket (l, u) over the threshold, starting at
    ``(0, ||v||^2)``. Each probe takes the greedy run at the bracket
    midpoint and tests it for exact feasibility (squared residual at most
    ``EXACT_TOL * ||v||^2``): an infeasible probe lowers u, a feasible one
    raises l to seek a sparser set. The loop ends when the bracket width
    reaches `accuracy`, or when the midpoint rounds to an end of the
    bracket and the bracket can shrink no further. A final adjustment is
    then applied and a last greedy run produces the result; if that run
    lands on the infeasible side of the bracket it retreats to the
    feasible end l (still within accuracy/2 of the midpoint), then to the
    floor ``EPS_FLOOR_REL * ||v||^2``. Probes never go below the floor.

    All probes read their run off one greedy path for `v`, so the greedy
    is computed once however many probes there are.

    Returns the selected set, the threshold of the final greedy run, and
    that run's trace. Raises NumericalInfeasibilityError when exact
    feasibility is unreachable even at the floor.
    """
    accuracy = as_positive(accuracy, "accuracy")
    v = _check_system_vector(sys, v)
    nv2 = float(v @ v)
    if nv2 == 0.0:
        raise InputError("v: must be non-zero")
    floor = EPS_FLOOR_REL * nv2
    exact = EXACT_TOL * nv2
    path = _GreedyPath(sys, v)

    lo = 0.0
    hi = nv2
    eps = (lo + hi) / 2.0
    last_feasible = False
    while hi - lo > accuracy and lo < eps < hi:
        _, residuals = path.prefix(max(eps, floor))
        last_feasible = residuals[-1] <= exact
        if last_feasible:
            lo = eps
        else:
            hi = eps
        eps = (lo + hi) / 2.0
    if not last_feasible:
        hi = eps
        eps = (lo + hi) / 2.0

    ladder = [max(eps, floor)]
    if lo > floor:
        # lo was probed feasible in the loop, so the deterministic greedy
        # is guaranteed to succeed there.
        ladder.append(lo)
    ladder.append(floor)
    chosen: list[int] = []
    residuals = [nv2]
    final_eps = None
    for probe in dict.fromkeys(ladder):
        chosen, residuals = path.prefix(probe)
        if residuals[-1] <= exact:
            final_eps = probe
            break
    if final_eps is None:
        raise NumericalInfeasibilityError(
            f"exact feasibility unreachable: squared residual {residuals[-1]!r} "
            f"at threshold floor {floor!r}",
            residual_sq=residuals[-1],
        )
    delta, trace = _greedy_trace(sys.n, chosen, residuals, final_eps)
    return delta, final_eps, trace


def subset_reach(
    sys: LtiSystem, balls: list[Ball]
) -> tuple[ActuatorSet, int]:
    """Sparsest actuator set reaching some ball of a finite union.

    Takes the greedy selection for each ball (center as target, squared
    radius as threshold) and returns the smallest resulting set together
    with the 1-based index of its ball; ties go to the smallest index. A
    ball whose greedy is stuck (NumericalInfeasibilityError) loses. When
    every ball's greedy is stuck, NumericalInfeasibilityError is raised
    with the number of balls tried, the first ball's message and its
    ``residual_sq``.

    The balls are walked in order. A later ball wins only with strictly
    fewer picks than the best set so far. So after a best of one pick, a
    later ball wins only when its center lies inside it, ``||c||^2 <= r^2``,
    and no path is made; after an empty best, no later ball is looked at.

    Every ball's run shares the system's closures, so an index's closure
    is built at most once across all balls, and only when some run needs
    it. Each path makes its own folds and scores: a fold into the empty set
    is a copy of the index's closure, or for a full closure on an
    unweighted system the index's cover alone.
    """
    balls = list(balls)
    if not balls:
        raise InputError("balls: must be non-empty")
    centers = []
    for k, ball in enumerate(balls):
        if not isinstance(ball, Ball):
            raise InputError(f"balls[{k}]: expected a Ball")
        centers.append(_check_system_vector(sys, ball.center, f"balls[{k}]: center"))
    best: tuple[ActuatorSet, int] | None = None
    first_error: NumericalInfeasibilityError | None = None
    for k, (v, ball) in enumerate(zip(centers, balls), start=1):
        if best is not None and best[0].cardinality == 1:
            if float(v @ v) > ball.radius_sq:
                continue
            picks = []
        else:
            try:
                picks, _ = _GreedyPath(sys, v).prefix(ball.radius_sq)
            except NumericalInfeasibilityError as exc:
                first_error = first_error or exc
                continue
            if best is not None and len(picks) >= best[0].cardinality:
                continue
        best = (ActuatorSet(sys.n, (i0 + 1 for i0 in picks)), k)
        if not picks:
            break
    if best is None:
        raise NumericalInfeasibilityError(
            f"no ball is reached ({len(balls)} tried); ball 1: {first_error}",
            residual_sq=first_error.residual_sq,
        )
    return best


def brute_force_opt(
    sys: LtiSystem, v, eps: float, k_max: int | None = None
) -> ActuatorSet | None:
    """Smallest actuator set with squared residual at most `eps`.

    Takes the first hit of the by-size walk of _subset_residuals, which
    yields subsets by increasing cardinality, within each cardinality in
    lexicographic index order; None when no subset of size at most `k_max`
    (default n) succeeds. Exhaustive; requires ``n <= N_BRUTE``.

    On an unweighted system the walk for each size skips, unfolded, every
    subset whose reach in the digraph of A leaves more than `eps` of
    ``||v||^2`` uncovered, with ``TIE_BAND_REL * n * ||v||^2`` of slack for
    rounding. No such subset can have a residual of at most `eps`, so the
    set returned is the one a walk that skips nothing finds. The walk for
    size k also leaves unfolded every set of k - 1 indices that no single
    further index completes, that is, extends to a set whose reach leaves
    at most `eps` plus the slack uncovered: the walk would skip every
    extension, and a set of k - 1 indices is no answer of size k.
    """
    if sys.n > N_BRUTE:
        raise CapacityError(
            f"brute_force_opt is exhaustive and capped at n={N_BRUTE}, got n={sys.n}"
        )
    v = _check_system_vector(sys, v)
    eps = as_finite(eps, "eps")
    if eps < 0.0:
        raise InputError(f"eps: must be non-negative, got {eps}")
    n = sys.n
    if k_max is None:
        k_max = n
    else:
        k_max = as_int(k_max, "k_max")
        if k_max < 0:
            raise InputError(f"k_max: must be non-negative, got {k_max}")
        k_max = min(k_max, n)
    limit = eps + TIE_BAND_REL * n * float(v @ v)
    for mask, res in _subset_residuals(sys, v, k_max, limit):
        if res <= eps:
            return ActuatorSet(n, (i0 + 1 for i0 in range(n) if mask >> i0 & 1))
    return None


def _disjoint_lower_bound(uncovered: list[frozenset[int]]) -> int:
    # Any family of pairwise disjoint uncovered sets needs one distinct
    # element each, so its size lower-bounds the remaining picks.
    bound = 0
    used: set[int] = set()
    for s in uncovered:
        if not s & used:
            bound += 1
            used |= s
    return bound


def min_hitting_set(instance: "HittingSetInstance") -> tuple[int, ...]:
    """Exact minimum hitting set of the instance, as a sorted index tuple.

    Branch and bound over the elements 1..m in order, each taken before it
    is skipped, so the hitting sets of one size are met in lexicographic
    order; the first one met at each strictly smaller size is kept, and the
    last one kept is the lexicographically smallest minimum hitting set. An
    element is taken only when it hits a set still uncovered, and skipped
    only when every uncovered set keeps a larger element. A branch ends
    when the pairwise-disjoint lower bound shows it cannot do better.
    """
    sets = [frozenset(s) for s in instance.sets]
    if not sets:
        raise InputError("instance has no sets to hit")
    m = instance.m
    top = {s: max(s) for s in sets}
    # Every set is non-empty, so the whole universe hits them all.
    best = tuple(range(1, m + 1))
    hit: list[int] = []
    # A frame per element taken, below the root's: the next element to try,
    # the sets still uncovered, and a lower bound on any hitting set below.
    # Iterative, so a deep search needs no recursion.
    frames = [[1, sets, _disjoint_lower_bound(sets)]]
    while frames:
        frame = frames[-1]
        element, uncovered, bound = frame
        if element > m or bound >= len(best):
            frames.pop()
            if frames:
                hit.pop()
            continue
        # Past the largest element of an uncovered set, that set stays
        # uncovered, so this is the frame's last element.
        frame[0] = m + 1 if any(top[s] == element for s in uncovered) else element + 1
        rest = [s for s in uncovered if element not in s]
        if len(rest) < len(uncovered):
            hit.append(element)
            if rest:
                frames.append([element + 1, rest, len(hit) + _disjoint_lower_bound(rest)])
            else:
                best = tuple(hit)
                hit.pop()
    return best
