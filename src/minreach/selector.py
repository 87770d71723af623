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
from .numkit import RANK_TOL, _SpanBuilder, as_int, as_positive, as_vector
from .reachcore import (
    EXACT_TOL,
    N_BRUTE,
    ActuatorSet,
    LtiSystem,
    _check_system_vector,
    _ReachAccumulator,
    _subset_residuals,
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
        chosen = tuple(int(i) for i in self.chosen)
        residuals = tuple(float(r) for r in self.residuals)
        if len(residuals) != len(chosen) + 1:
            raise InputError("residuals must have one entry per pick plus the start")
        if len(set(chosen)) != len(chosen):
            raise InputError(f"chosen has duplicates: {chosen}")
        for prev, cur in zip(residuals, residuals[1:]):
            if not cur < prev:
                raise InputError("residuals must be strictly decreasing")
        if residuals[-1] > float(self.epsilon):
            raise InputError("final residual exceeds epsilon")
        object.__setattr__(self, "chosen", chosen)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "epsilon", float(self.epsilon))


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
    the residual trace (position 0 is ``||v||^2``).

    A candidate i is built only when a pick cannot be certified without
    it. Built, it has a residual closure ``bases[i] = (z, s)``: an
    orthonormal basis z of the part of i's closure outside the state span
    reached so far, and the norm s[j] that closure column j keeps outside
    it. ``scores[i]`` is the gain for `v` of folding i in. Bases start as
    views of the system's closures, first scores come from its output
    closures, and the last pick's new state directions wait in ``fresh``.

    Until it is built, candidate i is ``pending`` and ``bounds[i]`` bounds
    its score: ``||r on U_i||^2 * (1 + _BOUND_SLACK_REL * n)``, with r the
    residual of `v`. U_i, row i of ``support``, starts as the states i
    reaches and takes in, in pick order, the support of each pick's new
    state directions that meets it, so i's residual closure is exactly
    zero outside it. A weighted path bounds every score by
    ``||r||^2 * (1 + _BOUND_SLACK_REL * n)``. ``blocks`` keeps each pick's
    new state directions, their support and the residual of `v` then: a
    candidate built late replays them in order, and so holds the basis and
    score it would hold had it been built at the start. Scores are -inf
    for candidates pending or gone.

    When the sequence cannot continue, ``stuck`` holds the message, with
    ``{eps!r}`` standing for the threshold of the query that meets it and
    ``{res!r}`` for the last residual.
    """

    __slots__ = ("v", "band", "acc", "support", "pending", "bounds", "bases",
                 "scores", "blocks", "r", "out", "fresh", "chosen", "residuals",
                 "stuck")

    def __init__(self, sys: LtiSystem, v: np.ndarray):
        self.v = v
        self.acc = _ReachAccumulator(sys)
        self.chosen: list[int] = []
        self.residuals = [float(v @ v)]
        self.band = TIE_BAND_REL * sys.n * self.residuals[0]
        self.support = sys._reach.copy()
        self.pending = np.ones(sys.n, dtype=bool)
        self.scores = np.full(sys.n, -np.inf)
        self.bases: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.r = v
        # A weighted path's output span, with room for one candidate's fold.
        self.out: _SpanBuilder | None = None
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
        """Bound the score of every pending candidate by the residual r."""
        r2 = self.r * self.r
        slack = 1.0 + _BOUND_SLACK_REL * self.support.shape[0]
        if self.acc.out is None:
            # A row sum, not a product with BLAS, whose kernels may round
            # equal rows differently: equal supports keep equal bounds.
            self.bounds = np.where(self.support, r2, 0.0).sum(axis=1) * slack
        else:
            self.bounds = np.full(self.support.shape[0], float(r2.sum()) * slack)

    def absorb_fresh(self) -> None:
        """Take the last pick's new state directions D out of every built
        residual closure that overlaps them, and rescore; a closure with
        every column absorbed leaves the candidates. A closure whose
        tracked support misses D's is skipped without arithmetic. Then
        update the tracked supports and the bounds."""
        d, self.fresh = self.fresh, None
        if d is None:
            return
        # A copy, which late builds replay: a view would keep the whole
        # basis array of the accumulator it came from alive.
        d = d.copy()
        acc = self.acc
        q = acc.output_builder._q[:, : acc.output_builder.rank]
        # Renormalising a column that lost most of its norm magnifies its
        # rounding in reached directions, which the residual of v is not in.
        self.r = r = self.v - q @ (q.T @ self.v)
        hit = d.any(axis=1)
        meets = (self.support & hit).any(axis=1)
        self.support[meets] |= hit
        self.blocks.append((d, hit, r))
        builder = _SpanBuilder.holding(d)
        for i0 in [i0 for i0 in self.bases if meets[i0]]:
            self._absorb(i0, d, builder, r)
        if acc.out is not None:
            self.out = acc.out.copy()
            for i0, (z, _) in self.bases.items():
                self.scores[i0] = self._fold_score(z)
        self._bound()

    def _absorb(
        self, i0: int, d: np.ndarray, builder: _SpanBuilder, r: np.ndarray
    ) -> None:
        """Take the directions D that `builder` holds out of candidate i0's
        residual closure when D overlaps it, by _SpanBuilder.add, and score
        it against `r` on an unweighted path. A column is absorbed when a
        fold would absorb its unit closure column, at 2 * RANK_TOL."""
        z, s = self.bases[i0]
        if not (d.T @ z).any():
            return
        t = d.shape[1]
        builder._r = t
        kept = []
        for j in range(z.shape[1]):
            u = builder.add(z[:, j], tol=2.0 * RANK_TOL / s[j])
            if u is not None:
                kept.append(s[j] * float(u @ z[:, j]))
        if not kept:
            self.drop(i0)
            return
        z = builder._q[:, t : builder.rank].copy()
        self.bases[i0] = (z, np.array(kept))
        if self.acc.out is None:
            self.scores[i0] = _score(z, r)

    def _fold_score(self, z: np.ndarray) -> float:
        """Gain for the residual of folding the W-image of `z` into the
        output span reached so far."""
        out, o = self.out, self.acc.out.rank
        out._r = o
        for col in (self.acc.sys.w @ z).T:
            out.add(col)
        return _score(out._q[:, o : out.rank], self.r)

    def _build(self, i0: int) -> None:
        """Make pending candidate i0's residual closure and score from its
        closure and its output closure, replaying every earlier pick's
        directions in order."""
        sys = self.acc.sys
        closure = sys._closure(i0)
        self.pending[i0] = False
        self.bases[i0] = (closure._q[:, : closure.rank], np.ones(closure.rank))
        self.scores[i0] = sys._output_closure(i0).project_norm_sq(self.v)
        support = sys._reach[i0].copy()
        for d, hit, r in self.blocks:
            if (support & hit).any():
                support |= hit
                self._absorb(i0, d, _SpanBuilder.holding(d), r)
                if i0 not in self.bases:
                    return
        if self.blocks and self.acc.out is not None:
            self.scores[i0] = self._fold_score(self.bases[i0][0])

    def drop(self, i0: int) -> None:
        """Remove built candidate i0."""
        del self.bases[i0]
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
            live = (value > 0.0) & (value >= top - self.band)
            if not live.any():
                return None
            p = int(live.argmax())
            waiting = np.where(pending, self.bounds, -np.inf)
            if not pending[p] and scores[p] >= max(top, waiting.max()) - self.band:
                return p
            self._build(int(waiting.argmax()))


def _score(z: np.ndarray, v: np.ndarray) -> float:
    """Squared norm of `v` projected on the orthonormal columns `z`."""
    c = z.T @ v
    return float(c @ c)


def _greedy_core(path: _GreedyPath, eps: float) -> None:
    """Extend `path` until its residual is at most `eps` or it is stuck.

    Each step picks the smallest index whose score is positive and within
    ``path.band`` of the largest score (see _GreedyPath.pick), and folds it
    into a new accumulator (_ReachAccumulator.extended). The fold judges
    the pick: one that does not lower the residual leaves the candidates,
    and the step picks again.
    With no positive score left, the path records why in ``path.stuck``.
    """
    v = path.v
    res = path.residuals[-1]
    while res > eps:
        path.absorb_fresh()
        while True:
            pick = path.pick()
            if pick is None:
                path.stuck = (
                    "no candidate reduces the residual below {eps!r}; "
                    "stuck at squared residual {res!r}"
                )
                return
            trial = path.acc.extended(pick)
            new_res = trial.residual_sq(v)
            path.drop(pick)
            if new_res < res:
                break
        path.fresh = trial.state._q[:, path.acc.state.rank : trial.state.rank]
        path.acc = trial
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

    Runs the greedy selection once per ball (center as target, squared
    radius as threshold) and returns the smallest resulting set together
    with the 1-based index of its ball; ties go to the smallest index.
    Every ball's run shares the system's closures, so an index's closure
    is built at most once across all balls, and only when some run needs
    it. The runs also share each first pick's fold into the empty set
    (see LtiSystem._first_folds), as does a later set call on the system.
    """
    balls = list(balls)
    if not balls:
        raise InputError("balls: must be non-empty")
    for k, ball in enumerate(balls):
        if not isinstance(ball, Ball):
            raise InputError(f"balls[{k}]: expected a Ball")
        if ball.center.shape[0] != sys.output_dim:
            raise InputError(
                f"balls[{k}]: center has length {ball.center.shape[0]}, "
                f"expected {sys.output_dim}"
            )
    best: tuple[ActuatorSet, int] | None = None
    for k, ball in enumerate(balls, start=1):
        delta, _ = greedy_eps(sys, ball.center, ball.radius_sq)
        if best is None or delta.cardinality < best[0].cardinality:
            best = (delta, k)
    return best


def brute_force_opt(
    sys: LtiSystem, v, eps: float, k_max: int | None = None
) -> ActuatorSet | None:
    """Smallest actuator set with squared residual at most `eps`.

    Enumerates subsets by increasing cardinality, within each cardinality
    in lexicographic index order, and returns the first hit; None when no
    subset of size at most `k_max` (default n) succeeds. Exhaustive;
    requires ``n <= N_BRUTE``.

    On an unweighted system the walk for each size skips, unfolded, every
    subset whose reach in the digraph of A leaves more than `eps` of
    ``||v||^2`` uncovered, with ``TIE_BAND_REL * n * ||v||^2`` of slack for
    rounding (see _subset_residuals). No such subset can have a residual
    of at most `eps`, so the set returned is the one the full walk finds.
    """
    if sys.n > N_BRUTE:
        raise CapacityError(
            f"brute_force_opt is exhaustive and capped at n={N_BRUTE}, got n={sys.n}"
        )
    v = _check_system_vector(sys, v)
    eps = float(eps)
    if eps < 0.0 or not np.isfinite(eps):
        raise InputError(f"eps: must be finite and non-negative, got {eps}")
    n = sys.n
    if k_max is None:
        k_max = n
    else:
        k_max = as_int(k_max, "k_max")
        if k_max < 0:
            raise InputError(f"k_max: must be non-negative, got {k_max}")
        k_max = min(k_max, n)
    # One walk per size: the walk interleaves sizes, and a walk capped at
    # size k can stop at the first hit of size k and skip every prefix that
    # cannot grow to size k.
    limit = eps + TIE_BAND_REL * n * float(v @ v)
    for k in range(k_max + 1):
        for mask, res in _subset_residuals(sys, v, k, k, limit):
            if mask.bit_count() == k and res <= eps:
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
    top = {s: max(s) for s in sets}
    # Every set is non-empty, so the whole universe hits them all.
    best = tuple(range(1, instance.m + 1))
    hit: list[int] = []

    def descend(start: int, uncovered: list[frozenset[int]]) -> None:
        nonlocal best
        if not uncovered:
            best = tuple(hit)
            return
        bound = len(hit) + _disjoint_lower_bound(uncovered)
        for element in range(start, instance.m + 1):
            if bound >= len(best):
                return
            rest = [s for s in uncovered if element not in s]
            if len(rest) < len(uncovered):
                hit.append(element)
                descend(element + 1, rest)
                hit.pop()
            if any(top[s] == element for s in uncovered):
                return

    descend(1, sets)
    return best
