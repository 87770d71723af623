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
from .numkit import RANK_TOL, _SpanBuilder, as_vector
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
        radius_sq = float(self.radius_sq)
        if not (np.isfinite(radius_sq) and radius_sq > 0.0):
            raise InputError(f"radius_sq: must be positive and finite, got {radius_sq}")
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

    Each candidate i has a residual closure ``bases[i] = (z, s)``: an
    orthonormal basis z of the part of i's closure outside the state span
    reached so far, and the norm s[j] that closure column j keeps outside
    it. ``scores[i]`` is the gain for `v` of folding i in. Bases start as
    views of the system's closure table, the first scores come from its
    ``_output_closures``, and the last pick's new state directions wait in
    ``fresh``.

    When the sequence cannot continue, ``stuck`` holds the message, with
    ``{eps!r}`` standing for the threshold of the query that meets it and
    ``{res!r}`` for the last residual.
    """

    __slots__ = ("v", "band", "acc", "bases", "scores", "fresh", "chosen",
                 "residuals", "stuck")

    def __init__(self, sys: LtiSystem, v: np.ndarray):
        self.v = v
        self.acc = _ReachAccumulator(sys)
        self.chosen: list[int] = []
        self.residuals = [float(v @ v)]
        self.band = TIE_BAND_REL * sys.n * self.residuals[0]
        self.bases = {i0: (c._q[:, : c.rank], np.ones(c.rank))
                      for i0, c in enumerate(sys._closures)}
        self.scores = {i0: b.project_norm_sq(v)
                       for i0, b in enumerate(sys._output_closures)}
        self.fresh: np.ndarray | None = None
        self.stuck: str | None = None

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

    def absorb_fresh(self) -> None:
        """Take the last pick's new state directions D out of every residual
        closure that overlaps them, by _SpanBuilder.add on a builder
        prefilled with D, and rescore. A column is absorbed when a fold
        would absorb its unit closure column, at 2 * RANK_TOL; a closure
        with every column absorbed leaves the candidates."""
        d, self.fresh = self.fresh, None
        if d is None:
            return
        acc, bases, scores = self.acc, self.bases, self.scores
        q = acc.output_builder._q[:, : acc.output_builder.rank]
        # Renormalising a column that lost most of its norm magnifies its
        # rounding in reached directions, which the residual of v is not in.
        r = self.v - q @ (q.T @ self.v)
        t = d.shape[1]
        builder = _SpanBuilder(d.shape[0])
        builder._q[:, :t] = d
        for i0, (z, s) in list(bases.items()):
            if not (d.T @ z).any():
                continue
            builder._r = t
            kept = []
            for j in range(z.shape[1]):
                u = builder.add(z[:, j], tol=2.0 * RANK_TOL / s[j])
                if u is not None:
                    kept.append(s[j] * float(u @ z[:, j]))
            if not kept:
                del bases[i0], scores[i0]
                continue
            z = builder._q[:, t : builder.rank].copy()
            bases[i0] = (z, np.array(kept))
            if acc.out is None:
                scores[i0] = _score(z, r)
        if acc.out is not None:
            # The output span grew: fold every W-image into it again.
            out, o = _SpanBuilder(acc.out.dim), acc.out.rank
            out._q[:, :o] = acc.out._q[:, :o]
            for i0, (z, _) in bases.items():
                out._r = o
                for col in (acc.sys.w @ z).T:
                    out.add(col)
                scores[i0] = _score(out._q[:, o : out.rank], r)


def _score(z: np.ndarray, v: np.ndarray) -> float:
    """Squared norm of `v` projected on the orthonormal columns `z`."""
    c = z.T @ v
    return float(c @ c)


def _greedy_core(path: _GreedyPath, eps: float) -> None:
    """Extend `path` until its residual is at most `eps` or it is stuck.

    Each step picks the smallest index whose score is positive and within
    ``path.band`` of the largest score, and folds it into a copy of the
    accumulator. The fold judges the pick: one that does not lower the
    residual leaves the candidates, and the step picks again. With no
    positive score left, the path records why in ``path.stuck``.
    """
    v = path.v
    scores = path.scores
    res = path.residuals[-1]
    while res > eps:
        path.absorb_fresh()
        while True:
            positive = [(i0, s) for i0, s in scores.items() if s > 0.0]
            if not positive:
                path.stuck = (
                    "no candidate reduces the residual below {eps!r}; "
                    "stuck at squared residual {res!r}"
                )
                return
            floor = max(s for _, s in positive) - path.band
            # scores keeps index order, so this is the smallest such index.
            pick = next(i0 for i0, s in positive if s >= floor)
            trial = path.acc.copy()
            trial.include(pick)
            new_res = trial.residual_sq(v)
            del path.bases[pick], scores[pick]
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
    `eps`, of the one greedy path for `v`; closures come from the system's
    closure table, built once per system.

    Returns the selected set and the pick-by-pick trace.
    """
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0.0):
        raise InputError(f"eps: must be positive and finite, got {eps}")
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
    accuracy = float(accuracy)
    if not (np.isfinite(accuracy) and accuracy > 0.0):
        raise InputError(f"accuracy: must be positive and finite, got {accuracy}")
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
    Every ball's run reads closures from the system's one closure table, so
    each index's closure is built once across all balls.
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
        k_max = int(k_max)
        if k_max < 0:
            raise InputError(f"k_max: must be non-negative, got {k_max}")
        k_max = min(k_max, n)
    # One walk per size: the walk interleaves sizes, and a walk capped at
    # size k can stop at the first hit of size k.
    for k in range(k_max + 1):
        for mask, res in _subset_residuals(sys, v, k):
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
