"""Reference computations the benchmark judges minreach's answers by.

Nothing here imports minreach. Subspaces come from an SVD sweep, transfer
vectors from ``scipy.linalg.expm``, and optima from plain enumeration, so
a fault in the package's Gram-Schmidt kernel, closure cache or search
cannot hide by agreeing with itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

#: The package's documented exact-feasibility contract: a transfer vector
#: v counts as reachable when its squared residual is at most
#: EXACT_TOL * ||v||^2.
EXACT_TOL = 1e-8

#: Relative residuals in [0.5, 2] * EXACT_TOL are too close to the
#: tolerance for two independent rank decisions to be expected to agree;
#: answers whose verdict hinges on such a value are skipped and counted.
AMBIGUITY_BAND = (0.5, 2.0)

#: Singular values below SVD_RTOL times the largest one are rank-deficient.
SVD_RTOL = 1e-10

#: Allowance for rounding when comparing two squared residuals of the same
#: vector, relative to ||v||^2.
ROUNDING_REL = 1e-9


def orth(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of `m`, with SVD rank decisions."""
    if m.shape[1] == 0:
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0))
    rank = int(np.count_nonzero(s > SVD_RTOL * s[0]))
    return u[:, :rank]


def support(a: np.ndarray, i: int) -> list[int]:
    """0-based states reachable from the 1-based index `i` along the edges of
    A (j is a successor of k when A[j, k] != 0), `i` included."""
    seen = {i - 1}
    frontier = [i - 1]
    while frontier:
        k = frontier.pop()
        for j in np.flatnonzero(a[:, k]):
            if j not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return sorted(seen)


def closure_basis(a: np.ndarray, i: int) -> np.ndarray:
    """Orthonormal basis of the smallest A-invariant subspace holding e_i.

    Starts from the unit vector and repeats Q <- orth([Q, A Q]) until the
    rank stops growing. The sweep runs on the states reachable from `i`,
    which hold the closure exactly: a direction accepted with a small
    singular value is only known to about eps / sigma, and on the full
    space that error would leak into states the closure cannot reach.
    """
    n = a.shape[0]
    idx = support(a, i)
    sub = a[np.ix_(idx, idx)]
    q = np.eye(len(idx))[:, [idx.index(i - 1)]]
    while q.shape[1] < len(idx):
        grown = orth(np.hstack([q, sub @ q]))
        if grown.shape[1] == q.shape[1]:
            break
        q = grown
    out = np.zeros((n, q.shape[1]))
    out[idx] = q
    return out


def span_basis(closures, w: np.ndarray | None = None, dim: int | None = None) -> np.ndarray:
    """Orthonormal basis of the sum of the given closures, mapped through W
    when one is given; `dim` is the ambient dimension when there are none."""
    if not closures:
        return np.zeros((dim, 0))
    q = orth(np.hstack(closures))
    return q if w is None else orth(w @ q)


def reachable_basis(a: np.ndarray, indices, w: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis of the reachable subspace of the 1-based `indices`:
    the sum of their closures, or its image orth(W Q) in the output space."""
    dim = a.shape[0] if w is None else w.shape[0]
    return span_basis([closure_basis(a, i) for i in indices], w, dim)


def residual_sq(basis: np.ndarray, v: np.ndarray) -> float:
    """Squared distance from `v` to the span of the orthonormal `basis`."""
    r = v - basis @ (basis.T @ v)
    return float(r @ r)


def transfer_vector(a, x0, x1, t0=0.0, t1=1.0, w=None) -> np.ndarray:
    """x1 - expm(A (t1 - t0)) x0, mapped through W when one is given."""
    drift = scipy.linalg.expm(np.asarray(a, float) * (t1 - t0)) @ np.asarray(x0, float)
    v = np.asarray(x1, float) - drift
    return v if w is None else np.asarray(w, float) @ v


def in_band(res: float, threshold: float) -> bool:
    """Whether `res` lies in the ambiguity band around `threshold`."""
    return AMBIGUITY_BAND[0] * threshold <= res <= AMBIGUITY_BAND[1] * threshold


def subset_residuals(a, v, w=None, k_max=None):
    """Yield ``(indices, squared residual)`` for every actuator set of size at
    most `k_max`, by increasing size and lexicographically within a size.
    Each index's closure is swept once and each set costs one SVD."""
    n = a.shape[0]
    closures = [closure_basis(a, i) for i in range(1, n + 1)]
    k_max = n if k_max is None else min(k_max, n)
    for k in range(k_max + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            q = span_basis([closures[i - 1] for i in combo], w, v.shape[0])
            yield combo, residual_sq(q, v)


def first_feasible(a, v, eps, w=None, k_max=None):
    """The first actuator set, in size-then-lexicographic order, with squared
    residual at most `eps`.

    Returns ``(indices or None, ambiguous)``; `ambiguous` is True when some
    set visited on the way has a residual inside the band around `eps`,
    so the verdict depends on rounding.
    """
    ambiguous = False
    for combo, res in subset_residuals(a, v, w, k_max):
        ambiguous = ambiguous or in_band(res, eps)
        if res <= eps:
            return combo, ambiguous
    return None, ambiguous


def epsilon_a(a, v):
    """Minimum squared residual over actuator sets that are infeasible for `v`
    but become exactly feasible by adding one index; ``math.inf`` when no
    set has that property.

    Returns ``(value, ambiguous)``; `ambiguous` flags a set whose relative
    residual lies in the band around EXACT_TOL.
    """
    n = a.shape[0]
    nv2 = float(v @ v)
    tol = EXACT_TOL * nv2
    res = {}
    ambiguous = False
    for combo, r in subset_residuals(a, v):
        mask = sum(1 << (i - 1) for i in combo)
        res[mask] = r
        ambiguous = ambiguous or in_band(r, tol)
    best = math.inf
    for mask, r in res.items():
        if r <= tol:
            continue
        if any(not mask >> i & 1 and res[mask | 1 << i] <= tol for i in range(n)):
            best = min(best, r)
    return best, ambiguous


def min_hitting_set_size(m: int, sets) -> int:
    """Size of a minimum hitting set of `sets` over the universe 1..m."""
    families = [frozenset(s) for s in sets]
    for k in range(m + 1):
        for combo in itertools.combinations(range(1, m + 1), k):
            chosen = set(combo)
            if all(s & chosen for s in families):
                return k
    raise ValueError("some set is empty, so no hitting set exists")


def block_lower_bound(block_sizes, v, eps: float) -> int:
    """Fewest actuators any set with squared residual at most `eps` can have
    on a block-diagonal system.

    Closures stay inside their block, so a block without an actuator leaves
    all of its share of ||v||^2 in the residual. Only the lightest blocks
    whose shares sum to at most `eps` can go without one; every other block
    needs at least one actuator.
    """
    shares = []
    start = 0
    for size in block_sizes:
        part = v[start : start + size]
        shares.append(float(part @ part))
        start += size
    if start != v.shape[0]:
        raise ValueError("block sizes do not add up to the length of v")
    skipped = 0.0
    free = 0
    for share in sorted(shares):
        if skipped + share > eps:
            break
        skipped += share
        free += 1
    return len(shares) - free
