"""Reproducible example-system generators: the star network and random
Erdős–Rényi weighted digraphs.

All randomness comes from numpy's PCG64 generator keyed by a 64-bit seed.
Each quantity draws from its own spawned stream (adjacency, weights,
targets), so results are bit-reproducible across platforms and adding a
new draw site cannot perturb existing ones.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .numkit import as_int
from .reachcore import LtiSystem

_ADJACENCY_STREAM = 0
_WEIGHT_STREAM = 1
_TARGET_STREAM = 2


def _rng(seed: int, stream: int) -> np.random.Generator:
    seed = as_int(seed, "seed")
    if not 0 <= seed < 2**64:
        raise InputError(f"seed: expected a 64-bit unsigned integer, got {seed}")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,)))
    )


def star(n_leaves: int) -> LtiSystem:
    """Star network with one center and `n_leaves` leaves.

    Every state decays at unit rate and the center (state 1) additionally
    integrates all leaves: the state matrix has -1 on the diagonal and +1
    in row 1 at every leaf column.
    """
    n_leaves = as_int(n_leaves, "n_leaves")
    if n_leaves < 1:
        raise InputError(f"n_leaves: must be at least 1, got {n_leaves}")
    n = n_leaves + 1
    a = np.zeros((n, n))
    np.fill_diagonal(a, -1.0)
    a[0, 1:] = 1.0
    return LtiSystem(a)


def erdos_renyi(n: int, seed: int) -> LtiSystem:
    """Random weighted digraph on `n` states with edge probability
    ``min(1, 2 ln(n) / n)``.

    Every ordered off-diagonal pair becomes an edge independently; edge
    weights are independent standard normal draws and the diagonal is
    zero. Fully determined by (n, seed).
    """
    n = as_int(n, "n")
    if n < 2:
        raise InputError(f"n: must be at least 2, got {n}")
    p = min(1.0, 2.0 * math.log(n) / n)
    # Adjacency and weights use separate streams so the weight draws do
    # not depend on how many edges the adjacency draws produced.
    mask = _rng(seed, _ADJACENCY_STREAM).random((n, n)) < p
    np.fill_diagonal(mask, False)
    weights = _rng(seed, _WEIGHT_STREAM).standard_normal((n, n))
    return LtiSystem(np.where(mask, weights, 0.0))


def random_target(n: int, seed: int) -> np.ndarray:
    """Vector of `n` independent standard normal draws, seed-deterministic."""
    n = as_int(n, "n")
    if n < 1:
        raise InputError(f"n: must be at least 1, got {n}")
    return _rng(seed, _TARGET_STREAM).standard_normal(n)
