"""Documented contracts as hypothesis properties, on the sparse,
block-diagonal (in order or with the states relabelled), triangular, zero
and star-like state matrices that the seeded corpora, dense Gaussian or
Erdos-Renyi, do not produce. The examples are derandomized (see the
profile in conftest.py), so every run draws the same ones."""

import contextlib
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import lstsq_residual_sq
from minreach import (
    EXACT_TOL,
    TIE_BAND_REL,
    ActuatorSet,
    Ball,
    LtiSystem,
    NumericalInfeasibilityError,
    bisection_exact,
    brute_force_opt,
    epsilon_a,
    greedy_eps,
    is_feasible,
    residual,
    subset_reach,
)
from minreach.reachcore import (
    _certified_full,
    _index_closure,
    _ReachAccumulator,
    _subset_residuals,
)
from test_reachcore import fold_greedy, strong_components
from test_selector import by_size, combinations_oracle, per_ball_subset_reach, plain_walk, union_outcome

#: Matrix and target entries: zero, or a magnitude in [1/8, 2], so no
#: rank decision falls at the absolute tolerance and no squared norm
#: underflows.
NONZERO = st.one_of(st.floats(0.125, 2.0), st.floats(-2.0, -0.125))
ENTRIES = st.one_of(st.just(0.0), NONZERO)


#: The kinds of A that state_matrices draws.
KINDS = ("sparse", "blocks", "permuted", "triangular", "zero", "star")


@st.composite
def state_matrices(draw, max_n=6, kinds=KINDS):
    """A sparse, block-diagonal, permuted block-diagonal, lower-triangular,
    zero or star-like A with n <= max_n. A permuted one relabels the states
    of a block-diagonal one, so the states of a block, and the indices that
    reach them, are not contiguous. A star-like one has a hub that drives
    every other state, its leaves, with one weight, and one diagonal entry
    on every leaf, with the states relabelled: the leaves share an
    eigenvalue, so with two leaves or more the hub's closure, the span of
    e_hub and the sum of the leaves, is not full. Each index of a zero A
    reaches itself alone, so every closure of it is full."""
    n = draw(st.integers(1, max_n))
    a = draw(arrays(np.float64, (n, n), elements=ENTRIES))
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        a = np.zeros((n, n))
    elif kind == "star":
        hub = a[0, 0]
        a = np.diag(np.full(n, draw(ENTRIES)))
        a[0, 0] = hub
        a[1:, 0] = draw(NONZERO)
        perm = np.array(draw(st.permutations(range(n))))
        a = a[np.ix_(perm, perm)]
    elif kind == "sparse":
        a *= draw(arrays(np.bool_, (n, n), elements=st.booleans()))
    elif kind in ("blocks", "permuted"):
        sizes = []
        while sum(sizes) < n:
            sizes.append(draw(st.integers(1, n - sum(sizes))))
        mask = np.zeros((n, n), dtype=bool)
        start = 0
        for size in sizes:
            mask[start : start + size, start : start + size] = True
            start += size
        a *= mask
        if kind == "permuted":
            perm = np.array(draw(st.permutations(range(n))))
            a = a[np.ix_(perm, perm)]
    else:
        a = np.tril(a)
    return a


@st.composite
def problems(draw, kinds=KINDS):
    """A system and a non-zero target, some of whose entries are zero."""
    a = draw(state_matrices(kinds=kinds))
    n = a.shape[0]
    v = draw(arrays(np.float64, n, elements=ENTRIES).filter(lambda v: v.any()))
    return LtiSystem(a), v


@st.composite
def selector_problems(draw, kinds=KINDS):
    """A system whose output weight selects some of its states (rows of the
    identity, q <= n), and a target in the output space."""
    a = draw(state_matrices(kinds=kinds))
    n = a.shape[0]
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    v = draw(arrays(np.float64, len(rows), elements=ENTRIES).filter(lambda v: v.any()))
    return LtiSystem(a, np.eye(n)[rows]), v


@st.composite
def unions(draw):
    """A system, unweighted or with a row selector W, and two to four balls
    centered in its output space, each of squared radius 1e-6, 0.5 or 1.5
    times the squared norm of its center."""
    sys_, v = draw(st.one_of(problems(), selector_problems()))
    centers = [v] + draw(st.lists(
        arrays(np.float64, v.shape[0], elements=ENTRIES).filter(lambda c: c.any()),
        min_size=1,
        max_size=3,
    ))
    rels = draw(st.lists(st.sampled_from([1e-6, 0.5, 1.5]), min_size=len(centers),
                         max_size=len(centers)))
    return sys_, [Ball(c, rel * float(c @ c)) for c, rel in zip(centers, rels)]


def assert_greedy_is_the_fold_greedy(sys_, v, eps):
    picks, residuals, stuck = fold_greedy(sys_, v, eps)
    assert not stuck
    delta, trace = greedy_eps(sys_, v, eps)
    assert trace.chosen == tuple(i0 + 1 for i0 in picks)
    assert delta.indices == tuple(sorted(trace.chosen))
    assert trace.residuals == tuple(residuals)


@given(problems(), st.sampled_from([0.5, 1e-6]))
def test_greedy_is_the_fold_greedy(problem, rel):
    # The package's greedy scores candidates by residual closures and
    # bounds; the reference folds every candidate. Picks and residual
    # traces agree to the bit, at a loose and a tight threshold.
    sys_, v = problem
    assert_greedy_is_the_fold_greedy(sys_, v, rel * float(v @ v))


@given(problems(kinds=("zero", "star")), st.sampled_from([0.5, 1e-6]))
def test_greedy_is_the_fold_greedy_on_zero_and_star_matrices(problem, rel):
    # A star's hub closure is not full: a path that picks it leaves the
    # basis-free mode, and the candidates it scored by coverage are built
    # again from their closures.
    sys_, v = problem
    assert_greedy_is_the_fold_greedy(sys_, v, rel * float(v @ v))


@given(selector_problems(), st.sampled_from([0.5, 1e-6]))
def test_weighted_greedy_with_a_row_selector_is_the_fold_greedy(problem, rel):
    sys_, v = problem
    assert_greedy_is_the_fold_greedy(sys_, v, rel * float(v @ v))


@settings(max_examples=25)
@given(unions())
def test_subset_reach_is_the_per_ball_greedy(union):
    # The walk skips the greedy of a ball that cannot beat a one-pick best;
    # the reference runs every ball's greedy on a fresh system.
    sys_, balls = union
    got = union_outcome(lambda: subset_reach(sys_, balls))
    assert got == union_outcome(lambda: per_ball_subset_reach(sys_, balls))


@given(problems())
def test_the_same_call_twice_gives_the_same_result(problem):
    # The second call reuses every table the first left on the system: the
    # closures and the reach groups.
    sys_, v = problem
    nv2 = float(v @ v)
    balls = [Ball(v, 1e-6 * nv2), Ball(v[::-1], 0.5 * nv2)]
    for call in (
        lambda: greedy_eps(sys_, v, 1e-6 * nv2),
        lambda: bisection_exact(sys_, v, 1e-3 * nv2),
        lambda: brute_force_opt(sys_, v, 1e-6 * nv2),
        lambda: subset_reach(sys_, balls),
    ):
        assert repr(call()) == repr(call())


@given(problems())
def test_brute_force_is_no_larger_than_the_greedy(problem):
    sys_, v = problem
    eps = 1e-6 * float(v @ v)
    delta, _ = greedy_eps(sys_, v, eps)
    assert brute_force_opt(sys_, v, eps).cardinality <= delta.cardinality


@given(problems(), st.data())
def test_brute_force_cardinality_ignores_state_labels(problem, data):
    # Relabelling the states by a permutation P maps A to P A P^T and v to
    # P v: new state i is old state perm[i]. The optimum's size does not
    # depend on the labels, though which optimal set comes first may.
    sys_, v = problem
    perm = np.array(data.draw(st.permutations(range(sys_.n))))
    moved = LtiSystem(sys_.a[np.ix_(perm, perm)])
    eps = 1e-6 * float(v @ v)
    opt = brute_force_opt(sys_, v, eps)
    assert brute_force_opt(moved, v[perm], eps).cardinality == opt.cardinality


@given(
    problems(kinds=("blocks", "permuted", "zero", "sparse", "star")),
    st.sampled_from([0.3, 1e-6]),
)
def test_the_search_by_size_finds_what_every_combination_finds(problem, rel):
    # The walk for size k skips the sets whose reach leaves more than eps
    # of v uncovered, and the sets of k - 1 that no one further index
    # completes. Neither holds a set of k indices within eps, so the first
    # hit, under every cap, and every such set, by size and with its
    # residual to the bit, are those of the plain walk.
    sys_, v = problem
    n = sys_.n
    eps = rel * float(v @ v)
    size = brute_force_opt(sys_, v, eps).cardinality
    for k_max in (None, size, size - 1)[: 3 if size else 2]:
        got = brute_force_opt(sys_, v, eps, k_max)
        want = combinations_oracle(sys_, v, eps, n if k_max is None else k_max)
        assert (None if got is None else got.indices) == want, k_max
    limit = eps + TIE_BAND_REL * n * float(v @ v)
    got = [(m, r) for m, r in _subset_residuals(sys_, v, n, limit) if r <= eps]
    want = [(m, r) for m, r in by_size(plain_walk(sys_, v), n) if r <= eps]
    assert repr(got) == repr(want)


def assert_the_walk_is_the_plain_walk(sys_, v):
    plain = list(plain_walk(sys_, v))
    assert repr(list(_subset_residuals(sys_, v))) == repr(plain)
    for k_max in range(sys_.n + 1):
        got = list(_subset_residuals(sys_, v, k_max))
        assert repr(got) == repr(by_size(plain, k_max)), k_max


@given(st.one_of(problems(), selector_problems()))
def test_the_rolled_back_walk_is_the_plain_walk(problem):
    # The walk folds each subset into its prefix's accumulator in place
    # and rolls it back; the plain walk folds each one into a copy of its
    # prefix's. Both yield the same pairs, to the bit: in the same order in
    # the full walk, and by size in the by-size walk under each cap.
    assert_the_walk_is_the_plain_walk(*problem)


@given(st.one_of(problems(kinds=("zero", "star")), selector_problems(kinds=("zero", "star"))))
def test_the_rolled_back_walk_is_the_plain_walk_on_zero_and_star_matrices(problem):
    # A subset with a star's hub leaves the basis-free mode, and rolling it
    # back returns to it.
    assert_the_walk_is_the_plain_walk(*problem)


def assert_closures_as_built(sys_):
    """Every closure cached on `sys_` has the rank and bits of the same
    closure built on a fresh twin."""
    twin = LtiSystem(sys_.a, sys_.w)
    for i0, closure in sys_._closures.items():
        fresh = twin._closure(i0)
        assert (closure.rank, closure.span().tobytes()) == (fresh.rank, fresh.span().tobytes())


@given(st.one_of(problems(), selector_problems()), st.sampled_from([0.5, 1e-6]))
def test_a_search_that_stops_early_leaves_the_shared_folds_as_they_were(problem, rel):
    # The closures are shared by every call on the system, and a fold only
    # copies them: brute_force_opt drops its walk at the first hit with its
    # accumulator still folded, a greedy rolls back a rejected pick, and
    # neither leaves a closure other than it was built. A later epsilon_a
    # on the system gives what it gives on a fresh twin.
    sys_, v = problem
    nv2 = float(v @ v)
    brute_force_opt(sys_, v, rel * nv2)
    assert_closures_as_built(sys_)
    assert repr(epsilon_a(sys_, v)) == repr(epsilon_a(LtiSystem(sys_.a, sys_.w), v))
    assert_closures_as_built(sys_)
    # The fold judge rejects the first trial, a fold into the empty set (a
    # copy of the closure, unless an unweighted closure is full), which is
    # rolled back to rank 0.
    residual_sq = _ReachAccumulator.residual_sq
    calls = []

    def rejecting_the_first(acc, v):
        calls.append(acc)
        return math.inf if len(calls) == 1 else residual_sq(acc, v)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_ReachAccumulator, "residual_sq", rejecting_the_first)
        with contextlib.suppress(NumericalInfeasibilityError):
            greedy_eps(sys_, v, rel * nv2)
    assert calls
    assert_closures_as_built(sys_)
    with contextlib.suppress(NumericalInfeasibilityError):
        subset_reach(sys_, [Ball(v, rel * nv2), Ball(v[::-1], 0.5 * nv2)])
    assert_closures_as_built(sys_)


def reached(a, indices):
    """Bitmask of the states that the 0-based `indices` reach in the digraph
    of `a`, with an edge j -> k when ``a[k, j] != 0``, by breadth-first
    search."""
    seen = set(indices)
    frontier = deque(indices)
    while frontier:
        j = frontier.popleft()
        for k in np.flatnonzero(a[:, j] != 0.0):
            if int(k) not in seen:
                seen.add(int(k))
                frontier.append(int(k))
    return sum(1 << j for j in seen)


@given(state_matrices(max_n=8))
def test_a_certified_closure_is_full(a):
    # The Hessenberg certificate certifies an index only when the sweep of
    # its closure reaches every state the index reaches, and the verdict of
    # an index it declines is the sweep's.
    sys_ = LtiSystem(a)
    for i0 in range(sys_.n):
        cap = sys_._reach_bits[i0].bit_count()
        full = _index_closure(sys_.a, i0, cap).rank == cap
        if _certified_full(sys_.a, sys_._reach[i0], i0):
            assert full
        assert sys_._full(i0) == full


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_the_reach_groups_are_the_strongly_connected_components(kind, data):
    # Against scipy's component search, which reads only the digraph of A.
    a = data.draw(state_matrices(max_n=8, kinds=(kind,)))
    assert np.array_equal(LtiSystem(a)._reach_groups[0], strong_components(a))


@given(problems(), st.data())
def test_a_set_of_full_closures_leaves_the_mass_outside_its_reach(problem, data):
    # Each closure spans the unit vectors of the states its index reaches,
    # so the residual is the mass of v outside their union, up to rounding.
    sys_, v = problem
    n = sys_.n
    assume(all(sys_._full(i0) for i0 in range(n)))
    indices = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    hull = reached(sys_.a, indices)
    mass = math.fsum(float(v[j]) ** 2 for j in range(n) if not hull >> j & 1)
    got = residual(sys_, ActuatorSet(n, [i0 + 1 for i0 in indices]), v)
    assert abs(got - mass) <= n * math.ulp(float(v @ v))


@given(st.one_of(problems(), selector_problems()), st.data())
def test_the_feasibility_verdict_is_the_least_squares_one(problem, data):
    # Outside the band around EXACT_TOL, where rounding could tip either
    # verdict, the exact-feasibility test agrees with a least-squares fit
    # on the raw Krylov columns.
    sys_, v = problem
    n = sys_.n
    indices = data.draw(st.lists(st.integers(1, n), unique=True))
    delta = ActuatorSet(n, indices)
    rel = lstsq_residual_sq(sys_, delta, v) / float(v @ v)
    assume(not 0.5 * EXACT_TOL <= rel <= 2.0 * EXACT_TOL)
    assert is_feasible(sys_, delta, v).feasible == (rel <= EXACT_TOL)
