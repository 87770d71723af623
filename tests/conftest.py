"""Shared test helpers: random system construction, an independent
least-squares membership oracle, an in-process CLI runner, a copy of an
accumulator for reference folds, a fixture that counts span columns
accepted and absorbed, and the hypothesis profile."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import settings

from minreach import ActuatorSet, LtiSystem
from minreach.cli import main as cli_main
from minreach.numkit import _SpanBuilder
from minreach.reachcore import _ReachAccumulator


# One profile for every property test: the same examples on every run, no
# example database, and no per-example deadline on a shared machine.
settings.register_profile(
    "minreach", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("minreach")


def random_system(rng, n, weighted=False):
    """System with independent standard normal entries (and weight rows)."""
    a = rng.standard_normal((n, n))
    if not weighted:
        return LtiSystem(a)
    q = int(rng.integers(1, n + 1))
    return LtiSystem(a, rng.standard_normal((q, n)))


def random_actuators(rng, n, min_size=0):
    size = int(rng.integers(min_size, n + 1))
    indices = rng.choice(n, size=size, replace=False) + 1
    return ActuatorSet(n, tuple(int(i) for i in indices))


def raw_krylov_stack(sys_, delta):
    """Raw power-chain columns A^k e_i stacked for all i in delta, with the
    output weight applied when present. Independent of the package's
    orthonormal accumulation; meant for least-squares cross-checks at
    small n where the chain stays well conditioned."""
    n = sys_.n
    cols = []
    for i in delta.indices:
        cur = np.zeros(n)
        cur[i - 1] = 1.0
        for _ in range(n):
            cols.append(cur)
            cur = sys_.a @ cur
    stacked = np.column_stack(cols)
    if sys_.w is not None:
        stacked = sys_.w @ stacked
    return stacked


def lstsq_residual_sq(sys_, delta, v):
    """Squared distance from v to the span of the raw Krylov stack."""
    v = np.asarray(v, dtype=float)
    if delta.cardinality == 0:
        return float(v @ v)
    m = raw_krylov_stack(sys_, delta)
    x, *_ = np.linalg.lstsq(m, v, rcond=None)
    r = v - m @ x
    return float(r @ r)


def copy_accumulator(acc):
    """A copy of `acc` that folds apart from it: its spans copied
    (_SpanBuilder.copy), its cover kept. The reference walks and greedies
    fold each trial into such a copy, where the package folds in place and
    rolls back."""
    other = _ReachAccumulator.__new__(_ReachAccumulator)
    other.sys, other.cover = acc.sys, acc.cover
    other.state = acc.state.copy()
    other.out = None if acc.out is None else acc.out.copy()
    return other


def run_cli(argv):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def span_adds(monkeypatch):
    """Every _SpanBuilder.add call made from now on, in call order, as a
    ``(dim, accepted)`` pair: the dimension of the span, and True when the
    column was accepted, False when it was absorbed.
    ``collections.Counter(span_adds)`` tallies them."""
    calls = []
    add = _SpanBuilder.add

    def counting(builder, col, tol=None):
        direction = add(builder, col, tol)
        calls.append((builder.dim, direction is not None))
        return direction

    monkeypatch.setattr(_SpanBuilder, "add", counting)
    return calls
