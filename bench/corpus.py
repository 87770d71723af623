"""Seed-pinned inputs for the benchmark workloads.

    python3 bench/corpus.py [--seed N] [--workload NAME] [--out DIR]

Regenerates the inputs of every workload (or of one) from the seed, writes
them under DIR and prints one SHA-256 digest per workload over the files
written, so two commits can be shown to run identical inputs. Systems come
from ``minreach gen``, targets from ``minreach.netgen.random_target``; block
layouts, initial states, output weights, balls and hitting-set families come
from the benchmark's own generator keyed by the same seed.

Each workload is a list of operations written to ``ops.json``. One round of
the benchmark runs every operation of the list once, in order.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

import reference

ROOT = Path(__file__).resolve().parent.parent

#: Seed of the published reference figures.
DEFAULT_SEED = 1503

WORKLOADS = ("er-exact", "blocks-eps", "union-weighted", "exhaustive")

#: Default per-operation time limit; the bisection-hang operation has its own.
LIMIT_S = 60.0

#: Time limit of the star(4) exact solve, which never ends while
#: bisection_exact loops on a bracket narrower than its float spacing.
HANG_LIMIT_S = 0.5

# Sizes, block counts and answer sizes are fixed per slot and only the
# content follows the seed, so the cost of a round, and with it every
# timing, varies little from seed to seed. The sizes that sit at the median
# and at the tail of a round's operation times have several slots each, so
# neither statistic is one instance's time. Blocks of block-diagonal systems
# are redrawn until every state's closure is the whole block, so each block
# needs exactly one actuator.

#: er-exact: (n, instances per round); a single n=200 solve takes 10-15 s.
#: ||v||^2 is scaled to 2^(floor(log2 n) + 1/2), which pins the number of
#: bisection probes at accuracy 1 away from a rounding boundary.
ER_EXACT_MIX = ((25, 4), (50, 14), (100, 1))
#: blocks-eps: (state count, block count) of each system of a round; block
#: sizes stay within BLOCKS_EPS_SIZES.
BLOCKS_EPS_SLOTS = ((100, 17), (112, 19)) + ((125, 21),) * 3 + ((138, 23),) + ((150, 25),) * 3
BLOCKS_EPS_SIZES = (4, 8)
BLOCKS_EPS_REL = 1e-2
#: union-weighted: state count of each system of a round, balls per system.
UNION_N = (40, 42, 42, 42, 44)
UNION_BALLS = 8
#: exhaustive: state count of each oracle and each epsilon_a system of a
#: round, all with EXHAUSTIVE_BLOCKS blocks, so every oracle answer has
#: that many actuators.
ORACLE_N = (13,) * 12
EPSILON_A_N = (10, 12) * 2
EXHAUSTIVE_BLOCKS = 3
#: (variant, hitting-set optimum) of each verify instance of a round.
VERIFY_SLOTS = (("lemma1", 2), ("lemma2", 2), ("lemma3", 2)) * 4
#: Hitting-set universe and family sizes; lemma2 has m + p + 2 = 14 states.
HS_M, HS_P = 4, 8


def require_minreach():
    """Import minreach from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "minreach" / "__init__.py").is_file():
        raise SystemExit(f"error: no minreach sources under {src}")
    sys.path.insert(0, str(src))
    import minreach
    import minreach.cli

    if Path(minreach.__file__).resolve().parent != src / "minreach":
        raise SystemExit(f"error: imported minreach from {minreach.__file__}")
    return minreach


def even_sizes(n: int, count: int) -> list[int]:
    """`count` block sizes adding up to `n`, differing by at most one."""
    return [n // count + (k < n % count) for k in range(count)]


class _Corpus:
    def __init__(self, minreach, workload: str, seed: int, out: Path):
        self.mr = minreach
        self.out = out
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.files: list[str] = []
        self.ops: list[dict] = []

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**32))

    def write(self, name: str, payload) -> None:
        (self.out / name).write_text(json.dumps(payload, sort_keys=True) + "\n")
        self.files.append(name)

    def gen(self, argv: list[str], name: str) -> np.ndarray:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.mr.cli.main(["gen", *argv, "--out", str(self.out / name)])
        if code != 0:
            raise RuntimeError(f"minreach gen {' '.join(argv)} exited {code}")
        self.files.append(name)
        return np.array(json.loads((self.out / name).read_text())["a"], dtype=float)

    def er(self, n: int, name: str) -> np.ndarray:
        return self.gen(["er", str(n), str(self.seed())], name)

    def target(self, n: int) -> np.ndarray:
        return self.mr.netgen.random_target(n, self.seed())

    def x0(self, a: np.ndarray, x1: np.ndarray) -> np.ndarray:
        """Nonzero start whose free response exp(A) x0 has half the norm of x1."""
        x0 = self.rng.standard_normal(a.shape[0])
        drift = reference.transfer_vector(a, x0, np.zeros_like(x0))
        return x0 * (0.5 * np.linalg.norm(x1) / np.linalg.norm(drift))

    def random_sizes(self, n: int, count: int, size_range) -> list[int]:
        """`count` block sizes within `size_range` adding up to `n`: even sizes
        shuffled by random one-state moves between blocks."""
        sizes = even_sizes(n, count)
        for _ in range(4 * count):
            i, j = (int(k) for k in self.rng.integers(0, count, size=2))
            if sizes[i] > size_range[0] and sizes[j] < size_range[1]:
                sizes[i] -= 1
                sizes[j] += 1
        return sizes

    def full_er(self, n: int, name: str) -> np.ndarray:
        """``gen er`` digraph redrawn until every state's closure is the whole
        space, so any one state actuates it."""
        while True:
            a = self.er(n, name)
            if all(reference.closure_basis(a, i).shape[1] == n for i in range(1, n + 1)):
                return a
            self.files.remove(name)

    def blocks(self, sizes: list[int], name: str) -> np.ndarray:
        """Block-diagonal system assembled from ``full_er`` blocks."""
        a = np.zeros((sum(sizes), sum(sizes)))
        start = 0
        for k, size in enumerate(sizes):
            a[start : start + size, start : start + size] = self.full_er(size, f"{name}.b{k}.json")
            start += size
        self.write(f"{name}.json", {"n": a.shape[0], "a": a.tolist()})
        return a

    def op(self, kind: str, group: str, argv, expect: dict, limit_s: float = LIMIT_S):
        self.ops.append(
            {
                "id": f"{len(self.ops):03d}-{kind}",
                "kind": kind,
                "group": group,
                "argv": argv,
                "limit_s": limit_s,
                "expect": expect,
            }
        )

    def er_exact(self) -> None:
        self.gen(["star", "4"], "star4.json")
        self.op(
            "exact",
            "star",
            ["reach", "star4.json", "--x1", "0,1e6,1e6,0,0", "--exact", "--accuracy", "1e-6"],
            {"system": "star4.json", "x1": [0.0, 1e6, 1e6, 0.0, 0.0], "x0": None,
             "actuators": [2, 3]},
            HANG_LIMIT_S,
        )
        for n, count in ER_EXACT_MIX:
            for k in range(count):
                name = f"er{n}-{k}"
                a = self.er(n, f"{name}.json")
                x1 = self.target(n)
                x0 = self.x0(a, x1)
                v = reference.transfer_vector(a, x0, x1)
                scale = math.sqrt(2.0 ** (math.floor(math.log2(n)) + 0.5) / float(v @ v))
                self.write(f"{name}.x1.json", (scale * x1).tolist())
                self.write(f"{name}.x0.json", (scale * x0).tolist())
                self.op(
                    "exact",
                    f"n={n}",
                    ["reach", f"{name}.json", "--x1", f"@{name}.x1.json", "--x0",
                     f"@{name}.x0.json", "--exact", "--accuracy", "1"],
                    {"system": f"{name}.json", "x1": f"{name}.x1.json", "x0": f"{name}.x0.json"},
                )

    def blocks_eps(self) -> None:
        for k, (n, count) in enumerate(BLOCKS_EPS_SLOTS):
            name = f"blocks{k}"
            sizes = self.random_sizes(n, count, BLOCKS_EPS_SIZES)
            a = self.blocks(sizes, name)
            x1 = self.target(a.shape[0])
            x0 = self.x0(a, x1)
            v = reference.transfer_vector(a, x0, x1)
            eps = BLOCKS_EPS_REL * float(v @ v)
            self.write(f"{name}.x1.json", x1.tolist())
            self.write(f"{name}.x0.json", x0.tolist())
            self.op(
                "eps",
                f"n={a.shape[0]}",
                ["reach", f"{name}.json", "--x1", f"@{name}.x1.json", "--x0",
                 f"@{name}.x0.json", "--eps", repr(eps), "--trace", f"{name}.trace.csv"],
                {"system": f"{name}.json", "x1": f"{name}.x1.json", "x0": f"{name}.x0.json",
                 "eps": eps, "blocks": sizes, "trace": f"{name}.trace.csv"},
            )

    def union_weighted(self) -> None:
        for k, n in enumerate(UNION_N):
            name = f"union{k}"
            a = self.er(n, f"{name}.er.json")
            w = self.rng.standard_normal((n // 2, n))
            self.write(f"{name}.json", {"n": n, "a": a.tolist(), "w": w.tolist()})
            balls = []
            for _ in range(UNION_BALLS):
                center = w @ self.target(n)
                radius_sq = float(self.rng.uniform(0.01, 0.2)) * float(center @ center)
                balls.append({"center": center.tolist(), "radius_sq": radius_sq})
            self.write(f"{name}.balls.json", balls)
            self.op(
                "subset",
                f"n={n}",
                ["subset-reach", f"{name}.json", f"{name}.balls.json"],
                {"system": f"{name}.json", "balls": f"{name}.balls.json"},
            )

    def hitting_set(self, h: int) -> dict:
        """Random family of HS_P sets of 1-3 elements over 1..HS_M, every
        element in some set, redrawn until its minimum hitting set has `h`
        elements."""
        m, p = HS_M, HS_P
        while True:
            sets = []
            for _ in range(p):
                size = int(self.rng.integers(1, 4))
                sets.append({int(j) for j in self.rng.choice(m, size=size, replace=False) + 1})
            for j in range(1, m + 1):
                if not any(j in s for s in sets):
                    sets[int(self.rng.integers(0, p))].add(j)
            if reference.min_hitting_set_size(m, sets) == h:
                return {"m": m, "sets": [sorted(s) for s in sets]}

    def exhaustive(self) -> None:
        for k, n in enumerate(ORACLE_N):
            name = f"oracle{k}"
            a = self.blocks(even_sizes(n, EXHAUSTIVE_BLOCKS), name)
            x1 = self.target(a.shape[0])
            self.write(f"{name}.x1.json", x1.tolist())
            eps = reference.EXACT_TOL * float(x1 @ x1)
            self.op(
                "oracle",
                "oracle",
                ["oracle", f"{name}.json", "--x1", f"@{name}.x1.json", "--eps", repr(eps)],
                {"system": f"{name}.json", "x1": f"{name}.x1.json", "x0": None, "eps": eps},
            )
        for k, (variant, h) in enumerate(VERIFY_SLOTS):
            name = f"hs{k}-{variant}"
            instance = self.hitting_set(h)
            self.write(f"{name}.json", instance)
            self.op(
                "verify",
                variant,
                ["verify", f"{name}.json", "--variant", variant],
                {"instance": f"{name}.json", "variant": variant},
            )
        for k, n in enumerate(EPSILON_A_N):
            name = f"epsa{k}"
            a = self.blocks(even_sizes(n, EXHAUSTIVE_BLOCKS), name)
            self.write(f"{name}.v.json", self.target(a.shape[0]).tolist())
            self.op(
                "epsilon_a",
                "epsilon_a",
                {"system": f"{name}.json", "v": f"{name}.v.json"},
                {"system": f"{name}.json", "v": f"{name}.v.json"},
            )


def generate(minreach, workload: str, seed: int, out: Path) -> str:
    """Write the workload's inputs and ``ops.json`` under `out`; return the
    digest of the files written."""
    out.mkdir(parents=True, exist_ok=True)
    corpus = _Corpus(minreach, workload, seed, out)
    getattr(corpus, workload.replace("-", "_"))()
    corpus.write("ops.json", corpus.ops)
    digest = hashlib.sha256()
    for name in sorted(corpus.files):
        digest.update(name.encode() + b"\0" + (out / name).read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--out", default=str(ROOT / "bench" / ".work" / "corpus"))
    args = parser.parse_args(argv)
    minreach = require_minreach()
    for workload in [args.workload] if args.workload else WORKLOADS:
        digest = generate(minreach, workload, args.seed, Path(args.out) / workload)
        print(f"{workload} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
