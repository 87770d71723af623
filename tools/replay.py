"""Replay every benchmark operation on two checkouts and compare the outputs.

    python3 tools/replay.py [--base REV|DIR] [--head DIR] [--seed N ...]

Each checkout writes the four benchmark corpora at each seed with its own
``bench/corpus.py --out`` into a temporary directory, and the two corpus
digests must agree. Then one subprocess per checkout and seed, with one
BLAS thread, runs every operation of the four corpora once with
``bench/run.py``'s own ``run_op``: an in-process ``minreach.cli.main``, or
the library's ``epsilon_a``, under the operation's time limit. For every
operation the two sides must give the same exit code, the same stderr,
the same report less its ``wall_time_ms``, and the same trace CSV, byte
for byte.

Beside the corpora it replays a fixed off-benchmark set, written once into
the same temporary directory from the tool's own numpy seeds, of paths that
no workload runs: ``reach --eps`` and ``reach --exact`` on twin-block hub
systems, whose hub's closure is not full; ``oracle`` on weighted systems of
at most 10 states, whose search takes no coverage limit; and the paths
where the fullness certificate declines and the Gram-Schmidt sweep decides:
``reach --exact`` on Erdos-Renyi digraphs scaled by 1e-7 or 1e-8 and ``reach --eps``
on 20%-dense lower-triangular systems; ``reach --exact`` from the origin at
n = 300. Last, digraphs whose strongly connected components hold several
states and reach different states: ``reach --eps`` with ``--trace`` on
four relabelled networks of Gaussian blocks of 1 to 6 states joined by a
few one-way edges and on a 40-state chain with Gaussian weights, and
``oracle`` on two 12-state networks of blocks.

`--base` is a directory, or a git revision of this repository exported
with ``git archive`` (default ``HEAD``, so an uncommitted change is
compared with its parent); `--head` defaults to this checkout. Prints one
row per workload and seed, then every operation that differs, and exits 1
on any difference. Nothing is written under either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("er-exact", "blocks-eps", "union-weighted", "exhaustive")

# Runs every operation of the corpora under argv[2:] with bench/run.py's
# run_op, in the checkout argv[1], and prints one JSON list of outcomes per
# corpus: exit code ("timeout" past the limit), stderr, the last stdout
# line less its wall_time_ms, and the trace CSV.
RUNNER = r"""
import json, os, signal, sys
from pathlib import Path
sys.path.insert(0, os.path.join(sys.argv[1], "bench"))
import corpus, run
mr = corpus.require_minreach()
signal.signal(signal.SIGALRM, run._on_alarm)
for path in sys.argv[2:]:
    os.chdir(path)
    outcomes = []
    for op in json.loads(Path("ops.json").read_text()):
        result = run.run_op(mr, op, lambda work: work())
        lines = result["stdout"].splitlines() or [""]
        try:
            report = json.loads(lines[-1])
            report.pop("wall_time_ms", None)
            lines[-1] = json.dumps(report)
        except (ValueError, AttributeError):
            pass
        outcomes.append({
            "id": op["id"],
            "code": "timeout" if result["code"] is None else result["code"],
            "stderr": result["stderr"],
            "report": "\n".join(lines),
            "trace": result["extra"],
        })
    print(json.dumps(outcomes))
"""

FIELDS = ("code", "stderr", "report", "trace")

OFF_BENCHMARK = "off-benchmark"


def off_benchmark(out: Path) -> Path:
    """Write the off-benchmark operations and their inputs under `out`, in
    the corpora's ``ops.json`` format, and return `out`."""
    out.mkdir()
    ops = []

    def write(name, payload):
        (out / name).write_text(json.dumps(payload) + "\n")

    def op(kind, argv, trace=None):
        ops.append({"id": f"{len(ops):03d}-{kind}", "kind": kind, "group": kind,
                    "argv": argv, "limit_s": 60.0,
                    "expect": {"trace": trace} if trace else {}})

    for k in range(8):
        # Two copies of one Gaussian block, each driven from a hub state
        # with weight 1, so the hub's closure has rank size + 1 of the
        # 2 size + 1 states it reaches; then Gaussian blocks of 3 and 4.
        rng = np.random.default_rng([2510, k])
        size = 2 + k % 5
        hub = 2 * size
        n = hub + 8
        a = np.zeros((n, n))
        a[:size, :size] = a[size:hub, size:hub] = rng.standard_normal((size, size))
        a[0, hub] = a[size, hub] = 1.0
        a[hub + 1 : hub + 4, hub + 1 : hub + 4] = rng.standard_normal((3, 3))
        a[hub + 4 :, hub + 4 :] = rng.standard_normal((4, 4))
        x1 = rng.standard_normal(n)
        name = f"hub{k}"
        write(f"{name}.json", {"n": n, "a": a.tolist()})
        write(f"{name}.x1.json", x1.tolist())
        base = ["reach", f"{name}.json", "--x1", f"@{name}.x1.json"]
        op("eps", base + ["--eps", repr(1e-3 * float(x1 @ x1)), "--trace", f"{name}.eps.csv"],
           f"{name}.eps.csv")
        op("exact", base + ["--exact", "--accuracy", "1", "--trace", f"{name}.exact.csv"],
           f"{name}.exact.csv")
    for k in range(8):
        # Two or three Gaussian blocks seen through Gaussian output rows.
        rng = np.random.default_rng([2511, k])
        n = 6 + k % 5
        a = np.zeros((n, n))
        cuts = [0, *sorted(rng.choice(np.arange(2, n - 1), 1 + k % 2, replace=False)), n]
        for lo, hi in zip(cuts, cuts[1:]):
            a[lo:hi, lo:hi] = rng.standard_normal((hi - lo, hi - lo))
        w = rng.standard_normal((n - k % 3, n))
        x1 = rng.standard_normal(n)
        v = w @ x1
        name = f"weighted{k}"
        write(f"{name}.json", {"n": n, "a": a.tolist(), "w": w.tolist()})
        write(f"{name}.x1.json", x1.tolist())
        eps = (1e-8, 1e-2, 0.3)[k % 3] * float(v @ v)
        kmax = ["--kmax", "1"] if k % 4 == 3 else []
        op("oracle", ["oracle", f"{name}.json", "--x1", f"@{name}.x1.json", "--eps", repr(eps),
                      *kmax])
    def erdos_renyi(rng, n):
        # Edges with probability 2 ln(n) / n and Gaussian weights, as `gen er`.
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 2 * np.log(n) / n)
        np.fill_diagonal(a, 0.0)
        return a

    def reach(rng, name, a, eps_rel=None):
        # reach --eps at eps_rel times ||x1||^2, or reach --exact --accuracy 1,
        # from the origin, with --trace.
        x1 = rng.standard_normal(a.shape[0])
        write(f"{name}.json", {"n": a.shape[0], "a": a.tolist()})
        write(f"{name}.x1.json", x1.tolist())
        base = ["reach", f"{name}.json", "--x1", f"@{name}.x1.json", "--trace", f"{name}.csv"]
        if eps_rel is None:
            op("exact", base + ["--exact", "--accuracy", "1"], f"{name}.csv")
        else:
            op("eps", base + ["--eps", repr(eps_rel * float(x1 @ x1))], f"{name}.csv")

    for k in range(4):
        # Scaled by 1e-7 or 1e-8, the absolute part of the absorb tolerance
        # makes the certificate decline every closure, full or not. (At
        # 1e-6 it still certifies the verdicts a greedy asks for.)
        rng = np.random.default_rng([2612, k])
        reach(rng, f"tiny{k}", 10.0 ** -(7 + k % 2) * erdos_renyi(rng, 30))
    for k in range(4):
        # 20%-dense lower-triangular Gaussian systems, whose closure ranks
        # are ill-determined.
        rng = np.random.default_rng([2613, k])
        n = 20 + 5 * k
        reach(rng, f"tril{k}", np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)),
              1e-3)
    for k in range(2):
        rng = np.random.default_rng([2614, k])
        reach(rng, f"er300-{k}", erdos_renyi(rng, 300))

    def block_network(rng, n):
        # Gaussian blocks of 1 to 6 states, each one strongly connected
        # component, joined by a few one-way edges from an earlier block to
        # a later one, so that the reach rows of the blocks differ; then
        # the states are relabelled.
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, min(6, n - sum(sizes)) + 1)))
        starts = np.cumsum([0, *sizes])
        a = np.zeros((n, n))
        for lo, hi in zip(starts, starts[1:]):
            a[lo:hi, lo:hi] = rng.standard_normal((hi - lo, hi - lo))
        for _ in range(len(sizes) // 2 + 1):
            src, dst = sorted(rng.choice(len(sizes), 2, replace=False))
            k = rng.integers(starts[dst], starts[dst + 1])
            j = rng.integers(starts[src], starts[src + 1])
            a[k, j] = rng.standard_normal()
        perm = rng.permutation(n)
        return a[np.ix_(perm, perm)]

    for k in range(4):
        rng = np.random.default_rng([2715, k])
        reach(rng, f"network{k}", block_network(rng, 24 + 8 * k), 1e-3)
    rng = np.random.default_rng(2716)
    # A chain with Gaussian weights: every component is one state, and
    # every reach row differs.
    reach(rng, "chain", np.diag(rng.standard_normal(39), -1), 1e-3)
    for k in range(2):
        rng = np.random.default_rng([2717, k])
        name = f"network12-{k}"
        x1 = rng.standard_normal(12)
        write(f"{name}.json", {"n": 12, "a": block_network(rng, 12).tolist()})
        write(f"{name}.x1.json", x1.tolist())
        op("oracle", ["oracle", f"{name}.json", "--x1", f"@{name}.x1.json",
                      "--eps", repr((0.05, 0.3)[k] * float(x1 @ x1))])
    write("ops.json", ops)
    return out


def checkout(base: str, tmp: Path) -> Path:
    """The directory `base` names, or the revision exported under `tmp`."""
    if Path(base).is_dir():
        return Path(base).resolve()
    out = tmp / "base"
    out.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive, check=True)
    return out


def replay(tree: Path, seed: int, out: Path, env: dict) -> tuple[dict, dict]:
    """Write the corpora of `tree` at `seed` under `out` and run them; return
    the digests and the outcomes, by workload."""
    gen = subprocess.run(
        [sys.executable, str(tree / "bench" / "corpus.py"), "--seed", str(seed),
         "--out", str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    digests = dict(line.split() for line in gen.stdout.splitlines())
    return digests, dict(zip(WORKLOADS, run(tree, [out / w for w in WORKLOADS], env)))


def run(tree: Path, dirs: list[Path], env: dict) -> list[list[dict]]:
    """The outcomes of every operation of each of `dirs`, run on `tree`."""
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(tree), *map(str, dirs)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: replay on {tree} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def compare(workload: str, seed, base: list[dict], head: list[dict], differ: list[str]) -> None:
    """Print the row of `workload` at `seed` and append each difference to
    `differ`."""
    label = f"{workload}@{seed}"
    ops = list(zip(base, head))
    bad = [(b["id"], [f for f in FIELDS if b[f] != h[f]]) for b, h in ops]
    bad = [(op_id, fields) for op_id, fields in bad if fields]
    if len(base) != len(head):
        differ.append(f"{label}: operation counts differ")
    differ += [f"{label} {op_id}: {', '.join(fields)}" for op_id, fields in bad]
    print(f"| {workload} | {seed} | {len(ops)} | {len(ops) - len(bad)} | {len(bad)} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--head", default=str(ROOT))
    parser.add_argument("--seed", type=int, action="append")
    args = parser.parse_args(argv)
    seeds = args.seed or [1503]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    differ = []
    print("| workload | seed | operations | identical | differing |")
    print("| --- | --- | --- | --- | --- |")
    with tempfile.TemporaryDirectory(prefix="minreach-replay-") as tmp:
        tmp = Path(tmp)
        trees = {"base": checkout(args.base, tmp), "head": Path(args.head).resolve()}
        for seed in seeds:
            runs = {side: replay(tree, seed, tmp / f"{side}-{seed}", env)
                    for side, tree in trees.items()}
            (base_digests, base), (head_digests, head) = runs["base"], runs["head"]
            for workload in WORKLOADS:
                if base_digests[workload] != head_digests[workload]:
                    differ.append(f"{workload}@{seed}: corpus digests differ")
                compare(workload, seed, base[workload], head[workload], differ)
        off = off_benchmark(tmp / OFF_BENCHMARK)
        base, head = (run(tree, [off], env)[0] for tree in trees.values())
        compare(OFF_BENCHMARK, "-", base, head, differ)
    for line in differ:
        print(f"  differs: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
