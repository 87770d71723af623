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
    run = subprocess.run(
        [sys.executable, "-c", RUNNER, str(tree), *(str(out / w) for w in WORKLOADS)],
        env=env, capture_output=True, text=True,
    )
    if run.returncode != 0:
        raise SystemExit(f"error: replay on {tree} exited {run.returncode}:\n{run.stderr}")
    return digests, dict(zip(WORKLOADS, map(json.loads, run.stdout.splitlines())))


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
                ops = list(zip(base[workload], head[workload]))
                bad = [(b["id"], [f for f in FIELDS if b[f] != h[f]]) for b, h in ops]
                bad = [(op_id, fields) for op_id, fields in bad if fields]
                if len(base[workload]) != len(head[workload]):
                    differ.append(f"{workload}@{seed}: operation counts differ")
                differ += [f"{workload}@{seed} {op_id}: {', '.join(fields)}"
                           for op_id, fields in bad]
                print(f"| {workload} | {seed} | {len(ops)} | {len(ops) - len(bad)} | {len(bad)} |")
    for line in differ:
        print(f"  differs: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
