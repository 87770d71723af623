"""minreach benchmark: time to a checked answer, one operation at a time.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One caller runs the workload's operations in a closed loop, in whole rounds
(every operation of the corpus once per round), until S seconds have passed
and at least MIN_OPS operations were attempted. An operation is an
in-process call of ``minreach.cli.main(argv)`` with its output captured, or
for ``epsilon_a``, which has no command, a library call. Every answer is
checked against the reference computations after the timed loop.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it give the same figures for a reader.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: the package's matrices are at most a few hundred
# wide, and one thread keeps timings steady on a shared machine. Set before
# numpy is imported, here and in the set-up processes that inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import corpus
import layers

ROOT = corpus.ROOT
BENCH = ROOT / "bench"

#: Fewest operations a run attempts, so op_tail_ms has ten beyond it.
MIN_OPS = 40

#: Set-up is timed this many times per run and reported as the median. It is
#: not calibrated: process start-up and imports do not follow the kernel.
SETUP_REPS = 5


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def setup(workload: str, seed: int, work: Path) -> tuple[float, Path, str]:
    """Time SETUP_REPS fresh processes that import minreach and generate and
    write the corpus; return the median time, the last corpus and its digest."""
    times, digests = [], set()
    for rep in range(SETUP_REPS):
        out = work / f"setup{rep}"
        cmd = [sys.executable, str(BENCH / "corpus.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"corpus set-up failed:\n{proc.stderr}")
        digests.add(proc.stdout.split()[-1])
    if len(digests) != 1:
        raise RuntimeError(f"corpus set-up is not deterministic: {sorted(digests)}")
    return statistics.median(times), out / workload, digests.pop()


def call_op(mr, op: dict) -> int:
    """Run one operation with stdout and stderr already redirected."""
    if op["kind"] == "epsilon_a":
        paths = op["argv"]
        a = json.loads(Path(paths["system"]).read_text())["a"]
        v = json.loads(Path(paths["v"]).read_text())
        value = mr.epsilon_a(mr.LtiSystem(a), v)
        print(json.dumps({"epsilon_a": value}))
        return 0
    return mr.cli.main(op["argv"])


def run_op(mr, op: dict, call) -> dict:
    """Run `op` under its time limit; `call` runs the work (and may trace it)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op["limit_s"])
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call(lambda: call_op(mr, op))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
    except OpTimeout:
        code = None
    trace = op["expect"].get("trace")
    return {
        "ms": elapsed * 1e3,
        "code": code,
        "failed": code != 0,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "extra": Path(trace).read_text() if trace and code == 0 and Path(trace).exists() else None,
    }


def run_rounds(mr, ops, seconds: float, min_ops: int = MIN_OPS, call=None):
    """Whole rounds until `seconds` have passed and `min_ops` operations were
    attempted. `call(seq, work)` wraps each operation's work (for tracing).
    A calibration sample follows every operation; ``ms`` is the calibrated
    time and ``raw_ms`` the wall time."""
    results = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < min_ops:
        for index, op in enumerate(ops):
            seq = len(results)
            wrap = (lambda f: call(seq, f)) if call else (lambda f: f())
            result = run_op(mr, op, wrap)
            result.update(op=index, seq=seq, kernel_ms=calibrate.sample_ms())
            results.append(result)
    for result, factor in zip(results, calibrate.factors([r["kernel_ms"] for r in results])):
        result["raw_ms"] = result["ms"]
        result["ms"] *= factor
        result["factor"] = factor
    return results


def check_results(inputs: checks.Inputs, ops, results) -> tuple[list[str], int]:
    """Check every answer that did not fail; return the errors and how many
    answers were skipped as ambiguous. Identical outputs are checked once,
    and every operation must give one output in every round."""
    errors, ambiguous = [], 0
    verdicts: dict[tuple, str] = {}
    outputs: dict[int, set] = {}
    for result in results:
        if result["failed"]:
            continue
        op = ops[result["op"]]
        report = json.loads(result["stdout"].strip().splitlines()[-1])
        report.pop("wall_time_ms", None)
        key = (result["op"], json.dumps(report, sort_keys=True), result["extra"])
        outputs.setdefault(result["op"], set()).add(key)
        if key not in verdicts:
            try:
                check = checks.CHECKS[op["kind"]]
                verdicts[key] = check(inputs, op["expect"], report, result["extra"])
            except checks.CheckError as exc:
                verdicts[key] = "error"
                errors.append(f"{op['id']}: {exc}")
        result["report"] = report
        ambiguous += verdicts[key] == "ambiguous"
    for index, keys in outputs.items():
        if len(keys) > 1:
            errors.append(f"{ops[index]['id']}: {len(keys)} different outputs across rounds")
    return errors, ambiguous


def tail_ms(times: list[float]) -> float:
    """Highest order statistic with at least ten samples beyond it."""
    ordered = sorted(times)
    return ordered[max(len(ordered) - 11, 0)]


def end_to_end(ops, results, setup_s: float, peak_mb: float) -> dict:
    """The end-to-end metrics; throughput counts the time of every operation,
    failed ones included, and latency the operations that did not fail."""
    done = [r for r in results if not r["failed"]]
    times = [r["ms"] for r in done]
    sizes = [checks.answer_size(ops[r["op"]]["kind"], r["report"]) for r in done]
    sizes = [s for s in sizes if s is not None]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / (sum(r["ms"] for r in results) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(times), "ms"),
        "op_tail_ms": (tail_ms(times), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "actuators_per_op": (statistics.fmean(sizes), "count"),
    }


def traced(mr, workload, seed, ops, seconds, digest, scratch: Path):
    """One untraced round, then whole traced rounds for `seconds`. Returns
    every result, the per-layer metrics, notes for the reader and errors."""
    baseline = run_rounds(mr, ops, 0.0, min_ops=1)
    tracer = layers.Tracer()
    tracer.op = "setup"
    regenerated = corpus.generate(mr, workload, seed, scratch)
    tracer.op = -1
    results = run_rounds(mr, ops, seconds, min_ops=1, call=tracer.run)
    ok = [r for r in results if not r["failed"]]
    # Layer times are calibrated like operation times, by the run's median
    # speed factor; counts are not scaled.
    factor = statistics.median(r["factor"] for r in results)
    metrics = {}
    for name, value in tracer.per_op(r["seq"] for r in ok).items():
        unit = layers.METRICS[name][3]
        metrics[name] = (value * factor if unit == "ms" else value, unit)
    generation = tracer.span_totals(["setup"])
    metrics["netgen.generate_ms"] = (factor * sum(
        v["self_ms"] for k, v in generation.items() if k.startswith("netgen.")), "ms")
    untraced = {r["op"]: r["ms"] for r in baseline if not r["failed"]}
    traced_ms: dict[int, list[float]] = {}
    for r in ok:
        if r["op"] in untraced:
            traced_ms.setdefault(r["op"], []).append(r["ms"])
    metrics["trace.overhead"] = (
        sum(statistics.fmean(v) for v in traced_ms.values())
        / sum(untraced[op] for op in traced_ms), "ratio")

    errors = []
    if regenerated != digest:
        errors.append(f"in-process corpus digest {regenerated} differs from set-up {digest}")
    notes = []
    by_group: dict[str, list[int]] = {}
    for r in ok:
        calls = tracer.profiles[r["seq"]].get("greedy_core", {}).get("calls", 0)
        by_group.setdefault(ops[r["op"]]["group"], []).append(calls)
    notes.append("selector.greedy_runs per operation by group: " + ", ".join(
        f"{g} {statistics.fmean(v):.2f}" for g, v in by_group.items()))
    if tracer.missing:
        notes.append("not wrapped (absent): " + ", ".join(tracer.missing))
    if layers.gone():
        notes.append("gone (count reads 0): " + ", ".join(layers.gone()))
    out = BENCH / ".out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{workload}-{seed}.json").write_text(json.dumps(
        {"spans": tracer.spans, "profiles": {str(k): v for k, v in tracer.profiles.items()}}))
    return baseline + results, metrics, notes, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mr = corpus.require_minreach()
    signal.signal(signal.SIGALRM, _on_alarm)
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, corpus_dir, digest = setup(args.workload, args.seed, work)
        ops = json.loads((corpus_dir / "ops.json").read_text())
        os.chdir(corpus_dir)
        try:
            if args.trace:
                results, metrics, notes, errors = traced(
                    mr, args.workload, args.seed, ops, args.seconds, digest, work / "traced")
            else:
                results = run_rounds(mr, ops, args.seconds)
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                notes, errors = [], []
            wrong, ambiguous = check_results(checks.Inputs(corpus_dir), ops, results)
            errors += wrong
            if not args.trace:
                metrics = end_to_end(ops, results, setup_s, peak_mb)
        finally:
            os.chdir(ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in results if r["failed"]]
    print(f"workload {args.workload}  seed {args.seed}  corpus {digest[:16]}  "
          f"rounds {len(results) // len(ops)} of {len(ops)} operations")
    print(f"attempted {len(results)}  failed {len(failed)}  ambiguous (skipped) {ambiguous}")
    for op_id in sorted({ops[r["op"]]["id"] for r in failed}):
        kinds = {"timeout" if r["code"] is None else f"exit {r['code']}: {r['stderr'].strip()}"
                 for r in failed if ops[r["op"]]["id"] == op_id}
        print(f"  failed: {op_id} ({', '.join(sorted(kinds))})")
    done = [r for r in results if not r["failed"]]
    kernel_ms = statistics.median(r["kernel_ms"] for r in results)
    raw_p50 = statistics.median(r["raw_ms"] for r in done)
    print(f"  calibration kernel median {kernel_ms:.2f} ms (reference {calibrate.REFERENCE_MS}), "
          f"uncalibrated op p50 {raw_p50:.1f} ms")
    groups: dict[str, list[float]] = {}
    for r in results:
        if not r["failed"]:
            groups.setdefault(ops[r["op"]]["group"], []).append(r["ms"])
    print("  median ms by group: " + ", ".join(
        f"{g} {statistics.median(v):.1f} ({len(v)})" for g, v in groups.items()))
    for error in errors:
        print(f"  WRONG: {error}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
