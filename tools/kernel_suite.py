"""Run the test suite once per OpenBLAS kernel and print pass/fail per kernel.

    python3 tools/kernel_suite.py [--kernels SkylakeX,Haswell,...] [-- PYTEST_ARGS]

numpy's OpenBLAS is built with DYNAMIC_ARCH and picks a kernel for the CPU
at start-up. ``OPENBLAS_CORETYPE`` forces another kernel for one process
only, so each kernel gets its own pytest subprocess, with one BLAS thread.
The table gives, per kernel, the core OpenBLAS reports it loaded, the
passed and failed counts, the wall time and the failing tests.

The contract (README, "Results and the BLAS kernel"): the same inputs on
the same kernel give the same bits at any thread count; across kernels,
picks may differ only inside the tie band or once the residual is down to
a few ulps of ``v @ v``, and residuals only in their last bits. A test
that pins one kernel's bits fails on another kernel. Exits 1 when some
kernel has a failing test or a run that did not finish, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Zen", "Prescott")

# Prints the core that numpy's OpenBLAS loaded, or "?" when the library
# does not export its name.
PROBE = """
import ctypes, glob, os, numpy
name = "?"
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        f = getattr(ctypes.CDLL(path), symbol, None)
        if f is not None:
            f.restype = ctypes.c_char_p
            name = f().decode()
            break
print(name)
"""


def run(kernel: str, pytest_args: list[str]) -> dict:
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", *pytest_args],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    counts = {k: 0 for k in ("passed", "failed", "error")}
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    for number, word in re.findall(r"(\d+) (passed|failed|error)", summary):
        counts[word] = int(number)
    return {
        "kernel": kernel,
        "core": probe.stdout.strip() or f"exit {probe.returncode}",
        "seconds": time.perf_counter() - start,
        "code": proc.returncode,
        "failing": [line[len("FAILED "):] for line in proc.stdout.splitlines()
                    if line.startswith("FAILED ")],
        **counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernels", default=",".join(KERNELS),
                        help="comma-separated OPENBLAS_CORETYPE values")
    parser.add_argument("pytest_args", nargs="*", help="passed on to pytest, after --")
    args = parser.parse_args(argv)
    ok = True
    print("| kernel | core loaded | passed | failed | s | failing tests |")
    print("| --- | --- | --- | --- | --- | --- |")
    for kernel in args.kernels.split(","):
        r = run(kernel, args.pytest_args)
        failing = "; ".join(r["failing"]) or (
            "-" if r["code"] == 0 else f"pytest exit {r['code']}"
        )
        print(f"| {r['kernel']} | {r['core']} | {r['passed']} | {r['failed'] + r['error']} "
              f"| {r['seconds']:.1f} | {failing} |", flush=True)
        ok &= r["code"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
