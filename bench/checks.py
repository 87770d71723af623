"""Answer checks: each judges one operation's output against the reference
computations in ``reference.py``.

A check returns ``"ok"``, returns ``"ambiguous"`` when the verdict hinges on
a residual inside the band around the tolerance, or raises CheckError. The
inputs are read from the corpus files named in the operation, so a check
needs nothing from the run but the operation and its output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

import reference


class CheckError(Exception):
    """An operation's output contradicts the reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


class Inputs:
    """Read-only access to one corpus directory's files."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.load = lru_cache(maxsize=None)(self._load)

    def _load(self, name: str):
        return json.loads((self.root / name).read_text())

    def system(self, name: str) -> tuple[np.ndarray, np.ndarray | None]:
        data = self.load(name)
        w = data.get("w")
        return np.array(data["a"], dtype=float), None if w is None else np.array(w, dtype=float)

    def vector(self, ref, n: int) -> np.ndarray:
        """A vector given inline, by file name, or as None for the origin."""
        if ref is None:
            return np.zeros(n)
        return np.array(self.load(ref) if isinstance(ref, str) else ref, dtype=float)

    def transfer(self, expect: dict) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """The system of `expect` and its reference transfer vector."""
        a, w = self.system(expect["system"])
        n = a.shape[0]
        x0, x1 = self.vector(expect["x0"], n), self.vector(expect["x1"], n)
        return a, w, reference.transfer_vector(a, x0, x1, w=w)


def _actuators(report: dict, n: int) -> list[int]:
    act = report["actuators"]
    require(act == sorted(set(act)), f"actuators {act} not sorted and distinct")
    require(all(1 <= i <= n for i in act), f"actuators {act} outside 1..{n}")
    require(report["cardinality"] == len(act), "cardinality differs from the actuator count")
    return act


def _agree(reported: float, independent: float, scale: float, what: str) -> None:
    require(
        abs(reported - independent) <= reference.ROUNDING_REL * scale,
        f"reported {what} {reported!r} but the reference gives {independent!r}",
    )


def check_exact(inputs: Inputs, expect: dict, report: dict, extra=None) -> str:
    """``reach --exact``: the set makes v exactly feasible, and the reported
    residual agrees with the reference one."""
    a, w, v = inputs.transfer(expect)
    act = _actuators(report, a.shape[0])
    if "actuators" in expect:
        require(act == expect["actuators"], f"actuators {act}, expected {expect['actuators']}")
    tol = reference.EXACT_TOL * float(v @ v)
    res = reference.residual_sq(reference.reachable_basis(a, act, w), v)
    if reference.in_band(res, tol):
        return "ambiguous"
    require(res <= tol, f"actuators {act} leave squared residual {res!r} > {tol!r}")
    reported = report["residual_sq"]
    require(reported <= tol, f"reported residual {reported!r} > {tol!r}")
    require(abs(reported - res) <= tol, "reported residual disagrees with the reference")
    return "ok"


def parse_trace(text: str) -> tuple[list[int], list[float]]:
    """Chosen indices and residuals of a ``reach --trace`` CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    require(rows and rows[0] == ["iteration", "chosen_index", "residual_sq"], "bad trace header")
    require([int(r[0]) for r in rows[1:]] == list(range(len(rows) - 1)), "bad trace iterations")
    return [int(r[1]) for r in rows[2:]], [float(r[2]) for r in rows[1:]]


def check_eps(inputs: Inputs, expect: dict, report: dict, extra=None) -> str:
    """``reach --eps`` on a block-diagonal system: the trace stops at the
    first residual at or below eps, the reference residual is at most eps,
    and the set is no smaller than the block lower bound."""
    a, w, v = inputs.transfer(expect)
    nv2 = float(v @ v)
    eps = expect["eps"]
    act = _actuators(report, a.shape[0])
    require(extra is not None, "no trace CSV was written")
    chosen, residuals = parse_trace(extra)
    require(sorted(chosen) == act, f"trace picks {chosen} differ from actuators {act}")
    require(report["iterations"] == len(chosen), "iterations differ from the trace length")
    require(all(cur < prev for prev, cur in zip(residuals, residuals[1:])),
            "trace residuals not strictly decreasing")
    require(residuals[-1] <= eps, f"final trace residual {residuals[-1]!r} > eps {eps!r}")
    require(len(residuals) < 2 or residuals[-2] > eps, "trace ran past the first residual <= eps")
    require(report["residual_sq"] == residuals[-1], "reported residual differs from the trace")
    _agree(residuals[0], nv2, nv2, "||v||^2")
    res = reference.residual_sq(reference.reachable_basis(a, act, w), v)
    require(res <= eps + reference.ROUNDING_REL * nv2, f"reference residual {res!r} > eps {eps!r}")
    _agree(report["residual_sq"], res, nv2, "residual")
    bound = reference.block_lower_bound(expect["blocks"], v, eps)
    require(len(act) >= bound, f"{len(act)} actuators, below the block lower bound {bound}")
    return "ok"


def check_subset(inputs: Inputs, expect: dict, report: dict, extra=None) -> str:
    """``subset-reach``: the winning ball's centre lies within its radius of
    the output-space span of the set."""
    a, w = inputs.system(expect["system"])
    balls = inputs.load(expect["balls"])
    act = _actuators(report, a.shape[0])
    k = report["ball_index"]
    require(1 <= k <= len(balls), f"ball_index {k} outside 1..{len(balls)}")
    center = np.array(balls[k - 1]["center"], dtype=float)
    radius_sq = balls[k - 1]["radius_sq"]
    require(report["epsilon_used"] == radius_sq, "epsilon_used is not the winning ball's radius_sq")
    nc2 = float(center @ center)
    res = reference.residual_sq(reference.reachable_basis(a, act, w), center)
    require(res <= radius_sq + reference.ROUNDING_REL * nc2,
            f"centre {k} is {res!r} > {radius_sq!r} from the span")
    _agree(report["residual_sq"], res, nc2, "residual")
    if act:
        free = [j for j, ball in enumerate(balls, 1)
                if sum(x * x for x in ball["center"]) <= ball["radius_sq"]]
        require(not free, f"balls {free} contain the origin, so the empty set reaches them")
    return "ok"


def check_oracle(inputs: Inputs, expect: dict, report: dict, extra=None) -> str:
    """``oracle``: no smaller set and no lexicographically earlier set of the
    same size is feasible, and the set itself is."""
    a, w, v = inputs.transfer(expect)
    act = _actuators(report, a.shape[0])
    eps = expect["eps"]
    first, ambiguous = reference.first_feasible(a, v, eps, w, k_max=len(act))
    if ambiguous:
        return "ambiguous"
    require(first == tuple(act), f"oracle returned {act}, the first feasible set is {first}")
    reported = report["residual_sq"]
    require(reported <= eps, f"reported residual {reported!r} > eps {eps!r}")
    return "ok"


def check_verify(inputs: Inputs, expect: dict, report: dict, extra=None) -> str:
    """``verify``: the reduction's optimum is h + 1 (lemma1, lemma2) or h
    (lemma3), with h the hitting-set optimum found by enumeration."""
    instance = inputs.load(expect["instance"])
    variant = expect["variant"]
    h = reference.min_hitting_set_size(instance["m"], instance["sets"])
    want = h if variant == "lemma3" else h + 1
    require(report["variant"] == variant, "wrong variant in the report")
    wanted = {"hitting_set_size": h, "reach_min_size": want, "expected_size": want}
    for field, value in wanted.items():
        require(report[field] == value, f"{field} {report[field]}, enumeration gives {value}")
    controllable = {"lemma1": True, "lemma2": False, "lemma3": None}[variant]
    require(report["controllable_at_optimum"] is controllable, "wrong controllable_at_optimum")
    require(report["passed"] is True, "verification did not pass")
    return "ok"


def check_epsilon_a(inputs: Inputs, expect: dict, report: dict, extra=None) -> str:
    """``epsilon_a``: equal to the reference enumeration's value."""
    a, _ = inputs.system(expect["system"])
    v = inputs.vector(expect["v"], a.shape[0])
    value, ambiguous = reference.epsilon_a(a, v)
    if ambiguous:
        return "ambiguous"
    got = report["epsilon_a"]
    if math.isinf(value):
        require(math.isinf(got), f"epsilon_a {got!r}, reference gives inf")
    else:
        _agree(got, value, float(v @ v), "epsilon_a")
    return "ok"


CHECKS = {
    "exact": check_exact,
    "eps": check_eps,
    "subset": check_subset,
    "oracle": check_oracle,
    "verify": check_verify,
    "epsilon_a": check_epsilon_a,
}


def answer_size(kind: str, report: dict) -> int | None:
    """Actuator count of an answer; None for kinds that return no set."""
    if kind == "verify":
        return report["reach_min_size"]
    if kind == "epsilon_a":
        return None
    return report["cardinality"]
