"""Command-line interface.

Subcommands cover the package's workflows end to end: select actuators
for a transfer (greedy or bisection), reach a union of balls, run the
exhaustive oracle, generate example systems, and build or verify the
hardness reductions.

Exit codes: 0 success; 2 input, parse, dimension, or capacity problems;
3 numerical infeasibility; 4 oracle found nothing within its cap;
5 reduction verification failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from .errors import InputError, NumericalInfeasibilityError
from .numkit import as_int, as_positive
from .reachcore import (
    ActuatorSet,
    LtiSystem,
    TransferSpec,
    _check_system_vector,
    residual,
    transfer_vector,
)
from .reductions import (
    HittingSetInstance,
    build_lemma1,
    build_lemma2,
    build_lemma3,
    verify_reduction,
)
from .selector import Ball, GreedyTrace, bisection_exact, brute_force_opt, greedy_eps, subset_reach
from .netgen import erdos_renyi, star


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _load_json(path: str):
    """The JSON value in `path`, refused when it holds a JSON boolean
    anywhere: every input file holds numbers, and numpy would read true
    as 1.0."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data = json.loads(text)
    # Every boolean is spelled with a t or an f, which no number has, so a
    # file of numbers without either needs no walk.
    if "t" in text or "f" in text:
        stack = [data]
        while stack:
            item = stack.pop()
            if isinstance(item, bool):
                raise InputError(f"{path}: expected numbers, got a JSON boolean")
            if isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, list):
                stack.extend(item)
    return data


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")


def _load_system(path: str) -> LtiSystem:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    if "n" not in data or "a" not in data:
        raise InputError(f"{path}: system file needs fields 'n' and 'a'")
    n = as_int(data["n"], f"{path}: 'n'")
    sys_ = LtiSystem(data["a"], data.get("w"))
    if sys_.n != n:
        raise InputError(f"{path}: 'a' is {sys_.n}x{sys_.n} but n={n}")
    return sys_


def _system_payload(sys_: LtiSystem, seed: int | None = None) -> dict:
    payload: dict = {"n": sys_.n, "a": sys_.a.tolist()}
    if sys_.w is not None:
        payload["w"] = sys_.w.tolist()
    if seed is not None:
        payload["seed"] = int(seed)
    return payload


def _parse_vector(text: str, expected: int, name: str) -> np.ndarray:
    if text.startswith("@"):
        data = _load_json(text[1:])
        # A JSON string is refused, not parsed: float("1") is 1.0.
        if not isinstance(data, list) or not all(
            isinstance(tok, (int, float)) for tok in data
        ):
            raise InputError(f"{name}: @file must contain a JSON list of numbers")
        tokens = data
    else:
        tokens = [tok for tok in text.split(",") if tok.strip()]
    try:
        vec = np.array([float(tok) for tok in tokens], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: cannot parse as numbers ({exc})") from exc
    if vec.shape[0] != expected:
        raise InputError(f"{name}: expected {expected} entries, got {vec.shape[0]}")
    if not np.all(np.isfinite(vec)):
        raise InputError(f"{name}: entries must be finite")
    return vec


def _resolve_transfer(sys_: LtiSystem, args) -> np.ndarray:
    """Transfer vector for the CLI's endpoint flags, in the output space."""
    x1 = _parse_vector(args.x1, sys_.n, "--x1")
    x0 = (
        np.zeros(sys_.n)
        if args.x0 is None
        else _parse_vector(args.x0, sys_.n, "--x0")
    )
    spec = TransferSpec(x0=x0, x1=x1, t0=args.t0, t1=args.t1)
    v = transfer_vector(sys_, spec)
    if sys_.w is not None:
        v = sys_.w @ v
    return _check_system_vector(sys_, v, "transfer vector")


def _write_trace(path: str, trace: GreedyTrace) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "chosen_index", "residual_sq"])
        writer.writerow([0, 0, trace.residuals[0]])
        for k, index in enumerate(trace.chosen, start=1):
            writer.writerow([k, index, trace.residuals[k]])


def _run_report(
    actuators: tuple[int, ...],
    residual_sq: float,
    epsilon_used: float,
    iterations: int,
    wall_time_ms: float,
    **extra,
) -> dict:
    payload = {
        "actuators": list(actuators),
        "cardinality": len(actuators),
        "residual_sq": residual_sq,
        "epsilon_used": epsilon_used,
        "iterations": iterations,
        "wall_time_ms": wall_time_ms,
    }
    payload.update(extra)
    return payload


def _cmd_reach(args) -> int:
    start = time.perf_counter()
    sys_ = _load_system(args.system)
    if (args.eps is None) == (not args.exact):
        raise InputError("choose exactly one mode: --eps <value> or --exact")
    # Checked before the transfer vector: a zero one runs neither mode.
    if args.eps is not None:
        threshold = as_positive(args.eps, "eps")
    elif args.accuracy is None:
        raise InputError("--exact requires --accuracy <value>")
    else:
        threshold = as_positive(args.accuracy, "accuracy")
    v = _resolve_transfer(sys_, args)
    if float(v @ v) == 0.0:
        delta, eps_used = ActuatorSet.empty(sys_.n), 0.0
        trace = GreedyTrace(chosen=(), residuals=(0.0,), epsilon=0.0)
    elif args.eps is not None:
        delta, trace = greedy_eps(sys_, v, threshold)
        eps_used = threshold
    else:
        delta, eps_used, trace = bisection_exact(sys_, v, threshold)
    elapsed = (time.perf_counter() - start) * 1e3
    if args.trace:
        _write_trace(args.trace, trace)
    _emit(
        _run_report(
            delta.indices, trace.residuals[-1], eps_used, len(trace.chosen), elapsed
        )
    )
    return 0


def _cmd_subset_reach(args) -> int:
    start = time.perf_counter()
    sys_ = _load_system(args.system)
    data = _load_json(args.balls)
    if not isinstance(data, list) or not data:
        raise InputError(f"{args.balls}: expected a non-empty JSON list of balls")
    balls = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict) or "center" not in entry or "radius_sq" not in entry:
            raise InputError(
                f"{args.balls}[{k}]: each ball needs 'center' and 'radius_sq'"
            )
        balls.append(Ball(center=entry["center"], radius_sq=entry["radius_sq"]))
    delta, ball_index = subset_reach(sys_, balls)
    winner = balls[ball_index - 1]
    res = residual(sys_, delta, winner.center)
    elapsed = (time.perf_counter() - start) * 1e3
    _emit(
        _run_report(
            delta.indices,
            res,
            winner.radius_sq,
            delta.cardinality,
            elapsed,
            ball_index=ball_index,
        )
    )
    return 0


def _cmd_oracle(args) -> int:
    start = time.perf_counter()
    sys_ = _load_system(args.system)
    v = _resolve_transfer(sys_, args)
    eps = float(args.eps)
    delta = brute_force_opt(sys_, v, eps, args.kmax)
    elapsed = (time.perf_counter() - start) * 1e3
    if delta is None:
        k_max = sys_.n if args.kmax is None else int(args.kmax)
        _emit({"infeasible": True, "k_max": k_max, "epsilon_used": eps})
        return 4
    res = residual(sys_, delta, v)
    _emit(_run_report(delta.indices, res, eps, delta.cardinality, elapsed))
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "star":
        sys_ = star(args.n)
        payload = _system_payload(sys_)
    else:
        sys_ = erdos_renyi(args.n, args.seed)
        payload = _system_payload(sys_, seed=args.seed)
    _write_json(args.out, payload)
    _emit({"out": args.out, "n": sys_.n})
    return 0


def _load_instance(path: str) -> HittingSetInstance:
    return HittingSetInstance.from_dict(_load_json(path))


def _state_target(chi: np.ndarray) -> dict:
    return {"kind": "state", "chi": chi.tolist()}


#: Each reduction variant's builder, and the target-file payload of the
#: target it builds.
_REDUCTIONS = {
    "lemma1": (build_lemma1, _state_target),
    "lemma2": (build_lemma2, _state_target),
    "lemma3": (build_lemma3, lambda cone: {"kind": "cone", "m": cone.m, "p": cone.p}),
}


def _cmd_reduce(args) -> int:
    build, target_payload = _REDUCTIONS[args.variant]
    sys_, target = build(_load_instance(args.instance))
    system_path = f"{args.out}.system.json"
    target_path = f"{args.out}.target.json"
    _write_json(system_path, _system_payload(sys_))
    _write_json(target_path, target_payload(target))
    _emit({"system": system_path, "target": target_path})
    return 0


def _cmd_verify(args) -> int:
    instance = _load_instance(args.instance)
    report = verify_reduction(instance, args.variant, args.kmax)
    _emit(asdict(report))
    return 0 if report.passed else 5


def _add_transfer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--x1", required=True, help="target state: comma list or @file")
    parser.add_argument("--x0", default=None, help="initial state (default: origin)")
    parser.add_argument("--t0", type=float, default=0.0, help="start time (default 0)")
    parser.add_argument("--t1", type=float, default=1.0, help="end time (default 1)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: building it costs far
    more than a parse, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="minreach",
        description="Minimal actuator selection for state transfers of linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reach = sub.add_parser("reach", help="select actuators for one transfer")
    p_reach.add_argument("system", help="system JSON file")
    _add_transfer_flags(p_reach)
    p_reach.add_argument("--eps", type=float, default=None, help="residual threshold")
    p_reach.add_argument(
        "--exact", action="store_true", help="bisect down to exact feasibility"
    )
    p_reach.add_argument(
        "--accuracy", type=float, default=None, help="bisection bracket width"
    )
    p_reach.add_argument("--trace", default=None, help="write per-pick CSV trace here")
    p_reach.set_defaults(handler=_cmd_reach)

    p_subset = sub.add_parser("subset-reach", help="reach a union of balls")
    p_subset.add_argument("system", help="system JSON file")
    p_subset.add_argument("balls", help="balls JSON file")
    p_subset.set_defaults(handler=_cmd_subset_reach)

    p_oracle = sub.add_parser("oracle", help="exhaustive minimal set (small n)")
    p_oracle.add_argument("system", help="system JSON file")
    _add_transfer_flags(p_oracle)
    p_oracle.add_argument("--eps", type=float, required=True, help="residual threshold")
    p_oracle.add_argument("--kmax", type=int, default=None, help="cardinality cap")
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate example systems")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    p_star = gen_sub.add_parser("star", help="star network")
    p_star.add_argument("n", type=int, help="leaf count")
    p_star.add_argument("--out", required=True, help="output system JSON path")
    p_star.set_defaults(handler=_cmd_gen, kind="star")
    p_er = gen_sub.add_parser("er", help="random weighted digraph")
    p_er.add_argument("n", type=int, help="state count")
    p_er.add_argument("seed", type=int, help="64-bit seed")
    p_er.add_argument("--out", required=True, help="output system JSON path")
    p_er.set_defaults(handler=_cmd_gen, kind="er")

    p_reduce = sub.add_parser("reduce", help="build a hardness-reduction instance")
    p_reduce.add_argument("instance", help="hitting-set instance JSON file")
    p_reduce.add_argument(
        "--variant", required=True, choices=tuple(_REDUCTIONS)
    )
    p_reduce.add_argument("--out", required=True, help="output path prefix")
    p_reduce.set_defaults(handler=_cmd_reduce)

    p_verify = sub.add_parser("verify", help="check a reduction's size identity")
    p_verify.add_argument("instance", help="hitting-set instance JSON file")
    p_verify.add_argument(
        "--variant", required=True, choices=tuple(_REDUCTIONS)
    )
    p_verify.add_argument("--kmax", type=int, default=None, help="cardinality cap")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NumericalInfeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
