"""Command-line surface tests: JSON ingestion, subcommand workflows,
exit codes, trace emission, and output stability."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minreach
from conftest import run_cli
from minreach import cli, erdos_renyi
from minreach.errors import NumericalInfeasibilityError


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_system(tmp_path, name, a, w=None):
    a = np.asarray(a, dtype=float)
    payload = {"n": a.shape[0], "a": a.tolist()}
    if w is not None:
        payload["w"] = np.asarray(w, dtype=float).tolist()
    return write_json(tmp_path / name, payload)


def diag_system(tmp_path):
    return write_system(tmp_path, "diag.json", np.diag([1.0, 2.0]))


def star_system(tmp_path):
    path = tmp_path / "star.json"
    code, out, _ = run_cli(["gen", "star", "4", "--out", str(path)])
    assert code == 0
    return str(path)


def parse_report(stdout):
    payload = json.loads(stdout.strip().splitlines()[-1])
    assert list(payload) == sorted(payload)
    return payload


class TestGen:
    def test_star_round_trip(self, tmp_path):
        path = tmp_path / "star.json"
        code, out, _ = run_cli(["gen", "star", "4", "--out", str(path)])
        assert code == 0
        assert parse_report(out) == {"n": 5, "out": str(path)}
        data = json.loads(path.read_text())
        assert data["n"] == 5
        assert data["a"][0] == [-1.0, 1.0, 1.0, 1.0, 1.0]
        assert data["a"][2] == [0.0, 0.0, -1.0, 0.0, 0.0]

    def test_star_smallest(self, tmp_path):
        path = tmp_path / "tiny.json"
        code, _, _ = run_cli(["gen", "star", "1", "--out", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["a"] == [[-1.0, 1.0], [0.0, -1.0]]

    def test_er_deterministic_bytes(self, tmp_path):
        first = tmp_path / "er1.json"
        second = tmp_path / "er2.json"
        assert run_cli(["gen", "er", "10", "7", "--out", str(first)])[0] == 0
        assert run_cli(["gen", "er", "10", "7", "--out", str(second)])[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_er_matches_library_and_keeps_seed(self, tmp_path):
        path = tmp_path / "er.json"
        assert run_cli(["gen", "er", "12", "99", "--out", str(path)])[0] == 0
        data = json.loads(path.read_text())
        assert data["seed"] == 99
        assert np.array_equal(np.array(data["a"]), erdos_renyi(12, 99).a)

    def test_unwritable_path(self, tmp_path):
        code, _, err = run_cli(
            ["gen", "star", "2", "--out", str(tmp_path / "no" / "dir.json")]
        )
        assert code == 2
        assert "error" in err


class TestReach:
    def test_greedy_mode_report(self, tmp_path):
        code, out, _ = run_cli(
            ["reach", diag_system(tmp_path), "--x1", "1,1", "--eps", "1e-6"]
        )
        assert code == 0
        report = parse_report(out)
        assert report["actuators"] == [1, 2]
        assert report["cardinality"] == 2
        assert report["iterations"] == 2
        assert report["epsilon_used"] == 1e-6
        assert report["residual_sq"] <= 1e-6
        assert report["wall_time_ms"] >= 0.0

    def test_exact_mode_star_center(self, tmp_path):
        code, out, _ = run_cli(
            [
                "reach",
                star_system(tmp_path),
                "--x1",
                "1,0,0,0,0",
                "--exact",
                "--accuracy",
                "0.001",
            ]
        )
        assert code == 0
        report = parse_report(out)
        assert report["actuators"] == [1]
        assert report["residual_sq"] <= 1e-8

    def test_exact_mode_star_two_leaves(self, tmp_path):
        code, out, _ = run_cli(
            [
                "reach",
                star_system(tmp_path),
                "--x1",
                "0,1,1,0,0",
                "--exact",
                "--accuracy",
                "0.001",
            ]
        )
        assert code == 0
        assert parse_report(out)["actuators"] == [2, 3]

    def test_trace_csv(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            [
                "reach",
                diag_system(tmp_path),
                "--x1",
                "1,1",
                "--eps",
                "1e-6",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        with open(trace_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "chosen_index", "residual_sq"]
        parsed = [(int(r[0]), int(r[1]), float(r[2])) for r in rows[1:]]
        assert parsed == [(0, 0, 2.0), (1, 1, 1.0), (2, 2, 0.0)]

    def test_zero_transfer_short_circuit(self, tmp_path):
        path = write_system(tmp_path, "zero.json", np.zeros((2, 2)))
        code, out, _ = run_cli(
            ["reach", path, "--x0", "3,4", "--x1", "3,4", "--eps", "1e-9"]
        )
        assert code == 0
        report = parse_report(out)
        assert report["actuators"] == []
        assert report["residual_sq"] == 0.0
        assert report["iterations"] == 0

    @pytest.mark.parametrize("x1", ["0,0", "1,0"])
    @pytest.mark.parametrize(
        "flags",
        [["--exact"], ["--eps", "-1"], ["--exact", "--accuracy", "nan"]],
        ids=["exact-without-accuracy", "negative-eps", "nan-accuracy"],
    )
    def test_flags_are_checked_before_the_zero_transfer_shortcut(
        self, tmp_path, x1, flags
    ):
        code, out, err = run_cli(["reach", diag_system(tmp_path), "--x1", x1, *flags])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_vector_from_file(self, tmp_path):
        vec_path = write_json(tmp_path / "x1.json", [1.0, 1.0])
        code, out, _ = run_cli(
            ["reach", diag_system(tmp_path), "--x1", f"@{vec_path}", "--eps", "1e-6"]
        )
        assert code == 0
        assert parse_report(out)["actuators"] == [1, 2]

    def test_weighted_system_target_in_output_space(self, tmp_path):
        path = write_system(
            tmp_path, "weighted.json", np.diag([1.0, 2.0]), w=[[1.0, 0.0]]
        )
        code, out, _ = run_cli(["reach", path, "--x1", "1,1", "--eps", "1e-6"])
        assert code == 0
        assert parse_report(out)["actuators"] == [1]

    def test_requires_exactly_one_mode(self, tmp_path):
        path = diag_system(tmp_path)
        both = run_cli(
            ["reach", path, "--x1", "1,1", "--eps", "1e-6", "--exact"]
        )
        neither = run_cli(["reach", path, "--x1", "1,1"])
        assert both[0] == 2
        assert neither[0] == 2

    def test_exact_requires_accuracy(self, tmp_path):
        code, _, err = run_cli(
            ["reach", diag_system(tmp_path), "--x1", "1,1", "--exact"]
        )
        assert code == 2
        assert "--accuracy" in err

    def test_wrong_length_vector(self, tmp_path):
        code, _, _ = run_cli(
            ["reach", diag_system(tmp_path), "--x1", "1,1,1", "--eps", "1e-6"]
        )
        assert code == 2

    def test_numerical_infeasibility_exit_code(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalInfeasibilityError("stuck", residual_sq=0.5)

        monkeypatch.setattr("minreach.cli.greedy_eps", fail)
        code, _, err = run_cli(
            ["reach", diag_system(tmp_path), "--x1", "1,1", "--eps", "1e-6"]
        )
        assert code == 3
        assert "stuck" in err

    def test_overflowing_window_names_it(self, tmp_path):
        # exp(A * 2000) overflows float64 for this digraph (spectral
        # abscissa about 2.7). Run as a process so stderr is the real one.
        path = tmp_path / "er.json"
        assert run_cli(["gen", "er", "30", "1", "--out", str(path)])[0] == 0
        ones = ",".join(["1"] * 30)
        argv = ["reach", str(path), "--x0", ones, "--x1", ones]
        env = dict(os.environ, PYTHONPATH=str(Path(minreach.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "minreach.cli", *argv, "--t1", "2000", "--eps", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "[0.0, 2000.0]" in proc.stderr
        assert "exp(A (t1 - t0))" in proc.stderr
        assert "overflow" in proc.stderr

    def test_transfer_from_the_origin_ignores_an_overflowing_window(self, tmp_path):
        # From x0 = 0 the transfer vector is x1 whatever exp(A * 2000) is.
        path = tmp_path / "er.json"
        assert run_cli(["gen", "er", "30", "1", "--out", str(path)])[0] == 0
        ones = ",".join(["1"] * 30)
        argv = ["reach", str(path), "--x1", ones, "--t1", "2000", "--eps", "1"]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        _, short, _ = run_cli(["reach", str(path), "--x1", ones, "--eps", "1"])
        report, expected = parse_report(out), parse_report(short)
        del report["wall_time_ms"], expected["wall_time_ms"]
        assert report == expected


class TestSubsetReach:
    def test_single_origin_ball(self, tmp_path):
        balls = write_json(
            tmp_path / "balls.json", [{"center": [0.0, 0.0], "radius_sq": 1e-6}]
        )
        code, out, _ = run_cli(["subset-reach", diag_system(tmp_path), balls])
        assert code == 0
        report = parse_report(out)
        assert report["actuators"] == []
        assert report["ball_index"] == 1

    def test_sparsest_ball_wins(self, tmp_path):
        balls = write_json(
            tmp_path / "balls.json",
            [
                {"center": [1.0, 1.0], "radius_sq": 1e-6},
                {"center": [1.0, 0.0], "radius_sq": 1e-6},
            ],
        )
        code, out, _ = run_cli(["subset-reach", diag_system(tmp_path), balls])
        assert code == 0
        report = parse_report(out)
        assert report["actuators"] == [1]
        assert report["ball_index"] == 2

    def test_duplicate_balls_smallest_index(self, tmp_path):
        ball = {"center": [1.0, 1.0], "radius_sq": 1e-6}
        balls = write_json(tmp_path / "balls.json", [ball, ball])
        code, out, _ = run_cli(["subset-reach", diag_system(tmp_path), balls])
        assert code == 0
        assert parse_report(out)["ball_index"] == 1

    def test_malformed_balls(self, tmp_path):
        empty = write_json(tmp_path / "empty.json", [])
        missing = write_json(tmp_path / "missing.json", [{"center": [1.0, 1.0]}])
        assert run_cli(["subset-reach", diag_system(tmp_path), empty])[0] == 2
        assert run_cli(["subset-reach", diag_system(tmp_path), missing])[0] == 2


class TestOracle:
    def test_star_center_single_actuator(self, tmp_path):
        code, out, _ = run_cli(
            [
                "oracle",
                star_system(tmp_path),
                "--x1",
                "1,0,0,0,0",
                "--eps",
                "1e-6",
                "--kmax",
                "5",
            ]
        )
        assert code == 0
        assert parse_report(out)["cardinality"] == 1

    def test_infeasible_within_cap(self, tmp_path):
        code, out, _ = run_cli(
            [
                "oracle",
                diag_system(tmp_path),
                "--x1",
                "1,1",
                "--eps",
                "1e-6",
                "--kmax",
                "1",
            ]
        )
        assert code == 4
        payload = parse_report(out)
        assert payload == {"epsilon_used": 1e-6, "infeasible": True, "k_max": 1}

    def test_zero_transfer_empty_set(self, tmp_path):
        code, out, _ = run_cli(
            ["oracle", diag_system(tmp_path), "--x1", "0,0", "--eps", "1e-6"]
        )
        assert code == 0
        assert parse_report(out)["actuators"] == []

    def test_capacity_exit(self, tmp_path):
        path = write_system(tmp_path, "big.json", np.eye(17))
        code, _, _ = run_cli(
            ["oracle", path, "--x1", ",".join(["1"] * 17), "--eps", "1e-6"]
        )
        assert code == 2


class TestReduceAndVerify:
    def instance_path(self, tmp_path, payload=None):
        payload = payload if payload is not None else {"m": 1, "sets": [[1]]}
        return write_json(tmp_path / "instance.json", payload)

    def test_reduce_writes_both_files(self, tmp_path):
        out_prefix = tmp_path / "built"
        code, out, _ = run_cli(
            [
                "reduce",
                self.instance_path(tmp_path),
                "--variant",
                "lemma1",
                "--out",
                str(out_prefix),
            ]
        )
        assert code == 0
        paths = parse_report(out)
        system = json.loads((tmp_path / "built.system.json").read_text())
        target = json.loads((tmp_path / "built.target.json").read_text())
        assert paths == {
            "system": str(out_prefix) + ".system.json",
            "target": str(out_prefix) + ".target.json",
        }
        assert system["n"] == 3
        assert target["kind"] == "state"
        assert len(target["chi"]) == 3

    def test_reduce_cone_target(self, tmp_path):
        instance = self.instance_path(tmp_path, {"m": 2, "sets": [[1, 2]]})
        code, _, _ = run_cli(
            ["reduce", instance, "--variant", "lemma3", "--out", str(tmp_path / "c")]
        )
        assert code == 0
        target = json.loads((tmp_path / "c.target.json").read_text())
        assert target == {"kind": "cone", "m": 2, "p": 1}

    def test_reduced_system_feeds_oracle(self, tmp_path):
        out_prefix = tmp_path / "chain"
        run_cli(
            [
                "reduce",
                self.instance_path(tmp_path),
                "--variant",
                "lemma1",
                "--out",
                str(out_prefix),
            ]
        )
        target = json.loads((tmp_path / "chain.target.json").read_text())
        chi = ",".join(str(x) for x in target["chi"])
        code, out, _ = run_cli(
            [
                "oracle",
                str(tmp_path / "chain.system.json"),
                "--x1",
                chi,
                "--eps",
                "1e-8",
            ]
        )
        assert code == 0
        assert parse_report(out)["cardinality"] == 2

    def test_verify_pass(self, tmp_path):
        code, out, _ = run_cli(
            ["verify", self.instance_path(tmp_path), "--variant", "lemma1"]
        )
        assert code == 0
        report = parse_report(out)
        assert report["hitting_set_size"] == 1
        assert report["reach_min_size"] == 2
        assert report["passed"] is True

    def test_verify_lemma3_disjoint(self, tmp_path):
        instance = self.instance_path(
            tmp_path, {"m": 3, "sets": [[1], [2], [3]]}
        )
        code, out, _ = run_cli(["verify", instance, "--variant", "lemma3"])
        assert code == 0
        report = parse_report(out)
        assert report["hitting_set_size"] == 3
        assert report["reach_min_size"] == 3

    def test_verify_failure_exit_code(self, tmp_path, monkeypatch):
        from minreach import ReductionReport

        def fake(instance, variant, k_max=None):
            return ReductionReport(
                variant=variant,
                hitting_set_size=1,
                reach_min_size=3,
                expected_size=2,
                controllable_at_optimum=True,
                passed=False,
            )

        monkeypatch.setattr("minreach.cli.verify_reduction", fake)
        code, out, _ = run_cli(
            ["verify", self.instance_path(tmp_path), "--variant", "lemma1"]
        )
        assert code == 5
        assert parse_report(out)["passed"] is False

    def test_invalid_instance_exit(self, tmp_path):
        bad = self.instance_path(tmp_path, {"m": 2, "sets": [[1], []]})
        assert run_cli(["verify", bad, "--variant", "lemma1"])[0] == 2
        assert (
            run_cli(
                ["reduce", bad, "--variant", "lemma1", "--out", str(tmp_path / "x")]
            )[0]
            == 2
        )


class TestInputHandling:
    def test_missing_file(self, tmp_path):
        code, _, err = run_cli(
            ["reach", str(tmp_path / "nope.json"), "--x1", "1", "--eps", "1"]
        )
        assert code == 2
        assert "error" in err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, _ = run_cli(["reach", str(path), "--x1", "1", "--eps", "1"])
        assert code == 2

    def test_system_shape_mismatch(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"n": 3, "a": [[1.0]]})
        code, _, _ = run_cli(["reach", str(path), "--x1", "1,1,1", "--eps", "1"])
        assert code == 2

    def test_system_missing_fields(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"a": [[1.0]]})
        code, _, _ = run_cli(["reach", str(path), "--x1", "1", "--eps", "1"])
        assert code == 2

    def test_unparseable_vector(self, tmp_path):
        code, _, _ = run_cli(
            ["reach", diag_system(tmp_path), "--x1", "1,zebra", "--eps", "1"]
        )
        assert code == 2

    def test_bad_time_window(self, tmp_path):
        code, _, _ = run_cli(
            [
                "reach",
                diag_system(tmp_path),
                "--x1",
                "1,1",
                "--eps",
                "1",
                "--t0",
                "2",
                "--t1",
                "1",
            ]
        )
        assert code == 2


#: Input files with a malformed scalar, by the subcommand that reads them.
MALFORMED_SCALARS = {
    "system-n-text": ("system", {"n": "x", "a": [[1.0, 0.0], [0.0, 2.0]]}),
    "ball-radius-text": ("balls", [{"center": [1.0, 1.0], "radius_sq": "abc"}]),
    "ball-radius-null": ("balls", [{"center": [1.0, 1.0], "radius_sq": None}]),
    "instance-m-text": ("instance", {"m": "x", "sets": [[1]]}),
    "instance-member-text": ("instance", {"m": 1, "sets": [["a"]]}),
    "instance-set-not-a-list": ("instance", {"m": 2, "sets": [1, 2]}),
}


@pytest.mark.parametrize("case", list(MALFORMED_SCALARS))
def test_malformed_scalar_in_an_input_file_exits_2(tmp_path, case):
    # Run as a process so that an uncaught exception shows as a traceback.
    kind, payload = MALFORMED_SCALARS[case]
    path = write_json(tmp_path / f"{kind}.json", payload)
    argv = {
        "system": ["reach", path, "--x1", "1,1", "--eps", "1"],
        "balls": ["subset-reach", diag_system(tmp_path), path],
        "instance": ["verify", path, "--variant", "lemma1"],
    }[kind]
    env = dict(os.environ, PYTHONPATH=str(Path(minreach.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "minreach.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


#: Input files whose integer fields hold a number with a fraction, and a
#: command that reads each; int() would truncate every one of them to 1.
NON_INTEGRAL = {
    "system-n": (
        {"n": 1.9, "a": [[1.0]]},
        ["reach", "{path}", "--x1", "1", "--eps", "1"],
    ),
    "instance-m-and-member": (
        {"m": 1.5, "sets": [[1.7]]},
        ["verify", "{path}", "--variant", "lemma1"],
    ),
}


@pytest.mark.parametrize("case", list(NON_INTEGRAL))
def test_non_integral_number_in_an_integer_field_exits_2(tmp_path, case):
    payload, argv = NON_INTEGRAL[case]
    path = write_json(tmp_path / "input.json", payload)
    code, out, err = run_cli([arg.format(path=path) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


#: Input files whose integer fields hold a JSON boolean; True == 1, so a
#: check that only compares with int() would take each of them as 1.
BOOLEAN = {
    "system-n": (
        {"n": True, "a": [[1.0]]},
        ["reach", "{path}", "--x1", "1", "--eps", "1"],
    ),
    "instance-m-and-member": (
        {"m": True, "sets": [[True]]},
        ["verify", "{path}", "--variant", "lemma1"],
    ),
}


@pytest.mark.parametrize("case", list(BOOLEAN))
def test_boolean_in_an_integer_field_exits_2(tmp_path, case):
    payload, argv = BOOLEAN[case]
    path = write_json(tmp_path / "input.json", payload)
    code, out, err = run_cli([arg.format(path=path) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


class TestParserReuse:
    def test_calls_in_one_process_match_first_calls(self, tmp_path):
        # The parser is built once per process; a parse error must leave it
        # as it was for the calls after it.
        system = diag_system(tmp_path)
        calls = [
            ["gen", "star", "3", "--out", str(tmp_path / "star.json")],
            ["oracle", system, "--x1", "1,1", "--eps", "0", "--kmax", "1"],
            ["reach", system, "--x1", "1,1", "--eps", "1", "--bogus"],
            ["oracle", system, "--x1", "1,0", "--eps", "0", "--kmax", "0"],
            ["reach", system, "--x1", "1", "--eps", "1"],
            ["verify"],
            ["gen", "er", "4", "7", "--out", str(tmp_path / "er.json")],
        ]

        def outcome(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        first = []
        for argv in calls:
            cli._build_parser.cache_clear()
            first.append(outcome(argv))
        assert [code for code, _, _ in first] == [0, 4, 2, 4, 2, 2, 0]
        assert [outcome(argv) for argv in calls] == first
