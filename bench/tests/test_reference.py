"""Tests of the reference routines and answer checks on hand-derivable cases.

The main case is README's star network: a hub (state 1) integrating four
leaves, every state decaying at unit rate. Actuating leaf i reaches e_i and
the hub, so the target x1 = (0, 1, 1, 0, 0) needs leaves 2 and 3, and the
greedy residuals run 2 -> 1 -> 0.

    python3 -m pytest bench/tests -q
"""

import json
import math

import numpy as np
import pytest

import checks
import reference

STAR = -np.eye(5)
STAR[0, 1:] = 1.0
X1 = [0.0, 1.0, 1.0, 0.0, 0.0]
V = np.array(X1)


def test_star_closures_and_residuals():
    assert reference.support(STAR, 2) == [0, 1]
    assert reference.closure_basis(STAR, 2).shape[1] == 2
    assert reference.closure_basis(STAR, 1).shape[1] == 1
    bases = [reference.reachable_basis(STAR, s) for s in ([], [2], [2, 3])]
    trace = [reference.residual_sq(q, V) for q in bases]
    assert trace == pytest.approx([2.0, 1.0, 0.0], abs=1e-12)
    assert reference.reachable_basis(STAR, [1, 2, 3, 4, 5]).shape[1] == 5


def test_output_space_span():
    w = np.eye(5)[:2]
    assert reference.reachable_basis(STAR, [3], w).shape[1] == 1
    assert reference.reachable_basis(STAR, [2], w).shape[1] == 2


def test_transfer_vector_matches_expm_of_decay():
    a = -np.eye(2)
    v = reference.transfer_vector(a, [1.0, 2.0], [0.0, 0.0], t1=2.0)
    assert v == pytest.approx([-math.exp(-2.0), -2.0 * math.exp(-2.0)])


def test_block_diagonal_closure_stays_in_its_block():
    a = np.zeros((5, 5))
    a[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    a[2:, 2:] = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    assert reference.support(a, 1) == [0, 1]
    q = reference.reachable_basis(a, [1])
    assert np.all(q[2:] == 0.0)
    assert reference.residual_sq(q, np.ones(5)) == pytest.approx(3.0)


def test_block_lower_bound():
    v = np.array([1.0, 0.0, 0.0, 0.0, 0.1])
    assert reference.block_lower_bound([2, 3], v, 0.05) == 1
    assert reference.block_lower_bound([2, 3], v, 0.001) == 2
    assert reference.block_lower_bound([2, 3], v, 2.0) == 0
    with pytest.raises(ValueError):
        reference.block_lower_bound([2, 2], v, 0.1)


def test_subset_enumeration_and_first_feasible():
    order = [combo for combo, _ in reference.subset_residuals(STAR, V, k_max=2)]
    assert order[:7] == [(), (1,), (2,), (3,), (4,), (5,), (1, 2)]
    assert len(order) == 1 + 5 + 10
    first, ambiguous = reference.first_feasible(STAR, V, 1e-8)
    assert first == (2, 3) and not ambiguous
    assert reference.first_feasible(STAR, V, 1.5)[0] == (2,)


def test_epsilon_a_of_star():
    # Sets holding exactly one of leaves 2 and 3 become feasible by adding
    # the other; each leaves the missing unit component, residual 1.
    value, ambiguous = reference.epsilon_a(STAR, V)
    assert value == pytest.approx(1.0) and not ambiguous
    # A target in the hub's closure is reached by every set holding any
    # state, so only the empty set is one step from feasible.
    hub = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert reference.epsilon_a(STAR, hub)[0] == pytest.approx(1.0)
    assert reference.epsilon_a(np.zeros((1, 1)), np.array([2.0]))[0] == pytest.approx(4.0)


def test_min_hitting_set_size():
    assert reference.min_hitting_set_size(3, [[1, 2], [2, 3]]) == 1
    assert reference.min_hitting_set_size(3, [[1], [2], [3]]) == 3
    assert reference.min_hitting_set_size(4, [[1, 2], [3, 4], [2, 3]]) == 2


def test_ambiguity_band():
    assert reference.in_band(1.0e-8, 1e-8)
    assert not reference.in_band(3.0e-8, 1e-8)


# --- checks against deliberately corrupted reports -----------------------


@pytest.fixture
def star_inputs(tmp_path):
    (tmp_path / "star.json").write_text(json.dumps({"n": 5, "a": STAR.tolist()}))
    (tmp_path / "x1.json").write_text(json.dumps(X1))
    (tmp_path / "hs.json").write_text(json.dumps({"m": 3, "sets": [[1, 2], [2, 3]]}))
    return checks.Inputs(tmp_path)


def eps_case(actuators, residuals, picks=None):
    picks = actuators if picks is None else picks
    rows = ["iteration,chosen_index,residual_sq", f"0,0,{residuals[0]!r}"]
    rows += [f"{k},{i},{r!r}" for k, (i, r) in enumerate(zip(picks, residuals[1:]), start=1)]
    report = {"actuators": actuators, "cardinality": len(actuators), "iterations": len(picks),
              "residual_sq": residuals[-1], "epsilon_used": 0.5}
    return report, "\r\n".join(rows) + "\r\n"


EPS_EXPECT = {"system": "star.json", "x1": "x1.json", "x0": None, "eps": 0.5, "blocks": [5]}


def test_eps_check_accepts_the_readme_answer(star_inputs):
    report, csv_text = eps_case([2, 3], [2.0, 1.0, 0.0])
    assert checks.check_eps(star_inputs, EPS_EXPECT, report, csv_text) == "ok"


def test_eps_check_rejects_a_dropped_actuator(star_inputs):
    report, csv_text = eps_case([2], [2.0, 0.0], picks=[2])
    with pytest.raises(checks.CheckError, match="reference residual"):
        checks.check_eps(star_inputs, EPS_EXPECT, report, csv_text)


def test_eps_check_rejects_a_residual_above_eps(star_inputs):
    report, csv_text = eps_case([2], [2.0, 1.0], picks=[2])
    with pytest.raises(checks.CheckError, match="> eps"):
        checks.check_eps(star_inputs, EPS_EXPECT, report, csv_text)


def test_eps_check_rejects_a_trace_that_runs_past_eps(star_inputs):
    report, csv_text = eps_case([2, 3, 4], [2.0, 1.0, 0.25, 0.0], picks=[2, 3, 4])
    with pytest.raises(checks.CheckError):
        checks.check_eps(star_inputs, EPS_EXPECT, report, csv_text)


EXACT_EXPECT = {"system": "star.json", "x1": X1, "x0": None, "actuators": [2, 3]}


def exact_report(actuators, residual_sq=0.0):
    return {"actuators": actuators, "cardinality": len(actuators), "residual_sq": residual_sq}


def test_exact_check(star_inputs):
    assert checks.check_exact(star_inputs, EXACT_EXPECT, exact_report([2, 3])) == "ok"
    free = {k: v for k, v in EXACT_EXPECT.items() if k != "actuators"}
    with pytest.raises(checks.CheckError, match="leave squared residual"):
        checks.check_exact(star_inputs, free, exact_report([2], 0.0))
    with pytest.raises(checks.CheckError, match="expected"):
        checks.check_exact(star_inputs, EXACT_EXPECT, exact_report([2, 3, 4]))
    with pytest.raises(checks.CheckError, match="reported residual"):
        checks.check_exact(star_inputs, EXACT_EXPECT, exact_report([2, 3], 0.5))


def test_exact_check_skips_the_ambiguity_band(star_inputs):
    # A component c on leaf 5, which leaves 2 and 3 do not reach, with
    # c^2 = EXACT_TOL * ||v||^2: the verdict hinges on rounding.
    x1 = [0.0, 1.0, 1.0, 0.0, math.sqrt(1e-8 * 2.0 / (1.0 - 1e-8))]
    expect = {"system": "star.json", "x1": x1, "x0": None}
    assert checks.check_exact(star_inputs, expect, exact_report([2, 3])) == "ambiguous"


def test_oracle_check(star_inputs):
    expect = {"system": "star.json", "x1": "x1.json", "x0": None, "eps": 1e-8}
    assert checks.check_oracle(star_inputs, expect, exact_report([2, 3])) == "ok"
    with pytest.raises(checks.CheckError, match="first feasible"):
        checks.check_oracle(star_inputs, expect, exact_report([1, 2, 3]))
    with pytest.raises(checks.CheckError, match="first feasible"):
        checks.check_oracle(star_inputs, expect, exact_report([2]))


def test_verify_check(star_inputs):
    report = {"variant": "lemma1", "hitting_set_size": 1, "reach_min_size": 2, "expected_size": 2,
              "controllable_at_optimum": True, "passed": True}
    expect = {"instance": "hs.json", "variant": "lemma1"}
    assert checks.check_verify(star_inputs, expect, report) == "ok"
    with pytest.raises(checks.CheckError, match="reach_min_size"):
        checks.check_verify(star_inputs, expect, dict(report, reach_min_size=3, expected_size=3))
    with pytest.raises(checks.CheckError, match="hitting_set_size"):
        checks.check_verify(star_inputs, expect, dict(report, hitting_set_size=2))


def test_epsilon_a_check(star_inputs):
    expect = {"system": "star.json", "v": X1}
    assert checks.check_epsilon_a(star_inputs, expect, {"epsilon_a": 1.0}) == "ok"
    with pytest.raises(checks.CheckError):
        checks.check_epsilon_a(star_inputs, expect, {"epsilon_a": 2.0})


def test_subset_check(star_inputs, tmp_path):
    balls = [{"center": [0.0, 1.0, 1.0, 0.0, 0.0], "radius_sq": 0.5},
             {"center": [0.0, 3.0, 0.0, 0.0, 0.0], "radius_sq": 0.5}]
    (tmp_path / "balls.json").write_text(json.dumps(balls))
    expect = {"system": "star.json", "balls": "balls.json"}
    report = {"actuators": [2], "cardinality": 1, "ball_index": 2, "residual_sq": 0.0,
              "epsilon_used": 0.5}
    assert checks.check_subset(star_inputs, expect, report) == "ok"
    with pytest.raises(checks.CheckError, match="from the span"):
        checks.check_subset(star_inputs, expect, dict(report, ball_index=1, residual_sq=1.0))
    with pytest.raises(checks.CheckError, match="epsilon_used"):
        checks.check_subset(star_inputs, expect, dict(report, epsilon_used=0.25))
