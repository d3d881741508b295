"""Tests of the benchmark itself: inputs, references, checks and the command.

    python3 -m pytest perfbench/tests -q

The references are tested on hand-solvable cases, every check is shown to
catch a planted wrong answer, and every workload runs end to end on a small
seed with zero failed operations.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import instances  # noqa: E402
import refs  # noqa: E402
import worker  # noqa: E402

import pairnorm as pn  # noqa: E402

SEEDS = (0, 1, 2)


def _basis_dims(inp):
    d = instances.element_len(inp)
    return d, inp["basis"].shape[0], inp["targets"].shape[0]


@pytest.mark.parametrize("workload", ["euclid-solve", "white-solve", "cli"])
def test_generated_problems_are_valid(workload):
    for seed in SEEDS:
        for index, (kind, _) in enumerate(instances.MIXES[workload]):
            inp = instances.op_input(workload, seed, 0, index)
            if "targets" not in inp or kind == "blend":
                continue
            d, k, m = _basis_dims(inp)
            assert k + m < d
            spanned = np.vstack([inp["targets"], inp["basis"]])
            r0 = np.linalg.matrix_rank(spanned)
            assert np.linalg.matrix_rank(np.vstack([spanned, inp["b"]])) == r0 + 1
            assert np.linalg.matrix_rank(inp["basis"]) == k


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a = instances.op_input("euclid-solve", 5, 1, 2)
    b = instances.op_input("euclid-solve", 5, 1, 2)
    c = instances.op_input("euclid-solve", 6, 1, 2)
    assert np.array_equal(a["targets"], b["targets"])
    assert not np.array_equal(a["targets"], c["targets"])
    # cli rounds come in pairs over the same files
    assert np.array_equal(instances.op_input("cli", 5, 2, 5)["targets"],
                          instances.op_input("cli", 5, 3, 5)["targets"])


def test_run_length_fixes_the_number_of_rounds():
    for workload in instances.MIXES:
        assert instances.rounds(workload, 0.01) == (2 if workload == "cli" else 1)
        n = instances.rounds(workload, 60.0)
        assert n >= 2 and abs(n * instances.ROUND_S[workload] - 60.0) <= 2 * instances.ROUND_S[workload]
    assert instances.rounds("cli", 20.0) % 2 == 0


def test_gram_pb_matches_hand_values():
    b = np.array([0.0, 0.0, 2.0])
    assert refs.gram_pb([[3.0, 4.0, 7.0]], b)[0] == pytest.approx(10.0)
    assert refs.gram_pb([[0.0, 0.0, 5.0]], b)[0] == pytest.approx(0.0, abs=1e-12)


def test_white_map_matches_definition_by_hand():
    # f = 1 + t, b = t^2 at t = 0.5: f b' - f' b = 1.5 * 1 - 1 * 0.25 = 1.25
    W = refs.white_map([0.5], np.array([0.0, 0.0, 1.0]))
    assert abs(W @ np.array([1.0, 1.0, 0.0]))[0] == pytest.approx(1.25)


def test_euclid_reference_midpoint_law():
    rng = np.random.default_rng(0)
    for _ in range(5):
        B = rng.standard_normal((2, 6))
        c, v, b = rng.standard_normal(2) @ B, rng.standard_normal(6), rng.standard_normal(6)
        opt = refs.euclid_optimum(np.array([c + v, c - v]), B, b)
        half = 0.5 * refs.gram_pb([2 * v], b)[0]
        assert opt["lower"] == pytest.approx(half, rel=1e-12)
        assert opt["upper"] == pytest.approx(half, rel=1e-12)


def test_white_reference_midpoint_law():
    rng = np.random.default_rng(1)
    pts = instances.white_points(rng, 4)
    B = rng.standard_normal((1, 5))
    c, v, b = rng.standard_normal(1) @ B, rng.standard_normal(5), rng.standard_normal(5)
    opt = refs.white_optimum(np.array([c + v, c - v]), B, b, pts)
    assert opt["value"] == pytest.approx(0.5 * refs.white_pb([2 * v], b, pts)[0], rel=1e-9)


def test_euclid_reference_single_target_closed_form():
    rng = np.random.default_rng(2)
    for k in (0, 1, 3):
        x0, B, b = rng.standard_normal(7), rng.standard_normal((k, 7)), rng.standard_normal(7)
        opt = refs.euclid_optimum(x0[None, :], B, b)
        assert opt["lower"] == pytest.approx(refs.euclid_distance(x0, B, b), rel=1e-12)


def test_euclid_dual_bound_is_below_every_candidate():
    inp = instances.op_input("euclid-solve", 3, 0, 4)
    opt = refs.euclid_optimum(inp["targets"], inp["basis"], inp["b"])
    rng = np.random.default_rng(3)
    for c in rng.standard_normal((200, inp["basis"].shape[0])):
        g = opt["coeffs"] @ inp["basis"] + 0.1 * (c @ inp["basis"])
        assert refs.euclid_objective(inp["targets"], g, inp["b"]) >= opt["lower"] * (1 - 1e-12)
    assert opt["upper"] == pytest.approx(opt["lower"], rel=1e-12)


# ---------------------------------------------------------------------------
# every check catches a planted wrong answer


def _op(workload, index, seed=0):
    kind = instances.MIXES[workload][index][0]
    inp = instances.op_input(workload, seed, 0, index)
    return kind, inp, checks.reference(kind, inp)


def _index(workload, kind, start=0):
    return next(i for i, (k, _) in enumerate(instances.MIXES[workload]) if k == kind and i >= start)


def _correct_solve_output(inp, ref):
    opt = refs.euclid_optimum(inp["targets"], inp["basis"], inp["b"])
    g = opt["coeffs"] @ inp["basis"]
    return {"value": refs.euclid_objective(inp["targets"], g, inp["b"]), "g_star": g,
            "converged": True, "restart_values": [ref["lower"]], "iterations": 1}


def test_solve_check_catches_planted_errors():
    kind, inp, ref = _op("euclid-solve", 2)
    good = _correct_solve_output(inp, ref)
    assert checks.check(kind, inp, good, ref) == []
    d = inp["targets"].shape[1]
    moved = dict(good, g_star=good["g_star"] + 1e-3 * inp["basis"][0])
    assert checks.check(kind, inp, moved, ref)  # value no longer matches g_star
    off_span = dict(good, g_star=good["g_star"] + 1e-6 * np.eye(d)[0])
    assert any("span" in e for e in checks.check(kind, inp, off_span, ref))
    assert checks.check(kind, inp, dict(good, value=good["value"] * (1 + 1e-5)), ref)
    assert checks.check(kind, inp, dict(good, value=good["value"] * (1 - 1e-5)), ref)
    assert checks.check(kind, inp, dict(good, converged=False), ref)


def test_solve_check_accepts_pairnorm_and_rejects_an_inflated_value():
    kind, inp, ref = _op("euclid-solve", 1)
    out = worker.run_op(pn, kind, inp)
    assert checks.check(kind, inp, out, ref) == []
    assert checks.check(kind, inp, dict(out, value=out["value"] + 1e-3), ref)


def test_white_checks_catch_values_off_the_lp_optimum():
    kind, inp, ref = _op("white-solve", _index("white-solve", "distance"))
    assert checks.check(kind, inp, {"value": ref["value"]}, ref) == []
    assert checks.check(kind, inp, {"value": ref["value"] * (1 + 1e-5)}, ref)
    assert checks.check(kind, inp, {"value": ref["value"] * (1 - 1e-5)}, ref)


def test_uniqueness_check_catches_two_optimizers():
    kind, inp, ref = _op("euclid-solve", _index("euclid-solve", "uniqueness"))
    good = {"distinct_optimizers": 1, "values": [ref["lower"]] * 16}
    assert checks.check(kind, inp, good, ref) == []
    assert checks.check(kind, inp, dict(good, distinct_optimizers=2), ref)


def test_axiom_check_catches_a_corrupted_norm():
    i = _index("sweeps", "check_axioms_corrupted")
    kind, inp, ref = _op("sweeps", i)
    out = worker.run_op(pn, kind, inp)
    assert not out["passed"] and checks.check(kind, inp, out, ref) == []
    # the same corrupted norm slipping through would be reported
    assert checks.check(kind, inp, {"passed": True, "violations": 0}, ref)
    assert checks.check("check_axioms", inp, {"passed": False, "violations": 3}, ref)


def test_cauchy_check_catches_wrong_and_increasing_sups():
    kind, inp, ref = _op("sweeps", _index("sweeps", "cauchy_profile"))
    good = {"sups": list(ref["sups"])}
    assert checks.check(kind, inp, good, ref) == []
    t, y, z = good["sups"][0]
    assert checks.check(kind, inp, {"sups": [(t, y * 1.01, z)] + good["sups"][1:]}, ref)
    rising = [good["sups"][0], (good["sups"][1][0], y * 2, z * 2), good["sups"][2]]
    assert any("increased" in e for e in checks.check(kind, inp, {"sups": rising}, ref))


def test_sequence_checks_catch_wrong_series():
    kind, inp, ref = _op("sweeps", _index("sweeps", "norm_limit_check"))
    out = worker.run_op(pn, kind, inp)
    assert checks.check(kind, inp, out, ref) == []
    bad = out["deviations"].copy()
    bad[3] += 1e-3
    assert checks.check(kind, inp, dict(out, deviations=bad), ref)
    assert checks.check(kind, inp, dict(out, passed=False), ref)
    kind, inp, ref = _op("sweeps", _index("sweeps", "convergence_profile"))
    out = worker.run_op(pn, kind, inp)
    assert checks.check(kind, inp, out, ref) == []
    assert checks.check(kind, inp, dict(out, blind_spot=[True] * len(out["series"])), ref)


def test_certificate_check_catches_a_wrong_delta():
    kind, inp, ref = _op("sweeps", _index("sweeps", "certificate"))
    good = {"delta": ref["delta"], "soundness_passed": True}
    assert checks.check(kind, inp, good, ref) == []
    assert checks.check(kind, inp, dict(good, delta=ref["delta"] * 1.001), ref)
    assert checks.check(kind, inp, dict(good, soundness_passed=False), ref)


def test_blend_and_objective_checks_catch_errors():
    kind, inp, ref = _op("sweeps", _index("sweeps", "blend_check"))
    out = worker.run_op(pn, kind, inp)
    assert out["passed"] and checks.check(kind, inp, out, ref) == []
    assert checks.check(kind, inp, dict(out, passed=False), ref)
    assert checks.check(kind, inp, dict(out, value_g1=out["value_g1"] + 1e-6), ref)
    kind, inp, ref = _op("sweeps", _index("sweeps", "objective"))
    out = worker.run_op(pn, kind, inp)
    assert checks.check(kind, inp, out, ref) == []
    assert checks.check(kind, inp, {"values": out["values"] * (1 + 1e-6)}, ref)


def test_oracle_check_catches_values_outside_its_bounds():
    kind, inp, ref = _op("sweeps", _index("sweeps", "oracle_solve"))
    out = worker.run_op(pn, kind, inp)
    assert checks.check(kind, inp, out, ref) == []
    assert checks.check(kind, inp, dict(out, value=ref["lower"] * 0.99), ref)
    assert checks.check(kind, inp, dict(out, value=ref["upper"] * 1.01), ref)


# ---------------------------------------------------------------------------
# the command


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["euclid-solve", "white-solve", "sweeps", "cli"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_clean(workload, trace):
    proc = _run(["--workload", workload, "--seed", "11", "--seconds", "0.01",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == len(instances.MIXES[workload]) * (2 if workload == "cli" else 1)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for line, m in zip(proc.stdout.splitlines()[-1 - len(wanted):-1], wanted):
        assert line.split()[0] == m["name"] and line.split()[-1] == m["unit"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "sweeps", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
