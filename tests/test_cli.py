"""End-to-end command line tests; reports must be JSON on every exit path."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pairnorm import (
    EuclideanGram,
    SequencePrefix,
    SolverConfig,
    certificate,
    certificate_soundness,
    check_axioms,
    cli,
    convergence_profile,
    norm_limit_check,
    shift_identity_check,
)
import pairnorm.jsonio as jsonio
import pairnorm.spaces as spaces
from pairnorm.jsonio import dumps, space_from_dict, to_dict

SPACE = {"kind": "euclidean_gram", "dim": 3}

SYMMETRIC_PROBLEM = {
    "space": SPACE,
    "targets": [[1, 0, 0], [-1, 0, 0]],
    "g_basis": [[1, 0, 0]],
    "b": [0, 0, 1],
    "solver": {"max_iters": 500},
}

# a White problem whose solve needs more than five pivots
WHITE_PIVOTS_PROBLEM = {
    "space": {"kind": "white_polynomial", "degree": 3, "points": [0, 0.2, 0.4, 0.6, 0.8, 1]},
    "targets": [[3.2, 3.5, -0.3, 0.1], [2.8, 3.1, 0.4, -0.2]],
    "g_basis": [[1, 1, 0, 0]],
    "b": [0, 0, 0.4, 1],
}

# three targets on the unit circle: the optimum needs two pivots
CIRCLE_PROBLEM = {
    "space": SPACE,
    "targets": [[1, 0, 0], [-0.5, 3**0.5 / 2, 0], [-0.5, -(3**0.5) / 2, 0]],
    "g_basis": [[1, 0, 0], [0, 1, 0]],
    "b": [0, 0, 1],
}

POINT_PROBLEM = {
    "space": SPACE,
    "targets": [[1, 1, 0]],
    "g_basis": [[1, 0, 0]],
    "b": [0, 0, 1],
}

SEQUENCE = {
    "space": SPACE,
    "elements": [[1.0 / n, 0, 0] for n in range(1, 13)],
    "probes": {"y": [0, 1, 0], "z": [0, 0, 1]},
    "limit": [0, 0, 0],
    "probe_dirs": [[0, 1, 0], [1, 0, 0]],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_check_axioms_clean(tmp_path, capsys):
    path = write(tmp_path, "space.json", SPACE)
    code, out, _ = run_cli(capsys, "check-axioms", path, "--samples", "1000", "--seed", "7")
    assert code == 0
    assert out["passed"] is True
    assert out["violations"] == []
    assert out["samples"] == 1000
    assert out["seed"] == 7


def test_check_axioms_reports_violations(tmp_path, capsys):
    path = write(tmp_path, "space.json", SPACE)
    code, out, err = run_cli(capsys, "check-axioms", path, "--samples", "100", "--tol", "1e-20")
    assert code == 3
    assert out["passed"] is False
    assert len(out["violations"]) >= 1
    assert "violation" in err


def test_solve_symmetric_example(tmp_path, capsys):
    path = write(tmp_path, "problem.json", SYMMETRIC_PROBLEM)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    assert abs(out["value"] - 1.0) <= 1e-6
    assert max(abs(c) for c in out["g_star"]) <= 1e-5
    assert out["converged"] is True
    # the engine's one run, and the two solver options it read
    assert [list(r) for r in out["per_restart"]] == [["value", "iterations", "converged"]]
    assert out["solver"] == {"max_iters": 500, "tol": 1e-6}


def test_solve_missing_file(capsys):
    code, out, _ = run_cli(capsys, "solve", "/no/such/file.json")
    assert code == 1
    assert "error" in out


def test_solve_flag_overrides(tmp_path, capsys):
    payload = {**SYMMETRIC_PROBLEM, "solver": {**SYMMETRIC_PROBLEM["solver"], "tol": 1e-3}}
    path = write(tmp_path, "problem.json", payload)
    code, out, _ = run_cli(capsys, "solve", path, "--tol", "1e-8", "--max-iters", "7")
    assert code == 0
    assert out["solver"] == {"max_iters": 7, "tol": 1e-8}
    # a flag left unset keeps the file's value, and a key the file leaves out its default
    code, out, _ = run_cli(capsys, "solve", path, "--tol", "1e-8")
    assert code == 0
    assert out["solver"] == {"max_iters": 500, "tol": 1e-8}
    path = write(tmp_path, "defaults.json", {**SYMMETRIC_PROBLEM, "solver": {"tol": 1e-3}})
    code, out, _ = run_cli(capsys, "solve", path, "--max-iters", "7")
    assert code == 0
    assert out["solver"] == {"max_iters": 7, "tol": 1e-3}


# restarts, seed and step0 are read by no engine, so a file that sets one fails
# before any solve, step0 = 1e400 (which JSON reads as inf) included
@pytest.mark.parametrize("command", ["solve", "distance", "uniqueness"])
@pytest.mark.parametrize("key, text", [("restarts", "4"), ("seed", "0"), ("step0", "1e400")])
def test_retired_solver_keys_are_validation_errors(tmp_path, capsys, command, key, text):
    path = tmp_path / "point.json"
    body = json.dumps({**POINT_PROBLEM, "solver": {key: None}})
    path.write_text(body.replace(f'"{key}": null', f'"{key}": {text}'), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == {"error": {"field": f"solver.{key}", "message": "unknown solver option"}}
    assert "Traceback" not in err


# no engine reads a restart count or a seed, so no flag sets one
RETIRED_FLAGS = [
    (command, flag)
    for command in ("distance", "solve", "uniqueness")
    for flag in ("--restarts", "--seed")
]


@pytest.mark.parametrize("command, flag", RETIRED_FLAGS)
def test_retired_solver_flags_are_usage_errors(tmp_path, capsys, command, flag):
    path = write(tmp_path, "point.json", POINT_PROBLEM)
    code, out, err = run_cli(capsys, command, path, flag, "3")
    assert code == 1
    assert out == {"error": {"message": f"unrecognized arguments: {flag} 3"}}
    assert "Traceback" not in err


def test_cli_option_set():
    # every option of every subcommand: adding or removing one is a visible change
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    options = {
        name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert options == {
        "check-axioms": ["--samples", "--seed", "--tol"],
        "distance": ["--max-iters", "--tol"],
        "solve": ["--max-iters", "--oracle", "--radius", "--resolution", "--tol"],
        "certificate": ["--samples", "--seed"],
        "blend": ["--tol"],
        "uniqueness": [],
        "sequence": ["--tail-from"],
    }
    assert sum(map(len, options.values())) == 14


def test_solver_config_surface():
    # every solver knob: a new field or file key is a visible change
    names = [f.name for f in dataclasses.fields(SolverConfig)]
    assert names == ["max_iters", "tol"]
    assert list(jsonio._SOLVER_KEYS) == names


def test_solve_nonconvergence_exit(tmp_path, capsys):
    path = write(tmp_path, "problem.json", WHITE_PIVOTS_PROBLEM)
    code, out, err = run_cli(capsys, "solve", path, "--max-iters", "5")
    assert code == 2
    assert out["converged"] is False
    assert "converge" in err


def test_solve_pivot_budget_exit(tmp_path, capsys):
    path = write(tmp_path, "problem.json", CIRCLE_PROBLEM)
    code, out, err = run_cli(capsys, "solve", path, "--max-iters", "1")
    assert code == 2
    assert out["converged"] is False
    assert all(r["iterations"] == 1 for r in out["per_restart"])
    assert "converge" in err
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    assert abs(out["value"] - 1.0) <= 1e-12


def test_solve_with_oracle(tmp_path, capsys):
    path = write(tmp_path, "problem.json", SYMMETRIC_PROBLEM)
    code, out, _ = run_cli(
        capsys, "solve", path, "--oracle", "--radius", "2", "--resolution", "101"
    )
    assert code == 0
    assert abs(out["oracle"]["value"] - out["value"]) <= 1e-3
    assert out["oracle"]["resolution"] == 101


def test_distance_subcommand(tmp_path, capsys):
    path = write(tmp_path, "point.json", POINT_PROBLEM)
    code, out, _ = run_cli(capsys, "distance", path)
    assert code == 0
    assert abs(out["delta"] - 1.0) <= 1e-9
    assert out["w_star"] == [1.0, 0.0, 0.0]


def test_distance_nonconvergence_exit(tmp_path, capsys):
    payload = {
        "space": {"kind": "white_polynomial", "degree": 2, "points": [0, 0.3, 0.7, 1]},
        "targets": [[3.2, 3.5, -0.3]],
        "g_basis": [[1, 1, 0]],
        "b": [0, 0.4, 1],
        "solver": {"max_iters": 1},
    }
    path = write(tmp_path, "point.json", payload)
    code, out, err = run_cli(capsys, "distance", path)
    assert code == 2
    assert out["delta"] > 0.0
    assert len(out["w_star"]) == 3
    assert "converge" in err


def test_distance_requires_single_target(tmp_path, capsys):
    path = write(tmp_path, "problem.json", SYMMETRIC_PROBLEM)
    code, out, _ = run_cli(capsys, "distance", path)
    assert code == 1
    assert "error" in out


def test_certificate_subcommand(tmp_path, capsys):
    path = write(tmp_path, "point.json", POINT_PROBLEM)
    code, out, _ = run_cli(capsys, "certificate", path, "--samples", "300")
    assert code == 0
    assert abs(out["delta"] - 1.0) <= 1e-9
    assert out["soundness"]["passed"] is True
    assert out["soundness"]["samples"] == 300


def test_certificate_rejects_zero_distance(tmp_path, capsys):
    payload = dict(POINT_PROBLEM)
    payload["targets"] = [[0.5, 0, 0]]  # inside the subspace
    path = write(tmp_path, "point.json", payload)
    code, out, _ = run_cli(capsys, "certificate", path)
    assert code == 1
    assert "error" in out


def test_certificate_rejects_no_samples(tmp_path, capsys):
    path = write(tmp_path, "problem.json", POINT_PROBLEM)
    for samples in ("0", "-3"):
        code, out, _ = run_cli(capsys, "certificate", path, "--samples", samples)
        assert code == 1
        assert out == {"error": {"message": f"samples must be a positive integer, got {samples}"}}


def test_blend_subcommand(tmp_path, capsys):
    payload = dict(SYMMETRIC_PROBLEM)
    payload["blend"] = {"g1": [0, 0, 0], "g2": [0, 0, 0]}
    path = write(tmp_path, "blend.json", payload)
    code, out, _ = run_cli(capsys, "blend", path)
    assert code == 0
    assert out["passed"] is True
    assert len(out["entries"]) == 11


def test_blend_requires_section(tmp_path, capsys):
    path = write(tmp_path, "problem.json", SYMMETRIC_PROBLEM)
    code, out, _ = run_cli(capsys, "blend", path)
    assert code == 1
    assert out["error"]["field"] == "blend"


def test_blend_mismatched_endpoints(tmp_path, capsys):
    payload = dict(SYMMETRIC_PROBLEM)
    payload["blend"] = {"g1": [0, 0, 0], "g2": [0.9, 0, 0]}
    path = write(tmp_path, "blend.json", payload)
    code, out, _ = run_cli(capsys, "blend", path)
    assert code == 1
    assert "error" in out


def test_blend_nan_lambda_blames_lambdas(tmp_path, capsys):
    # JSON readers accept NaN, which fails both range comparisons; the error
    # names the lambdas, not the blended point g
    blend = {"g1": [0, 0, 0], "g2": [0, 0, 0], "lambdas": [math.nan]}
    payload = dict(SYMMETRIC_PROBLEM, blend=blend)
    path = tmp_path / "blend.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(capsys, "blend", str(path))
    assert code == 1
    assert out == {"error": {"message": "lambdas must lie in [0, 1]"}}
    assert "Traceback" not in err


# Every tol is positive and finite: inf did the work and then failed to
# print it, nan gave a wrong verdict (exit 3) and -1 blamed the endpoints.
@pytest.mark.parametrize(
    "command, tol",
    [("solve", "inf"), ("check-axioms", "inf"), ("blend", "nan"), ("blend", "-1")],
)
def test_tol_must_be_positive_and_finite(tmp_path, capsys, command, tol):
    payload = dict(SYMMETRIC_PROBLEM, blend={"g1": [0, 0, 0], "g2": [0, 0, 0]})
    path = write(tmp_path, "in.json", SPACE if command == "check-axioms" else payload)
    code, out, err = run_cli(capsys, command, path, "--tol", tol)
    assert code == 1
    assert out == {"error": {"message": f"tol must be positive, got {float(tol)!r}"}}
    assert "Traceback" not in err


# The grid oracle took inf - inf in its block bounds at radius 1e160 and
# returned g = -1e160 e1; at 1e308 and inf it blamed g.  Up to 1e150 it
# prints the optimum, g = 0.
@pytest.mark.parametrize("radius", ["1e160", "1e308", "inf"])
def test_oracle_radius_beyond_the_float_range(tmp_path, capsys, radius):
    payload = dict(POINT_PROBLEM, targets=[[1, 1, 0], [1, -1, 0]])
    path = write(tmp_path, "in.json", payload)
    code, out, err = run_cli(capsys, "solve", path, "--oracle", "--radius", radius)
    assert code == 1
    message = f"radius {float(radius)!r} is beyond 3.286e+153, the grid oracle's float range"
    assert out["error"]["message"] == message
    assert "Warning" not in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, "solve", path, "--oracle", "--radius", "1e150")
    assert code == 0
    assert out["oracle"]["value"] == 1.4142135623730951
    assert out["oracle"]["g"] == [0.0, 0.0, 0.0]


def test_uniqueness_subcommand(tmp_path, capsys):
    path = write(tmp_path, "problem.json", SYMMETRIC_PROBLEM)
    code, out, _ = run_cli(capsys, "uniqueness", path)
    assert code == 0
    assert out == {"distinct_optimizers": 1, "spread": 0.0, "values": [1.0]}


def test_sequence_subcommand(tmp_path, capsys):
    path = write(tmp_path, "seq.json", SEQUENCE)
    code, out, _ = run_cli(capsys, "sequence", path)
    assert code == 0
    assert out["cauchy"]["tail_from"] == 6
    assert out["norm_limit"]["passed"] is True
    probes = out["convergence"]
    assert probes[1]["blind_spot"] is True  # direction parallel to the sequence


def test_sequence_tail_flag(tmp_path, capsys):
    path = write(tmp_path, "seq.json", SEQUENCE)
    code, out, _ = run_cli(capsys, "sequence", path, "--tail-from", "10")
    assert code == 0
    assert out["cauchy"]["tail_from"] == 10


def test_sequence_two_element_prefix(tmp_path, capsys):
    # the default Cauchy tail keeps both elements; the convergence profile
    # keeps its own default, the second half
    payload = dict(SEQUENCE, elements=[[1.0, 0, 0], [0.5, 0, 0]])
    path = write(tmp_path, "seq.json", payload)
    code, out, _ = run_cli(capsys, "sequence", path)
    assert code == 0
    assert out["cauchy"] == {"sup_y": 0.5, "sup_z": 0.5, "tail_from": 0}
    assert out["convergence"][0]["tail_max"] == 0.5


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"probes": {"y": [0, 1, 0], "z": [0, 0, 1]}}, "element 0 and element 1 differ"),
        ({"limit": [-1e308, 0, 0], "probe_dirs": [[0, 1, 0]]}, "element 0 and the limit differ"),
    ],
)
def test_sequence_overflowing_difference_is_named(tmp_path, capsys, extra, message):
    payload = {"space": SPACE, "elements": [[1e308, 0, 0], [-1e308, 0, 0]], **extra}
    path = write(tmp_path, "seq.json", payload)
    code, out, err = run_cli(capsys, "sequence", path, "--tail-from", "0")
    assert code == 1
    assert out["error"]["message"] == (
        f"{message} by 1.11254 times the largest float in coordinate 0, "
        "so their difference overflows"
    )
    assert "Traceback" not in err


def test_sequence_without_work(tmp_path, capsys):
    payload = {"space": SPACE, "elements": [[1, 0, 0], [0, 1, 0]]}
    path = write(tmp_path, "seq.json", payload)
    code, out, _ = run_cli(capsys, "sequence", path)
    assert code == 1
    assert out["error"]["field"] == "probes"


def test_usage_error_is_json(capsys):
    code, out, err = run_cli(capsys, "not-a-command")
    assert code == 1
    assert "error" in out
    assert "usage error" in err


def test_no_subcommand(capsys):
    code, out, _ = run_cli(capsys)
    assert code == 1
    assert "error" in out


def test_malformed_json_names_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"space": }', encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert "malformed JSON" in out["error"]["message"]


def test_deeply_nested_json_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "check-axioms", str(path))
    assert code == 1
    assert out["error"]["field"] == str(path)
    assert "nested too deeply" in out["error"]["message"]
    assert "Traceback" not in err


def test_validation_error_names_field(tmp_path, capsys):
    payload = dict(SYMMETRIC_PROBLEM)
    payload["b"] = [0, 0]
    path = write(tmp_path, "problem.json", payload)
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert "b" in out["error"]["field"]


def test_inprocess_determinism(tmp_path, capsys):
    path = write(tmp_path, "problem.json", SYMMETRIC_PROBLEM)
    cli.run(["solve", path])
    first = capsys.readouterr().out
    cli.run(["solve", path])
    second = capsys.readouterr().out
    assert first == second


def test_subprocess_determinism(tmp_path):
    path = write(tmp_path, "problem.json", SYMMETRIC_PROBLEM)
    cmd = [sys.executable, "-m", "pairnorm", "solve", path]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    assert a.stdout.strip()
    json.loads(a.stdout)


def test_import_loads_no_scipy():
    # scipy costs tens of MB and a sizeable share of start-up time
    code = (
        "import sys, pairnorm, pairnorm.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_solve_huge_direction_subprocess(tmp_path):
    # |b| = 1e160: |b|^2 and b b^T overflow unless the seminorm map is
    # built from b / |b|; the value is |b| * 1e-150
    problem = {
        "space": {"kind": "euclidean_gram", "dim": 3},
        "targets": [[1e-150, 1e-150, 0]],
        "g_basis": [[1, 0, 0]],
        "b": [0, 0, 1e160],
    }
    path = write(tmp_path, "problem.json", problem)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "pairnorm", "solve", path], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stdout
    assert out.stderr == ""
    assert json.loads(out.stdout)["value"] == pytest.approx(1e10, rel=1e-12)


def test_solve_many_basis_vectors(tmp_path, capsys):
    # a well-conditioned 44 x 48 Gaussian basis, once rejected as dependent
    # because det(unit Gram) shrinks with k
    rng = np.random.default_rng(0)
    payload = {
        "space": {"kind": "euclidean_gram", "dim": 48},
        "g_basis": rng.standard_normal((44, 48)).tolist(),
        "targets": rng.standard_normal((2, 48)).tolist(),
        "b": rng.standard_normal(48).tolist(),
    }
    path = write(tmp_path, "problem.json", payload)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    assert out["converged"] is True


# Reports whose bytes must not move when the batch layer changes: SHA-256 and
# length of stdout (numpy 2.4.6 with OpenBLAS, x86-64), in which every 2-norm
# row has the bits it has inside any batch, a 1-row batch included: the White
# kernel takes a 1-row operand through the many-row matmul (BLAS gemm).  The
# sweeps run past one kernel block and print every violation's values; the
# sequences evaluate 7140 Cauchy pairs.  The problem reports (solve, the grid
# oracle, distance, certificate, uniqueness) come from one engine run from the
# origin; blend runs no engine, and ``certificate`` builds its functional
# from that run's dual on both spaces.

WHITE3 = {"kind": "white_polynomial", "degree": 3, "points": [0, 0.125, 0.25, 0.5, 0.75, 1]}


def _coord(j, c):
    """A coordinate in [-0.5, 0.5) that every platform computes alike."""
    return ((j * 7919 + c * 104729) % 1000 - 500) / 1000


def golden_sequence(space, d, n):
    limit = [_coord(0, c) for c in range(d)]
    return {
        "space": space,
        "elements": [
            [limit[c] + _coord(j, c + 3) / (j + 1) for c in range(d)] for j in range(1, n + 1)
        ],
        "probes": {
            "y": [_coord(1, c + 9) + 1 for c in range(d)],
            "z": [_coord(2, c + 17) for c in range(d)],
        },
        "limit": limit,
        "probe_dirs": [[_coord(3, c + 29) for c in range(d)], [_coord(4, c + 41) for c in range(d)]],
    }


def golden_problem(space, d, m, k):
    """m targets, k basis vectors and b in general position; the blend
    segment runs from g1 along b, on which the seminorm does not change."""
    basis = [[_coord(j + 5, c * (c + j) + 53) for c in range(d)] for j in range(k)]
    b = [_coord(9, c * c + 61) + 1 for c in range(d)]
    g1 = [0.25 * v for v in basis[0]]
    return {
        "space": space,
        "targets": [[_coord(j, c * (c + j) + 37) for c in range(d)] for j in range(m)],
        "g_basis": basis,
        "b": b,
        "blend": {"g1": g1, "g2": [g + v for g, v in zip(g1, b)]},
    }


EUCLID6 = {"kind": "euclidean_gram", "dim": 6}
WHITE5 = {
    "kind": "white_polynomial",
    "degree": 5,
    "points": [0, 0.0625, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1],
}
SWEEP_FLAGS = ["--samples", "3000", "--seed", "5", "--tol", "1e-16"]
ORACLE_FLAGS = ["--oracle", "--resolution", "41"]
GOLDEN = {
    "check-axioms-euclid": (
        "check-axioms", SWEEP_FLAGS, {"kind": "euclidean_gram", "dim": 4}, 3, 817588,
        "72ad399cf59295998f75279cd6d293b4eef02dbcefede14151a6c3cb5786fd72",
    ),
    "check-axioms-white": (
        "check-axioms", SWEEP_FLAGS, WHITE3, 3, 1527346,
        "e3968008d0daf1cfe025d3d22d74f0ee7e5400b21851b220e027180791660e73",
    ),
    "sequence-euclid": (
        "sequence", ["--tail-from", "0"],
        golden_sequence({"kind": "euclidean_gram", "dim": 5}, 5, 120), 0, 8776,
        "24c68bfa783b54480821cf3d71cb1b2f5dde2bfa2a903d45adb154f42bde4b1c",
    ),
    "sequence-white": (
        "sequence", ["--tail-from", "0"], golden_sequence(WHITE3, 4, 120), 0, 8529,
        "d795967f50a520d92139b677de51bf38c63053255e0c7fd3780035fb7d45ae0b",
    ),
    "solve-euclid": (
        "solve", [], golden_problem(EUCLID6, 6, 3, 2), 0, 389,
        "ca5b86d16dd4188390543657a203f834f25f618d76331994f194363983f61642",
    ),
    "solve-oracle-euclid": (
        "solve", ORACLE_FLAGS, golden_problem(EUCLID6, 6, 3, 2), 0, 624,
        "11fea6711726e2feec19a8c1f68d7811ac76e2ebbb93b6e3c4ad31bce85fb463",
    ),
    "distance-euclid": (
        "distance", [], golden_problem(EUCLID6, 6, 1, 2), 0, 180,
        "f9191e41da26d3fab9d130a0ecff0ac0c20612dbdb7d80483c983b89ad487978",
    ),
    "certificate-euclid": (
        "certificate", [], golden_problem(EUCLID6, 6, 1, 2), 0, 617,
        "bb2233a1c7cd27f3c293aebf81e702967c46525e697f3c353928c5ededb1590e",
    ),
    "uniqueness-euclid": (
        "uniqueness", [], golden_problem(EUCLID6, 6, 3, 2), 0, 78,
        "881e19a685cb71b86ddc431efdff6190945d73ee1e4e8fdb6439abc8160bb75a",
    ),
    "blend-euclid": (
        "blend", [], golden_problem(EUCLID6, 6, 3, 2), 0, 1097,
        "f9058a005bc75b7f00e86f6db84a432d59cb49d94063fcdaaa1053fb70e905b1",
    ),
    "solve-white": (
        "solve", [], golden_problem(WHITE5, 6, 3, 2), 0, 387,
        "174776ee6e0f098f81c93267a413e00b3e4fd1c1727d15527fedf1ae35f5131e",
    ),
    "solve-oracle-white": (
        "solve", ORACLE_FLAGS, golden_problem(WHITE5, 6, 3, 2), 0, 604,
        "439b32f8900a38ad2d568a1d1e4f8b999029db23df4df2cf1e5f70f18abca54a",
    ),
    "distance-white": (
        "distance", [], golden_problem(WHITE5, 6, 1, 2), 0, 174,
        "51d763b3e05c7104700deb471df8b0c728729e033f8727abe5f28d58e10f485f",
    ),
    "certificate-white": (
        "certificate", [], golden_problem(WHITE5, 6, 1, 2), 0, 592,
        "a7f3b8b2a43795e8d212497c3e05edfb74086ee454be33b8067b77b95431788c",
    ),
    "uniqueness-white": (
        "uniqueness", [], golden_problem(WHITE5, 6, 3, 2), 0, 160,
        "50b468f2cc5e3d9277e942a18d719ad8bad94eeea4e9b965feca5fdc2281a398",
    ),
    "blend-white": (
        "blend", [], golden_problem(WHITE5, 6, 3, 2), 0, 1097,
        "3cd1fc68f9c7aff9288c4573023dd65a91f37a41cb509f083b7865de7bc84a18",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_bytes(tmp_path, capsys, name):
    command, flags, payload, exit_code, size, digest = GOLDEN[name]
    path = write(tmp_path, "input.json", payload)
    assert cli.run([command, path, *flags]) == exit_code
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


# SHA-256 of dumps(to_dict(report)) for the streamed sweeps at the edges of
# their row blocks (spaces._SWEEP_ROWS = 8192), recorded from whole-batch
# sweeps: a blocked sweep must keep every byte.
BLOCK_EDGE_SPACES = {"euclid": EuclideanGram(4), "white": space_from_dict(WHITE3)}
BLOCK_EDGE_DIGESTS = {
    ("check_axioms", "euclid", 2):
        "ab9ec0f7b9367eac960517e495f1d334ecb3f21548c06172bfb2b3422248428c",
    ("check_axioms", "euclid", 8191):
        "cf316ed7c10f54acf4b57b82c8d5f8111dea7284b1dedab659bba63934b7afc0",
    ("check_axioms", "euclid", 8192):
        "5f5f855cb5dc5e4b6ae5c0e3d39d2c4b30289dd8db47624dfd88c1e7d218b669",
    ("check_axioms", "euclid", 8193):
        "f2e03f3d88dd3f76a8c329b635448ea6d435e7ce326b2f894d9e2b6818864f2f",
    ("check_axioms", "euclid", 16385):
        "b29120d54d5777f64610b04c71a15053e729c0f1e3950a3b4ef03c867ad3f146",
    ("check_axioms", "white", 2):
        "d29fde6391b34750c722c2fe18468acee72acd2685cc47568bc95fd0b7bef2e8",
    ("check_axioms", "white", 8191):
        "c6d271731d1aef49fc28fac60a6d001d0b4b256440c5648e221399d3ad4b3712",
    ("check_axioms", "white", 8192):
        "5538478fc651be964ed720a52131b8e0ae27975fd4bbf840cb2a0cd938888d09",
    ("check_axioms", "white", 8193):
        "856795f23e72110d75b81b58c7cbf76f4a543dcb81018d35283fcd270316beeb",
    ("check_axioms", "white", 16385):
        "f53b3fdd1f05813ad8f5d6c5a00b4858cc346f07f860a4c9cb154a30501f351a",
    ("shift_identity_check", "euclid", 2):
        "f5d4a9df413b50da3c638dc8047549d7da5549a9717cb80530393951f604e40e",
    ("shift_identity_check", "euclid", 8191):
        "8bd5f8f9ad81cf04f965300f79bf5f2e2284fda88b575fdf9a1bb7201e5ba338",
    ("shift_identity_check", "euclid", 8192):
        "50a3c65a8959a4e939c74810003e3f6b78642ecbc5e67977b897af8d524020e8",
    ("shift_identity_check", "euclid", 8193):
        "c6ee5ba79ab07426e8aa817f40089fbb295398141fe657ab1b14cb77af7fef54",
    ("shift_identity_check", "euclid", 16385):
        "f8624c7dbb5396b84efd66b8d88e54ee0c4b5050b3f985347f710068257bb258",
    ("shift_identity_check", "white", 2):
        "7b7dc85add28666bfe1f858b228345c6792724f14d8cc2dfe705eaa12508fbd1",
    ("shift_identity_check", "white", 8191):
        "c7ad9ab506318ca6ee3149c2bc09137a562fe69b45a49ae79934b0960cb87b34",
    ("shift_identity_check", "white", 8192):
        "b11a11f9b4ef20ba9cb3dc273e241c0510fda8c87c7d3b11504273f41ba795a6",
    ("shift_identity_check", "white", 8193):
        "199ecb81517948e0e1703642499380acce183d023cda63535b14e07bf6228b90",
    ("shift_identity_check", "white", 16385):
        "540b3e9339b4e86ddf51c2a2323d23a69128499292058d76dae0be16df693de6",
    ("norm_limit_check", "euclid", 2):
        "77db16d4d5e70251567dee78ac5f7530dd4f611e5077a56e538a9626937fbbaf",
    ("norm_limit_check", "euclid", 8191):
        "4ede540d81432059f331e91f6c43a0ed689d26c750a921a34de4125588b4abe1",
    ("norm_limit_check", "euclid", 8192):
        "96bb369a60f10e6c1bf7baac6a3c945b9928d202bcf246105b31a1901539ac04",
    ("norm_limit_check", "euclid", 8193):
        "817cae74509d33a4525c7db0f7e6cfd7fcb9d3c6de9adfd7e499d24a5dc5a4b6",
    ("norm_limit_check", "euclid", 16385):
        "e3b3a18902352ba38bfc0df612e77443da65954057e5b02ae01c220f83d680af",
    ("norm_limit_check", "white", 2):
        "ca2a75071cbef337eee4e427b44c07e6a771a7b87a6f43a9ffbe470b9104c322",
    ("norm_limit_check", "white", 8191):
        "5adc653083c49e9d9378c33d98815312661c930e85ed05f24f0c0b43c813628b",
    ("norm_limit_check", "white", 8192):
        "0914dd4782c196db2d8ab1e472c0224890d2de3b4404fffbe609026c47860c2d",
    ("norm_limit_check", "white", 8193):
        "6013b3dffa69e12629698967fab048a730355eda7b3e056ef3975fcb3a221f08",
    ("norm_limit_check", "white", 16385):
        "ffb2d14061919362fe46bb20aa17c4898537dc001f20416e37cfe2d2fd25dbd9",
    ("convergence_profile", "euclid", 2):
        "ec2ac9785c533887db868252e445c9bed0f701375dfacb28cfbcec65957e3477",
    ("convergence_profile", "euclid", 8191):
        "1a416d5d98ff52e912f93c858f70ad3e4cbc051ea77dcd8fe168af27460d86db",
    ("convergence_profile", "euclid", 8192):
        "9e99206363cbe0b0da95947576b7fecd9d3c9e9bc0b44b263969774fc6e8dda6",
    ("convergence_profile", "euclid", 8193):
        "14afe7c98f5195f259daedeccf199d69c338b273ee39317c5758d428de64d731",
    ("convergence_profile", "euclid", 16385):
        "8621043ad804be66124fbdb5c60ef9390cd2ed02a39f570b7b0dc1236f154c9c",
    ("convergence_profile", "white", 2):
        "e6afb700e2f61622c185b53836e7feea8aa5163452047ccf5e7b20615c6ef730",
    ("convergence_profile", "white", 8191):
        "463b70bc8039f46eac52c502713b32815627d1d70bd1deb91d7b5e12e83efc1c",
    ("convergence_profile", "white", 8192):
        "c9db2d798035051262626e50c22d67aed4c41596e2f4452ae54b8418c5ec154b",
    ("convergence_profile", "white", 8193):
        "20008e9f703bc1c5188b399717ce50338826ac0127b4501561349ca535005c96",
    ("convergence_profile", "white", 16385):
        "14dff2e0e31a58ecd4bfb62f1ded8366920fb6c17f8776fb2fc2149d7b108f18",
    ("certificate_soundness", "euclid", 2):
        "f2259c6e5672afceac0b5ac3269b75dd147bf6655fa7acd889f736e6aa98bece",
    ("certificate_soundness", "euclid", 8191):
        "fef6b56f9d17a8227412fc233b463fd1525b77fb94ba8b6484e8fa9de102b21f",
    ("certificate_soundness", "euclid", 8192):
        "28885e3e649c74f10b87424bbd39d71c75f61d96a9fe00e413ce35f913852d3c",
    ("certificate_soundness", "euclid", 8193):
        "03e270858801b6ff34637e4c2872f165ef727f888779a29c2a232abd44537983",
    ("certificate_soundness", "euclid", 16385):
        "8fcc3194a0ae4d98eb079387cd7aa03d47726dd6ca64b5ef5e2fa27e6b1afb8d",
    ("certificate_soundness", "white", 2):
        "bbb9f7ae580a51e094eaae442570825a226a4c602cd5198fc7dbae5e1e6bf5cf",
    ("certificate_soundness", "white", 8191):
        "c545aaddb3683a7663191904c26dd4f21601b6dce9039b1d19e9cff3b0e366d3",
    ("certificate_soundness", "white", 8192):
        "2c9c8f32cf73545f5295040f706db5ef3d95ca001c67c869bd6111bf30f0d80d",
    ("certificate_soundness", "white", 8193):
        "cf55f63c1ebb309d9b78b5532fef3ba59f4efcdca5644f68b7c2463d263dd1ce",
    ("certificate_soundness", "white", 16385):
        "dc8f8cf288994da41a0a32b4a25522518f65f1a68824d6595c0e52453b63f905",
}


def block_edge_report(sweep, name, n):
    space = BLOCK_EDGE_SPACES[name]
    if sweep == "check_axioms":
        return check_axioms(space, n, seed=7, tol=1e-16)
    if sweep == "shift_identity_check":
        return shift_identity_check(space, n, seed=7, tol=1e-16)
    rng = np.random.default_rng(11)
    d = space.element_dim
    if sweep == "certificate_soundness":
        x0, basis, b = rng.uniform(-1.0, 1.0, (3, d))
        cert = certificate(space, x0, [basis], b)
        return certificate_soundness(space, cert, x0, [basis], b, samples=n, seed=7)
    limit = rng.uniform(-1.0, 1.0, d)
    steps = rng.uniform(-1.0, 1.0, (n, d)) / np.arange(1, n + 1)[:, None]
    seq = SequencePrefix(space, limit + steps)
    if sweep == "norm_limit_check":
        return norm_limit_check(space, seq, limit, rng.uniform(-1.0, 1.0, d))
    return convergence_profile(space, seq, limit, list(rng.uniform(-1.0, 1.0, (2, d))))


@pytest.mark.parametrize(
    "case", sorted(BLOCK_EDGE_DIGESTS), ids=lambda case: "-".join(map(str, case))
)
def test_block_edge_report_bytes(case):
    text = dumps(to_dict(block_edge_report(*case)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BLOCK_EDGE_DIGESTS[case]


@pytest.mark.parametrize(
    "case", sorted(BLOCK_EDGE_DIGESTS), ids=lambda case: "-".join(map(str, case))
)
def test_block_edge_digests_are_whole_sweeps(case, monkeypatch):
    # the digests are those of one block over every row: with the sweep
    # blocks and the kernel blocks at least n rows long, each sweep must
    # print the bytes the blocked sweep above prints
    n = case[2]
    monkeypatch.setattr(spaces, "_SWEEP_ROWS", n)
    monkeypatch.setattr(spaces, "_BLOCK_ROWS", n)
    assert spaces._row_blocks(n) == [(0, n)]
    text = dumps(to_dict(block_edge_report(*case)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BLOCK_EDGE_DIGESTS[case]


def test_oracle_at_the_top_of_the_float_range(tmp_path, capsys):
    # the grid oracle formed targets @ M^T unscaled, so its bounds took
    # inf - inf, a RuntimeWarning (an error under this suite's filter); it
    # now takes the rows in range as the engine does
    payload = {
        "space": {"kind": "euclidean_gram", "dim": 4},
        "targets": [[1e300, 0, 0, 0], [0, 1e300, 0, 0]],
        "g_basis": [[0, 0, 1, 0]],
        "b": [0, 0, 0, 1],
    }
    code, out, err = run_cli(capsys, "solve", write(tmp_path, "top.json", payload), "--oracle")
    assert code == 0
    assert out["value"] == pytest.approx(1e300, rel=1e-12)
    assert out["oracle"]["value"] == pytest.approx(1e300, rel=1e-12)
    assert "Warning" not in err and "Traceback" not in err


def test_white_sequence_pair_beyond_the_largest_float(tmp_path, capsys):
    # each pair value is 4e308: the White kernel overflowed inside, printed
    # RuntimeWarnings and failed to serialize inf; under this suite's
    # RuntimeWarning filter a warning would raise here
    payload = {
        "space": {"kind": "white_polynomial", "degree": 2, "points": [0, 0.3, 0.7, 1]},
        "elements": [[1e308, 0, 0], [-1e308, 0, 0], [0, 0, 0]],
        "probes": {"y": [0, 1, 0], "z": [0, 0, 1]},
    }
    code, out, err = run_cli(capsys, "sequence", write(tmp_path, "seq.json", payload))
    assert code == 1
    assert out == {
        "error": {
            "message": "the 2-norm of row 0 is 10^308.60, beyond the largest float (10^308.25)"
        }
    }
    assert "Warning" not in err and "Traceback" not in err


# Every subcommand on both spaces with its elements at extreme scales: the
# points alone (targets, blend endpoints, sequence elements and limit), or
# every element (also the basis, b and the probes).  Each run is a report
# or a named error, exit 0 to 3, with JSON on stdout.
EXTREME_SPACES = {"euclid": {"kind": "euclidean_gram", "dim": 4}, "white": WHITE3}
EXTREME_COMMANDS = [
    "check-axioms", "distance", "solve", "certificate", "blend", "uniqueness", "sequence"
]


def extreme_payload(command, space, scale, every):
    def scaled(rows, s=scale):
        return [[s * v for v in row] for row in rows]

    s = scale if every else 1.0
    if command == "check-axioms":
        return space
    if command == "sequence":
        elements = [[1.0 / n, 0.5 / n, 0.25, 0.0] for n in range(1, 9)]
        return {
            "space": space,
            "elements": scaled(elements),
            "probes": {"y": scaled([[0, 1, 0, 0]], s)[0], "z": scaled([[0, 0, 0, 1]], s)[0]},
            "limit": [0.0, 0.0, 0.25 * scale, 0.0],
            "probe_dirs": scaled([[0, 1, 0, 0], [1, 0, 0, 0]], s),
        }
    targets = [[1.0, 0.5, 0.0, 0.0], [-0.5, 1.0, 0.25, 0.0]]
    b = scaled([[0.3, 0.0, 0.0, 1.0]], s)[0]
    g1 = [0.0, 0.0, 0.25 * scale, 0.0]
    return {
        "space": space,
        "targets": scaled(targets[:1] if command in ("distance", "certificate") else targets),
        "g_basis": scaled([[0.0, 0.0, 1.0, 0.0]], s),
        "b": b,
        "blend": {"g1": g1, "g2": [g + v for g, v in zip(g1, b)]},
    }


@pytest.mark.parametrize("every", [False, True], ids=["points", "every"])
@pytest.mark.parametrize("scale", [1e155, 1e-155, 1e200, 1e-200, 1e308])
@pytest.mark.parametrize("command", EXTREME_COMMANDS)
@pytest.mark.parametrize("space", sorted(EXTREME_SPACES))
def test_extreme_scale_matrix(tmp_path, capsys, space, command, scale, every):
    payload = extreme_payload(command, EXTREME_SPACES[space], scale, every)
    flags = ["--samples", "200"] if command in ("check-axioms", "certificate") else []
    code, out, err = run_cli(capsys, command, write(tmp_path, "in.json", payload), *flags)
    assert code in (0, 1, 2, 3)
    assert isinstance(out, dict) and ("error" in out) == (code == 1)
    assert "Warning" not in err and "Traceback" not in err
