"""End-to-end command line tests; reports must be JSON on every exit path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pairnorm import cli
from pairnorm.jsonio import dumps

SPACE = {"kind": "euclidean_gram", "dim": 3}

SYMMETRIC_PROBLEM = {
    "space": SPACE,
    "targets": [[1, 0, 0], [-1, 0, 0]],
    "g_basis": [[1, 0, 0]],
    "b": [0, 0, 1],
    "solver": {"seed": 0, "restarts": 4},
}

# a White problem whose restarts need more than five pivots
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
    assert len(out["per_restart"]) == 4
    assert out["solver"]["seed"] == 0


def test_solve_missing_file(capsys):
    code, out, _ = run_cli(capsys, "solve", "/no/such/file.json")
    assert code == 1
    assert "error" in out


def test_solve_flag_overrides(tmp_path, capsys):
    path = write(tmp_path, "problem.json", SYMMETRIC_PROBLEM)
    code, out, _ = run_cli(capsys, "solve", path, "--restarts", "2", "--seed", "11")
    assert code == 0
    assert len(out["per_restart"]) == 2
    assert out["solver"]["seed"] == 11
    assert out["solver"]["restarts"] == 2


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
        "solver": {"max_iters": 1, "restarts": 1},
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


def test_uniqueness_subcommand(tmp_path, capsys):
    path = write(tmp_path, "problem.json", SYMMETRIC_PROBLEM)
    code, out, _ = run_cli(capsys, "uniqueness", path, "--restarts", "6")
    assert code == 0
    assert out["distinct_optimizers"] == 1
    assert out["restarts"] == 6


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
