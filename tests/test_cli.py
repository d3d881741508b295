"""End-to-end command line tests; reports must be JSON on every exit path."""

import hashlib
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


# Reports whose bytes must not move when the batch layer changes: SHA-256 and
# length of stdout, as written by the unblocked kernel with per-row validation
# (numpy 2.4.6 with OpenBLAS, x86-64).  The sweeps run past one kernel block
# and print every violation's values; the sequences evaluate 7140 Cauchy pairs.

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


SWEEP_FLAGS = ["--samples", "3000", "--seed", "5", "--tol", "1e-16"]
GOLDEN = {
    "check-axioms-euclid": (
        "check-axioms", SWEEP_FLAGS, {"kind": "euclidean_gram", "dim": 4}, 3, 703308,
        "936c0332b96dc402b628a276fc2412d8aecd997c3975cbbe4ed29294c3d234b9",
    ),
    "check-axioms-white": (
        "check-axioms", SWEEP_FLAGS, WHITE3, 3, 1527346,
        "e3968008d0daf1cfe025d3d22d74f0ee7e5400b21851b220e027180791660e73",
    ),
    "sequence-euclid": (
        "sequence", ["--tail-from", "0"],
        golden_sequence({"kind": "euclidean_gram", "dim": 5}, 5, 120), 0, 8762,
        "a67828ef37cf711663d267d84512478a39f92120216fd0de89703c4c9cf42934",
    ),
    "sequence-white": (
        "sequence", ["--tail-from", "0"], golden_sequence(WHITE3, 4, 120), 0, 8529,
        "d795967f50a520d92139b677de51bf38c63053255e0c7fd3780035fb7d45ae0b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_bytes(tmp_path, capsys, name):
    command, flags, payload, exit_code, size, digest = GOLDEN[name]
    path = write(tmp_path, "input.json", payload)
    assert cli.run([command, path, *flags]) == exit_code
    out = capsys.readouterr().out.encode("utf-8")
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)
