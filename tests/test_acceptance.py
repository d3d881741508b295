"""Acceptance suite: ten desk-scale property checks with one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
"""

import json
import subprocess
import sys
import time

import numpy as np

from pairnorm import (
    EuclideanGram,
    SimultaneousProblem,
    SolverConfig,
    SubspaceBasis,
    WhitePolynomial,
    blend_check,
    cauchy_profile,
    certificate,
    certificate_soundness,
    check_axioms,
    dependent_triple_check,
    distance_to_subspace,
    norm_limit_check,
    objective,
    oracle_solve,
    seminorm_b,
    seminorm_map,
    SequencePrefix,
    shift_identity_check,
    solve,
    two_norm,
    two_norm_rows,
    uniqueness_probe,
)
from pairnorm.jsonio import dumps

GRAM3 = EuclideanGram(3)
GRAM4 = EuclideanGram(4)
GRAM5 = EuclideanGram(5)
GRAM8 = EuclideanGram(8)
WHITE = WhitePolynomial(2, (0.0, 0.2, 0.4, 0.6))


def report(number: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}", flush=True)


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def orthonormal_rows(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return q[:, :k].T


def independent_unit_b(rng: np.random.Generator, spanned: np.ndarray, d: int) -> np.ndarray:
    base_rank = np.linalg.matrix_rank(spanned) if spanned.size else 0
    assert base_rank < d, "span already fills the ambient space; no valid b exists"
    for _ in range(100):
        b = unit(rng.standard_normal(d))
        stacked = np.vstack([spanned, b]) if spanned.size else b[None, :]
        if np.linalg.matrix_rank(stacked) == base_rank + 1:
            return b
    raise AssertionError("failed to sample an independent direction")


def test_criterion_1_axiom_suite():
    start = time.monotonic()
    gram = check_axioms(GRAM3, 5000, seed=0, tol=1e-9)
    white = check_axioms(WHITE, 5000, seed=0, tol=1e-9)
    elapsed = time.monotonic() - start
    ok = gram.passed and white.passed and elapsed < 5.0
    report(1, "axiom suite", ok, f"{elapsed:.2f}s")
    assert gram.passed, gram.violations[:3]
    assert white.passed, white.violations[:3]
    assert elapsed < 5.0


def test_criterion_2_identities():
    ok = True
    for space in (GRAM3, WHITE):
        shift = shift_identity_check(space, 1000, seed=0, tol=1e-9)
        triple = dependent_triple_check(space, 1000, seed=0, tol=1e-9)
        ok = ok and shift.passed and triple.passed
    report(2, "shift identity and dependent-triple disjunction", ok)
    assert ok


def _oracle_grid(k: int) -> tuple[float, int]:
    if k == 1:
        return 1.5, 2001
    if k == 2:
        return 1.5, 501
    return 1.0, 251


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(1234)
    start = time.monotonic()
    worst = 0.0
    built = 0
    attempts = 0
    while built < 50:
        attempts += 1
        assert attempts < 500, "instance generation failed to stabilize"
        k = 1 + built % 3
        m = 1 + built % 4
        radius, resolution = _oracle_grid(k)
        scale = 0.25 if k == 3 else 0.4
        basis = orthonormal_rows(rng, k, 8)
        targets = rng.uniform(-scale, scale, (m, 8))
        span = np.vstack([targets, basis])
        b = independent_unit_b(rng, span, 8)
        problem = SimultaneousProblem(
            GRAM8,
            targets,
            SubspaceBasis(GRAM8, basis),
            b,
            solver=SolverConfig(max_iters=12000),
        )
        value, g = oracle_solve(problem, radius, resolution)
        coeffs = np.linalg.lstsq(basis.T, np.asarray(g), rcond=None)[0]
        h = 2.0 * radius / (resolution - 1)
        if np.max(np.abs(coeffs)) > radius - 2 * h:
            continue  # optimum too close to the search box; resample
        rep = solve(problem)
        assert rep.converged
        worst = max(worst, abs(rep.value - value))
        built += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 and elapsed < 60.0
    report(3, "oracle equivalence on 50 problems", ok,
           f"max gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 60.0


def test_criterion_4_midpoint_law():
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(20):
        while True:
            f1 = rng.uniform(-1, 1, 4)
            f2 = rng.uniform(-1, 1, 4)
            span = np.vstack([f1, f2])
            if np.linalg.matrix_rank(span) == 2:
                break
        b = independent_unit_b(rng, span, 4)
        problem = SimultaneousProblem(
            GRAM4, [f1, f2], SubspaceBasis(GRAM4, [f1, f2]), b
        )
        rep = solve(problem)
        assert rep.converged
        expected = 0.5 * two_norm(GRAM4, f1 - f2, b)
        worst = max(worst, abs(rep.value - expected))
    ok = worst <= 1e-5
    report(4, "two-target midpoint law", ok, f"max gap {worst:.2e}")
    assert worst <= 1e-5


def test_criterion_5_lipschitz():
    rng = np.random.default_rng(55)
    violations = 0
    worst_excess = -np.inf
    for space, d in ((GRAM4, 4), (WHITE, 3)):
        targets = rng.uniform(-1, 1, (3, d))
        basis = SubspaceBasis(space, np.eye(d)[:1])
        b = rng.uniform(-1, 1, d)
        problem = SimultaneousProblem(space, targets, basis, b)
        G1 = rng.uniform(-2, 2, (1000, d))
        G2 = rng.uniform(-2, 2, (1000, d))
        phi1 = np.max(
            np.stack([two_norm_rows(space, targets[j] - G1, np.tile(b, (1000, 1)))
                      for j in range(3)]), axis=0)
        phi2 = np.max(
            np.stack([two_norm_rows(space, targets[j] - G2, np.tile(b, (1000, 1)))
                      for j in range(3)]), axis=0)
        bound = two_norm_rows(space, G1 - G2, np.tile(b, (1000, 1)))
        excess = np.abs(phi1 - phi2) - bound
        violations += int(np.sum(excess > 1e-9))
        worst_excess = max(worst_excess, float(excess.max()))
    ok = violations == 0
    report(5, "objective is 1-Lipschitz in the seminorm", ok,
           f"worst excess {worst_excess:.2e}")
    assert violations == 0


def test_criterion_6_blend_suite():
    rng = np.random.default_rng(66)
    all_pass = True
    for _ in range(20):
        b = unit(rng.standard_normal(4))
        P = np.eye(4) - np.outer(b, b)
        while True:
            u = rng.uniform(-1, 1, 4)
            if np.linalg.norm(P @ u) > 0.3:
                break
        f = rng.uniform(-1, 1, 4)
        gamma = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        basis = SubspaceBasis(GRAM4, [u, gamma * b])
        problem = SimultaneousProblem(GRAM4, [f], basis, b)
        c_star = float((P @ f) @ (P @ u) / ((P @ u) @ (P @ u)))
        g1 = c_star * u
        g2 = c_star * u + 2.0 * gamma * b
        rep = blend_check(problem, g1, g2, tol=1e-9)
        all_pass = all_pass and rep.passed and len(rep.entries) == 11
    report(6, "flat-face blends stay optimal", all_pass)
    assert all_pass


def test_criterion_7_uniqueness():
    rng = np.random.default_rng(88)
    built = 0
    attempts = 0
    ok = True
    worst_spread = 0.0
    while built < 20:
        attempts += 1
        assert attempts < 300
        k = 1 + built % 2
        m = 1 + built % 2
        basis = orthonormal_rows(rng, k, 5)
        targets = rng.uniform(-0.8, 0.8, (m, 5))
        b = independent_unit_b(rng, np.vstack([targets, basis]), 5)
        M = seminorm_map(GRAM5, b)
        sigma = np.linalg.svd(basis @ M.T, compute_uv=False)
        if sigma.min() < 0.4:
            continue  # flat directions would break strict convexity
        problem = SimultaneousProblem(
            GRAM5, targets, SubspaceBasis(GRAM5, basis), b
        )
        rep = uniqueness_probe(problem)
        worst_spread = max(worst_spread, rep.spread)
        ok = ok and rep.distinct_optimizers == 1 and rep.spread < 1e-5
        built += 1
    report(7, "strictly convex instances have one optimizer", ok,
           f"max spread {worst_spread:.2e}")
    assert ok


def test_criterion_8_certificates():
    rng = np.random.default_rng(99)
    built = 0
    attempts = 0
    ok = True
    while built < 20:
        attempts += 1
        assert attempts < 300
        k = 1 + built % 2
        basis_rows = orthonormal_rows(rng, k, 4)
        x0 = rng.uniform(-1, 1, 4)
        b = independent_unit_b(rng, np.vstack([basis_rows, x0]), 4)
        basis = SubspaceBasis(GRAM4, basis_rows)
        delta, _ = distance_to_subspace(GRAM4, x0, basis, b)
        if delta <= 0.12:
            continue
        cert = certificate(GRAM4, x0, basis, b)
        snd = certificate_soundness(
            GRAM4, cert, x0, basis, b, samples=1000, seed=built
        )
        bound = (1.0 / cert.delta) * (1.0 + 1e-6)
        ok = (
            ok
            and cert.delta > 0.1
            and snd.passed
            and snd.max_ratio <= bound
            and abs(snd.attained_ratio - 1.0 / cert.delta) <= 1e-4
        )
        built += 1
    report(8, "dual certificates sound on 20 instances", ok)
    assert ok


def test_criterion_9_sequences():
    rng = np.random.default_rng(111)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        elements = rng.uniform(-1, 1, (n, 3))
        limit = rng.uniform(-1, 1, 3)
        y = rng.uniform(-1, 1, 3)
        rep = norm_limit_check(GRAM3, SequencePrefix(GRAM3, elements), limit, y)
        violations += len(rep.violations)
    monotone = True
    for _ in range(30):
        n = int(rng.integers(4, 16))
        elements = rng.uniform(-1, 1, (n, 3))
        seq = SequencePrefix(GRAM3, elements, probe_y=[0, 1, 0], probe_z=[0, 0, 1])
        sups = [cauchy_profile(GRAM3, seq, t) for t in range(n - 1)]
        for a, b in zip(sups, sups[1:]):
            if b.sup_y > a.sup_y + 1e-15 or b.sup_z > a.sup_z + 1e-15:
                monotone = False
    ok = violations == 0 and monotone
    report(9, "reverse-triangle bound and tail monotonicity", ok,
           f"{violations} violations")
    assert violations == 0
    assert monotone


def test_criterion_10_determinism(tmp_path):
    problem = {
        "space": {"kind": "euclidean_gram", "dim": 3},
        "targets": [[2, 0, 0], [0, 2, 0]],
        "g_basis": [[1, 0, 0], [0, 1, 0]],
        "b": [0, 0, 1],
        "solver": {"max_iters": 20000},
    }
    path = tmp_path / "problem.json"
    path.write_text(dumps(problem), encoding="utf-8")
    cmd = [sys.executable, "-m", "pairnorm", "solve", str(path)]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    ok = first == second and bool(first.strip())
    report(10, "solve output is byte-identical across runs", ok)
    assert ok
    parsed = json.loads(first)
    assert parsed["converged"] is True
