"""Solver, oracle, distance, certificate, blend, and uniqueness tests."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from pairnorm import (
    EuclideanGram,
    SimultaneousProblem,
    SolverConfig,
    SubspaceBasis,
    WhitePolynomial,
    blend_check,
    certificate,
    certificate_soundness,
    distance_to_subspace,
    objective,
    oracle_solve,
    seminorm_b,
    set_distance,
    solve,
    two_norm,
    two_norm_rows,
    uniqueness_probe,
)
import pairnorm.approx as approx
from pairnorm.approx import _engine, _Objective
from pairnorm.jsonio import to_dict

GRAM = EuclideanGram(3)
WHITE = WhitePolynomial(1, (0.0, 1.0))
E1, E2, E3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]


def gram_problem(targets, basis, b=E3, **solver_kw):
    return SimultaneousProblem(
        GRAM,
        targets=targets,
        g_basis=SubspaceBasis(GRAM, basis),
        b=b,
        solver=SolverConfig(**solver_kw) if solver_kw else None,
    )


# ---------------------------------------------------------------- objective


def test_objective_two_opposite_targets():
    prob = gram_problem([[1, 0, 0], [-1, 0, 0]], [E1])
    assert objective(prob, [0, 0, 0]) == pytest.approx(1.0, rel=1e-12)


def test_objective_zero_at_target():
    prob = gram_problem([[0.3, -0.7, 0.2]], [E1])
    assert objective(prob, [0.3, -0.7, 0.2]) == 0.0


def test_objective_single_target_offset():
    prob = gram_problem([[1, 0, 0]], [E1])
    assert objective(prob, [0, 2, 0]) == pytest.approx(math.sqrt(5), rel=1e-12)


# ---------------------------------------------------------------- distance


def test_distance_orthogonal_point():
    delta, w_star = distance_to_subspace(GRAM, [0, 1, 0], SubspaceBasis(GRAM, [E1]), E3)
    assert delta == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(w_star, [0, 0, 0], atol=1e-12)


def test_distance_zero_inside_span():
    delta, w_star = distance_to_subspace(
        GRAM, [0.4, 0, 0], SubspaceBasis(GRAM, [E1]), E3
    )
    assert delta <= 1e-12
    assert np.allclose(w_star, [0.4, 0, 0], atol=1e-9)


def test_distance_diagonal_point():
    delta, w_star = distance_to_subspace(GRAM, [1, 1, 0], SubspaceBasis(GRAM, [E1]), E3)
    assert delta == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(w_star, [1, 0, 0], atol=1e-9)


def test_distance_matches_tiny_grid():
    # independent check: dense 1-D sweep over the coefficient
    rng = np.random.default_rng(7)
    for _ in range(5):
        x0 = rng.uniform(-1, 1, 3)
        u = rng.uniform(-1, 1, 3)
        delta, _ = distance_to_subspace(GRAM, x0, SubspaceBasis(GRAM, [u]), E3)
        alphas = np.linspace(-4, 4, 20001)
        grid = two_norm_rows(GRAM, x0 - alphas[:, None] * u, np.array([E3])).min()
        assert delta <= grid + 1e-9
        assert abs(delta - grid) <= 1e-3


def test_distance_white_space():
    # ||t - c, 1 + t|| over points {0, 1} equals |c + 1| at both points
    delta, w_star = distance_to_subspace(
        WHITE, [0, 1], SubspaceBasis(WHITE, [[1, 0]]), [1, 1]
    )
    assert delta <= 1e-9
    assert w_star[0] == pytest.approx(-1.0, abs=1e-6)


def test_distance_rejects_dependent_b():
    with pytest.raises(ValueError, match="independent"):
        distance_to_subspace(GRAM, [0, 1, 0], SubspaceBasis(GRAM, [E1]), [2, 0, 0])


# ---------------------------------------------------------------- set distance


def test_set_distance_singleton_equals_distance():
    basis = SubspaceBasis(GRAM, [E1, E2])
    x0 = [0.3, 0.8, 0.5]
    delta, _ = distance_to_subspace(GRAM, x0, basis, E3)
    assert set_distance(GRAM, [x0], basis, E3) == pytest.approx(delta, abs=1e-9)


def test_set_distance_symmetric_pair():
    val = set_distance(GRAM, [[1, 0, 0], [-1, 0, 0]], SubspaceBasis(GRAM, [E1]), E3)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_set_distance_duplicate_points():
    basis = SubspaceBasis(GRAM, [E1])
    x0 = [0.2, 0.9, -0.4]
    delta, _ = distance_to_subspace(GRAM, x0, basis, E3)
    assert set_distance(GRAM, [x0, x0], basis, E3) == pytest.approx(delta, abs=1e-9)


# ---------------------------------------------------------------- solve


def test_solve_symmetric_pair():
    prob = gram_problem([[1, 0, 0], [-1, 0, 0]], [E1])
    rep = solve(prob)
    assert rep.converged
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(rep.g_star, [0, 0, 0], atol=1e-6)


def test_solve_exact_representation():
    prob = gram_problem([[1.5, -0.5, 0]], [E1, E2])
    rep = solve(prob)
    assert rep.value <= 1e-9
    assert np.allclose(rep.g_star, [1.5, -0.5, 0], atol=1e-6)


def test_solve_midpoint_two_targets():
    prob = gram_problem([[2, 0, 0], [0, 2, 0]], [E1, E2])
    rep = solve(prob)
    half_gap = 0.5 * two_norm(GRAM, np.array([2, 0, 0]) - np.array([0, 2, 0]), E3)
    assert rep.value == pytest.approx(half_gap, abs=1e-9)
    assert rep.value == pytest.approx(math.sqrt(2), abs=1e-9)
    assert np.allclose(rep.g_star, [1, 1, 0], atol=1e-6)


def test_solve_report_invariants():
    prob = gram_problem([[2, 0, 0], [0, 2, 0]], [E1, E2])
    rep = solve(prob)
    assert rep.value == pytest.approx(objective(prob, rep.g_star), abs=1e-9)
    for r in rep.per_restart:
        assert rep.value <= r.value + prob.solver.tol
    assert len(rep.per_restart) == 1
    assert rep.per_restart[0].start == [0.0, 0.0]


def test_solve_deterministic():
    prob1 = gram_problem([[0.4, 0.9, 0], [-0.2, 0.3, 0]], [E1, E2], seed=5)
    prob2 = gram_problem([[0.4, 0.9, 0], [-0.2, 0.3, 0]], [E1, E2], seed=5)
    a, b = solve(prob1), solve(prob2)
    assert to_dict(a) == to_dict(b)


def test_solve_requires_independent_b():
    prob = gram_problem([[1, 0, 0]], [E1], b=[3, 0, 0])
    with pytest.raises(ValueError, match="independent"):
        solve(prob)


def test_solve_white_space():
    prob = SimultaneousProblem(
        WHITE,
        targets=[[0, 1], [0, -1]],
        g_basis=SubspaceBasis(WHITE, [[0, 1]]),
        b=[1, 0],
    )
    rep = solve(prob)
    # symmetric targets: optimum at g = 0 with value ||t, 1|| = 2
    assert rep.value == pytest.approx(2.0, abs=1e-6)
    assert abs(rep.g_star[1]) <= 1e-6


def test_solve_large_targets_independent_b():
    # independence of b is judged on directions, not on magnitudes
    prob = gram_problem([[1e16, 0, 0], [0, 1e16, 0]], [E1])
    rep = solve(prob)
    assert rep.converged
    assert rep.value == pytest.approx(1e16, rel=1e-12)
    assert np.all(rep.g_star == 0.0)


def test_solve_large_targets_dependent_b():
    prob = gram_problem([[1e16, 0, 0], [0, 1e16, 0]], [E1], b=[1, 1, 0])
    with pytest.raises(
        ValueError,
        match="b must be linearly independent from the span of the targets and the basis",
    ):
        solve(prob)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^tol must be positive, got {tol!r}$"):
            SolverConfig(tol=tol)
    with pytest.raises(ValueError):
        SolverConfig(step0=0.0)


def test_basis_independence_required():
    with pytest.raises(ValueError, match="dependent"):
        SubspaceBasis(GRAM, [E1, [2, 0, 0]])


def test_trivial_basis_allowed():
    prob = gram_problem([[1, 0, 0]], [])
    rep = solve(prob)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rep.g_star, 0.0)


def test_white_trivial_basis_values():
    # k = 0 on the l1 engine: every entry point returns the objective at
    # g = 0.  The bits were recorded while the engines still had k = 0 branches.
    space = WhitePolynomial(3, (0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
    targets = [[1.0, -0.5, 0.25, 2.0], [0.5, 1.5, -1.0, 0.0], [-2.0, 0.0, 0.75, 1.0]]
    b = [0.0, 1.0, 0.0, 0.5]
    value = float.fromhex("0x1.74339c0ebedfap+4")
    prob = SimultaneousProblem(space, targets, [], b)
    rep = solve(prob)
    assert rep.value == value == objective(prob, np.zeros(4))
    assert rep.converged and rep.per_restart[0].iterations == 0
    assert rep.g_star.tolist() == [0.0] * 4
    uniq = uniqueness_probe(prob)
    assert (uniq.distinct_optimizers, uniq.spread, uniq.values) == (1, 0.0, [value])
    delta, w_star = distance_to_subspace(space, targets[0], [], b)
    assert delta == float.fromhex("0x1.8016f0068db8cp+2")
    assert w_star.tolist() == [0.0] * 4
    assert set_distance(space, targets, [], b) == value


# ---------------------------------------------------------------- oracle


def test_oracle_1d_example():
    prob = gram_problem([[1, 0, 0], [-1, 0, 0]], [E1])
    value, g = oracle_solve(prob, 2.0, 1000)
    assert abs(value - 1.0) <= 1e-3
    assert np.allclose(g, [0, 0, 0], atol=1e-2)


def test_oracle_trivial_subspace():
    prob = gram_problem([[1, 0, 0]], [])
    value, g = oracle_solve(prob, 2.0, 100)
    assert value == objective(prob, [0, 0, 0])
    assert np.allclose(g, 0.0)


def test_oracle_rejects_large_k():
    space = EuclideanGram(6)
    basis = SubspaceBasis(space, np.eye(6)[:4])
    prob = SimultaneousProblem(space, [[0, 0, 0, 0, 0, 1]], basis, [0, 0, 0, 0, 1, 0])
    with pytest.raises(ValueError, match="at most 3"):
        oracle_solve(prob, 1.0, 50)


def test_oracle_rejects_bad_grid():
    prob = gram_problem([[1, 0, 0]], [E1])
    with pytest.raises(ValueError):
        oracle_solve(prob, 1.0, 5)
    with pytest.raises(ValueError):
        oracle_solve(prob, -1.0, 50)


@pytest.mark.parametrize("radius", [1e160, 1e308, math.inf])
def test_oracle_rejects_a_radius_beyond_the_float_range(radius):
    prob = gram_problem([[1, 1, 0], [1, -1, 0]], [E1])
    message = r"^radius .* is beyond 3\.286e\+153, the grid oracle's float range$"
    with pytest.raises(ValueError, match=message):
        oracle_solve(prob, radius, 101)
    value, g = oracle_solve(prob, 1e150, 101)
    assert value == 2**0.5 and not g.any()


def test_oracle_never_below_converged_solve():
    rng = np.random.default_rng(21)
    for _ in range(5):
        targets = rng.uniform(-0.5, 0.5, (2, 3))
        targets[:, 2] = 0.0  # keep b = e3 independent of the problem span
        prob = gram_problem(targets, [E1, E2])
        rep = solve(prob)
        value, _ = oracle_solve(prob, 2.0, 201)
        if rep.converged:
            assert value >= rep.value - prob.solver.tol


def full_lattice_min(obj, axes):
    """Every lattice point in one ``values`` call, lowest index on ties."""
    C = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    vals = obj.values(C)
    i = int(np.argmin(vals))
    return float(vals[i]), C[i].copy()


def full_sweep_oracle(prob, radius, resolution):
    """The grid oracle with a full sweep of both lattices."""
    obj = _Objective(prob.space, prob.targets, prob.g_basis.matrix, prob.b)
    best = full_lattice_min(obj, [np.linspace(-radius, radius, resolution)] * prob.g_basis.k)
    h = 2.0 * radius / (resolution - 1)
    fine = full_lattice_min(obj, [np.linspace(c - h, c + h, 21) for c in best[1]])
    if fine[0] < best[0]:
        best = fine
    g = prob.g_basis.combine(best[1])
    return objective(prob, g), g


@pytest.mark.parametrize("k,resolution", [(1, 2001), (1, 10), (2, 101), (3, 37)])
@pytest.mark.parametrize("white", [False, True])
def test_oracle_matches_full_sweep_bits(k, resolution, white):
    for seed in range(4):
        m = 1 + seed
        prob = random_white_problem(3, k, m, seed) if white else random_gram_problem(5, k, m, seed)
        value, g = oracle_solve(prob, 1.5, resolution)
        ref_value, ref_g = full_sweep_oracle(prob, 1.5, resolution)
        assert value == ref_value
        assert np.array_equal(g, ref_g)


@pytest.mark.parametrize("batch", [None, 1])
@pytest.mark.parametrize("k,resolution", [(1, 64), (2, 11), (2, 101)])
def test_oracle_exact_tie_takes_lowest_index(k, resolution, batch, monkeypatch):
    # the first basis vector is b itself, which p_b cannot see: every value
    # along that axis ties exactly, and the lowest lattice index, -radius,
    # must win; along E1 the minimum is on the lattice, at 0.  With one
    # block per values call the tied blocks are met in separate calls, in
    # the order of their bounds rather than of their indices.
    if batch is not None:
        monkeypatch.setattr(approx, "_GRID_BATCH", batch)
    prob = gram_problem([[0.0, 0.5, 0.0], [0.0, -0.5, 0.0]], [E3, E1][:k])
    value, g = oracle_solve(prob, 1.0, resolution)
    ref_value, ref_g = full_sweep_oracle(prob, 1.0, resolution)
    assert value == ref_value
    assert np.array_equal(g, ref_g)
    assert g[2] == -1.0


# ---------------------------------------------------------------- blend


def test_blend_degenerate_pair():
    prob = gram_problem([[2, 0, 0], [0, 2, 0]], [E1, E2])
    g_star = solve(prob).g_star
    rep = blend_check(prob, g_star, g_star)
    assert rep.passed
    vals = [e.value for e in rep.entries]
    assert max(vals) - min(vals) <= 1e-12


def test_blend_endpoint_identity():
    prob = gram_problem([[2, 0, 0], [0, 2, 0]], [E1, E2])
    g1 = [1, 1, 0]
    g2 = [1.0000000001, 1, 0]
    rep = blend_check(prob, g1, g2, lambdas=[0.0, 1.0])
    assert rep.entries[0].value == objective(prob, g2)
    assert rep.entries[1].value == objective(prob, g1)


def test_blend_flat_face():
    # basis contains a direction collinear with b, so the objective is
    # constant along it and the optimal face is a segment
    prob = gram_problem([[0.5, 0.25, 0.8]], [E1, [0, 0, 0.5]])
    g1 = np.array([0.5, 0, 0])
    g2 = np.array([0.5, 0, 1.0])
    rep = blend_check(prob, g1, g2, tol=1e-9)
    assert rep.passed
    assert rep.value_g1 == pytest.approx(rep.value_g2, abs=1e-12)


def test_blend_rejects_unequal_endpoints():
    prob = gram_problem([[2, 0, 0], [0, 2, 0]], [E1, E2])
    with pytest.raises(ValueError, match="endpoints differ"):
        blend_check(prob, [1, 1, 0], [0, 0, 0])


def test_blend_rejects_lambda_outside_unit():
    prob = gram_problem([[2, 0, 0], [0, 2, 0]], [E1, E2])
    with pytest.raises(ValueError):
        blend_check(prob, [1, 1, 0], [1, 1, 0], lambdas=[-0.5])


# ---------------------------------------------------------------- certificate


def test_certificate_hand_example():
    cert = certificate(GRAM, [0, 1, 0], SubspaceBasis(GRAM, [E1]), E3)
    assert cert.delta == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(cert.functional, [0, 1, 0], atol=1e-12)
    snd = certificate_soundness(
        GRAM, cert, [0, 1, 0], SubspaceBasis(GRAM, [E1]), E3, samples=1000, seed=0
    )
    assert snd.passed
    assert snd.max_ratio <= (1.0 / cert.delta) * (1 + 1e-6)
    assert abs(snd.attained_ratio - 1.0 / cert.delta) <= 1e-4


def test_certificate_scaling():
    basis = SubspaceBasis(GRAM, [E1])
    c1 = certificate(GRAM, [0, 1, 0], basis, E3)
    c2 = certificate(GRAM, [0, 2, 0], basis, E3)
    assert c2.delta == pytest.approx(2 * c1.delta, rel=1e-12)
    assert np.allclose(c2.functional, 0.5 * np.asarray(c1.functional), atol=1e-12)


def test_certificate_normalization():
    rng = np.random.default_rng(31)
    for _ in range(10):
        x0 = rng.uniform(-1, 1, 3)
        u = rng.uniform(-1, 1, 3)
        b = rng.uniform(-1, 1, 3)
        basis = SubspaceBasis(GRAM, [u])
        delta, _ = distance_to_subspace(GRAM, x0, basis, b)
        if delta <= 1e-6:
            continue
        cert = certificate(GRAM, x0, basis, b)
        h = np.asarray(cert.functional)
        assert h @ x0 == pytest.approx(1.0, abs=1e-9)
        assert abs(h @ np.asarray(u, dtype=float)) <= 1e-9


def test_certificate_rejects_point_in_subspace():
    with pytest.raises(ValueError, match="too small"):
        certificate(GRAM, [2, 0, 0], SubspaceBasis(GRAM, [E1]), E3)


def test_certificate_soundness_rejects_no_samples():
    basis = SubspaceBasis(GRAM, [E1])
    cert = certificate(GRAM, [1, 1, 0], basis, E3)
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be a positive integer"):
            certificate_soundness(GRAM, cert, [1, 1, 0], basis, E3, samples=samples)


def test_white_certificates_are_sound():
    # h = M^T u / (u . M x0) from the l1 engine's dual, for every degree
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(
        degree=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1)
    )
    def check(degree, data, seed):
        k = data.draw(st.integers(0, degree - 1), label="k")
        rng = np.random.default_rng(seed)
        points = np.sort(rng.choice(1000, 2 * degree, replace=False)) / 999
        space = WhitePolynomial(degree, tuple(points))
        x0, b, *basis = rng.uniform(-1.0, 1.0, (2 + k, degree + 1))
        cert = certificate(space, x0, basis, b)
        snd = certificate_soundness(space, cert, x0, basis, b, samples=500, seed=seed)
        h = cert.functional
        assert snd.passed
        assert abs(h @ x0 - 1.0) <= 1e-9
        for g in basis:
            assert abs(h @ g) <= 1e-9 * np.linalg.norm(h) * np.linalg.norm(g)
        assert cert.delta == distance_to_subspace(space, x0, basis, b)[0]

    check()


# ---------------------------------------------------------------- uniqueness


def test_uniqueness_strictly_convex_1d():
    prob = gram_problem([[0.3, 0.9, 0.0]], [E1])
    rep = uniqueness_probe(prob, restarts=16)
    assert rep.distinct_optimizers == 1
    assert rep.spread < 1e-5


def test_uniqueness_midpoint_instance():
    prob = gram_problem([[2, 0, 0], [0, 2, 0]], [E1, E2])
    rep = uniqueness_probe(prob, restarts=16)
    assert rep.distinct_optimizers == 1
    assert rep.spread < 1e-5


def test_uniqueness_white_informational():
    prob = SimultaneousProblem(
        WHITE,
        targets=[[0, 1], [0, -1]],
        g_basis=SubspaceBasis(WHITE, [[0, 1]]),
        b=[1, 0],
    )
    rep = uniqueness_probe(prob, restarts=8)
    assert rep.distinct_optimizers >= 1
    assert len(rep.values) == 3


def test_uniqueness_l2_is_one_exact_solve():
    # strict convexity: the one solve is the unique minimizer
    for seed in range(4):
        prob = random_gram_problem(8, 3, 4, seed)
        rep = uniqueness_probe(prob, restarts=16)
        assert (rep.distinct_optimizers, rep.spread, rep.restarts) == (1, 0.0, 16)
        assert rep.values == [solve(prob).per_restart[0].value]


def test_uniqueness_requires_two_restarts():
    prob = gram_problem([[0.3, 0.9, 0.0]], [E1])
    with pytest.raises(ValueError):
        uniqueness_probe(prob, restarts=1)


# ---------------------------------------------------------------- properties


def test_lipschitz_bound():
    rng = np.random.default_rng(41)
    for space, d in ((GRAM, 3), (WhitePolynomial(2, (0.0, 0.2, 0.4, 0.6)), 3)):
        prob = SimultaneousProblem(
            space,
            targets=rng.uniform(-1, 1, (3, d)),
            g_basis=SubspaceBasis(space, np.eye(d)[:1]),
            b=rng.uniform(-1, 1, d),
        )
        for _ in range(200):
            g1 = rng.uniform(-2, 2, d)
            g2 = rng.uniform(-2, 2, d)
            lhs = abs(objective(prob, g1) - objective(prob, g2))
            rhs = seminorm_b(space, prob.b, g1 - g2)
            assert lhs <= rhs + 1e-9


def test_convexity_of_objective():
    rng = np.random.default_rng(42)
    prob = gram_problem(rng.uniform(-1, 1, (4, 3)), [E1, E2])
    for _ in range(200):
        g1 = rng.uniform(-2, 2, 3)
        g2 = rng.uniform(-2, 2, 3)
        lam = rng.uniform()
        mid = objective(prob, lam * g1 + (1 - lam) * g2)
        assert mid <= lam * objective(prob, g1) + (1 - lam) * objective(prob, g2) + 1e-9


def test_monotonicity_in_basis():
    rng = np.random.default_rng(43)
    space = EuclideanGram(5)
    for _ in range(10):
        targets = rng.uniform(-1, 1, (2, 5))
        b = rng.uniform(-1, 1, 5)
        v1 = rng.uniform(-1, 1, 5)
        v2 = rng.uniform(-1, 1, 5)
        small = SimultaneousProblem(space, targets, SubspaceBasis(space, [v1]), b)
        big = SimultaneousProblem(space, targets, SubspaceBasis(space, [v1, v2]), b)
        r_small, r_big = solve(small), solve(big)
        assert r_big.value <= r_small.value + small.solver.tol


def test_problem_validation():
    with pytest.raises(ValueError):
        gram_problem([], [E1])  # no targets
    with pytest.raises(ValueError):
        gram_problem([[1, 0, 0]], [E1], b=[0, 0, 0])  # zero b
    with pytest.raises(ValueError):
        SimultaneousProblem(GRAM, [[1, 0, np.inf]], SubspaceBasis(GRAM, [E1]), E3)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: SubspaceBasis(GRAM, [E1, [0, 1]]),
            "basis[1]: dimension mismatch, expected 3 coordinates, got shape (2,)",
        ),
        (lambda: SubspaceBasis(GRAM, [E1, [0, np.nan, 0]]), "basis[1]: coordinates must be finite"),
        (
            lambda: gram_problem([[1, 0, 0], [0, 1]], [E1]),
            "targets[1]: dimension mismatch, expected 3 coordinates, got shape (2,)",
        ),
        (lambda: gram_problem([[1, 0, 0], [0, 0, -np.inf]], [E1]), "targets[1]: coordinates must be finite"),
        (
            lambda: set_distance(GRAM, [[1, 0, 0], [[0, 1, 0]]], [E1], E3),
            "a_set[1]: dimension mismatch, expected 3 coordinates, got shape (1, 3)",
        ),
        (lambda: set_distance(GRAM, [[np.nan, 0, 0], [0, 1]], [E1], E3), "a_set[0]: coordinates must be finite"),
        (lambda: set_distance(GRAM, [], [E1], E3), "a_set must be nonempty"),
    ],
)
def test_row_list_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_objective_batch_matches_per_target_loop():
    # one two_norm_rows call over all targets; the per-target loop is the
    # reference, bit for bit on both spaces, rescaled residuals included
    for seed in range(200):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 17))
        k = int(rng.integers(0, min(d, 4)))
        m = int(rng.integers(1, 10))
        space = EuclideanGram(d)
        targets = rng.standard_normal((m, d)) * 10.0 ** rng.choice([-200, 0, 200])
        basis = np.linalg.qr(rng.standard_normal((d, max(k, 1))))[0].T[:k]
        prob = SimultaneousProblem(space, targets, SubspaceBasis(space, basis), rng.standard_normal(d))
        g = rng.standard_normal(k) @ basis
        ref = max(two_norm(space, f - g, prob.b) for f in prob.targets)
        assert objective(prob, g) == ref
    for seed in range(50):
        prob = random_white_problem(4, 2, 5, seed)
        g = np.random.default_rng(seed).standard_normal(2) @ prob.g_basis.matrix
        ref = max(two_norm(prob.space, f - g, prob.b) for f in prob.targets)
        assert objective(prob, g) == ref


# ---------------------------------------------------------------- exact l2 engine


def brute_force_optimum(targets, basis, b) -> float:
    """min over c of max_i p_b(f_i - B^T c), by enumerating supports.

    With y_i = |b| P f_i and A = |b| P B^T (P projects out b), the residuals
    are |y_i - A c|.  For every support S of at most k + 1 targets, solve the
    optimality conditions on S: equal residuals on S, and A^T (A c - sum_S
    lam_i y_i) = 0 with sum_S lam_i = 1.  Each candidate c is a feasible
    point, so its objective bounds the optimum from above, and the optimal
    support's candidate attains it: the minimum over candidates is the
    optimum.
    """
    T = np.asarray(targets, dtype=float)
    B = np.asarray(basis, dtype=float)
    b = np.asarray(b, dtype=float)
    P = np.eye(b.size) - np.outer(b, b) / (b @ b)
    Y = np.linalg.norm(b) * T @ P
    A = np.linalg.norm(b) * P @ B.T
    k, m = B.shape[0], T.shape[0]
    best = np.inf
    for size in range(1, min(m, k + 1) + 1):
        for S in itertools.combinations(range(m), size):
            ys = Y[list(S)]
            K = np.zeros((k + size, k + size))
            rhs = np.zeros(k + size)
            K[:k, :k] = A.T @ A
            K[:k, k:] = -(A.T @ ys.T)
            for t in range(1, size):
                K[k + t - 1, :k] = 2.0 * (ys[t] - ys[0]) @ A
                rhs[k + t - 1] = ys[t] @ ys[t] - ys[0] @ ys[0]
            K[-1, k:] = 1.0
            rhs[-1] = 1.0
            c = np.linalg.lstsq(K, rhs, rcond=None)[0][:k]
            best = min(best, float(np.sqrt(np.sum((Y - c @ A.T) ** 2, axis=1)).max()))
    return best


def random_gram_problem(d, k, m, seed, **solver_kw):
    rng = np.random.default_rng([seed, d, k, m])
    space = EuclideanGram(d)
    basis = np.linalg.qr(rng.standard_normal((d, k)))[0].T
    targets = rng.uniform(-1, 1, (m, d))
    b = rng.standard_normal(d)
    return SimultaneousProblem(
        space, targets, SubspaceBasis(space, basis), b,
        solver=SolverConfig(**solver_kw) if solver_kw else None,
    )


@pytest.mark.parametrize("d,k,m", [(8, 3, 4), (8, 4, 3), (16, 6, 8)])
def test_solve_three_or_more_ties_is_exact(d, k, m):
    # k >= 2 and m >= 3: three or more targets tie at the optimum
    for seed in range(8):
        prob = random_gram_problem(d, k, m, seed)
        rep = solve(prob)
        opt = brute_force_optimum(prob.targets, prob.g_basis.matrix, prob.b)
        assert abs(rep.value - opt) <= 1e-12 * (1.0 + opt)
        for r in rep.per_restart:
            assert r.converged
            assert abs(r.value - opt) <= 1e-12 * (1.0 + opt)


@pytest.mark.parametrize("d,k,m", [(8, 1, 6), (12, 2, 9)])
def test_solve_dependent_support_is_exact(d, k, m):
    # many targets in few dimensions: adding a target to a support of k + 1
    # points makes it affinely dependent, so the engine steps along a null
    # direction of the support
    for seed in range(8):
        prob = random_gram_problem(d, k, m, seed)
        rep = solve(prob)
        opt = brute_force_optimum(prob.targets, prob.g_basis.matrix, prob.b)
        for r in rep.per_restart:
            assert r.converged
            assert abs(r.value - opt) <= 1e-12 * (1.0 + opt)


def test_solve_barely_violated_target():
    # from starts away from the origin the first ball is the segment between
    # the outer targets, which the middle target exceeds by 0.04 % only
    prob = gram_problem([[-1, 0, 0], [1, 0, 0], [0, 1.0004, 0]], [E1])
    rep = solve(prob)
    for r in rep.per_restart:
        assert r.converged
        assert r.value == pytest.approx(1.0004, rel=1e-12)


def test_solve_permutation_invariant():
    for seed in range(5):
        prob = random_gram_problem(10, 3, 5, seed)
        order = np.random.default_rng(seed).permutation(5)
        shuffled = SimultaneousProblem(prob.space, prob.targets[order], prob.g_basis, prob.b)
        assert solve(shuffled).value == pytest.approx(solve(prob).value, rel=1e-12)


@pytest.mark.parametrize("alpha", [-2.5, 1e-3, 1e4])
def test_solve_scales_with_targets_and_basis(alpha):
    for seed in range(3):
        prob = random_gram_problem(8, 3, 4, seed)
        scaled = SimultaneousProblem(
            prob.space,
            alpha * prob.targets,
            SubspaceBasis(prob.space, alpha * prob.g_basis.matrix),
            prob.b,
        )
        assert solve(scaled).value == pytest.approx(abs(alpha) * solve(prob).value, rel=1e-12)


def test_converged_l2_restarts_meet_certified_gap():
    # a converged restart certifies value - optimum <= tol * (1 + value);
    # small pivot budgets leave some restarts short of the optimum
    converged = unconverged = 0
    for seed in range(6):
        for max_iters in (1, 2, 3, 20000):
            prob = random_gram_problem(10, 3, 5, seed, max_iters=max_iters)
            opt = brute_force_optimum(prob.targets, prob.g_basis.matrix, prob.b)
            rep = solve(prob)
            for r in rep.per_restart:
                assert r.iterations <= max_iters
                if r.converged:
                    converged += 1
                    assert r.value - opt <= prob.solver.tol * (1.0 + r.value)
                else:
                    unconverged += 1
    assert converged and unconverged


# ---------------------------------------------------------------- exact l1 engine


def white_map(space, b):
    """Matrix W with p_b(u) = |W u|_1, built from the White definition:
    row k is u -> u(t_k) b'(t_k) - u'(t_k) b(t_k)."""
    t = np.asarray(space.points)
    V = np.vander(t, space.degree + 1, increasing=True)
    Vd = np.hstack([np.zeros((t.size, 1)), V[:, :-1] * np.arange(1, space.degree + 1)])
    return V * (Vd @ b)[:, None] - Vd * (V @ b)[:, None]


def lp_optimum(prob) -> float:
    """min over c of max_i |W (f_i - B^T c)|_1 as an LP solved by HiGHS: free
    c, slacks s_ij >= |r_ij| and a level t >= sum_j s_ij for every target."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    W = white_map(prob.space, prob.b)
    F = prob.targets @ W.T
    G = prob.g_basis.matrix @ W.T
    (m, n), k = F.shape, G.shape[0]
    nv = k + m * n + 1
    rows, rhs = [], []
    for i in range(m):
        for j in range(n):
            s = np.zeros(nv)
            s[k + i * n + j] = -1.0
            for sign in (1.0, -1.0):
                row = s.copy()
                row[:k] = -sign * G[:, j]
                rows.append(row)
                rhs.append(-sign * F[i, j])
        level = np.zeros(nv)
        level[k + i * n : k + (i + 1) * n] = 1.0
        level[-1] = -1.0
        rows.append(level)
        rhs.append(0.0)
    cost = np.zeros(nv)
    cost[-1] = 1.0
    bounds = [(None, None)] * k + [(0.0, None)] * (m * n + 1)
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(np.abs(F - res.x[:k] @ G).sum(axis=1).max())


def random_white_problem(degree, k, m, seed, **solver_kw):
    rng = np.random.default_rng([seed, degree, k, m])
    n = 2 * degree
    space = WhitePolynomial(degree, tuple((np.arange(n) + rng.uniform(0.1, 0.9, n)) / n))
    d = degree + 1
    return SimultaneousProblem(
        space,
        rng.standard_normal((m, d)),
        SubspaceBasis(space, rng.standard_normal((k, d))),
        rng.standard_normal(d),
        solver=SolverConfig(**solver_kw) if solver_kw else None,
    )


@pytest.mark.parametrize(
    "degree,k,m", [(5, 2, 1), (5, 3, 1), (6, 2, 1), (6, 3, 1), (4, 2, 2), (6, 2, 4)]
)
def test_white_solve_matches_lp(degree, k, m):
    # k >= 2 with one target, and k = 2 with two or four: several basis
    # directions and tied residuals at the optimum; every restart must reach
    # the LP optimum
    for seed in range(6):
        prob = random_white_problem(degree, k, m, seed)
        opt = lp_optimum(prob)
        rep = solve(prob)
        assert rep.converged
        assert abs(rep.value - opt) <= 1e-9 * (1.0 + opt)
        for r in rep.per_restart:
            assert r.converged
            assert abs(r.value - opt) <= 1e-9 * (1.0 + opt)


@pytest.mark.parametrize(
    "alpha,beta,gamma", [(1e-8, 1, 1), (1e8, 1, 1), (1, 1e-6, 1), (1, 1e6, 1), (1, 1, 1e5)]
)
def test_white_solve_scales(alpha, beta, gamma):
    # targets scaled by alpha and b by gamma scale the value by |alpha gamma|;
    # scaling the basis by beta changes nothing but the pivots' arithmetic
    for shape in ((6, 3, 1), (4, 2, 2)):
        for seed in range(4):
            prob = random_white_problem(*shape, seed)
            scaled = SimultaneousProblem(
                prob.space,
                alpha * prob.targets,
                SubspaceBasis(prob.space, beta * prob.g_basis.matrix),
                gamma * prob.b,
            )
            expected = alpha * gamma * solve(prob).value
            rep = solve(scaled)
            assert rep.value == pytest.approx(expected, rel=1e-9, abs=0)
            for r in rep.per_restart:
                assert r.converged
                assert r.value >= expected * (1.0 - 1e-12)
                assert r.value - expected <= scaled.solver.tol * (1.0 + r.value)


def test_white_distance_and_set_distance_match_lp():
    for seed in range(4):
        prob = random_white_problem(6, 3, 1, seed)
        delta, w_star = distance_to_subspace(
            prob.space, prob.targets[0], prob.g_basis, prob.b
        )
        opt = lp_optimum(prob)
        assert abs(delta - opt) <= 1e-9 * (1.0 + opt)
        assert objective(prob, w_star) == pytest.approx(delta, rel=1e-12)
        prob = random_white_problem(5, 2, 3, seed)
        val = set_distance(prob.space, prob.targets, prob.g_basis, prob.b)
        assert abs(val - lp_optimum(prob)) <= 1e-9 * (1.0 + val)


WHITE3 = WhitePolynomial(3, (0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
WHITE3_BASIS = SubspaceBasis(WHITE3, [[1, 0, 0, 0], [0, 1, 1, 0]])


def degenerate_white_cases():
    f = np.array([0.3, -1.0, 0.5, 2.0])
    inside = 2.0 * WHITE3_BASIS.matrix[0] - WHITE3_BASIS.matrix[1]
    grid = WhitePolynomial(4, tuple(np.arange(8) / 8))
    return {
        "target_in_G": ([inside], WHITE3_BASIS, [0, 0, 1, 1]),
        "symmetric_pair": ([f, -f], WHITE3_BASIS, [0, 0, 1, 1]),
        "duplicates": ([f, f, f], WHITE3_BASIS, [0, 0, 1, 1]),
        # integer data on grid points: many residual entries tie or vanish
        "integer_grid": (
            [[1, 0, 0, 1, 0], [0, 1, 0, -1, 1]],
            SubspaceBasis(grid, [[1, 1, 0, 0, 0], [0, 1, -1, 0, 0]]),
            [0, 0, 0, 1, 1],
        ),
    }


@pytest.mark.parametrize("case", sorted(degenerate_white_cases()))
def test_white_degenerate_inputs_converge(case):
    targets, basis, b = degenerate_white_cases()[case]
    prob = SimultaneousProblem(basis.space, targets, basis, b)
    rep = solve(prob)
    assert rep.converged
    assert all(r.converged for r in rep.per_restart)
    if case == "target_in_G":
        expected = 0.0
    elif case == "symmetric_pair":
        # 2 p_b(f) <= p_b(f - g) + p_b(f + g), so g = 0 is optimal
        expected = seminorm_b(prob.space, b, targets[0])
    elif case == "duplicates":
        expected, _ = distance_to_subspace(prob.space, targets[0], basis, b)
    else:
        expected = lp_optimum(prob)
    assert rep.value == pytest.approx(expected, rel=1e-12, abs=1e-12)
    for r in rep.per_restart:
        assert r.value == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_converged_white_restarts_meet_certified_gap():
    # the pivot budget caps every restart; a converged restart certifies
    # value - optimum <= tol * (1 + value)
    converged = unconverged = 0
    for seed in range(4):
        for max_iters in (1, 2, 3, 5, 20000):
            prob = random_white_problem(5, 2, 2, seed, max_iters=max_iters)
            opt = lp_optimum(prob)
            for r in solve(prob).per_restart:
                assert r.iterations <= max_iters
                if r.converged:
                    converged += 1
                    assert r.value - opt <= prob.solver.tol * (1.0 + r.value)
                else:
                    unconverged += 1
    assert converged and unconverged


def test_white_uniqueness_finds_flat_face():
    # with b = 1 the seminorm is sum_k |u'(t_k)|, so the objective at g = c g1
    # is |c - 1| + |c - 1.5| + |c - 2| + |c - 2.5|: flat at 2 on [1.5, 2];
    # the face's two vertices, c = 1.5 and c = 2, are 2 apart
    space = WhitePolynomial(2, (0.0, 0.25, 0.5, 0.75))
    prob = SimultaneousProblem(space, [[-1, -1, -1]], [[-1, -1, 0]], [1, 0, 0])
    rep = uniqueness_probe(prob, restarts=8)
    assert rep.distinct_optimizers == 2
    assert rep.spread == pytest.approx(2.0, rel=1e-12)
    assert all(v == pytest.approx(2.0, rel=1e-12) for v in rep.values)


def test_white_uniqueness_face_missed_by_sampling():
    # an optimal segment of p_b-length 22.526218 (both ends optimal by HiGHS)
    # that 16 restarts all missed, reporting one optimizer
    prob = random_white_problem(4, 2, 2, 3)
    rep = uniqueness_probe(prob, restarts=16)
    assert rep.distinct_optimizers == 2
    assert rep.spread == pytest.approx(22.526218, rel=1e-6)
    value = solve(prob).value
    assert all(v == pytest.approx(value, rel=1e-12) for v in rep.values)


def lp_face(prob):
    """Min and max of each coefficient c_j over the optimal set, by HiGHS:
    the LP of :func:`lp_optimum` with its level capped at v*.

    v* is the objective at HiGHS's optimal point, so it is not below the
    optimum.  No slack is added: a cap of v* (1 + eps) widens the set along
    a shallow direction by about eps v* / slope, which reached 8e-8 relative
    at eps = 1e-10 on these problems and would hide the engine's error."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    cap = lp_optimum(prob)
    W = white_map(prob.space, prob.b)
    F = prob.targets @ W.T
    G = prob.g_basis.matrix @ W.T
    (m, n), k = F.shape, G.shape[0]
    nv = k + m * n
    rows, rhs = [], []
    for i in range(m):
        for j in range(n):
            s = np.zeros(nv)
            s[k + i * n + j] = -1.0
            for sign in (1.0, -1.0):
                row = s.copy()
                row[:k] = -sign * G[:, j]
                rows.append(row)
                rhs.append(-sign * F[i, j])
        level = np.zeros(nv)
        level[k + i * n : k + (i + 1) * n] = 1.0
        rows.append(level)
        rhs.append(cap)
    bounds = [(None, None)] * k + [(0.0, None)] * (m * n)
    out = []
    for j in range(k):
        for sign in (1.0, -1.0):
            cost = np.zeros(nv)
            cost[j] = sign
            res = linprog(
                cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs"
            )
            assert res.status == 0, res.message
            out.append(res.x[j])
    return np.array(out)


@pytest.mark.parametrize(
    "degree,k,m,seeds", [(4, 2, 2, range(6)), (5, 2, 3, range(7)), (6, 3, 1, range(3))]
)
def test_white_face_extremes_match_lp(degree, k, m, seeds):
    # the second simplex stage reaches the extreme points of the optimal face
    # along every axis: flat faces (4, 2, 2) seeds 1 and 3, (5, 2, 3) seeds 1,
    # 4, 5 and 6, and unique optima alike
    for seed in seeds:
        prob = random_white_problem(degree, k, m, seed)
        expected = lp_face(prob)
        points = _engine(
            prob.space, prob.targets, prob.g_basis.matrix, prob.b, prob.solver, face=True
        )
        got = np.array([points[1 + 2 * j + r].coeffs[j] for j in range(k) for r in (0, 1)])
        assert np.all(np.abs(got - expected) <= 1e-9 * np.maximum(1.0, np.abs(expected)))


# ---------------------------------------------------------------- extreme scales


def test_solve_tiny_targets():
    prob = gram_problem([[1e-200, 0, 0], [0, 1e-200, 0]], [E1])
    rep = solve(prob)
    assert rep.converged
    assert rep.value == pytest.approx(1e-200, rel=1e-12, abs=0)
    for r in rep.per_restart:
        assert r.value == pytest.approx(1e-200, rel=1e-12, abs=0)


def test_huge_basis_vector_is_independent():
    prob = gram_problem([[1, 1, 0], [1, -1, 0]], [[1e160, 0, 0]])
    assert prob.b_independent
    rep = solve(prob)
    assert rep.value == pytest.approx(1.0, rel=1e-12)
    assert rep.g_star == pytest.approx([1.0, 0.0, 0.0], rel=1e-12)


def test_basis_conditioning_ignores_k():
    # det(unit Gram) is the product of all k squared singular values and
    # rejected these well-conditioned bases; the singular-value ratio does not
    rng = np.random.default_rng(0)
    basis = SubspaceBasis(EuclideanGram(48), rng.standard_normal((44, 48)))
    assert basis.k == 44
    square = rng.standard_normal((32, 32))
    u, _, vt = np.linalg.svd(square)
    SubspaceBasis(EuclideanGram(32), u @ np.diag(np.geomspace(1.0, 87.0, 32)) @ vt)


@pytest.mark.parametrize("sin_theta, accepted", [(2e-6, True), (5e-7, False)])
def test_basis_pair_threshold(sin_theta, accepted):
    # for k = 2 the ratio is tan(theta / 2): the det(unit Gram) <= 1e-12
    # boundary of sin(theta) = 1e-6 stays where it was
    rng = np.random.default_rng(11)
    pair = np.array([[1.0, 0.0, 0.0], [math.sqrt(1.0 - sin_theta**2), sin_theta, 0.0]])
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rows = (pair @ q.T) * rng.uniform(1e-3, 1e3, (2, 1))
        if accepted:
            assert SubspaceBasis(GRAM, rows).k == 2
        else:
            with pytest.raises(
                ValueError,
                match=r"^basis vectors are numerically linearly dependent "
                r"\(singular-value ratio 2\.5e-07 <= 5e-07\)$",
            ):
                SubspaceBasis(GRAM, rows)


def test_basis_duplicates_and_zero_rows():
    with pytest.raises(ValueError, match="dependent"):
        SubspaceBasis(GRAM, [[0.3, -1.0, 2.0], [0.3, -1.0, 2.0]])
    with pytest.raises(ValueError, match="dependent"):
        SubspaceBasis(GRAM, [E1, E2, E3, [1, 1, 1]])
    with pytest.raises(ValueError, match="zero vector"):
        SubspaceBasis(GRAM, [E1, [0, 0, 0]])


# ---------------------------------------------------------------- one range rule

TOP_TARGETS = [[1e308, 0, 0, 0], [0, 1, 0, 0]]
TOP_WHITE = WhitePolynomial(3, (0.0, 0.2, 0.4, 0.6, 0.8, 1.0))


def test_euclid_engine_at_the_top_of_the_float_range():
    # the old rescale of Y by its peak raised OverflowError on these targets
    space, basis, b = EuclideanGram(4), [[0, 0, 1, 0]], [0, 0, 0, 1]
    rep = solve(SimultaneousProblem(space, TOP_TARGETS, basis, b))
    assert rep.converged and rep.value == pytest.approx(1e308, rel=1e-12)
    assert np.all(rep.g_star == 0.0)
    delta, w = distance_to_subspace(space, TOP_TARGETS[0], basis, b)
    assert delta == pytest.approx(1e308, rel=1e-12) and np.all(w == 0.0)
    assert uniqueness_probe(SimultaneousProblem(space, TOP_TARGETS, basis, b)).values == [rep.value]


def test_white_engine_at_the_top_of_the_float_range():
    # targets @ M^T overflowed, so the solve returned no optimum (an argmin
    # of an empty sequence) and the distance a NaN; the true values exceed
    # the largest float, which is now the named error
    basis, b = [[0, 0, 1, 0]], [0, 0, 0, 1]
    prob = SimultaneousProblem(TOP_WHITE, TOP_TARGETS, basis, b)
    beyond = r"^the optimal value is 10\^308\.\d\d, beyond the largest float \(10\^308\.25\)$"
    for call in (
        lambda: solve(prob),
        lambda: uniqueness_probe(prob),
        lambda: distance_to_subspace(TOP_WHITE, TOP_TARGETS[0], basis, b),
    ):
        with pytest.raises(ValueError, match=beyond):
            call()
    # a tenth of that scale is finite, and the rule divides by a power of two
    scaled = SimultaneousProblem(TOP_WHITE, np.array(TOP_TARGETS) * [[0.1], [1]], basis, b)
    unit = SimultaneousProblem(TOP_WHITE, [[1, 0, 0, 0], [0, 1e-308, 0, 0]], basis, b)
    assert solve(scaled).value == pytest.approx(1e307 * solve(unit).value, rel=1e-12)


@pytest.mark.parametrize("space", [EuclideanGram(4), TOP_WHITE])
@pytest.mark.parametrize("a", [-600, -300, 300, 600])
def test_engines_scale_with_targets_and_b(space, a):
    # value(2^a f, 2^-a/2 b) = 2^(a/2) value(f, b), and the optimum scales
    # with the targets whatever the length of the basis vectors
    rng = np.random.default_rng(abs(a))
    targets, basis, b = rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 4)
    scaled = np.ldexp(targets, a), np.ldexp(basis, -(a // 4)), np.ldexp(b, -(a // 2))
    unit = solve(SimultaneousProblem(space, targets, basis, b))
    big = solve(SimultaneousProblem(space, *scaled))
    assert big.converged == unit.converged
    assert big.value == pytest.approx(math.ldexp(unit.value, a - a // 2), rel=1e-9)
    assert np.allclose(np.ldexp(big.g_star, -a), unit.g_star, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("space", [GRAM, WhitePolynomial(2, (0.0, 0.3, 0.7, 1.0))])
@pytest.mark.parametrize("tiny", [1e-200, 1e-300])
def test_zero_target_beside_tiny_targets(space, tiny):
    # the zero target's power of two (none) must not hide the tiny one's:
    # unscaled, its squares underflow and the l2 solve stops at c = 0
    targets, basis, b = np.array([[0, 0, 0], [2 * tiny, tiny, 0]]), [E1], E3
    a = -math.frexp(tiny)[1]  # 2^a tiny is of order one
    small = SimultaneousProblem(space, targets, basis, b)
    unit = solve(SimultaneousProblem(space, np.ldexp(targets, a), basis, b))
    rep = solve(small)
    assert rep.converged and unit.converged
    assert rep.value == math.ldexp(unit.value, -a)
    assert np.array_equal(rep.g_star, np.ldexp(unit.g_star, -a))
    assert uniqueness_probe(small).values[0] == rep.per_restart[0].value
    if space.norm_ord == 2:  # c = 1.25 tiny balances |c| and |(2 tiny - c, tiny)|
        assert rep.value == pytest.approx(1.25 * tiny, rel=1e-12)
        assert rep.g_star == pytest.approx([1.25 * tiny, 0, 0], rel=1e-12)


@pytest.mark.parametrize("space", [GRAM, WhitePolynomial(2, (0.0, 0.3, 0.7, 1.0))])
def test_tiny_targets_against_a_huge_basis(space):
    # the optimal coefficient, 1.25 * 2^-1200 on EuclideanGram, underflowed
    # to 0, so solve reported g* = 0 and the value 5.39e-181 with converged
    # true; the optimum is now formed from the scaled coefficients and basis
    # and is 2^-600 times that of the unit problem, which has the same span
    targets, basis = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]]), np.array([E1], dtype=float)
    tiny = SimultaneousProblem(space, np.ldexp(targets, -600), np.ldexp(basis, 600), E3)
    unit = solve(SimultaneousProblem(space, targets, basis, E3))
    rep = solve(tiny)
    assert rep.converged and unit.converged
    assert rep.value == math.ldexp(unit.value, -600)
    assert np.array_equal(rep.g_star, np.ldexp(unit.g_star, -600))
    assert uniqueness_probe(tiny).values[0] == rep.per_restart[0].value
    _, w = distance_to_subspace(space, tiny.targets[0], tiny.g_basis, E3)
    assert np.array_equal(w, np.ldexp(distance_to_subspace(space, targets[0], basis, E3)[1], -600))
    if space.norm_ord == 2:
        assert rep.value == pytest.approx(1.25 * 2.0**-600, rel=1e-12)
        assert rep.g_star == pytest.approx([1.25 * 2.0**-600, 0, 0], rel=1e-12)


@pytest.mark.parametrize("x0", [[1e155, 0, 0], [1e-160, 0, 0]])
def test_certificate_at_extreme_x0(x0):
    # r @ x0 overflowed to a zero functional (1e155), and the absolute
    # cutoff refused a distance of 1.118e-160 as too small
    basis, b = SubspaceBasis(GRAM, [E3]), [0, 1, 0.5]
    cert = certificate(GRAM, x0, basis, b)
    assert cert.delta == pytest.approx(1.25**0.5 * x0[0], rel=1e-12)
    assert cert.functional[0] == pytest.approx(1.0 / x0[0], rel=1e-12)
    assert certificate_soundness(GRAM, cert, x0, basis, b, samples=300).passed


@pytest.mark.parametrize("a", [500, -500])
def test_certificate_power_of_two_rescaling(a):
    # the certificate of 2^a x0 is that of x0 with h times 2^-a and delta
    # times 2^a, to the bit, and the soundness verdict does not move
    rng = np.random.default_rng(8)
    for x0 in [np.array([1e155, 0, 0]), np.array([3.0, 0.7, -1.1]), *rng.uniform(-1, 1, (6, 3))]:
        basis, b = SubspaceBasis(GRAM, [rng.uniform(-1, 1, 3)]), rng.uniform(-1, 1, 3)
        if distance_to_subspace(GRAM, x0, basis, b)[0] <= 1e-6:
            continue
        c1, c2 = certificate(GRAM, x0, basis, b), certificate(GRAM, np.ldexp(x0, a), basis, b)
        assert np.array_equal(c2.functional, np.ldexp(c1.functional, -a))
        assert c2.delta == math.ldexp(c1.delta, a)
        s1 = certificate_soundness(GRAM, c1, x0, basis, b, samples=200)
        s2 = certificate_soundness(GRAM, c2, np.ldexp(x0, a), basis, b, samples=200)
        assert s1.passed and s2.passed
        assert s2.max_ratio == math.ldexp(s1.max_ratio, -a)


def test_certificate_relative_cutoff():
    # x0 at 1e-12 of the subspace's reach modulo b, at any scale
    basis = SubspaceBasis(GRAM, [E1])
    for scale in (1.0, 1e-200, 1e200):
        with pytest.raises(ValueError, match="is too small; x0 lies in the subspace modulo b"):
            certificate(GRAM, [scale, 1e-12 * scale, 0], basis, E3)
