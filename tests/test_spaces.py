"""Norm evaluation and axiom sweep tests for both concrete spaces."""

import numpy as np
import pytest

from pairnorm import (
    EuclideanGram,
    WhitePolynomial,
    check_axioms,
    dependent_triple_check,
    element_dim,
    seminorm_b,
    seminorm_map,
    shift_identity_check,
    two_norm,
    two_norm_rows,
)
from pairnorm.spaces import _BLOCK_ROWS, _euclid_rows

GRAM = EuclideanGram(3)
WHITE1 = WhitePolynomial(1, (0.0, 1.0))
WHITE2 = WhitePolynomial(2, (0.0, 0.2, 0.4, 0.6))


def test_gram_unit_square():
    assert two_norm(GRAM, [1, 0, 0], [0, 1, 0]) == 1.0


def test_gram_dependent_pair_is_zero():
    assert two_norm(GRAM, [1, 2, 3], [2, 4, 6]) == 0.0


def test_gram_scaling():
    assert two_norm(GRAM, [1, 0, 0], [0, 3, 0]) == pytest.approx(3.0, rel=1e-12)


def test_white_linear_vs_constant():
    # f(t)=t, g(t)=1: |t*0 - 1*1| = 1 at each of the two points
    assert two_norm(WHITE1, [0, 1], [1, 0]) == pytest.approx(2.0, rel=1e-12)


def test_white_dependent_pair_is_zero():
    assert two_norm(WHITE2, [1, 2, 3], [2, 4, 6]) <= 1e-12


def test_seminorm_orthonormal_pair():
    assert seminorm_b(GRAM, [0, 0, 1], [0, 1, 0]) == pytest.approx(1.0, rel=1e-12)


def test_seminorm_vanishes_on_span_b():
    assert seminorm_b(GRAM, [0, 0, 1], [0, 0, 5]) == 0.0


def test_seminorm_projection_length():
    # component of (3,4,7) orthogonal to e3 has length 5
    assert seminorm_b(GRAM, [0, 0, 1], [3, 4, 7]) == pytest.approx(5.0, rel=1e-12)


def test_seminorm_rejects_zero_direction():
    with pytest.raises(ValueError):
        seminorm_b(GRAM, [0, 0, 0], [1, 2, 3])


def test_seminorm_map_matches_two_norm():
    rng = np.random.default_rng(5)
    for space in (GRAM, WHITE2):
        d = element_dim(space)
        b = rng.uniform(-1, 1, d)
        M = seminorm_map(space, b)
        ord_ = 2 if isinstance(space, EuclideanGram) else 1
        for _ in range(50):
            x = rng.uniform(-1, 1, d)
            via_map = np.linalg.norm(M @ x, ord=ord_)
            assert via_map == pytest.approx(two_norm(space, x, b), abs=1e-10)


def test_element_validation():
    with pytest.raises(ValueError, match="dimension mismatch"):
        two_norm(GRAM, [1, 0], [0, 1, 0])
    with pytest.raises(ValueError, match="finite"):
        two_norm(GRAM, [1, 0, np.nan], [0, 1, 0])


def test_space_validation():
    with pytest.raises(ValueError):
        EuclideanGram(1)
    with pytest.raises(ValueError):
        WhitePolynomial(1, (0.0, 0.0))  # duplicate points
    with pytest.raises(ValueError):
        WhitePolynomial(1, (0.0, 1.5))  # outside [0, 1]
    with pytest.raises(ValueError):
        WhitePolynomial(2, (0.0, 0.5, 1.0))  # needs 2n points


def test_batch_rows_shape():
    X = np.eye(3)
    Y = np.roll(np.eye(3), 1, axis=0)
    out = two_norm_rows(GRAM, X, Y)
    assert out.shape == (3,)
    assert np.allclose(out, 1.0)


def test_symmetry_is_exact():
    rng = np.random.default_rng(11)
    for space in (GRAM, WHITE2):
        d = element_dim(space)
        X = rng.uniform(-1, 1, (300, d))
        Y = rng.uniform(-1, 1, (300, d))
        fwd = two_norm_rows(space, X, Y)
        bwd = two_norm_rows(space, Y, X)
        assert np.array_equal(fwd, bwd)


def test_homogeneity_both_slots():
    rng = np.random.default_rng(12)
    for space in (GRAM, WHITE2):
        d = element_dim(space)
        for _ in range(100):
            x = rng.uniform(-1, 1, d)
            y = rng.uniform(-1, 1, d)
            a = rng.uniform(-2, 2)
            base = two_norm(space, x, y)
            assert two_norm(space, a * x, y) == pytest.approx(abs(a) * base, abs=1e-12)
            assert two_norm(space, x, a * y) == pytest.approx(abs(a) * base, abs=1e-12)


def test_triangle_inequality_first_slot():
    rng = np.random.default_rng(13)
    for space in (GRAM, WHITE2):
        d = element_dim(space)
        X1 = rng.uniform(-1, 1, (500, d))
        X2 = rng.uniform(-1, 1, (500, d))
        Y = rng.uniform(-1, 1, (500, d))
        lhs = two_norm_rows(space, X1 + X2, Y)
        rhs = two_norm_rows(space, X1, Y) + two_norm_rows(space, X2, Y)
        assert np.all(lhs <= rhs + 1e-9)


def test_dependent_pairs_stay_tiny():
    rng = np.random.default_rng(14)
    for space in (GRAM, WHITE2):
        d = element_dim(space)
        X = rng.uniform(-1, 1, (500, d))
        beta = rng.uniform(-1, 1, 500)
        vals = two_norm_rows(space, X, beta[:, None] * X)
        assert vals.max() <= 1e-9


def test_axiom_sweep_gram_clean():
    report = check_axioms(GRAM, 1000, seed=0, tol=1e-9)
    assert report.passed
    assert report.counts == {
        "N1_dependent_zero": 0,
        "N2_symmetry": 0,
        "N3_homogeneity": 0,
        "N4_triangle": 0,
        "shift_invariance": 0,
    }


def test_axiom_sweep_white_clean():
    report = check_axioms(WHITE2, 1000, seed=0, tol=1e-9)
    assert report.passed
    assert not report.violations


def test_axiom_sweep_is_seeded():
    a = check_axioms(GRAM, 200, seed=42)
    b = check_axioms(GRAM, 200, seed=42)
    assert a.to_dict() == b.to_dict()


def test_corrupted_norm_breaks_triangle():
    # fault injection: flip the sign of the first point's contribution in
    # the polynomial sum; the sweep must flag N4 violations
    def corrupt(X, Y):
        clean = two_norm_rows(WHITE2, X, Y)
        V = np.vander(np.array(WHITE2.points), WHITE2.degree + 1, increasing=True)
        Vd = np.zeros_like(V)
        Vd[:, 1:] = V[:, :-1] * np.arange(1, WHITE2.degree + 1)
        fv, fd = np.atleast_2d(X) @ V.T, np.atleast_2d(X) @ Vd.T
        gv, gd = np.atleast_2d(Y) @ V.T, np.atleast_2d(Y) @ Vd.T
        first = np.abs(fv * gd - fd * gv)[:, 0]
        return clean - 2.0 * first

    report = check_axioms(WHITE2, 500, seed=0, norm_fn=corrupt)
    assert not report.passed
    assert report.counts["N4_triangle"] >= 1
    assert any(v.check == "N4_triangle" for v in report.violations)


def test_violation_report_carries_witness():
    def negate(X, Y):
        return -two_norm_rows(GRAM, X, Y)

    report = check_axioms(GRAM, 50, seed=3, norm_fn=negate)
    assert not report.passed
    v = report.violations[0]
    d = v.to_dict()
    assert set(d) == {"check", "index", "detail"}
    assert d["detail"]  # witnessing tuple recorded


def test_shift_identity_sweep():
    for space in (GRAM, WHITE2):
        report = shift_identity_check(space, 1000, seed=0, tol=1e-9)
        assert report.passed, report.violations[:3]


def test_dependent_triple_sweep():
    for space in (GRAM, WHITE2):
        report = dependent_triple_check(space, 1000, seed=0, tol=1e-9)
        assert report.passed, report.violations[:3]
        assert report.branch_plus + report.branch_minus + report.branch_both == 1000
        # both branches of the disjunction must actually occur
        assert report.branch_plus > 0
        assert report.branch_minus > 0


def test_triple_sweep_to_dict_roundtrip():
    report = dependent_triple_check(GRAM, 100, seed=1)
    d = report.to_dict()
    assert d["passed"] is True
    assert d["branch_plus"] + d["branch_minus"] + d["branch_both"] == 100


def test_gram_extreme_scales():
    tiny = two_norm(GRAM, [1e-200, 0, 0], [0, 1, 0])
    assert tiny == pytest.approx(1e-200, rel=1e-12, abs=0)
    assert two_norm(GRAM, [1e160, 0, 0], [0, 1e-160, 0]) == pytest.approx(1.0, rel=1e-12)
    assert two_norm(GRAM, [1e200, 1e200, 0], [3e-200, 0, 0]) == pytest.approx(3.0, rel=1e-12)
    assert two_norm(GRAM, [0, 0, 0], [1e200, 0, 0]) == 0.0
    # one row against many, as in the batch form
    out = two_norm_rows(GRAM, [[0, 0, 1e-200]], [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert out == pytest.approx([1e-200, 2e-200, 0.0], rel=1e-12, abs=0)


# The blocked EuclideanGram kernel against one unblocked call of its body.

BLOCK_NS = [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1, 100_000]


@pytest.mark.parametrize("d", [2, 8, 16])
@pytest.mark.parametrize("n", BLOCK_NS)
def test_blocked_kernel_keeps_bits(n, d):
    rng = np.random.default_rng(n * 31 + d)
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, d))
    space = EuclideanGram(d)
    assert np.array_equal(two_norm_rows(space, X, Y), _euclid_rows(X, Y))
    # one row against every row of the other operand, in either slot
    y = Y[:1]
    assert np.array_equal(two_norm_rows(space, X, y), _euclid_rows(X, y))
    assert np.array_equal(two_norm_rows(space, y, X), _euclid_rows(y, X))


@pytest.mark.parametrize("d", [2, 8, 16])
def test_blocked_kernel_rescaled_rows_at_block_edges(d):
    n = 2 * _BLOCK_ROWS + 3
    rng = np.random.default_rng(d)
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, d))
    # tiny, huge and exactly zero rows on both sides of each block boundary
    for edge in (_BLOCK_ROWS, 2 * _BLOCK_ROWS):
        X[edge - 2] *= 1e-200
        Y[edge - 1] *= 1e200
        X[edge] = 0.0
        X[edge + 1] *= 1e200
        Y[edge + 1] *= 1e-200
        Y[edge + 2] = 0.0
    space = EuclideanGram(d)
    out = two_norm_rows(space, X, Y)
    assert np.array_equal(out, _euclid_rows(X, Y))
    assert np.all(np.isfinite(out))
    edge = _BLOCK_ROWS
    assert out[edge] == 0.0 and out[edge + 2] == 0.0
    for i in (edge - 2, edge - 1, edge + 1):
        ref = two_norm(space, X[i] / np.abs(X[i]).max(), Y[i] / np.abs(Y[i]).max())
        scale = np.abs(X[i]).max() * np.abs(Y[i]).max()
        assert out[i] == pytest.approx(ref * scale, rel=1e-12)
    # a zero, an ordinary and a tiny broadcast row (a huge one would make
    # areas with the huge rows of X overflow)
    for y in (np.zeros((1, d)), Y[:1], Y[edge + 1 : edge + 2]):
        assert np.array_equal(two_norm_rows(space, X, y), _euclid_rows(X, y))


def test_seminorm_map_keeps_bits_in_range():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(2, 20))
        b = rng.standard_normal(d) * 10.0 ** rng.uniform(-60, 60)
        nb = float(np.linalg.norm(b))
        assert np.array_equal(seminorm_map(EuclideanGram(d), b), nb * np.eye(d) - np.outer(b, b) / nb)


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200, 1e300])
def test_seminorm_map_extreme_direction(scale):
    # M = |b| (I - u u^T) with u = b / |b|, here |b| = 5 * scale
    b = np.array([0.0, 3.0, 4.0]) * scale
    M = seminorm_map(GRAM, b)
    u = np.array([0.0, 0.6, 0.8])
    assert np.all(np.isfinite(M))
    np.testing.assert_allclose(M / (5.0 * scale), np.eye(3) - np.outer(u, u), rtol=1e-12, atol=1e-15)
