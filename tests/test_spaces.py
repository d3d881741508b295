"""Norm evaluation and axiom sweep tests for both concrete spaces."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pairnorm.spaces as spaces
from pairnorm import (
    EuclideanGram,
    SimultaneousProblem,
    WhitePolynomial,
    check_axioms,
    dependent_triple_check,
    distance_to_subspace,
    element_dim,
    seminorm_b,
    seminorm_map,
    set_distance,
    shift_identity_check,
    two_norm,
    two_norm_rows,
)
from pairnorm.jsonio import to_dict
from pairnorm.spaces import (
    _BLOCK_ROWS,
    _SWEEP_ROWS,
    _row_blocks,
    _uniform_blocks,
    as_direction,
)

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


@pytest.mark.parametrize("space", [GRAM, WHITE2])
@pytest.mark.parametrize("nx, ny", [(0, 1), (1, 0), (0, 0)])
def test_batch_rows_empty(space, nx, ny):
    # an empty batch paired with a 1-row operand is empty, not an error
    d = element_dim(space)
    out = two_norm_rows(space, np.zeros((nx, d)), np.ones((ny, d)))
    assert out.shape == (0,)


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
    assert to_dict(a) == to_dict(b)


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
    d = to_dict(v)
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


SWEEPS = [check_axioms, shift_identity_check, dependent_triple_check]


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize(
    "samples, tol, message",
    [
        (0, 1e-9, "samples must be a positive integer, got 0"),
        (-4, 1e-9, "samples must be a positive integer, got -4"),
        (2.0, 1e-9, "samples must be a positive integer, got 2.0"),
        (10, 0.0, "tol must be positive, got 0.0"),
        (10, -1e-9, "tol must be positive, got -1e-09"),
    ],
)
def test_sweeps_reject_vacuous_arguments(sweep, samples, tol, message):
    # a sweep over no samples, or with a negative tolerance, would pass
    # without testing anything
    with pytest.raises(ValueError, match=f"^{message}$"):
        sweep(GRAM, samples, seed=0, tol=tol)


@pytest.mark.parametrize("sweep", SWEEPS)
def test_sweeps_take_numpy_integer_samples(sweep):
    assert sweep(GRAM, np.int64(20), seed=0).passed


def test_triple_sweep_to_dict_roundtrip():
    report = dependent_triple_check(GRAM, 100, seed=1)
    d = to_dict(report)
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


def test_white_equal_huge_pair_is_zero():
    # the products f g' and f' g overflowed to inf - inf = NaN
    assert two_norm(WHITE2, [1e200, 1e200, 0], [1e200, 1e200, 0]) == 0.0


@pytest.mark.parametrize("space", [GRAM, WHITE2])
def test_value_beyond_largest_float_is_named(space):
    # the area 1e400 came out as inf
    with pytest.raises(
        ValueError, match=r"^the 2-norm of row 0 is 10\^400\.\d\d, beyond the largest float"
    ):
        two_norm(space, [1e200, 0, 0], [0, 1e200, 0])


def pow2_normalized(v):
    """v divided by the power of two at or below its largest absolute entry,
    and that power's exponent (0 for a zero vector)."""
    peak = np.abs(v).max()
    p = int(np.frexp(peak)[1]) - 1 if peak > 0.0 else 0
    return np.ldexp(v, -p), p


@pytest.mark.parametrize(
    "space", [GRAM, WHITE2, EuclideanGram(6), WhitePolynomial(5, np.linspace(0.0, 1.0, 10))]
)
def test_power_of_two_homogeneity_property(space):
    # ||2^a x, 2^b y|| = 2^(a+b) ||x, y|| to the bit, or the named error
    # when that is beyond the largest float.  The reference is taken on
    # rows scaled to peak in [1, 2), so it rounds once.  Two preconditions:
    # the scaled rows are exact (no coordinate underflows), and the pair is
    # not near-dependent (value >= 2^-11 |x| |y|).  Nearer dependence, rows
    # the rule leaves in range but with squares near 2^+-500 make a kernel
    # intermediate subnormal, so those values lose low bits; dependent pairs
    # are checked to give 0 instead.
    # Subnormal coordinates are left out: they round in every product.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    d = element_dim(space)
    row = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=d, max_size=d)

    @hypothesis.given(x=row, y=row, a=st.integers(-600, 600), b=st.integers(-600, 600))
    def check(x, y, a, b):
        (xn, px), (yn, py) = pow2_normalized(np.array(x)), pow2_normalized(np.array(y))
        xs, ys = np.ldexp(xn, px + a), np.ldexp(yn, py + b)
        hypothesis.assume(np.array_equal(np.ldexp(xs, -px - a), xn))
        hypothesis.assume(np.array_equal(np.ldexp(ys, -py - b), yn))
        if np.array_equal(np.ldexp(np.ldexp(xn, px + b), -px - b), xn):
            assert two_norm(space, xs, np.ldexp(xn, px + b)) == 0.0
        value = two_norm(space, xn, yn)
        hypothesis.assume(value >= 2.0**-11 * np.linalg.norm(xn) * np.linalg.norm(yn))
        with np.errstate(over="ignore"):
            expected = np.ldexp(value, px + py + a + b)
        if np.isinf(expected):
            with pytest.raises(ValueError, match=r"^the 2-norm of row 0 is 10\^\d+\.\d\d, beyond"):
                two_norm(space, xs, ys)
        else:
            assert two_norm(space, xs, ys) == expected

    check()


# Two pairs the property above leaves out by its near-dependence
# precondition: rows in range whose scaled pair makes a product of the
# residual form subnormal.  Their areas are below spaces._TINY_AREA, so the
# kernel evaluates them once more on rows scaled to peak in [1, 2).
NEAR_DEPENDENT = [([1, 1], [1, 1 + 2.0**-30], -249), ([1, 0, 0], [1, 0, 2.66e-170], 26)]


def scaled_pair(x, y, a):
    """||2^a x, 2^a y|| and 2^(2a) ||x, y||."""
    space, x, y = EuclideanGram(len(x)), np.array(x, dtype=float), np.array(y, dtype=float)
    return two_norm(space, np.ldexp(x, a), np.ldexp(y, a)), np.ldexp(two_norm(space, x, y), 2 * a)


@pytest.mark.parametrize("x, y, a", NEAR_DEPENDENT)
def test_near_dependent_pair_keeps_absolute_accuracy(x, y, a):
    # the lost bits stay below the kernel's absolute accuracy eps |x| |y|
    got, expected = scaled_pair(x, y, a)
    scale = np.ldexp(np.linalg.norm(x) * np.linalg.norm(y), 2 * a)
    assert abs(got - expected) <= np.finfo(float).eps * scale


@pytest.mark.parametrize("x, y, a", NEAR_DEPENDENT)
def test_near_dependent_pair_power_of_two_homogeneity(x, y, a):
    got, expected = scaled_pair(x, y, a)
    assert got == expected


@pytest.mark.parametrize(
    "t, passes",
    [
        (2.0**-450, 1),  # at the cutoff
        (np.nextafter(2.0**-450, 1.0), 1),
        (np.nextafter(2.0**-450, 0.0), 2),  # below it: once more, scaled
        (2.0**-500, 2),  # still below it when scaled: no third pass
    ],
    ids=["at", "above", "below", "far-below"],
)
def test_tiny_areas_take_one_scaled_pass(t, passes, monkeypatch):
    # ||[1, 0], [1, t]|| = t exactly, by the residual form
    one_pass, calls = spaces._one_residual_pass, []

    def counted(*rows):
        calls.append(rows)
        return one_pass(*rows)

    monkeypatch.setattr(spaces, "_one_residual_pass", counted)
    assert two_norm(EuclideanGram(2), [1.0, 0.0], [1.0, t]) == t
    assert len(calls) == passes


def test_subnormal_residual_product_below_the_cutoff():
    # scaled by 2^-40 the pair's xx |y - cx x|^2 = 2^-80 t^2 is subnormal:
    # one pass loses low bits, and the scaled second pass gives them back
    t = np.nextafter(2.0**-450, 0.0)
    x, y = np.ldexp([1.0, 0.0], -40), np.ldexp([1.0, t], -40)
    squares = (np.array([v]) for v in (x @ x, y @ y, x @ y))
    assert spaces._one_residual_pass(x[None, :], y[None, :], *squares)[0] != np.ldexp(t, -80)
    assert two_norm(EuclideanGram(2), x, y) == np.ldexp(t, -80)


# The two-branch EuclideanGram kernel against an exact rational reference,
# and its near-dependent rows against the two-residual form.

EPS = np.finfo(float).eps


def kernel_pairs(d, n, seed):
    """n random pairs, n pairs about 45 degrees apart on both sides of the
    cutoff xy^2 = xx yy / 2, and n near-dependent pairs, in that order."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3 * n, d))
    Y = rng.standard_normal((3 * n, d))
    x, u = X[n : 2 * n], Y[n : 2 * n]
    u -= (np.einsum("ij,ij->i", u, x) / np.einsum("ij,ij->i", x, x))[:, None] * x
    u *= (np.linalg.norm(x, axis=1) / np.linalg.norm(u, axis=1))[:, None]
    Y[n : 2 * n] = (x + u) * (1.0 + 1e-3 * rng.standard_normal((n, 1)))
    noise = 10.0 ** rng.uniform(-12, -1, (n, 1)) * rng.standard_normal((n, d))
    Y[2 * n :] = X[2 * n :] * rng.uniform(-2, 2, (n, 1)) + noise
    return X, Y


def gram_rows(X, Y):
    """The kernel's branch test: xy^2 <= xx yy / 2 on the computed squares."""
    xx, yy, xy = (np.einsum("ij,ij->i", A, B) for A, B in ((X, X), (Y, Y), (X, Y)))
    return xy * xy <= 0.5 * (xx * yy)


def exact_area_error(x, y, area):
    """|area - ||x, y||| for the exact D = |x|^2 |y|^2 - <x, y>^2 of the
    float rows, in rationals: |a - sqrt(D)| = |a^2 - D| / (a + sqrt(D))."""
    xx = sum(Fraction(v) ** 2 for v in x)
    yy = sum(Fraction(v) ** 2 for v in y)
    xy = sum(Fraction(u) * Fraction(v) for u, v in zip(x, y))
    D = xx * yy - xy * xy
    a = Fraction(area)
    return float(abs(a * a - D) / (a + Fraction(math.sqrt(D)))) if a or D else 0.0


@pytest.mark.parametrize("d", [2, 4, 16])
def test_gram_kernel_against_exact_reference(d):
    # Gram rows within 3 eps |x| |y| of the exact area and within 4 eps of
    # it relative, near-dependent rows within 1.5 eps |x| |y|; measured on
    # 55 800 such pairs: at most 2.06 eps, 2.91 eps and 1.00 eps
    n = 200
    X, Y = kernel_pairs(d, n, seed=d)
    out = two_norm_rows(EuclideanGram(d), X, Y)
    gram = gram_rows(X, Y)
    assert gram[:n].any() and gram[n : 2 * n].any() and not gram[n : 2 * n].all()
    assert not gram[2 * n :].all()
    for x, y, a, g in zip(X, Y, out, gram):
        err = exact_area_error(x, y, a)
        assert err <= (3.0 if g else 1.5) * EPS * np.linalg.norm(x) * np.linalg.norm(y)
        assert not g or err <= 4.0 * EPS * a


def two_residual_area(X, Y):
    """sqrt(|x| |y - cx x| |y| |x - cy y|) with cx = xy / xx and cy = xy / yy:
    the kernel's near-dependent form, taken on every row."""
    xx, yy, xy = (np.einsum("ij,ij->i", A, B) for A, B in ((X, X), (Y, Y), (X, Y)))
    rx = Y - (xy / xx)[:, None] * X
    ry = X - (xy / yy)[:, None] * Y
    ax = np.sqrt(xx * np.einsum("ij,ij->i", rx, rx))
    ay = np.sqrt(yy * np.einsum("ij,ij->i", ry, ry))
    return np.sqrt(ax * ay)


@pytest.mark.parametrize("d", [2, 4, 16])
def test_near_dependent_rows_keep_the_two_residual_bits(d):
    # gathered from mixed blocks, a whole block of near rows (as in the N1
    # check) and near rows against one broadcast row, in either slot
    X, Y = kernel_pairs(d, 3 * _BLOCK_ROWS // 2, seed=10 + d)
    dep = X * np.linspace(-2.0, 2.0, X.shape[0])[:, None]
    for A, B in ((X, Y), (Y, X), (X, dep), (X[:1], dep), (dep, X[:1])):
        out = two_norm_rows(EuclideanGram(d), A, B)
        A, B = np.broadcast_arrays(A, B)
        near = ~gram_rows(A, B)
        assert near.any()
        assert np.array_equal(out[near], two_residual_area(A, B)[near])


@pytest.mark.parametrize("d", [2, 4, 16])
def test_mixed_blocks_equal_rows_one_at_a_time(d):
    X, Y = kernel_pairs(d, 100, seed=20 + d)
    space = EuclideanGram(d)
    rows = [two_norm_rows(space, x[None, :], y[None, :])[0] for x, y in zip(X, Y)]
    assert np.array_equal(two_norm_rows(space, X, Y), rows)


@pytest.mark.parametrize(
    "x, y, area",
    [([1, 0], [1, 1], 1.0), ([3, 4], [7, 1], 25.0), ([0, 3, 0, 4], [0, 7, 0, 1], 25.0)],
)
def test_pair_at_the_cutoff_is_symmetric(x, y, area):
    # xy^2 = xx yy / 2 exactly: the Gram branch, bitwise symmetric, exact;
    # a neighbour just past the cutoff takes the residual branch
    space, x, y = EuclideanGram(len(x)), np.array(x, dtype=float), np.array(y, dtype=float)
    for a in (-300, 0, 300):
        xs, ys = np.ldexp(x, a), np.ldexp(y, a)
        assert two_norm(space, xs, ys) == two_norm(space, ys, xs) == math.ldexp(area, 2 * a)
    past = y + 2.0**-20 * x
    assert not gram_rows(x[None, :], past[None, :])[0]
    assert two_norm(space, x, past) == two_norm(space, past, x) > 0.0


# The blocked kernels against one unblocked call, and every row against
# itself evaluated alone.

BLOCK_NS = [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1, 100_000]


def white(degree):
    return WhitePolynomial(degree, np.linspace(0.0, 1.0, 2 * degree))


def space_id(space):
    return ("" if space.norm_ord == 2 else "white-") + str(element_dim(space))


def one_kernel_call(space, X, Y):
    """The space's ``pair_rows`` kernel over every row at once, with no
    block loop, given the squared norms on ``EuclideanGram``."""
    squares = [np.einsum("ij,ij->i", A, A) for A in (X, Y)] if space.norm_ord == 2 else []
    return space.pair_rows(X, Y, *squares)


@pytest.mark.parametrize(
    "space",
    [EuclideanGram(2), EuclideanGram(8), EuclideanGram(16), white(1), white(3), white(6)],
    ids=space_id,
)
@pytest.mark.parametrize("n", BLOCK_NS)
def test_blocked_kernel_keeps_bits(n, space):
    d = element_dim(space)
    rng = np.random.default_rng(n * 31 + d)
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, d))
    assert np.array_equal(two_norm_rows(space, X, Y), one_kernel_call(space, X, Y))
    # one row against every row of the other operand, in either slot
    y = Y[:1]
    assert np.array_equal(two_norm_rows(space, X, y), one_kernel_call(space, X, y))
    assert np.array_equal(two_norm_rows(space, y, X), one_kernel_call(space, y, X))


@pytest.mark.parametrize(
    "space",
    [EuclideanGram(2), EuclideanGram(8), EuclideanGram(16), *map(white, range(1, 8))],
    ids=space_id,
)
def test_rows_are_batch_independent(space):
    # a row's 2-norm has the same bits in a batch of any length, at any
    # offset, and as a 1-row operand in either slot
    d = element_dim(space)
    rng = np.random.default_rng(d + 100 * space.norm_ord)
    for n in [1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]:
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, d))
        out = two_norm_rows(space, X, Y)
        assert out.tolist() == [two_norm(space, x, y) for x, y in zip(X, Y)]
        edges = {k for lo in range(_BLOCK_ROWS, n, _BLOCK_ROWS) for k in (lo - 1, lo)}
        for i in {0, n - 1, *edges, *rng.integers(0, n, 4).tolist()}:
            assert two_norm_rows(space, X, Y[i : i + 1])[i] == out[i]
            assert two_norm_rows(space, X[i : i + 1], Y)[i] == out[i]
        if n > 1:  # one row more in Y than in X
            with pytest.raises(ValueError):
                two_norm_rows(space, X, np.vstack([Y, Y[:1]]))


def pow2_exponents(X):
    """The range rule, restated: 0 for a zero row or a squared norm in
    [2^-500, 2^500], else the exponent of the power of two at or below the
    row's largest absolute entry."""
    sq = np.einsum("ij,ij->i", X, X)
    peak = np.abs(X).max(axis=1)
    scaled = ((sq < 2.0**-500) | (sq > 2.0**500)) & (peak > 0.0)
    return np.where(scaled, np.frexp(peak)[1] - 1, 0)


def scaled_reference(space, X, Y):
    """One kernel call on the rows divided by their powers of two, times
    the powers: ||x, y|| = 2^(ex + ey) ||x / 2^ex, y / 2^ey||."""
    ex, ey = pow2_exponents(X), pow2_exponents(Y)
    out = one_kernel_call(space, np.ldexp(X, -ex[:, None]), np.ldexp(Y, -ey[:, None]))
    return np.ldexp(out, ex + ey)


@pytest.mark.parametrize(
    "space",
    [EuclideanGram(2), EuclideanGram(8), EuclideanGram(16), WHITE1, white(3), white(7)],
    ids=space_id,
)
def test_blocked_kernel_rescaled_rows_at_block_edges(space):
    d = element_dim(space)
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
    out = two_norm_rows(space, X, Y)
    assert np.array_equal(out, scaled_reference(space, X, Y))
    assert np.all(np.isfinite(out))
    edge = _BLOCK_ROWS
    assert out[edge] == 0.0 and out[edge + 2] == 0.0
    for i in (edge - 2, edge - 1, edge + 1):
        ref = two_norm(space, X[i] / np.abs(X[i]).max(), Y[i] / np.abs(Y[i]).max())
        scale = np.abs(X[i]).max() * np.abs(Y[i]).max()
        assert out[i] == pytest.approx(ref * scale, rel=1e-12)
    # the rows the rule leaves alone keep the bits of an unscaled batch,
    # whose scaled rows overflow or underflow
    plain = np.ones(n, dtype=bool)
    plain[[edge + k for edge in (_BLOCK_ROWS, 2 * _BLOCK_ROWS) for k in (-2, -1, 1)]] = False
    with np.errstate(all="ignore"):
        unscaled = one_kernel_call(space, X, Y)
    assert np.array_equal(out[plain], unscaled[plain])
    # a zero, an ordinary and a tiny broadcast row; with a huge one the
    # areas with the huge rows of X exceed the largest float
    for y in (np.zeros((1, d)), Y[:1], Y[edge + 1 : edge + 2]):
        assert np.array_equal(two_norm_rows(space, X, y), scaled_reference(space, X, y))
    with pytest.raises(ValueError, match=r"^the 2-norm of row \d+ is 10\^\d+\.\d\d, beyond"):
        two_norm_rows(space, X, Y[edge - 1 : edge])


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


def test_zero_direction_message_everywhere():
    zero = [0, 0, 0]
    calls = [
        lambda: seminorm_b(GRAM, zero, [1, 0, 0]),
        lambda: seminorm_map(GRAM, zero),
        lambda: SimultaneousProblem(GRAM, [[1, 0, 0]], [], zero),
        lambda: distance_to_subspace(GRAM, [1, 0, 0], [], zero),
        lambda: set_distance(GRAM, [[1, 0, 0]], [], zero),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "b: direction must be nonzero"
    with pytest.raises(ValueError, match=r"^y: direction must be nonzero$"):
        as_direction(WHITE2, zero, "y")
    assert as_direction(GRAM, [0, 0, -2.0]).tolist() == [0.0, 0.0, -2.0]


# Streamed sweeps: row blocks and the seeded draws cut along them.


@pytest.mark.parametrize(
    "n, blocks",
    [
        (1, [(0, 1)]),
        (2, [(0, 2)]),
        (_SWEEP_ROWS, [(0, _SWEEP_ROWS)]),
        (_SWEEP_ROWS + 1, [(0, _SWEEP_ROWS), (_SWEEP_ROWS, _SWEEP_ROWS + 1)]),
        (_SWEEP_ROWS + 2, [(0, _SWEEP_ROWS), (_SWEEP_ROWS, _SWEEP_ROWS + 2)]),
        (
            2 * _SWEEP_ROWS + 1,
            [
                (0, _SWEEP_ROWS),
                (_SWEEP_ROWS, 2 * _SWEEP_ROWS),
                (2 * _SWEEP_ROWS, 2 * _SWEEP_ROWS + 1),
            ],
        ),
    ],
)
def test_row_blocks_fold_a_one_row_remainder(n, blocks):
    # a 1-row remainder is a block of its own: both kernels give a row the
    # same bits in any batch
    assert _row_blocks(n) == blocks


def _whole_draws(seed, n, draws):
    rng = np.random.default_rng(seed)
    return [rng.uniform(low, high, (n, *shape)) for low, high, shape in draws]


@pytest.mark.parametrize("d", [3, 7, 16])
@pytest.mark.parametrize(
    "n",
    [1, 2, _SWEEP_ROWS - 1, _SWEEP_ROWS, _SWEEP_ROWS + 1, 2 * _SWEEP_ROWS + 1, np.int64(_SWEEP_ROWS + 3)],
)
def test_uniform_blocks_are_the_whole_draws(n, d):
    # the blocks rest on numpy's Generator.uniform taking one 64-bit PCG64
    # output per double, so that each draw can start on an advanced stream
    draws = [(-1.0, 1.0, (d,))] * 3 + [(-2.0, 2.0, ()), (-1.0, 1.0, ())]
    for seed in (0, 7, 2**40 + 3):
        blocks = list(_uniform_blocks(seed, n, draws))
        assert [lo for lo, _ in blocks] == [lo for lo, _ in _row_blocks(int(n))]
        for k, whole in enumerate(_whole_draws(seed, int(n), draws)):
            cut = np.concatenate([arrays[k] for _, arrays in blocks])
            assert cut.tobytes() == whole.tobytes()


@pytest.mark.parametrize("space", [GRAM, WHITE2])
@pytest.mark.parametrize("rows", [2, 3, 64])
def test_streamed_sweeps_keep_reports(space, rows, monkeypatch):
    # blocks of a few rows against one block over the whole batch; tol=1e-16
    # makes the violation lists long, so every block shifts its indices
    whole = [
        to_dict(check_axioms(space, 200, seed=4, tol=1e-16)),
        to_dict(shift_identity_check(space, 200, seed=4, tol=1e-16)),
    ]
    monkeypatch.setattr(spaces, "_SWEEP_ROWS", rows)
    assert len(_row_blocks(200)) > 1
    assert [
        to_dict(check_axioms(space, 200, seed=4, tol=1e-16)),
        to_dict(shift_identity_check(space, 200, seed=4, tol=1e-16)),
    ] == whole


def test_norm_fn_is_called_per_block():
    shapes = []

    def norm(X, Y):
        shapes.append((X.shape, Y.shape))
        return two_norm_rows(GRAM, X, Y)

    check_axioms(GRAM, _SWEEP_ROWS + 2, seed=0, norm_fn=norm)
    assert {x for x, _ in shapes} == {(_SWEEP_ROWS, 3), (2, 3)}
    assert len(shapes) == 2 * 8  # eight norm evaluations per block


def test_large_axiom_sweep_memory_stays_flat():
    # the 1e5 x 16 sweep streams its samples; drawn whole with every
    # operand it held about 70 MB
    pytest.importorskip("resource")
    code = (
        "import resource, pairnorm\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert pairnorm.check_axioms(pairnorm.EuclideanGram(16), 100_000).passed\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes or KiB
    grown_mb = int(out.stdout) * unit / 2**20
    assert grown_mb < 30.0, f"peak RSS grew by {grown_mb:.1f} MB"
