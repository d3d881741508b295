"""Concrete spaces carrying a norm of vector pairs.

A 2-norm measures the size of a *pair* of vectors.  It vanishes exactly on
linearly dependent pairs (N1), is symmetric (N2), absolutely homogeneous in
each slot (N3), and subadditive in the first slot (N4).  Freezing the second
argument at a direction b yields the seminorm p_b(x) = ||x, b||, which is the
workhorse of the approximation routines in :mod:`pairnorm.approx`.

Two concrete spaces are implemented:

``EuclideanGram``
    R^n (n >= 2) with ||x, y|| = sqrt(|x|^2 |y|^2 - <x, y>^2), the area of
    the parallelogram spanned by x and y.

``WhitePolynomial``
    Real polynomials of degree <= n on [0, 1], identified by their monomial
    coefficient vectors, with ||f, g|| = sum_k |f(t_k) g'(t_k) - f'(t_k) g(t_k)|
    taken over 2n fixed, pairwise distinct sample points t_k.

``check_axioms`` verifies the defining properties on seeded random samples and
reports every violation together with the witnessing tuple.  Because deciding
linear independence of arbitrary float vectors is ill-posed, N1 is only tested
one-directionally, on constructed dependent pairs.

Batches are the unit of work.  ``as_elements`` validates a whole list of rows
once, in one pass, and ``two_norm_rows`` evaluates paired rows in one call
(``approx.objective`` makes one such call over all targets).  The
``EuclideanGram`` kernel walks its rows in cache-sized blocks, which changes
no bit of the result because every row is computed on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, ClassVar, Optional, Union

import numpy as np

__all__ = [
    "EuclideanGram",
    "WhitePolynomial",
    "SpaceSpec",
    "element_dim",
    "as_element",
    "as_elements",
    "as_direction",
    "two_norm",
    "two_norm_rows",
    "seminorm_b",
    "seminorm_map",
    "check_axioms",
    "shift_identity_check",
    "dependent_triple_check",
    "AxiomReport",
    "IdentityReport",
    "DependentTripleReport",
]


@dataclass(frozen=True)
class EuclideanGram:
    """R^dim with the parallelogram-area 2-norm."""

    kind: ClassVar[str] = "euclidean_gram"
    dim: int

    def __post_init__(self) -> None:
        if isinstance(self.dim, bool) or not isinstance(self.dim, int):
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 2:
            raise ValueError(f"a 2-norm needs dim >= 2, got {self.dim}")


@dataclass(frozen=True)
class WhitePolynomial:
    """Polynomials of degree <= degree on [0, 1], sampled at 2*degree points.

    Elements are monomial coefficient vectors of length degree + 1, low
    order first.  Derivatives are taken exactly on the coefficients.
    """

    kind: ClassVar[str] = "white_polynomial"
    degree: int
    points: tuple[float, ...]

    def __post_init__(self) -> None:
        if isinstance(self.degree, bool) or not isinstance(self.degree, int):
            raise ValueError(f"degree must be an integer, got {self.degree!r}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) != 2 * self.degree:
            raise ValueError(
                f"need exactly {2 * self.degree} sample points, got {len(pts)}"
            )
        if len(set(pts)) != len(pts):
            raise ValueError("sample points must be pairwise distinct")
        if any(not np.isfinite(p) or p < 0.0 or p > 1.0 for p in pts):
            raise ValueError("sample points must lie in [0, 1]")


SpaceSpec = Union[EuclideanGram, WhitePolynomial]


def element_dim(space: SpaceSpec) -> int:
    """Number of coordinates an element of ``space`` carries."""
    if isinstance(space, EuclideanGram):
        return space.dim
    if isinstance(space, WhitePolynomial):
        return space.degree + 1
    raise TypeError(f"not a space spec: {space!r}")


def as_element(space: SpaceSpec, coords, name: str = "element") -> np.ndarray:
    """Validate ``coords`` as an element of ``space`` and return it as a float array."""
    x = np.asarray(coords, dtype=float)
    d = element_dim(space)
    if x.ndim != 1 or x.shape[0] != d:
        raise ValueError(
            f"{name}: dimension mismatch, expected {d} coordinates, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name}: coordinates must be finite")
    return x


def as_elements(space: SpaceSpec, rows, name: str = "elements") -> np.ndarray:
    """Validate each of ``rows`` as an element of ``space``; return a new
    (len(rows), d) float array.

    Well-formed input is converted and checked in one pass.  Otherwise the
    rows are checked one at a time, so the error names the first bad row,
    ``name[i]``, with the message :func:`as_element` gives for it.
    """
    if not isinstance(rows, (list, tuple, np.ndarray)):
        rows = list(rows)
    d = element_dim(space)
    try:
        X = np.array(rows, dtype=float)
    except (TypeError, ValueError):  # ragged or unconvertible rows
        X = None
    if X is not None and X.ndim == 2 and X.shape[1] == d:
        finite = np.isfinite(X)
        if not finite.all():
            i = int(np.argmin(finite.all(axis=1)))
            raise ValueError(f"{name}[{i}]: coordinates must be finite")
        return X
    checked = [as_element(space, r, f"{name}[{i}]") for i, r in enumerate(rows)]
    return np.array(checked, dtype=float).reshape(len(checked), d)


def as_direction(space: SpaceSpec, b, name: str = "b") -> np.ndarray:
    """Validate ``b`` as a nonzero element of ``space``, the direction of a seminorm."""
    bv = as_element(space, b, name)
    if not np.any(bv != 0.0):
        raise ValueError(f"{name}: direction must be nonzero")
    return bv


@lru_cache(maxsize=None)
def _poly_tables(space: WhitePolynomial) -> tuple[np.ndarray, np.ndarray]:
    # V[k, j] = t_k**j, Vd[k, j] = j * t_k**(j-1): evaluation and exact derivative.
    t = np.asarray(space.points, dtype=float)
    d = space.degree + 1
    V = np.vander(t, d, increasing=True)
    Vd = np.zeros_like(V)
    Vd[:, 1:] = V[:, :-1] * np.arange(1, d)
    return V, Vd


# Squared row norms outside [2^-500, 2^500] have underflowed or overflowed,
# or may in a product of two; such rows are rescaled by their largest
# absolute entry first.
_SQ_MIN, _SQ_MAX = 2.0**-500, 2.0**500
_TINY = np.nextafter(0.0, 1.0)


def _peaks(X: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each row, 1 for zero rows."""
    s = np.abs(X).max(axis=1)
    s[s == 0.0] = 1.0
    return s


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``X``, free of overflow and underflow
    in the squares."""
    sq = np.einsum("ij,ij->i", X, X)
    out = np.sqrt(sq)
    if not sq.size or (sq.min() >= _SQ_MIN and sq.max() <= _SQ_MAX):
        return out
    bad = (sq < _SQ_MIN) | (sq > _SQ_MAX)
    s = _peaks(X[bad])
    Z = X[bad] / s[:, None]
    out[bad] = s * np.sqrt(np.einsum("ij,ij->i", Z, Z))
    return out


# Unit-length rows with sigma_min / sigma_max at or below this are dependent;
# for two rows at angle theta the ratio is tan(theta / 2): sin(theta) <= 1e-6.
_SV_RATIO_MIN = 5e-7


def _sv_ratio(X: np.ndarray) -> float:
    """sigma_min / sigma_max of the rows of ``X`` scaled to unit length by
    :func:`_row_norms`; 0 when a row is zero or rows outnumber coordinates."""
    norms = _row_norms(X)
    if X.shape[0] > X.shape[1] or not norms.all():
        return 0.0
    s = np.linalg.svd(X / norms[:, None], compute_uv=False)
    return float(s[-1] / s[0])


def _gram_area(
    X: np.ndarray, Y: np.ndarray, xx: np.ndarray, yy: np.ndarray
) -> np.ndarray:
    """Parallelogram areas of paired rows, given their squared norms.

    The raw Gram determinant xx*yy - xy^2 cancels catastrophically on
    near-dependent pairs; |x|*|y - cx*x| is accurate to machine absolute
    error, and the geometric mean of the two one-sided areas keeps the result
    bitwise symmetric in (x, y) because float multiplication commutes.
    """
    xy = np.einsum("ij,ij->i", X, Y)
    # A zero |x|^2 here comes from x = 0, so xy = 0 and the quotient is 0.
    cx = xy / np.maximum(xx, _TINY)
    cy = xy / np.maximum(yy, _TINY)
    rx = Y - cx[:, None] * X
    ry = X - cy[:, None] * Y
    ax = np.sqrt(xx * np.einsum("ij,ij->i", rx, rx))
    ay = np.sqrt(yy * np.einsum("ij,ij->i", ry, ry))
    return np.sqrt(ax * ay)


def _euclid_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``EuclideanGram`` areas of paired rows, rescaling rows whose squares
    leave [_SQ_MIN, _SQ_MAX]; a 1-row operand pairs with every row."""
    # |x|^2 and |y|^2 in one buffer, checked in two reductions
    sq = np.empty((2, max(X.shape[0], Y.shape[0])))
    np.einsum("ij,ij->i", X, X, out=sq[0])
    np.einsum("ij,ij->i", Y, Y, out=sq[1])
    if not sq.size or (sq.min() >= _SQ_MIN and sq.max() <= _SQ_MAX):
        return _gram_area(X, Y, sq[0], sq[1])
    if X.shape != Y.shape:
        X, Y = np.broadcast_arrays(X, Y)
    # Exact zero vectors need no rescaling: their area is 0 either way.
    nonzero = np.stack([X.any(axis=1), Y.any(axis=1)])
    bad = ((sq < _SQ_MIN) & nonzero | (sq > _SQ_MAX)).any(axis=0)
    if not bad.any():
        return _gram_area(X, Y, sq[0], sq[1])
    # The area scales by |alpha| |beta| under x -> alpha x, y -> beta y.
    ok = ~bad
    sx, sy = _peaks(X[bad]), _peaks(Y[bad])
    Xs, Ys = X[bad] / sx[:, None], Y[bad] / sy[:, None]
    area = np.empty(bad.shape)
    area[ok] = _gram_area(X[ok], Y[ok], sq[0, ok], sq[1, ok])
    area[bad] = _gram_area(
        Xs, Ys, np.einsum("ij,ij->i", Xs, Xs), np.einsum("ij,ij->i", Ys, Ys)
    ) * (sx * sy)
    return area


# Rows per block of the EuclideanGram kernel.  It makes about ten temporaries
# of the operands' size; at 2048 x 16 doubles each is 256 kB, so a block's
# working set stays in L2 where a 1e5-row batch would stream every one of
# them through memory.
_BLOCK_ROWS = 2048


def two_norm_rows(space: SpaceSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise 2-norm of paired rows of ``X`` and ``Y``.

    No validation: callers check their rows once per batch (see
    :func:`as_elements`), and batch callers such as ``approx.objective``
    pass all their rows in one call.  A 1-row operand is paired with every
    row of the other.  On ``EuclideanGram`` the rows are evaluated in blocks
    of ``_BLOCK_ROWS``; each row's value depends on that row alone, so the
    result has the same bits as one unblocked evaluation.
    ``WhitePolynomial`` runs one matmul over the whole batch.  A 1-row
    operand, or a 1-row part of a split batch, can round differently from the
    same row inside a many-row matmul; a stride-0 view of one row (see
    ``sequences``) keeps the bits of a tiled copy.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if isinstance(space, EuclideanGram):
        n = np.broadcast_shapes(X.shape[:1], Y.shape[:1])[0]
        out = np.empty(n)
        for lo in range(0, n, _BLOCK_ROWS):
            blk = slice(lo, lo + _BLOCK_ROWS)
            out[blk] = _euclid_rows(
                X[blk] if X.shape[0] > 1 else X, Y[blk] if Y.shape[0] > 1 else Y
            )
        return out
    V, Vd = _poly_tables(space)
    fv, fd = X @ V.T, X @ Vd.T
    gv, gd = Y @ V.T, Y @ Vd.T
    return np.abs(fv * gd - fd * gv).sum(axis=1)


def two_norm(space: SpaceSpec, x, y) -> float:
    """The 2-norm ||x, y||.

    Zero exactly when x and y are linearly dependent; symmetric; scales with
    |alpha| in either slot.  The ``EuclideanGram`` evaluation avoids the raw
    Gram determinant so dependent pairs come out at machine-epsilon scale
    rather than its square root.
    """
    xv = as_element(space, x, "x")
    yv = as_element(space, y, "y")
    return float(two_norm_rows(space, xv[None, :], yv[None, :])[0])


def seminorm_b(space: SpaceSpec, b, x) -> float:
    """The seminorm p_b(x) = ||x, b|| for a fixed nonzero direction b."""
    bv = as_direction(space, b)
    xv = as_element(space, x, "x")
    return float(two_norm_rows(space, xv[None, :], bv[None, :])[0])


def seminorm_map(space: SpaceSpec, b) -> np.ndarray:
    """Matrix M with p_b(u) = |M u| (Euclidean norm for ``EuclideanGram``,
    l1 norm for ``WhitePolynomial``).

    The linear-map form makes the seminorm cheap to evaluate over batches and
    gives subgradients directly; it agrees with :func:`seminorm_b` up to
    rounding.
    """
    bv = as_direction(space, b)
    if isinstance(space, EuclideanGram):
        with np.errstate(over="ignore"):  # an overflow lands outside the range
            sq = float(bv @ bv)
        if _SQ_MIN <= sq <= _SQ_MAX:
            nb = math.sqrt(sq)  # np.linalg.norm's formula: the map keeps its bits
            return nb * np.eye(space.dim) - np.outer(bv, bv) / nb
        # |b|^2 or b b^T would overflow or underflow: M = |b| (I - u u^T)
        # with the unit vector u = b / |b|.
        nb = float(_row_norms(bv[None, :])[0])
        u = bv / nb
        return nb * (np.eye(space.dim) - np.outer(u, u))
    V, Vd = _poly_tables(space)
    bval = V @ bv
    bder = Vd @ bv
    return V * bder[:, None] - Vd * bval[:, None]


# ---------------------------------------------------------------------------
# randomized property checks


@dataclass
class AxiomViolation:
    check: str
    index: int
    detail: dict


@dataclass
class AxiomReport:
    """Outcome of a randomized axiom sweep; ``passed`` iff no violations."""

    space: SpaceSpec
    samples: int
    seed: int
    tol: float
    counts: dict[str, int] = field(default_factory=dict)
    violations: list[AxiomViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _check_sweep(samples: int, tol: Optional[float] = None) -> None:
    """Reject a sweep that would test nothing: ``samples`` must be a positive
    integer and ``tol``, when given, positive."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if tol is not None and not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")


def _record(
    report: AxiomReport,
    check: str,
    bad: np.ndarray,
    witness: Callable[[int], dict],
) -> None:
    idx = np.flatnonzero(bad)
    report.counts[check] = int(idx.size)
    for i in idx:
        report.violations.append(AxiomViolation(check, int(i), witness(int(i))))


def check_axioms(
    space: SpaceSpec,
    samples: int,
    seed: int = 0,
    tol: float = 1e-9,
    norm_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> AxiomReport:
    """Probe the 2-norm axioms on seeded random samples.

    Coordinates are drawn uniform in [-1, 1].  Checks per sample:

    * N1 on a constructed dependent pair (x, beta*x): value <= tol
    * N2 symmetry, required to hold exactly
    * N3 |alpha|-homogeneity within tol * (1 + ||x, y||)
    * N4 triangle inequality in the first slot within tol
    * shift invariance ||x, y + alpha*x|| = ||x, y|| within tol

    ``norm_fn`` is a testing hook: a replacement batch norm with the same
    signature as ``two_norm_rows(space, X, Y)``, used to confirm that a
    corrupted norm is actually caught.
    """
    _check_sweep(samples, tol)
    rng = np.random.default_rng(seed)
    d = element_dim(space)
    X = rng.uniform(-1.0, 1.0, (samples, d))
    Y = rng.uniform(-1.0, 1.0, (samples, d))
    Z = rng.uniform(-1.0, 1.0, (samples, d))
    alpha = rng.uniform(-2.0, 2.0, samples)
    beta = rng.uniform(-1.0, 1.0, samples)

    norm = norm_fn if norm_fn is not None else (lambda A, B: two_norm_rows(space, A, B))
    report = AxiomReport(space=space, samples=samples, seed=seed, tol=tol)

    n_xy = norm(X, Y)

    n_dep = norm(X, beta[:, None] * X)
    _record(
        report,
        "N1_dependent_zero",
        n_dep > tol,
        lambda i: {"x": X[i].tolist(), "beta": float(beta[i]), "value": float(n_dep[i])},
    )

    n_yx = norm(Y, X)
    _record(
        report,
        "N2_symmetry",
        n_xy != n_yx,
        lambda i: {
            "x": X[i].tolist(),
            "y": Y[i].tolist(),
            "xy": float(n_xy[i]),
            "yx": float(n_yx[i]),
        },
    )

    n_scaled = norm(alpha[:, None] * X, Y)
    homog_err = np.abs(n_scaled - np.abs(alpha) * n_xy)
    _record(
        report,
        "N3_homogeneity",
        homog_err > tol * (1.0 + n_xy),
        lambda i: {
            "x": X[i].tolist(),
            "y": Y[i].tolist(),
            "alpha": float(alpha[i]),
            "error": float(homog_err[i]),
        },
    )

    n_sum = norm(X + Y, Z)
    n_xz = norm(X, Z)
    n_yz = norm(Y, Z)
    _record(
        report,
        "N4_triangle",
        n_sum > n_xz + n_yz + tol,
        lambda i: {
            "x": X[i].tolist(),
            "y": Y[i].tolist(),
            "z": Z[i].tolist(),
            "lhs": float(n_sum[i]),
            "rhs": float(n_xz[i] + n_yz[i]),
        },
    )

    n_shift = norm(X, Y + alpha[:, None] * X)
    shift_err = np.abs(n_shift - n_xy)
    _record(
        report,
        "shift_invariance",
        shift_err > tol,
        lambda i: {
            "x": X[i].tolist(),
            "y": Y[i].tolist(),
            "alpha": float(alpha[i]),
            "error": float(shift_err[i]),
        },
    )

    return report


@dataclass
class IdentityReport:
    samples: int
    seed: int
    tol: float
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def shift_identity_check(
    space: SpaceSpec, samples: int, seed: int = 0, tol: float = 1e-9
) -> IdentityReport:
    """Check ||x, y + alpha*x|| == ||x, y|| on constructed triples (x, y, alpha)."""
    _check_sweep(samples, tol)
    rng = np.random.default_rng(seed)
    d = element_dim(space)
    X = rng.uniform(-1.0, 1.0, (samples, d))
    Y = rng.uniform(-1.0, 1.0, (samples, d))
    alpha = rng.uniform(-2.0, 2.0, samples)
    base = two_norm_rows(space, X, Y)
    shifted = two_norm_rows(space, X, Y + alpha[:, None] * X)
    err = np.abs(shifted - base)
    report = IdentityReport(samples=samples, seed=seed, tol=tol)
    for i in np.flatnonzero(err > tol):
        report.violations.append(
            {
                "index": int(i),
                "x": X[i].tolist(),
                "y": Y[i].tolist(),
                "alpha": float(alpha[i]),
                "error": float(err[i]),
            }
        )
    return report


@dataclass
class DependentTripleReport:
    samples: int
    seed: int
    tol: float
    branch_plus: int = 0
    branch_minus: int = 0
    branch_both: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def dependent_triple_check(
    space: SpaceSpec, samples: int, seed: int = 0, tol: float = 1e-9
) -> DependentTripleReport:
    """Check the disjunctive sum identity on triples with y, z in span{x, w}.

    For y = a*x + c*w and z = b*x + d*w at least one of

        ||x, y + z|| == ||x, y|| + ||x, z||
        ||x, y - z|| == ||x, y|| + ||x, z||

    must hold (the first when c and d share a sign, the second when they
    oppose).  The report records which branch held per sample.
    """
    _check_sweep(samples, tol)
    rng = np.random.default_rng(seed)
    d = element_dim(space)
    X = rng.uniform(-1.0, 1.0, (samples, d))
    W = rng.uniform(-1.0, 1.0, (samples, d))
    # resample rows whose (x, w) pair is numerically near-dependent
    for _ in range(100):
        weak = two_norm_rows(space, X, W) < 1e-6
        if not np.any(weak):
            break
        W[weak] = rng.uniform(-1.0, 1.0, (int(weak.sum()), d))
    a, b, c, dd = rng.uniform(-1.0, 1.0, (4, samples))
    Y = a[:, None] * X + c[:, None] * W
    Z = b[:, None] * X + dd[:, None] * W

    n_y = two_norm_rows(space, X, Y)
    n_z = two_norm_rows(space, X, Z)
    n_sum = two_norm_rows(space, X, Y + Z)
    n_diff = two_norm_rows(space, X, Y - Z)
    target = n_y + n_z
    plus_ok = np.abs(n_sum - target) <= tol
    minus_ok = np.abs(n_diff - target) <= tol

    report = DependentTripleReport(samples=samples, seed=seed, tol=tol)
    report.branch_plus = int(np.sum(plus_ok & ~minus_ok))
    report.branch_minus = int(np.sum(minus_ok & ~plus_ok))
    report.branch_both = int(np.sum(plus_ok & minus_ok))
    for i in np.flatnonzero(~(plus_ok | minus_ok)):
        report.violations.append(
            {
                "index": int(i),
                "x": X[i].tolist(),
                "w": W[i].tolist(),
                "coeffs": [float(a[i]), float(c[i]), float(b[i]), float(dd[i])],
                "sum_gap": float(n_sum[i] - target[i]),
                "diff_gap": float(n_diff[i] - target[i]),
            }
        )
    return report
