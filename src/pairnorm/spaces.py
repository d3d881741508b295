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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "EuclideanGram",
    "WhitePolynomial",
    "SpaceSpec",
    "element_dim",
    "as_element",
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


def two_norm_rows(space: SpaceSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise 2-norm of paired rows of ``X`` and ``Y`` (no validation)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if isinstance(space, EuclideanGram):
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
    bv = as_element(space, b, "b")
    if not np.any(bv != 0.0):
        raise ValueError("b: direction must be nonzero")
    xv = as_element(space, x, "x")
    return float(two_norm_rows(space, xv[None, :], bv[None, :])[0])


def seminorm_map(space: SpaceSpec, b) -> np.ndarray:
    """Matrix M with p_b(u) = |M u| (Euclidean norm for ``EuclideanGram``,
    l1 norm for ``WhitePolynomial``).

    The linear-map form makes the seminorm cheap to evaluate over batches and
    gives subgradients directly; it agrees with :func:`seminorm_b` up to
    rounding.
    """
    bv = as_element(space, b, "b")
    if not np.any(bv != 0.0):
        raise ValueError("b: direction must be nonzero")
    if isinstance(space, EuclideanGram):
        nb = float(np.linalg.norm(bv))
        return nb * np.eye(space.dim) - np.outer(bv, bv) / nb
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

    def to_dict(self) -> dict:
        return {"check": self.check, "index": self.index, "detail": self.detail}


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

    def to_dict(self) -> dict:
        from .jsonio import space_to_dict

        return {
            "space": space_to_dict(self.space),
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "counts": dict(self.counts),
            "violations": [v.to_dict() for v in self.violations],
            "passed": self.passed,
        }


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
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")

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

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "violations": list(self.violations),
            "passed": self.passed,
        }


def shift_identity_check(
    space: SpaceSpec, samples: int, seed: int = 0, tol: float = 1e-9
) -> IdentityReport:
    """Check ||x, y + alpha*x|| == ||x, y|| on constructed triples (x, y, alpha)."""
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

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "branch_plus": self.branch_plus,
            "branch_minus": self.branch_minus,
            "branch_both": self.branch_both,
            "violations": list(self.violations),
            "passed": self.passed,
        }


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
