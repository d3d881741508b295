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

Each space class carries its own behaviour: ``element_dim`` (coordinates per
element), ``norm_ord`` (2 or 1, the norm of the map form p_b(u) = |M_b u|),
the paired-row kernel ``pair_rows`` and ``seminorm_map`` (M_b of a validated
b); ``WhitePolynomial`` holds its evaluation ``tables`` on the instance.  The
module functions of the same names are the entry points the other modules
call, and no code asks which class a space is.

``check_axioms`` verifies the defining properties on seeded random samples and
reports every violation together with the witnessing tuple.  Because deciding
linear independence of arbitrary float vectors is ill-posed, N1 is only tested
one-directionally, on constructed dependent pairs.

Batches are the unit of work.  ``as_elements`` validates a whole list of rows
once, in one pass, and ``two_norm_rows`` evaluates paired rows in one call
(``approx.objective`` makes one such call over all targets), walking long
batches in cache-sized blocks of ``_BLOCK_ROWS`` rows.  That changes no bit
of the result because both kernels compute every row on its own, with the
same bits in any batch, a 1-row one included.  The ``EuclideanGram`` kernel
takes one of two formulas per row (see :func:`_gram_area`): pairs at 45
degrees or more apart take the Gram determinant itself, which then loses at
most one bit (within 2.1 eps |x| |y| of the exact area, measured), and only
near-dependent pairs form the residuals y - cx x and x - cy y (within 1.0
eps |x| |y|).  The ``WhitePolynomial`` kernel evaluates a 1-row operand as
two rows, since BLAS rounds a 1-row matmul differently.  The large sweeps
(``check_axioms``, ``shift_identity_check``,
``approx.certificate_soundness`` and the ``sequences`` checks) stream their
rows in blocks of ``_SWEEP_ROWS``: each block is drawn, or differenced, and
evaluated on its own, so memory stays flat as the batch grows.  A seeded
draw is cut into blocks on the PCG64 stream itself, so every block has the
bits of the whole draw and each report the bytes of an unblocked sweep.

Extreme scales have one rule, :func:`_range_scaled` (after Blue's scaled norm,
ACM TOMS 4, 1978), for both kernels, the ``EuclideanGram`` map, the row norms,
both solve engines and the certificate; a value beyond the largest float is a
ValueError rather than inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, ClassVar, Iterator, Optional, Union

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


# Pairs with <x, y>^2 <= _GRAM_CUT |x|^2 |y|^2, at 45 degrees or more
# between their lines, take the Gram determinant |x|^2 |y|^2 - <x, y>^2:
# the difference then cancels at most one bit (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., 2002, sec. 1.7).  Against an
# exact rational reference on 55 800 random, 45-degree and near-dependent
# pairs (d = 2, 4, 16) those rows read at most 2.06 eps |x| |y| absolute
# error and 2.91 eps relative, where the residual form read 1.31 and 1.54.
_GRAM_CUT = 0.5


def _gram_area(
    X: np.ndarray, Y: np.ndarray, xx: np.ndarray, yy: np.ndarray
) -> np.ndarray:
    """Parallelogram areas of paired rows, given their squared norms from
    the range rule, by one of two symmetric formulas per row.

    Rows with xy^2 <= ``_GRAM_CUT`` xx yy take sqrt(xx yy - xy^2), which
    needs only the dot products and forms no temporary of the operands'
    size.  The near-dependent rest, where that difference would cancel
    catastrophically, are gathered (or, when every row is near, taken as
    they are) for :func:`_residual_area`.  The branch test and both
    formulas are symmetric in (x, y), so the result is bitwise symmetric.
    """
    xy = np.einsum("ij,ij->i", X, Y)
    area = xx * yy
    sq = xy * xy
    gram = sq <= _GRAM_CUT * area
    if not gram.any():
        return _residual_area(X, Y, xx, yy, xy)
    np.subtract(area, sq, out=area)
    if gram.all():
        return np.sqrt(area, out=area)
    # the root only on Gram rows: a near row's difference may be negative
    np.sqrt(area, out=area, where=gram)
    near = np.flatnonzero(~gram)
    rows = (A.take(near, axis=0) if A.shape[0] > 1 else A for A in (X, Y, xx, yy, xy))
    area[near] = _residual_area(*rows)
    return area


# Near-dependent areas below this are evaluated once more on their rows
# divided by powers of two.  The area is sqrt(|x| |y - cx x| |y| |x - cy y|),
# and xx |y - cx x|^2 must stay above 2^-1022, where products turn subnormal
# and lose low bits: at the cutoff it is about 2^-900, a margin of 2^122.
_TINY_AREA = 2.0**-450


def _residual_area(
    X: np.ndarray, Y: np.ndarray, xx: np.ndarray, yy: np.ndarray, xy: np.ndarray
) -> np.ndarray:
    """Areas of near-dependent paired rows, nonzero, given their squared
    norms and dot products.

    |x| |y - cx x| is accurate to machine absolute error, and the geometric
    mean of the two one-sided areas keeps the result bitwise symmetric in
    (x, y) because float multiplication commutes.  A row whose area is
    nonzero and below ``_TINY_AREA`` is evaluated once more, not
    recursively, with x and y each divided by the power of two at or below
    its largest entry and xx, yy and xy scaled to match, and the area
    multiplied back: so ||2^a x, 2^a y|| = 2^(2a) ||x, y|| to the bit there
    too.  Power-of-two scaling is exact, so a row that lost no bits keeps
    them.
    """
    area = _one_residual_pass(X, Y, xx, yy, xy)
    if np.minimum.reduce(area, initial=np.inf) >= _TINY_AREA:
        return area  # the usual case, without the masks' temporaries
    tiny = np.flatnonzero((area > 0.0) & (area < _TINY_AREA))
    if tiny.size:
        rows = (X, Y, xx, yy, xy)
        X, Y, xx, yy, xy = (A.take(tiny, axis=0) if A.shape[0] > 1 else A for A in rows)
        ex, ey = (np.frexp(np.abs(A).max(axis=1))[1] - 1 for A in (X, Y))
        scaled = _one_residual_pass(
            np.ldexp(X, -ex[:, None]),
            np.ldexp(Y, -ey[:, None]),
            np.ldexp(xx, -2 * ex),
            np.ldexp(yy, -2 * ey),
            np.ldexp(xy, -ex - ey),
        )
        area[tiny] = np.ldexp(scaled, ex + ey)
    return area


def _one_residual_pass(
    X: np.ndarray, Y: np.ndarray, xx: np.ndarray, yy: np.ndarray, xy: np.ndarray
) -> np.ndarray:
    """The residual form of :func:`_residual_area` on rows as given."""
    cx = xy / xx
    cy = xy / yy
    # The residuals y - cx x and then x - cy y share one buffer, and the
    # products and roots are taken in place: the same operations in the
    # same order as with temporaries, so the same bits.
    res = cx[:, None] * X
    np.subtract(Y, res, out=res)
    ax = np.einsum("ij,ij->i", res, res)
    np.sqrt(np.multiply(xx, ax, out=ax), out=ax)
    np.multiply(cy[:, None], Y, out=res)
    np.subtract(X, res, out=res)
    ay = np.einsum("ij,ij->i", res, res)
    np.sqrt(np.multiply(yy, ay, out=ay), out=ay)
    return np.sqrt(np.multiply(ax, ay, out=ax), out=ax)


@dataclass(frozen=True)
class EuclideanGram:
    """R^dim with the parallelogram-area 2-norm; p_b(u) = |M_b u|_2."""

    kind: ClassVar[str] = "euclidean_gram"
    norm_ord: ClassVar[int] = 2
    dim: int

    def __post_init__(self) -> None:
        if isinstance(self.dim, bool) or not isinstance(self.dim, int):
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 2:
            raise ValueError(f"a 2-norm needs dim >= 2, got {self.dim}")

    @property
    def element_dim(self) -> int:
        return self.dim

    pair_rows = staticmethod(_gram_area)

    def seminorm_map(self, bv: np.ndarray) -> np.ndarray:
        """M = |b| I - b b^T / |b| for a validated direction ``bv``, as
        M(b) = 2^e M(b / 2^e) with 2^e from the range rule."""
        (bs,), e, _ = _range_scaled(bv[None, :])
        nb = math.sqrt(float(bs @ bs))  # np.linalg.norm's formula: the map keeps its bits
        M = nb * np.eye(self.dim) - np.outer(bs, bs) / nb
        return _times_pow2(M, e, "the seminorm map")


@dataclass(frozen=True)
class WhitePolynomial:
    """Polynomials of degree <= degree on [0, 1], sampled at 2*degree points;
    p_b(u) = |M_b u|_1.

    Elements are monomial coefficient vectors of length degree + 1, low
    order first.  Derivatives are taken exactly on the coefficients.
    """

    kind: ClassVar[str] = "white_polynomial"
    norm_ord: ClassVar[int] = 1
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

    @property
    def element_dim(self) -> int:
        return self.degree + 1

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """V[k, j] = t_k**j, Vd[k, j] = j * t_k**(j-1): evaluation and exact
        derivative at the sample points.  Cached on the instance, outside the
        dataclass fields, so they live as long as the space and no longer."""
        d = self.degree + 1
        V = np.vander(np.asarray(self.points, dtype=float), d, increasing=True)
        Vd = np.zeros_like(V)
        Vd[:, 1:] = V[:, :-1] * np.arange(1, d)
        return V, Vd

    def pair_rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """sum_k |f(t_k) g'(t_k) - f'(t_k) g(t_k)| over paired rows."""
        (fv, fd), (gv, gd) = self._at_points(X), self._at_points(Y)
        return np.abs(fv * gd - fd * gv).sum(axis=1)

    def _at_points(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives of the rows of ``A`` at the sample points.

        A row takes the same bits in any batch: BLAS rounds a many-row
        matmul (gemm) alike for every row, but a 1-row one (gemv)
        differently, so one row is evaluated as two copies of itself."""
        V, Vd = self.tables
        if A.shape[0] != 1:
            return A @ V.T, A @ Vd.T
        A = np.concatenate((A, A))
        return (A @ V.T)[:1], (A @ Vd.T)[:1]

    def seminorm_map(self, bv: np.ndarray) -> np.ndarray:
        """Row k is b'(t_k) V[k] - b(t_k) Vd[k], for a validated direction ``bv``."""
        V, Vd = self.tables
        bval = V @ bv
        bder = Vd @ bv
        return V * bder[:, None] - Vd * bval[:, None]


SpaceSpec = Union[EuclideanGram, WhitePolynomial]


def element_dim(space: SpaceSpec) -> int:
    """Number of coordinates an element of ``space`` carries."""
    return space.element_dim


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


# The range rule: a row whose squared norm leaves [_SQ_MIN, _SQ_MAX] has
# underflowed or overflowed, or may in a product of two.
_SQ_MIN, _SQ_MAX = 2.0**-500, 2.0**500


def _range_scaled(X: np.ndarray) -> tuple[np.ndarray, Union[int, np.ndarray], np.ndarray]:
    """The one extreme-scale rule: (X / 2^e, e, the squared norms of X / 2^e).

    Per row, e = 0 for a zero row or a squared norm in [_SQ_MIN, _SQ_MAX];
    otherwise 2^e is the power of two at or below the row's largest absolute
    entry.  Dividing by 2^e is exact.  When every row is in range, e is the
    int 0, X comes back as it is, and the squares are the only work."""
    sq = np.einsum("ij,ij->i", X, X)
    if not sq.size or (np.minimum.reduce(sq) >= _SQ_MIN and np.maximum.reduce(sq) <= _SQ_MAX):
        return X, 0, sq
    out = ((sq < _SQ_MIN) | (sq > _SQ_MAX)) & X.any(axis=1)
    e = np.zeros(sq.shape, dtype=int)
    e[out] = np.frexp(np.abs(X[out]).max(axis=1))[1] - 1
    X = np.ldexp(X, -e[:, None])
    sq[out] = np.einsum("ij,ij->i", X[out], X[out])
    return X, e, sq


def _times_pow2(v, e, what: str):
    """v * 2^e, exact unless it underflows, and v itself when e is 0.  A
    product beyond the largest float is a ValueError naming ``what``,
    formatted with the flat index ``i`` of the first one, and its size."""
    if not isinstance(e, np.ndarray) and e == 0:
        return v
    with np.errstate(over="ignore"):
        out = np.ldexp(v, e)
    if np.isfinite(out).all():
        return out
    i = int(np.argmax(np.isinf(out)))
    v, e = np.broadcast_arrays(v, e)
    size = math.log10(abs(v.flat[i])) + int(e.flat[i]) * math.log10(2.0)
    raise ValueError(f"{what.format(i=i)} is 10^{size:.2f}, beyond the largest float (10^308.25)")


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``X`` by the range rule; a norm beyond
    the largest float is inf."""
    _, e, sq = _range_scaled(X)
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(sq), e)


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """The nonzero rows of ``X`` scaled to unit length by the range rule."""
    Z, _, sq = _range_scaled(X[X.any(axis=1)])
    return Z / np.sqrt(sq)[:, None]


# Unit-length rows with sigma_min / sigma_max at or below this are dependent;
# for two rows at angle theta the ratio is tan(theta / 2): sin(theta) <= 1e-6.
_SV_RATIO_MIN = 5e-7


def _sv_ratio(X: np.ndarray) -> float:
    """sigma_min / sigma_max of the rows of ``X`` scaled to unit length by
    :func:`_unit_rows`; 0 when a row is zero or rows outnumber coordinates."""
    unit = _unit_rows(X)
    if X.shape[0] > X.shape[1] or unit.shape[0] < X.shape[0]:
        return 0.0
    s = np.linalg.svd(unit, compute_uv=False)
    return float(s[-1] / s[0])


# Rows per block of ``two_norm_rows``, for both kernels.  The Gram branch
# makes only row-length vectors and the residual branch at most three
# temporaries of the operands' size (the gathered near rows of X and Y and
# one residual buffer), 256 kB each at 2048 x 16 doubles; the White kernel
# makes four n x 2*degree products, 192 kB each at degree 6.  So a block's
# working set stays in L2 where a 1e5-row batch would stream every one of
# them through memory.
_BLOCK_ROWS = 2048

# Rows per block of a streamed sweep, a multiple of ``_BLOCK_ROWS``.  Smaller
# blocks cost time in a fresh process: no large array is ever freed, so
# glibc's dynamic mmap threshold never rises and every 256 kB temporary of a
# 2048-row block is mapped and faulted in anew.  A lone 1e5 x 16
# ``check_axioms`` took 43k page faults and a third more wall time with
# 2048-row blocks, 7k with 8192.
_SWEEP_ROWS = 8192


def _row_blocks(n: int, rows: Optional[int] = None) -> list[tuple[int, int]]:
    """``range(n)`` cut into (lo, hi) blocks of ``rows`` rows, by default
    ``_SWEEP_ROWS``; the last block takes what is left."""
    rows = rows or _SWEEP_ROWS
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def _uniform_blocks(
    seed, samples: int, draws: list[tuple[float, float, tuple]]
) -> Iterator[tuple[int, list[np.ndarray]]]:
    """Yield (lo, arrays) per block of :func:`_row_blocks`: the block's first
    row and its rows of each draw.

    ``draws`` lists (low, high, row shape) of consecutive
    ``default_rng(seed).uniform(low, high, (samples, *shape))`` calls.  Each
    draw gets its own generator, advanced to where that draw starts on the
    one PCG64 stream; ``uniform`` takes one 64-bit output per double, so the
    blocks, concatenated, have the bits of the whole draws.
    """
    samples = int(samples)
    gens, at = [], 0
    for _, _, shape in draws:
        gen = np.random.default_rng(seed)
        gen.bit_generator.advance(at)
        gens.append(gen)
        at += samples * math.prod(shape)
    for lo, hi in _row_blocks(samples):
        yield lo, [
            gen.uniform(low, high, (hi - lo, *shape))
            for gen, (low, high, shape) in zip(gens, draws)
        ]


def two_norm_rows(space: SpaceSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise 2-norm of paired rows of ``X`` and ``Y``, by the space's
    ``pair_rows`` kernel.

    No validation: callers check their rows once per batch (see
    :func:`as_elements`), and batch callers such as ``approx.objective``
    pass all their rows in one call.  A 1-row operand is paired with every
    row of the other; other row counts must match.

    Both kernels follow the one range rule, :func:`_range_scaled`: by
    bi-homogeneity, ||x, y|| = 2^(ex + ey) ||x / 2^ex, y / 2^ey||, so the
    rows it scales are divided by their powers of two, the kernel runs and
    the result is multiplied back (a ValueError beyond the largest float).
    Rows in range keep their bits, and ``EuclideanGram`` reuses the rule's
    squares.  Both kernels compute every row on its own, with the same bits
    in any batch, so a batch longer than ``_BLOCK_ROWS`` is walked in
    blocks of that many rows and keeps the bits of one unblocked call.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    (X, ex, xx), (Y, ey, yy) = _range_scaled(X), _range_scaled(Y)
    rows = (X, Y, xx, yy) if space.norm_ord == 2 else (X, Y)  # only Gram reads the squares
    if max(len(X), len(Y)) <= _BLOCK_ROWS:  # the kernel's broadcasting checks the row counts
        out = space.pair_rows(*rows)
    else:
        out = np.empty(np.broadcast_shapes(X.shape[:1], Y.shape[:1]))
        for lo, hi in _row_blocks(len(out), _BLOCK_ROWS):
            out[lo:hi] = space.pair_rows(*(A[lo:hi] if A.shape[0] > 1 else A for A in rows))
    return _times_pow2(out, ex + ey, "the 2-norm of row {i}")


def two_norm(space: SpaceSpec, x, y) -> float:
    """The 2-norm ||x, y||.

    Zero exactly when x and y are linearly dependent; symmetric; scales with
    |alpha| in either slot.  The ``EuclideanGram`` evaluation takes the raw
    Gram determinant only for pairs 45 degrees or more apart, so dependent
    pairs come out at machine-epsilon scale rather than its square root.
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
    """Matrix M with p_b(u) = |M u| in the space's ``norm_ord`` (2 for
    ``EuclideanGram``, 1 for ``WhitePolynomial``).

    The linear-map form makes the seminorm cheap to evaluate over batches and
    gives subgradients directly; it agrees with :func:`seminorm_b` up to
    rounding.
    """
    return space.seminorm_map(as_direction(space, b))


# ---------------------------------------------------------------------------
# randomized property checks


class _Verdict:
    """``passed`` for a report: true iff it lists no violations."""

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class AxiomViolation:
    check: str
    index: int
    detail: dict


@dataclass
class AxiomReport(_Verdict):
    """Outcome of a randomized axiom sweep; ``passed`` iff no violations."""

    space: SpaceSpec
    samples: int
    seed: int
    tol: float
    counts: dict[str, int] = field(default_factory=dict)
    violations: list[AxiomViolation] = field(default_factory=list)


def _check_tol(tol: float) -> None:
    """The one rule for every ``tol``: positive and finite, or no check means anything."""
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be positive, got {tol!r}")


def _check_sweep(samples: int, tol: Optional[float] = None) -> None:
    """Reject a sweep that would test nothing: ``samples`` must be a positive
    integer and ``tol``, when given, pass :func:`_check_tol`."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if tol is not None:
        _check_tol(tol)


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

    The samples are drawn and checked ``_SWEEP_ROWS`` rows at a time (see
    :func:`_uniform_blocks`); the report lists the violations check by
    check, in sample order, exactly as one whole-batch sweep would.

    ``norm_fn`` is a testing hook: a replacement batch norm with the same
    signature as ``two_norm_rows(space, X, Y)``, called on one block at a
    time, used to confirm that a corrupted norm is actually caught.
    """
    _check_sweep(samples, tol)
    row = (element_dim(space),)
    norm = norm_fn if norm_fn is not None else partial(two_norm_rows, space)
    found: dict[str, list[AxiomViolation]] = {}
    for lo, block in _uniform_blocks(
        seed, samples, [(-1.0, 1.0, row)] * 3 + [(-2.0, 2.0, ()), (-1.0, 1.0, ())]
    ):
        for check, bad, witness in _axiom_checks(norm, tol, *block):
            found.setdefault(check, []).extend(
                AxiomViolation(check, lo + i, witness(i)) for i in np.flatnonzero(bad).tolist()
            )
    return AxiomReport(
        space=space,
        samples=samples,
        seed=seed,
        tol=tol,
        counts={check: len(v) for check, v in found.items()},
        violations=[v for vs in found.values() for v in vs],
    )


def _axiom_checks(
    norm: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol: float,
    X: np.ndarray,
    Y: np.ndarray,
    Z: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
) -> Iterator[tuple[str, np.ndarray, Callable[[int], dict]]]:
    """The checks of :func:`check_axioms` on one block, in report order:
    each check's name, its violating rows and the witness of a row."""
    n_xy = norm(X, Y)

    n_dep = norm(X, beta[:, None] * X)
    yield (
        "N1_dependent_zero",
        n_dep > tol,
        lambda i: {"x": X[i].tolist(), "beta": float(beta[i]), "value": float(n_dep[i])},
    )

    n_yx = norm(Y, X)
    yield (
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
    yield (
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
    yield (
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

    yield ("shift_invariance", *_shift_block(norm, X, Y, alpha, n_xy, tol))


def _shift_block(
    norm: Callable[[np.ndarray, np.ndarray], np.ndarray],
    X: np.ndarray,
    Y: np.ndarray,
    alpha: np.ndarray,
    n_xy: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, Callable[[int], dict]]:
    """Rows where ||x, y + alpha*x|| moves more than ``tol`` from ``n_xy`` =
    ||x, y||, and the witness of a row."""
    err = np.abs(norm(X, Y + alpha[:, None] * X) - n_xy)
    return err > tol, lambda i: {
        "x": X[i].tolist(),
        "y": Y[i].tolist(),
        "alpha": float(alpha[i]),
        "error": float(err[i]),
    }


@dataclass
class IdentityReport(_Verdict):
    samples: int
    seed: int
    tol: float
    violations: list[dict] = field(default_factory=list)


def shift_identity_check(
    space: SpaceSpec, samples: int, seed: int = 0, tol: float = 1e-9
) -> IdentityReport:
    """Check ||x, y + alpha*x|| == ||x, y|| on constructed triples (x, y, alpha),
    drawn and checked ``_SWEEP_ROWS`` rows at a time like :func:`check_axioms`."""
    _check_sweep(samples, tol)
    row = (element_dim(space),)
    norm = partial(two_norm_rows, space)
    report = IdentityReport(samples=samples, seed=seed, tol=tol)
    for lo, (X, Y, alpha) in _uniform_blocks(
        seed, samples, [(-1.0, 1.0, row), (-1.0, 1.0, row), (-2.0, 2.0, ())]
    ):
        bad, witness = _shift_block(norm, X, Y, alpha, norm(X, Y), tol)
        report.violations += [
            {"index": lo + i, **witness(i)} for i in np.flatnonzero(bad).tolist()
        ]
    return report


@dataclass
class DependentTripleReport(_Verdict):
    samples: int
    seed: int
    tol: float
    branch_plus: int = 0
    branch_minus: int = 0
    branch_both: int = 0
    violations: list[dict] = field(default_factory=list)


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
