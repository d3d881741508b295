"""Best simultaneous approximation under a fixed-direction seminorm.

Given finitely many targets f_1..f_m, a subspace G spanned by basis vectors,
and a nonzero direction b, the central problem is

    minimize over g in G:   objective(g) = max_i ||f_i - g, b||.

The objective is a max of seminorms of affine arguments, hence convex and
1-Lipschitz with respect to p_b, but generally nonsmooth.  Writing
p_b(u) = |M_b u| (see :func:`~pairnorm.spaces.seminorm_map`), each space has
one engine:

* ``EuclideanGram`` (l2 norm) is solved exactly.  Projecting out b and
  QR-factoring the projected basis turns the problem into a smallest
  enclosing ball under power distance, min_x max_i |x - q_i|^2 + w_i
  (Gaertner 1999).  A primal-dual active-set method on the dual simplex
  solves it in a handful of pivots, and every dual iterate lam certifies the
  lower bound D(lam) <= value^2, so convergence is a certified gap.
* ``WhitePolynomial`` (l1 norm) is solved exactly too.  Minimizing
  max_i |M_b (f_i - B^T c)|_1 is a linear program (Barrodale and Phillips
  1975 treat the same l1/Chebyshev form); a dense-tableau primal simplex
  solves it from a feasible start basis, and the multipliers of its final
  basis give the dual value that certifies the gap.

``oracle_solve`` is an independent grid search (k <= 3), exact over its
lattice, used as ground truth in tests.  ``distance_to_subspace`` and
``set_distance`` specialize the problem to one target and to a set,
``certificate`` builds the dual functional witnessing a Euclidean distance,
``blend_check`` exercises convexity of the argmin set, and
``uniqueness_probe`` reports the exact optimal set: one point by strict
convexity on ``EuclideanGram``, the extreme points of the optimal face on
``WhitePolynomial``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .spaces import (
    _SV_RATIO_MIN,
    EuclideanGram,
    SpaceSpec,
    WhitePolynomial,
    _check_sweep,
    _row_norms,
    _sv_ratio,
    as_direction,
    as_element,
    as_elements,
    element_dim,
    seminorm_map,
    two_norm,
    two_norm_rows,
)

__all__ = [
    "SolverConfig",
    "SubspaceBasis",
    "SimultaneousProblem",
    "SolveReport",
    "RestartResult",
    "Certificate",
    "CertificateSoundness",
    "BlendReport",
    "UniquenessReport",
    "objective",
    "solve",
    "oracle_solve",
    "distance_to_subspace",
    "set_distance",
    "certificate",
    "certificate_soundness",
    "blend_check",
    "uniqueness_probe",
]


@dataclass(frozen=True)
class SolverConfig:
    """Engine knobs; what they mean depends on the space.

    * ``max_iters``: the cap on the pivots of each solve, active-set pivots
      on ``EuclideanGram`` and simplex pivots on ``WhitePolynomial``.
    * ``tol``: a solve converges when its value v and certified lower
      bound L satisfy v - L <= ``tol * (1 + v)``.  On ``EuclideanGram`` v and
      L are the square roots of the primal and dual values of the squared
      objective; on ``WhitePolynomial`` they are the primal and dual values
      of the linear program, and the simplex must also have stopped with no
      negative reduced cost.
    * ``restarts``, ``seed`` and ``step0``: read by no engine, since each
      solve runs once from the origin.  They are kept, and still validated,
      so that problem files that set them still parse and reports keep
      their ``solver`` block.
    """

    max_iters: int = 20000
    tol: float = 1e-6
    restarts: int = 8
    seed: int = 0
    step0: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not (self.step0 > 0.0):
            raise ValueError(f"step0 must be positive, got {self.step0}")


class SubspaceBasis:
    """An ordered list of linearly independent vectors; k = 0 is the trivial subspace.

    The vectors, scaled to unit length, are rejected as dependent when their
    smallest singular value is at most 5e-7 times the largest
    (``spaces._SV_RATIO_MIN``), whatever their lengths and number.
    """

    def __init__(self, space: SpaceSpec, vectors: Sequence) -> None:
        self.space = space
        self.matrix = as_elements(space, vectors, "basis")
        if self.k:
            if not self.matrix.any(axis=1).all():
                raise ValueError("basis contains a zero vector")
            ratio = _sv_ratio(self.matrix)
            if ratio <= _SV_RATIO_MIN:
                raise ValueError(
                    "basis vectors are numerically linearly dependent "
                    f"(singular-value ratio {ratio:.1e} <= {_SV_RATIO_MIN:.0e})"
                )

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """Element of the subspace with the given coefficients."""
        c = np.asarray(coeffs, dtype=float)
        if self.k == 0:
            return np.zeros(element_dim(self.space))
        return c @ self.matrix


class SimultaneousProblem:
    """Targets, a subspace to approximate from, a direction b, and solver knobs.

    ``b_independent`` records whether b lies outside the span of the targets
    and the basis.  Solving requires it; evaluation-only routines such as
    :func:`objective` and :func:`blend_check` do not, so degenerate problems
    (a basis direction collinear with b, giving a flat optimal face) can still
    be constructed and inspected.
    """

    def __init__(
        self,
        space: SpaceSpec,
        targets: Sequence,
        g_basis,
        b,
        solver: Optional[SolverConfig] = None,
    ) -> None:
        self.space = space
        self.targets = as_elements(space, targets, "targets")
        if not self.targets.shape[0]:
            raise ValueError("targets must be nonempty")
        if not isinstance(g_basis, SubspaceBasis):
            g_basis = SubspaceBasis(space, g_basis)
        self.g_basis = g_basis
        self.b = as_direction(space, b)
        self.solver = solver if solver is not None else SolverConfig()
        self.b_independent = _independent_from_span(
            np.vstack([self.targets, self.g_basis.matrix]), self.b
        )


# A singular value of a stack of unit-normalized rows counts as zero below
# this fraction of the largest one.
_RANK_RTOL = 1e-12


def _rank(rows: np.ndarray) -> int:
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > _RANK_RTOL * s[0]))


def _independent_from_span(rows: np.ndarray, v: np.ndarray) -> bool:
    """Whether v lies outside the span of ``rows``.

    Ranks are taken over unit-normalized rows (zero rows dropped), so the
    answer does not depend on how large the rows are, only on their
    directions, under the single relative tolerance ``_RANK_RTOL``.
    """
    vn = float(_row_norms(v[None, :])[0])
    if vn == 0.0:
        return False
    norms = _row_norms(rows)
    keep = norms > 0.0
    if not np.any(keep):
        return True
    unit = rows[keep] / norms[keep, None]
    return _rank(np.vstack([unit, v / vn])) == _rank(unit) + 1


class _Objective:
    """Batch evaluator for max_i p_b(f_i - g) with g = coeffs @ basis.

    Residuals are pushed through the seminorm's linear-map form once, so a
    batch of coefficient vectors costs one small matmul.  ``lipschitz`` is a
    constant L with |v(c) - v(c')| <= L |c - c'|_2: sigma_max(BM) for the l2
    norm, sum_j |BM[:, j]|_2 for the l1 norm.  Only :func:`oracle_solve`
    uses this class, which keeps the oracle independent of the solve engines.
    """

    def __init__(
        self, space: SpaceSpec, targets: np.ndarray, basis: np.ndarray, b: np.ndarray
    ) -> None:
        M = seminorm_map(space, b)
        self.l1 = isinstance(space, WhitePolynomial)
        self.TM = targets @ M.T  # (m, p)
        self.BM = basis @ M.T  # (k, p)
        self.m = targets.shape[0]
        if self.l1:
            self.lipschitz = float(np.sqrt(np.einsum("ij,ij->j", self.BM, self.BM)).sum())
        else:
            self.lipschitz = float(np.linalg.norm(self.BM, 2))

    def _norm_rows(self, R: np.ndarray) -> np.ndarray:
        if self.l1:
            return np.abs(R).sum(axis=1)
        return np.sqrt(np.einsum("ij,ij->i", R, R))

    def values(self, C: np.ndarray) -> np.ndarray:
        Z = C @ self.BM
        out = self._norm_rows(self.TM[0] - Z)
        for i in range(1, self.m):
            np.maximum(out, self._norm_rows(self.TM[i] - Z), out=out)
        return out


@dataclass
class RestartResult:
    start: list[float]
    value: float
    iterations: int
    converged: bool


@dataclass
class SolveReport:
    g_star: np.ndarray
    value: float
    converged: bool
    per_restart: list[RestartResult]


@dataclass
class _EngineResult:
    coeffs: np.ndarray
    value: float
    iterations: int
    converged: bool


def _pow2_peak(A: np.ndarray) -> float:
    """The power of two just above the largest absolute entry of ``A`` (1
    for a zero array).  Dividing by it is exact, so it rescales a problem
    without changing the rounding of any normal-range result."""
    peak = float(np.abs(A).max()) if A.size else 0.0
    return math.ldexp(1.0, math.frexp(peak)[1]) if peak > 0.0 else 1.0


# ---------------------------------------------------------------------------
# EuclideanGram: exact smallest enclosing ball under power distance

# Two or more support points whose difference vectors have a singular value
# below this fraction of the largest are treated as affinely dependent.  The
# barycentric solve squares the conditioning of the points, so beyond this
# it would return noise; the null-direction step needs no solve.
_AFFINE_RTOL = 1e-7


def _power(q: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Power distances |x - q_i|^2 + w_i, the squared objective terms."""
    d = q - x
    return np.einsum("ij,ij->i", d, d) + w


def _hull_pivot(
    q: np.ndarray, w: np.ndarray, f: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, bool]:
    """One move of the dual weights ``lam`` inside the affine hull of the
    support points ``q`` (weights ``w``, power distances ``f`` at the current
    primal point).

    Returns the new weights, with one entry set to zero when a weight was
    dropped, and whether they maximize D over the affine hull.  The move
    never leaves the simplex and, in exact arithmetic, never lowers D:

    * affinely dependent support: step along a null direction of the points,
      along which D is linear, uphill until a weight reaches zero;
    * otherwise solve for the hull optimum (the point with equal power
      distance to every support point); take it if its weights are
      nonnegative, else step toward it until a weight reaches zero.
    """
    n, k = q.shape
    E = q[1:] - q[0]
    U, s, _ = np.linalg.svd(E, full_matrices=True)
    if n - 1 > k or s[-1] <= _AFFINE_RTOL * s[0]:
        mu = U[:, -1]
        d = np.concatenate(([-mu.sum()], mu))
        if d @ f < 0.0:  # dD along d is sum_i d_i f_i, since sum_i d_i q_i = 0
            d = -d
    else:
        # Equal power distance from x = q_0 + E^T mu to every support point:
        # 2 E (x - q_0) = |e_i|^2 + w_i - w_0, solved through the SVD.
        r = np.einsum("ij,ij->i", E, E) + w[1:] - w[0]
        mu = U @ ((U.T @ r) / (2.0 * s * s))
        hull = np.concatenate(([1.0 - mu.sum()], mu))
        if hull.min() >= 0.0:
            return hull, True
        d = hull - lam
    neg = d < 0.0
    ratios = np.full(n, np.inf)
    ratios[neg] = lam[neg] / -d[neg]
    drop = int(np.argmin(ratios))
    out = np.maximum(lam + ratios[drop] * d, 0.0)
    out[drop] = 0.0
    return out / out.sum(), False


def _active_set(
    q: np.ndarray, w: np.ndarray, max_pivots: int
) -> tuple[np.ndarray, float, float, int]:
    """Solve min_x max_i |x - q_i|^2 + w_i.

    Dual: maximize D(lam) = sum_i lam_i (|q_i|^2 + w_i) - |sum_i lam_i q_i|^2
    over the simplex, with the primal point x = sum_i lam_i q_i.  The support
    starts at the target farthest from the origin; each pivot adds the most
    violated target, or drops a weight the hull solve drives to zero, or
    steps along a null direction of an affinely dependent support.  The loop
    ends when no target lies outside the ball of the support, when D stops
    increasing (rounding), or after ``max_pivots`` pivots.

    Returns x, the primal value P = max_i |x - q_i|^2 + w_i, the certified
    dual value D(lam) <= P at the final weights, and the pivot count.
    """
    support = [int(np.argmax(_power(q, w, np.zeros(q.shape[1]))))]
    lam = np.ones(1)
    settled = True  # lam maximizes D over the affine hull of the support
    last_dual = -np.inf
    pivots = 0
    while True:
        x = lam @ q[support]
        f = _power(q, w, x)
        dual = float(lam @ f[support])  # equals D(lam) because x = lam @ q
        if settled:
            j = int(np.argmax(f))
            if j in support or f[j] <= f[support].max() or dual <= last_dual:
                break
            last_dual = dual
        if pivots == max_pivots:
            break
        pivots += 1
        if settled:
            support.append(j)
            lam = np.append(lam, 0.0)
        lam, settled = _hull_pivot(q[support], w[support], f[support], lam)
        keep = lam > 0.0
        if not keep.all():
            support = [i for i, kept in zip(support, keep) if kept]
            lam = lam[keep]
            settled = settled or len(support) == 1
    return x, float(f.max()), dual, pivots


def _enclosing_ball(
    space: SpaceSpec,
    targets: np.ndarray,
    basis: np.ndarray,
    b: np.ndarray,
    cfg: SolverConfig,
) -> _EngineResult:
    """Exact engine for ``EuclideanGram``: with M = |b| P (P projects out b),
    y_i = M f_i and the thin QR factorization M B^T = Q R, the residual
    p_b(f_i - B^T c)^2 equals |x - q_i|^2 + w_i at x = R c, where q_i = Q^T y_i
    and w_i = |y_i - Q q_i|^2 is what no x can reach."""
    M = seminorm_map(space, b)
    Y = targets @ M.T
    scale = _pow2_peak(Y)
    Y = Y / scale  # squares of tiny or huge targets stay representable
    k = basis.shape[0]
    if k:
        Q, R = np.linalg.qr(M @ basis.T)
        q = Y @ Q
        resid = Y - q @ Q.T
    else:
        q = np.zeros((Y.shape[0], 0))
        resid = Y
    w = np.einsum("ij,ij->i", resid, resid)

    x, primal, dual, pivots = _active_set(q, w, cfg.max_iters)
    value = float(np.sqrt(primal) * scale)
    gap = value - np.sqrt(dual) * scale
    coeffs = (np.linalg.solve(R, x) if k else x) * scale
    return _EngineResult(coeffs, value, pivots, bool(gap <= cfg.tol * (1.0 + value)))


# ---------------------------------------------------------------------------
# WhitePolynomial: exact linear program, dense-tableau primal simplex

# The tableau is scaled so that its entries are of order one.  Reduced costs
# above -_LP_EPS count as nonnegative, pivot entries must exceed _LP_EPS, and
# a step no longer than _LP_EPS is degenerate.
_LP_EPS = 1e-11


def _lp_matrix(BM: np.ndarray, m: int) -> np.ndarray:
    """Constraint matrix of the l1 problem in standard form.

    Columns are delta+ and delta- (k each), t, P and N (m*p each, target
    major) and S (m).  Row (i, j) reads BM[:, j] . (delta+ - delta-) + P_ij -
    N_ij = y_ij, so P_ij - N_ij is the residual; row i of the last m reads
    sum_j (P_ij + N_ij) - t + S_i = 0, so t bounds every residual's l1 norm.
    """
    k, p = BM.shape
    mp = m * p
    A = np.zeros((mp + m, 2 * k + 1 + 2 * mp + m))
    fit = np.tile(BM.T, (m, 1))
    A[:mp, :k] = fit
    A[:mp, k : 2 * k] = -fit
    A[mp:, 2 * k] = -1.0
    off = 2 * k + 1  # first P column
    A[:mp, off : off + mp] = np.eye(mp)
    A[:mp, off + mp : off + 2 * mp] = -np.eye(mp)
    groups = np.kron(np.eye(m), np.ones(p))
    A[mp:, off : off + mp] = groups
    A[mp:, off + mp : off + 2 * mp] = groups
    A[mp:, off + 2 * mp :] = np.eye(m)
    return A


def _pivot_row(tab: np.ndarray, q: int, basis: np.ndarray) -> int:
    """Ratio test for entering column ``q``: the row whose basic variable
    first reaches zero, ties broken by the smallest basic index (Bland);
    -1 when no entry of the column is positive."""
    col = tab[:-1, q]
    ok = col > _LP_EPS
    if not ok.any():
        return -1
    # a basic value rounded below zero counts as zero: a degenerate step
    level = np.maximum(tab[:-1, -1], 0.0)
    ratios = np.divide(level, col, out=np.full(col.shape, np.inf), where=ok)
    ties = np.flatnonzero(ratios == ratios.min())
    return int(ties[np.argmin(basis[ties])])


def _start_tableau(
    A: np.ndarray, rhs: np.ndarray, sign: np.ndarray, worst: int
) -> np.ndarray:
    """B^-1 [A | rhs] for the start basis of :func:`_linear_program`.

    Row by row the start basis holds P_ij or N_ij (``sign`` +1 or -1), then
    S_i, except t on the target row ``worst``.  Its matrix is [[D, 0], [G, H]]
    with D = diag(sign), G summing each target's residual rows into its
    target row, and H the identity whose column ``worst`` is all -1 (the t
    column).  So B^-1 = [[D, 0], [-H^-1 G D, H^-1]], and H^-1 negates entry
    ``worst`` of a vector and subtracts it from every other entry.
    """
    full = np.column_stack([A, rhs])
    mp = sign.size
    m = A.shape[0] - mp
    top = sign[:, None] * full[:mp]
    Z = full[mp:] - top.reshape(m, mp // m, -1).sum(axis=1)
    bottom = Z - Z[worst]
    bottom[worst] = -Z[worst]
    return np.vstack([top, bottom])


def _simplex(
    tab: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    max_pivots: int,
    allowed: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, int, bool]:
    """Primal simplex for min cost . x subject to A x = rhs, x >= 0, from the
    tableau ``tab`` = B^-1 [A | rhs] of a feasible ``basis`` (one column
    index per row, updated in place), entering only the columns that the
    mask ``allowed`` marks (every column when it is None).

    Each pivot enters the column of most negative reduced cost; when that
    step would be degenerate it enters the lowest-index candidate instead,
    and ties in the ratio test leave by the lowest basic index, so degenerate
    vertices cannot cycle (Bland's rule).  Returns the final tableau, whose
    last row holds the reduced costs and -cost . x, the pivot count, and
    whether no allowed reduced cost is negative.
    """
    # objective row: reduced costs c - c_B^T B^-1 A, then -c_B^T x_B
    tab = np.vstack([tab, np.append(cost, 0.0) - cost[basis] @ tab])
    reduced = tab[-1, :-1]
    pivots = 0
    while True:
        cand = reduced if allowed is None else np.where(allowed, reduced, 0.0)
        q = int(cand.argmin())
        if cand[q] >= -_LP_EPS:
            return tab, pivots, True
        if pivots == max_pivots:
            return tab, pivots, False
        r = _pivot_row(tab, q, basis)
        if r < 0 or tab[r, -1] <= _LP_EPS * tab[r, q]:
            q = int(np.argmax(cand < -_LP_EPS))
            r = _pivot_row(tab, q, basis)
            if r < 0:  # an unbounded ray: only rounding can produce one
                return tab, pivots, False
        pivots += 1
        row = tab[r] / tab[r, q]
        tab -= tab[:, q, None] * row
        tab[r] = row
        basis[r] = q


def _linear_program(
    space: SpaceSpec,
    targets: np.ndarray,
    basis: np.ndarray,
    b: np.ndarray,
    cfg: SolverConfig,
    face: bool = False,
) -> list[_EngineResult]:
    """Exact engine for ``WhitePolynomial``: with Y = targets M^T and BM =
    basis M^T, minimize t subject to |Y_i - c BM|_1 <= t for every target.

    It writes c = delta+ - delta- and starts the simplex at c = 0 from a
    feasible basis, so no phase 1 is needed: P_ij or N_ij by the sign of
    Y_ij, t on the row of the worst target, S_i on every other target row.
    The multipliers pi = B^-T c_B of the final basis split into u on the
    residual rows and -lam on the target rows; D = sum_i u_i . y_i is the
    dual value, a lower bound on the optimum whenever the reduced costs are
    nonnegative.

    Returns the optimum, then with ``face`` the optimal face's extreme points
    along each axis: c_0 at its minimum and maximum, then c_1, and so on.
    Each is a second simplex stage from the optimal tableau that minimizes
    +-c_j entering only columns whose reduced cost for t is zero.  Such
    pivots leave those reduced costs unchanged, so t stays optimal and the
    stage optimizes c_j over exactly the optimal face.
    """
    M = seminorm_map(space, b)
    Y = targets @ M.T
    BM = basis @ M.T
    m, p = Y.shape
    k = BM.shape[0]
    mp = m * p
    # Scaling the delta columns to unit peak changes no multiplier.
    col_scale = np.abs(BM).max(axis=1) if k else np.ones(0)
    A = _lp_matrix(BM / col_scale[:, None], m)
    t = 2 * k
    y_scale = _pow2_peak(Y)
    rhs = np.concatenate([Y.ravel() / y_scale, np.zeros(m)])
    neg = rhs[:mp] < 0.0
    worst = int(np.argmax(np.abs(Y).sum(axis=1)))
    basic = np.concatenate([t + 1 + np.arange(mp) + mp * neg, t + 1 + 2 * mp + np.arange(m)])
    basic[mp + worst] = t
    tab = _start_tableau(A, rhs, np.where(neg, -1.0, 1.0), worst)
    cost = np.zeros(A.shape[1])
    cost[t] = 1.0
    tab, pivots, optimal = _simplex(tab, basic, cost, cfg.max_iters)

    def solution(cols: np.ndarray, iterations: int, converged: bool) -> _EngineResult:
        x = np.zeros(A.shape[1])
        x[cols] = np.linalg.solve(A[:, cols], rhs)
        coeffs = (x[:k] - x[k:t]) * y_scale / col_scale
        value = float(np.abs(Y - coeffs @ BM).sum(axis=1).max())
        return _EngineResult(coeffs, value, iterations, converged)

    best = solution(basic, pivots, optimal)
    pi = np.linalg.solve(A[:, basic].T, cost[basic])
    dual = float(pi[:mp] @ Y.ravel())
    best.converged = optimal and best.value - dual <= cfg.tol * (1.0 + best.value)
    out = [best]
    if face:
        zero = np.abs(tab[-1, :-1]) <= _LP_EPS  # columns that keep t optimal
        for j in range(k):
            for sign in (1.0, -1.0):
                cost = np.zeros(A.shape[1])
                cost[j], cost[k + j] = sign, -sign
                stage = basic.copy()
                _, pivots, optimal = _simplex(tab[:-1], stage, cost, cfg.max_iters, zero)
                out.append(solution(stage, pivots, optimal))
    return out


def objective(problem: SimultaneousProblem, g) -> float:
    """Worst residual seminorm max_i ||f_i - g, b|| at a candidate g, over
    all targets in one batch."""
    gv = as_element(problem.space, g, "g")
    return float(
        two_norm_rows(problem.space, problem.targets - gv, problem.b[None, :]).max()
    )


def _require_solvable(problem: SimultaneousProblem) -> None:
    if not problem.b_independent:
        raise ValueError(
            "b must be linearly independent from the span of the targets and the basis"
        )


def _engine(
    space: SpaceSpec,
    targets: np.ndarray,
    basis: np.ndarray,
    b: np.ndarray,
    cfg: SolverConfig,
) -> _EngineResult:
    """One run of the exact solve engine of the space from c = 0: enclosing
    ball for l2, simplex for l1."""
    if isinstance(space, EuclideanGram):
        return _enclosing_ball(space, targets, basis, b, cfg)
    return _linear_program(space, targets, basis, b, cfg)[0]


def solve(problem: SimultaneousProblem) -> SolveReport:
    """Minimize the worst residual seminorm over the spanned subspace.

    Deterministic for a fixed problem.  The exact engine of the space, the
    active-set method on ``EuclideanGram`` and the simplex method on
    ``WhitePolynomial``, runs once from the origin, and ``per_restart``
    holds that one run: ``iterations`` counts its pivots (at most
    ``max_iters``), and it converges when its certified duality gap is at
    most ``tol`` times one plus its value; see :class:`SolverConfig`.  On a
    flat optimal face of a ``WhitePolynomial`` problem the solve returns one
    optimal vertex; :func:`uniqueness_probe` reports the whole face.
    """
    _require_solvable(problem)
    res = _engine(
        problem.space, problem.targets, problem.g_basis.matrix, problem.b, problem.solver
    )
    g_star = problem.g_basis.combine(res.coeffs)
    run = RestartResult([0.0] * problem.g_basis.k, res.value, res.iterations, res.converged)
    return SolveReport(
        g_star=g_star,
        value=objective(problem, g_star),
        converged=res.converged,
        per_restart=[run],
    )


def oracle_solve(
    problem: SimultaneousProblem, radius: float, resolution: int
) -> tuple[float, np.ndarray]:
    """Grid minimization over [-radius, radius]^k, k <= 3.

    A coarse sweep at ``resolution`` points per axis is followed by one
    refinement pass of 21 points per axis around the best point, with a
    tenfold finer step.  Each sweep returns the exact lattice minimum (the
    lowest lattice index on ties) but evaluates only the blocks of the
    lattice that a Lipschitz bound cannot rule out, so its cost follows the
    region near the minimum rather than the whole resolution^k lattice.
    Used as ground truth for :func:`solve` on small problems; the lattice
    still grows as resolution^k, hence the cap on k.
    """
    k = problem.g_basis.k
    if k > 3:
        raise ValueError(f"grid oracle supports at most 3 basis vectors, got {k}")
    if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < 10:
        raise ValueError(f"resolution must be an integer >= 10, got {resolution!r}")
    if not (radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius!r}")

    if k == 0:
        g = problem.g_basis.combine(np.zeros(0))
        return objective(problem, g), g

    obj = _Objective(problem.space, problem.targets, problem.g_basis.matrix, problem.b)
    axes = [np.linspace(-radius, radius, resolution)] * k
    best_val, best_c = _grid_min(obj, axes)

    h = 2.0 * radius / (resolution - 1)
    fine_axes = [np.linspace(c - h, c + h, 21) for c in best_c]
    fine_val, fine_c = _grid_min(obj, fine_axes)
    if fine_val < best_val:
        best_val, best_c = fine_val, fine_c

    g = problem.g_basis.combine(best_c)
    return objective(problem, g), g


# Lattice points per axis in one block of the pruned grid sweep.
_GRID_BLOCK = 8
# Lattice points per ``values`` call while the blocks are visited.
_GRID_BATCH = 2048
# Relative slack on the block lower bounds, taken of
# |v(centre)| + L * (radius + |centre|): the rounding of a value grows with
# the value and with L times the size of its coefficients.  The slack is far
# above that rounding and the rounding of L and of the radii, so a bound
# never rises above a computed value in its block and pruning never loses
# the grid minimum.
_GRID_SLACK = 1e-9


def _product(arrays: list[np.ndarray]) -> np.ndarray:
    """Rows of the Cartesian product of 1-d arrays, in C order."""
    grids = np.meshgrid(*arrays, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, len(arrays))


def _grid_min(obj: _Objective, axes: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """Minimum of ``obj`` over the lattice axes[0] x ... x axes[k-1] and the
    point of lowest C-order index attaining it.

    Lipschitz branch and bound (Piyavskii 1972; Hansen and Jaumard 1995):
    the lattice is cut into boxes of about ``_GRID_BLOCK`` points per axis,
    and no point of a box can lie below v(centre) - L * radius.  Boxes are
    visited by increasing bound, several per ``values`` call, until the next
    bound exceeds the best value found.  The points that are evaluated go
    through the same ``values`` path as a full sweep, so the result is the
    full sweep's to the bit.
    """
    shape = tuple(a.size for a in axes)
    edges = []  # per axis, chunk edges with sizes that differ by at most one
    for n in shape:
        chunks = -(-n // _GRID_BLOCK)
        edges.append(np.arange(chunks + 1) * n // chunks)
    lo = _product([e[:-1] for e in edges])
    hi = _product([e[1:] for e in edges])
    centres = _product([0.5 * (a[e[:-1]] + a[e[1:] - 1]) for a, e in zip(axes, edges)])
    halves = _product([0.5 * (a[e[1:] - 1] - a[e[:-1]]) for a, e in zip(axes, edges)])
    radius = _row_norms(halves)
    vc = obj.values(centres)
    L = obj.lipschitz
    slack = _GRID_SLACK * (np.abs(vc) + L * (radius + _row_norms(centres)))
    bound = vc - L * radius - slack
    order = np.argsort(bound, kind="stable")

    # offsets of the points of a full block, clipped to each block's end
    offsets = _product([np.arange(_GRID_BLOCK)] * len(axes))
    per_call = max(1, _GRID_BATCH // offsets.shape[0])
    best_val, best_idx = np.inf, 0
    for pos in range(0, order.size, per_call):
        blocks = order[pos : pos + per_call]
        blocks = blocks[bound[blocks] <= best_val]
        if blocks.size == 0:
            break  # bounds ascend: no later block can hold a better point
        idx = np.minimum(lo[blocks, None] + offsets, hi[blocks, None] - 1)
        idx = idx.reshape(-1, len(axes))
        vals = obj.values(np.stack([a[i] for a, i in zip(axes, idx.T)], axis=1))
        v = vals.min()
        flat = int(np.ravel_multi_index(tuple(idx[vals == v].T), shape).min())
        if v < best_val or (v == best_val and flat < best_idx):
            best_val, best_idx = v, flat
    point = np.unravel_index(best_idx, shape)
    return float(best_val), np.array([a[i] for a, i in zip(axes, point)])


def _subspace_parts(space: SpaceSpec, w_basis, b) -> tuple[SubspaceBasis, np.ndarray]:
    if not isinstance(w_basis, SubspaceBasis):
        w_basis = SubspaceBasis(space, w_basis)
    bv = as_direction(space, b)
    if not _independent_from_span(w_basis.matrix, bv):
        raise ValueError("b must be linearly independent from the subspace span")
    return w_basis, bv


def _distance(
    space: SpaceSpec, x0, w_basis, b, cfg: Optional[SolverConfig] = None
) -> tuple[float, np.ndarray, bool]:
    """:func:`distance_to_subspace` plus whether the engine converged."""
    x0v = as_element(space, x0, "x0")
    w_basis, bv = _subspace_parts(space, w_basis, b)
    solver = cfg if cfg is not None else SolverConfig()
    res = _engine(space, x0v[None, :], w_basis.matrix, bv, solver)
    w_star = w_basis.combine(res.coeffs)
    return two_norm(space, x0v - w_star, bv), w_star, res.converged


def distance_to_subspace(
    space: SpaceSpec, x0, w_basis, b, cfg: Optional[SolverConfig] = None
) -> tuple[float, np.ndarray]:
    """Distance min over w in span(w_basis) of ||x0 - w, b|| and a minimizer.

    The single-target case of :func:`solve`, run by the space's exact
    engine: on ``EuclideanGram`` it reduces to a least squares fit of the
    b-projected point against the projected basis, on ``WhitePolynomial`` to
    a linear program (a weighted l1 fit).  ``cfg`` sets the pivot budget and
    the gap tolerance as in :func:`solve`.
    """
    delta, w_star, _ = _distance(space, x0, w_basis, b, cfg)
    return delta, w_star


def set_distance(
    space: SpaceSpec, a_set: Sequence, w_basis, b, cfg: Optional[SolverConfig] = None
) -> float:
    """inf over w in span(w_basis) of max over the set of ||a - w, b||."""
    targets = as_elements(space, a_set, "a_set")
    if not targets.shape[0]:
        raise ValueError("a_set must be nonempty")
    w_basis, bv = _subspace_parts(space, w_basis, b)
    solver = cfg if cfg is not None else SolverConfig()
    res = _engine(space, targets, w_basis.matrix, bv, solver)
    w = w_basis.combine(res.coeffs)
    return float(two_norm_rows(space, targets - w, bv[None, :]).max())


@dataclass
class Certificate:
    """Dual witness for a positive subspace distance.

    ``functional`` holds coordinates of a linear functional h with h = 0 on
    the subspace and h(x0) = 1; the induced bilinear form F(x, beta*b) =
    beta * h(x) has operator norm 1/delta against the 2-norm, attained along
    the residual direction x0 - w_star.
    """

    functional: np.ndarray
    delta: float

    def evaluate(self, x, beta: float) -> float:
        """F(x, beta*b)."""
        return float(beta) * float(self.functional @ np.asarray(x, dtype=float))


def certificate(space: SpaceSpec, x0, w_basis, b) -> Certificate:
    """Construct the dual certificate for ``distance_to_subspace``.

    Only implemented for ``EuclideanGram``, where the b-orthogonal projection
    makes the residual explicit.  Requires the distance to be bounded away
    from zero; an x0 inside the subspace (modulo the b line) has no
    separating functional.
    """
    if not isinstance(space, EuclideanGram):
        raise ValueError("certificates are only constructed for EuclideanGram spaces")
    x0v = as_element(space, x0, "x0")
    bv = as_element(space, b, "b")
    delta, w_star = distance_to_subspace(space, x0v, w_basis, bv)
    if delta <= 1e-9:
        raise ValueError(
            f"distance {delta:.3e} is too small; x0 lies in the subspace modulo b"
        )
    u = x0v - w_star
    r = u - bv * float(u @ bv) / float(bv @ bv)
    h = r / float(r @ x0v)
    return Certificate(functional=h, delta=float(delta))


@dataclass
class CertificateSoundness:
    delta: float
    bound: float
    max_ratio: float
    attained_ratio: float
    h_on_basis_max: float
    h_at_x0: float
    samples: int
    passed: bool


def certificate_soundness(
    space: SpaceSpec,
    cert: Certificate,
    x0,
    w_basis,
    b,
    samples: int = 1000,
    seed: int = 0,
    ratio_slack: float = 1e-6,
    attain_tol: float = 1e-4,
) -> CertificateSoundness:
    """Sample |F(x, beta*b)| / ||x, beta*b|| and compare against 1/delta.

    The ratio must stay below (1/delta) * (1 + ratio_slack) everywhere and
    reach 1/delta within ``attain_tol`` along the residual direction.
    """
    if not isinstance(space, EuclideanGram):
        raise ValueError("certificates are only constructed for EuclideanGram spaces")
    _check_sweep(samples)
    x0v = as_element(space, x0, "x0")
    bv = as_element(space, b, "b")
    if not isinstance(w_basis, SubspaceBasis):
        w_basis = SubspaceBasis(space, w_basis)
    h = cert.functional

    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (samples, space.dim))
    beta = rng.uniform(-1.0, 1.0, samples)
    numer = np.abs(beta * (X @ h))
    denom = two_norm_rows(space, X, beta[:, None] * bv[None, :])
    ok = denom > 1e-12
    ratios = numer[ok] / denom[ok]
    max_ratio = float(ratios.max()) if ratios.size else 0.0

    _, w_star = distance_to_subspace(space, x0v, w_basis, bv)
    witness = x0v - w_star
    attained = abs(float(h @ witness)) / two_norm(space, witness, bv)

    bound = 1.0 / cert.delta
    h_on_basis = (
        float(np.max(np.abs(w_basis.matrix @ h))) if w_basis.k else 0.0
    )
    h_at_x0 = float(h @ x0v)
    passed = (
        max_ratio <= bound * (1.0 + ratio_slack)
        and abs(attained - bound) <= attain_tol
        and h_on_basis <= 1e-9
        and abs(h_at_x0 - 1.0) <= 1e-9
    )
    return CertificateSoundness(
        delta=cert.delta,
        bound=bound,
        max_ratio=max_ratio,
        attained_ratio=float(attained),
        h_on_basis_max=h_on_basis,
        h_at_x0=h_at_x0,
        samples=int(np.sum(ok)),
        passed=passed,
    )


@dataclass
class BlendEntry:
    lam: float
    value: float
    ok: bool


@dataclass
class BlendReport:
    value_g1: float
    value_g2: float
    entries: list[BlendEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)


def blend_check(
    problem: SimultaneousProblem,
    g1,
    g2,
    lambdas: Optional[Sequence[float]] = None,
    tol: float = 1e-9,
) -> BlendReport:
    """Evaluate the objective along lam*g1 + (1-lam)*g2.

    The endpoints must have objective values within ``tol`` of each other;
    convexity then forces every blend at or below min + tol, and when both
    endpoints are minimizers the whole segment stays optimal.  lam = 1
    reproduces the g1 value bit for bit, lam = 0 the g2 value.
    """
    g1v = as_element(problem.space, g1, "g1")
    g2v = as_element(problem.space, g2, "g2")
    lams = (
        np.linspace(0.0, 1.0, 11)
        if lambdas is None
        else np.asarray(list(lambdas), dtype=float)
    )
    if lams.size == 0:
        raise ValueError("lambdas must be nonempty")
    if np.any(lams < 0.0) or np.any(lams > 1.0):
        raise ValueError("lambdas must lie in [0, 1]")
    v1 = objective(problem, g1v)
    v2 = objective(problem, g2v)
    if abs(v1 - v2) > tol:
        raise ValueError(
            f"blend endpoints differ by {abs(v1 - v2):.3e} > tol={tol:.3e}"
        )
    base = min(v1, v2)
    report = BlendReport(value_g1=v1, value_g2=v2)
    for lam in lams:
        g = lam * g1v + (1.0 - lam) * g2v
        v = objective(problem, g)
        report.entries.append(
            BlendEntry(lam=float(lam), value=v, ok=bool(v <= base + tol))
        )
    return report


@dataclass
class UniquenessReport:
    distinct_optimizers: int
    spread: float
    restarts: int
    values: list[float] = field(default_factory=list)


def uniqueness_probe(
    problem: SimultaneousProblem, restarts: int = 16, cluster_tol: float = 1e-5
) -> UniquenessReport:
    """The exact optimal set; ``restarts`` is validated and echoed only.

    On ``EuclideanGram`` the squared objective is strictly convex in x = R c
    (the parallelogram law in the second slot), and R is nonsingular since
    the basis is independent and b lies outside its span.  So one solve
    gives the unique minimizer: one optimizer, spread 0, its value.

    On ``WhitePolynomial`` flat optimal faces are possible.  ``values`` holds
    the optimum, then the face's 2k extreme points along the coefficient
    axes (see :func:`_linear_program`).  ``distinct_optimizers`` counts the
    points at least ``cluster_tol`` under p_b from every point before them,
    and ``spread`` is their largest pairwise p_b distance.
    """
    if restarts < 2:
        raise ValueError(f"restarts must be >= 2, got {restarts}")
    _require_solvable(problem)
    parts = (problem.space, problem.targets, problem.g_basis.matrix, problem.b, problem.solver)
    if isinstance(problem.space, EuclideanGram):
        value = _enclosing_ball(*parts).value
        return UniquenessReport(1, 0.0, restarts, [value])
    points = _linear_program(*parts, face=True)
    elements = np.array([r.coeffs for r in points]) @ problem.g_basis.matrix
    i, j = np.triu_indices(len(points), 1)
    dists = two_norm_rows(problem.space, elements[i] - elements[j], problem.b[None, :])
    near = np.zeros((len(points),) * 2, dtype=bool)
    near[i, j] = dists < cluster_tol
    return UniquenessReport(
        distinct_optimizers=int(np.sum(~near.any(axis=0))),
        spread=float(dists.max()) if dists.size else 0.0,
        restarts=restarts,
        values=[r.value for r in points],
    )
