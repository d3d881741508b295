"""Best simultaneous approximation under a fixed-direction seminorm.

Given finitely many targets f_1..f_m, a subspace G spanned by basis vectors,
and a nonzero direction b, the central problem is

    minimize over g in G:   objective(g) = max_i ||f_i - g, b||.

The objective is a max of seminorms of affine arguments, hence convex and
1-Lipschitz with respect to p_b, but generally nonsmooth.  Writing
p_b(u) = |M_b u| (see :func:`~pairnorm.spaces.seminorm_map`), each norm
order has one engine, chosen in ``_engine`` by the space's ``norm_ord``:

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
``certificate`` turns a distance solve's dual into the functional proving it,
``blend_check`` exercises convexity of the argmin set, and
``uniqueness_probe`` reports the exact optimal set: one point by strict
convexity on ``EuclideanGram``, the extreme points of the optimal face on
``WhitePolynomial``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .spaces import (
    _SV_RATIO_MIN,
    SpaceSpec,
    _check_sweep,
    _check_tol,
    _range_scaled,
    _row_norms,
    _sv_ratio,
    _times_pow2,
    _uniform_blocks,
    _unit_rows,
    as_direction,
    as_element,
    as_elements,
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
    * ``tol``, positive and finite: a solve converges when its value v and
      certified lower bound L satisfy v - L <= ``tol * (1 + v)``.  On
      ``EuclideanGram`` v and L are the roots of the primal and dual values
      of the squared objective; on ``WhitePolynomial`` the primal and dual
      values of the linear program, and the simplex must also have stopped
      with no negative reduced cost.

    Each engine is exact and runs once, so no other knob exists.
    """

    max_iters: int = 20000
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        _check_tol(self.tol)


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
        return np.asarray(coeffs, dtype=float) @ self.matrix


def _as_basis(space: SpaceSpec, basis) -> SubspaceBasis:
    """``basis`` itself if it is a :class:`SubspaceBasis`, else one built from it."""
    return basis if isinstance(basis, SubspaceBasis) else SubspaceBasis(space, basis)


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
        self.g_basis = _as_basis(space, g_basis)
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
    if not v.any():
        return False
    unit = _unit_rows(np.vstack([rows, v]))  # v, nonzero, is the last row
    return unit.shape[0] == 1 or _rank(unit) == _rank(unit[:-1]) + 1


class _Objective:
    """Batch evaluator for max_i p_b(f_i - g) with g = coeffs @ basis.

    Residuals are pushed through the seminorm's linear-map form once, so a
    batch of coefficient vectors costs one small matmul.  The rows come in
    range by :func:`_in_range`, so the values are the objective's over
    2^(et + eb), only compared with each other, and in range keep their
    bits.  ``lipschitz`` is a constant L with |v(c) - v(c')| <= L |c - c'|_2:
    sigma_max(BM) for the l2 norm, sum_j |BM[:, j]|_2 for the l1 norm.  Only
    :func:`oracle_solve` uses this class, which keeps the oracle independent
    of the solve engines.
    """

    def __init__(
        self, space: SpaceSpec, targets: np.ndarray, basis: np.ndarray, b: np.ndarray
    ) -> None:
        ts, Bs, bs, et, eB, _ = _in_range(targets, basis, b)
        M = seminorm_map(space, bs)
        self.l1 = space.norm_ord == 1
        self.TM = ts @ M.T  # (m, p)
        self.BM = _times_pow2(  # (k, p), for coefficients in units of the basis
            Bs @ M.T, np.reshape(eB - et, (-1, 1)), "entry {i} of the grid oracle's basis map"
        )
        self.m = targets.shape[0]
        if self.l1:
            self.lipschitz = float(np.sqrt(np.einsum("ij,ij->j", self.BM, self.BM)).sum())
        else:
            self.lipschitz = float(np.linalg.norm(self.BM, 2))
        # A value is at most max_i |TM_i| + L |c|_2: up to |c|_2 = reach, c, the
        # values and (l2) their squares stay below a quarter of the float range.
        top = float(np.finfo(float).max) / 4.0
        room = (top if self.l1 else math.sqrt(top) / 2.0) - float(self._norm_rows(self.TM).max())
        self.reach = min(top, room / self.lipschitz if self.lipschitz else math.inf)

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
    """The engine's one run: its ``value``, its pivot count ``iterations``
    and whether its certified gap met ``tol``.  The name and the list
    around it in :class:`SolveReport` stay because the benchmark reads
    ``per_restart[].value`` and ``.iterations``."""
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
    """An optimal point; ``bound`` is its certified lower bound.  ``coeffs``
    are over the basis rows as the range rule scaled them, in units of the
    targets' 2^et (so those of the basis itself when every row is in
    range); :func:`_engine` sets ``point`` from them.  The optimum's ``dual``
    holds the engine's multipliers u_i of the residuals M (f_i - g), one row
    per target, up to a positive factor: sum_i u_i . M g = 0 on the span."""
    coeffs: np.ndarray
    value: float
    bound: float
    iterations: int
    converged: bool
    dual: Optional[np.ndarray] = None
    point: Optional[np.ndarray] = None


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
) -> tuple[np.ndarray, list[int], np.ndarray, float, float, int]:
    """Solve min_x max_i |x - q_i|^2 + w_i.

    Dual: maximize D(lam) = sum_i lam_i (|q_i|^2 + w_i) - |sum_i lam_i q_i|^2
    over the simplex, with the primal point x = sum_i lam_i q_i.  The support
    starts at the target farthest from the origin; each pivot adds the most
    violated target, or drops a weight the hull solve drives to zero, or
    steps along a null direction of an affinely dependent support.  The loop
    ends when no target lies outside the ball of the support, when D stops
    increasing (rounding), or after ``max_pivots`` pivots.

    Returns x, the final support and its weights lam, the primal value P =
    max_i |x - q_i|^2 + w_i, the dual value D(lam) <= P, and the pivots.
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
    return x, support, lam, float(f.max()), dual, pivots


def _enclosing_ball(
    M: np.ndarray, targets: np.ndarray, basis: np.ndarray, cfg: SolverConfig
) -> _EngineResult:
    """Exact engine for ``EuclideanGram``: with M = |b| P (P projects out b),
    y_i = M f_i and the thin QR factorization M B^T = Q R, the residual
    p_b(f_i - B^T c)^2 equals |x - q_i|^2 + w_i at x = R c, where q_i = Q^T y_i
    and w_i = |y_i - Q q_i|^2 is what no x can reach.  M comes scaled so
    that the y_i are of order one (see :func:`_engine`), so every square is
    representable.  The dual rows are lam_i (y_i - Q x)."""
    Y = targets @ M.T
    Q, R = np.linalg.qr(M @ basis.T)
    q = Y @ Q
    resid = Y - q @ Q.T
    w = np.einsum("ij,ij->i", resid, resid)
    x, support, lam, primal, dual, pivots = _active_set(q, w, cfg.max_iters)
    u = np.zeros_like(Y)
    u[support] = lam[:, None] * (Y[support] - Q @ x)
    return _EngineResult(np.linalg.solve(R, x), math.sqrt(primal), math.sqrt(dual), pivots, True, u)


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
    M: np.ndarray,
    targets: np.ndarray,
    basis: np.ndarray,
    cfg: SolverConfig,
    face: bool = False,
) -> list[_EngineResult]:
    """Exact engine for ``WhitePolynomial``: with Y = targets M^T, of order
    one by the scale of M (see :func:`_engine`), and BM = basis M^T,
    minimize t subject to |Y_i - c BM|_1 <= t for every target.

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
    Y = targets @ M.T
    BM = basis @ M.T
    m, p = Y.shape
    k = BM.shape[0]
    mp = m * p
    # Scaling the delta columns to unit peak changes no multiplier.
    col_scale = np.abs(BM).max(axis=1)
    A = _lp_matrix(BM / col_scale[:, None], m)
    t = 2 * k
    rhs = np.concatenate([Y.ravel(), np.zeros(m)])
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
        coeffs = (x[:k] - x[k:t]) / col_scale
        value = float(np.abs(Y - coeffs @ BM).sum(axis=1).max())
        return _EngineResult(coeffs, value, value, iterations, converged)

    best = solution(basic, pivots, optimal)
    pi = np.linalg.solve(A[:, basic].T, cost[basic])
    best.bound = float(pi[:mp] @ Y.ravel())
    best.dual = pi[:mp].reshape(m, p)
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


def _in_range(
    targets: np.ndarray, basis: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, Union[int, np.ndarray], int]:
    """A problem's rows by the range rule of ``spaces``, applied once over
    every row: (targets / 2^et, each basis row over its own 2^eB, b / 2^eb,
    et, eB, eb).  The targets share 2^et, the largest power the rule gives
    a nonzero target, so a zero target (e = 0) cannot hide the power of
    tiny ones.  In range every power is 0 and every row keeps its bits."""
    Xs, e, _ = _range_scaled(np.vstack([targets, basis, b]))
    m = targets.shape[0]
    et, eb, eB = 0, 0, 0
    if isinstance(e, np.ndarray):
        nonzero = e[:m][targets.any(axis=1)]
        et, eb, eB = int(nonzero.max()) if nonzero.size else 0, int(e[-1]), e[m:-1]
    return np.ldexp(targets, -et), Xs[m:-1], Xs[-1], et, eB, eb


def _engine(
    space: SpaceSpec,
    targets: np.ndarray,
    basis: np.ndarray,
    b: np.ndarray,
    cfg: SolverConfig,
    face: bool = False,
) -> list[_EngineResult]:
    """The optimal set by the space's exact engine from c = 0, the one place
    an engine is chosen: the l2 optimum, unique by strict convexity, or the
    l1 optimum and with ``face`` its face (see :func:`_linear_program`).

    The rows come in range by :func:`_in_range`.  The engines then see the
    map M over the power of two 2^ey just above the peak of Y = targets M^T,
    so Y is of order one, as the tableau's tolerances and the ball's squares
    need, and the coefficients do not change.  The value is scaled back by
    2^(et + eb + ey), and the optimum is 2^et (c Bs) from the coefficients c
    over the scaled basis rows Bs, so no coefficient leaves the float range
    where the optimum does not; in range that is c B, to the bit.  A run
    converges on a clean stop with a gap <= ``tol`` * (1 + value).
    """
    ts, Bs, bs, et, _, eb = _in_range(targets, basis, b)
    M = seminorm_map(space, bs)
    ey = math.frexp(float(np.abs(ts @ M.T).max()))[1]
    scaled = (np.ldexp(M, -ey), ts, Bs, cfg)
    results = [_enclosing_ball(*scaled)] if space.norm_ord == 2 else _linear_program(*scaled, face)
    for r in results:  # 2^ey cannot overflow the value or its bound; the rule's powers can
        r.value = float(_times_pow2(math.ldexp(r.value, ey), et + eb, "the optimal value"))
        r.bound = float(_times_pow2(math.ldexp(r.bound, ey), et + eb, "the optimal bound"))
        r.converged = r.converged and r.value - r.bound <= cfg.tol * (1.0 + r.value)
    # one product for every point: a face's points keep the bits of one matmul
    points = _times_pow2(np.array([r.coeffs for r in results]) @ Bs, et, "entry {i} of the optimum")
    for r, point in zip(results, points):
        r.point = point
    return results


def solve(problem: SimultaneousProblem) -> SolveReport:
    """Minimize the worst residual seminorm over the spanned subspace.

    Deterministic for a fixed problem.  The exact engine of the space, the
    active-set method on ``EuclideanGram`` and the simplex method on
    ``WhitePolynomial``, runs once, and ``per_restart`` holds the
    engine's one run: ``iterations`` counts its pivots (at most
    ``max_iters``), and it converges when its certified duality gap is at
    most ``tol`` times one plus its value; see :class:`SolverConfig`.  On a
    flat optimal face of a ``WhitePolynomial`` problem the solve returns one
    optimal vertex; :func:`uniqueness_probe` reports the whole face.
    """
    _require_solvable(problem)
    res = _engine(
        problem.space, problem.targets, problem.g_basis.matrix, problem.b, problem.solver
    )[0]
    g_star = res.point
    run = RestartResult(res.value, res.iterations, res.converged)
    return SolveReport(g_star, objective(problem, g_star), res.converged, per_restart=[run])


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
    still grows as resolution^k, hence the cap on k.  A radius whose values
    could leave the float range is refused (see ``_Objective.reach``).
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
    limit = obj.reach / math.sqrt(k) * (resolution - 1) / (resolution + 1)  # + one coarse step
    if radius > limit:
        raise ValueError(f"radius {radius!r} is beyond {limit:.3e}, the grid oracle's float range")
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


def _fit(
    space: SpaceSpec, targets: np.ndarray, w_basis, b, cfg: Optional[SolverConfig] = None
) -> _EngineResult:
    """The engine's optimum of inf over w in span(w_basis) of max_i
    ||targets_i - w, b|| for validated ``targets``, ``value`` by the kernel."""
    w_basis = _as_basis(space, w_basis)
    bv = as_direction(space, b)
    if not _independent_from_span(w_basis.matrix, bv):
        raise ValueError("b must be linearly independent from the subspace span")
    res = _engine(space, targets, w_basis.matrix, bv, cfg or SolverConfig())[0]
    res.value = float(two_norm_rows(space, targets - res.point, bv[None, :]).max())
    return res


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
    res = _fit(space, as_element(space, x0, "x0")[None, :], w_basis, b, cfg)
    return res.value, res.point


def set_distance(
    space: SpaceSpec, a_set: Sequence, w_basis, b, cfg: Optional[SolverConfig] = None
) -> float:
    """inf over w in span(w_basis) of max over the set of ||a - w, b||."""
    targets = as_elements(space, a_set, "a_set")
    if not targets.shape[0]:
        raise ValueError("a_set must be nonempty")
    return _fit(space, targets, w_basis, b, cfg).value


@dataclass
class Certificate:
    """Dual witness for a positive subspace distance.

    ``functional`` holds coordinates of a linear functional h with h = 0 on
    the subspace and h(x0) = 1; the induced bilinear form F(x, beta*b) =
    beta * h(x) has operator norm 1/delta against the 2-norm, attained along
    the residual direction x0 - w_star, with ``w_star`` from the same solve.
    """

    functional: np.ndarray
    delta: float
    w_star: np.ndarray


def certificate(space: SpaceSpec, x0, w_basis, b) -> Certificate:
    """Construct the dual certificate for ``distance_to_subspace``.

    On both spaces h = M^T u / (u . M x0), with M = ``seminorm_map(b)`` and
    u the solve's dual: |h(x)| <= |u|_* |M x| / (u . M x0) = p_b(x) / delta
    in the dual norm (Singer 1970).  Requires the distance to exceed 1e-9
    times ||x0, b||; an x0 inside the subspace (modulo the b line) has no
    separating functional.  x0 and b are brought in range by the range rule
    of ``spaces``, so the certificate of 2^a x0 is that of x0 with h times
    2^-a and delta and w_star times 2^a, to the bit.
    """
    (x0v,), ex, _ = _range_scaled(as_element(space, x0, "x0")[None, :])
    (bv,), eb, _ = _range_scaled(as_element(space, b, "b")[None, :])
    ex, ed = int(np.max(ex)), int(np.max(ex) + np.max(eb))  # of x0 and of delta
    res = _fit(space, x0v[None, :], w_basis, bv)
    delta = res.value
    if delta <= 1e-9 * two_norm(space, x0v, bv):
        raise ValueError(
            f"distance {np.ldexp(delta, ed):.3e} is too small; "
            "x0 lies in the subspace modulo b"
        )
    Mu = res.dual[0] @ seminorm_map(space, bv)
    h = Mu / float(Mu @ x0v)
    _times_pow2(1.0 / delta, -ed, "the operator norm 1/delta")  # must be a float
    return Certificate(
        functional=_times_pow2(h, -ex, "entry {i} of the functional"),
        delta=float(_times_pow2(delta, ed, "the distance")),
        w_star=_times_pow2(res.point, ex, "entry {i} of the optimum"),
    )


# Sampled ratios may exceed 1/delta by this fraction; the ratio along the
# residual must come within this fraction of 1/delta.
_RATIO_SLACK = 1e-6
_ATTAIN_TOL = 1e-4


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
) -> CertificateSoundness:
    """Sample |F(x, beta*b)| / ||x, beta*b|| and compare against 1/delta.

    The ratio must stay below (1/delta) * (1 + ``_RATIO_SLACK``) everywhere
    and come within ``_ATTAIN_TOL`` * (1/delta) of it along x0 - ``w_star``.
    Every test is relative (a sample counts when ||x, beta*b|| > 1e-12 |b|),
    so rescaling x0 or b keeps the verdict.  The samples are drawn and
    evaluated ``spaces._SWEEP_ROWS`` rows at a time, as one whole draw.
    """
    _check_sweep(samples)
    x0v = as_element(space, x0, "x0")
    bv = as_element(space, b, "b")
    basis = _as_basis(space, w_basis).matrix
    h = cert.functional
    b_len, h_len = _row_norms(np.vstack([bv, h]))

    max_ratio, kept = 0.0, 0
    for _, (X, beta) in _uniform_blocks(seed, samples, [(-1.0, 1.0, x0v.shape), (-1.0, 1.0, ())]):
        numer = np.abs(beta * (X @ h))
        denom = two_norm_rows(space, X, beta[:, None] * bv[None, :])
        ok = denom > 1e-12 * b_len
        with np.errstate(over="ignore"):  # a ratio beyond the largest float fails
            max_ratio = float((numer[ok] / denom[ok]).max(initial=max_ratio))
        kept += int(np.sum(ok))

    witness = x0v - cert.w_star
    attained = abs(float(h @ witness)) / two_norm(space, witness, bv)

    bound = 1.0 / cert.delta
    h_on_basis = float(np.abs(basis @ h).max(initial=0.0))
    basis_len = float(_row_norms(basis).max(initial=0.0))
    h_at_x0 = float(h @ x0v)
    passed = (
        max_ratio <= bound * (1.0 + _RATIO_SLACK)
        and abs(attained - bound) <= _ATTAIN_TOL * bound
        and h_on_basis <= 1e-9 * h_len * basis_len
        and abs(h_at_x0 - 1.0) <= 1e-9
    )
    return CertificateSoundness(
        delta=cert.delta, bound=bound, max_ratio=max_ratio, attained_ratio=attained,
        h_on_basis_max=h_on_basis, h_at_x0=h_at_x0, samples=kept, passed=passed,
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
    _check_tol(tol)
    g1v = as_element(problem.space, g1, "g1")
    g2v = as_element(problem.space, g2, "g2")
    lams = np.linspace(0.0, 1.0, 11) if lambdas is None else np.asarray(list(lambdas), dtype=float)
    if lams.size == 0:
        raise ValueError("lambdas must be nonempty")
    if not np.all((lams >= 0.0) & (lams <= 1.0)):  # NaN fails both
        raise ValueError("lambdas must lie in [0, 1]")
    v1 = objective(problem, g1v)
    v2 = objective(problem, g2v)
    if abs(v1 - v2) > tol:
        raise ValueError(f"blend endpoints differ by {abs(v1 - v2):.3e} > tol={tol:.3e}")
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
    values: list[float] = field(default_factory=list)


# Optimal points closer than this under p_b count as one optimizer.
_CLUSTER_TOL = 1e-5


def uniqueness_probe(problem: SimultaneousProblem, restarts: int = 16) -> UniquenessReport:
    """The exact optimal set from :func:`_engine`.

    ``restarts`` is read by nothing.  It is kept only because the
    benchmark's ``perfbench/worker.py`` passes ``restarts=16``, and it goes
    when the benchmark stops passing it (ROADMAP item 7).

    On ``EuclideanGram`` the squared objective is strictly convex in x = R c
    (the parallelogram law in the second slot), and R is nonsingular since
    the basis is independent and b lies outside its span.  So the engine
    returns the unique minimizer alone: one optimizer, spread 0, its value.

    On ``WhitePolynomial`` flat optimal faces are possible.  ``values`` holds
    the optimum, then the face's 2k extreme points along the coefficient
    axes (see :func:`_linear_program`).  ``distinct_optimizers`` counts the
    points at least ``_CLUSTER_TOL`` under p_b from every point before them,
    and ``spread`` is their largest pairwise p_b distance.
    """
    _require_solvable(problem)
    points = _engine(
        problem.space, problem.targets, problem.g_basis.matrix, problem.b, problem.solver, True
    )
    if len(points) == 1:
        return UniquenessReport(1, 0.0, [points[0].value])
    elements = np.array([r.point for r in points])
    i, j = np.triu_indices(len(points), 1)
    dists = two_norm_rows(problem.space, elements[i] - elements[j], problem.b[None, :])
    near = np.zeros((len(points),) * 2, dtype=bool)
    near[i, j] = dists < _CLUSTER_TOL
    return UniquenessReport(
        distinct_optimizers=int(np.sum(~near.any(axis=0))),
        spread=float(dists.max()),
        values=[r.value for r in points],
    )
