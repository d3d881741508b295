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
* ``WhitePolynomial`` (l1 norm) runs a multi-start subgradient method: a
  1/sqrt(t) warm-up schedule followed by a target-level refinement stage
  (Polyak steps toward a level just below the incumbent, with the level gap
  shrunk whenever a round stops being productive at its current scale).

``oracle_solve`` is an independent exhaustive grid search (k <= 3) used as
ground truth in tests.  ``distance_to_subspace`` and ``set_distance``
specialize the problem to one target and to a set, ``certificate`` builds
the dual functional witnessing a Euclidean distance, and ``blend_check`` /
``uniqueness_probe`` exercise convexity of the argmin set and uniqueness of
minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .spaces import (
    EuclideanGram,
    SpaceSpec,
    WhitePolynomial,
    as_element,
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

    * ``restarts``: starts per solve, the origin plus seeded (``seed``)
      Gaussian points scaled by twice the largest target coordinate.
    * ``max_iters``: on ``EuclideanGram`` the cap on active-set pivots of
      each restart; on ``WhitePolynomial`` the subgradient iterations, shared
      by all restarts.
    * ``tol``: on ``EuclideanGram`` a restart converges when its certified
      gap sqrt(P) - sqrt(D) is at most ``tol * (1 + sqrt(P))``, P the primal
      and D the dual value; on ``WhitePolynomial`` when its best value
      improved by less than ``tol`` over the last 50 iterations.
    * ``step0``: the warm-up step length of the subgradient method
      (``WhitePolynomial`` only).
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
    """An ordered list of linearly independent vectors; k = 0 is the trivial subspace."""

    def __init__(self, space: SpaceSpec, vectors: Sequence) -> None:
        self.space = space
        rows = [as_element(space, v, f"basis[{i}]") for i, v in enumerate(vectors)]
        d = element_dim(space)
        self.matrix = np.array(rows, dtype=float).reshape(len(rows), d)
        if rows:
            norms = np.linalg.norm(self.matrix, axis=1)
            if np.any(norms == 0.0):
                raise ValueError("basis contains a zero vector")
            unit = self.matrix / norms[:, None]
            gram = unit @ unit.T
            if np.linalg.det(gram) <= 1e-12:
                raise ValueError("basis vectors are numerically linearly dependent")

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
        rows = [as_element(space, t, f"targets[{i}]") for i, t in enumerate(targets)]
        if not rows:
            raise ValueError("targets must be nonempty")
        self.targets = np.array(rows, dtype=float)
        if not isinstance(g_basis, SubspaceBasis):
            g_basis = SubspaceBasis(space, g_basis)
        self.g_basis = g_basis
        self.b = as_element(space, b, "b")
        if not np.any(self.b != 0.0):
            raise ValueError("b: direction must be nonzero")
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
    vn = float(np.linalg.norm(v))
    if vn == 0.0:
        return False
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 0.0
    if not np.any(keep):
        return True
    unit = rows[keep] / norms[keep, None]
    return _rank(np.vstack([unit, v / vn])) == _rank(unit) + 1


class _Objective:
    """Batch evaluator for max_i p_b(f_i - g) with g = coeffs @ basis.

    Residuals are pushed through the seminorm's linear-map form once, so grid
    sweeps and subgradient steps cost one small matmul per batch.
    """

    def __init__(
        self, space: SpaceSpec, targets: np.ndarray, basis: np.ndarray, b: np.ndarray
    ) -> None:
        M = seminorm_map(space, b)
        self.l1 = isinstance(space, WhitePolynomial)
        self.TM = targets @ M.T  # (m, p)
        self.BM = basis @ M.T  # (k, p)
        self.m = targets.shape[0]

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

    def values_active_subgrad(
        self, C: np.ndarray, level: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Objective values, active target indices (ties -> lowest index),
        and coefficient-space subgradients of the l1 objective, one row per
        point.

        With ``level`` (the per-row target value the caller is stepping
        toward), residuals within twice the current gap to the level count as
        tied; tied pairs get the minimum-norm combination of their gradients
        (three or more tied fall back to the plain average).  Near a kink the
        minimum-norm direction tracks the valley floor instead of bouncing
        between its walls, and a margin that scales with the remaining gap
        keeps that tracking engaged at every stage of the descent.
        """
        Z = C @ self.BM
        n = C.shape[0]
        vals = np.empty((self.m, n))
        for i in range(self.m):
            vals[i] = self._norm_rows(self.TM[i] - Z)
        act = np.argmax(vals, axis=0)
        rows = np.arange(n)
        cur = vals[act, rows]
        if level is not None and self.m > 1:
            margin = np.maximum(2.0 * (cur - level), 0.0)
            near = vals >= (cur - margin)[None, :]
            count = near.sum(axis=0)
            if np.any(count > 1):
                k = self.BM.shape[0]
                Gs = np.empty((self.m, n, k))
                for i in range(self.m):
                    Gs[i] = -(np.sign(self.TM[i] - Z) @ self.BM.T)
                g1 = Gs[act, rows]
                masked = np.where(near, vals, -np.inf)
                masked[act, rows] = -np.inf
                second = np.argmax(masked, axis=0)
                g2 = Gs[second, rows]
                d = g1 - g2
                dn = np.einsum("ij,ij->i", d, d)
                lam = np.zeros(n)
                np.divide(
                    np.einsum("ij,ij->i", g1, d), dn, out=lam, where=dn > 0.0
                )
                pair = g1 - np.clip(lam, 0.0, 1.0)[:, None] * d
                avg = np.einsum("in,ink->nk", near / count[None, :], Gs)
                G = np.where(
                    (count == 1)[:, None],
                    g1,
                    np.where((count == 2)[:, None], pair, avg),
                )
                return cur, act, G
        return cur, act, -(np.sign(self.TM[act] - Z) @ self.BM.T)


@dataclass
class RestartResult:
    start: list[float]
    value: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "start": list(self.start),
            "value": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass
class SolveReport:
    g_star: np.ndarray
    value: float
    converged: bool
    per_restart: list[RestartResult]
    spread: float

    def to_dict(self) -> dict:
        return {
            "g_star": [float(v) for v in self.g_star],
            "value": self.value,
            "converged": self.converged,
            "per_restart": [r.to_dict() for r in self.per_restart],
            "spread": self.spread,
        }


@dataclass
class _EngineResult:
    starts: np.ndarray
    best_coeffs: np.ndarray
    best_values: np.ndarray
    iterations: np.ndarray  # per restart
    converged: np.ndarray
    winner: int


def _starts(targets: np.ndarray, k: int, cfg: SolverConfig) -> np.ndarray:
    """Restart points in coefficient space: the origin, then seeded Gaussian
    points scaled by twice the largest target coordinate.  A trivial subspace
    (k = 0) has a single point and needs a single restart."""
    if k == 0:
        return np.zeros((1, 0))
    scale = 2.0 * float(np.max(np.abs(targets)))
    rng = np.random.default_rng(cfg.seed)
    starts = np.zeros((cfg.restarts, k))
    if cfg.restarts > 1:
        starts[1:] = rng.standard_normal((cfg.restarts - 1, k)) * scale
    return starts


def _winner(values: np.ndarray, coeffs: np.ndarray) -> int:
    """Lowest value, ties broken by lexicographically smallest coefficients."""
    return min(range(values.shape[0]), key=lambda r: (values[r], tuple(coeffs[r])))


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
    q: np.ndarray, w: np.ndarray, x0: np.ndarray, max_pivots: int
) -> tuple[np.ndarray, float, float, int]:
    """Solve min_x max_i |x - q_i|^2 + w_i from the start ``x0``.

    Dual: maximize D(lam) = sum_i lam_i (|q_i|^2 + w_i) - |sum_i lam_i q_i|^2
    over the simplex, with the primal point x = sum_i lam_i q_i.  The support
    starts at the target farthest from ``x0``; each pivot adds the most
    violated target, or drops a weight the hull solve drives to zero, or
    steps along a null direction of an affinely dependent support.  The loop
    ends when no target lies outside the ball of the support, when D stops
    increasing (rounding), or after ``max_pivots`` pivots.

    Returns x, the primal value P = max_i |x - q_i|^2 + w_i, the certified
    dual value D(lam) <= P at the final weights, and the pivot count.
    """
    support = [int(np.argmax(_power(q, w, x0)))]
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
    k = basis.shape[0]
    if k:
        Q, R = np.linalg.qr(M @ basis.T)
        q = Y @ Q
        resid = Y - q @ Q.T
    else:
        R = np.zeros((0, 0))
        q = np.zeros((Y.shape[0], 0))
        resid = Y
    w = np.einsum("ij,ij->i", resid, resid)

    starts = _starts(targets, k, cfg)
    n = starts.shape[0]
    X = np.empty((n, k))
    values = np.empty(n)
    iterations = np.empty(n, dtype=int)
    converged = np.empty(n, dtype=bool)
    for r, x0 in enumerate(starts @ R.T):
        X[r], primal, dual, iterations[r] = _active_set(q, w, x0, cfg.max_iters)
        values[r] = np.sqrt(primal)
        converged[r] = values[r] - np.sqrt(dual) <= cfg.tol * (1.0 + values[r])
    coeffs = np.linalg.solve(R, X.T).T if k else X
    return _EngineResult(
        starts=starts,
        best_coeffs=coeffs,
        best_values=values,
        iterations=iterations,
        converged=converged,
        winner=_winner(values, coeffs),
    )


# ---------------------------------------------------------------------------
# WhitePolynomial: multi-start subgradient method

_WINDOW = 50  # iterations per improvement window for the stopping rule
_ROUND = 100  # iterations per target-level round in the refinement stage
_LEVEL_GAP0 = 1e-2  # initial target gap, relative to 1 + incumbent value
_LEVEL_FLOOR = 1e-16  # stop refining once the relative gap is below this
_HOLD_FRAC = 0.25  # keep the gap while a round removes this much of it
_STEP_CAP = 1e3  # safety cap on the Polyak step length, times 1 + scale


def _minimize(
    space: SpaceSpec,
    targets: np.ndarray,
    basis: np.ndarray,
    b: np.ndarray,
    cfg: SolverConfig,
) -> _EngineResult:
    obj = _Objective(space, targets, basis, b)
    k = basis.shape[0]
    starts = _starts(targets, k, cfg)

    if k == 0:
        return _EngineResult(
            starts=starts,
            best_coeffs=starts.copy(),
            best_values=obj.values(starts),
            iterations=np.zeros(1, dtype=int),
            converged=np.array([True]),
            winner=0,
        )

    R = cfg.restarts
    scale = 2.0 * float(np.max(np.abs(targets)))
    C = starts.copy()
    best_C = C.copy()
    best_v = obj.values(C).copy()
    prev_window_best = best_v.copy()
    window_improve = np.full(R, np.inf)

    warmup_end = min(cfg.max_iters, max(100, cfg.max_iters // 10))
    step_cap = _STEP_CAP * (1.0 + scale)

    t = 0
    delta = None
    round_base = None
    while t < cfg.max_iters:
        step_index = t + 1
        in_warmup = step_index <= warmup_end
        if not in_warmup:
            pos = (step_index - warmup_end - 1) % _ROUND
            if pos == 0:
                if delta is None:
                    delta = _LEVEL_GAP0 * (1.0 + best_v)
                else:
                    # Level adjustment: halve the target gap only once a
                    # round stops being productive at the current scale, so
                    # a restart that fell behind the shrinking gap catches
                    # up instead of freezing there.
                    hold = round_base - best_v >= _HOLD_FRAC * _ROUND * delta
                    delta = np.where(hold, delta, 0.5 * delta)
                if float(np.max(delta / (1.0 + best_v))) < _LEVEL_FLOOR:
                    break
                C = best_C.copy()
                round_base = best_v.copy()
        t = step_index

        level = None if delta is None else best_v - delta
        vals, _, grads = obj.values_active_subgrad(C, level=level)
        upd = vals < best_v
        best_C[upd] = C[upd]
        best_v = np.where(upd, vals, best_v)

        norms = np.linalg.norm(grads, axis=1)
        dirs = np.zeros_like(grads)
        nz = norms > 0.0
        dirs[nz] = grads[nz] / norms[nz, None]
        if in_warmup:
            eta = np.full(R, cfg.step0 / np.sqrt(step_index))
        else:
            # Target-level step: move by (value - level) / |subgradient|
            # toward level best_v - delta, shrinking delta between rounds.
            # The step stays proportional to the value gap, so progress
            # along kink ridges does not stall as fixed halved steps would.
            gap = vals - (best_v - delta)
            eta = np.zeros(R)
            eta[nz] = np.minimum(gap[nz] / norms[nz], step_cap)
        C = C - eta[:, None] * dirs

        if t % _WINDOW == 0:
            window_improve = prev_window_best - best_v
            prev_window_best = best_v.copy()

    vals = obj.values(C)
    upd = vals < best_v
    best_C[upd] = C[upd]
    best_v = np.where(upd, vals, best_v)

    converged = window_improve < cfg.tol
    return _EngineResult(
        starts=starts,
        best_coeffs=best_C,
        best_values=best_v,
        iterations=np.full(R, t),
        converged=converged,
        winner=_winner(best_v, best_C),
    )


def objective(problem: SimultaneousProblem, g) -> float:
    """Worst residual seminorm max_i ||f_i - g, b|| at a candidate g."""
    gv = as_element(problem.space, g, "g")
    return max(
        two_norm(problem.space, f - gv, problem.b) for f in problem.targets
    )


def _pair_distances(
    space: SpaceSpec, elements: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seminorm distances p_b(e_i - e_j) over all pairs i < j, in one batch."""
    i, j = np.triu_indices(elements.shape[0], 1)
    diffs = elements[i] - elements[j]
    return i, j, two_norm_rows(space, diffs, np.tile(b, (diffs.shape[0], 1)))


def _elements(problem: SimultaneousProblem, coeffs: np.ndarray) -> np.ndarray:
    """Subspace elements for rows of coefficients."""
    if problem.g_basis.k:
        return coeffs @ problem.g_basis.matrix
    return np.zeros((coeffs.shape[0], element_dim(problem.space)))


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
    """The solve engine of the space: exact for l2, subgradient for l1."""
    if isinstance(space, EuclideanGram):
        return _enclosing_ball(space, targets, basis, b, cfg)
    return _minimize(space, targets, basis, b, cfg)


def solve(problem: SimultaneousProblem) -> SolveReport:
    """Minimize the worst residual seminorm over the spanned subspace.

    Deterministic for a fixed problem and seed.  Restarts launch from the
    origin plus seeded Gaussian points scaled by twice the largest target
    coordinate; the winner is the lowest value with lexicographic coefficient
    tie-breaking.  On ``EuclideanGram`` each restart runs the exact
    active-set engine: ``iterations`` counts its pivots (at most
    ``max_iters``) and it converges when its certified duality gap
    sqrt(P) - sqrt(D) is at most ``tol * (1 + sqrt(P))``.  On
    ``WhitePolynomial`` the restarts run the subgradient method for
    ``max_iters`` iterations with warm-up step ``step0``, and a restart
    converges when its best value improved by less than ``tol`` over the last
    50 iterations.
    """
    _require_solvable(problem)
    res = _engine(
        problem.space, problem.targets, problem.g_basis.matrix, problem.b, problem.solver
    )
    return _report_from(problem, res)


def _report_from(problem: SimultaneousProblem, res: _EngineResult) -> SolveReport:
    elements = _elements(problem, res.best_coeffs)
    g_star = elements[res.winner]
    per_restart = [
        RestartResult(
            start=[float(v) for v in res.starts[r]],
            value=float(res.best_values[r]),
            iterations=int(res.iterations[r]),
            converged=bool(res.converged[r]),
        )
        for r in range(res.starts.shape[0])
    ]
    _, _, dists = _pair_distances(problem.space, elements, problem.b)
    return SolveReport(
        g_star=g_star,
        value=objective(problem, g_star),
        converged=bool(res.converged[res.winner]),
        per_restart=per_restart,
        spread=float(dists.max()) if dists.size else 0.0,
    )


def oracle_solve(
    problem: SimultaneousProblem, radius: float, resolution: int
) -> tuple[float, np.ndarray]:
    """Exhaustive grid minimization over [-radius, radius]^k, k <= 3.

    A coarse sweep at ``resolution`` points per axis is followed by one
    refinement pass around the best cell with a tenfold finer step.  Used as
    ground truth for :func:`solve` on small problems; the cost explodes with
    k, hence the hard cap.
    """
    k = problem.g_basis.k
    if k > 3:
        raise ValueError(f"grid oracle supports at most 3 basis vectors, got {k}")
    if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < 10:
        raise ValueError(f"resolution must be an integer >= 10, got {resolution!r}")
    if not (radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius!r}")

    obj = _Objective(problem.space, problem.targets, problem.g_basis.matrix, problem.b)
    if k == 0:
        g = problem.g_basis.combine(np.zeros(0))
        return objective(problem, g), g

    axes = [np.linspace(-radius, radius, resolution)] * k
    best_val, best_c = _grid_min(obj, axes)

    h = 2.0 * radius / (resolution - 1)
    fine_axes = [np.linspace(c - h, c + h, 21) for c in best_c]
    fine_val, fine_c = _grid_min(obj, fine_axes)
    if fine_val < best_val:
        best_val, best_c = fine_val, fine_c

    g = problem.g_basis.combine(best_c)
    return objective(problem, g), g


def _grid_min(obj: _Objective, axes: list[np.ndarray]) -> tuple[float, np.ndarray]:
    k = len(axes)
    if k == 1:
        C = axes[0][:, None]
        vals = obj.values(C)
        i = int(np.argmin(vals))
        return float(vals[i]), C[i].copy()
    if k == 2:
        A, B = np.meshgrid(axes[0], axes[1], indexing="ij")
        C = np.column_stack([A.ravel(), B.ravel()])
        vals = obj.values(C)
        i = int(np.argmin(vals))
        return float(vals[i]), C[i].copy()
    # k == 3: sweep the first axis in slabs to bound memory
    A, B = np.meshgrid(axes[1], axes[2], indexing="ij")
    tail = np.column_stack([A.ravel(), B.ravel()])
    buf = np.empty((tail.shape[0], 3))
    buf[:, 1:] = tail
    best_val = np.inf
    best_c = None
    for v0 in axes[0]:
        buf[:, 0] = v0
        vals = obj.values(buf)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_c = buf[i].copy()
    return best_val, best_c


def _subspace_parts(space: SpaceSpec, w_basis, b) -> tuple[SubspaceBasis, np.ndarray]:
    if not isinstance(w_basis, SubspaceBasis):
        w_basis = SubspaceBasis(space, w_basis)
    bv = as_element(space, b, "b")
    if not np.any(bv != 0.0):
        raise ValueError("b: direction must be nonzero")
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
    w_star = w_basis.combine(res.best_coeffs[res.winner])
    return two_norm(space, x0v - w_star, bv), w_star, bool(res.converged[res.winner])


def distance_to_subspace(
    space: SpaceSpec, x0, w_basis, b, cfg: Optional[SolverConfig] = None
) -> tuple[float, np.ndarray]:
    """Distance min over w in span(w_basis) of ||x0 - w, b|| and a minimizer.

    The single-target case of :func:`solve`, run by the space's engine: on
    ``EuclideanGram`` the exact engine reduces it to a least squares fit of
    the b-projected point against the projected basis.
    """
    delta, w_star, _ = _distance(space, x0, w_basis, b, cfg)
    return delta, w_star


def set_distance(
    space: SpaceSpec, a_set: Sequence, w_basis, b, cfg: Optional[SolverConfig] = None
) -> float:
    """inf over w in span(w_basis) of max over the set of ||a - w, b||."""
    rows = [as_element(space, a, f"a_set[{i}]") for i, a in enumerate(a_set)]
    if not rows:
        raise ValueError("a_set must be nonempty")
    targets = np.array(rows, dtype=float)
    w_basis, bv = _subspace_parts(space, w_basis, b)
    solver = cfg if cfg is not None else SolverConfig()
    res = _engine(space, targets, w_basis.matrix, bv, solver)
    w = w_basis.combine(res.best_coeffs[res.winner])
    return float(
        max(two_norm(space, a - w, bv) for a in targets)
    )


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

    def to_dict(self) -> dict:
        return {
            "functional": [float(v) for v in self.functional],
            "delta": self.delta,
        }


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

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "bound": self.bound,
            "max_ratio": self.max_ratio,
            "attained_ratio": self.attained_ratio,
            "h_on_basis_max": self.h_on_basis_max,
            "h_at_x0": self.h_at_x0,
            "samples": self.samples,
            "passed": self.passed,
        }


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

    def to_dict(self) -> dict:
        return {"lam": self.lam, "value": self.value, "ok": self.ok}


@dataclass
class BlendReport:
    value_g1: float
    value_g2: float
    entries: list[BlendEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "value_g1": self.value_g1,
            "value_g2": self.value_g2,
            "entries": [e.to_dict() for e in self.entries],
            "passed": self.passed,
        }


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

    def to_dict(self) -> dict:
        return {
            "distinct_optimizers": self.distinct_optimizers,
            "spread": self.spread,
            "restarts": self.restarts,
            "values": list(self.values),
        }


def uniqueness_probe(
    problem: SimultaneousProblem, restarts: int = 16, cluster_tol: float = 1e-5
) -> UniquenessReport:
    """Cluster restart optimizers by seminorm distance.

    On ``EuclideanGram`` the objective's strict convexity (the parallelogram
    law in the second slot) forces a unique minimizer, so a healthy run
    reports one cluster.  On ``WhitePolynomial`` flat optimal faces are
    possible and more clusters are informational, not an error.
    """
    if restarts < 2:
        raise ValueError(f"restarts must be >= 2, got {restarts}")
    _require_solvable(problem)
    cfg = replace(problem.solver, restarts=restarts)
    res = _engine(problem.space, problem.targets, problem.g_basis.matrix, problem.b, cfg)
    elements = _elements(problem, res.best_coeffs)
    i, j, dists = _pair_distances(problem.space, elements, problem.b)

    parent = list(range(elements.shape[0]))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, c in zip(i[dists < cluster_tol], j[dists < cluster_tol]):
        ra, rc = find(int(a)), find(int(c))
        if ra != rc:
            parent[ra] = rc
    clusters = len({find(a) for a in range(elements.shape[0])})
    return UniquenessReport(
        distinct_optimizers=clusters,
        spread=float(dists.max()) if dists.size else 0.0,
        restarts=restarts,
        values=[float(v) for v in res.best_values],
    )
