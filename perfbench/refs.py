"""Reference answers computed from the definitions, without importing pairnorm.

Every check in the benchmark compares pairnorm's output against one of these
or against a property the method must have.  Nothing here reads a stored
copy of an earlier output.

* ``gram_pb`` is the Euclidean seminorm p_b(u) = (|u|^2 |b|^2 - (u.b)^2)^(1/2).
* ``white_map`` builds the White seminorm from its definition
  p_b(f) = sum_k |f(t_k) b'(t_k) - f'(t_k) b(t_k)| with numpy's polynomial
  evaluation.
* ``euclid_optimum`` solves the dual of best simultaneous approximation under
  the Gram seminorm exactly.  After reducing by b and QR-factoring the
  projected basis, the problem is min_x max_i |x - q_i|^2 + w_i, a smallest
  enclosing ball under power distance (Gaertner 1999).  Its dual is
  max over the simplex of D(lam) = sum_i lam_i (|q_i|^2 + w_i) - |sum_i lam_i q_i|^2,
  and D(lam) <= value^2 for every lam on the simplex, so any lam certifies a
  lower bound.  At most k + 1 targets support the optimum, so enumerating the
  supports finds the exact one.
* ``white_optimum`` solves the l1 problem as a linear program with HiGHS
  (Barrodale and Phillips 1975 treat the same l1 form).
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.polynomial import polynomial as npoly


def gram_pb(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    """p_b of each row of ``U`` from the Gram definition."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    b = np.asarray(b, dtype=float)
    uu = np.sum(U * U, axis=1)
    ub = U @ b
    return np.sqrt(np.maximum(uu * float(b @ b) - ub * ub, 0.0))


def white_map(points, b: np.ndarray) -> np.ndarray:
    """Matrix W with p_b(f) = |W f|_1 under the White 2-norm at ``points``."""
    t = np.asarray(points, dtype=float)
    b = np.asarray(b, dtype=float)
    bv = npoly.polyval(t, b)
    bd = npoly.polyval(t, npoly.polyder(b))
    cols = []
    for j in range(b.shape[0]):
        e = np.zeros(b.shape[0])
        e[j] = 1.0
        cols.append(npoly.polyval(t, e) * bd - npoly.polyval(t, npoly.polyder(e)) * bv)
    return np.column_stack(cols)


def white_pb(U: np.ndarray, b: np.ndarray, points) -> np.ndarray:
    """p_b of each row of ``U`` under the White 2-norm."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    return np.abs(U @ white_map(points, b).T).sum(axis=1)


def white_pair(X: np.ndarray, Y: np.ndarray, points) -> np.ndarray:
    """Row-wise White 2-norm ||x, y|| from the definition."""
    t = np.asarray(points, dtype=float)
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    fv = npoly.polyval(t, X.T)
    fd = npoly.polyval(t, npoly.polyder(X.T))
    gv = npoly.polyval(t, Y.T)
    gd = npoly.polyval(t, npoly.polyder(Y.T))
    return np.abs(fv * gd - fd * gv).sum(axis=1)


def pair_norm(kind: str, X: np.ndarray, Y: np.ndarray, points=None) -> np.ndarray:
    """Row-wise 2-norm for either space, from the definitions."""
    if kind == "euclid":
        X = np.atleast_2d(X)
        Y = np.atleast_2d(Y)
        xx = np.sum(X * X, axis=1)
        yy = np.sum(Y * Y, axis=1)
        xy = np.sum(X * Y, axis=1)
        return np.sqrt(np.maximum(xx * yy - xy * xy, 0.0))
    return white_pair(X, Y, points)


def euclid_objective(T: np.ndarray, g: np.ndarray, b: np.ndarray) -> float:
    """max_i p_b(f_i - g) from the Gram definition."""
    return float(gram_pb(np.asarray(T) - np.asarray(g)[None, :], b).max())


def euclid_optimum(T: np.ndarray, B: np.ndarray, b: np.ndarray) -> dict:
    """Exact optimum of min_c max_i p_b(f_i - B^T c) through the dual.

    Returns the certified lower bound ``lower`` (sqrt of the best dual value
    found), the primal ``coeffs`` recovered from the optimal weights and the
    primal value ``upper`` at those coefficients.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    B = np.asarray(B, dtype=float).reshape(-1, T.shape[1])
    b = np.asarray(b, dtype=float)
    nb = float(np.linalg.norm(b))
    P = np.eye(b.shape[0]) - np.outer(b, b) / float(b @ b)
    Y = nb * (T @ P)  # |y_i - A c| = p_b(f_i - B^T c)
    k = B.shape[0]
    if k:
        A = nb * (P @ B.T)
        Q, R = np.linalg.qr(A)
        q = Y @ Q
    else:
        R = np.zeros((0, 0))
        q = np.zeros((T.shape[0], 0))
    w = np.maximum(np.sum(Y * Y, axis=1) - np.sum(q * q, axis=1), 0.0)
    a = np.sum(q * q, axis=1) + w

    m = T.shape[0]
    best_val, best_lam = -np.inf, None
    for size in range(1, min(m, k + 1) + 1):
        for S in itertools.combinations(range(m), size):
            idx = list(S)
            qs = q[idx]
            K = np.zeros((size + 1, size + 1))
            K[:size, :size] = 2.0 * (qs @ qs.T)
            K[:size, size] = 1.0
            K[size, :size] = 1.0
            sol = np.linalg.lstsq(K, np.append(a[idx], 1.0), rcond=None)[0][:size]
            lam_s = np.maximum(sol, 0.0)
            if lam_s.sum() <= 0.0:
                continue
            lam = np.zeros(m)
            lam[idx] = lam_s / lam_s.sum()
            centre = lam @ q
            val = float(lam @ a - centre @ centre)
            if val > best_val:
                best_val, best_lam = val, lam
    centre = best_lam @ q
    coeffs = np.linalg.solve(R, centre) if k else np.zeros(0)
    g = coeffs @ B if k else np.zeros(T.shape[1])
    return {
        "lower": float(np.sqrt(max(best_val, 0.0))),
        "upper": euclid_objective(T, g, b),
        "coeffs": coeffs,
    }


def euclid_distance(x0: np.ndarray, W: np.ndarray, b: np.ndarray) -> float:
    """Single-target Euclidean distance in closed form (least squares)."""
    b = np.asarray(b, dtype=float)
    P = np.eye(b.shape[0]) - np.outer(b, b) / float(b @ b)
    y = P @ np.asarray(x0, dtype=float)
    W = np.asarray(W, dtype=float).reshape(-1, b.shape[0])
    if W.shape[0]:
        A = P @ W.T
        c = np.linalg.lstsq(A, y, rcond=None)[0]
        y = y - A @ c
    return float(np.linalg.norm(b) * np.linalg.norm(y))


def white_optimum(T: np.ndarray, B: np.ndarray, b: np.ndarray, points) -> dict:
    """Exact optimum of min_c max_i |W (f_i - B^T c)|_1 as a linear program.

    Variables are the coefficients c, one slack s_ij >= |r_ij| per residual
    entry, and the level t; the LP minimizes t subject to sum_j s_ij <= t.
    ``value`` is the objective re-evaluated at the LP's coefficients, which
    is a primal value at a vertex and so accurate to rounding.
    """
    from scipy.optimize import linprog

    T = np.atleast_2d(np.asarray(T, dtype=float))
    B = np.asarray(B, dtype=float).reshape(-1, T.shape[1])
    W = white_map(points, b)
    F = T @ W.T  # (m, n) residual offsets
    G = B @ W.T  # (k, n)
    m, n = F.shape
    k = G.shape[0]
    nv = k + m * n + 1
    cost = np.zeros(nv)
    cost[-1] = 1.0
    rows, rhs = [], []
    for i in range(m):
        for j in range(n):
            s = np.zeros(nv)
            s[k + i * n + j] = -1.0
            # r_ij = F_ij - G[:, j] . c ;  r_ij - s_ij <= 0 and -r_ij - s_ij <= 0
            up = s.copy()
            up[:k] = -G[:, j]
            rows.append(up)
            rhs.append(-F[i, j])
            lo = s.copy()
            lo[:k] = G[:, j]
            rows.append(lo)
            rhs.append(F[i, j])
        tot = np.zeros(nv)
        tot[k + i * n : k + (i + 1) * n] = 1.0
        tot[-1] = -1.0
        rows.append(tot)
        rhs.append(0.0)
    bounds = [(None, None)] * k + [(0.0, None)] * (m * n) + [(0.0, None)]
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    coeffs = res.x[:k]
    value = float(np.abs(F - coeffs @ G).sum(axis=1).max())
    return {"value": value, "coeffs": coeffs}
