"""Approximate several targets at once from inside a subspace.

Run:  python3 demos/02_simultaneous_approximation.py
"""

import numpy as np

from pairnorm import (
    EuclideanGram,
    SimultaneousProblem,
    SubspaceBasis,
    WhitePolynomial,
    objective,
    oracle_solve,
    solve,
    two_norm,
    uniqueness_probe,
)

gram = EuclideanGram(dim=3)

print("Given targets f1..fm, a subspace G, and a direction b, find the g in G")
print("minimizing the worst residual max_i ||f_i - g, b||.")
print()

# Two targets symmetric about the e1 axis, approximated along span{e1}.
f1 = [1.0, 1.0, 0.0]
f2 = [1.0, -1.0, 0.0]
basis = SubspaceBasis(gram, [[1.0, 0.0, 0.0]])
problem = SimultaneousProblem(gram, [f1, f2], basis, b=[0.0, 0.0, 1.0])
report = solve(problem)
print(f"symmetric pair over span(e1): value {report.value:.6f}, "
      f"g* = {np.round(report.g_star, 6)}")
print(f"residual at f1: {two_norm(gram, np.subtract(f1, report.g_star), [0, 0, 1]):.6f}")
print(f"residual at f2: {two_norm(gram, np.subtract(f2, report.g_star), [0, 0, 1]):.6f}")
print("both residuals tie: the optimum sits where neither target can improve")
print("without hurting the other.")
print()

# On EuclideanGram the solver is an exact active-set method with a certified
# duality gap; the minimum over a grid of coefficients double-checks it
# independently.
value, g_grid = oracle_solve(problem, radius=2.0, resolution=401)
print(f"grid search over [-2, 2]: value {value:.6f} at {np.round(g_grid, 6)}")
print()

# Midpoint law: with G containing both targets, the best worst-residual is
# half the pair distance, attained at the midpoint.
rng = np.random.default_rng(3)
f1 = rng.standard_normal(3)
f2 = rng.standard_normal(3)
b = [0.0, 0.0, 1.0]
problem = SimultaneousProblem(gram, [f1, f2], SubspaceBasis(gram, [f1, f2]), b)
report = solve(problem)
half = 0.5 * two_norm(gram, f1 - f2, b)
print(f"midpoint law: solved value {report.value:.12f}")
print(f"              half distance {half:.12f}")
print(f"              midpoint objective {objective(problem, 0.5 * (f1 + f2)):.12f}")
print()

# Polynomials: approximate t and 1-t by constants under the Wronskian norm,
# measured against b = t^2.  On WhitePolynomial the seminorm is an l1 norm,
# so the problem is a linear program; one simplex run solves it exactly and
# converges only with a certified duality gap.  The optimum need not be
# unique: a second simplex stage walks the optimal face to its extremes.
white = WhitePolynomial(degree=2, points=(0.0, 0.3, 0.7, 1.0))
p1 = [0.0, 1.0, 0.0]   # t
p2 = [1.0, -1.0, 0.0]  # 1 - t
problem = SimultaneousProblem(
    white, [p1, p2], SubspaceBasis(white, [[1.0, 0.0, 0.0]]), b=[0.0, 0.0, 1.0],
)
report = solve(problem)
print(f"polynomials t and 1-t by a constant: value {report.value:.6f}, "
      f"constant {report.g_star[0]:.6f}")
print(f"simplex pivots: {report.per_restart[0].iterations}, "
      f"converged={report.converged}")
face = uniqueness_probe(problem)
print(f"optimal face: {face.distinct_optimizers} distinct extreme point(s), "
      f"spread {face.spread:.2e}")
value, _ = oracle_solve(problem, radius=2.0, resolution=401)
print(f"grid search over [-2, 2]: value {value:.6f}")
print()

# A flat face: with b = 1 the seminorm is sum_k |u'(t_k)|, and the objective
# at g = c g1, g1 = -(1 + t), is |c - 1| + |c - 1.5| + |c - 2| + |c - 2.5|,
# which is 2 for every c in [1.5, 2].
white = WhitePolynomial(degree=2, points=(0.0, 0.25, 0.5, 0.75))
problem = SimultaneousProblem(white, [[-1, -1, -1]], [[-1, -1, 0]], b=[1, 0, 0])
face = uniqueness_probe(problem)
print(f"flat face: {face.distinct_optimizers} distinct extreme points, "
      f"spread {face.spread:.6f}, values {face.values}")
