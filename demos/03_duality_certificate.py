"""Certify a computed distance with a dual functional.

Run:  python3 demos/03_duality_certificate.py
"""

import numpy as np

from pairnorm import (
    EuclideanGram,
    SubspaceBasis,
    WhitePolynomial,
    certificate,
    certificate_soundness,
    distance_to_subspace,
    seminorm_b,
    two_norm,
)

gram = EuclideanGram(dim=4)
rng = np.random.default_rng(21)

print("A primal solver can only ever exhibit *one* candidate and its value.")
print("A dual certificate bounds every other candidate at once: a functional")
print("h with h = 0 on the subspace, h(x0) = 1, and |h(u)| <= ||u, b|| / delta")
print("proves no w in W gets closer to x0 than delta.")
print()

x0 = rng.standard_normal(4)
basis = SubspaceBasis(gram, rng.standard_normal((2, 4)))
b = rng.standard_normal(4)
b /= np.linalg.norm(b)

delta, w_star = distance_to_subspace(gram, x0, basis, b)
print(f"distance of x0 to span(W) along b: delta = {delta:.6f}")
print(f"attained at w* = {np.round(w_star, 6)}")
print(f"check: ||x0 - w*, b|| = {two_norm(gram, x0 - w_star, b):.6f}")
print()

cert = certificate(gram, x0, basis, b)
print(f"certificate functional: {np.round(cert.functional, 6)}")
print(f"certified delta:        {cert.delta:.6f}")
print()

h = np.asarray(cert.functional)
print("the three defining properties, evaluated directly:")
print(f"    h(x0) = {float(h @ x0):+.3e}  (want 1)")
for i, w in enumerate(basis.matrix):
    print(f"    h(w{i + 1}) = {float(h @ w):+.3e}  (want 0)")
u = rng.standard_normal(4)
lhs = abs(float(h @ u))
rhs = seminorm_b(gram, b, u) / cert.delta
print(f"    |h(u)| = {lhs:.4f} <= ||u, b||/delta = {rhs:.4f} on a random u")
print()

sound = certificate_soundness(gram, cert, x0, basis, b, samples=2000, seed=5)
print(f"soundness sweep over {2000} random directions:")
print(f"    sup |h(u)| / ||u, b|| = {sound.max_ratio:.6f}")
print(f"    allowed bound 1/delta = {sound.bound:.6f}")
print(f"    ratio at x0 - w*      = {sound.attained_ratio:.6f}  (the sup is attained)")
print(f"    h on basis vectors, worst: {sound.h_on_basis_max:.3e}")
print(f"    certified bound holds: {sound.passed}")
print()

print("Scaling sanity: doubling x0 doubles the distance and halves h.")
delta2, _ = distance_to_subspace(gram, 2.0 * x0, basis, b)
cert2 = certificate(gram, 2.0 * x0, basis, b)
print(f"    delta(2 x0) = {delta2:.6f} = 2 * {delta:.6f}")
print(f"    h(2 x0 scale) / h = {cert2.functional[0] / cert.functional[0]:.3f}")
print()

print("The same construction certifies a distance on White's polynomial space,")
print("where p_b is an l1 norm and the solve is a linear program: h comes from")
print("the multipliers of its final basis, by the same formula h = M^T u / (u . M x0).")
white = WhitePolynomial(degree=3, points=(0.0, 0.125, 0.25, 0.5, 0.75, 1.0))
x0 = rng.uniform(-1.0, 1.0, 4)
basis = SubspaceBasis(white, rng.uniform(-1.0, 1.0, (2, 4)))
b = rng.uniform(-1.0, 1.0, 4)
cert = certificate(white, x0, basis, b)
sound = certificate_soundness(white, cert, x0, basis, b, samples=2000, seed=5)
h = np.asarray(cert.functional)
print(f"    delta = {cert.delta:.6f} at w* = {np.round(cert.w_star, 6)}")
print(f"    h(x0) = {float(h @ x0):+.3e}, worst |h| on the basis = {sound.h_on_basis_max:.3e}")
print(f"    sup |h(u)| / ||u, b|| = {sound.max_ratio:.6f} <= 1/delta = {sound.bound:.6f}")
print(f"    certified bound holds: {sound.passed}")
