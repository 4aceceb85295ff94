"""Interpolation diagnostics on finite point sets in the ball.

Separation and Carleson constants, the minimal multiplier norm of a
two-point interpolation problem, and what happens to the jet model's
similarity to a diagonal as two nodes collide.
"""

import numpy as np

from arveson import interp, models, polyideal, spectral, tuples
from arveson.polynomials import Polynomial

# Two points on the real axis of the one dimensional ball.
pts = [[0.0], [0.5]]
sep = interp.separation_constants(pts)
print(f"delta_weak     = {sep.delta_weak:.12f}")
print(f"gamma_carleson = {sep.gamma_carleson:.12f}")

# Minimal multiplier norm sending 0 -> 0 and 0.5 -> sqrt(3)/2. The value
# is the top eigenvalue of a matrix pencil, and the Pick matrix is checked
# positive semidefinite just above it.
target = np.sqrt(3.0) / 2.0
r = interp.pick_min_norm(pts, [0.0, target])
print(f"pick norm for (0, {target:.4f}) = {r.value:.8f}  "
      f"(certified at {r.upper:.8f}, Pick margin {r.margin:.3e}; "
      f"lower bound max|a| = {r.lower:.8f})")

# The jet model at these two points (simple nodes, so jets of order one)
# is similar to the diagonal with the points as entries.
x = Polynomial.variable(1, 0)
ideals = [polyideal.PolyIdeal([x], 6), polyideal.PolyIdeal([x - 0.5], 6)]
model = models.jet_model(pts, ideals, tol=1e-10)
dec = spectral.jordan_decompose(model.tuple)
print("jet model spectrum:", [f"{p[0]:.6f}" for p in dec.spectrum.points],
      f" cond(X) = {dec.cond:.4f}")

# Push the second node toward the first and watch the similarity degrade:
# the diagonalizing X must separate two nearly parallel kernel directions.
print("collision trend (second node w, cond of diagonalizing X):")
for w in (0.5, 0.3, 0.1, 0.03, 0.01):
    idw = [polyideal.PolyIdeal([x], 6), polyideal.PolyIdeal([x - w], 6)]
    m = models.jet_model([[0.0], [w]], idw, tol=1e-10)
    d = spectral.jordan_decompose(m.tuple)
    print(f"  w = {w:5.2f}: cond(X) = {d.cond:12.4f}")
