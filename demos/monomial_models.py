"""Compressed shift models of monomial ideals.

Walks through the smallest interesting example, the square of the maximal
ideal in two variables, and shows what the library computes: the model
matrices, the row contraction identity, the annihilating polynomials, and
the circle of unitaries the model carries.
"""

import numpy as np

from arveson import models, tuples
from arveson.polynomials import Polynomial

np.set_printoptions(precision=4, suppress=True, linewidth=100)

# The ideal <x1^2, x1 x2, x2^2>. Its complement in the monomial lattice is
# {1, x1, x2}, so the model acts on a three dimensional space.
gens = [(2, 0), (1, 1), (0, 2)]
model = models.monomial_model(gens, 2)

print("basis monomials:", model.basis_indices)
for j, Z in enumerate(model.tuple.matrices):
    print(f"Z_{j + 1} =")
    print(Z.real)

# Both coordinates are rank one: they send the constant to the degree-one
# monomial and kill everything else. The row contraction identity
# sum Z_j Z_j^* = I - (projection onto the constants) is exact here.
G = sum(Z @ Z.conj().T for Z in model.tuple.matrices)
print("sum Z Z^* =", np.diag(G).real)

# The annihilator slice at degree 2 recovers the generators: its columns
# are coefficient vectors on the monomials of degree <= 2.
basis, ann = tuples.annihilator_coeffs(model.tuple, 2)
print("annihilator dimension at degree 2:", ann.shape[1])
for col in ann.T:
    print("  ", Polynomial.from_coeff_vector(2, col, basis))

# Every monomial model carries a circle action: a diagonal unitary W_t with
# W_t Z_j W_t^* = e^{it} Z_j. The defect below is rounding, nothing else.
t = 0.7
W = models.gauge_unitary(model, t)
defect = max(
    np.linalg.norm(W @ Z @ W.conj().T - np.exp(1j * t) * Z, 2)
    for Z in model.tuple.matrices
)
print(f"gauge covariance defect at t={t}: {defect:.2e}")

# A bigger staircase in three variables, to show the shape scales. A pure
# power of every variable must appear or the quotient is infinite.
big = models.monomial_model([(3, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)], 3)
print("staircase model dimension:", big.dim)
print("cyclic vector is the constant:", big.cyclic.real)
