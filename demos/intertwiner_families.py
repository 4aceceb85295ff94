"""Families where every similarity is forced to be badly conditioned.

Two compact families of cyclic nilpotent tuples that are similar to their
monomial models, with the whole intertwiner space known in closed form, so
the minimal condition number over all intertwiners is certified exactly
(a witness intertwiner attains a compression lower bound): 1/eps in one
variable and f(eps)^2/eps in two.
"""

from arveson import repro

# One variable: 2x2 blocks [[0, eps], [0, 0]] against the model [[0,1],[0,0]].
# The intertwiners are upper triangular and the best condition number is
# exactly 1/eps.
rep = repro.example_one_variable(eps_list=(0.1, 0.01, 0.001), lams=(0.5,))
print("one variable family (predicted min cond = 1/eps):")
for row in rep.rows:
    print(f"  eps = {row.eps:7.4f}: measured {row.measured_min_cond:10.2f}, "
          f"formula {row.formula_min_cond:10.2f}, "
          f"within 1%: {row.within_one_percent}")

# Two variables: R(eps) = (N1, N1 + eps N2)/f(eps) on 3x3. The intertwiner
# space is three dimensional with an explicit parametric form, det X =
# a^3 eps / f^2 along it, and the minimal condition number is exactly
# f^2/eps even though the family converges as eps -> 0. The determinant
# identity alone forces only the weaker bound eps^(-1/3) f^(2/3).
rep2 = repro.example_two_variable(eps_list=(1.0, 0.1, 0.01, 0.001))
print("two variable family (min cond f^2/eps >= eps^(-1/3) f^(2/3)):")
for row in rep2.rows:
    print(f"  eps = {row.eps:7.4f}: f = {row.f_measured:8.5f}, "
          f"nullspace dim {row.nullspace_dim}, "
          f"min cond {row.measured_min_cond:9.3f} >= {row.lower_bound:9.3f}: "
          f"{row.bound_holds}")

# The dichotomy at a glance: separated simple nodes keep a uniformly
# bounded diagonalizer, while the nilpotent families above degrade at a
# polynomial rate in eps: order zero (kappa = 0) against order one. At order
# zero the minimal condition number is bracketed, with proof, from the
# normalized kernel Gram; at order one both ends are the exact minimum.
rep3 = repro.dichotomy_demo(kappa=0)
rep4 = repro.dichotomy_demo(kappa=1)
print(f"dichotomy: point model min cond in [{rep3.min_cond_lower:.4f}, "
      f"{rep3.min_cond_upper:.4f}] (bounded), "
      f"family min cond over eps = {rep4.min_cond_upper:.2f} (degrading)")
