import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from arveson import multiindex as mi
from arveson.polynomials import Polynomial
from arveson.errors import InputError

# The polynomial calculus the library no longer carries, kept as the tests'
# one oracle: evaluation, derivatives and jets at z all read the
# coefficients of the exact binomial recentering p(x + z).


def shift(p, z):
    """Recentering p(x + z); coefficients are the Taylor data of p at z."""
    z = tuple(complex(w) for w in z)
    assert len(z) == p.d
    table = {}
    for a, c in p.coeffs.items():
        # expand prod_j (x_j + z_j)^{a_j} with exact binomials
        stack = [((), 1.0 + 0j)]
        for aj, zj in zip(a, z):
            terms = [(k, math.comb(aj, k) * zj ** (aj - k)) for k in range(aj + 1)]
            stack = [(key + (k,), coef * w) for key, coef in stack for k, w in terms]
        for key, coef in stack:
            table[key] = table.get(key, 0) + c * coef
    return Polynomial(p.d, table)


def evaluate(p, z):
    """p(z), the constant term of the recentering."""
    return shift(p, z).coeffs.get((0,) * p.d, 0j)


def derivative_at(p, alpha, z):
    """d^alpha p(z): alpha! times the Taylor coefficient at z."""
    return mi.index_factorial(alpha) * shift(p, z).coeffs.get(mi.as_index(alpha), 0j)


def jet(p, z, mu, basis):
    """Taylor coefficients of order <= mu at z, laid out on ``basis``."""
    shifted = shift(p, z)
    return np.array([shifted.coeffs.get(a, 0j) if mi.degree(a) <= mu else 0j for a in basis])


def test_constructors():
    p = Polynomial.monomial((2, 0), 3.0)
    assert p.degree() == 2
    assert Polynomial.zero(2).degree() == -1
    assert Polynomial.constant(2, 5.0).coeffs == {(0, 0): 5.0}
    assert Polynomial.variable(2, 0).coeffs == {(1, 0): 1.0}
    assert evaluate(Polynomial.variable(2, 0), (0.25, -1.0)) == 0.25


def test_dimension_mismatch():
    with pytest.raises(InputError):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(InputError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)


def test_arithmetic_and_eval():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + 2 * y) * (x - y) + 1
    z = (0.3, -0.7)
    want = (z[0] + 2 * z[1]) * (z[0] - z[1]) + 1
    assert_allclose(evaluate(p, z), want, rtol=1e-14)


def test_partial_derivative():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x * x * y + 3 * y
    z = (0.5, -0.25)
    # d/dx p = 2xy and d^(2,1) p = 2, by hand
    assert derivative_at(p, (1, 0), z) == 2 * z[0] * z[1]
    assert derivative_at(p, (2, 1), z) == 2.0


def test_shift_recenters_exactly():
    x = Polynomial.variable(1, 0)
    p = x * x * x - 2 * x + 5
    z = (0.4,)
    q = shift(p, z)
    # q(u) = p(u + z), with both sides expanded by hand
    assert_allclose(
        [q.coeffs[(k,)] for k in range(4)],
        [z[0] ** 3 - 2 * z[0] + 5, 3 * z[0] ** 2 - 2, 3 * z[0], 1.0],
        rtol=1e-14,
    )


def test_taylor_coeff_is_scaled_derivative():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) ** 3
    # d^(2,1) (x+y)^3 = 6 everywhere, so the coefficient of (x-z)^(2,1) in
    # the expansion at z is 6 / (2! 1!)
    z = (0.1, -0.2)
    assert_allclose(shift(p, z).coeffs[(2, 1)], 3.0, rtol=1e-14)
    assert_allclose(derivative_at(p, (2, 1), z), 6.0, rtol=1e-14)


def test_coeff_vector_round_trip():
    basis = mi.enumerate_indices(2, 3)
    p = Polynomial(2, {(1, 2): 2.0 - 1j, (0, 0): 3.0})
    v = p.coeff_vector(basis)
    q = Polynomial.from_coeff_vector(2, v, basis)
    assert q == p


def test_coeff_vector_degree_overflow():
    basis = mi.enumerate_indices(2, 1)
    p = Polynomial.monomial((2, 0))
    with pytest.raises(InputError):
        p.coeff_vector(basis)


def test_jet_truncates_at_order():
    x = Polynomial.variable(1, 0)
    p = (x - 0.5) ** 4 + 2 * (x - 0.5)
    basis = mi.enumerate_indices(1, 2)
    j = jet(p, (0.5,), 2, basis)
    # orders 0..2 only: constant 0, linear 2, quadratic 0
    assert_allclose(j, [0.0, 2.0, 0.0], atol=1e-14)


coeff = st.complex_numbers(
    min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
)


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coeff, max_size=5
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coeff, max_size=5
    ),
)
def test_product_evaluates_pointwise(ca, cb):
    p = Polynomial(2, ca)
    q = Polynomial(2, cb)
    z = (0.37, -0.61)
    assert_allclose(evaluate(p * q, z), evaluate(p, z) * evaluate(q, z), atol=1e-9)


@given(
    st.dictionaries(st.tuples(st.integers(0, 4)), coeff, max_size=6),
    st.tuples(st.floats(-0.9, 0.9)),
)
def test_shift_then_unshift_is_identity(cs, z):
    p = Polynomial(1, cs)
    q = shift(shift(p, z), tuple(-x for x in z))
    r = p - q
    assert all(abs(c) < 1e-7 for c in r.coeffs.values())
