"""Reference implementations the tests compare the library against.

Each was a library function that only tests needed; it lives here,
computing what it computed there, as the oracle of the library code that
does the same work.
"""

import math
from fractions import Fraction

from arveson import multiindex as mi
from arveson import numerics, serialization
from arveson.errors import InputError

HERMITIAN_RTOL = 1e-10


def hermitian_eig(a):
    """Eigenvalues (ascending) and unitary eigenvectors of a Hermitian matrix.

    The input is symmetrized internally; a deviation from Hermitian symmetry
    beyond ``HERMITIAN_RTOL`` relative to the norm is an error. It is the
    reference, bit for bit, of the library's eigensolves.
    """
    a = numerics.as_cmatrix(a)
    numerics._require_square(a)
    scale = max(numerics.operator_norm(a), 1.0)
    defect = numerics.operator_norm(a - a.conj().T)
    if defect > HERMITIAN_RTOL * scale:
        raise InputError(
            f"matrix is not Hermitian: asymmetry {defect:.3e} exceeds {HERMITIAN_RTOL:.1e}*{scale:.3e}"
        )
    return numerics.hermitian_part_eig(a)


def monomial_norm_sq(alpha) -> Fraction:
    """Exact squared norm alpha!/|alpha|! of the monomial x^alpha in the
    Drury-Arveson space."""
    alpha = mi.as_index(alpha)
    return Fraction(mi.index_factorial(alpha), math.factorial(mi.degree(alpha)))


def dump_polynomial(p) -> dict:
    """A ``Polynomial`` in the wire format: its terms in graded order,
    earlier variables first within a degree."""
    terms = [
        {"alpha": list(alpha), "coeff": serialization.dump_complex(c)}
        for alpha, c in sorted(p.coeffs.items(), key=lambda kv: (sum(kv[0]), [-a for a in kv[0]]))
    ]
    return {"d": p.d, "terms": terms}
