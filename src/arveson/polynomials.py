"""Polynomials in d complex variables as sparse coefficient dictionaries.

This is the boundary representation: the JSON wire format reads and writes
it, and a ``PolyIdeal`` is built from it. Everything downstream (ideal
slices, localizations, annihilators) works on dense coefficient vectors on
a monomial basis, which ``coeff_vector`` and ``from_coeff_vector`` convert
to and from. Coefficients are complex floats.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from . import multiindex as mi
from .errors import InputError


class Polynomial:
    """Sparse polynomial sum_alpha c_alpha x^alpha."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: Mapping[tuple, complex] | None = None):
        if d < 1:
            raise InputError(f"dimension must be >= 1, got {d}")
        self.d = int(d)
        table: dict[tuple, complex] = {}
        if coeffs:
            for alpha, c in coeffs.items():
                alpha = mi.as_index(alpha)
                if len(alpha) != self.d:
                    raise InputError(
                        f"exponent {alpha} has length {len(alpha)}, expected {self.d}"
                    )
                c = complex(c)
                if c != 0:
                    table[alpha] = table.get(alpha, 0) + c
        self.coeffs = {a: c for a, c in table.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "Polynomial":
        return cls(d, {})

    @classmethod
    def constant(cls, d: int, c: complex) -> "Polynomial":
        return cls(d, {tuple(0 for _ in range(d)): c})

    @classmethod
    def monomial(cls, alpha: Sequence[int], c: complex = 1.0) -> "Polynomial":
        alpha = mi.as_index(alpha)
        return cls(len(alpha), {alpha: c})

    @classmethod
    def variable(cls, d: int, j: int) -> "Polynomial":
        return cls(d, {mi.unit(d, j): 1.0})

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.coeffs:
            return -1
        return max(mi.degree(a) for a in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.d == other.d
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.d, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        parts = [f"({c:g})*x^{a}" for a, c in sorted(self.coeffs.items(), reverse=True)]
        return "Polynomial(" + " + ".join(parts) + ")"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.d, complex(other))
        self._check(other)
        table = dict(self.coeffs)
        for a, c in other.coeffs.items():
            table[a] = table.get(a, 0) + c
        return Polynomial(self.d, table)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self * -1.0

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.d, complex(other))
        return self + (other * -1.0)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __pow__(self, k: int) -> "Polynomial":
        k = int(k)
        if k < 0:
            raise InputError("negative powers are not polynomials")
        out = Polynomial.constant(self.d, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            table: dict[tuple, complex] = {}
            for a, ca in self.coeffs.items():
                for b, cb in other.coeffs.items():
                    key = mi.add(a, b)
                    table[key] = table.get(key, 0) + ca * cb
            return Polynomial(self.d, table)
        c = complex(other)
        return Polynomial(self.d, {a: v * c for a, v in self.coeffs.items()})

    __rmul__ = __mul__

    def _check(self, other: "Polynomial") -> None:
        if self.d != other.d:
            raise InputError(f"dimension mismatch: {self.d} vs {other.d}")

    # -- coefficient vectors -------------------------------------------------

    def coeff_vector(self, basis: Sequence[tuple]) -> np.ndarray:
        """Coefficients laid out on an enumerated monomial basis."""
        pos = {alpha: i for i, alpha in enumerate(basis)}
        out = np.zeros(len(basis), dtype=complex)
        for a, c in self.coeffs.items():
            if a not in pos:
                raise InputError(
                    f"monomial x^{a} of degree {mi.degree(a)} not representable "
                    "in the given basis"
                )
            out[pos[a]] = c
        return out

    @classmethod
    def from_coeff_vector(
        cls, d: int, vec: Iterable[complex], basis: Sequence[tuple]
    ) -> "Polynomial":
        table = {}
        for alpha, c in zip(basis, vec):
            if c != 0:
                table[alpha] = complex(c)
        return cls(d, table)
