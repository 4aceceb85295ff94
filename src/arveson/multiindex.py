"""Multi-index arithmetic and graded-lexicographic monomial enumeration.

A multi-index is a plain tuple of non-negative integers; it serializes as a
plain integer array. All factorial arithmetic is exact (Python integers).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from .errors import InputError

# Guard against runaway degree loops; exactness itself has no degree limit.
MAX_DEGREE = 512

MultiIndex = tuple


def as_index(alpha: Iterable[int]) -> MultiIndex:
    """Validate and normalize an exponent vector to a tuple."""
    out = tuple(int(a) for a in alpha)
    if not out:
        raise InputError("multi-index must have length >= 1")
    if any(a < 0 for a in out):
        raise InputError(f"multi-index entries must be >= 0, got {out}")
    if sum(out) > MAX_DEGREE:
        raise InputError(f"degree {sum(out)} exceeds hard limit {MAX_DEGREE}")
    return out


def degree(alpha: Sequence[int]) -> int:
    return sum(alpha)


def index_factorial(alpha: Sequence[int]) -> int:
    """alpha! = prod_j alpha_j!, exact."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def multinomial_weight(alpha: Sequence[int]) -> int:
    """|alpha|!/alpha!, always a positive integer."""
    num = math.factorial(degree(alpha))
    den = index_factorial(alpha)
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def _homogeneous(d: int, ell: int) -> tuple[MultiIndex, ...]:
    # Exponent vectors of total degree ell, in descending lexicographic order
    # (x_1 powers first), which is the graded-lex convention used everywhere.
    out = []
    for comb in combinations_with_replacement(range(d), ell):
        alpha = [0] * d
        for j in comb:
            alpha[j] += 1
        out.append(tuple(alpha))
    out.sort(reverse=True)
    return tuple(out)


def enumerate_indices(d: int, max_degree: int) -> list[MultiIndex]:
    """All alpha with |alpha| <= max_degree in graded lexicographic order.

    The count is C(d + max_degree, d). Within each total degree the indices are
    ordered with earlier variables dominating, e.g. (1,0) before (0,1).
    """
    if d < 1:
        raise InputError(f"dimension must be >= 1, got {d}")
    if max_degree < 0:
        raise InputError(f"max_degree must be >= 0, got {max_degree}")
    if max_degree > MAX_DEGREE:
        raise InputError(f"max_degree {max_degree} exceeds hard limit {MAX_DEGREE}")
    out: list[MultiIndex] = []
    for ell in range(max_degree + 1):
        out.extend(_homogeneous(d, ell))
    return out


def add(alpha: Sequence[int], beta: Sequence[int]) -> MultiIndex:
    if len(alpha) != len(beta):
        raise InputError("multi-index length mismatch")
    return tuple(a + b for a, b in zip(alpha, beta))


def unit(d: int, j: int) -> MultiIndex:
    if not 0 <= j < d:
        raise InputError(f"coordinate {j} out of range for dimension {d}")
    return tuple(1 if i == j else 0 for i in range(d))
