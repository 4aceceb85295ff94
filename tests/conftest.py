"""Shared fixtures."""

import types

import numpy as np
import pytest

from arveson import numerics


@pytest.fixture()
def lapack_counts():
    """``numerics.CALLS``, cleared: the LAPACK calls made since, by kind."""
    numerics.CALLS.clear()
    return numerics.CALLS


def _nan(shape):
    # NaN with the invalid flag raised, as a gufunc whose LAPACK call failed
    return np.divide(0.0, np.zeros(shape))


def _nan_values(a, signature):
    return _nan(a.shape[:-2] + (min(a.shape[-2:]),))


def _nan_vectors(a, signature):
    *lead, m, n = a.shape
    k = min(m, n)
    return _nan((*lead, m, k)), _nan((*lead, k)), _nan((*lead, k, n))


@pytest.fixture()
def svd_fails(monkeypatch):
    """Every SVD gufunc that ``numerics`` calls fails to converge."""
    fake = types.SimpleNamespace(svd=_nan_values, svd_s=_nan_vectors, svd_f=_nan_vectors)
    monkeypatch.setattr(numerics, "_umath_linalg", fake)
