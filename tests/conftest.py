"""Shared fixtures."""

import pytest

from arveson import numerics


@pytest.fixture()
def lapack_counts():
    """``numerics.CALLS``, cleared: the LAPACK calls made since, by kind."""
    numerics.CALLS.clear()
    return numerics.CALLS
