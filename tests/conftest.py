"""Shared fixtures."""

import collections
import importlib
import sys

import pytest

from arveson import numerics

# dense LAPACK entry points whose calls ``lapack_counts`` records
_COUNTED = {
    "numpy.linalg": ("svd", "eigh", "eigvalsh"),
    "scipy.linalg": ("inv",),
}


@pytest.fixture()
def lapack_counts(monkeypatch):
    """Counter of the calls made to the entry points in ``_COUNTED``.

    Each function is replaced in every loaded submodule of its package that
    binds it, so a call numpy makes internally (``np.linalg.norm(a, 2)``
    reaches ``svd`` that way) is counted as well. The ``zgesdd`` handle of
    ``arveson.numerics`` counts as ``svd``. Clear the counter before the
    call under test.
    """
    counts = collections.Counter()
    for package, names in _COUNTED.items():
        top = importlib.import_module(package)
        holders = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        for name in names:
            orig = getattr(top, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                counts[_name] += 1
                return _orig(*args, **kwargs)

            for mod in holders:
                # vars(), not getattr(): some scipy modules warn on attribute access
                if vars(mod).get(name) is orig:
                    monkeypatch.setattr(mod, name, counted)

    def gesdd(*args, _orig=numerics._gesdd, **kwargs):
        counts["svd"] += 1
        return _orig(*args, **kwargs)

    monkeypatch.setattr(numerics, "_gesdd", gesdd)
    return counts
