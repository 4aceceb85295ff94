"""Shared fixtures."""

import collections
import importlib
import sys

import pytest

from arveson import numerics

# dense LAPACK entry points whose calls ``lapack_counts`` records
_COUNTED = {
    "numpy.linalg": ("svd", "eigh", "eigvalsh"),
    "scipy.linalg": ("inv", "schur"),
}


@pytest.fixture()
def lapack_counts(monkeypatch):
    """Counter of the calls made to the entry points in ``_COUNTED``.

    Each function is replaced in every loaded submodule of its package that
    binds it, so a call numpy makes internally (``np.linalg.norm(a, 2)``
    reaches ``svd`` that way, and ``scipy.linalg.solve_sylvester`` makes
    two ``schur`` calls) is counted as well. The LAPACK handles of
    ``arveson.numerics`` count too: ``zgesdd`` as ``svd``, ``ztrsen`` as
    ``trsen`` and ``ztrsyl`` as ``trsyl``. Clear the counter before the call
    under test.
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

    for handle, key in (("_gesdd", "svd"), ("_trsen", "trsen"), ("_trsyl", "trsyl")):

        def counted_handle(*args, _orig=getattr(numerics, handle), _key=key, **kwargs):
            counts[_key] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(numerics, handle, counted_handle)
    return counts
