import importlib
import pkgutil

import pytest

import sumprod

# Every submodule but the command line, so a module folded away or added
# changes what this test checks.
_SUBMODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(sumprod.__path__)
    if info.name not in {"cli", "__main__"}
)


def test_package_exports_match_submodules():
    # the package re-exports exactly what its submodules declare public
    submodules = [importlib.import_module(f"sumprod.{name}") for name in _SUBMODULES]
    declared = set().union(*(mod.__all__ for mod in submodules))
    assert set(sumprod.__all__) - {"__version__"} == declared
    assert len(sumprod.__all__) == len(set(sumprod.__all__))
    assert all(hasattr(sumprod, name) for name in sumprod.__all__)


def test_folded_modules_are_gone():
    # the Bezout/lift helpers live in witness and the class product oracle
    # in oracle; no shim module keeps a second path to their names
    from sumprod import CongruenceClass, product_class_contains, sylvester_nonneg

    assert sylvester_nonneg is sumprod.witness.sylvester_nonneg
    assert CongruenceClass is sumprod.oracle.CongruenceClass
    assert product_class_contains is sumprod.oracle.product_class_contains
    for gone in ("sumprod.core_arith", "sumprod.classes"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)
