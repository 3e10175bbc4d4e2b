import sumprod
from sumprod import classes, core_arith, iterated, oracle, progressions, witness


def test_package_exports_match_submodules():
    # the package re-exports exactly what its submodules declare public
    submodules = (classes, core_arith, iterated, oracle, progressions, witness)
    declared = set().union(*(mod.__all__ for mod in submodules))
    assert set(sumprod.__all__) - {"__version__"} == declared
    assert len(sumprod.__all__) == len(set(sumprod.__all__))
    assert all(hasattr(sumprod, name) for name in sumprod.__all__)
