import landau_cylinder
from landau_cylinder import core, drive, eigenstates, experiments, magtrans, propagator

SUBMODULES = (core, drive, eigenstates, experiments, magtrans, propagator)


def test_package_exports_have_no_duplicates():
    assert len(landau_cylinder.__all__) == len(set(landau_cylinder.__all__))


def test_every_package_export_resolves():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(landau_cylinder, name) is getattr(module, name), name
    assert isinstance(landau_cylinder.__version__, str)


def test_package_exports_are_the_submodule_exports():
    expected = {"__version__"}.union(*(module.__all__ for module in SUBMODULES))
    assert set(landau_cylinder.__all__) == expected
