"""The package root: one public surface, the union of the modules' lists."""

import mpwmdac
from mpwmdac import analog, metrics, modwave, periph, spectral


def test_root_exports_the_union_of_the_module_lists():
    modules = (analog, metrics, modwave, periph, spectral)
    expected = {"ParameterError"}.union(*(m.__all__ for m in modules))
    assert len(mpwmdac.__all__) == len(set(mpwmdac.__all__))
    assert set(mpwmdac.__all__) == expected
    for m in modules:
        for name in m.__all__:
            assert getattr(mpwmdac, name) is getattr(m, name), name
    assert mpwmdac.ParameterError is mpwmdac.errors.ParameterError
