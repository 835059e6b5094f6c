import importlib

import pytest

import wgcorr

MODULES = ("dispersion", "modes", "wavepackets", "quadrature", "correlators", "bounds")


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_every_public_name_of_each_module(name):
    module = importlib.import_module(f"wgcorr.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if getattr(wgcorr, n, None) is not getattr(module, n)] == []

