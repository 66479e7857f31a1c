"""The package's export list."""

import fracwave


def test_every_exported_name_resolves():
    missing = [name for name in fracwave.__all__ if not hasattr(fracwave, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from fracwave import *", namespace)
    assert set(fracwave.__all__) <= set(namespace)
