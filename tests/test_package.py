"""The package's public surface: `twoatom.__all__`."""

import twoatom


def test_every_public_name_resolves_once():
    assert twoatom.__all__ == sorted(set(twoatom.__all__))
    assert [name for name in twoatom.__all__ if not hasattr(twoatom, name)] == []
    namespace = {}
    exec("from twoatom import *", namespace)
    assert set(twoatom.__all__) <= set(namespace)
