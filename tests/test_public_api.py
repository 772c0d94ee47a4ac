"""The package's public surface."""

import wqisa


def test_star_import_resolves_every_export():
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec("from wqisa import *", namespace)
    assert [name for name in wqisa.__all__ if name not in namespace] == []
    assert len(set(wqisa.__all__)) == len(wqisa.__all__)
