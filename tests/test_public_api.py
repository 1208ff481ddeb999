"""The package's public names."""

from __future__ import annotations

import genrank


def test_all_names_resolve_once():
    names = genrank.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(genrank, name)] == []
    namespace = {}
    exec("from genrank import *", namespace)
    assert set(names) <= set(namespace)
