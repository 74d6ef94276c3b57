"""The package's public names: every export resolves, none is listed twice."""

import codedcache


def test_all_names_resolve_once():
    names = codedcache.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(codedcache, name)] == []
