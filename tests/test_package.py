"""The public API of the `lacunary` package."""

import lacunary


def test_every_public_name_resolves_once():
    names = lacunary.__all__
    assert sorted(set(names)) == sorted(names), "a name is listed twice in __all__"
    missing = [name for name in names if not hasattr(lacunary, name)]
    assert missing == []
