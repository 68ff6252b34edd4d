"""The package's public names."""

import tradeshock


def test_every_public_name_resolves_and_is_listed_once():
    names = tradeshock.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(tradeshock, name)] == []
