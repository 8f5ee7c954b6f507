"""The package's public names."""

import cdrhomes


def test_every_exported_name_resolves():
    missing = [name for name in cdrhomes.__all__ if not hasattr(cdrhomes, name)]
    assert missing == []
    assert len(set(cdrhomes.__all__)) == len(cdrhomes.__all__)
