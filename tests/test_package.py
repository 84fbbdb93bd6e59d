import genosc


def test_every_exported_name_resolves():
    missing = [name for name in genosc.__all__ if not hasattr(genosc, name)]
    assert missing == []
