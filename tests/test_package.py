import promil


def test_every_exported_name_resolves():
    missing = [name for name in promil.__all__ if not hasattr(promil, name)]
    assert missing == []
    assert len(set(promil.__all__)) == len(promil.__all__)
