import resflow


def test_every_exported_name_resolves():
    assert [name for name in resflow.__all__ if not hasattr(resflow, name)] == []
    assert len(set(resflow.__all__)) == len(resflow.__all__)
