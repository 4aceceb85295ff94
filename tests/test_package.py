import arveson


def test_every_export_exists():
    # a deleted function must not leave its name behind in __all__
    missing = [name for name in arveson.__all__ if not hasattr(arveson, name)]
    assert missing == []
    assert len(set(arveson.__all__)) == len(arveson.__all__)
