import wristlink


def test_all_has_no_duplicates():
    assert len(wristlink.__all__) == len(set(wristlink.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in wristlink.__all__ if not hasattr(wristlink, name)]
    assert missing == []
