import sddpkit


def test_every_public_name_resolves():
    missing = [name for name in sddpkit.__all__ if not hasattr(sddpkit, name)]
    assert missing == []
    assert len(set(sddpkit.__all__)) == len(sddpkit.__all__)
