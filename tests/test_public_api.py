"""The package's public name list."""

import vendormatch


def test_all_names_resolve_sorted_and_unique():
    for name in vendormatch.__all__:
        assert hasattr(vendormatch, name), name
    assert vendormatch.__all__ == sorted(set(vendormatch.__all__))
