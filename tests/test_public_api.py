"""The package's export list."""

from __future__ import annotations

import medal


def test_all_names_resolve_sorted_and_unique():
    missing = [name for name in medal.__all__ if not hasattr(medal, name)]
    assert missing == []
    assert medal.__all__ == sorted(set(medal.__all__))
