"""Fixtures shared by the test modules."""

import pytest

from fourfold import expressions, manifolds


@pytest.fixture
def empty_memos(monkeypatch):
    """Empty memos of validated descriptors and of resolved sums, restored
    when the test ends."""
    monkeypatch.setattr(manifolds, "_VALIDATED", {})
    monkeypatch.setattr(expressions, "_RESOLVED", {})
