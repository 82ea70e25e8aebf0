"""Helpers shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(call, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc traces while `call(*args, **kwargs)` runs."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The helper that measures one call's traced peak."""
    return _traced_peak
