import tracemalloc

import pytest


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture()
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)`` calls ``fn`` with tracemalloc on
    and returns its result and the peak of the bytes traced during the call."""
    return _traced_peak
