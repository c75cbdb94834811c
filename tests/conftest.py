"""Shared fixtures."""

import tracemalloc

import numpy as np
import pytest


@pytest.fixture()
def eigen_calls(monkeypatch):
    """A list that gets one entry per np.linalg.eigh or eigvalsh call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture()
def alloc_peak():
    """measure(fn, *args, **kwargs) -> (fn's result, peak bytes allocated
    above the starting level while fn ran), traced with tracemalloc, which
    also sees numpy's array buffers."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            out = fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak - start
    return measure
