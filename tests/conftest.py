"""Shared fixtures."""

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
