"""Fixtures shared by the test modules."""

import pytest

import fvig.tensor


@pytest.fixture
def fresh_lane(monkeypatch):
    """No worker yet and a CPU left free by BLAS; a worker started by the test is shut down after it."""
    monkeypatch.setattr(fvig.tensor, "_worker", None)
    monkeypatch.setattr(fvig.tensor, "_SPARE_CPU", True)
    yield
    if fvig.tensor._worker is not None:
        fvig.tensor._worker.shutdown()
