"""Fixtures for the service tests."""

import pytest


@pytest.fixture(autouse=True)
def _no_worker_left(no_worker_left_behind):
    """No service test may leave a worker process running."""
