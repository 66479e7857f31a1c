"""Fixtures shared by the test modules."""

import pytest

from fracwave import harness


@pytest.fixture
def fresh_systems():
    """An empty harness.mesh_system cache before and after the test.

    For tests that patch fem or solver internals and then go through
    run_level: a system cached by an earlier test would skip the patched
    code, and one built under the patch would outlive it.
    """
    harness.mesh_system.cache_clear()
    yield
    harness.mesh_system.cache_clear()
