"""Fixtures shared by the test modules."""

import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

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


@contextmanager
def _tracing():
    window = SimpleNamespace(current=None, peak=None)
    tracemalloc.start()
    try:
        yield window
        window.current, window.peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced():
    """A context manager that traces the allocations of its block and
    stops tracing on leaving it, also when the block raises.  It yields a
    window whose current and peak are tracemalloc's traced bytes at the
    end of the block."""
    return _tracing
