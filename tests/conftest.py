import multiprocessing
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process alive, as the benchmark fails
    a run that leaves one running: a forked helper that outlives its run
    holds the parent's pipes open. It only looks; it never kills."""
    yield
    alive = multiprocessing.active_children()
    assert not alive, f"child processes left alive: {alive}"


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn()`` and returns its result together with
    the peak number of bytes it held above the level at the call (numpy
    reports its array buffers to tracemalloc)."""

    def run(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return result, peak

    return run
