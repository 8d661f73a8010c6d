"""A wall-clock bound on every test.

A test whose call runs past TEST_SECONDS fails with TimeoutError, so a
looping test fails the suite instead of hanging it. The bound is a SIGALRM
alarm in the main process, set well above the slowest test; game workers
forked inside a test do not inherit it, and the test that waits on them
is what the alarm stops.
"""

import signal

import pytest

TEST_SECONDS = 60


def _expired(signum, frame):
    raise TimeoutError(f"test ran past its {TEST_SECONDS} s wall-clock bound")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):  # no alarms on this platform: unbounded
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
