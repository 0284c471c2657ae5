"""A time limit on every test in this directory: a test still running
after LIMIT_S seconds fails with TimeoutError, so a change that makes
the engine hang fails in seconds instead of running until the CI job's
own limit.  The slowest test takes a few seconds."""

import signal

import pytest

LIMIT_S = 30


@pytest.fixture(autouse=True)
def time_limit(request):
    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
