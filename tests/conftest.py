import os
import signal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from starshift import gf2

settings.register_profile(
    "starshift",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("starshift")

# the CLI tests run `python -m starshift` in child processes; point them at
# this checkout's sources, as pytest's own `pythonpath` setting does in-process
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pytest_configure(config):
    config.addinivalue_line("markers", "deadline(seconds): run first, failing past that wall time")


def pytest_collection_modifyitems(items):
    # a loop whose end rests on an invariant is tested first, under a
    # deadline, so that breaking the invariant fails that test instead of
    # hanging an earlier one that happens to run the loop
    items.sort(key=lambda item: item.get_closest_marker("deadline") is None)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("deadline")
    if marker is None:
        return (yield)
    (seconds,) = marker.args

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def eliminations(monkeypatch):
    """The rows of every ``gf2.echelon_pivots`` call in the test, one list per call.

    Each pair (c, r) the call is handed is recorded widened to the int r << c.
    """
    calls = []
    echelon_pivots = gf2.echelon_pivots

    def recording(rows):
        rows = list(rows)
        calls.append([r << c for c, r in rows])
        return echelon_pivots(rows)

    monkeypatch.setattr(gf2, "echelon_pivots", recording)
    return calls
