import os
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


@pytest.fixture
def eliminations(monkeypatch):
    """The rows of every ``gf2.echelon_pivots`` call in the test, one list per call."""
    calls = []
    echelon_pivots = gf2.echelon_pivots

    def recording(rows):
        rows = list(rows)
        calls.append(rows)
        return echelon_pivots(rows)

    monkeypatch.setattr(gf2, "echelon_pivots", recording)
    return calls
