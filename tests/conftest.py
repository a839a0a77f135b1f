import os
from pathlib import Path

from hypothesis import HealthCheck, settings

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
