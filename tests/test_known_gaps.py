"""Measured gaps of the program, each a strict expected failure until it is closed.

Each test asserts what the paper or the ROADMAP asks for and carries
``xfail(strict=True)`` with the ROADMAP item that closes it.  An
unexpected pass fails the suite, so the change that closes a gap must
remove its marker.  A gap test is never made to pass by loosening it.
"""

import subprocess
import sys
import time

import pytest

from starshift import rigidity
from starshift.cli import main


@pytest.fixture
def library_shear():
    """The library shear; toy reports computed under a patched one are dropped."""
    rigidity.exhaustive_toy_report.cache_clear()
    yield rigidity.shear
    rigidity.exhaustive_toy_report.cache_clear()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: d8b3 passes a map affine off a null set")
def test_verify_rejects_the_shear_on_the_fibres_x_equals_y(library_shear, monkeypatch):
    # the shear where x = y and the identity elsewhere agrees with an affine
    # map off a set of measure 1/|V|; no check takes a second difference at
    # a random base point, so d8b3 passes it
    def fibre_shear(t):
        return library_shear(t) if t.x.bits == t.y.bits else t

    # the library shear passes first, so a fault that fails every map
    # cannot make this test pass
    assert rigidity.run_full_verification(8, box_size=3, samples=100, seed=3).passed
    monkeypatch.setattr(rigidity, "shear", fibre_shear)
    rigidity.exhaustive_toy_report.cache_clear()
    report = rigidity.run_full_verification(8, box_size=3, samples=100, seed=3)
    assert not report.passed


# the child caps its own address space, so a missing guard fails this test
# with a MemoryError rather than straining the machine
_CAPPED_CONSTRUCT = """
import resource, sys
cap = 200 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from starshift.cli import main
sys.exit(main(["construct", "-d", "100000"]))
"""


def test_construct_refuses_a_huge_dimension_at_once():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CONSTRUCT],
        capture_output=True,
        text=True,
        timeout=20,
    )
    elapsed = time.perf_counter() - start
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 3
    assert elapsed < 2, elapsed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the refusal below 8 states no search")
def test_construct_below_8_names_the_candidates_it_checked(capsys):
    # the codes <1> + W with W in {x_6 = 0} number 247 at length 7, and
    # none has a proper Schur square
    assert main(["construct", "-d", "7"]) == 2
    assert "247 candidates" in capsys.readouterr().err
