"""The committed mutant catalogue stays in step with the tree.

``tools/mutants.py`` applies each mutant as a text replacement whose old
text must occur exactly once, and ``tools/mutants.json`` records its last
run, each mutant killed by a named test.  Without this test a stale
entry shows only when the whole catalogue runs, and then the run exits 2.
The catalogue's own copies of the tree hold no ``tools/``, so there this
test skips and never kills a mutant.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"

if not TOOL.exists():
    pytest.skip("no mutant catalogue in this tree", allow_module_level=True)

_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, file, old", [m[:3] for m in mutants.MUTANTS],
                         ids=[m[0] for m in mutants.MUTANTS])
def test_old_text_occurs_once(name, file, old):
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1


def test_names_are_unique():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_record_kills_exactly_the_catalogue():
    record = json.loads(mutants.OUT.read_text(encoding="utf-8"))
    assert [(r["name"], r["file"]) for r in record["mutants"]] == [
        (name, file) for name, file, _, _ in mutants.MUTANTS
    ]
    assert [r["name"] for r in record["mutants"] if r["verdict"] != "killed"] == []


def test_record_names_the_test_that_kills_each_mutant():
    # a file alone means the mutant broke its collection and none of its
    # tests ran; "timeout" names no test either
    record = json.loads(mutants.OUT.read_text(encoding="utf-8"))
    assert [r["name"] for r in record["mutants"] if "::" not in r["by"]] == []


def test_record_seed_is_the_catalogue_seed():
    record = json.loads(mutants.OUT.read_text(encoding="utf-8"))
    assert record["hypothesis_seed"] == mutants.HYPOTHESIS_SEED
