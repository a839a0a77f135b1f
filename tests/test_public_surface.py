"""Every public name has a caller outside the tests.

A name in a module's ``__all__`` must be read somewhere in ``src/``
outside its own definition, ``__all__`` and ``__init__.py``, or be named
in ``perfbench/``, or sit on ``KEEP`` with the reason it stays.  So a
helper that only tests call cannot come back unnoticed.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "starshift"

# test-only names that stay public, each with the reason
KEEP = {
    "cw_product": "the acceptance tests C1-C9 call it and stay unchanged",
    "collapse_to_univariate": "mixing certificates are checked through it",
    "annihilator_ideal": "ROADMAP item 3 puts it on verify's path",
    "restrict": "ROADMAP item 3 puts it on verify's path",
    "apply_poly": "ROADMAP item 3 puts it on verify's path",
}


def _modules():
    return {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _read_names(trees):
    """Every name and attribute loaded anywhere in the modules."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


MODULES = _modules()
EXPORTS = [(mod, name) for mod, tree in MODULES.items() for name in _exported(tree)]
READ = _read_names(MODULES.values())
PERFBENCH = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py")))


def _has_caller(name):
    return name in READ or re.search(rf"\b{re.escape(name)}\b", PERFBENCH) is not None


@pytest.mark.parametrize("module, name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_public_name_has_a_caller_or_a_reason(module, name):
    assert _has_caller(name) or name in KEEP, f"{module}.{name} is only called from tests"


@pytest.mark.parametrize("name", sorted(KEEP))
def test_kept_name_is_exported_and_still_needs_its_reason(name):
    assert name in {n for _, n in EXPORTS}
    assert not _has_caller(name), f"{name} has a caller now; drop it from KEEP"
