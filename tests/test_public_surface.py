"""Every public name and class member has a caller outside the tests.

A name in a module's ``__all__`` must be read somewhere in ``src/``
outside its own definition, ``__all__`` and ``__init__.py``, or be named
in ``perfbench/``, or sit on ``KEEP`` with the reason it stays.

A public method, property or classmethod of a class in a module's
``__all__`` must be read as an attribute, ``x.member``, somewhere in
``src/`` or ``perfbench/``, or sit on ``KEEP_MEMBERS`` with the reason
it stays.  Both trees are parsed with ``ast``, so a member's name in a
string or a comment is no caller, and neither is the attribute of an
imported module: ``operator.index`` is not a read of a member ``index``.
A read is matched by name alone, so it counts for every member of that
name, whatever its class.  A kept name or member that gains a caller fails too, so each list holds
only what needs its reason.  So a helper that only tests call cannot
come back unnoticed.
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

# test-only class members that stay public, each with the reason
KEEP_MEMBERS = {
    "LaurentPoly.monomial": "acceptance test C4 builds queries with it; C1-C9 stay unchanged",
    "LinearFormIdeal.generators": "ROADMAP item 3b applies each generator to a window",
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


def _public_members(modules):
    """(module, class, member) for each public function defined in an exported class."""
    for mod, tree in modules.items():
        exported = set(_exported(tree))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield mod, node.name, item.name


def _module_aliases(tree, package_modules):
    """The names that imports in ``tree`` bind to modules."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            aliases.update(a.asname or a.name for a in node.names if a.name in package_modules)
    return aliases


def _read_attributes(trees, package_modules):
    """Every attribute loaded in the trees, except one read off an imported module."""
    attrs = set()
    for tree in trees:
        aliases = _module_aliases(tree, package_modules)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Name) and node.value.id in aliases)
            ):
                attrs.add(node.attr)
    return attrs


MODULES = _modules()
EXPORTS = [(mod, name) for mod, tree in MODULES.items() for name in _exported(tree)]
READ = _read_names(MODULES.values())
PERFBENCH_FILES = sorted((ROOT / "perfbench").glob("*.py"))
PERFBENCH = "\n".join(p.read_text(encoding="utf-8") for p in PERFBENCH_FILES)
MEMBERS = list(_public_members(MODULES))
READ_MEMBERS = _read_attributes(
    [*MODULES.values(), *(ast.parse(p.read_text(encoding="utf-8")) for p in PERFBENCH_FILES)],
    set(MODULES),
)


def _has_caller(name):
    return name in READ or re.search(rf"\b{re.escape(name)}\b", PERFBENCH) is not None


@pytest.mark.parametrize("module, name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_public_name_has_a_caller_or_a_reason(module, name):
    assert _has_caller(name) or name in KEEP, f"{module}.{name} is only called from tests"


@pytest.mark.parametrize("name", sorted(KEEP))
def test_kept_name_is_exported_and_still_needs_its_reason(name):
    assert name in {n for _, n in EXPORTS}
    assert not _has_caller(name), f"{name} has a caller now; drop it from KEEP"


@pytest.mark.parametrize(
    "module, cls, member", MEMBERS, ids=[f"{m}.{c}.{n}" for m, c, n in MEMBERS]
)
def test_public_member_has_a_caller_or_a_reason(module, cls, member):
    assert member in READ_MEMBERS or f"{cls}.{member}" in KEEP_MEMBERS, (
        f"{module}.{cls}.{member} is only called from tests"
    )


@pytest.mark.parametrize("qualname", sorted(KEEP_MEMBERS))
def test_kept_member_is_defined_and_still_needs_its_reason(qualname):
    assert qualname in {f"{c}.{n}" for _, c, n in MEMBERS}
    member = qualname.split(".")[1]
    assert member not in READ_MEMBERS, f"{qualname} has a caller now; drop it from KEEP_MEMBERS"
