"""Static checks over the package source with the stdlib ``ast``.

No linter ships with the project, so these checks stand in for one:
every import a module makes is used, and every module-level private
name is referenced somewhere in the package.  Both catch copies left
behind when a formula moves between modules.  A third check keeps the
moving estimator's config to the settings its step reads, and a fourth
keeps scipy out of the runtime.
"""

import ast
import pathlib

import pytest

import movingt

PACKAGE = pathlib.Path(movingt.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree):
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _loaded(tree):
    """Names read anywhere in a module, as bare names or attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _private_definitions(tree):
    """Single-underscore names bound at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _loaded(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names]
        else:
            continue
        unused += [(node.lineno, name) for name in bound if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    # the runtime needs numpy alone; scipy is a benchmark-only dependency
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append(node.module)
    scipy = [name for name in found if name.split(".")[0] == "scipy"]
    assert not scipy, f"{path.name} imports {scipy}"


def test_every_private_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    imported = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update(a.name for a in node.names)
    orphans = [(name, private)
               for name, tree in trees.items()
               for private in sorted(_private_definitions(tree))
               if private not in _loaded(tree) and private not in imported]
    assert not orphans, f"private names nothing references: {orphans}"


def _top_level(tree, kind, name):
    return next(node for node in tree.body
                if isinstance(node, kind) and node.name == name)


def test_every_adaptive_setting_is_read_by_step():
    # a config field that `step` never reads changes no estimate
    tree = _tree(PACKAGE / "adaptive.py")
    fields = {node.target.id
              for node in _top_level(tree, ast.ClassDef, "AdaptiveConfig").body
              if isinstance(node, ast.AnnAssign)}
    read = {node.attr
            for node in ast.walk(_top_level(tree, ast.FunctionDef, "step"))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "config"}
    assert fields, "AdaptiveConfig declares no fields"
    assert not fields - read, \
        f"AdaptiveConfig fields step() never reads: {sorted(fields - read)}"
