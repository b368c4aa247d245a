"""Static checks over the package source with the stdlib ``ast``.

No linter ships with the project, so these checks stand in for one:
every import a module makes is used, and every module-level private
name is referenced somewhere in the package.  Both catch copies left
behind when a formula moves between modules.  A third check keeps the
moving estimator's config to the settings its step reads, and another
keeps the fits to returning parameters, with `evaluation.score` the one
caller of the density, and another keeps one formatter of streamed rows.  One more keeps scipy out of the runtime, and
another asks every dataclass field to be read somewhere outside
validation (`__post_init__`, or a hand-written `__init__`), so no
stored value goes unread.  Last, the README's library and CLI examples run, its
Defaults table matches the parser's defaults, and the row count it gives
for the trajectory writer's workers is the writer's, so the API, the
commands and the figures it documents cannot drift from the code.
"""

import argparse
import ast
import pathlib
import re
import shlex

import pytest

import movingt
from movingt.cli import build_parser, main

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


def _callers(tree, name):
    """Where a module calls ``name``: each function or method (as
    Class.method) whose body holds the call, or "<module>"."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = (child.name if where == "<module>"
                         else f"{where}.{child.name}")
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                found.add(where)
            visit(child, inner)
    visit(tree, "<module>")
    return found


def test_fits_return_parameters_and_only_the_scorer_scores():
    # the fold and the GARCH filter return (mu, sigma, nu); turning
    # points and parameters into log-densities is evaluation's scorer's
    calls = {(path.stem, where) for path in MODULES
             for where in _callers(_tree(path), "log_density")}
    assert calls == {("evaluation", "score")}, \
        f"log_density called outside evaluation.score: {sorted(calls)}"
    trajectory = _top_level(_tree(PACKAGE / "adaptive.py"), ast.ClassDef,
                            "ParamTrajectory")
    fields = [node.target.id for node in trajectory.body
              if isinstance(node, ast.AnnAssign)]
    assert fields == ["start", "mu", "sigma", "nu"]


def test_one_streamed_writer_formats_the_rows():
    # the reports of one row a point (fit-adaptive's trajectory, the
    # series of returns and synth) are formatted by one chunk formatter
    calls = {(path.stem, where) for path in MODULES
             for where in _callers(_tree(path), "_format_rows")}
    assert calls == {("data_io", "_chunk_rows")}, \
        f"_format_rows called outside data_io._chunk_rows: {sorted(calls)}"


def _is_dataclass(node):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    # a field read only where a dataclass is built (its __post_init__,
    # or an __init__ written in place of the generated one) is checked
    # and then dropped
    trees = [_tree(path) for path in MODULES]
    classes = [node for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef) and _is_dataclass(node)]
    validation = {id(node) for cls in classes for method in cls.body
                  if isinstance(method, ast.FunctionDef)
                  and method.name in ("__post_init__", "__init__")
                  for node in ast.walk(method)}
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in validation}
    fields = [(cls.name, node.target.id) for cls in classes
              for node in cls.body if isinstance(node, ast.AnnAssign)]
    assert fields, "the scan found no dataclass fields"
    unread = [field for field in fields if field[1] not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)  # the example writes a report here
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert (tmp_path / "trajectory.csv").read_text().startswith(
        "# scenario = regime switch at t = 5000\nt,date,x,mu,sigma,nu,"
        "log_density\n300,,")


def test_readme_cli_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert [argv[:2] for argv in commands] == [
        ["movingt", name] for name in
        ("synth", "fit-adaptive", "sweep", "tail-table", "garch")]
    monkeypatch.chdir(tmp_path)  # the example writes its files here
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def _subparsers():
    """{command: its subparser} of the CLI's parser."""
    action, = (a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_readme_defaults_table_matches_the_parser():
    # each row's flags against every command that takes them; a command
    # named in the row as "`cmd` defaults to V" is held to V instead
    table = README.read_text(encoding="utf-8").split(
        "\n### Defaults\n", 1)[1].strip().split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()[2:]]
    assert rows, "the Defaults table has no rows"
    commands = _subparsers()
    checked = set()
    for flag_cell, default_cell, meaning in rows:
        flags = re.findall(r"`(--[\w-]+)`", flag_cell)
        defaults = [float(v) for v in default_cell.split(",")]
        assert len(flags) == len(defaults), flag_cell
        exceptions = {cmd: float(v) for cmd, v in
                      re.findall(r"`([\w-]+)` defaults to ([\d.e+-]+)", meaning)}
        for flag, default in zip(flags, defaults):
            takers = {cmd: sub for cmd, sub in commands.items()
                      if flag in sub._option_string_actions}
            assert takers, f"no command takes {flag}"
            for cmd, sub in takers.items():
                want = exceptions.get(cmd, default)
                assert sub._option_string_actions[flag].default == want, (
                    cmd, flag)
            checked.add(flag)
    assert {"--eta1", "--p-sigma", "--nu-cap", "--warmup"} <= checked


def test_readme_worker_threshold_matches_the_writer():
    from movingt import data_io
    section = README.read_text(encoding="utf-8").split(
        "\n### Time and memory\n", 1)[1].split("\n## ", 1)[0]
    stated = re.findall(r"once (\d+) rows are written", section)
    assert stated == [str(data_io._PARALLEL_MIN_ROWS)]
