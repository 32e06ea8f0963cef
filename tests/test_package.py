"""The package holds only what its users call.

Every public top-level function, class and module-level constant in
``src/lcr`` must be named somewhere outside its own definition: by another
part of the package, a demo, the benchmark or the README.  Re-exports in
``lcr/__init__.py`` do not count, since exporting a name is not a use of it;
each re-export must instead be imported from ``lcr`` by the README, a demo
or the benchmark.  Code that only the tests call belongs in ``tests/``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lcr"

# Called by no program file, kept because each completes a documented CLI
# format round trip: a user can read back what the CLI writes, or write
# what it reads.
ROUND_TRIPS = {
    "format_graph": "writes the graph file that `lcr verify decomposition` "
    "and `lcr verify threshold` read",
    "parse_colormap": "reads the color map that `lcr reduce --emit-colormap` writes",
}


def _named(tree: ast.AST) -> list[tuple[str, int]]:
    """(identifier, line) for every name, attribute and import in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.rsplit(".", 1)[-1], node.lineno))
    return out


def _defined(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, class or constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _user_files() -> list[Path]:
    """The demos and the benchmark: the program's users outside the package."""
    return [
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "perfbench").rglob("*.py")),
    ]


def _unused_definitions() -> list[str]:
    program_files = [*sorted(PACKAGE.glob("*.py")), *_user_files()]
    trees = {path: ast.parse(path.read_text()) for path in program_files}
    named = {
        path: _named(tree)
        for path, tree in trees.items()
        if path != PACKAGE / "__init__.py"
    }
    readme = (ROOT / "README.md").read_text()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            own = range(node.lineno, node.end_lineno + 1)
            for name in _defined(node):
                if name.startswith("_") or name in ROUND_TRIPS:
                    continue
                used = re.search(rf"\b{name}\b", readme) or any(
                    ident == name and not (other == path and line in own)
                    for other, idents in named.items()
                    for ident, line in idents
                )
                if not used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_public_definition_has_a_user_outside_the_tests():
    assert _unused_definitions() == []


def _imported_from_lcr(tree: ast.AST) -> set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lcr"
        for alias in node.names
    }


def test_every_re_export_is_imported_from_lcr_by_a_user():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert sources, "the README's python examples went missing"
    sources += [path.read_text() for path in _user_files()]
    imported = set().union(*(_imported_from_lcr(ast.parse(s)) for s in sources))
    assert sorted(exported - imported) == []


def test_the_readme_quick_start_prints_what_its_comments_promise(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S)
    assert block, "the README's quick start went missing"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n[(0, 2), (1, 1), (2, 3)] 4\nTrue\n"


def test_the_round_trip_keeps_name_real_functions():
    from lcr import fileio

    for name in ROUND_TRIPS:
        assert callable(getattr(fileio, name))


def test_the_package_imports_nothing_from_the_tests():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                assert not (node.module or "").startswith("tests"), path.name
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("tests") for a in node.names), path.name
