"""Checks on the repository's tooling that a change to the package can break."""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    res = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines()[-1] == "0 failed"


def test_package_imports_only_the_standard_library():
    """``pyproject.toml`` declares ``dependencies = []``: every import in
    ``src/hypercore`` is relative or names a standard-library module."""
    foreign = []
    for path in sorted((ROOT / "src" / "hypercore").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.partition(".")[0] not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []


def _imported_names(tree, modules):
    """Names ``tree`` imports from a package module, or reads as an
    attribute of a package module alias (``from . import bounds as b``)."""
    aliases = set()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    aliases.add(alias.asname or alias.name)
                else:
                    names.add(alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    """Each name ``hypercore/__init__.py`` re-exports is imported or read
    through a module alias by another package module, read in its own
    module, or imported by the acceptance tests: no public API that
    nothing uses."""
    package = ROOT / "src" / "hypercore"
    trees = {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py")}
    exports = {
        alias.asname or alias.name: node.module
        for node in trees.pop("__init__").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    callers = {
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hypercore")
        for alias in node.names
    }
    for name, tree in trees.items():
        callers |= _imported_names(tree, trees)
    read_at_home = {
        name: {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, tree in trees.items()
    }
    unused = sorted(
        name
        for name, home in exports.items()
        if name not in callers and name not in read_at_home[home]
    )
    assert unused == []
