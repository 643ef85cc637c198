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


def _package_trees():
    package = ROOT / "src" / "hypercore"
    return {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}


def _exports(init):
    """Each name the package's ``__init__`` re-exports, with its module."""
    return {
        alias.asname or alias.name: node.module
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


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
    trees = _package_trees()
    exports = _exports(trees.pop("__init__"))
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


def test_no_public_function_takes_a_private_parameter():
    """No public function or method in ``src/hypercore`` has a parameter
    whose name starts with ``_``: a switch only the package may set is a
    private function's argument, not a public one's."""
    found = []
    for name, tree in _package_trees().items():
        scopes = [(name, tree.body)]
        scopes += [
            (f"{name}.{node.name}", node.body)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        ]
        for scope, body in scopes:
            for fn in body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("_") and not fn.name.endswith("__"):
                    continue
                args = fn.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                found += [f"{scope}.{fn.name}({a.arg})" for a in params if a.arg.startswith("_")]
    assert found == []


def _is_dataclass(node):
    """Whether a class is decorated ``@dataclass`` or ``@dataclass(...)``."""
    for deco in node.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(fn, ast.Name) and fn.id == "dataclass":
            return True
    return False


def test_every_exported_dataclass_field_is_read():
    """Each field of a dataclass ``hypercore/__init__.py`` re-exports is
    read as an attribute by a package module or by the acceptance tests:
    no result field that only unit tests read."""
    trees = _package_trees()
    exports = _exports(trees["__init__"])
    trees["test_acceptance"] = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{node.name}.{field.target.id}"
        for module in set(exports.values())
        for node in trees[module].body
        if isinstance(node, ast.ClassDef) and node.name in exports and _is_dataclass(node)
        for field in node.body
        if isinstance(field, ast.AnnAssign)
        and isinstance(field.target, ast.Name)
        and field.target.id not in read
    ]
    assert unread == []


def test_no_function_calls_itself():
    """No result depends on recursion depth: no function in ``src/hypercore``
    calls itself by name, as a plain call or as an attribute call such as
    ``self.f``.  ``super().__init__`` is another class's method."""
    found = []
    for path in sorted((ROOT / "src" / "hypercore").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name):
                    name = f.id
                elif isinstance(f, ast.Attribute) and not (
                    isinstance(f.value, ast.Call)
                    and isinstance(f.value.func, ast.Name)
                    and f.value.func.id == "super"
                ):
                    name = f.attr
                else:
                    continue
                if name == fn.name:
                    found.append(f"{path.stem}.{fn.name}:{node.lineno}")
    assert found == []


def _package_modules_imported(node):
    """The package modules an import names, as paths below ``hypercore``:
    ``from .oracle import x``, ``from . import oracle``, ``import
    hypercore.oracle`` and ``from hypercore import oracle`` all give
    ``oracle``."""
    if isinstance(node, ast.Import):
        paths = [alias.name for alias in node.names]
    elif node.level:
        return [node.module] if node.module else [alias.name for alias in node.names]
    else:
        paths = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return [p.removeprefix("hypercore.") for p in paths if p.startswith("hypercore.")]


def test_only_the_cli_imports_the_oracle():
    """The oracle is the ground truth the algorithms are certified against,
    so it stays outside them: no package module but ``cli`` and
    ``__init__`` imports ``oracle``."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items()
        if name not in ("cli", "__init__")
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(p.partition(".")[0] == "oracle" for p in _package_modules_imported(node))
    ]
    assert found == []


def test_only_propagation_imports_absorb():
    """The closure state ``(active, need, left)`` is built and extended in
    ``propagation`` alone: no other package module imports ``_absorb``, by
    name or as an attribute of an imported module."""
    trees = _package_trees()
    found = [
        name
        for name, tree in trees.items()
        if name != "propagation" and "_absorb" in _imported_names(tree, trees)
    ]
    assert found == []


def test_oracle_scores_radii_by_batch_only():
    """The oracle's radius searches have one scoring path, the batch
    rounds of ``propagation._radii``: ``oracle`` imports neither the
    per-core rounds ``_spread`` nor ``_core_radius``, by name or as an
    attribute of an imported module."""
    trees = _package_trees()
    names = _imported_names(trees["oracle"], trees)
    assert "_radii" in names
    assert names.isdisjoint({"_spread", "_core_radius"})
