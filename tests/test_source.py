import ast
import importlib
import importlib.util
import inspect
from operator import attrgetter
from pathlib import Path

import gorlab

SRC = Path(gorlab.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so no served value or
    # certificate check may rest on one; failures raise GorlabError instead
    paths = sorted(SRC.rglob("*.py"))
    assert paths, "package sources not found"
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in gorlab: {found}"


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_trace_targets_resolve():
    # the benchmark's tracer wraps gorlab functions by name; a rename must
    # fail here, since the benchmark's own tests are not collected with these
    tracing = _tracing()
    missing = []
    for layer, names in tracing.TARGETS.items():
        module = importlib.import_module(f"gorlab.{layer}")
        for name in names:
            try:
                attrgetter(name)(module)
            except AttributeError:
                missing.append(f"{layer}.{name}")
    assert tracing.TARGETS and not missing, f"unresolved trace targets: {missing}"


def _names_read(tree) -> set:
    """Every name a module reads: plain names, attributes and imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_linalg_function_has_a_caller():
    # one route per question: a linalg function that no other module calls
    # and the benchmark does not trace is a second route left behind
    from gorlab import linalg
    used = set(_tracing().TARGETS["linalg"])
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "linalg.py":
            used |= _names_read(ast.parse(path.read_text(), str(path)))
    dead = [name for name, f in inspect.getmembers(linalg, inspect.isfunction)
            if f.__module__ == linalg.__name__ and not name.startswith("_")
            and name not in used]
    assert not dead, f"linalg functions with no caller: {dead}"


def test_every_module_level_import_is_used():
    # no linter runs on the package: a name imported at module level that
    # its module never reads is an import a refactor left behind
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert not unused, f"imports never used: {unused}"


def test_every_private_function_is_read():
    # a module-level helper that no gorlab code reads and the benchmark
    # does not trace is a route a refactor left behind
    used = {part for names in _tracing().TARGETS.values()
            for name in names for part in name.split(".")}
    defined = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used |= _names_read(tree)
        defined += [f"{path.name}:{node.lineno} {node.name}" for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
    unread = [d for d in defined if d.split()[1] not in used]
    assert defined and not unread, f"private functions never read: {unread}"
