import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
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
    # fail here, naming what it broke
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


def test_perfbench_own_tests_pass():
    # the benchmark's tests lie outside `testpaths`, and some of them run
    # gorlab (a traced `tor`, the digest gate): a refactor of the package
    # must not break them unseen
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


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


def _private_reads(tree) -> list:
    """The private names of other gorlab modules that a module reads:
    imported as `from .m import _x` (or `from gorlab.m import _x`), or read
    as an attribute `m._x` of a name bound to a gorlab module."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "gorlab"):
            for alias in node.names:
                if node.module is None or node.module == "gorlab":
                    modules.add(alias.asname or alias.name)   # `from . import m`
                elif private(alias.name):
                    found.append(f"{node.lineno} from {node.module} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "gorlab":
                    modules.add(alias.asname or "gorlab")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{node.lineno} {ast.unparse(node)}")
    return found


def test_no_module_reads_another_modules_private_names():
    # a private name is its module's own business: a helper that another
    # module needs is made public, so that the rules on public functions
    # (a caller, a docstring) hold for it
    found = [f"{path.name}:{hit}" for path in sorted(SRC.rglob("*.py"))
             for hit in _private_reads(ast.parse(path.read_text(), str(path)))]
    assert not found, f"private names read across gorlab modules: {found}"
    # the guard sees both ways in, and leaves a module's own names alone
    probe = ast.parse("from . import linalg\nfrom .io import _encode\n"
                      "import gorlab.homology as hm\n"
                      "linalg._dense(); hm._window; self._cache; linalg.dense\n")
    assert {hit.split(" ", 1)[1] for hit in _private_reads(probe)} == {
        "from io import _encode", "linalg._dense", "hm._window"}


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


def _constants_unread(trees) -> list:
    """The module-level UPPER_CASE constants (a leading underscore allowed)
    assigned in `trees`, {file name: tree}, that no code of those trees
    reads: an assignment stores its name, which is not a read."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [f"{name}:{node.lineno} {t.id}" for t in targets
                       if isinstance(t, ast.Name)
                       and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
                       and t.id not in read]
    return unread


def test_every_constant_is_read():
    # a tuning constant that no code reads is a knob left behind: it
    # changes nothing, yet counts as one more thing to tune
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.rglob("*.py"))}
    assert trees, "package sources not found"
    unread = _constants_unread(trees)
    assert not unread, f"constants no code reads: {unread}"
    # the guard sees a constant read only by its own assignment, and counts
    # reads as plain names, attributes and imports, in any module
    probe = {"a.py": ast.parse("_KNOB = 1\nUSED = 2\nSHARED = 3\nx = USED\n"
                               "lower = 4\n_KNOB2: int = 5\n"),
             "b.py": ast.parse("from a import SHARED\n")}
    assert _constants_unread(probe) == ["a.py:1 _KNOB", "a.py:6 _KNOB2"]


def _trace_names() -> set:
    """Every name in the benchmark's trace targets, methods split."""
    return {part for names in _tracing().TARGETS.values()
            for name in names for part in name.split(".")}


def _unread(private: bool, used: set) -> list:
    """The module-level private functions of the package, or its public
    functions and the public methods of its classes, whose names neither
    gorlab code nor `used` reads."""
    defined = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = used | _names_read(tree)
        nodes = list(tree.body)
        if not private:
            nodes += [item for node in tree.body if isinstance(node, ast.ClassDef)
                      for item in node.body]
        defined += [f"{path.name}:{node.lineno} {node.name}" for node in nodes
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_") == private]
    assert defined, "package sources not found"
    return [d for d in defined if d.split()[1] not in used]


def test_every_private_function_is_read():
    # a module-level helper that no gorlab code reads and the benchmark
    # does not trace is a route a refactor left behind
    unread = _unread(True, _trace_names())
    assert not unread, f"private functions never read: {unread}"


def test_every_public_function_is_read():
    # a public function or method that no gorlab code reads, the package
    # does not export and the benchmark neither reads nor traces serves only
    # the tests, which keep it as an oracle instead
    used = set(gorlab.__all__) | _trace_names()
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        used |= _names_read(ast.parse(path.read_text(), str(path)))
    unread = _unread(False, used)
    assert not unread, f"public functions only tests read: {unread}"


def _callers(tree, name: str) -> set:
    """Qualified names of the functions and methods of a module whose own
    bodies call `name`, as a plain name or an attribute ("" at module
    level); a call in a nested function counts for that function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_the_room_is_read_only_per_extension_or_window():
    # reading the room opens /proc and cgroup files; the README promises one
    # read per resolution extension, homology window or induced-map call,
    # so a read per step or per degree, as the deleted guard_memory made,
    # fails here
    sites = {(path.name, where) for path in sorted(SRC.rglob("*.py"))
             for where in _callers(ast.parse(path.read_text(), str(path)),
                                   "available_bytes")}
    assert sites == {("resolution.py", "MinimalFreeResolution.extend"),
                     ("homology.py", "_window"),
                     ("homology.py", "tor_induced")}, f"room read in {sorted(sites)}"
    # the guard names the function a call sits in, nested ones included
    probe = ast.parse("def f():\n    def g():\n        rs.available_bytes()\n"
                      "    available_bytes()\nclass C:\n    def h(self):\n"
                      "        for _ in x:\n            available_bytes()\n")
    assert _callers(probe, "available_bytes") == {"f.g", "f", "C.h"}


def test_a_resolution_has_one_step_method():
    # every resolution step, the cover's and the large ones included, runs
    # one body; a second step method is a duplicate route coming back
    tree = ast.parse((SRC / "resolution.py").read_text())
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
              and node.name == "MinimalFreeResolution"]
    steps = [node.name for node in cls.body
             if isinstance(node, ast.FunctionDef) and "step" in node.name]
    assert steps == ["_step"], f"step methods: {steps}"


def test_linalg_has_one_row_builder():
    # every elimination gets its row maps and column sets from
    # `_sparse_rows`, one loop on lists with no numpy call; a second
    # builder (a plain-Python `_small_rows` beside a numpy one, or `_runs`'
    # sorted grouping) is a duplicate conversion route coming back
    tree = ast.parse((SRC / "linalg.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    builders = sorted(name for name in functions if name.endswith("_rows") or name == "_runs")
    assert builders == ["_sparse_rows"], f"row builders: {builders}"
    assert "np" not in _names_read(functions["_sparse_rows"])


def test_linalg_has_one_kernel_read_and_one_output_type():
    # every kernel is read by `_kernel_entries` and comes back as int64
    # arrays; a plain-Python `_small_peel` or `_small_kernel` beside the
    # numpy steps, or a kernel_rref that answers lists to a list caller, is
    # a duplicate route coming back
    tree = ast.parse((SRC / "linalg.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    small = sorted(name for name in functions if name.startswith("_small_"))
    assert small == [], f"plain-Python duplicates: {small}"
    switches = [node.lineno for node in ast.walk(functions["kernel_rref"])
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and "ndarray" in ast.unparse(node)]
    assert switches == [], f"output-type switches in kernel_rref at lines {switches}"


def test_no_dense_kmatrix_route_in_resolution_or_homology():
    # resolution and homology build every k-matrix as triplets
    # (`kmat_triplets`); an einsum there is a dense route coming back.
    # ring.py's check of the algebra's structure constants keeps its einsum
    found = [name for name in ("resolution.py", "homology.py")
             if "einsum" in (SRC / name).read_text()]
    assert not found, f"einsum in {found}"


def _dense_reads(tree, names) -> list:
    """The reads of `names` as linalg functions in a module: `linalg.x` or
    `from .linalg import x`."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "linalg"):
            found.append(f"{node.lineno} linalg.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "linalg":
            found += [f"{node.lineno} {a.name}" for a in node.names if a.name in names]
    return found


def test_no_dense_solve_in_resolution_or_homology():
    # chain-map lifts, slice pivots and the Loewy inverse run on the one
    # sparse engine (`linalg.kernel_rref`, `rank_triplets`); a dense solve
    # or rref there is a second route, unchecked by the room, coming back,
    # and the resolution makes no triplets dense
    solves = {"solve_many", "solve_array", "rref_array"}
    found = [f"{name}:{hit}" for name, names in (("resolution.py", solves | {"dense"}),
                                                 ("homology.py", solves))
             for hit in _dense_reads(ast.parse((SRC / name).read_text()), names)]
    assert not found, f"dense routes in {found}"
    # the guard sees both ways in and leaves other attributes alone
    probe = ast.parse("from .linalg import solve_many\nlinalg.dense(x)\n"
                      "G.dense()\nlinalg.kernel_rref(x)\n")
    assert _dense_reads(probe, solves | {"dense"}) == ["1 solve_many", "2 linalg.dense"]


def test_the_memory_rule_lives_in_linalg():
    # the byte costs and the refusal text of the one memory rule belong to
    # linalg; another module that reads them or writes its own refusal is a
    # second copy of the rule coming back
    words = ("ENTRY_BYTES", "LINE_BYTES", "the process can get")
    found = [f"{path.name}: {word}" for path in sorted(SRC.rglob("*.py"))
             if path.name != "linalg.py" for word in words if word in path.read_text()]
    assert not found, f"the memory rule outside linalg: {found}"


def _roomless_calls(tree, names) -> list:
    """The lines of the calls of `names`, as plain names or attributes,
    whose last argument, positional or keyword, is not the name `room`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in names:
            last = node.keywords[-1].value if node.keywords else (node.args or [None])[-1]
            if getattr(last, "id", None) != "room":
                found.append(node.lineno)
    return found


def test_every_sparse_product_and_elimination_gets_a_room():
    # the room read once per extension or window reaches every sparse
    # product, block builder and elimination of resolution and homology; a
    # call that leaves it out falls back to an unbounded room, unchecked
    names = {"kmat_triplets", "join_sum", "kernel_rref", "rank_triplets",
             "_linear_part", "_tor_block", "_ext_diff"}
    found = [f"{name}:{line}" for name in ("resolution.py", "homology.py")
             for line in _roomless_calls(ast.parse((SRC / name).read_text()), names)]
    assert not found, f"calls without the room: {found}"
    # the guard reads positional and keyword rooms, and starred inputs
    probe = ast.parse("join_sum(*a, p, room)\nlinalg.kernel_rref(a, p)\n"
                      "kmat_triplets(G, ops, p, room=room)\n_tor_block(G, L, h, np.inf)\n"
                      "kernel_rref()\n")
    assert _roomless_calls(probe, names) == [2, 4, 5]


def test_the_parser_is_built_only_in_main():
    # cli.build_parser is cached so that a process builds its parser once;
    # a call anywhere but cli.main, say a per-command helper that builds a
    # parser of its own, would bring the per-call construction back
    sites = {(path.name, where) for path in sorted(SRC.rglob("*.py"))
             for where in _callers(ast.parse(path.read_text(), str(path)),
                                   "build_parser")}
    assert sites == {("cli.py", "main")}, f"parser built in {sorted(sites)}"
    # the guard sees calls at module level and through the module, and a
    # decorator or a definition is not a call
    probe = ast.parse("AP = build_parser()\n@functools.cache\ndef build_parser():\n"
                      "    pass\ndef run(argv):\n"
                      "    return cli.build_parser().parse_args(argv)\n")
    assert _callers(probe, "build_parser") == {"", "run"}


# each `raise CertificateError` site of the package, by file and message
# (an f-string's fields read "{}"), -> a test that reaches it
CERTIFICATE_TESTS = {
    ("homology.py", "differential has a unit entry"):
        "test_homology.py::test_corrupted_homology_raises_certificate_error[tor-block]",
    ("homology.py", "Loewy basis change is not invertible"):
        "test_homology.py::test_corrupted_homology_raises_certificate_error[loewy-basis]",
    ("homology.py", "module copy is not adapted to its Loewy layers"):
        "test_homology.py::test_corrupted_homology_raises_certificate_error[tor-window]",
    ("homology.py", "{} map {} has rank {} from its {} and {} from its {}"):
        "test_homology.py::test_left_kernel_rank_is_cross_checked",
    ("homology.py", "negative {} length {} in degree {}"):
        "test_homology.py::test_corrupted_homology_raises_certificate_error[ext-window]",
    ("homology.py", "Ext/Tor duality violated at degree {}"):
        "test_homology.py::test_corrupted_homology_raises_certificate_error[duality]",
    ("homology.py", "Ext degree {} copied from the dual table is not m-annihilated"):
        "test_homology.py::test_ext_refuses_a_dual_entry_that_m_does_not_kill",
    ("homology.py", "negative length count {} in degree {}"):
        "test_homology.py::test_corrupted_homology_raises_certificate_error[tail]",
    ("resolution.py", "kernel escapes the radical; cover not minimal"):
        "test_resolution.py::test_corrupted_resolution_raises_certificate_error[cover]",
    ("resolution.py", "Lescot formula fails past the junction J={} at degree {}"):
        "test_resolution.py::test_corrupted_resolution_raises_certificate_error[lescot]",
    ("resolution.py", "nu(m M_{}) != nu(M_{}) past the junction J={}"):
        "test_resolution.py::test_corrupted_tail_raises_certificate_error",
    ("resolution.py", "resolution is exact, yet no lift in degree {}"):
        "test_resolution.py::test_corrupted_resolution_raises_certificate_error[lift]",
    ("resolution.py", "del_{} spans {} dimensions, not dim M_{} = {}"):
        "test_resolution.py::test_corrupted_resolution_raises_certificate_error[syzygy]",
}


def _message(node) -> str:
    """The text of a message argument, with an f-string's fields as "{}"."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                       for v in node.values)
    return ast.unparse(node)


def test_every_certificate_check_has_a_test():
    # a certificate check that no test makes fire may be dead or broken
    # without anyone seeing it: each site needs a registered test that
    # corrupts its input, and each registered test must exist
    sites = {(path.name, _message(node.exc.args[0]) if node.exc.args else "")
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and getattr(node.exc.func, "id", None) == "CertificateError"}
    assert sites, "package sources not found"
    tests = Path(__file__).resolve().parent
    missing = []
    for test in CERTIFICATE_TESTS.values():
        file, name = test.split("::")
        name, _, param = name.rstrip("]").partition("[")
        path = tests / file
        tree = ast.parse(path.read_text(), str(path)) if path.exists() else ast.Module([], [])
        names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        params = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        if name not in names or (param and param not in params):
            missing.append(test)
    assert not sites - CERTIFICATE_TESTS.keys(), \
        f"certificate checks with no test: {sorted(sites - CERTIFICATE_TESTS.keys())}"
    assert not CERTIFICATE_TESTS.keys() - sites, \
        f"registered checks not in the package: {sorted(CERTIFICATE_TESTS.keys() - sites)}"
    assert not missing, f"registered tests that do not exist: {missing}"
