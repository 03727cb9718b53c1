"""Every function, class, method, property and module-level assignment
(a constant or a type alias) of `src/satprop` is used by the package
itself, or is on `UNREFERENCED` with the reason it stays, and an entry
whose reason is the tracer names what `perfbench/tracer.py` reads: one of
its `TARGETS` or an attribute its `_count_result` reads; any other entry
is read by some test module other than this one; every optional
parameter of those functions and methods is set by some call in the
package, or is on `UNSET` with the reason it stays; and every name an
import binds in a module is read in that module, or is on `UNREAD_IMPORTS`
with the reason it stays, which is that `perfbench/tracer.py` wraps it:
each entry is one of the tracer's `TARGETS`.  `__init__.py` is exempt from
that rule: its imports are the package's re-exports.  No module reads a
private (underscore) name of a sibling module, by `from .sibling import
_name` or as `sibling._name`, unless `PRIVATE_IMPORTS` names it with the
reason it is shared.  Every `open(...)`
call that is not in binary mode passes `encoding=`, so no file's text
depends on the locale.  Every module parses under the grammar of the
oldest Python that `pyproject.toml` declares in `requires-python`.

A definition counts as used when its name is read in `src/satprop` outside
its own body or statement: as a name for a module-level definition (or as
an attribute, `module.name`), as an attribute for a method or property.
Names are matched, not resolved, so a same-named use elsewhere also
counts.  Imports and assignments are not uses, and dunder names are
skipped.

An optional parameter is one with a default, or keyword-only.  A call sets
it when it calls the parameter's function by name (`f(...)` or `x.f(...)`)
and passes it by keyword or by position, or passes `*args` or `**kwargs`
that could hold it.  A method's first parameter is bound, not passed.
"""

import ast
import importlib.util
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "satprop"

# name -> why it stays with no caller in the package
UNREFERENCED = {
    "Partition.all_green": "the tests build full partitions of any dimension with it",
    "assemble": "acceptance criterion 3 folds the cubes into the instance's table",
    "conjunction_truth_table": "the oracle's side of acceptance criterion 3",
    "ParseResult.errors": "acceptance criterion 9 reads a parse's errors",
    "ParseResult.warnings": "acceptance criterion 9 reads a parse's warnings",
    "_Graph.edges": "the benchmark's tracer counts edges with it",
    "build_adjacency": "the benchmark's tracer times it and counts the edges of its graph",
}

# function.parameter -> why it stays with no call in the package setting it
UNSET = {
    "assemble.op": "the bitspace tests fold with WS as well as BS",
    "main.argv": "the tests and the benchmark call main with an argv",
}

# module.name -> why a name imported there stays unread in that module
UNREAD_IMPORTS = {
    "propagate.bc": "the benchmark's tracer wraps it by name in this module",
    "propagate.impose": "the benchmark's tracer wraps it by name in this module",
    "cli.bc": "the benchmark's tracer wraps it by name in this module",
    "cli.bidirectional_fixpoint": "the benchmark's tracer wraps it by name in this module",
}

# "module <- sibling._name" -> why the module reads a private name of a sibling
PRIVATE_IMPORTS = {
    "propagate <- clausal._CELLS":
        "extraction imposes a unit on the cells the clause masks are built from",
    "cli <- dimacs._decimal":
        "--gen and --order parse their integers as DIMACS reads its own",
}


def _definitions(tree):
    """(qualified name, node, is a method) of each module-level function,
    class and non-dunder assigned name, and each non-dunder method or
    property of a module-level class; an assigned name's node is its
    assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item, True
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, node, False


def _uses(tree, skip):
    """Names and attributes in `tree` outside the subtree `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id
        elif isinstance(node, ast.Attribute):
            yield "attr", node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_definition_is_referenced_or_allowed():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    orphans = set()
    for tree in trees:
        for qualname, node, is_method in _definitions(tree):
            kinds = {"attr"} if is_method else {"name", "attr"}
            defined = qualname.rpartition(".")[2]
            if not any(kind in kinds and name == defined
                       for other in trees for kind, name in _uses(other, node)):
                orphans.add(qualname)
    assert orphans == set(UNREFERENCED), (
        f"unreferenced, not allowed: {sorted(orphans - set(UNREFERENCED))}; "
        f"allowed, now referenced: {sorted(set(UNREFERENCED) - orphans)}")


def _optional_parameters(node, is_method):
    """(name, positional index or None) of each optional parameter of the
    function `node`; the index counts the parameters a call passes, so a
    method's first one is left out."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    bound = 1 if is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list) else 0
    passed = positional[bound:]
    for index, arg in enumerate(passed):
        if index >= len(passed) - len(args.defaults):
            yield arg.arg, index
    for arg in args.kwonlyargs:
        yield arg.arg, None


def _sets(call, name, index):
    """Whether `call` passes parameter `name`, at positional `index`."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and index < len(call.args)


def test_every_optional_parameter_is_set_or_allowed():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    calls = {}  # called name -> calls
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(called, []).append(node)
    unset = set()
    for tree in trees:
        for qualname, node, is_method in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for name, index in _optional_parameters(node, is_method):
                if not any(_sets(call, name, index) for call in calls.get(node.name, [])):
                    unset.add(f"{qualname}.{name}")
    assert unset == set(UNSET), (
        f"never set, not allowed: {sorted(unset - set(UNSET))}; "
        f"allowed, now set: {sorted(set(UNSET) - unset)}")


def _imported_names(tree):
    """The names the imports of module `tree` bind, `__future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]


def test_every_import_is_read_or_allowed():
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread |= {f"{path.stem}.{name}" for name in _imported_names(tree)
                   if name not in read}
    assert unread == set(UNREAD_IMPORTS), (
        f"unread, not allowed: {sorted(unread - set(UNREAD_IMPORTS))}; "
        f"allowed, now read: {sorted(set(UNREAD_IMPORTS) - unread)}")


def test_private_names_stay_in_their_module_or_are_allowed():
    modules = {path.stem for path in SRC.glob("*.py")}
    shared = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = set()  # names bound to sibling modules by `from . import`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        siblings.add(alias.asname or alias.name)
                    elif node.module and alias.name.startswith("_"):
                        shared.add(f"{path.stem} <- {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in siblings):
                shared.add(f"{path.stem} <- {node.value.id}.{node.attr}")
    assert shared == set(PRIVATE_IMPORTS), (
        f"private names read from a sibling, not allowed: "
        f"{sorted(shared - set(PRIVATE_IMPORTS))}; "
        f"allowed, now not read: {sorted(set(PRIVATE_IMPORTS) - shared)}")


TRACER = SRC.parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    """The tracer's `TARGETS`, as (module, attribute, layer, summed)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_unread_imports_are_tracer_targets():
    # an import stays unread only for the tracer to wrap, so an allowance
    # the tracer no longer names is stale
    targets = {f"{module}.{name}" for module, name, _, _ in _tracer_targets()}
    assert set(UNREAD_IMPORTS) <= targets, sorted(set(UNREAD_IMPORTS) - targets)


def test_unreferenced_for_the_tracer_are_read_by_it():
    # a definition kept for the tracer must be a function it wraps or an
    # attribute it reads off a result, so an allowance it no longer reads
    # is stale
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    counter = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_count_result")
    read = {name for _, name, _, _ in _tracer_targets()}
    read |= {node.attr for node in ast.walk(counter) if isinstance(node, ast.Attribute)}
    stale = sorted(qualname for qualname, reason in UNREFERENCED.items()
                   if "tracer" in reason and qualname.rpartition(".")[2] not in read)
    assert stale == [], stale


TESTS = Path(__file__).resolve().parent


def test_unreferenced_for_the_tests_are_read_by_them():
    # a definition kept for the tests must be read by some test module, a
    # method as an attribute, so an allowance no test reads is stale
    read = set()
    for path in sorted(TESTS.rglob("*.py")):
        if path.name != Path(__file__).name:
            read |= set(_uses(ast.parse(path.read_text(encoding="utf-8")), None))
    stale = []
    for qualname, reason in UNREFERENCED.items():
        owner, _, name = qualname.rpartition(".")
        kinds = ("attr",) if owner else ("name", "attr")
        if "tracer" not in reason and not any((kind, name) in read for kind in kinds):
            stale.append(qualname)
    assert stale == [], stale


def _binary(call):
    """Whether the `open(...)` call `call` opens in binary mode: its mode,
    the second positional argument or `mode=`, is a constant holding "b"."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return isinstance(mode, ast.Constant) and "b" in mode.value


def test_every_text_open_names_its_encoding():
    by_locale = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "open" and not _binary(node)
        and not any(kw.arg == "encoding" for kw in node.keywords)]
    assert by_locale == [], f"open() in text mode without encoding=: {by_locale}"


def test_every_module_parses_at_the_declared_python_floor():
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert floor, "pyproject.toml declares no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=version)
