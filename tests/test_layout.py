"""Every function, class, method and property of `src/satprop` is used by
the package itself, or is on `UNREFERENCED` with the reason it stays.

A definition counts as used when its name appears in `src/satprop` outside
its own body: as a name for a module-level function or class (or as an
attribute, `module.name`), as an attribute for a method or property.  Names
are matched, not resolved, so a same-named use elsewhere also counts.
Imports are not uses, and dunder methods are skipped.
"""

import ast
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
}


def _definitions(tree):
    """(qualified name, node, is a method) of each module-level function and
    class and each non-dunder method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item, True


def _uses(tree, skip):
    """Names and attributes in `tree` outside the subtree `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
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
            if not any(kind in kinds and name == node.name
                       for other in trees for kind, name in _uses(other, node)):
                orphans.add(qualname)
    assert orphans == set(UNREFERENCED), (
        f"unreferenced, not allowed: {sorted(orphans - set(UNREFERENCED))}; "
        f"allowed, now referenced: {sorted(set(UNREFERENCED) - orphans)}")
