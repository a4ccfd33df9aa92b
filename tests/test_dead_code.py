"""Dead-code guard over the library: every module-level import is used in
its module, and every public function, class and method is referenced
somewhere in the library outside its own definition."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dsvac"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _bound_names(node):
    """Names an import statement binds in its module."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def _references(tree, imports=True):
    """(name, line) of every name and attribute the module reads, and with
    ``imports`` of every name it imports from another module of the
    library (an unused such import fails the import check)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif imports and isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                yield alias.name, node.lineno


def _public_definitions(tree):
    """(name, first line, last line) of each public module-level function
    and class and of each public method; dunders are not public here."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def test_module_level_imports_are_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue  # the package namespace re-exports its imports
        used = {ref for ref, _ in _references(tree, imports=False)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: {bound}" for bound in _bound_names(node)
                           if bound not in used]
    assert not unused, unused


def test_public_definitions_are_referenced():
    refs = {name: list(_references(tree)) for name, tree in MODULES.items()}
    unreferenced = []
    for name, tree in MODULES.items():
        for node in _public_definitions(tree):
            if node.name.startswith("_"):
                continue
            first, last = node.lineno, node.end_lineno
            if not any(ref == node.name and (module != name or not first <= line <= last)
                       for module, found in refs.items() for ref, line in found):
                unreferenced.append(f"{name}: {node.name}")
    assert not unreferenced, unreferenced
