"""Dead-code guard over the library: every module-level import is used in
its module; every public function, class and method is referenced
somewhere in the library outside its own definition, and every private one
in its own module outside its own definition; every UPPER_CASE module
constant and every dataclass field is read somewhere in the library; and
no check of the library is an ``assert`` statement, which ``python -O``
strips."""

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


def _definitions(tree):
    """Each module-level function and class and each method."""
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
        for node in _definitions(tree):
            if node.name.startswith("_"):
                continue
            first, last = node.lineno, node.end_lineno
            if not any(ref == node.name and (module != name or not first <= line <= last)
                       for module, found in refs.items() for ref, line in found):
                unreferenced.append(f"{name}: {node.name}")
    assert not unreferenced, unreferenced


def test_private_definitions_are_referenced_in_their_module():
    # a private helper that only the tests call, or only itself, is dead
    unreferenced = []
    for name, tree in MODULES.items():
        refs = list(_references(tree))
        for node in _definitions(tree):
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            first, last = node.lineno, node.end_lineno
            if not any(ref == node.name and not first <= line <= last for ref, line in refs):
                unreferenced.append(f"{name}: {node.name}")
    assert not unreferenced, unreferenced


# serialised whole by ``dataclasses.asdict`` into the report
SERIALISED = {"RunConfig", "CheckRecord"}


def _reads(kinds=(ast.Name, ast.Attribute)):
    """Every name or attribute the library reads (load context), so a
    definition or an assignment does not count as a use."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in MODULES.values() for node in ast.walk(tree)
            if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)}


def _is_dataclass(node):
    return any((dec.func if isinstance(dec, ast.Call) else dec).id == "dataclass"
               for dec in node.decorator_list)


def test_module_constants_are_read():
    reads = _reads()
    unread = [f"{name}: {target.id}" for name, tree in MODULES.items()
              for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign)
                             else [node.target])
              if isinstance(target, ast.Name) and target.id.isupper()
              and target.id not in reads]
    assert not unread, unread


def test_dataclass_fields_are_read():
    reads = _reads(ast.Attribute)  # a field is read as ``obj.field``
    unread = [f"{name}: {node.name}.{field.target.id}"
              for name, tree in MODULES.items() for node in tree.body
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              and node.name not in SERIALISED
              for field in node.body if isinstance(field, ast.AnnAssign)
              and field.target.id not in reads]
    assert not unread, unread


def test_no_assert_statements():
    asserts = [f"{name}:{node.lineno}" for name, tree in MODULES.items()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not asserts, asserts
