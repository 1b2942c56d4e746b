"""The package's export lists name only what exists, and its source keeps no dead names.

Every ``__all__`` entry must resolve in its module, and every public
name the package root re-exports must be listed by some module's
``__all__``, so a name deleted from a module cannot linger as an export.
Read from the source trees: no module but the package root imports a
name it never uses, every private module-level name is referenced
somewhere in the package, and every field of a private dataclass or
NamedTuple is read as an attribute somewhere in it, so code or a kept
value that lost its reader is noticed.
"""

import ast
import importlib
import pathlib
import pkgutil
import types

import pytest

import covgraph

MODULES = [
    importlib.import_module(f"covgraph.{info.name}")
    for info in pkgutil.iter_modules(covgraph.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_exports_are_listed_by_a_module():
    listed = {name for module in MODULES for name in getattr(module, "__all__", ())}
    public = {
        name for name, value in vars(covgraph).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public, "the package root exports nothing"
    assert sorted(public - listed) == []


TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(pathlib.Path(covgraph.__file__).parent.glob("*.py"))
}


def exported(tree):
    """The strings of a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_modules_use_every_name_they_import():
    unused = []
    for module, tree in TREES.items():
        if module == "__init__":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{module}: {name}" for name in bound if name not in used]
    assert unused == []


def test_every_private_module_level_name_is_referenced():
    defined = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names if name.startswith("_") and not name.startswith("__")]
    referenced = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert [f"{module}.{name}" for module, name in defined if name not in referenced] == []


def is_record(node):
    """Whether a class is declared as a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators) or any(
        getattr(b, "id", None) == "NamedTuple" for b in node.bases
    )


def test_every_field_of_a_private_record_is_read():
    fields = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name.startswith("_") and is_record(node):
                fields += [(module, node.name, s.target.id) for s in node.body if isinstance(s, ast.AnnAssign)]
    assert {"_BlockPlan", "_Point"} <= {record for _, record, _ in fields}
    read = {
        node.attr for tree in TREES.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert [f"{module}.{record}.{name}" for module, record, name in fields if name not in read] == []
