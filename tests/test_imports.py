"""No module of the package imports a name it never uses.  No linter is
assumed: the modules are read with the standard library's ast."""

import ast
from pathlib import Path

import pytest

import inqmt

# __init__ is left out: the names it imports are the package's public API
MODULES = sorted(p for p in Path(inqmt.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, __future__ aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import random\nimport os.path\nfrom . import metavars as mv\nx = os.sep\n"
    assert unused_imports(source) == ["mv", "random"]
