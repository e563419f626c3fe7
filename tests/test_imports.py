"""Every name a module of the package imports is used in it, so a deletion
cannot leave an import behind, and the underscore names one module imports
from another are listed here, so a new one is a visible change.  Standard
library only: each module's source is parsed with ast, not imported."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sta_coupler").glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


# (importing module, module imported from, name)
PRIVATE_IMPORTS = []


def private_imports(path: Path) -> list[tuple[str, str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    # a dunder such as __version__ is public
    return [(path.stem, node.module or "__init__", a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names if a.name.startswith("_") and not a.name.endswith("__")]


def test_sources_found():
    assert MODULES, "no package modules found next to the tests"


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_private_cross_module_imports():
    assert sorted(entry for path in SOURCES for entry in private_imports(path)) == PRIVATE_IMPORTS
