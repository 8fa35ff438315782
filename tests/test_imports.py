"""Static checks on the package's names: every name a module or an
experiment script imports is used there, every module-level private (not
dunder) name is used in its own module, and every name the package root
re-exports is defined in the module it is imported from, so a deletion
cannot leave a stale import or helper."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torusglue"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _top_level_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize(
    "path",
    [
        *(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "scripts").glob("*.py")),
    ],
    ids=lambda p: p.name,
)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_definition_is_used(path):
    tree = _tree(path)
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    private = {
        name for name in _top_level_definitions(tree) if name[0] == "_" and name[-2:] != "__"
    }
    assert sorted(private - loaded) == []


def test_every_export_is_defined_in_its_module():
    exports = [
        (node.module, a.name)
        for node in _tree(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    ]
    assert exports
    definitions = {
        module: _top_level_definitions(_tree(PACKAGE / f"{module}.py"))
        for module in {module for module, _ in exports}
    }
    assert [f"{m}.{name}" for m, name in exports if name not in definitions[m]] == []
