"""Static checks on the package's names: every name a module, an
experiment script or a test file imports is used there, every module-level
private (not dunder) name is used in its own module, every name the package
root re-exports is defined in the module it is imported from, so a deletion
cannot leave a stale import or helper, and nothing outside the standard
library is imported.  Three more checks keep properties structural: the
homology verifier takes only data types from the fibration engine, the
kernel of a covector takes no Smith form, and no code runs differently
under `python -O`.  The package has one module entry point, `__main__.py`,
and importing the command line loads neither dataclasses nor inspect.  Only Value.__init__ and the constructors of the
six hot value types write a frozen field."""

import ast
import sys
from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torusglue"
SOURCES = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]


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
        *sorted((ROOT / "tests").glob("*.py")),
    ],
    ids=lambda p: p.name,
)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_the_standard_library_is_imported(path):
    allowed = sys.stdlib_module_names | ({"torusglue"} if path.parent.name == "scripts" else set())
    tree = _tree(path)
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [
        n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 0
    ]
    assert [m for m in modules if m.split(".")[0] not in allowed] == []


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


def _package_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for every name imported from a torusglue module; a
    module imported whole (`from . import m`, `import torusglue.m`) gives
    (m, "*"), and the package root is the module "__init__"."""
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("torusglue")):
            module = (node.module or "").removeprefix("torusglue").lstrip(".")
            pairs += [(module, a.name) if module else (a.name, "*") for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "torusglue":
                    pairs.append((a.name.partition(".")[2] or "__init__", "*"))
    return pairs


def test_the_verifier_imports_only_data_types_from_the_engine():
    # the Mayer-Vietoris verifier shares lattice with the engine, and from
    # the engine's modules (gluing, pieces, torus3, surgery, enumeration) it
    # takes only the two types a glued manifold is made of
    imports = _package_imports(_tree(PACKAGE / "invariants.py"))
    assert ("lattice", "cokernel") in imports
    engine = {pair for pair in imports if pair[0] != "lattice"}
    assert engine <= {("gluing", "GluedManifold"), ("pieces", "Piece")}


def test_the_row_kernel_takes_no_smith_form():
    # the fibration engine's kernel of one covector is a gcd-style column
    # reduction of the row; a full Smith form (or solve, which takes one)
    # there builds U, D and V only to read V's columns
    tree = _tree(PACKAGE / "lattice.py")
    (function,) = [
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "kernel_basis"
    ]
    called = {ast.unparse(n.func) for n in ast.walk(function) if isinstance(n, ast.Call)}
    assert called
    assert called & {"smith_normal_form", "solve"} == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_code_depends_on_assertions_being_enabled(path):
    # python -O drops assert statements and makes __debug__ False
    tree = _tree(path)
    uses = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert uses == []


def _runs_as_script(tree: ast.Module) -> bool:
    """Whether the module has an `if __name__ == "__main__":` block."""
    return any(
        isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        for node in tree.body
    )


def test_the_package_has_one_module_entry_point():
    # `python -m torusglue` and the console script both reach cli.main
    # through __main__.py; no other module runs as a script
    scripts = [p.name for p in sorted(PACKAGE.glob("*.py")) if _runs_as_script(_tree(p))]
    assert scripts == ["__main__.py"]


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # every command and benchmark worker pays for what the package imports;
    # these two (inspect comes with dataclasses, and brings ast, dis and
    # tokenize) are heavier than compiling the package
    loaded = "sorted({'dataclasses', 'inspect'} & set(sys.modules))"
    result = run_python("-c", f"import sys, torusglue.cli; print({loaded})")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# the value types the engine builds several times per op, which store their
# fields directly rather than through Value.__init__
HOT_VALUE_TYPES = (
    "IntMatrix", "CurveClass", "SNFDecomposition", "TorusClass", "FibrationOfT3",
    "ExtensionCertificate",
)


def _frozen_field_writes(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(class, method, line) of every object.__setattr__ call in a method."""
    writes = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for method in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
            writes += [
                (cls.name, method.name, node.lineno)
                for node in ast.walk(method)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
            ]
    return writes


def test_only_value_init_and_the_hot_types_write_frozen_fields():
    # one place knows how a frozen field is written; no __post_init__
    # writes a field a second time
    writes = [
        (path.name, *write)
        for path in sorted(PACKAGE.glob("*.py"))
        for write in _frozen_field_writes(_tree(path))
    ]
    allowed = {("Value", "__init__"), *((cls, "__init__") for cls in HOT_VALUE_TYPES)}
    assert [w for w in writes if w[1:3] not in allowed] == []
    assert ("Value", "__init__") in {w[1:3] for w in writes}
    calls = sum(
        ast.unparse(n.func) == "object.__setattr__"
        for path in PACKAGE.glob("*.py")
        for n in ast.walk(_tree(path))
        if isinstance(n, ast.Call)
    )
    assert calls == len(writes)  # none outside a method, where the walk above looks
