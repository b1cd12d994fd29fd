"""Import layering of the package, read from the syntax trees of its files.

Below the CLI a constant symplectic structure reaches the other modules only
as its two tensors, pi and omega: only ``cli``, ``dsl`` (which builds it)
and ``symplectic`` (which defines it) name ``ConstantSymplectic``, and the
algebroid, cohomology and Courant modules import nothing from
``symplectic``.  Only the CLI draws random inputs, so cohomology imports
nothing from ``sampling`` (nor, through it, ``courant``).  No module
imports the CLI, and no source or test file imports a name it never uses.
No module imports ``dataclasses``: with what it pulls in (``inspect``,
``ast``, ``dis``, ``tokenize``) and the code it generates per class, it was
a fixed cost of every CLI run.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "algebroid").glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_modules(module):
    """Every ``algebroid`` module a syntax tree imports from, by its last part."""
    out = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
            # ``from algebroid import cli`` imports the module ``cli``
            out.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name.rpartition(".")[2] for name in out if name.startswith("algebroid.")}


def identifiers(module):
    """Every name a syntax tree binds, reads or imports, and every attribute."""
    out = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
            if node.asname:
                out.add(node.asname)
    return out


def unused_imports(module):
    """Names bound by a module's imports that nothing in it reads."""
    bound = {}
    for node in ast.walk(module):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_only_the_cli_the_dsl_and_symplectic_name_the_structure():
    naming = {path.name for path in SOURCES if "ConstantSymplectic" in identifiers(tree(path))}
    assert "symplectic.py" in naming
    assert naming <= {"cli.py", "dsl.py", "symplectic.py"}


@pytest.mark.parametrize("name", ["algebroids.py", "cohomology.py", "courant.py"])
def test_module_imports_nothing_from_symplectic(name):
    assert "symplectic" not in imported_modules(tree(ROOT / "src" / "algebroid" / name))


def test_cohomology_imports_nothing_from_sampling():
    assert "sampling" not in imported_modules(tree(ROOT / "src" / "algebroid" / "cohomology.py"))


def test_no_module_imports_the_cli():
    importing = [path.name for path in SOURCES if "cli" in imported_modules(tree(path))]
    assert importing == []


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: path.parent.name + "/" + path.name)
def test_no_unused_imports(path):
    assert unused_imports(tree(path)) == []


def top_level_imports(module):
    """The first part of every module name a syntax tree imports."""
    out = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            out.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            out.add(node.module.partition(".")[0])
    return out


def test_no_module_imports_dataclasses():
    importing = [path.name for path in SOURCES if "dataclasses" in top_level_imports(tree(path))]
    assert importing == []


def test_importing_the_cli_loads_no_introspection_modules():
    # A child interpreter: pytest itself has these modules loaded.
    code = (
        "import sys; import algebroid.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True
    )
    assert completed.stdout.split() == []
