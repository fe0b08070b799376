"""The library has no runtime dependencies: every absolute import in the
package's source names a standard-library module."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "braidkit"


def _absolute_imports(path):
    """(line, top-level module name) of each absolute import in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_source_imports_only_the_standard_library():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    outside = [
        f"{path.name}:{line} imports {name}"
        for path in modules
        for line, name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert not outside, outside


def test_invariant_modules_import_no_garside_code():
    # linking numbers, cabling and the subgroup machinery decide equality by
    # Dynnikov coordinates (words.same_braid), so they need no normal form
    for name in ("purebraid", "cabling", "subgroups"):
        path = SOURCE / f"{name}.py"
        imported = {
            node.module or alias.name
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
        }
        assert not imported & {"engine", "garside"}, (name, imported)
