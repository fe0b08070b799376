"""Every public function and method of the library has a caller outside the
tests: its name is read somewhere in the package source, the demos or the
benchmark harness.  Every private one (one leading underscore, not a dunder)
is read in the package source itself, so a helper that only tests or the
harness read belongs in the tests' oracles.  A name counts as read through a
Name, an Attribute, an import alias or a string constant equal to it, so
``getattr(obj, "name")`` counts.  Names are matched without their class,
which errs towards passing."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "braidkit"
READERS = (SOURCE, ROOT / "demos", ROOT / "perfbench")

# public names kept without a caller, each with its reason
ALLOWED = {
    "commutation_graph_connected": "the paper's graph criterion for n >= 5, "
    "kept as the library's statement of it",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined(tree, private=False):
    """(line, name) of each public, or each private, module-level function
    and method; dunders are neither."""
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if name.startswith("_") == private:
                    yield item.lineno, name


def _read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_function_has_a_caller_outside_the_tests():
    sources = sorted(SOURCE.glob("*.py"))
    assert sources
    read = {
        name
        for folder in READERS
        for path in folder.glob("*.py")
        for name in _read(_parse(path))
    }
    assert not set(ALLOWED) & read, "an allowed name has gained a caller"
    uncalled = [
        f"{path.name}:{line} {name}"
        for path in sources
        for line, name in _defined(_parse(path))
        if name not in read and name not in ALLOWED
    ]
    assert not uncalled, uncalled


def test_every_private_function_is_read_in_the_package():
    sources = sorted(SOURCE.glob("*.py"))
    read = {name for path in sources for name in _read(_parse(path))}
    unread = [
        f"{path.name}:{line} {name}"
        for path in sources
        for line, name in _defined(_parse(path), private=True)
        if name not in read
    ]
    assert not unread, unread
