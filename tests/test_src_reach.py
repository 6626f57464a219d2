"""Every function and class that ``src/d3c`` defines, dunders aside, is named
somewhere in ``src/``, ``demos/`` or ``perfbench/`` outside its own
definition: code that only tests reach is not kept in the library."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def identifiers(tree):
    """Each name the tree reads, imports or looks up as an attribute, once
    per mention."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def unreached(library, readers):
    """(file, name) for each non-dunder definition in the library files that
    no file of readers names outside the definition itself."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in {*library, *readers}}
    named = Counter(name for path in readers for name in identifiers(trees[path]))
    return {
        (path.name, node.name)
        for path in library
        for node in ast.walk(trees[path])
        if isinstance(node, DEFINITIONS) and not node.name.startswith("__")
        and named[node.name] == Counter(identifiers(node))[node.name]
    }


def test_every_library_definition_is_named_outside_the_tests():
    library = sorted((ROOT / "src" / "d3c").glob("*.py"))
    readers = [path for part in ("src", "demos", "perfbench") for path in (ROOT / part).rglob("*.py")]
    assert library and set(library) <= set(readers)
    assert not unreached(library, readers)
