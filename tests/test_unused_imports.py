"""Every name a library module imports is used there: no module in
``src/d3c`` but the package's ``__init__.py`` imports a name it never
references, so a deletion cannot leave its import behind."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """Names the file's imports bind that no expression of the file reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_library_module_imports_a_name_it_never_uses():
    sources = sorted((ROOT / "src" / "d3c").glob("*.py"))
    assert sources
    unused = {
        (path.name, name)
        for path in sources
        if path.name != "__init__.py"
        for name in unused_imports(path)
    }
    assert not unused
