"""The library runs on the standard library alone: every absolute import in
``src/d3c`` names a standard-library module, and the package declares no
runtime dependency."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def absolute_imports(path):
    """Top-level module names of the file's absolute imports."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_library_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "d3c").glob("*.py"))
    assert sources
    outside = {
        (path.name, name)
        for path in sources
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside


def test_the_package_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies = .*$", project, re.M) == ["dependencies = []"]
