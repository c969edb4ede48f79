"""The library imports only numpy and the standard library."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "pitchkit").glob("*.py"))


def _imports(path):
    """(line, top-level module) of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_only_numpy_and_stdlib(path):
    foreign = [f"{path.name}:{line} {module}" for line, module in _imports(path)
               if module != "numpy" and module not in sys.stdlib_module_names]
    assert not foreign, foreign
