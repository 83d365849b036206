"""The package's runtime stays pure stdlib: every absolute import in
src/chipcost names a standard-library module at its top level."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "chipcost")
                 .glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_sources_are_found():
    assert any(p.name == "sweep.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    foreign = [name for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign
