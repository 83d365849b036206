"""Every public function is exercised: each function in chipcost.__all__
is named in the code of at least one other test module, as a name, an
attribute or an import. An export no test names is unused machinery or
an untested promise."""
import ast
import inspect
from pathlib import Path

import chipcost as cc

TESTS = Path(__file__).parent


def names_in(path: Path) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_every_exported_function_is_named_by_a_test():
    named = set().union(*(names_in(p) for p in sorted(TESTS.glob("*.py"))
                          if p.name != Path(__file__).name))
    functions = [name for name in cc.__all__
                 if inspect.isfunction(getattr(cc, name))]
    assert functions
    assert [name for name in functions if name not in named] == []
