"""The package surface: no public name that nothing calls.

Every name in `centiwalk.__all__` must be used by the package itself, outside
its own definition, or by the benchmark under bench/.  A name only the tests
call belongs in the tests.
"""

import ast
from pathlib import Path

import centiwalk

ROOT = Path(__file__).resolve().parents[1]


def used_names(path):
    """Names a module reads as a variable or an attribute, not counting
    the body of a function or class that reads its own name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), frozenset())
    return used


def test_every_public_name_has_a_caller():
    modules = [p for p in (ROOT / "src" / "centiwalk").glob("*.py")
               if p.name != "__init__.py"]
    modules += list((ROOT / "bench").glob("*.py"))
    used = set().union(*(used_names(p) for p in modules))
    assert sorted(set(centiwalk.__all__) - used) == []
