"""Tooling guard: no function in the package calls itself.

Tree depth grows with input length, so a walk that takes one Python frame
per level fails on long enough input.  Walks use explicit stacks instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "pdmg"

# canonical_json recurses over the result payloads the CLI builds, whose
# nesting depth is fixed by their shape, not by the input.
ALLOWED = {"corpus.canonical_json"}


def _self_calls(tree: ast.Module, module: str) -> list[str]:
    found = []
    todo = [(tree, module)]
    while todo:
        node, scope = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}"
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if ((isinstance(f, ast.Name) and f.id == child.name)
                            or (isinstance(f, ast.Attribute) and f.attr == child.name
                                and isinstance(f.value, ast.Name)
                                and f.value.id in ("self", "cls"))):
                        found.append(name)
                        break
                todo.append((child, name))
            elif isinstance(child, ast.ClassDef):
                todo.append((child, f"{scope}.{child.name}"))
            else:
                todo.append((child, scope))
    return found


def test_no_function_calls_itself():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _self_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == sorted(ALLOWED)
