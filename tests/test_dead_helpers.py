"""Every private helper in colonlab is used by colonlab itself.

A private name is an underscore-prefixed module-level function or class, or a
method whose name starts with a single underscore. Each must be referenced, as
a name or an attribute, somewhere in src/colonlab outside its own definition;
an import alone does not count. Tests may call private helpers, but a helper
that only tests call is dead code.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "colonlab"


def private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name.startswith("_"):
                    if not item.name.startswith("__"):
                        yield item


def referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")}
    references = [
        node for tree in trees.values() for node in ast.walk(tree) if referenced_name(node)
    ]
    definitions = [(name, d) for name, tree in trees.items() for d in private_definitions(tree)]
    assert len(definitions) > 40  # the walk found the helpers
    unused = []
    for module, definition in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        if not any(
            referenced_name(node) == definition.name and id(node) not in inside
            for node in references
        ):
            unused.append(f"{module}:{definition.lineno} {definition.name}")
    assert unused == []
