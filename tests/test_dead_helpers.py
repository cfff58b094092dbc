"""Every private helper in colonlab is used by colonlab, and every public name earns its place.

A private name is an underscore-prefixed module-level function or class, or a
method whose name starts with a single underscore. Each must be referenced
somewhere in src/colonlab outside its own definition: a function or class as a
name or an attribute, a method only as an attribute, so a local variable that
shares a method's name does not keep the method. An import alone does not
count. Tests may call private helpers, but a helper that only tests call is
dead code.

A public name (a module-level function or class, or a method, without a
leading underscore) stays when the library or the CLI calls it, when perfbench
reaches it (its code, or the attribute path that ends each tracer target in
TARGETS: "PrimeField.inv" reaches inv, a span name like "poly.sub" reaches
nothing), or when tests use it as a named reference: PUBLIC_REFERENCES lists
those names with the reason. An import or a re-export in __init__ does not
count as a call.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "colonlab"
PERFBENCH = SOURCE.parent.parent / "perfbench"

# Public names that only tests call, each kept as the reference it is.
PUBLIC_REFERENCES = {
    "compare": "the order tests' reference comparison of exponent tuples",
    "s_polynomial": "the reference that buchberger's _s_pair is compared with",
    "ideal_product": "the reference product, as in (I : J) J <= I",
    "ideal_power": "the reference power for the ladders' right-hand sides",
    "subspace_intersect": "the oracle tests' reference intersection of subspaces",
    "ideal_membership": "the reference containment check",
    "nilpotency_index": "the reference delta for ladder lengths",
    "length_of_quotient": "the independent reference length for filtration tables",
    "rows": "a dense view of Subspace, pinned by tests/test_oracle_views.py",
    "coords": "a dense view of VectorSpaceModel, pinned by tests/test_oracle_views.py",
    "apply": "a dense view of VectorSpaceModel, pinned by tests/test_oracle_views.py",
    "operator_of": "a dense view of VectorSpaceModel, pinned by tests/test_oracle_views.py",
    "sub": "the fields' reference subtraction in the echelon and Groebner tests",
}


def definitions(tree):
    """Module-level functions and classes, and methods, except dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    item.is_method = True
                    yield item


def private_definitions(tree):
    return (d for d in definitions(tree) if d.name.startswith("_"))


def public_definitions(tree):
    return (d for d in definitions(tree) if not d.name.startswith("_"))


def referenced_name(node, method=False):
    """The name node refers to; for a method, only an attribute access refers to one."""
    if isinstance(node, ast.Name) and not method:
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def source_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")}


def unreferenced(trees, defined):
    """The definitions that no name or attribute in src/colonlab refers to from outside them."""
    references = [
        node for tree in trees.values() for node in ast.walk(tree) if referenced_name(node)
    ]
    unused = []
    for module, definition in defined:
        method = getattr(definition, "is_method", False)
        inside = {id(node) for node in ast.walk(definition)}
        if not any(
            referenced_name(node, method) == definition.name and id(node) not in inside
            for node in references
        ):
            unused.append((module, definition))
    return unused


def perfbench_names():
    """(names, attributes) that perfbench/*.py reaches.

    Attributes include the last part of each tracer target's attribute path in
    TARGETS; no other string counts.
    """
    names, attributes = set(), set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
            ):
                attributes.update(
                    target.elts[2].value.rsplit(".", 1)[-1] for target in node.value.elts
                )
    return names, attributes


def test_every_private_helper_is_referenced():
    trees = source_trees()
    defined = [(name, d) for name, tree in trees.items() for d in private_definitions(tree)]
    assert len(defined) > 40  # the walk found the helpers
    unused = [f"{m}:{d.lineno} {d.name}" for m, d in unreferenced(trees, defined)]
    assert unused == []


def test_every_public_name_is_called_or_a_named_reference():
    trees = source_trees()
    defined = [(name, d) for name, tree in trees.items() for d in public_definitions(tree)]
    assert len(defined) > 100  # the walk found the public names
    names, attributes = perfbench_names()
    assert {"image_power_chain", "mul_term", "normal_form"} <= attributes  # the tracer's targets
    unused = [
        f"{m}:{d.lineno} {d.name}"
        for m, d in unreferenced(trees, defined)
        if d.name not in attributes
        and (getattr(d, "is_method", False) or d.name not in names)
        and d.name not in PUBLIC_REFERENCES
    ]
    assert unused == []
    assert set(PUBLIC_REFERENCES) <= {d.name for _, d in defined}  # no stale entry
