"""The oracle keeps one vector format: shared sparse rows, dense read-only views.

A Subspace keeps the sparse rows of the echelon that built it, keyed by
pivot, and the model's memos share those dicts: the power chains, the
annihilator's modulus 0 : B^(k-1) and the model's columns are read, never
copied. Over F2, F32003 and Q these tests repeat every `oracle_power`,
`annihilator` and `subspace_intersect` query on a model and check that no
answer and no memo entry changed after it was stored. `ast` checks (nothing is
imported) keep `_dense` inside the dense views and `_sparse` at the points
where callers hand vectors in, and forbid any read of the `rows` view inside
the module, so that no sparse -> dense -> sparse round trip comes back.
"""

from __future__ import annotations

import ast
import copy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colonlab import (
    QQ,
    Ideal,
    annihilator,
    build_model,
    irrelevant_power,
    make_quotient,
    oracle_power,
    subspace_intersect,
    subspace_of_ideal,
)

from colonlab.oracle import Subspace

from conftest import F2, F32003, make_ideal
from test_colon_laws import cases

ORACLE = Path(__file__).resolve().parent.parent / "src" / "colonlab" / "oracle.py"
FIELDS = pytest.mark.parametrize("field", [F2, F32003, QQ], ids=lambda f: f.name)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=15, database=None)

DENSE_VIEWS = {
    "Subspace.rows",
    "VectorSpaceModel.coords",
    "VectorSpaceModel.apply",
    "VectorSpaceModel.operator_of",
}
MEMOS = ("chains", "images", "operators", "rungs", "annihilators")
# Where vectors from outside the module come in, dense or sparse.
SPARSE_ENTRIES = {"_Echelon.insert", "VectorSpaceModel.apply", "VectorSpaceModel.operator_of"}


def queries(M, ideals):
    """Every query the memos can serve, in order, with its answer."""
    images = [subspace_of_ideal(M, K) for K in ideals]
    for V in images:
        for k in range(M.dim + 2):
            power = oracle_power(M, V, k)
            yield ("power", k), power
            yield ("annihilator", k), annihilator(M, power)
    for V in images:
        for W in images:
            yield "intersect", subspace_intersect(V, W, M.field)


def plain(value):
    """A memo value with each Subspace replaced by its rows dict."""
    if isinstance(value, Subspace):
        return value.by_pivot
    if isinstance(value, (list, tuple)):
        return [plain(x) for x in value]
    return value


def watch(M, seen):
    """Deep-copy each memo entry, and the model's columns, when first seen."""
    seen.setdefault(("cols", None), copy.deepcopy(plain(M.cols)))
    for name in MEMOS:
        for key, value in getattr(M, name).items():
            if (name, key) not in seen:
                seen[name, key] = copy.deepcopy(plain(value))


def check_nothing_is_shared_for_writing(A, ideals):
    """Run every query twice; return the names of the memos that were filled."""
    M = build_model(A)
    seen = {}
    first = []
    answers = []
    for query, answer in queries(M, ideals):
        watch(M, seen)
        first.append(answer)
        answers.append((query, copy.deepcopy(answer.by_pivot)))
    again = [(query, copy.deepcopy(answer.by_pivot)) for query, answer in queries(M, ideals)]
    assert again == answers
    assert [answer.by_pivot for answer in first] == [rows for _, rows in answers]
    for (name, key), kept in seen.items():
        now = M.cols if name == "cols" else getattr(M, name)[key]
        assert plain(now) == kept, name
    return {name for name, _ in seen}


def ideals(ring, *more):
    """m, m^2, the non-monomial ideal (x_1 + ... + x_n + x_1^2) and more."""
    f = sum((ring.variable(i) for i in range(ring.nvars)), ring.variable(0) * ring.variable(0))
    return [irrelevant_power(ring, 1), irrelevant_power(ring, 2), Ideal(ring, (f,)), *more]


@FIELDS
def test_gorenstein_memos_are_never_written_twice(field):
    A = make_quotient(make_ideal(field, ("x", "y", "z"), ("x^2 + y*z", "y^3", "z^3")))
    assert check_nothing_is_shared_for_writing(A, ideals(A.ring)) == {"cols", *MEMOS}


@FIELDS
@PROPERTY
@given(data=st.data())
def test_random_memos_are_never_written_twice(field, data):
    I, J, K = data.draw(cases(field))
    A = make_quotient(I)
    check_nothing_is_shared_for_writing(A, ideals(A.ring, J, K))


def enclosing(tree):
    """(qualified name of the enclosing def or class, node) for every node."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from walk(child, inner)

    return walk(tree, "")


def users(name):
    """Qualified names of the defs in oracle.py that reference the name."""
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"))
    return {
        scope for scope, node in enclosing(tree) if isinstance(node, ast.Name) and node.id == name
    }


def test_dense_is_used_only_by_the_dense_views():
    assert users("_dense") == DENSE_VIEWS


def test_sparse_is_used_only_where_callers_hand_in_vectors():
    assert users("_sparse") == SPARSE_ENTRIES


def test_the_oracle_never_reads_its_own_dense_view():
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"))
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    ]
    assert reads == []
