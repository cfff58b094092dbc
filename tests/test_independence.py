"""The oracle stays an independent cross-check of the Groebner path.

Parses the package sources with `ast` (nothing is imported) and checks the
design invariant: no module but the package's `__init__` imports `oracle`, and
`oracle` takes from the rest of the package only the types it reads (`Ideal`,
`QuotientRing`, `HilbertTable`, `KIND_FILTRATION`) and the exception types of
`errors`. It builds its model from J's reduced basis alone, so not even
`normal_form` is shared: any reduction, colon, intersection, power or Hilbert
routine it imported would make agreement between the two paths no evidence.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "colonlab"

# Names oracle may import from each package module; None allows any name
# (errors holds only exception types).
ORACLE_ALLOWED = {
    "errors": None,
    "groebner": {"Ideal"},
    "ideal_ops": {"QuotientRing"},
    "hilbert": {"HilbertTable", "KIND_FILTRATION"},
}


def package_imports(path: Path):
    """(module, name) for every package import in the file; name is None for `import`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module == "colonlab" or (node.module or "").startswith("colonlab."):
                module = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if module is None:  # from . import oracle
                    yield alias.name, None
                else:
                    yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "colonlab" or alias.name.startswith("colonlab."):
                    yield alias.name.partition(".")[2] or "__init__", None


def test_package_sources_found():
    names = {path.stem for path in PACKAGE.glob("*.py")}
    assert {"oracle", "groebner", "ideal_ops", "hilbert", "__init__"} <= names


def test_no_module_but_init_imports_oracle():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("__init__", "oracle")
        and any(module == "oracle" for module, _ in package_imports(path))
    ]
    assert offenders == []


def test_oracle_imports_only_its_allowed_names():
    extra = []
    for module, name in package_imports(PACKAGE / "oracle.py"):
        if module not in ORACLE_ALLOWED:
            extra.append(f"{module}.{name}")
            continue
        allowed = ORACLE_ALLOWED[module]
        if allowed is not None and name not in allowed:
            extra.append(f"{module}.{name}")
    assert extra == []
