"""Every name a package module imports with `from ... import` is used there.

A static check on the source, with the standard library's `ast`: a name
counts as used when the module reads it anywhere (a plain name, the base
of an attribute, an annotation).  `__init__.py` re-exports by design and
`from __future__` imports are compiler directives, so both are skipped.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "bmsheaves"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_the_package_has_modules():
    assert "linalg.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_from_import_is_used(name):
    tree = ast.parse((PACKAGE / name).read_text(), filename=name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [
        f"{alias.asname or alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]
    assert not unused, f"{name}: unused imports {unused}"
