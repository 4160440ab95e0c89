"""Every name a package module imports with `from ... import` is used
there, every name it exports in `__all__` is read outside the tests, and
no module imports `fractions`: every scalar in the package is an int.

Static checks on the source, with the standard library's `ast`: a name
counts as used when the module reads it anywhere (a plain name, the base
of an attribute, an annotation).  `__init__.py` re-exports by design and
`from __future__` imports are compiler directives, so both are skipped.
"""

import ast
import pathlib
import re

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


def _statements(path):
    """(name defined, identifiers read) per top-level statement of a
    source file, skipping the `__all__` assignment.  Reads are plain
    names, attribute names and the identifiers in string constants, so a
    docstring that names a function as the specification of another one
    reads it; imports are not reads."""
    tree = ast.parse(path.read_text(), filename=path.name)
    out = []
    for stmt in tree.body:
        targets = [
            t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)
        ]
        if "__all__" in targets:
            continue
        reads = set()
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add(n.id)
            elif isinstance(n, ast.Attribute):
                reads.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                reads.update(re.findall(r"\w+", n.value))
        out.append((getattr(stmt, "name", None) or next(iter(targets), None), reads))
    return out


def _exported(path):
    tree = ast.parse(path.read_text(), filename=path.name)
    return [
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    ]


def test_every_exported_name_is_read_outside_the_tests():
    """No public name serves only its own unit tests: each `__all__`
    entry of a package module is read by a package module (its own, or
    another one except `__init__.py`) or by the benchmark harness, other
    than in the statement that defines it."""
    readers = [PACKAGE / name for name in MODULES]
    readers += sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))
    statements = {p: _statements(p) for p in readers}
    unread = [
        f"{name}:{entry}"
        for name in MODULES
        for entry in _exported(PACKAGE / name)
        if not any(
            entry in reads and not (path == PACKAGE / name and defined == entry)
            for path, stmts in statements.items()
            for defined, reads in stmts
        )
    ]
    assert not unread, f"exported names nothing reads: {unread}"


@pytest.mark.parametrize("name", MODULES + ["__init__.py"])
def test_no_module_imports_fractions(name):
    """Every scalar in the package is an int: `fractions` is imported by
    no module, as `import fractions` or `from fractions import ...`."""
    tree = ast.parse((PACKAGE / name).read_text(), filename=name)
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "fractions" not in imported, name
