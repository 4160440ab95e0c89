"""One tool per linear-algebra job, checked on the source text.

Kernel vectors come from `linalg.column_echelon` and `Echelon.kernel`,
the rank of a span from `linalg.insert_lead`, and an S-span is stepped
degree by degree by `gradedlin.KernelSweep`.  So no package module but
`linalg.py` builds an Echelon, and the old per-generator column step,
`step_columns`, is named nowhere in `src/`: a map's columns are stepped
inside `ModuleMap.columns` and a span's inside the sweep.

Every edge module is made by `gradedlin.quotient_map`, once per free
module and linear form, and holds its canonical quotient as its
`projection`: no package module but `gradedlin.py` builds a
QuotientModule.  A sheaf stores neither the edge module nor the upper
restriction (`Sheaf.edge_module` reads both from the upper stalk), so
`rho_upper` is named nowhere in `src/`.
"""

import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "bmsheaves"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def test_the_package_has_modules():
    assert "linalg.py" in MODULES and "gradedlin.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_only_linalg_builds_an_echelon(name):
    calls = re.findall(r"\bEchelon\(", (PACKAGE / name).read_text())
    assert name == "linalg.py" or not calls, f"{name} builds an Echelon"


def _named_in_src(word):
    """The files under `src/` whose text holds `word`."""
    sources = [
        p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts
    ]
    assert sources
    return [str(p.relative_to(SRC)) for p in sources if word in p.read_text()]


def test_step_columns_is_named_nowhere_in_src():
    named = _named_in_src("step_columns")
    assert not named, named


def test_rho_upper_is_named_nowhere_in_src():
    named = _named_in_src("rho_upper")
    assert not named, named


@pytest.mark.parametrize("name", MODULES)
def test_only_gradedlin_builds_a_quotient_module(name):
    calls = re.findall(r"\bQuotientModule\(", (PACKAGE / name).read_text())
    assert name == "gradedlin.py" or not calls, f"{name} builds a QuotientModule"
