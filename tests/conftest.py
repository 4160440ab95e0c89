"""Shared fixtures: the built-in Coxeter systems and their Hecke algebras,
and a plain matrix reference for normal forms."""

import functools

import pytest

from bmsheaves.coxeter import make_system
from bmsheaves.hecke import HeckeAlgebra
from bmsheaves.presets import preset_system


@pytest.fixture(scope="session")
def a1():
    return preset_system("A1")


@pytest.fixture(scope="session")
def a2():
    return preset_system("A2")


@pytest.fixture(scope="session")
def a3():
    return preset_system("A3")


@pytest.fixture(scope="session")
def b2():
    return preset_system("B2")


@pytest.fixture(scope="session")
def g2():
    return preset_system("G2")


@pytest.fixture(scope="session")
def u2():
    return preset_system("U2")


@pytest.fixture(scope="session")
def u3():
    return preset_system("U3")


@pytest.fixture(scope="session")
def a2_alg(a2):
    return HeckeAlgebra(a2)


@pytest.fixture(scope="session")
def a3_alg(a3):
    return HeckeAlgebra(a3)


@pytest.fixture(scope="session")
def b2_alg(b2):
    return HeckeAlgebra(b2)


@pytest.fixture(scope="session")
def g2_alg(g2):
    return HeckeAlgebra(g2)


@pytest.fixture(scope="session")
def u2_alg(u2):
    return HeckeAlgebra(u2)


@pytest.fixture(scope="session")
def u3_alg(u3):
    return HeckeAlgebra(u3)


# Systems for the checks of generator steps and graph edges against plain
# matrix products: (Coxeter matrix, Cartan matrix or None for the default
# realization)
STEP_SYSTEMS = {
    "A3": ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], None),
    "B2": ([[1, 4], [4, 1]], [[2, -1], [-2, 2]]),
    "G2": ([[1, 6], [6, 1]], [[2, -1], [-3, 2]]),
    "affA2": ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], None),
    "inf14": ([[1, 0], [0, 1]], [[2, -1], [-4, 2]]),
    "inf33": ([[1, 0], [0, 1]], [[2, -3], [-3, 2]]),
    "mixed3": ([[1, 4, 0], [4, 1, 6], [0, 6, 1]], None),
}


@pytest.fixture(scope="module", params=sorted(STEP_SYSTEMS))
def step_system(request):
    return make_system(*STEP_SYSTEMS[request.param])


# The step systems, more infinite bonds with non-symmetric Cartan data, G2
# in both orientations and a rank-3 system mixing bond orders 4, 6 and
# infinity with non-symmetric Cartan entries, for the checks of the
# generator-step rule: (Coxeter matrix, Cartan matrix or None, largest
# length)
PRODUCT_SYSTEMS = {
    **{name: (*data, 5) for name, data in STEP_SYSTEMS.items()},
    "inf14": ([[1, 0], [0, 1]], [[2, -1], [-4, 2]], 8),
    "inf25": ([[1, 0], [0, 1]], [[2, -2], [-5, 2]], 8),
    "G2": ([[1, 6], [6, 1]], [[2, -1], [-3, 2]], 6),
    "G2op": ([[1, 6], [6, 1]], [[2, -3], [-1, 2]], 6),
    "mixed3n": (
        [[1, 4, 0], [4, 1, 6], [0, 6, 1]],
        [[2, -2, -3], [-1, 2, -1], [-2, -3, 2]],
        5,
    ),
}


@pytest.fixture(params=sorted(PRODUCT_SYSTEMS))
def product_case(request):
    """(name, Coxeter matrix, Cartan matrix or None, largest length)."""
    return (request.param, *PRODUCT_SYSTEMS[request.param])


# -- normal forms from plain matrix products -----------------------------------


def _ref_product(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _ref_normal_form(system, word):
    """(word, matrix, inverse) from full products of generator matrices,
    stripping the smallest left descent until the identity remains."""
    n = system.rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = [
        tuple(
            tuple(int(i == j) - (system.cartan[i][j] if i == s else 0)
                  for j in range(n))
            for i in range(n)
        )
        for s in range(n)
    ]
    mat = functools.reduce(_ref_product, (gens[s] for s in word), ident)
    inv = functools.reduce(_ref_product, (gens[s] for s in reversed(word)), ident)
    out, a, ainv = [], mat, inv
    while a != ident:
        s = min(t for t in range(n) if all(row[t] <= 0 for row in ainv))
        out.append(s)
        a = _ref_product(gens[s], a)
        ainv = _ref_product(ainv, gens[s])
    return tuple(out), mat, inv
