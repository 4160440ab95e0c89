"""Shared fixtures: the built-in Coxeter systems and their Hecke algebras."""

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
