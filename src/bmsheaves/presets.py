"""Built-in Coxeter systems used by the command line and the test suite.

Finite presets carry the standard integer Cartan matrices; U2 and U3 are
the universal (all bonds infinite) systems of rank 2 and 3, realized
with off-diagonal entries -2, whose reflection representation is faithful
and whose root pairing keeps every edge label primitive and integral.
Infinite presets must be explored through a length bound.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem, make_system
from .errors import InputError

__all__ = ["PRESETS", "preset_system"]

_DEFS = {
    "A1": {
        "coxeter": [[1]],
    },
    "A2": {
        "coxeter": [[1, 3], [3, 1]],
    },
    "A3": {
        "coxeter": [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
    },
    "B2": {
        "coxeter": [[1, 4], [4, 1]],
        "cartan": [[2, -1], [-2, 2]],
    },
    "G2": {
        "coxeter": [[1, 6], [6, 1]],
        "cartan": [[2, -1], [-3, 2]],
    },
    "U2": {
        "coxeter": [[1, 0], [0, 1]],
    },
    "U3": {
        "coxeter": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    },
}

PRESETS = tuple(sorted(_DEFS))


def preset_system(name: str) -> CoxeterSystem:
    try:
        spec = _DEFS[name]
    except KeyError:
        raise InputError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        ) from None
    return make_system(spec["coxeter"], spec.get("cartan"))
