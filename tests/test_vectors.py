"""Golden vectors: the exact generator vectors of the canonical-sheaf builder.

`tests/golden/vectors.json` records, for a fixed list of sheaves, the
sha256 of the generator images of every downward restriction (rho_lower,
one digest per edge) and of the components of every generator of the
global sections that the builder carries, in the builder's order.  The
corpus in `test_golden.py` records dimensions and degrees only; these
digests pin the vectors themselves, so a rescaled, negated or reordered
kernel vector shows here.

Regenerate the file (only when a vector is meant to change) with

    PYTHONPATH=src python tests/test_vectors.py --write
"""

import hashlib
import json
import os
import sys
from fractions import Fraction

import pytest

from bmsheaves import (
    bm_construct,
    bmsheaf,
    build_graph,
    make_system,
    normal_form,
    parse_word,
    preset_system,
)
from bmsheaves.coxeter import sort_key

VECTORS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "vectors.json"
)

# name -> (system, 1-based word, quotient generator (1-based) or None)
CASES = {
    "A3:121321": ("A3", "121321", None),
    "B2:1212": ("B2", "1212", None),
    "G2:121212": ("G2", "121212", None),
    "affA2:12312": ("affA2", "12312", None),
    "A3:121321:quotient:s1": ("A3", "121321", 1),
}

# the builder's per-vertex step; its third argument is the list of
# section generators, which the builder extends in place to the end
_STEP = "_solve_vertex"


def _system(name):
    if name == "affA2":
        return make_system([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    return preset_system(name)


def _digest(obj):
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _vec(vec):
    return [[i, str(a)] for i, a in sorted(vec.items())]


def _monomial_coords(module, vec, d):
    """A degree-d vector of an edge module S/alpha in the monomial
    coordinates the digests were recorded in: the module's basis vector
    at m is x^m / |a_p|^|m|, p the pivot, so its entry is divided by
    |a_p|^|m|."""
    scale = abs(next(a for a in module.alpha if a))
    basis = module.basis(d)
    return {pos: Fraction(a, scale ** sum(basis[pos][1])) for pos, a in vec.items()}


def build(graph):
    """The sheaf and the builder's final list of section generators."""
    seen = []
    real = getattr(bmsheaf, _STEP)

    def spy(*args):
        if not seen:
            seen.append(args[2])
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bmsheaf, _STEP, spy)
        bm = bm_construct(graph)
    return bm, seen[0]


def compute(name):
    """The digests of one case, as plain JSON."""
    sys_name, word, s = CASES[name]
    system = _system(sys_name)
    x = normal_form(system, parse_word(word, system.rank))
    if s is None:
        graph = build_graph(system, x)
    else:
        graph = build_graph(system, x, kind="quotient", s=s - 1)
    bm, sections = build(graph)
    edges = sorted(graph.edges, key=lambda e: (sort_key(e.lower), sort_key(e.upper)))
    return {
        "rho_lower": {
            f"{e.lower}>{e.upper}": _digest(
                [
                    _vec(_monomial_coords(bm.edge_mod[e], v, g))
                    for g, v in zip(bm.stalks[e.lower].gens, bm.rho_lower[e].images)
                ]
            )
            for e in edges
        },
        "sections": [
            [d, _digest([[str(z), _vec(comps[z])] for z in sorted(comps, key=sort_key)])]
            for d, comps in sections
        ],
    }


@pytest.fixture(scope="module")
def vectors():
    with open(VECTORS) as fh:
        return json.load(fh)


def test_vectors_list_every_case(vectors):
    assert sorted(vectors) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_vectors(vectors, name):
    assert compute(name) == vectors[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_vectors.py --write")
    data = {name: compute(name) for name in sorted(CASES)}
    with open(VECTORS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data)} cases to {VECTORS}")
