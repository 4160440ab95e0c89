"""Golden corpus: exact outputs of the canonical-sheaf builder.

`tests/golden/corpus.json` records, for a fixed list of sheaves, the
graded character, the stalk and costalk generator degrees, the section
dimensions logged during construction (`section_log`) and the costalk
dimension tables.  Every entry is a dimension or a degree, so any change
to the elimination kernel that keeps the row spaces must reproduce the
corpus exactly; a rescaled kernel vector does not show here.

Regenerate the corpus (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import os
import sys

import pytest

from bmsheaves import (
    bm_construct,
    build_graph,
    character,
    lifted_character,
    make_system,
    normal_form,
    parse_word,
    preset_system,
    translate_out,
)
from bmsheaves.coxeter import sort_key

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "corpus.json")

# systems without a preset, by Coxeter matrix
_MATRICES = {
    "affA2": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
    "A4": [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]],
}

# name -> (system, 1-based word, quotient generator (1-based) or None)
CASES = {
    "A3:2132": ("A3", "2132", None),
    "A3:12321": ("A3", "12321", None),
    "B2:1212": ("B2", "1212", None),
    "G2:121212": ("G2", "121212", None),
    "affA2:12312": ("affA2", "12312", None),
    "A3:121321:quotient:s1": ("A3", "121321", 1),
    "U3:12312": ("U3", "12312", None),
    "A4:121321": ("A4", "121321", None),
}


def _system(name):
    if name in _MATRICES:
        return make_system(_MATRICES[name])
    return preset_system(name)


def _degrees(poly):
    return [e for e in sorted(poly.c) for _ in range(poly.c[e])]


def _sheaf_record(bm):
    order = sorted(bm.graph.vertices, key=sort_key)
    return {
        "stalks": {str(y): list(bm.stalks[y].gens) for y in order},
        "costalks": {str(y): _degrees(bm.costalk_ranks[y]) for y in order},
        "section_log": {
            str(y): {str(d): n for d, n in sorted(bm.section_log[y].items())}
            for y in order
            if y in bm.section_log
        },
        "costalk_dim_table": {
            str(y): {str(d): n for d, n in sorted(bm.costalk_dim_table[y].items())}
            for y in order
        },
    }


def compute(name):
    """The corpus record of one case, as plain JSON."""
    sys_name, word, s = CASES[name]
    system = _system(sys_name)
    x = normal_form(system, parse_word(word, system.rank))
    if s is None:
        bm = bm_construct(build_graph(system, x))
        return {"character": character(bm).to_json(), **_sheaf_record(bm)}
    regular = build_graph(system, x)
    quotient = build_graph(system, x, kind="quotient", s=s - 1)
    nbm = bm_construct(quotient)
    lifted = translate_out(nbm, regular)
    ch = lifted_character(lifted, quotient.top.length)
    return {"lifted_character": ch.to_json(), **_sheaf_record(nbm)}


@pytest.fixture(scope="module")
def corpus():
    with open(CORPUS) as fh:
        return json.load(fh)


def test_corpus_lists_every_case(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(corpus, name):
    assert compute(name) == corpus[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    data = {name: compute(name) for name in sorted(CASES)}
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data)} cases to {CORPUS}")
