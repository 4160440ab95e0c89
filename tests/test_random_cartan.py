"""Seeded sweep over random admissible rank-3 Cartan data.

Each seed draws a rank-3 Coxeter matrix with bonds from {2, 3, 4, 6,
infinity} and an integer Cartan matrix realizing it: the pair
(a_st, a_ts) has product 0, 1, 2 or 3 for bonds 2, 3, 4 and 6, and at
least 4 for infinity, and need not be symmetric.  Every draw must either
pass its checks or end in one of the package's typed errors.

  Hecke half (`check_draw`): on every element x of length at most 5 the
  two routes to the self-dual basis agree, the product route at x^-1 is
  its value at x with every y relabelled y^-1 (P_{y,x} = P_{y^-1,x^-1}),
  and the normal form of the element's own word is the element.
  Sheaf half (`check_sheaf_draw`): at every element x of one length, the
  canonical sheaf on [e, x] has the character of both routes, passes the
  flabbiness and local rank checks at every vertex, and has every
  subleading character coefficient in v Z[v].
  Word half (`check_word_draw`): on random words, every way to reach an
  element (`normal_form`, `inverse`, `multiply`, and the normal form of a
  concatenation, reduced or not) gives the word and matrices of the plain
  matrix reference `_ref_normal_form` (conftest.py).

All three are also run over more seeds as separate CI steps:

    cd tests && python -c 'from test_random_cartan import check_draw; ...'
"""

import random

import pytest
from conftest import _ref_normal_form

from bmsheaves.bmsheaf import (
    bm_construct,
    character,
    check_conjecture_72,
    check_flabby_additive,
    check_prop_71,
)
from bmsheaves.coxeter import (
    INFINITE,
    _gen_left,
    element_ball,
    make_system,
    multiply,
    normal_form,
)
from bmsheaves.errors import (
    CapError,
    InconsistencyError,
    InputError,
    NotGradedFreeError,
    RealizationError,
)
from bmsheaves.hecke import HeckeAlgebra, HeckeElt
from bmsheaves.momentgraph import build_graph

TYPED_ERRORS = (
    CapError,
    InconsistencyError,
    InputError,
    NotGradedFreeError,
    RealizationError,
)

BONDS = (2, 3, 4, 6, INFINITE)
# the integer pairs (a_st, a_ts) of each finite bond
_FINITE_PAIRS = {
    2: [(0, 0)],
    3: [(-1, -1)],
    4: [(-1, -2), (-2, -1)],
    6: [(-1, -3), (-3, -1)],
}
MAX_LENGTH = 5
# the longest random word of check_word_draw, and the word pairs per draw
WORD_LENGTH = 30
WORD_PAIRS = 20
# the report of check_prop_71 at a vertex where both identities hold
_LOCAL_OK = {"kernel_rank": True, "mirror": True}


def draw(seed):
    """(Coxeter matrix, Cartan matrix) of the rank-3 datum of a seed."""
    rng = random.Random(f"rank3:{seed}")
    coxeter = [[1] * 3 for _ in range(3)]
    cartan = [[2] * 3 for _ in range(3)]
    for s, t in ((0, 1), (0, 2), (1, 2)):
        m = rng.choice(BONDS)
        if m == INFINITE:
            # a_st a_ts >= 4, with each entry at most 5 in absolute value
            a = rng.randint(1, 5)
            pair = (-a, -rng.randint((a + 3) // a, 5))
        else:
            pair = rng.choice(_FINITE_PAIRS[m])
        coxeter[s][t] = coxeter[t][s] = m
        cartan[s][t], cartan[t][s] = pair
    return coxeter, cartan


def check_draw(seed):
    """"ok" when both Hecke routes agree, the product route commutes with
    inversion, and every normal form is its element on the ball of the
    seed's system, else the name of the typed error that ended the draw.
    Anything else fails."""
    coxeter, cartan = draw(seed)
    try:
        system = make_system(coxeter, cartan)
        alg = HeckeAlgebra(system)
        for x in element_ball(system, MAX_LENGTH):
            where = (seed, str(x))
            assert normal_form(system, x.word) is x, where
            c = alg.kl_basis(x)
            assert c == alg.kl_oracle(x), where
            flipped = HeckeElt({y.inverse(): h for y, h in c.coeffs.items()})
            assert alg.kl_basis(x.inverse()) == flipped, where
    except TYPED_ERRORS as exc:
        return type(exc).__name__
    return "ok"


def check_sheaf_draw(seed, length):
    """"ok" when, at every element x of the given length in the seed's
    system, the canonical sheaf on [e, x] has the character kl_basis(x) =
    kl_oracle(x), check_flabby_additive and check_prop_71 hold at every
    vertex, and every subleading character coefficient is in v Z[v]; else
    the name of the typed error that ended the draw.  Anything else
    fails."""
    coxeter, cartan = draw(seed)
    try:
        system = make_system(coxeter, cartan)
        alg = HeckeAlgebra(system)
        for x in element_ball(system, length):
            if x.length < length:
                continue
            bm = bm_construct(build_graph(system, x))
            where = (seed, str(x))
            assert character(bm) == alg.kl_basis(x) == alg.kl_oracle(x), where
            for w in bm.graph.vertices:
                assert check_flabby_additive(bm, w), where + (str(w),)
                assert check_prop_71(bm, w) == _LOCAL_OK, where + (str(w),)
            assert all(pos for pos, _, _ in check_conjecture_72(bm).values()), where
    except TYPED_ERRORS as exc:
        return type(exc).__name__
    return "ok"


def check_word_draw(seed):
    """"ok" when, in the seed's system, `normal_form`, `inverse` and
    `multiply` give the word and matrices of `_ref_normal_form` on random
    words u, v of length at most WORD_LENGTH and on their concatenations,
    and a times its inverse, either way round, is the identity; else the
    name of the typed error that ended the draw.  Anything else fails."""
    coxeter, cartan = draw(seed)
    rng = random.Random(f"words:{seed}")

    def word():
        return tuple(rng.randrange(3) for _ in range(rng.randint(0, WORD_LENGTH)))

    def made(w):
        return w.word, w.matrix, w.inv_matrix

    try:
        system = make_system(coxeter, cartan)
        identity = system.identity
        for _ in range(WORD_PAIRS):
            u, v = word(), word()
            where = (seed, u, v)
            a, b = normal_form(system, u), normal_form(system, v)
            inv = a.inverse()
            ab = multiply(a, b)
            assert made(a) == _ref_normal_form(system, u), where
            assert made(inv) == _ref_normal_form(system, u[::-1]), where
            assert made(ab) == _ref_normal_form(system, u + v), where
            assert normal_form(system, u + v) is ab, where
            assert normal_form(system, a.word + b.word) is ab, where
            assert multiply(a, inv) is identity, where
            assert multiply(inv, a) is identity, where
            assert normal_form(system, u + u[::-1]) is identity, where
        table = system._elements
        for w in table.values():
            if w is not identity:
                where = (seed, w.word)
                assert w._tail is table[w.word[1:]], where
                assert _gen_left(system, w.word[0], w.matrix) == w._tail.matrix, where
    except TYPED_ERRORS as exc:
        return type(exc).__name__
    return "ok"


def test_draws_are_admissible():
    """Every draw passes `make_system`'s checks, and the draws reach every
    bond order and a non-symmetric pair."""
    bonds, skew = set(), False
    for seed in range(20):
        coxeter, cartan = draw(seed)
        make_system(coxeter, cartan)
        bonds.update(coxeter[s][t] for s, t in ((0, 1), (0, 2), (1, 2)))
        skew = skew or any(
            cartan[s][t] != cartan[t][s] for s in range(3) for t in range(s)
        )
    assert bonds == set(BONDS) and skew


@pytest.mark.parametrize("seed", range(20))
def test_random_rank3_data_agree_or_raise_a_typed_error(seed):
    assert check_draw(seed) in ("ok",) + tuple(e.__name__ for e in TYPED_ERRORS)


@pytest.mark.parametrize("seed", range(5))
def test_random_rank3_sheaves_match_both_routes_or_raise_a_typed_error(seed):
    assert check_sheaf_draw(seed, 4) in ("ok",) + tuple(
        e.__name__ for e in TYPED_ERRORS
    )


@pytest.mark.parametrize("seed", range(20))
def test_random_rank3_words_match_the_matrix_reference_or_raise_a_typed_error(seed):
    assert check_word_draw(seed) in ("ok",) + tuple(e.__name__ for e in TYPED_ERRORS)
