"""Group arithmetic, normal forms, roots and Bruhat order.

Types A2 and A3 are cross-checked against hand-rolled symmetric-group
permutations, which gives an oracle for multiplication, faithfulness and
length that shares no code with the matrix representation.
"""

import functools
import gc
import itertools
import json
import random
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest

from bmsheaves.coxeter import (
    CoxeterSystem,
    Element,
    _from_matrices,
    _matmul,
    _mul_gen,
    _reflection_deviation,
    bruhat_interval,
    bruhat_leq,
    element_ball,
    load_system,
    make_system,
    multiply,
    normal_form,
    parse_word,
    reflection_root,
    right_descents,
    sort_key,
    word_str,
)
from bmsheaves.errors import InputError, RealizationError
from bmsheaves.presets import preset_system


def elt(system, text):
    return system.element(parse_word(text, system.rank))


# -- symmetric-group oracle for the type-A presets ---------------------------


def _perm_compose(p, q):
    return tuple(p[q[k]] for k in range(len(p)))


def _perm_of(w, n):
    gens = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return functools.reduce(
        _perm_compose, (gens[s] for s in w.word), tuple(range(n))
    )


def _perm_inversions(p):
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def test_a2_matches_the_symmetric_group(a2):
    ball = element_ball(a2, 10)
    assert len(ball) == 6
    perms = {w: _perm_of(w, 3) for w in ball}
    assert len(set(perms.values())) == 6
    for a in ball:
        for b in ball:
            assert perms[multiply(a, b)] == _perm_compose(perms[a], perms[b])
    for w in ball:
        assert w.length == _perm_inversions(perms[w])


def test_a3_matches_the_symmetric_group(a3):
    ball = element_ball(a3, 10)
    assert len(ball) == 24
    perms = {w: _perm_of(w, 4) for w in ball}
    assert len(set(perms.values())) == 24
    for a in ball:
        for b in ball:
            assert perms[multiply(a, b)] == _perm_compose(perms[a], perms[b])
    for w in ball:
        assert w.length == _perm_inversions(perms[w])


# -- normal forms -------------------------------------------------------------


def test_braid_relations_collapse_to_one_normal_form(a2, b2, g2):
    assert elt(a2, "121").word == elt(a2, "212").word == (0, 1, 0)
    assert elt(a2, "1221").word == ()
    assert elt(b2, "1212").word == elt(b2, "2121").word
    assert elt(b2, "1212").length == 4
    assert elt(g2, "121212").word == elt(g2, "212121").word
    assert elt(g2, "121212").length == 6


def test_universal_systems_have_no_braid_relations(u2):
    assert elt(u2, "1212").length == 4
    assert elt(u2, "12121").length == 5
    assert elt(u2, "11").word == ()
    assert elt(u2, "212").word == (1, 0, 1)


def test_shortlex_picks_the_smallest_reduced_word(a3):
    # s1 and s3 commute, so 31 normalizes to 13
    assert elt(a3, "31").word == (0, 2)
    assert normal_form(a3, (2, 0, 1)).word == (0, 2, 1)


def test_identity_spellings_and_word_roundtrip(a2):
    assert parse_word("", 2) == ()
    assert parse_word("e", 2) == ()
    assert parse_word("2,1,2", 2) == (1, 0, 1)
    assert str(a2.identity) == "e"
    assert str(elt(a2, "121")) == "121"
    assert word_str((0, 1, 0)) == "121"
    with pytest.raises(InputError):
        parse_word("13", 2)
    with pytest.raises(InputError):
        parse_word("1x", 2)
    with pytest.raises(InputError, match="parse_word"):
        a2.element("121")


# -- generator steps against plain matrix products -----------------------------
#
# `step_system` (conftest.py) runs each test on every system of STEP_SYSTEMS.


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


def test_normal_forms_match_full_matrix_products(step_system):
    rng = random.Random(f"normal-form:{step_system.cartan}")
    for _ in range(60):
        word = [rng.randrange(step_system.rank) for _ in range(rng.randrange(13))]
        w = normal_form(step_system, word)
        assert (w.word, w.matrix, w.inv_matrix) == _ref_normal_form(
            step_system, word
        )


def test_intervals_match_subword_enumeration(step_system):
    for x in element_ball(step_system, 6):
        subwords = {
            normal_form(step_system, sub)
            for k in range(x.length + 1)
            for sub in itertools.combinations(x.word, k)
        }
        assert bruhat_interval(x) == tuple(sorted(subwords, key=sort_key))


def test_generator_products_match_the_general_path(product_case):
    """w s from the step rule against word extraction from the product
    matrices, which shares no word logic with it: the word, both
    matrices and the instance agree.  First on normal forms of random
    words, whose tails and products are not yet known, then on a ball.
    The reference system is built outside `make_system`'s registry, so
    it shares no element table or slot with the system under test."""
    name, coxeter, cartan, bound = product_case
    system = make_system(coxeter, cartan)
    ref = CoxeterSystem(system.rank, system.coxeter, system.cartan)
    assert ref is not system

    def check(w, s):
        g = system.generators[s]
        ws = multiply(w, g)
        mat = _matmul(w.matrix, g.matrix)
        inv = _matmul(g.inv_matrix, w.inv_matrix)
        general = _from_matrices(ref, mat, inv)
        assert (ws.word, ws.matrix, ws.inv_matrix) == (
            general.word, general.matrix, general.inv_matrix
        )
        assert _from_matrices(system, mat, inv) is ws
        assert multiply(w, g) is ws

    rng = random.Random(f"steps:{name}")
    for _ in range(40):
        word = [rng.randrange(system.rank) for _ in range(rng.randrange(2 * bound))]
        check(normal_form(system, word), rng.randrange(system.rank))
    for w in element_ball(system, bound):
        for s in range(system.rank):
            check(w, s)


def test_known_elements_are_read_from_the_system_tables(product_case):
    """Every word of an element, canonical or not, and its inverse's
    inverse give the one instance; a general product is the fold of the
    generator steps of its right factor's word; and every element kept by
    matrix carries that matrix."""
    name, coxeter, cartan, bound = product_case
    system = make_system(coxeter, cartan)
    ball = element_ball(system, bound)
    for w in ball:
        assert normal_form(system, w.word) is w
        for s in range(system.rank):
            assert normal_form(system, w.word + (s, s)) is w
            assert normal_form(system, (s, s) + w.word) is w
        assert w.inverse().inverse() is w
    rng = random.Random(f"table:{name}")
    for _ in range(60):
        a, b = rng.choice(ball), rng.choice(ball)
        assert multiply(a, b) is functools.reduce(_mul_gen, b.word, a)
    assert system._by_matrix
    for mat, w in system._by_matrix.items():
        assert w.system is system and w.matrix == mat


def test_a_word_out_of_range_is_refused_before_any_lookup():
    """`normal_form` checks the generator indices before it reads the
    element table: a rank-3 system refuses (0, 7), (7,) and (-1, 0) with
    InputError, also a copy outside the registry whose tables raise when
    read."""

    class Watched(dict):
        def get(self, *args):
            raise AssertionError("the table was read")

        __getitem__ = get

    system = make_system([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    ref = CoxeterSystem(system.rank, system.coxeter, system.cartan)
    ref.__dict__["_elements"] = Watched()
    ref.__dict__["_by_matrix"] = Watched()
    for word in ((0, 7), (7,), (-1, 0)):
        with pytest.raises(InputError, match="out of range"):
            normal_form(ref, word)
        with pytest.raises(InputError, match="out of range"):
            normal_form(system, word)


def test_memos_belong_to_their_system():
    """Intervals are memoized on the system and right products in slots
    of the system's own elements; a second `make_system` call on equal
    data gives the same system, so it finds them filled."""
    first = make_system([[1, 3], [3, 1]])
    interval = bruhat_interval(normal_form(first, (0, 1, 0)))
    assert first._interval_memo
    own = {id(w) for w in first._elements.values()}
    assert {id(w) for w in interval} <= own
    assert all(w.system is first for w in first._elements.values())
    products = [ws for w in first._elements.values() for ws in w._right if ws]
    assert products and {id(ws) for ws in products} <= own
    second = make_system([[1, 3], [3, 1]])
    assert second is first
    assert bruhat_interval(normal_form(second, (1, 0, 1))) is interval


# -- one instance per word -----------------------------------------------------


def test_equal_elements_of_one_system_are_one_object(step_system):
    """Every route to an element returns the system's one instance, also
    through a second `make_system` call on the same data."""
    identity = step_system.identity
    again = make_system(step_system.coxeter, step_system.cartan)
    for x in element_ball(step_system, 4):
        assert normal_form(again, x.word) is x
        assert normal_form(step_system, x.word) is x
        for s, g in enumerate(step_system.generators):
            assert normal_form(step_system, x.word + (s, s)) is x
            assert multiply(x, g) is _mul_gen(x, s)
            assert multiply(multiply(x, g), g) is x
        assert multiply(x, x.inverse()) is identity
        assert x.inverse().inverse() is x
        for y in bruhat_interval(x):
            assert normal_form(step_system, y.word) is y
            assert multiply(y, x) is normal_form(step_system, y.word + x.word)


def test_braid_equivalent_words_give_one_object(a3, b2, g2):
    for system, left, right in [
        (a3, "121", "212"),
        (a3, "13", "31"),
        (a3, "2132", "2312"),
        (b2, "1212", "2121"),
        (g2, "121212", "212121"),
    ]:
        assert elt(system, left) is elt(system, right)


def test_equal_data_give_one_system_and_one_element():
    """Two `make_system` calls on equal data give one system, so the
    elements of one word are one object; the transposed non-symmetric
    Cartan matrix is another datum, whose elements are distinct and
    unequal."""
    first = make_system([[1, 3], [3, 1]])
    second = make_system([[1, 3], [3, 1]])
    assert second is first
    x, y = normal_form(first, (0, 1)), normal_form(second, (0, 1))
    assert x is y
    assert {x: 1}[y] == 1
    assert bruhat_leq(y, normal_form(first, (0, 1, 0)))
    one = make_system([[1, 0], [0, 1]], [[2, -1], [-4, 2]])
    other = make_system([[1, 0], [0, 1]], [[2, -4], [-1, 2]])
    assert one is not other and one is make_system(one.coxeter, one.cartan)
    assert normal_form(one, (0, 1)) is not normal_form(other, (0, 1))
    assert normal_form(one, (0, 1)) != normal_form(other, (0, 1))
    assert one.identity != other.identity
    assert len({one.identity, other.identity, one.generators[0]}) == 3


def test_make_system_interns_each_datum_weakly(tmp_path):
    """One live system per datum, whichever way it is given; the registry
    keeps none alive, so a dropped system goes with its memos and the
    next call builds a fresh one.  Elements and systems hash and compare
    by identity."""
    a2 = make_system([[1, 3], [3, 1]])
    assert make_system([[1, 3], [3, 1]], [[2, -1], [-1, 2]]) is a2
    assert preset_system("A2") is a2
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"rank": 2, "coxeter": [[1, 3], [3, 1]]}))
    assert load_system(path) is a2

    # a datum no other test uses; its Bruhat memo lives on the system
    coxeter, cartan = [[1, 0], [0, 1]], [[2, -3], [-5, 2]]
    system = make_system(coxeter, cartan)
    bruhat_interval(normal_form(system, (0, 1, 0, 1)))
    assert bruhat_leq(system.identity, normal_form(system, (0, 1, 0, 1)))
    assert system._elements and system._by_matrix and system._interval_memo
    assert system._bruhat_memo
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None
    fresh = make_system(coxeter, cartan)
    assert not fresh._elements and not fresh._by_matrix
    assert not fresh._interval_memo and not fresh._bruhat_memo

    assert Element.__hash__ is object.__hash__
    assert Element.__eq__ is object.__eq__
    assert CoxeterSystem.__hash__ is object.__hash__
    assert CoxeterSystem.__eq__ is object.__eq__


@pytest.mark.parametrize("word", [(), (0,)])
def test_arithmetic_refuses_elements_of_different_systems(a2, b2, word):
    """`multiply` and `bruhat_leq` refuse an A2 element against a B2
    element in either order, the identity and a generator included."""
    x, y = normal_form(a2, word), normal_form(b2, word)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(InputError, match="elements of different systems"):
            multiply(a, b)
        with pytest.raises(InputError, match="elements of different systems"):
            bruhat_leq(a, b)


# -- descents and reflections --------------------------------------------------


def test_descent_sets(a2):
    w0 = elt(a2, "121")
    assert right_descents(w0) == {0, 1}
    assert right_descents(elt(a2, "12")) == {1}
    assert right_descents(a2.identity) == set()


def test_reflections_and_roots(a2, b2):
    t = elt(a2, "121")
    assert _reflection_deviation(t) is not None
    assert _reflection_deviation(elt(a2, "12")) is None
    assert reflection_root(t).coords == (1, 1)
    assert reflection_root(elt(a2, "1")).coords == (1, 0)
    # B2 has four reflections with the four distinct positive roots
    refls = [
        w
        for w in element_ball(b2, 4)
        if w.length % 2 and _reflection_deviation(w) is not None
    ]
    assert len(refls) == 4
    roots = {reflection_root(t).coords for t in refls}
    assert roots == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_rank_one_deviations_that_are_not_reflections_are_refused():
    """reflection_root reads only the matrix, the length and the system's
    rank and identity, so stand-ins can carry matrices no realization
    produces."""

    def fake(matrix, length):
        n = len(matrix)
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        system = SimpleNamespace(rank=n, _identity_matrix=ident)
        return SimpleNamespace(system=system, matrix=matrix, length=length)

    # t - 1 = [[0, 1], [0, 0]] has rank one and trace 0: t^2 != 1
    with pytest.raises(RealizationError, match="not an involution"):
        reflection_root(fake(((1, 1), (0, 1)), 1))
    with pytest.raises(RealizationError, match="even length"):
        reflection_root(fake(((-1, 0), (0, 1)), 2))
    # the swap is an involution whose (-1)-eigenline is spanned by (1, -1)
    with pytest.raises(RealizationError, match="mixed-sign"):
        reflection_root(fake(((0, 1), (1, 0)), 1))
    with pytest.raises(InputError, match="not a reflection"):
        reflection_root(fake(((1, 0), (0, 1)), 0))
    # nonpositive columns of t - 1 still give positive roots
    assert reflection_root(fake(((1, 0), (0, -1)), 1)).coords == (0, 1)
    assert reflection_root(fake(((0, -1), (-1, 0)), 1)).coords == (1, 1)


# -- Bruhat order ---------------------------------------------------------------


def test_interval_below_the_longest_element_is_the_whole_group(a2):
    assert len(bruhat_interval(elt(a2, "121"))) == 6


def _closure_oracle(ball):
    """Reflexive-transitive closure of the covering relation x = y*t,
    l(x) = l(y) + 1, t a reflection."""
    refls = [t for t in ball if _reflection_deviation(t) is not None]
    leq = {(w, w) for w in ball}
    covers = {}
    for y in ball:
        ups = []
        for t in refls:
            x = multiply(y, t)
            if x.length == y.length + 1 and x.word in {w.word for w in ball}:
                ups.append(x)
        covers[y] = ups
    changed = True
    while changed:
        changed = False
        for y in ball:
            for m in covers[y]:
                for x in ball:
                    if (m, x) in leq and (y, x) not in leq:
                        leq.add((y, x))
                        changed = True
    return leq


def test_bruhat_order_matches_the_cover_closure(a3):
    ball = element_ball(a3, 10)
    assert len([t for t in ball if _reflection_deviation(t) is not None]) == 6
    oracle = _closure_oracle(ball)
    for y in ball:
        for x in ball:
            assert bruhat_leq(y, x) == ((y, x) in oracle)


def _lifting_chain(y, x):
    """The pairs (y, x), (min(y, ys), xs), ... down to the pair that the
    length or equality settles, built with `multiply`."""
    chain = [(y, x)]
    while y.length <= x.length and y is not x:
        gen = x.system.generators[x.descent]
        ys = multiply(y, gen)
        y, x = (ys if ys.length < y.length else y), multiply(x, gen)
        chain.append((y, x))
    return chain


def test_bruhat_leq_walks_long_words_in_a_loop(u2):
    """Under a recursion limit of 300, `bruhat_leq` answers pairs of U2
    words of lengths 600 and 200 both ways, and its system's memo then
    holds every pair of each walk, the settled last one included, with
    the walk's answer."""
    long, short = elt(u2, "12" * 300), elt(u2, "12" * 100)
    other = elt(u2, "21" * 300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        assert bruhat_leq(short, long)
        assert not bruhat_leq(long, short)
        assert not bruhat_leq(other, long)
        assert bruhat_leq(elt(u2, "21" * 100), other)
    finally:
        sys.setrecursionlimit(limit)
    memo = u2._bruhat_memo
    chain = _lifting_chain(short, long)
    assert len(chain) == 601 and chain[-1] == (u2.identity, u2.identity)
    assert all(memo[pair] is True for pair in chain)
    chain = _lifting_chain(other, long)
    assert chain[-1][0].length > chain[-1][1].length
    assert all(memo[pair] is False for pair in chain)
    assert memo[long, short] is False


def test_bruhat_leq_keeps_no_dropped_system_alive():
    """The Bruhat memo lives on its system: after 60 infinite-bond rank-2
    systems each ran `kl_basis` on its length-6 ball and were dropped,
    tracemalloc holds at most 16 KiB, and `cache_info` counts only the
    memos of live systems."""
    from bmsheaves.hecke import HeckeAlgebra

    def fill(a, b):
        system = make_system([[1, 0], [0, 1]], [[2, -a], [-b, 2]])
        alg = HeckeAlgebra(system)
        for x in element_ball(system, 6):
            alg.kl_basis(x)
        return len(system._bruhat_memo)

    data = [(a, b) for a in range(1, 11) for b in range(14, 20)]
    fill(*data[0])
    gc.collect()
    base = bruhat_leq.cache_info().currsize
    tracemalloc.start()
    try:
        assert all(fill(a, b) for a, b in data)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 16 * 1024
    assert bruhat_leq.cache_info().currsize == base
    live = make_system([[1, 0], [0, 1]], [[2, -1], [-23, 2]])
    assert bruhat_leq(live.identity, live.generators[0])
    assert bruhat_leq.cache_info().currsize == base + 2


def test_interval_ordering_is_by_length_then_word(b2):
    interval = bruhat_interval(elt(b2, "1212"))
    assert [w.word for w in interval] == sorted(
        (w.word for w in interval), key=lambda wd: (len(wd), wd)
    )
    assert list(interval) == sorted(interval, key=sort_key)


# -- input validation ------------------------------------------------------------


def test_unrealizable_bond_orders_are_rejected():
    with pytest.raises(InputError):
        make_system([[1, 5], [5, 1]])
    with pytest.raises(InputError):
        make_system([[1, 7], [7, 1]])


def test_system_files_missing_required_keys_are_rejected(tmp_path):
    path = tmp_path / "system.json"
    path.write_text('{"cartan": [[2, -1], [-1, 2]]}')
    with pytest.raises(InputError, match="missing key 'rank'"):
        load_system(path)


def test_incompatible_cartan_matrices_are_rejected():
    with pytest.raises(InputError):
        make_system([[1, 3], [3, 1]], cartan=[[2, -1], [-2, 2]])
    with pytest.raises(InputError):
        make_system([[1, 3], [3, 1]], cartan=[[2, 1], [1, 2]])
    with pytest.raises(InputError):
        make_system([[1, 0], [0, 1]], cartan=[[2, -1], [-1, 2]])
    # the compatible one goes through
    make_system([[1, 4], [4, 1]], cartan=[[2, -2], [-1, 2]])
