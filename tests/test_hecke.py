"""Hecke algebra arithmetic, the bar involution and the self-dual basis.

The self-dual basis is computed by two routes that share no code beyond
the ring arithmetic: a product recursion and a downward duality solve.
Small cases are pinned against hand-computed values.
"""

import random
import re
import sys

import pytest

from bmsheaves import hecke
from bmsheaves.coxeter import (
    bruhat_interval,
    element_ball,
    make_system,
    multiply,
    parse_word,
)
from bmsheaves.errors import InputError
from bmsheaves.hecke import HeckeAlgebra, HeckeElt
from bmsheaves.laurent import LaurentPoly


def elt(system, text):
    return system.element(parse_word(text, system.rank))


def v(exp, coeff=1):
    return LaurentPoly.v(exp, coeff)


def T(alg, x, coeff=None):
    """coeff T_x = coeff v^-l(x) Tt_x, the natural basis the definitions
    are stated in."""
    return alg.Tt(x, (coeff or LaurentPoly.one()).shift(-x.length))


# -- generator relations -------------------------------------------------------


def test_quadratic_relation_in_the_t_basis(a2, a2_alg):
    s = a2.generators[0]
    sq = a2_alg.mult(T(a2_alg, s), T(a2_alg, s))
    expected = T(a2_alg, a2.identity, v(-2)) + T(a2_alg, s, v(-2) - v(0))
    assert sq == expected


def test_quadratic_relation_in_the_normalized_basis(a2, a2_alg):
    s = a2.generators[1]
    sq = a2_alg.mult(a2_alg.Tt(s), a2_alg.Tt(s))
    expected = a2_alg.Tt(a2.identity) + a2_alg.Tt(s, v(-1) - v(1))
    assert sq == expected


def test_bar_fixes_the_identity_and_inverts_generators(a2, a2_alg):
    one = a2_alg.Tt(a2.identity)
    assert a2_alg.bar(one) == one
    s = a2.generators[0]
    barred = a2_alg.bar(a2_alg.Tt(s))
    assert barred == a2_alg.Tt(s) + a2_alg.Tt(a2.identity, v(1) - v(-1))
    # bar is an involution on a mixed element
    a = a2_alg.Tt(elt(a2, "12"), v(3, 2)) + a2_alg.Tt(s, v(-1))
    assert a2_alg.bar(a2_alg.bar(a)) == a


def test_multiplication_is_associative_on_random_elements(b2, b2_alg):
    rng = random.Random(7)
    ball = element_ball(b2, 4)
    for _ in range(12):
        a, b, c = (b2_alg.Tt(rng.choice(ball), v(rng.randrange(-2, 3))) for _ in range(3))
        left = b2_alg.mult(b2_alg.mult(a, b), c)
        right = b2_alg.mult(a, b2_alg.mult(b, c))
        assert left == right


# -- the self-dual basis: pinned small values -----------------------------------


def test_self_dual_element_at_the_identity_and_generators(a2, a2_alg):
    assert a2_alg.kl_basis(a2.identity) == a2_alg.Tt(a2.identity)
    for s in a2.generators:
        c = a2_alg.kl_basis(s)
        assert c == a2_alg.Tt(s) + a2_alg.Tt(a2.identity, v(1))
        assert a2_alg.mult(c, c) == c.scale(v(1) + v(-1))


def test_longest_a2_element_has_all_trivial_polynomials(a2, a2_alg):
    w0 = elt(a2, "121")
    c = a2_alg.kl_basis(w0)
    expected = HeckeElt({y: v(3 - y.length) for y in bruhat_interval(w0)})
    assert c == expected
    for y in bruhat_interval(w0):
        assert a2_alg.kl_polynomial(y, w0) == LaurentPoly.one()


def test_first_nontrivial_polynomial_in_a3(a3, a3_alg):
    x = elt(a3, "2132")
    y = elt(a3, "2")
    one_plus_q = LaurentPoly({0: 1, 1: 1})
    assert a3_alg.kl_polynomial(y, x) == one_plus_q
    assert a3_alg.kl_basis(x).coeff(y) == v(1) + v(3)
    assert a3_alg.kl_polynomial(a3.identity, x) == one_plus_q
    # everything else below x stays trivial
    for z in bruhat_interval(x):
        if z.length > 1 or z == elt(a3, "1") or z == elt(a3, "3"):
            assert a3_alg.kl_polynomial(z, x) == LaurentPoly.one()


def test_infinite_dihedral_coefficients_are_pure_powers(u2, u2_alg):
    x = elt(u2, "1212")
    c = u2_alg.kl_basis(x)
    assert set(c.support) == set(bruhat_interval(x))
    for y in bruhat_interval(x):
        assert c.coeff(y) == v(4 - y.length)


def test_universal_rank3_straight_words(u3, u3_alg):
    x = elt(u3, "123")
    c = u3_alg.kl_basis(x)
    assert c.coeff(elt(u3, "12")) == v(1)
    assert c.coeff(elt(u3, "1")) == v(2)
    assert c.coeff(u3.identity) == v(3)


def test_polynomial_vanishes_off_the_interval(a2, a3, a2_alg):
    assert a2_alg.kl_polynomial(elt(a2, "2"), elt(a2, "1")) == LaurentPoly.zero()
    with pytest.raises(InputError):
        a2_alg.kl_polynomial(elt(a3, "2"), elt(a2, "1"))


# -- structural properties -------------------------------------------------------


def test_self_duality_and_unitriangularity(g2, g2_alg):
    for x in element_ball(g2, 6):
        c = g2_alg.kl_basis(x)
        assert g2_alg.bar(c) == c
        assert c.coeff(x) == LaurentPoly.one()
        for y in c.support:
            if y != x:
                assert c.coeff(y).is_v_times_polynomial()


# (Coxeter matrix, Cartan matrix or None, largest length, group order of the
# finite systems, whose ball is then the whole group)
_ROUTE_SYSTEMS = {
    "B2": ([[1, 4], [4, 1]], [[2, -1], [-2, 2]], 4, 8),
    "G2": ([[1, 6], [6, 1]], [[2, -1], [-3, 2]], 6, 12),
    "A3": ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], None, 6, 24),
    "U2": ([[1, 0], [0, 1]], None, 8, None),
    "inf14": ([[1, 0], [0, 1]], [[2, -1], [-4, 2]], 7, None),
    "affA2": ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], None, 6, None),
}


@pytest.mark.parametrize("name", sorted(_ROUTE_SYSTEMS))
def test_the_two_routes_agree(name):
    coxeter, cartan, bound, order = _ROUTE_SYSTEMS[name]
    system = make_system(coxeter, cartan)
    alg = HeckeAlgebra(system)
    ball = element_ball(system, bound)
    if order is not None:
        assert len(ball) == order
    for x in ball:
        assert alg.kl_oracle(x).coeffs == alg.kl_basis(x).coeffs


# (Coxeter matrix, largest length) of the systems the duality is checked on
_DUALITY_SYSTEMS = {
    "B2": ([[1, 4], [4, 1]], 6),
    "G2": ([[1, 6], [6, 1]], 6),
    "A3": ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], 6),
    "U2": ([[1, 0], [0, 1]], 6),
    "affA2": ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], 5),
}


@pytest.mark.parametrize("name", sorted(_DUALITY_SYSTEMS))
def test_the_duality_matches_products_of_inverse_generators(name):
    """d(Tt_x) = v^-l(x) T_{s1}^-1 ... T_{sk}^-1 for x = s1...sk, with
    T_s^-1 = v^2 T_s + (v^2 - 1) multiplied out by `mult`; and d is
    multiplicative on random pairs of sums of T and Tt terms."""
    coxeter, bound = _DUALITY_SYSTEMS[name]
    system = make_system(coxeter)
    alg = HeckeAlgebra(system)
    ball = element_ball(system, bound)
    one = T(alg, system.identity)
    inverse = [
        T(alg, s, v(2)) + T(alg, system.identity, v(2) - v(0))
        for s in system.generators
    ]
    for x in ball:
        ref = one
        for s in x.word:
            ref = alg.mult(ref, inverse[s])
        assert alg.bar(alg.Tt(x)) == ref.scale(v(-x.length)), x
    rng = random.Random(name)

    def draw():
        out = HeckeElt()
        for _ in range(3):
            coeff = v(rng.randrange(-3, 4), rng.choice((-2, -1, 1, 3)))
            make = rng.choice((T, HeckeAlgebra.Tt))
            out = out + make(alg, rng.choice(ball), coeff)
        return out

    for _ in range(10):
        a, b = draw(), draw()
        assert alg.bar(alg.mult(a, b)) == alg.mult(alg.bar(a), alg.bar(b))


def test_a_long_dihedral_word_widens_the_packing(u2):
    """3^40 > 2^63, so the 64-bit digits of a fresh algebra must widen
    for l(x) = 40; the values stay those of the product references."""
    x = elt(u2, "12" * 20)
    alg = HeckeAlgebra(u2)
    assert alg.kl_oracle(x) == alg.kl_basis(x)
    assert alg._bits > hecke._START_BITS
    ref = T(alg, u2.identity)
    for s in x.word:
        inverse = T(alg, u2.generators[s], v(2)) + T(alg, u2.identity, v(2) - v(0))
        ref = alg.mult(ref, inverse)
    assert alg.bar(alg.Tt(x)) == ref.scale(v(-x.length))


def test_kl_basis_fills_a_long_word_without_recursion(u2):
    """Under a recursion limit of 100, `kl_basis` answers the U2 word of
    length 200, whose fill reaches down to length 1, and equals the
    duality route; the product memo then holds a column of every length
    up to 200.  Each packed entry is P_{y,x} at q = 2^B, here a single
    digit 1, so the memo holds at most 64 bits per entry."""
    x = elt(u2, "12" * 100)
    alg = HeckeAlgebra(u2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        got = alg.kl_basis(x)
    finally:
        sys.setrecursionlimit(limit)
    assert got == alg.kl_oracle(x)
    assert {y.length for y in alg._kl_cols} == set(range(x.length + 1))
    entries = [n for col in alg._kl_cols.values() for n in col.values()]
    assert sum(abs(n).bit_length() for n in entries) <= 64 * len(entries)


@pytest.mark.parametrize("name", sorted(_DUALITY_SYSTEMS))
def test_a_narrow_start_width_widens_to_the_same_values(name, monkeypatch):
    """With 8-bit digits at the start, the memo widens while a column of
    length >= 5 is filled (3^5 > 2^7), and the duality solve widens and
    restarts partway down an interval; both give the values of 64-bit
    digits.  B2, whose longest element has length 4, only restarts."""
    coxeter, bound = _DUALITY_SYSTEMS[name]
    system = make_system(coxeter)
    ball = element_ball(system, bound)
    wide = HeckeAlgebra(system)
    bars = [wide.bar(wide.Tt(x)) for x in ball]
    solved = [wide.kl_oracle(x) for x in ball]
    monkeypatch.setattr(hecke, "_START_BITS", 8)
    restarts = []
    solve = HeckeAlgebra._solve

    def counted(self, x, interval):
        out = solve(self, x, interval)
        if out is None:
            restarts.append(x)
        return out

    monkeypatch.setattr(HeckeAlgebra, "_solve", counted)
    fill_first = HeckeAlgebra(system)
    assert [fill_first.bar(fill_first.Tt(x)) for x in ball] == bars
    assert (fill_first._bits > 8) == (ball[-1].length >= 5)
    assert not restarts
    assert [fill_first.kl_oracle(x) for x in ball] == solved
    solve_first = HeckeAlgebra(system)
    assert [solve_first.kl_oracle(x) for x in ball] == solved
    assert restarts
    assert [solve_first.bar(solve_first.Tt(x)) for x in ball] == bars


@pytest.mark.parametrize("name", sorted(_DUALITY_SYSTEMS))
def test_bar_at_a_narrow_start_width_gives_the_same_values(name, monkeypatch):
    """With 8-bit digits at the start, `bar` of 50 random sums of T and Tt
    terms equals the values of 64-bit digits.  Its bound |c|_1 3^l(x)
    passes 2^7, so `bar` widens the memo itself, also on B2, whose columns
    fit 8 bits."""
    coxeter, bound = _DUALITY_SYSTEMS[name]
    system = make_system(coxeter)
    ball = element_ball(system, bound)
    rng = random.Random(name)
    wide = HeckeAlgebra(system)
    elements = []
    for _ in range(50):
        a = HeckeElt()
        for _ in range(3):
            coeff = LaurentPoly(
                {rng.randrange(-3, 4): rng.choice((-2, -1, 1, 3)) for _ in range(2)}
            )
            make = rng.choice((T, HeckeAlgebra.Tt))
            a = a + make(wide, rng.choice(ball), coeff)
        elements.append(a)
    want = [b.coeffs for b in map(wide.bar, elements)]
    monkeypatch.setattr(hecke, "_START_BITS", 8)
    narrow = HeckeAlgebra(system)
    assert [b.coeffs for b in map(narrow.bar, elements)] == want
    assert narrow._bits > 8


@pytest.mark.parametrize("start", [3, 8])
@pytest.mark.parametrize("name", sorted(_ROUTE_SYSTEMS))
def test_a_narrow_start_width_widens_the_product_route_to_the_same_values(
    name, start, monkeypatch
):
    """With 3- or 8-bit digits at the start, `kl_basis` and the decoded
    `kl_products` equal those of 64-bit digits, filled up the ball or down
    from its top.  The norm bound of some C_x passes 2^2 on every system
    and stays below 2^7, so 3-bit digits widen and 8-bit ones stay.  On
    affA2, filled upwards from 3 bits, a widening falls between the two
    fits of one product, which is then formed again: only the memo is
    ever repacked, never a product in progress."""
    coxeter, cartan, bound, _ = _ROUTE_SYSTEMS[name]
    system = make_system(coxeter, cartan)
    ball = element_ball(system, bound)
    wide = HeckeAlgebra(system)
    values = [wide.kl_basis(x) for x in ball]
    monkeypatch.setattr(hecke, "_START_BITS", start)
    repack = hecke._repack
    in_product = []

    def watched(cols, old, bits):
        in_product.append(isinstance(cols, tuple))
        repack(cols, old, bits)

    monkeypatch.setattr(hecke, "_repack", watched)
    product = HeckeAlgebra._kl_product
    formed = []

    def counted(self, x, s, xs):
        formed.append(x)
        return product(self, x, s, xs)

    monkeypatch.setattr(HeckeAlgebra, "_kl_product", counted)
    for order in (ball, ball[::-1]):
        formed.clear()
        narrow = HeckeAlgebra(system)
        got = {x: narrow.kl_basis(x) for x in order}
        assert [got[x] for x in ball] == values
        assert narrow.kl_products == wide.kl_products
        assert (narrow._kl_bits > 8) == (start == 3 and name != "B2")
        assert (narrow._kl_bits > start) == (start == 3)
        if order is ball:
            # filled upwards, a product is formed twice only after a widening
            again = len(formed) > len(narrow.kl_products)
            assert again == (name == "affA2" and start == 3)
    assert not any(in_product)


@pytest.mark.parametrize("start", [3, 8])
@pytest.mark.parametrize("name", sorted(_DUALITY_SYSTEMS))
def test_a_widening_replaces_the_product_routes_coefficient_table(
    name, start, monkeypatch
):
    """From 3- or 8-bit digits, filled up the ball and then down again, or
    down and then up, `kl_basis` and `kl_products` equal the values of
    64-bit digits.  Every entry of the coefficient table decodes to its
    polynomial at the current width, and no coefficient object returned
    at one width is returned again at another.  3-bit digits widen
    between the calls filled upwards and inside the first call filled
    downwards; 8-bit digits do not widen.  Equal coefficients of the
    outputs and products of one algebra are one object."""
    coxeter, bound = _DUALITY_SYSTEMS[name]
    system = make_system(coxeter)
    ball = element_ball(system, bound)
    wide = HeckeAlgebra(system)
    values = {x: wide.kl_basis(x) for x in ball}
    shared = {}
    for out in [*values.values(), *(p for _, p in wide.kl_products.values())]:
        for c in out.coeffs.values():
            assert shared.setdefault(c, c) is c
    monkeypatch.setattr(hecke, "_START_BITS", start)
    for order in (ball, ball[::-1]):
        narrow = HeckeAlgebra(system)
        # {id: (coefficient, the width it was returned at)}
        returned = {}
        widths = []
        for x in order + order[::-1]:
            got = narrow.kl_basis(x)
            bits = narrow._kl_bits
            widths.append(bits)
            assert got == values[x]
            for c in got.coeffs.values():
                assert returned.setdefault(id(c), (c, bits))[1] == bits
            for (n, d), c in narrow._kl_polys.items():
                assert c.c == hecke._unpack(n, bits, d, -2)
        assert narrow.kl_products == wide.kl_products
        assert (widths[0] != widths[-1]) == (start == 3 and order is ball)
        assert (widths[-1] > start) == (start == 3)


def test_the_product_route_refuses_a_nonzero_lowest_digit(a3):
    """A term (y, n) of the packed C_xs with ys < y, n = P_y(2^B) and
    h_y = v^d P_y(v^-2), d = l(xs) - l(y), must have h_y in v Z[v], so
    q-digit ceil(d/2) of n, the v^0 or v^-1 term of h_y, must be 0;
    adding 1 there, for each such y below each x of A3, is refused at y
    by the product step, before it reaches the product."""
    from bmsheaves.errors import InconsistencyError

    refused = 0
    for x in element_ball(a3, 6):
        if x.length < 2:
            continue
        s = x.descent
        gen = a3.generators[s]
        xs = multiply(x, gen)
        for y in HeckeAlgebra(a3).kl_basis(xs).support:
            if multiply(y, gen).length > y.length:
                continue
            alg = HeckeAlgebra(a3)
            alg.kl_basis(xs)
            d = xs.length - y.length
            alg._kl_cols[xs][y] += 1 << alg._kl_bits * ((d + 1) // 2)
            with pytest.raises(InconsistencyError, match=f"at {y} not in vZ"):
                alg.kl_basis(x)
            assert x not in alg._kl_cols
            refused += 1
    assert refused == 25


def test_an_element_of_another_system_is_refused(a2, b2):
    """The duality route of an A2 algebra refuses B2 elements, the
    identity included, with InputError."""
    alg = HeckeAlgebra(a2)
    for x in (b2.identity, elt(b2, "1"), elt(b2, "1212")):
        with pytest.raises(InputError, match="different systems"):
            alg.kl_oracle(x)
        with pytest.raises(InputError, match="different systems"):
            alg.bar(alg.Tt(x))
        for make in (T, HeckeAlgebra.Tt):
            with pytest.raises(InputError, match="different systems"):
                alg.bar(make(alg, x, v(1)))


def test_the_product_route_refuses_an_element_of_another_system(a2, b2):
    """`kl_basis` of an A2 algebra refuses B2 elements of every length,
    the identity and a generator included, before it reads or writes its
    memo, and `kl_polynomial` refuses them in either argument; the A2
    values it holds stay as they were."""
    alg = HeckeAlgebra(a2)
    want = {x: alg.kl_basis(x) for x in (a2.identity, elt(a2, "1"), elt(a2, "121"))}
    products = dict(alg.kl_products)
    packed = {x: dict(col) for x, col in alg._kl_cols.items()}
    norms, bits = dict(alg._kl_norms), alg._kl_bits
    for x in (b2.identity, elt(b2, "1"), elt(b2, "2"), elt(b2, "1212")):
        with pytest.raises(InputError, match="different systems"):
            alg.kl_basis(x)
        with pytest.raises(InputError, match="different systems"):
            alg.kl_polynomial(x, elt(a2, "121"))
        with pytest.raises(InputError, match="different systems"):
            alg.kl_polynomial(elt(a2, "1"), x)
    assert alg.kl_products == products
    assert alg._kl_cols == packed
    assert (alg._kl_norms, alg._kl_bits) == (norms, bits)
    assert {x: alg.kl_basis(x) for x in want} == want


def test_an_algebra_serves_the_elements_of_equal_data():
    """Two `make_system` calls on equal data give one system: an algebra
    filled from the first call's elements gives, at the second call's
    elements, the values of a fresh algebra, on both routes.  Its memos
    hold only that system's instances."""
    first = make_system([[1, 3], [3, 1]])
    second = make_system([[1, 3], [3, 1]])
    assert second is first
    reference = HeckeAlgebra(make_system([[1, 3], [3, 1]]))
    alg = HeckeAlgebra(first)
    alg.kl_basis(elt(first, "1"))
    alg.kl_oracle(elt(first, "12"))
    for word in ("12", "21", "121"):
        want = reference.kl_basis(elt(first, word))
        assert alg.kl_basis(elt(second, word)) == want
        assert alg.kl_oracle(elt(second, word)) == want
        assert alg.kl_basis(elt(first, word)) == want
        assert alg.bar(alg.Tt(elt(second, word))) == (
            reference.bar(reference.Tt(elt(first, word)))
        )
        for y in bruhat_interval(elt(second, word)):
            assert alg.kl_polynomial(y, elt(second, word)) == (
                reference.kl_polynomial(y, elt(first, word))
            )
    for memo in (alg._kl_cols, alg._bar_tt):
        for x, col in memo.items():
            assert x.system is first and all(y.system is first for y in col)


@pytest.mark.parametrize(
    "y, z, message",
    [("12", "21", "outside"), ("1", "12", "settled"), ("1", "2", "settled")],
)
def test_the_duality_solve_refuses_terms_it_cannot_push(a2, y, z, message):
    """A term of d(Tt_y) at z outside [e, 12], or at a z settled before y,
    has nowhere to go; the solve must say so rather than drop it."""
    from bmsheaves.errors import InconsistencyError

    alg = HeckeAlgebra(a2)
    # fill the memo first: each d(Tt_x) is built from its prefix's, so a
    # bad entry written before then would also reach d(Tt_12)
    for x in bruhat_interval(elt(a2, "12")):
        alg.bar(alg.Tt(x))
    # add 1 to the packed entry at z of y's column, the lowest digit: the
    # term v^(l(z)-l(y)) Tt_z, of the one parity the packed format holds
    column = alg._bar_tt[elt(a2, y)]
    column[elt(a2, z)] = column.get(elt(a2, z), 0) + 1
    with pytest.raises(InconsistencyError, match=message):
        alg.kl_oracle(elt(a2, "12"))


@pytest.mark.parametrize(
    "digit, defect",
    [
        (0, "v^2"),
        (1, "-v^-2 + 1 + v^2"),
        (2, "-v^-2 + 2*v^2"),
        (3, "-v^-2 + v^2 + v^4"),
    ],
)
def test_the_duality_solve_refuses_a_defect_that_is_not_skew(a2, digit, defect):
    """Adding 1 at digit k of the packed entry at 1 of d(Tt_12) adds the
    term v^(2k-1) Tt_1 there.  Under d(h_12) = v^-1 it reaches the defect
    v^2 - v^-2 of 1 in [e, 121] as v^(2k-2): k = 0 cancels v^-2 and leaves
    it asymmetric, k = 1 gives it a constant term, k = 2 puts the fault in
    the positive half, which becomes h_1, and k = 3 adds v^4, above every
    exponent that d(h_1) could mirror.  All four are refused."""
    from bmsheaves.errors import InconsistencyError

    alg = HeckeAlgebra(a2)
    # fill the memo first, so the bad entry stays out of d(Tt_121)
    for x in bruhat_interval(elt(a2, "121")):
        alg.bar(alg.Tt(x))
    alg._bar_tt[elt(a2, "12")][elt(a2, "1")] += 1 << (alg._bits * digit)
    message = re.escape(f"defect at 1 is not skew: {defect};")
    with pytest.raises(InconsistencyError, match=message):
        alg.kl_oracle(elt(a2, "121"))


@pytest.mark.parametrize(
    "digit, defect",
    [(0, "v^3"), (1, "-v^-3 + v^-1 + v^3"), (2, "-v^-3 + v + v^3")],
)
def test_the_duality_solve_refuses_a_defect_of_odd_depth(b2, digit, defect):
    """The same at an odd distance d = l(x) - l(y), where no digit holds
    the exponent 0: adding 1 at digit k of the packed entry at 1 of
    d(Tt_121) adds v^(2k-2) Tt_1 there, and under d(h_121) = v^-1 it
    reaches the defect v^3 - v^-3 of 1 in [e, 1212] as v^(2k-3).  k = 0
    cancels v^-3, and k = 1 and k = 2 add a term to the lower and the
    upper half.  All three are refused."""
    from bmsheaves.errors import InconsistencyError

    alg = HeckeAlgebra(b2)
    # fill the memo first, so the bad entry stays out of d(Tt_1212)
    for x in bruhat_interval(elt(b2, "1212")):
        alg.bar(alg.Tt(x))
    alg._bar_tt[elt(b2, "121")][elt(b2, "1")] += 1 << (alg._bits * digit)
    message = re.escape(f"defect at 1 is not skew: {defect};")
    with pytest.raises(InconsistencyError, match=message):
        alg.kl_oracle(elt(b2, "1212"))


def test_the_duality_solve_refuses_a_zero_coefficient(a2):
    """P_{y,x}(0) = 1 for every y <= x, so no h_y is 0.  Zeroing the entry
    at e of the packed d(Tt_1) empties the defect of e under x = 1, which
    is still skew; the solve must refuse it rather than drop the term
    v Tt_e and return Tt_1 alone."""
    from bmsheaves.errors import InconsistencyError

    alg = HeckeAlgebra(a2)
    s = elt(a2, "1")
    alg._column(s)
    alg._bar_tt[s][a2.identity] = 0
    message = re.escape(f"duality solve gives h = 0 at {a2.identity}")
    with pytest.raises(InconsistencyError, match=message):
        alg.kl_oracle(s)


def test_the_duality_solve_checks_skewness_at_a_repeated_key(a2):
    """The solve reuses h_y and the packed d(h_y) of a (upper digits,
    depth) key it has seen, but still compares the lower digits at every
    element.  Under x = 121, h_21 = h_12 = v at depth 1, and 21 is settled
    first; adding 1 at the lowest digit of the packed entry at 12 of
    d(Tt_121) cancels the v^-1 of the defect of 12 and leaves its upper
    digits as they were, and the solve refuses it."""
    from bmsheaves.errors import InconsistencyError

    alg = HeckeAlgebra(a2)
    x = elt(a2, "121")
    h = alg.kl_oracle(x)
    assert h.coeff(elt(a2, "21")) == h.coeff(elt(a2, "12")) == v(1)
    order = list(reversed(bruhat_interval(x)))
    assert order.index(elt(a2, "21")) < order.index(elt(a2, "12"))
    # fill the memo first, so the bad entry stays in d(Tt_121)
    for y in bruhat_interval(x):
        alg.bar(alg.Tt(y))
    alg._bar_tt[x][elt(a2, "12")] += 1
    message = re.escape("duality defect at 12 is not skew: v;")
    with pytest.raises(InconsistencyError, match=message):
        alg.kl_oracle(x)


def test_expansion_in_the_self_dual_basis_inverts_it(b2, b2_alg):
    x = elt(b2, "1212")
    assert b2_alg.expand_kl(b2_alg.kl_basis(x)) == {x: LaurentPoly.one()}
    mixed = b2_alg.Tt(x) + b2_alg.Tt(elt(b2, "12"), v(-3, 5))
    back = HeckeElt()
    for y, c in b2_alg.expand_kl(mixed).items():
        back = back + b2_alg.kl_basis(y).scale(c)
    assert back == mixed


def test_the_two_routes_are_independent(a2, a3, monkeypatch):
    """A corrupted bar involution must be caught by the duality-solve route
    while leaving the product recursion untouched: the routes share no
    machinery beyond ring arithmetic."""
    from bmsheaves import laurent
    from bmsheaves.errors import InconsistencyError

    real_bar = laurent.LaurentPoly.bar

    def wrong_bar(self):
        # drop the exponent flip at +-1: still additive, no longer correct
        return laurent.LaurentPoly(
            {(e if abs(e) == 1 else -e): c for e, c in self.c.items()}
        )

    x = a2.element((0, 1, 0))
    reference = HeckeAlgebra(a2).kl_basis(x)
    # the product route never fills the packed duality memo
    a3_fresh = HeckeAlgebra(a3)
    a3_fresh.kl_basis(elt(a3, "121321"))
    assert a3_fresh._bar_tt == {a3.identity: {a3.identity: 1}}
    monkeypatch.setattr(laurent.LaurentPoly, "bar", wrong_bar)
    alg = HeckeAlgebra(a2)
    assert alg.kl_basis(x) == reference  # route 1 never calls bar
    try:
        oracle = alg.kl_oracle(x)
    except InconsistencyError:
        oracle = None  # the skew check rejected the corrupted involution
    assert oracle != reference
    monkeypatch.setattr(laurent.LaurentPoly, "bar", real_bar)
    assert HeckeAlgebra(a2).kl_oracle(x) == reference


def test_products_with_generators_expand_with_integer_constants(b2, b2_alg):
    """C_x C_s = C_{xs} + sum of integer multiples of lower C_y with ys < y."""
    for x in element_ball(b2, 4):
        if x.length < 2:
            continue
        b2_alg.kl_basis(x)
        s, prod = b2_alg.kl_products[x]
        gen = b2.generators[s]
        expansion = b2_alg.expand_kl(prod)
        assert expansion.pop(x) == LaurentPoly.one()
        for y, c in expansion.items():
            assert c == LaurentPoly({0: c.constant_term})
            ys = y.system.element(y.word + (s,))
            assert ys.length < y.length
            assert gen  # the logged generator is a real descent direction
