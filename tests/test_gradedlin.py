"""Exact graded linear algebra over S = Q[x_0..x_{n-1}], deg x_i = 2.

Free and quotient modules, degreewise maps, kernels, minimal generators
and the deconvolution that recovers a graded rank from a dimension table.
"""

import itertools
import random
from fractions import Fraction

import pytest

from bmsheaves import bmsheaf
from bmsheaves.bmsheaf import bm_construct
from bmsheaves.coxeter import multiply, parse_word
from bmsheaves.errors import CapError, InputError, NotGradedFreeError
from bmsheaves.gradedlin import (
    DirectSum,
    FreeModule,
    KernelSweep,
    ModuleMap,
    PolyRing,
    QuotientModule,
    hilbert_dim,
    minimal_generators,
    quotient_map,
    rank_from_dims,
)
from bmsheaves.laurent import LaurentPoly
from bmsheaves.linalg import Echelon, column_echelon
from bmsheaves.momentgraph import build_graph


def kernel(mmap, d):
    """Degree-d kernel of a map: one equation per target basis row."""
    return column_echelon(mmap.columns(d), mmap.target.dim(d)).kernel(mmap.source.dim(d))


def image_rank(mmap, d):
    """Rank of the degree-d image: the echelonized column span."""
    ech = Echelon()
    for col in mmap.columns(d):
        ech.insert(col)
    return ech.dim


def dense(vec, n):
    return [vec.get(i, 0) for i in range(n)]


# -- a dense reference built from monomial arithmetic -----------------------------
#
# A degree-d element is a polynomial {(generator, exponent tuple): coeff};
# a quotient element is rewritten without the pivot variable of alpha by
# substituting x_p = -(1/alpha_p) sum_j alpha_j x_j until no term has x_p.


def ref_reduce(poly, alpha):
    if alpha is None:
        return {key: c for key, c in poly.items() if c}
    p = next(j for j, a in enumerate(alpha) if a)
    out, todo = {}, dict(poly)
    while todo:
        (i, m), c = todo.popitem()
        if m[p] == 0:
            out[(i, m)] = out.get((i, m), 0) + c
            continue
        for j, a in enumerate(alpha):
            if a and j != p:
                mm = list(m)
                mm[p] -= 1
                mm[j] += 1
                key = (i, tuple(mm))
                todo[key] = todo.get(key, 0) - Fraction(a, alpha[p]) * c
    return {key: c for key, c in out.items() if c}


def ref_mul_var(blocks, vec, k, d):
    """x_k on a dense vector of the concatenated (module, alpha) blocks."""
    out = []
    start = 0
    for mod, alpha in blocks:
        poly = {}
        for (i, m), c in zip(mod.basis(d), vec[start : start + mod.dim(d)]):
            mm = list(m)
            mm[k] += 1
            poly[(i, tuple(mm))] = c
        start += mod.dim(d)
        piece = [0] * mod.dim(d + 2)
        for key, c in ref_reduce(poly, alpha).items():
            piece[mod.index(d + 2)[key]] = c
        out.extend(piece)
    return out


def sparse_of(vec):
    return {i: c for i, c in enumerate(vec) if c}


def monomial_coords(blocks, vec, d):
    """A sparse degree-d vector of the concatenated blocks in the
    reference's monomial coordinates.  The module's basis vector of
    S/alpha at m is x^m / |a_p|^|m|, p the pivot, so its entry is
    divided by |a_p|^|m|."""
    scales = []
    for mod, alpha in blocks:
        a = 1 if alpha is None else abs(next(c for c in alpha if c))
        scales.extend(a ** sum(m) for _, m in mod.basis(d))
    return {pos: Fraction(c) / scales[pos] for pos, c in vec.items()}


def random_vec(rng, n):
    values = (0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3))
    return [rng.choice(values) for _ in range(n)]


def _blocks(name):
    r2, r3 = PolyRing(2), PolyRing(3)
    return {
        "free": (r3, [(FreeModule(r3, (0, 2)), None)]),
        "quotient-3,2": (r2, [(QuotientModule(r2, (0, 2), (3, 2)), (3, 2))]),
        "quotient-2,1,0": (r3, [(QuotientModule(r3, (0, 4), (2, 1, 0)), (2, 1, 0))]),
        "sum": (
            r3,
            [
                (QuotientModule(r3, (2,), (2, 1, 0)), (2, 1, 0)),
                (FreeModule(r3, (0,)), None),
                (QuotientModule(r3, (0,), (0, 1, -1)), (0, 1, -1)),
            ],
        ),
    }[name]


def _module(ring, blocks):
    if len(blocks) == 1:
        return blocks[0][0]
    return DirectSum(ring, [mod for mod, _ in blocks])


MODULES = ("free", "quotient-3,2", "quotient-2,1,0", "sum")


@pytest.mark.parametrize("name", MODULES)
def test_sparse_products_match_the_monomial_reference(name):
    ring, blocks = _blocks(name)
    mod = _module(ring, blocks)
    rng = random.Random(name)
    coeffs = (3, -1, 2)[: ring.nvars]
    for d in range(0, 8, 2):
        for _ in range(6):
            vec = random_vec(rng, mod.dim(d))
            mono = dense(monomial_coords(blocks, sparse_of(vec), d), mod.dim(d))
            refs = [ref_mul_var(blocks, mono, k, d) for k in range(ring.nvars)]
            for k, ref in enumerate(refs):
                got = mod.mul_var(sparse_of(vec), k, d)
                assert monomial_coords(blocks, got, d + 2) == sparse_of(ref), (d, k)
                assert all(got.values())
            by_form = [
                sum(c * ref[t] for c, ref in zip(coeffs, refs))
                for t in range(mod.dim(d + 2))
            ]
            got = mod.mul_linear(sparse_of(vec), coeffs, d)
            assert monomial_coords(blocks, got, d + 2) == sparse_of(by_form)
            if isinstance(mod, DirectSum):
                off = mod.offsets(d)
                for idx in range(len(blocks)):
                    block = vec[off[idx] : off[idx + 1]]
                    got = mod.component(sparse_of(vec), idx, d)
                    assert got == sparse_of(block)


@pytest.mark.parametrize("name", MODULES)
def test_sparse_map_columns_match_the_monomial_reference(name):
    ring, blocks = _blocks(name)
    target = _module(ring, blocks)
    source = FreeModule(ring, (0, 2, 2))
    rng = random.Random(f"map:{name}")
    images = [sparse_of(random_vec(rng, target.dim(g))) for g in source.gens]
    mmap = ModuleMap(source, target, images)
    for d in range(0, 8, 2):
        cols = mmap.columns(d)
        assert len(cols) == source.dim(d)
        ref_cols = []
        for i, m in source.basis(d):
            e = source.gens[i]
            col = dense(monomial_coords(blocks, images[i], e), target.dim(e))
            for k, power in enumerate(m):
                for _ in range(power):
                    col = ref_mul_var(blocks, col, k, e)
                    e += 2
            ref_cols.append(col)
        got = [monomial_coords(blocks, col, d) for col in cols]
        assert got == [sparse_of(col) for col in ref_cols], d
        vec = random_vec(rng, source.dim(d))
        ref = [
            sum(c * col[t] for c, col in zip(vec, ref_cols))
            for t in range(target.dim(d))
        ]
        got = mmap.apply(sparse_of(vec), d)
        assert monomial_coords(blocks, got, d) == sparse_of(ref)


def test_hilbert_dimensions():
    assert [hilbert_dim(1, d) for d in range(0, 8, 2)] == [1, 1, 1, 1]
    assert [hilbert_dim(2, d) for d in range(0, 8, 2)] == [1, 2, 3, 4]
    assert [hilbert_dim(3, d) for d in range(0, 8, 2)] == [1, 3, 6, 10]
    assert hilbert_dim(2, 3) == 0
    assert hilbert_dim(2, -2) == 0
    assert [hilbert_dim(0, d) for d in range(-2, 8, 2)] == [0, 1, 0, 0, 0]


def test_monomial_basis_is_ordered_and_complete():
    ring = PolyRing(2)
    assert ring.monomials(0) == ((0, 0),)
    deg4 = ring.monomials(4)
    assert len(deg4) == hilbert_dim(2, 4) == 3
    assert set(deg4) == {(2, 0), (1, 1), (0, 2)}
    assert ring.monomials(4) == deg4  # cached and stable
    assert ring.monomials(3) == ()


@pytest.mark.parametrize("nvars", range(1, 5))
def test_block_sizes_are_the_hilbert_function(nvars):
    """A block's size, read from the Hilbert function, is the number of
    its monomials in every degree from -2 to 12, odd ones too, for S and
    for S/alpha.  With one variable this is the S/(x_0) of the ZE module
    in test_momentgraph: 1 in degree 0 and 0 above."""
    ring = PolyRing(nvars)
    rng = random.Random(30 + nvars)
    alphas = [(1,) + (0,) * (nvars - 1), (0,) * (nvars - 1) + (-3,)]
    alphas += [tuple(rng.randint(-2, 2) for _ in range(nvars - 1)) + (2,)]
    gens = (0, 2, 6)
    for alpha in [None, *alphas]:
        if alpha is None:
            mod = FreeModule(ring, gens)
        else:
            mod = QuotientModule(ring, gens, alpha)
        for e in range(-2, 13):
            sizes = [len(ring._block_monomials(alpha, e - g)) for g in gens]
            starts = mod.block_starts(e)
            assert [b - a for a, b in zip(starts, starts[1:])] == sizes, (alpha, e)
            assert mod.dim(e) == len(mod.basis(e))
    if nvars == 1:
        quotient = QuotientModule(ring, (0,), (1,))
        assert [quotient.dim(e) for e in range(-2, 13)] == [0, 0, 1] + [0] * 12


def test_quotient_basis_skips_the_pivot_variable():
    ring = PolyRing(2)
    # S/(x0 + x1) is one-dimensional in every even degree
    for d in range(0, 10, 2):
        assert len(ring.quotient_monomials(0, d)) == 1
    assert ring.quotient_monomials(0, 4) == ((0, 2),)
    # pivot is the first variable with a nonzero coefficient
    assert QuotientModule(ring, (0,), (1, 1)).basis(4) == ((0, (0, 2)),)
    assert QuotientModule(ring, (0,), (0, 3)).basis(4) == ((0, (2, 0)),)
    with pytest.raises(InputError):
        QuotientModule(ring, (0,), (0, 0))


def test_free_module_bookkeeping():
    ring = PolyRing(2)
    mod = FreeModule(ring, (0, 2))
    assert mod.rank_poly == LaurentPoly({0: 1, 2: 1})
    assert mod.dim(0) == 1
    assert mod.dim(2) == 3  # x0, x1 on the first generator plus the second
    assert mod.dim(4) == 5
    with pytest.raises(InputError):
        FreeModule(ring, (1,))


def test_monomials_are_the_exponent_tuples_in_lex_descending_order():
    for n in range(1, 5):
        ring = PolyRing(n)
        for d in range(-2, 9):
            want = []
            if d >= 0 and d % 2 == 0:
                tuples = itertools.product(range(d // 2 + 1), repeat=n)
                want = sorted((m for m in tuples if sum(m) == d // 2), reverse=True)
            assert list(ring.monomials(d)) == want, (n, d)


def test_multiplication_by_a_monomial_is_repeated_variable_steps():
    ring = PolyRing(3)
    mod = FreeModule(ring, (0, 2))
    vec = {0: 2, 3: -1}
    steps = mod.mul_var(mod.mul_var(mod.mul_var(vec, 2, 2), 0, 4), 0, 6)
    assert mod.mul_mono(vec, (2, 0, 1), 2) == steps
    assert mod.mul_mono(vec, (0, 0, 0), 2) == vec


def test_multiplication_by_a_linear_form_matches_variable_sums():
    ring = PolyRing(2)
    mod = FreeModule(ring, (0, 2))
    d = 2
    vec = {0: 1, 2: -2}
    assert max(vec) < mod.dim(d)
    by_form = mod.mul_linear(vec, (3, -1), d)
    x0 = mod.mul_var(vec, 0, d)
    x1 = mod.mul_var(vec, 1, d)
    manual = {t: 3 * x0.get(t, 0) - x1.get(t, 0) for t in set(x0) | set(x1)}
    assert by_form == {t: a for t, a in manual.items() if a}


def test_quotient_module_kills_exactly_the_form():
    ring = PolyRing(2)
    # (2, 3) is G2's label and (-2, 3) has a negative pivot: the basis of
    # S/alpha is scaled by powers of |a_p| = 2, so the columns stay integers
    cases = [((0,), (1, 1)), ((0,), (2, 3)), ((0,), (-2, 3)), ((0, 2), (1, 1))]
    for gens, alpha in cases:
        free = FreeModule(ring, gens)
        q = quotient_map(free, alpha)
        qmap = q.projection
        assert q.gens == free.gens and q.alpha == alpha
        # the module holds its canonical map, out of F itself
        assert qmap.source is free and qmap.target is q
        assert QuotientModule(ring, gens, alpha).projection is None
        assert [q.dim(d) for d in range(0, 8, 2)] == [
            sum(d >= g for g in gens) for d in range(0, 8, 2)
        ]
        for i, g in enumerate(gens):
            unit = {free.index(g)[(i, (0, 0))]: 1}
            # each generator goes to the unit of its block, and alpha
            # times it to zero
            assert qmap.apply(unit, g) == {q.block_starts(g)[i]: 1}
            assert qmap.apply(free.mul_linear(unit, alpha, g), g + 2) == {}
        for d in range(0, 8, 2):
            # the kernel is exactly alpha times the degree d - 2 piece
            ker = kernel(qmap, d)
            assert len(ker) == free.dim(d) - q.dim(d)
            ech = Echelon()
            for pos in range(free.dim(d - 2)):
                ech.insert(free.mul_linear({pos: 1}, alpha, d - 2))
            assert ech.dim == len(ker)
            assert all(ech.insert(vec) is None for vec in ker)


def test_direct_sum_blocks_and_components():
    ring = PolyRing(2)
    a = FreeModule(ring, (0,))
    b = QuotientModule(ring, (0,), (1, 0))
    ds = DirectSum(ring, [a, b])
    assert ds.dim(2) == a.dim(2) + b.dim(2) == 3
    vec = {0: 5, 1: 7, 2: 9}
    assert ds.component(vec, 0, 2) == {0: 5, 1: 7}
    assert ds.component(vec, 1, 2) == {0: 9}


def test_rank_nullity_per_degree():
    ring = PolyRing(2)
    src = FreeModule(ring, (0, 0))
    tgt = FreeModule(ring, (0,))
    # map (f, g) -> f*x0 + g*x1 shifted into degree: images of both gens
    x0 = {tgt.index(2)[(0, (1, 0))]: 1}
    x1 = {tgt.index(2)[(0, (0, 1))]: 1}
    mmap = ModuleMap(FreeModule(ring, (2, 2)), tgt, [x0, x1])
    for d in (2, 4, 6, 8):
        k = len(kernel(mmap, d))
        i = image_rank(mmap, d)
        assert k + i == mmap.source.dim(d)


def _assert_rank_matches_step(ranked, stepped, ech, d):
    """`ranked` just took the rank of degree d and `stepped` just stepped
    to it, giving `ech`: the same rank and the same held pivot positions."""
    assert ranked.rank(d) == ech.dim, d
    assert [h.keys() for h in ranked._held] == [h.keys() for h in stepped._held], d


def _sweep_against_all_columns(mmap, top):
    """Step a KernelSweep of the map through every even degree up to top
    and compare each degree with the column system over every column:
    the same pivots and rank, and at each kept free column the same
    kernel vector.  A second sweep takes the ranks (`KernelSweep.rank`)
    and holds the same pivots.  Returns the number of columns the sweep
    dropped."""
    source = mmap.source
    sweep = KernelSweep(mmap.target, source.gens, mmap.images)
    ranked = KernelSweep(mmap.target, source.gens, mmap.images)
    dropped = 0
    pivots = set()  # the full system's pivots one degree down, as (i, m)
    for d in range(0, top + 1, 2):
        width = source.dim(d)
        full = column_echelon(mmap.columns(d), mmap.target.dim(d))
        basis = full.kernel(width)
        ech, positions = sweep.step(d)
        assert sweep.dim(d) == width
        # kept: every m / x_k of the position's monomial is such a pivot
        assert positions == [
            pos
            for pos, (i, m) in enumerate(source.basis(d))
            if all(
                (i, m[:k] + (e - 1,) + m[k + 1 :]) in pivots
                for k, e in enumerate(m)
                if e
            )
        ], d
        pivots = {source.basis(d)[p] for p in full.rows}
        assert {positions[p] for p in ech.rows} == full.rows.keys(), d
        assert width - ech.dim == len(basis), d
        # a kernel basis vector's largest column is its free column
        kept = [vec for vec in basis if max(vec) in positions]
        pruned = [
            {positions[i]: a for i, a in vec.items()}
            for vec in ech.kernel(len(positions))
        ]
        assert pruned == kept, d
        # only the pivot columns are held for the next degree
        assert sum(map(len, sweep._held)) == ech.dim
        _assert_rank_matches_step(ranked, sweep, ech, d)
        dropped += width - len(positions)
    return dropped


def test_kernel_sweep_drops_columns_and_keeps_the_kernel_vectors():
    """S{0} + S{-2} -> S/(x0 + x1) + S/(x0 - x1) in two variables,
    sending the generators to (1, 1) and (x1, 0).  The kernel holds
    (x0 - x1, 2) in degree 2 and (x1^2 - x0^2, 0) in degree 4, so from
    degree 4 on the sweep drops columns, and from degree 6 on it keeps
    only the two pivots."""
    ring = PolyRing(2)
    plus = QuotientModule(ring, (0,), (1, 1))
    minus = QuotientModule(ring, (0,), (1, -1))
    target = DirectSum(ring, [plus, minus])
    x1 = plus.index(2)[(0, (0, 1))]
    mmap = ModuleMap(FreeModule(ring, (0, 2)), target, [{0: 1, 1: 1}, {x1: 1}])
    assert _sweep_against_all_columns(mmap, 12) == 2 + 5 + 7 + 9 + 11


@pytest.mark.parametrize("seed", range(3))
def test_kernel_sweep_matches_all_columns_on_random_maps(seed):
    """Random integer images of generators of degrees 0, 2 and 2 in a sum
    of quotient modules of S in three variables."""
    rng = random.Random(seed)
    ring = PolyRing(3)
    target = DirectSum(
        ring,
        [
            QuotientModule(ring, (0,), (1, 1, 0)),
            QuotientModule(ring, (0, 2), (0, 2, -1)),
            QuotientModule(ring, (2,), (1, -1, 3)),
        ],
    )
    source = FreeModule(ring, (0, 2, 2))
    images = [
        {t: a for t in range(target.dim(g)) if (a := rng.choice((0, 0, 1, -1, 2)))}
        for g in source.gens
    ]
    assert _sweep_against_all_columns(ModuleMap(source, target, images), 10) > 0


@pytest.mark.parametrize(
    "name, word", [("a3", "121321"), ("b2", "1212"), ("g2", "121212")]
)
def test_rank_sweeps_match_step_sweeps_on_sheaf_gluing_maps(name, word, request):
    """The costalk gluing map at every vertex, up to the largest cap, and
    every pair gluing map, up to the lower vertex's cap: in each degree
    `rank` gives the rank of `step` and holds the same pivots."""
    system = request.getfixturevalue(name)
    bm = bm_construct(build_graph(system, system.element(parse_word(word, system.rank))))
    graph = bm.graph
    sweeps = []  # (step sweep, rank sweep, top degree)
    for w in graph.vertices:
        m = bm.gluing_map([w], graph.up[w])
        stepped = KernelSweep(m.target, m.source.gens, m.images)
        ranked = KernelSweep(m.target, m.source.gens, m.images)
        sweeps.append((stepped, ranked, max(bm.caps.values())))
    for s, gen in enumerate(system.generators):
        for y in graph.vertices:
            ys = multiply(y, gen)
            if ys.length < y.length:
                m = bm.gluing_map([ys, y], bmsheaf._pair_edges(bm, y, s)[1])
                stepped = KernelSweep(m.target, m.source.gens, m.images)
                ranked = KernelSweep(m.target, m.source.gens, m.images)
                sweeps.append((stepped, ranked, bm.caps[ys]))
    assert len(sweeps) > len(graph.vertices)
    for stepped, ranked, top in sweeps:
        for d in range(0, top + 1, 2):
            ech, _ = stepped.step(d)
            _assert_rank_matches_step(ranked, stepped, ech, d)


@pytest.mark.parametrize("seed", range(4))
def test_rank_sweeps_take_generators_in_any_degree_order(seed):
    """Seeded random images of generators whose degrees are not sorted,
    as the flabbiness certificate's born generators are not, in a small
    free module and in a sum of a free and two quotient modules: in
    every degree the sweep's rank is the rank over all the columns."""
    rng = random.Random(40 + seed)
    ring = PolyRing(2)
    targets = [
        FreeModule(ring, (0, 2)),
        DirectSum(
            ring,
            [
                FreeModule(ring, (0,)),
                QuotientModule(ring, (0, 2), (1, 1)),
                QuotientModule(ring, (2,), (2, -3)),
            ],
        ),
    ]
    for target in targets:
        for _ in range(6):
            gens = [rng.choice((0, 2, 2, 4)) for _ in range(rng.randint(2, 5))]
            if gens == sorted(gens):
                gens.reverse()
            images = [
                {t: a for t in range(target.dim(g)) if (a := rng.choice((0, 0, 1, -1, 2)))}
                for g in gens
            ]
            mmap = ModuleMap(FreeModule(ring, gens), target, images)
            sweep = KernelSweep(target, gens, images)
            for d in range(0, 12, 2):
                full = column_echelon(mmap.columns(d), target.dim(d))
                assert sweep.rank(d) == full.dim, (gens, d)


def test_kernel_sweep_steps_one_degree_at_a_time():
    ring = PolyRing(2)
    sweep = KernelSweep(FreeModule(ring, (0,)), (0,), [{0: 1}])
    with pytest.raises(InputError):
        sweep.step(2)
    sweep.step(0)
    with pytest.raises(InputError):
        sweep.add(-2, {})
    ranked = KernelSweep(FreeModule(ring, (0,)), (0,), [{0: 1}])
    with pytest.raises(InputError):
        ranked.rank(2)
    assert [ranked.rank(0), ranked.rank(2)] == [1, 2]


def test_a_step_may_not_follow_a_rank():
    # a rank holds each pivot as a row of its span, whose column system
    # a step would misread; a step holds columns, which a rank reads
    ring = PolyRing(2)
    target = FreeModule(ring, (0,))
    ranked = KernelSweep(target, (0, 0), [{0: 1}, {0: 2}])
    assert ranked.rank(0) == 1
    with pytest.raises(InputError):
        ranked.step(2)
    assert ranked.rank(2) == 2
    stepped = KernelSweep(target, (0, 0), [{0: 1}, {0: 2}])
    ech, positions = stepped.step(0)
    assert (len(ech.rows), positions) == (1, [0, 1])
    assert stepped.rank(2) == 2


def test_minimal_generators_of_an_edge_image():
    ring = PolyRing(2)
    ambient = FreeModule(ring, (0, 0))
    diag = {0: 1, 1: 1}
    alpha_first = {
        ambient.index(2)[(0, (1, 0))]: 1,
        ambient.index(2)[(0, (0, 1))]: 1,
    }  # (x0 + x1, 0)
    # a basis of the submodule's degree-2 piece: x0 * diag and x1 * diag
    # are spanned already, so only alpha_first is new there
    piece = [ambient.mul_var(diag, k, 0) for k in (0, 1)] + [alpha_first]
    gens = minimal_generators({0: [diag], 2: piece}, ambient, 10)
    assert gens == [(0, diag), (2, alpha_first)]
    # the generators alone, not closed under the variables, pick the same
    again = minimal_generators({d: [v] for d, v in gens}, ambient, 10)
    assert again == gens


def test_minimal_generators_refuse_a_tight_cap():
    ring = PolyRing(2)
    ambient = FreeModule(ring, (0,))
    with pytest.raises(CapError):
        minimal_generators({0: [{0: 1}]}, ambient, 2)
    assert minimal_generators({0: [{0: 1}]}, ambient, 10) == [(0, {0: 1})]


def test_minimal_generators_refuse_a_negative_cap():
    ambient = FreeModule(PolyRing(2), (0,))
    with pytest.raises(CapError, match="leaves no degree"):
        minimal_generators({0: [{0: 1}]}, ambient, -2)


def _natural_order_generators(candidates, ambient, cap):
    """`minimal_generators` by an independent route: in each degree, every
    monomial multiple of the generators picked so far, the columns of the
    map from the free module on them (`ModuleMap.columns`), goes into an
    Echelon one by one in its natural order, then the candidates."""
    last = max((d for d, vs in candidates.items() if vs), default=-2)
    gens = []
    for d in range(0, last + 1, 2):
        free = FreeModule(ambient.ring, [g for g, _ in gens])
        ech = Echelon()
        for v in ModuleMap(free, ambient, [v for _, v in gens]).columns(d):
            ech.insert(v)
        for v in candidates.get(d, ()):
            if ech.insert(v) is not None:
                gens.append((d, v))
    return gens


def test_minimal_generators_pick_the_same_candidates_as_natural_order(a3, monkeypatch):
    """The costalk candidates at every vertex of A3 12321, as the builder
    gives them (its kernel vectors at the kept columns) and as full
    costalk bases from the all-column solve, each as given and reversed:
    the picks are the same dict objects, in the same order, as with the
    multiples inserted in their natural order.  The builder's candidates
    and the full bases pick equal vectors.  Candidates go in one by one
    in their given order, the one place where insertion order is part of
    the output."""
    calls = []

    def record(candidates, ambient, cap):
        gens = minimal_generators(candidates, ambient, cap)
        calls.append((candidates, ambient, cap, gens))
        return gens

    monkeypatch.setattr(bmsheaf, "minimal_generators", record)
    graph = build_graph(a3, a3.element(parse_word("12321", 3)))
    bm = bm_construct(graph)
    monkeypatch.undo()
    assert len(calls) == len(graph.vertices)

    def ids(gens):
        return [(d, id(v)) for d, v in gens]

    def full_bases(w, cap):
        """The costalk at w from every column of the gluing map of its
        upward edges."""
        m = bm.gluing_map([w], graph.up[w])
        return {
            d: column_echelon(m.columns(d), m.target.dim(d)).kernel(m.source.dim(d))
            for d in range(0, cap + 1, 2)
        }

    vertex = {id(bm.stalks[w]): w for w in graph.vertices}
    moved = 0
    for candidates, ambient, cap, gens in calls:
        w = vertex[id(ambient)]
        full = full_bases(w, cap)
        full_gens = minimal_generators(full, ambient, cap)
        assert full_gens == gens, w
        for given in (candidates, full):
            picks = ids(minimal_generators(given, ambient, cap))
            assert picks == ids(_natural_order_generators(given, ambient, cap))
            reverse = {d: vs[::-1] for d, vs in given.items()}
            picks_rev = ids(minimal_generators(reverse, ambient, cap))
            assert picks_rev == ids(_natural_order_generators(reverse, ambient, cap))
            if given is full:
                moved += picks_rev != picks
    assert moved  # at some vertices the picks follow the candidates' order


def test_rank_deconvolution_recovers_generator_degrees():
    ring = PolyRing(2)
    mod = FreeModule(ring, (0, 2, 2))
    dims = {d: mod.dim(d) for d in range(0, 12, 2)}
    assert rank_from_dims(dims, 2, 10) == LaurentPoly({0: 1, 2: 2})


def test_rank_deconvolution_rejects_non_free_tables():
    # dims of S/(alpha) in two variables: 1, 1, 1, ... is not graded free
    dims = {0: 1, 2: 1, 4: 1, 6: 1}
    with pytest.raises(NotGradedFreeError):
        rank_from_dims(dims, 2, 6)


def test_rank_deconvolution_flags_generators_at_the_cap():
    dims = {0: 1, 2: 1, 4: 2}
    with pytest.raises(CapError):
        rank_from_dims(dims, 1, 4)


def test_rank_deconvolution_refuses_a_negative_cap():
    with pytest.raises(CapError, match="leaves no degree"):
        rank_from_dims({0: 1, 2: 2}, 2, -2)


def test_graded_kernel_of_multiplication_into_a_quotient():
    ring = PolyRing(2)
    free = FreeModule(ring, (0,))
    q = QuotientModule(ring, (0,), (1, 1))
    qmap = ModuleMap(free, q, [{0: 1}])
    # kernel is alpha * S, free on one generator of degree 2
    dims = {d: len(kernel(qmap, d)) for d in range(0, 11, 2)}
    assert rank_from_dims(dims, 2, 10) == LaurentPoly({2: 1})


def test_module_map_validates_generator_images():
    ring = PolyRing(2)
    src = FreeModule(ring, (0, 2))
    tgt = FreeModule(ring, (0,))
    with pytest.raises(InputError):
        ModuleMap(src, tgt, [{0: 1}])  # one image missing
    with pytest.raises(InputError):
        ModuleMap(src, tgt, [{0: 1}, {2: 1}])  # degree-2 image has dimension 2
