"""The canonical sheaf on a Bruhat moment graph: stalks, costalks,
characters, pair costalks, wall crossing and quotient lifts.

The singular rank-3 case (top word 2132) pins the first two-generator
stalk, where the character coefficients stop being pure powers.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from math import lcm

import pytest

from bmsheaves import bmsheaf
from bmsheaves.bmsheaf import (
    bm_construct,
    character,
    check_conjecture_72,
    check_flabby_additive,
    check_prop_71,
    costalk_interval,
    lifted_character,
    pair_ze_module,
    theta_character,
    translate_out,
)
from bmsheaves.coxeter import (
    bruhat_leq,
    element_ball,
    make_system,
    multiply,
    parse_word,
)
from bmsheaves.errors import (
    CapError,
    InconsistencyError,
    InputError,
    NotGradedFreeError,
)
from bmsheaves.gradedlin import (
    DirectSum,
    FreeModule,
    ModuleMap,
    PolyRing,
    combine_columns,
    minimal_generators,
    rank_from_dims,
)
from bmsheaves.hecke import HeckeAlgebra
from bmsheaves.laurent import LaurentPoly
from bmsheaves.linalg import Echelon, column_echelon, solve_in_span
from bmsheaves.momentgraph import LocalSummand, build_graph, decompose_ze_module


def elt(system, text):
    return system.element(parse_word(text, system.rank))


def v(exp, coeff=1):
    return LaurentPoly.v(exp, coeff)


@pytest.fixture(scope="module")
def a2_w0_sheaf(a2):
    return bm_construct(build_graph(a2, elt(a2, "121")))


@pytest.fixture(scope="module")
def a3_singular_sheaf(a3):
    return bm_construct(build_graph(a3, elt(a3, "2132")))


def test_point_sheaf_is_trivial(a2, a2_alg):
    bm = bm_construct(build_graph(a2, a2.identity))
    assert bm.stalks[a2.identity].gens == (0,)
    assert bm.costalk_ranks[a2.identity] == LaurentPoly.one()
    assert character(bm) == a2_alg.kl_basis(a2.identity)


def test_rank_one_sheaf_by_hand(a1):
    s = a1.generators[0]
    bm = bm_construct(build_graph(a1, s))
    assert bm.stalks[s].gens == (0,)
    assert bm.stalks[a1.identity].gens == (0,)
    assert bm.costalk_ranks[s] == LaurentPoly.one()
    assert bm.costalk_ranks[a1.identity] == v(2)
    ch = character(bm)
    alg = HeckeAlgebra(a1)
    assert ch == alg.kl_basis(s)
    assert ch.coeff(a1.identity) == v(1)


def test_full_a2_sheaf_has_free_rank_one_stalks(a2, a2_alg, a2_w0_sheaf):
    bm = a2_w0_sheaf
    w0 = elt(a2, "121")
    for y in bm.graph.vertices:
        assert bm.stalks[y].gens == (0,)
        assert bm.costalk_ranks[y] == v(2 * (3 - y.length))
    assert character(bm) == a2_alg.kl_basis(w0)


def test_full_b2_sheaf_character(b2, b2_alg):
    w0 = elt(b2, "1212")
    bm = bm_construct(build_graph(b2, w0))
    assert character(bm) == b2_alg.kl_basis(w0)
    assert all(bm.stalks[y].gens == (0,) for y in bm.graph.vertices)


def test_singular_a3_sheaf_grows_a_second_stalk_generator(a3, a3_alg, a3_singular_sheaf):
    bm = a3_singular_sheaf
    x = elt(a3, "2132")
    assert bm.stalks[a3.identity].gens == (0, 2)
    assert bm.stalks[elt(a3, "2")].gens == (0, 2)
    assert bm.stalks[elt(a3, "13")].gens == (0,)
    assert bm.costalk_ranks[a3.identity] == v(6) + v(8)
    assert bm.costalk_ranks[elt(a3, "2")] == v(4) + v(6)
    assert character(bm) == a3_alg.kl_basis(x)


def test_character_coefficients_are_costalk_ranks_shifted(a3, a3_singular_sheaf):
    bm = a3_singular_sheaf
    ch = character(bm)
    big_l = bm.top.length
    for y in bm.graph.vertices:
        assert ch.coeff(y) == bm.costalk_ranks[y].shift(y.length - big_l)


def test_costalk_positivity_and_pattern_report(a2_w0_sheaf, a3_singular_sheaf):
    for bm in (a2_w0_sheaf, a3_singular_sheaf):
        report = check_conjecture_72(bm)
        assert report  # every vertex below the top is covered
        for positive, pattern_free, f in report.values():
            assert positive and pattern_free
            assert f.is_v_times_polynomial()


def test_local_rank_identities_at_every_vertex(a2_w0_sheaf, a3_singular_sheaf):
    for bm in (a2_w0_sheaf, a3_singular_sheaf):
        for w in bm.graph.vertices:
            flags = check_prop_71(bm, w)
            assert flags == {"kernel_rank": True, "mirror": True}


def _prop_71_refuses(bm, w):
    """check_prop_71 denies the kernel rank at w, or refuses the costalk
    as not graded free."""
    try:
        return not check_prop_71(bm, w)["kernel_rank"]
    except NotGradedFreeError:
        return True


@pytest.mark.parametrize("name, word, nedges", [("a2", "121", 9), ("b2", "1212", 16)])
@pytest.mark.parametrize("side", ["rho_lower", "rho_upper"])
def test_local_rank_check_refuses_a_zeroed_restriction(
    request, name, word, nedges, side
):
    """Zeroing one restriction of one edge breaks (2) somewhere, for the
    check from the lemma and for the all-edge kernel solve alike."""
    system = request.getfixturevalue(name)
    bm = bm_construct(build_graph(system, elt(system, word)))
    graph = bm.graph
    assert len(graph.edges) == nedges
    maps = getattr(bm, side)
    for e in graph.edges:
        end = e.lower if side == "rho_lower" else e.upper
        kept = maps[e]
        zero = [{} for _ in bm.stalks[end].gens]
        maps[e] = ModuleMap(bm.stalks[end], bm.edge_mod[e], zero)
        try:
            for refuses in (_prop_71_refuses, _prop_71_by_local_kernel_refuses):
                assert any(refuses(bm, w) for w in graph.vertices), (refuses, e)
        finally:
            maps[e] = kept
    assert not any(_prop_71_refuses(bm, w) for w in graph.vertices)


def test_local_rank_check_refuses_a_non_canonical_quotient(a2_w0_sheaf):
    """A downward restriction with its images doubled is an isomorphism
    onto the same edge module, so the local kernel keeps its rank, but
    it is not the canonical quotient the lemma needs."""
    bm = a2_w0_sheaf
    for e in bm.graph.edges:
        kept = bm.rho_upper[e]
        doubled = [{t: 2 * a for t, a in img.items()} for img in kept.images]
        bm.rho_upper[e] = ModuleMap(kept.source, kept.target, doubled)
        try:
            assert not check_prop_71(bm, e.upper)["kernel_rank"], e
            assert check_prop_71(bm, e.lower)["kernel_rank"], e
        finally:
            bm.rho_upper[e] = kept
    assert all(check_prop_71(bm, w)["kernel_rank"] for w in bm.graph.vertices)


@pytest.mark.parametrize(
    "a, b, proportional",
    [
        ((1, 2, 0), (2, 4, 0), True),
        ((1, 2, 0), (-1, -2, 0), True),
        ((0, 2, 3), (0, 4, 6), True),
        ((1, 2, 0), (1, 2, 1), False),
        ((1, 0, 0), (0, 1, 0), False),
        ((2, 3), (3, 2), False),
    ],
)
def test_proportional_labels_are_told_apart_by_their_minors(a, b, proportional):
    assert bmsheaf._proportional(a, b) is proportional
    assert bmsheaf._proportional(b, a) is proportional


def test_sections_restrict_onto_smaller_upsets(a2_w0_sheaf):
    bm = a2_w0_sheaf
    for w in bm.graph.vertices:
        assert check_flabby_additive(bm, w)


def test_flabbiness_check_refuses_a_wrong_costalk_dimension(a2, a2_w0_sheaf):
    bm = a2_w0_sheaf
    w = elt(a2, "1")
    table = bm.costalk_dim_table[w]
    table[2] += 1
    try:
        assert not check_flabby_additive(bm, w)
    finally:
        table[2] -= 1
    assert check_flabby_additive(bm, w)


def test_flabbiness_check_refuses_a_wrong_section_dimension(a2, a2_w0_sheaf):
    bm = a2_w0_sheaf
    w = elt(a2, "1")
    log = bm.section_log[w]
    log[2] += 1
    try:
        assert not check_flabby_additive(bm, w)
    finally:
        log[2] -= 1
    assert check_flabby_additive(bm, w)


def test_flabbiness_check_refuses_a_zeroed_lower_restriction(a2):
    """A zeroed restriction on an edge above m, on a fresh sheaf each time,
    breaks the restriction Gamma({>= m}) -> Gamma({> m}).  The vertex-by-
    vertex reference sees that only at the w <= m, whose {>= w} holds m;
    the certificate covers every upper set, so it refuses at every vertex."""
    graph = build_graph(a2, elt(a2, "121"))
    for m in graph.vertices:
        if m == graph.top:
            continue  # no edge lies above the top
        bm = bm_construct(graph)
        e = graph.up[m][0]
        zero = [{} for _ in bm.stalks[m].gens]
        bm.rho_lower[e] = ModuleMap(bm.stalks[m], bm.edge_mod[e], zero)
        refused = {w for w in graph.vertices if not _flabby_by_vertex(bm, w)}
        assert refused == {w for w in graph.vertices if bruhat_leq(w, m)}, m
        assert not any(check_flabby_additive(bm, w) for w in graph.vertices), m


# -- the builder against global sections -----------------------------------------
#
# The builder and the pair costalks each solve only the part of a section
# system they read, and the flabbiness check only counts dimensions.  These
# tests rebuild the same answers from full section spaces (`Sheaf.sections`)
# or from per-vertex eliminations, and compare.


def _rank(vectors):
    ech = Echelon()
    for vec in vectors:
        ech.insert(vec)
    return ech.dim


def _same_span(a, b):
    return _rank(a) == _rank(b) == _rank(a + b)


def _project_to_edges(bm, w, ss, d):
    """rho_upper of every section of {> w} into the sum of the B^e at w."""
    out = []
    for vec in ss.vectors:
        image = {}
        o = 0
        for e in bm.graph.up[w]:
            lo, hi = ss.offsets[e.upper]
            comp = {i - lo: a for i, a in vec.items() if lo <= i < hi}
            image.update((o + t, a) for t, a in bm.rho_upper[e].apply(comp, d).items())
            o += bm.edge_mod[e].dim(d)
        out.append(image)
    return out


def _stalk_image(bm, w, d):
    """The image of the stalk at w in the sum of the B^e at w: the span of
    the builder's edge-image basis, of which the stalk is the cover."""
    out = [{} for _ in range(bm.stalks[w].dim(d))]
    o = 0
    for e in bm.graph.up[w]:
        for vec, col in zip(out, bm.rho_lower[e].columns(d)):
            vec.update((o + t, a) for t, a in col.items())
        o += bm.edge_mod[e].dim(d)
    return out


def _gluing_rows(sheaf, edges, d, offsets):
    """The gluing system of `edges` in degree d, derived row by row: per
    edge e, one row of rho_lower(x_lower) - rho_upper(x_upper) = 0 per
    coordinate of B^e, read from each restriction's own columns, over the
    columns where `offsets` starts each end's stalk.  An end that
    `offsets` leaves out is taken to be zero.  The reference for
    `Sheaf.gluing_map`."""
    rows = []
    for e in edges:
        block = [{} for _ in range(sheaf.edge_mod[e].dim(d))]
        for end, rho, sign in (
            (e.lower, sheaf.rho_lower, 1),
            (e.upper, sheaf.rho_upper, -1),
        ):
            o = offsets.get(end)
            if o is None:
                continue
            for j, col in enumerate(rho[e].columns(d), o):
                for r, a in col.items():
                    block[r][j] = sign * a
        rows += block
    ech = Echelon()
    ech.extend(rows)
    return ech


def _starts(sheaf, verts, d):
    """({vertex: start}, total) of the stalks of `verts` in degree d, one
    after the other in the given order."""
    offsets, n = {}, 0
    for z in verts:
        offsets[z] = n
        n += sheaf.stalks[z].dim(d)
    return offsets, n


def _pair_edges(graph, ys, y):
    """The edges inside {>= ys} with an end in the pair {ys, y}."""
    omega = {z for z in graph.vertices if bruhat_leq(ys, z)}
    return [
        e
        for e in graph.edges
        if {e.lower, e.upper} <= omega and {e.lower, e.upper} & {ys, y}
    ]


def _global_pair_costalk(bm, y, ys, d):
    """Sections over {>= ys} vanishing outside {ys, y}, as vectors on the pair."""
    graph = bm.graph
    omega = [z for z in graph.vertices if z == ys or bruhat_leq(ys, z)]
    ss = bm.sections(omega, d)
    outside = {
        r for z in omega if z not in (ys, y) for r in range(*ss.offsets[z])
    }
    parts = [{r: a for r, a in vec.items() if r in outside} for vec in ss.vectors]
    (lo, hi), (ulo, uhi) = ss.offsets[ys], ss.offsets[y]
    out = []
    nrows = max(hi for _, hi in ss.offsets.values())
    for coeffs in column_echelon(parts, nrows).kernel(len(ss.vectors)):
        total = combine_columns(coeffs, ss.vectors)
        # nothing outside the pair; ys precedes y, and its stalk comes first
        assert all(lo <= r < hi or ulo <= r < uhi for r in total)
        out.append({r - (lo if r < hi else ulo - hi + lo): a for r, a in total.items()})
    return out


_DIFFERENTIAL = {
    "A2:121": ("a2", "121", None),
    "B2:1212": ("b2", "1212", None),
    "G2:121212": ("g2", "121212", None),
    "A3:12321": ("a3", "12321", None),
    "A3:121321:quotient:s1": ("a3", "121321", 0),
}


@pytest.fixture(scope="module", params=sorted(_DIFFERENTIAL))
def differential_sheaf(request):
    name, word, s = _DIFFERENTIAL[request.param]
    system = request.getfixturevalue(name)
    x = elt(system, word)
    if s is None:
        return bm_construct(build_graph(system, x))
    return bm_construct(build_graph(system, x, kind="quotient", s=s))


def _up_closure(graph, w):
    """The vertices reached from w along one or more up-edges."""
    seen, stack = set(), [w]
    while stack:
        for e in graph.up[stack.pop()]:
            if e.upper not in seen:
                seen.add(e.upper)
                stack.append(e.upper)
    return seen


@pytest.mark.parametrize("key", sorted(_DIFFERENTIAL) + ["A3:121321"])
def test_the_upper_set_is_the_bruhat_order_and_the_up_edge_closure(key, request):
    """`MomentGraph.above(w)` lists the z > w in Bruhat order, in vertex
    order, and holds the same set as the transitive closure of the
    up-edges from w; the second call returns the memoized tuple."""
    name, word, s = _DIFFERENTIAL.get(key, ("a3", "121321", None))
    system = request.getfixturevalue(name)
    x = elt(system, word)
    if s is None:
        graph = build_graph(system, x)
    else:
        graph = build_graph(system, x, kind="quotient", s=s)
    for w in graph.vertices:
        above = graph.above(w)
        assert above == tuple(
            z for z in graph.vertices if z is not w and bruhat_leq(w, z)
        )
        assert set(above) == _up_closure(graph, w), w
        assert graph.above(w) is above


def test_builder_matches_the_global_sections_above_each_vertex(differential_sheaf):
    bm = differential_sheaf
    graph = bm.graph
    for w in graph.vertices:
        if w == bm.top:
            continue
        above = [z for z in graph.vertices if z != w and bruhat_leq(w, z)]
        for d in range(0, bm.caps[w] + 1, 2):
            ss = bm.sections(above, d)
            assert bm.section_log[w][d] == len(ss.vectors), (w, d)
            assert _same_span(_stalk_image(bm, w, d), _project_to_edges(bm, w, ss, d))
    bm.clear_caches()


def test_pair_costalks_match_the_global_construction(differential_sheaf):
    bm = differential_sheaf
    graph = bm.graph
    pairs = 0
    for y in graph.vertices:
        for s, gen in enumerate(graph.system.generators):
            ys = multiply(y, gen)
            if ys.length > y.length or ys not in graph:
                continue
            pairs += 1
            pc = costalk_interval(bm, y, s)
            assert sorted(pc.dims) == list(range(0, bm.caps[ys] + 1, 2))
            edges = _pair_edges(graph, ys, y)
            for d, (ech, _, width) in bmsheaf._pair_systems(bm, y, s)[2].items():
                offsets, n = _starts(bm, (ys, y), d)
                basis = _gluing_rows(bm, edges, d, offsets).kernel(n)
                ref = _global_pair_costalk(bm, y, ys, d)
                assert pc.dims[d] == width - ech.dim == len(basis) == len(ref)
                assert _same_span(basis, ref), (y, s, d)
    assert pairs
    bm.clear_caches()


def _upper_sets(graph):
    """Every upper set of the graph's Bruhat order, each a frozenset."""
    found = {frozenset()}
    stack = [frozenset()]
    while stack:
        upper = stack.pop()
        for w in graph.vertices:
            if w not in upper and upper.issuperset(graph.above(w)):
                grown = upper | {w}
                if grown not in found:
                    found.add(grown)
                    stack.append(grown)
    return found


def _assert_gluing_map_matches_the_rows(sheaf, verts, edges, degrees):
    """The gluing map's columns, eliminated by `column_echelon`, give the
    Echelon rows of the row-built system in every degree."""
    m = sheaf.gluing_map(verts, edges)
    for d in degrees:
        offsets, n = _starts(sheaf, verts, d)
        ref = _gluing_rows(sheaf, edges, d, offsets)
        assert m.source.dim(d) == n
        assert column_echelon(m.columns(d), m.target.dim(d)).rows == ref.rows


def test_gluing_map_matches_the_row_built_systems(differential_sheaf, monkeypatch):
    """`Sheaf.gluing_map` against `_gluing_rows`: the sections over every
    nonempty upper set up to the least cap in it, the costalk at every
    vertex up to the largest cap and every pair system.  The pair sweeps'
    kernel vectors at their kept columns are those of the row-built
    system there (step 3 of the `bmsheaf` docstring)."""
    bm = differential_sheaf
    graph = bm.graph
    for upper in _upper_sets(graph) - {frozenset()}:
        verts = sorted(upper, key=graph.index)
        inner = [e for e in graph.edges if {e.lower, e.upper} <= upper]
        cap = min(bm.caps[z] for z in upper)
        _assert_gluing_map_matches_the_rows(bm, verts, inner, range(0, cap + 1, 2))
    degrees = range(0, max(bm.caps.values()) + 1, 2)
    for w in graph.vertices:
        _assert_gluing_map_matches_the_rows(bm, [w], graph.up[w], degrees)
    calls = []
    gluing_map = bm.gluing_map

    def record(verts, edges):
        calls.append((verts, edges))
        return gluing_map(verts, edges)

    monkeypatch.setattr(bm, "gluing_map", record)
    for y in graph.vertices:
        for s, gen in enumerate(graph.system.generators):
            ys = multiply(y, gen)
            if ys.length > y.length or ys not in graph:
                continue
            del calls[:]
            systems = bmsheaf._pair_systems(bm, y, s)[2]
            [(verts, edges)] = calls
            assert verts == [ys, y]
            assert edges == _pair_edges(graph, ys, y)
            _assert_gluing_map_matches_the_rows(bm, verts, edges, systems)
            for d, (ech, positions, width) in systems.items():
                offsets, n = _starts(bm, verts, d)
                ref = _gluing_rows(bm, edges, d, offsets)
                assert width == n and width - ech.dim == n - ref.dim
                full = {max(vec): vec for vec in ref.kernel(n)}
                for vec in ech.kernel(len(positions)):
                    kept = {positions[i]: a for i, a in vec.items()}
                    assert kept == full[max(kept)], (y, s, d)
    assert calls


def test_local_costalk_solve_matches_the_builder(differential_sheaf):
    """The kernel of the upward restrictions, solved from the stored maps
    in every degree up to the cap, has the dimensions the builder found."""
    bm = differential_sheaf
    for w in bm.graph.vertices:
        degrees = range(0, bm.caps[w] + 1, 2)
        assert bm.costalk_dims(w, degrees) == bm.costalk_dim_table[w], w


def _costalk_dims_by_all_columns(sheaf, w, degrees):
    """The all-column costalk solve: per degree, the gluing rows of the
    upward edges at w over every stalk column, and the stalk's dimension
    less their rank."""
    up = sheaf.graph.up[w]
    return {
        d: sheaf.stalks[w].dim(d) - _gluing_rows(sheaf, up, d, {w: 0}).dim
        for d in degrees
    }


def _assert_costalks_match_the_all_column_solve(sheaf):
    degrees = range(0, max(sheaf.caps.values()) + 1, 2)
    for w in sheaf.graph.vertices:
        want = _costalk_dims_by_all_columns(sheaf, w, degrees)
        assert sheaf.costalk_dims(w, degrees) == want, w


def test_costalks_without_settled_columns_match_the_all_column_solve(
    differential_sheaf,
):
    """At every vertex and in every even degree up to the largest cap,
    where most columns are dropped, the costalk dimension of the sweep
    is the one over every column."""
    _assert_costalks_match_the_all_column_solve(differential_sheaf)


def test_lifted_costalks_match_the_all_column_solve(a3):
    """The same on the lift of the A3 121321 sheaf on its quotient graph
    by s2, whose edges share restriction maps between cosets."""
    x = elt(a3, "121321")
    quotient = build_graph(a3, x, kind="quotient", s=1)
    _assert_costalks_match_the_all_column_solve(
        translate_out(bm_construct(quotient), build_graph(a3, x))
    )


def _all_edge_kernel_dims(bm, w, degrees):
    """Kernel dims of stalk_w -> sum of B^E over all edges at w, one
    elimination per degree: the solve that `check_prop_71` replaces by
    the costalk."""
    edges = bm.graph.up[w] + bm.graph.down[w]
    return {
        d: bm.stalks[w].dim(d) - _gluing_rows(bm, edges, d, {w: 0}).dim
        for d in degrees
    }


def _prop_71_by_local_kernel_refuses(bm, w):
    """Prop 7.1(2) by brute force: the all-edge kernel, solved up to the
    bottom vertex's cap, is not graded free of rank v^(2 #down-edges) q_w."""
    cap = 2 * bm.top.length + bmsheaf.DEFAULT_MARGIN
    dims = _all_edge_kernel_dims(bm, w, range(0, cap + 1, 2))
    want = bm.costalk_ranks[w].shift(2 * len(bm.graph.down[w]))
    try:
        return rank_from_dims(dims, bm.ring.nvars, cap) != want
    except NotGradedFreeError:
        return True


def test_local_kernel_is_the_costalk_shifted(differential_sheaf):
    """In every even degree up to the bottom vertex's cap, the all-edge
    kernel at w has the costalk's dimension 2 #down-edges lower, and the
    brute-force verdict agrees with the check from the lemma."""
    bm = differential_sheaf
    cap = 2 * bm.top.length + bmsheaf.DEFAULT_MARGIN
    for w in bm.graph.vertices:
        shift = 2 * len(bm.graph.down[w])
        kernel = _all_edge_kernel_dims(bm, w, range(0, cap + 1, 2))
        costalk = bm.costalk_dims(w, range(0, cap - shift + 1, 2))
        assert kernel == {d: costalk.get(d - shift, 0) for d in kernel}, w
        assert not _prop_71_by_local_kernel_refuses(bm, w), w
        assert check_prop_71(bm, w)["kernel_rank"], w


def _flabby_by_vertex(bm, w):
    """The flabbiness check vertex by vertex: per degree, eliminate the
    gluing rows inside {> w}, then those of the edges at w, with w's
    columns first, and compare dim Gamma({> w}), dim Gamma({>= w}) and
    the rank of the restriction between them with the builder's tables."""
    graph = bm.graph
    above = [z for z in reversed(graph.vertices) if z != w and bruhat_leq(w, z)]
    inside = set(above)
    inner = [e for e in graph.edges if e.lower in inside and e.upper in inside]
    costalk = bm.costalk_dim_table[w]
    logged = bm.section_log.get(w, {})
    for d in range(0, bm.caps[w] + 1, 2):
        start = bm.stalks[w].dim(d)
        offsets = {w: 0}
        n = start
        for z in above:
            offsets[z] = n
            n += bm.stalks[z].dim(d)
        dim_gt = n - start - _gluing_rows(bm, inner, d, offsets).dim
        if dim_gt != logged.get(d, 0):
            return False
        # pivots depend only on the row space, not on the insertion order
        ech = _gluing_rows(bm, inner + list(graph.up[w]), d, offsets)
        if n - ech.dim != dim_gt + costalk.get(d, 0):
            return False
        # a stored row's pivot is its smallest column, so the rows with a
        # pivot past w's columns span the relations on {> w} alone, and
        # the restricted sections are their kernel
        if n - start - sum(p >= start for p in ech.rows) != dim_gt:
            return False
    return True


def test_flabbiness_certificate_matches_the_vertex_by_vertex_check(differential_sheaf):
    bm = differential_sheaf
    for w in bm.graph.vertices:
        assert check_flabby_additive(bm, w), w
        assert _flabby_by_vertex(bm, w), w


def _wrong_costalk_dimension(bm, w):
    bm.costalk_dim_table[w][2] += 1


def _wrong_section_dimension(bm, w):
    bm.section_log[w][2] += 1


@pytest.mark.parametrize("mutate", [_wrong_costalk_dimension, _wrong_section_dimension])
def test_flabbiness_certificate_matches_the_vertex_by_vertex_check_on_a_wrong_table(
    a2, mutate
):
    """A wrong table entry at one vertex m, on a fresh sheaf each time:
    the two checks agree at every vertex and both refuse m."""
    graph = build_graph(a2, elt(a2, "121"))
    for m in graph.vertices:
        if m == graph.top and mutate is _wrong_section_dimension:
            continue  # nothing lies above the top, so it has no section_log entry
        bm = bm_construct(graph)
        mutate(bm, m)
        verdicts = {w: check_flabby_additive(bm, w) for w in graph.vertices}
        assert verdicts == {w: _flabby_by_vertex(bm, w) for w in graph.vertices}, m
        assert not verdicts[m], m


def test_flabbiness_certificate_is_built_once_and_freed_with_the_sheaf(
    a2, monkeypatch
):
    graph = build_graph(a2, elt(a2, "121"))
    bm = bm_construct(graph)
    solved = []
    costalk_dims = bmsheaf.Sheaf.costalk_dims

    def counting_costalk_dims(self, w, degrees):
        solved.append(w)
        return costalk_dims(self, w, degrees)

    monkeypatch.setattr(bmsheaf.Sheaf, "costalk_dims", counting_costalk_dims)
    for _ in range(2):
        for w in graph.vertices:
            assert check_flabby_additive(bm, w)
    assert len(solved) == len(set(solved)) == len(graph.vertices)
    # the sheaf holds the certificate and the builder's witness; both go with it
    ref = weakref.ref(bm)
    del bm
    gc.collect()
    assert ref() is None


def test_flabbiness_checks_hold_little_memory_beyond_the_sheaf(a3):
    """After the flabbiness check at all 24 vertices of A3 121321, the
    longest element, tracemalloc holds at most 1 MiB above the built
    sheaf: the certificate's tables and the column memos its witness
    glue check fills.  Measured: 0.74 MiB with Python 3.11, against
    2.7 MiB when every costalk solve filled the restriction maps' column
    memos up to the largest cap."""
    tracemalloc.start()
    try:
        bm = bm_construct(build_graph(a3, elt(a3, "121321")))
        gc.collect()
        built, _ = tracemalloc.get_traced_memory()
        assert all(check_flabby_additive(bm, w) for w in bm.graph.vertices)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bm.graph.vertices) == 24
    assert held - built <= 2**20, (held - built) / 2**20


# Builds the regular and every quotient sheaf of A3 121321 on a system of
# its own and drops them; run in a fresh interpreter, where no fixture
# holds the A3 system.  The first round is a warm-up.
_RING_LIFETIME = """
import gc, json, tracemalloc, weakref
from bmsheaves.bmsheaf import bm_construct
from bmsheaves.coxeter import make_system, parse_word
from bmsheaves.momentgraph import build_graph

def build():
    system = make_system([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    x = system.element(parse_word("121321", 3))
    graphs = [build_graph(system, x)]
    graphs += [build_graph(system, x, kind="quotient", s=s) for s in range(3)]
    assert all(bm_construct(g).ring is system.ring for g in graphs)
    return weakref.ref(system.ring)

first = build()
gc.collect()
tracemalloc.start()
second = build()
gc.collect()
held = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(json.dumps([first() is None, second() is None, held]))
"""


def test_one_ring_per_system_lives_as_long_as_the_system(a3, b2):
    """The regular graph and every quotient graph of a system build over
    `system.ring`; a DirectSum over the rings of two systems of one rank
    is refused; and once the sheaves, graphs and system of A3 121321 are
    dropped, the ring is gone and tracemalloc holds at most 16 KiB."""
    x = elt(a3, "121321")
    graphs = [build_graph(a3, x)]
    graphs += [build_graph(a3, x, kind="quotient", s=s) for s in range(3)]
    assert all(g.stalk.ring is a3.ring for g in graphs)
    other = make_system([[1, 4], [4, 1]], [[2, -2], [-1, 2]])
    assert other is not b2 and other.ring is not b2.ring
    parts = [FreeModule(b2.ring, (0,)), FreeModule(other.ring, (0,))]
    with pytest.raises(InputError):
        DirectSum(b2.ring, parts)
    assert PolyRing.__eq__ is object.__eq__
    assert PolyRing.__hash__ is object.__hash__
    src = os.path.dirname(os.path.dirname(bmsheaf.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _RING_LIFETIME],
        env=env, capture_output=True, text=True, check=True,
    )
    first_gone, second_gone, held = json.loads(out.stdout)
    assert first_gone and second_gone
    assert held <= 16 * 1024, held


def _onto_by_global_elimination(bm):
    """{d: onto} by one elimination of all the gluing rows per degree:
    dim Gamma(V)_d, columns longest vertex first, against the sum of the
    local costalk dimensions."""
    graph = bm.graph
    degrees = range(0, max(bm.caps.values()) + 1, 2)
    costalks = [bm.costalk_dims(z, degrees) for z in graph.vertices]
    onto = {}
    for d in degrees:
        offsets, n = _starts(bm, reversed(graph.vertices), d)
        glued = n - _gluing_rows(bm, graph.edges, d, offsets).dim
        onto[d] = glued == sum(c[d] for c in costalks)
    return onto


def test_witness_certificate_matches_the_global_elimination(differential_sheaf):
    bm = differential_sheaf
    onto, _ = bmsheaf._flabby_certificate(bm)
    assert onto == _onto_by_global_elimination(bm)
    assert all(onto.values())


@pytest.fixture
def a3_witnessed_sheaf(a3):
    bm = bm_construct(build_graph(a3, elt(a3, "12321")))
    assert len(bm._witness) == 24
    return bm


def _recertify(bm):
    bm._flabby = None
    return bmsheaf._flabby_certificate(bm)[0]


def test_flabbiness_witness_refuses_a_dropped_generator(a3_witnessed_sheaf):
    """Without one minimal generator, the generators born at its vertex
    span less than the costalk there in its degree."""
    bm = a3_witnessed_sheaf
    witness = bm._witness
    for i, (g, _) in enumerate(witness):
        bm._witness = witness[:i] + witness[i + 1 :]
        assert not _recertify(bm)[g], i
        assert not all(check_flabby_additive(bm, w) for w in bm.graph.vertices), i
    bm._witness = witness
    assert all(_recertify(bm).values())


def test_flabbiness_witness_refuses_a_doubled_component(a3_witnessed_sheaf):
    """A generator with one component off its birth vertex (the longest
    of its support) doubled no longer glues, so no degree is certified
    and every vertex refuses."""
    bm = a3_witnessed_sheaf
    cases = 0
    for g, comps in bm._witness:
        below = sorted(comps, key=bm.graph.index)[:-1]
        if not below:
            continue
        z = below[-1]
        vec = comps[z]
        comps[z] = {i: 2 * a for i, a in vec.items()}
        assert not any(_recertify(bm).values()), (g, z)
        assert not any(check_flabby_additive(bm, w) for w in bm.graph.vertices)
        comps[z] = vec
        cases += 1
    assert cases == 22
    assert all(_recertify(bm).values())


# -- pair costalks and wall crossing -------------------------------------------


def test_pair_costalk_of_the_rank_one_sheaf(a1):
    bm = bm_construct(build_graph(a1, a1.generators[0]))
    pc = costalk_interval(bm, a1.generators[0], 0)
    assert pc.lower == a1.identity
    assert pc.rank == LaurentPoly.one() + v(2)
    zem = pair_ze_module(bm, a1.generators[0], 0)
    cap = bm.caps[a1.identity] - 2
    assert decompose_ze_module(zem, cap) == [LocalSummand("P", 0)]


def test_pair_costalk_inside_the_full_a2_sheaf(a2, a2_w0_sheaf):
    bm = a2_w0_sheaf
    y = elt(a2, "12")
    pc = costalk_interval(bm, y, 1)
    assert (str(pc.lower), str(pc.upper)) == ("1", "12")
    assert pc.rank == v(2) + v(4)
    zem = pair_ze_module(bm, y, 1)
    assert zem.module.gens == (2, 4)
    cap = bm.caps[pc.lower] - 2
    assert decompose_ze_module(zem, cap) == [LocalSummand("P", 2)]


def _a2_pair_decompositions(a2):
    """The label and summands of every pair module (ws < w) over all of
    A2, each module checked for xi^2 = alpha xi first."""
    out = {}
    for x in element_ball(a2, 3):
        bm = bm_construct(build_graph(a2, x))
        for s, gen in enumerate(a2.generators):
            for w in bm.graph.vertices:
                ws = multiply(w, gen)
                if ws in bm.graph and ws.length < w.length:
                    zem = pair_ze_module(bm, w, s)
                    zem.check_square()
                    summands = decompose_ze_module(zem, bm.caps[ws] - 2)
                    out[x, s, w] = zem.alpha, summands
    return out


def test_pair_modules_with_scaled_labels_decompose_the_same(a2, monkeypatch):
    """Every solve of xi's generator images has denominator 1 on real
    data, so the path that presents the module by D*alpha and D*xi is
    forced here: the solves return (k coeffs, k den) with k cycling
    through 1, 2, 3, so the images of one module carry different
    denominators."""
    plain = _a2_pair_decompositions(a2)
    solve = bmsheaf.solve_in_span
    calls = []

    def inflated(columns, target):
        sol = solve(columns, target)
        if sol is None:
            return None
        k = 1 + len(calls) % 3
        calls.append(k)
        coeffs, den = sol
        return {j: k * c for j, c in coeffs.items()}, k * den

    monkeypatch.setattr(bmsheaf, "solve_in_span", inflated)
    scaled = _a2_pair_decompositions(a2)
    assert scaled.keys() == plain.keys() and len(plain) >= 10
    rescaled = 0
    for key, (alpha, summands) in plain.items():
        i = next(i for i, a in enumerate(alpha) if a)
        big = scaled[key][0][i] // alpha[i]
        assert scaled[key] == (tuple(big * a for a in alpha), summands), key
        rescaled += big > 1
    assert rescaled >= len(plain) // 2


def _xi_columns_by_column(bm, y, s):
    """Reference for xi on the pair module of (ys, y): one exact solve per
    basis column of the costalk's embedding in every degree d <= cap - 2,
    all scaled by the least common denominator of the solves.  The
    costalk's generators are picked from its kernel over every column."""
    ys = multiply(y, bm.graph.system.generators[s])
    cap = bm.caps[ys]
    alpha = next(e for e in bm.graph.up[ys] if e.upper == y).label.coords
    ambient = DirectSum(bm.ring, [bm.stalks[ys], bm.stalks[y]])
    edges = _pair_edges(bm.graph, ys, y)
    bases = {}
    for d in range(0, cap + 1, 2):
        offsets, n = _starts(bm, (ys, y), d)
        bases[d] = _gluing_rows(bm, edges, d, offsets).kernel(n)
    gens = minimal_generators(bases, ambient, cap)
    free = FreeModule(bm.ring, tuple(d for d, _ in gens))
    emb = ModuleMap(free, ambient, [vec for _, vec in gens])
    sols = {}
    for d in range(0, cap - 1, 2):
        sols[d] = []
        for col in emb.columns(d):
            low = ambient.component(col, 0, d)
            target = bm.stalks[ys].mul_linear(low, alpha, d)
            sols[d].append(solve_in_span(emb.columns(d + 2), target))
    big = lcm(*(den for col_sols in sols.values() for _, den in col_sols))
    return {
        d: [{j: c * (big // den) for j, c in sol.items()} for sol, den in col_sols]
        for d, col_sols in sols.items()
    }


def test_xi_from_generator_images_matches_the_per_column_solves(a2, a3):
    """xi, built from one solve per generator, has the columns of one
    solve per basis column in every degree, on every pair module of A2
    and of A3 121321."""
    sheaves = [bm_construct(build_graph(a2, x)) for x in element_ball(a2, 3)]
    sheaves.append(bm_construct(build_graph(a3, elt(a3, "121321"))))
    modules = 0
    for bm in sheaves:
        system = bm.graph.system
        for s, gen in enumerate(system.generators):
            for w in bm.graph.vertices:
                ws = multiply(w, gen)
                if ws in bm.graph and ws.length < w.length:
                    zem = pair_ze_module(bm, w, s)
                    ref = _xi_columns_by_column(bm, w, s)
                    assert ref, (w, s)
                    for d, cols in ref.items():
                        assert zem.xi.columns(d + 2) == cols, (w, s, d)
                    modules += 1
    assert modules >= 40


def test_pair_module_refuses_a_redundant_generator(a2, a2_w0_sheaf, monkeypatch):
    """xi's generator images present the costalk only when the free module
    on its minimal generators has the costalk's dimensions."""
    found = bmsheaf.minimal_generators

    def padded(candidates, ambient, cap):
        gens = found(candidates, ambient, cap)
        d, vec = gens[0]
        return gens + [(d + 2, ambient.mul_var(vec, 0, d))]

    monkeypatch.setattr(bmsheaf, "minimal_generators", padded)
    with pytest.raises(InconsistencyError, match="not free"):
        pair_ze_module(a2_w0_sheaf, elt(a2, "12"), 1)


def test_pair_costalk_requires_a_descent(a2, a2_w0_sheaf):
    with pytest.raises(InputError):
        costalk_interval(a2_w0_sheaf, elt(a2, "12"), 0)


@pytest.mark.parametrize("s", [-1, 2])
@pytest.mark.parametrize(
    "call",
    [
        lambda bm, x, s: theta_character(bm, s),
        lambda bm, x, s: costalk_interval(bm, x, s),
        lambda bm, x, s: pair_ze_module(bm, x, s),
    ],
    ids=["theta_character", "costalk_interval", "pair_ze_module"],
)
def test_wall_crossing_refuses_a_generator_index_out_of_range(
    a2, a2_w0_sheaf, call, s
):
    """s = -1 would read the last generator and s = rank none; both are
    refused before any costalk is solved."""
    with pytest.raises(InputError, match=f"generator index {s} out of range"):
        call(a2_w0_sheaf, elt(a2, "121"), s)


def test_wall_crossing_matches_multiplication_by_the_generator(a2, a2_alg):
    s1 = a2.generators[0]
    bm = bm_construct(build_graph(a2, s1))
    c_s1 = a2_alg.kl_basis(s1)
    # crossing the same wall doubles: theta = (v + v^-1) * the character
    assert theta_character(bm, 0) == c_s1.scale(v(1) + v(-1))
    # crossing the other wall climbs: theta = C_1 * C_2 = C_12
    assert theta_character(bm, 1) == a2_alg.kl_basis(elt(a2, "12"))


def test_wall_crossing_the_longest_element(a2, a2_alg, a2_w0_sheaf):
    ch = character(a2_w0_sheaf)
    for s in (0, 1):
        theta = theta_character(a2_w0_sheaf, s)
        product = a2_alg.mult(ch, a2_alg.kl_basis(a2.generators[s]))
        assert theta == product == ch.scale(v(1) + v(-1))


# -- quotient lifts --------------------------------------------------------------


def test_lift_from_the_quotient_graph_is_the_full_sheaf(a2, a2_alg):
    w0 = elt(a2, "121")
    regular = build_graph(a2, w0)
    for s in (0, 1):
        quotient = build_graph(a2, w0, kind="quotient", s=s)
        nbm = bm_construct(quotient)
        lifted = translate_out(nbm, regular)
        ch = lifted_character(lifted, quotient.top.length)
        assert ch == a2_alg.kl_basis(w0)
        # coset-wise copied stalks are shared objects
        for w in regular.vertices:
            ws = w.system.element(w.word + (s,))
            wbar = w if ws.length > w.length else ws
            assert lifted.stalks[w] is nbm.stalks[wbar]


def test_lift_refuses_mismatched_graph_kinds(a2, a2_w0_sheaf):
    regular = build_graph(a2, elt(a2, "121"))
    with pytest.raises(InputError):
        translate_out(a2_w0_sheaf, regular)


# -- degree caps ------------------------------------------------------------------


def test_too_small_cap_override_is_refused(a2):
    graph = build_graph(a2, elt(a2, "121"))
    with pytest.raises(CapError):
        bm_construct(graph, cap_override=2)


@pytest.mark.parametrize("cap", [-2, 2, 4, 8])
def test_inconclusive_cap_overrides_are_refused(a3_singular_sheaf, cap):
    with pytest.raises(CapError):
        bm_construct(a3_singular_sheaf.graph, cap_override=cap)


@pytest.mark.parametrize("cap", [12, 14])
def test_larger_cap_overrides_keep_the_default_sheaf(a3_singular_sheaf, cap):
    default = a3_singular_sheaf
    bm = bm_construct(default.graph, cap_override=cap)
    assert all(c == cap for c in bm.caps.values())
    for y in default.graph.vertices:
        assert bm.stalks[y].gens == default.stalks[y].gens, y
        assert bm.costalk_ranks[y] == default.costalk_ranks[y], y


# -- refusals ---------------------------------------------------------------------


def test_default_caps_scale_with_the_corank(a2_w0_sheaf):
    bm = a2_w0_sheaf
    big_l = bm.top.length
    for w in bm.graph.vertices:
        assert bm.caps[w] == 2 * (big_l - w.length) + 4


# -- integral gluing systems and the rank-2 Cartan table --------------------------

# (Coxeter matrix, Cartan matrix or None for the default realization, word);
# each has labels whose pivot (first nonzero) coefficient is not +-1
INTEGRAL_CASES = {
    "G2:121212": ([[1, 6], [6, 1]], None, "121212"),
    "affA2:12312": ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], None, "12312"),
    "U2n:121212": ([[1, 0], [0, 1]], [[2, -3], [-2, 2]], "121212"),
}


def _all_ints(vec):
    return all(type(a) is int for a in vec.values())


@pytest.mark.parametrize("name", sorted(INTEGRAL_CASES))
def test_gluing_systems_are_integral(name):
    """The scaled S/alpha basis keeps every variable column of the ring,
    every restriction column up to the cap and every rho_lower image an
    int, whatever the labels' pivot coefficients."""
    coxeter, cartan, word = INTEGRAL_CASES[name]
    system = make_system(coxeter, cartan)
    bm = bm_construct(build_graph(system, elt(system, word)))
    pivots = {abs(next(a for a in e.label.coords if a)) for e in bm.graph.edges}
    assert max(pivots) > 1
    for e in bm.graph.edges:
        assert all(_all_ints(img) for img in bm.rho_lower[e].images), e
        for d in range(0, bm.caps[e.lower] + 1, 2):
            for rho in (bm.rho_lower[e], bm.rho_upper[e]):
                assert all(_all_ints(col) for col in rho.columns(d)), (e, d)
    assert bm.ring._varcols
    for key, cols in bm.ring._varcols.items():
        assert all(_all_ints(col) for col in cols), key


# every admissible rank-2 Cartan pair (a_st, a_ts) by bond order (0 is infinity)
RANK2_CARTAN = {
    2: [(0, 0)],
    3: [(-1, -1)],
    4: [(-1, -2), (-2, -1)],
    6: [(-1, -3), (-3, -1)],
    0: [(-1, -4), (-4, -1), (-2, -2), (-1, -5), (-5, -1), (-2, -3), (-3, -2)],
}


@pytest.mark.parametrize(
    "m, a, b",
    [
        pytest.param(m, a, b, id=f"m{m}:{a},{b}")
        for m, pairs in RANK2_CARTAN.items()
        for a, b in pairs
    ],
)
def test_rank_two_cartan_table(m, a, b):
    """Every element of length <= 6 of every admissible rank-2 system:
    the sheaf character equals both self-dual basis routes, and the
    flabbiness, local rank and positivity checks hold at every vertex."""
    system = make_system([[1, m], [m, 1]], [[2, a], [b, 2]])
    alg = HeckeAlgebra(system)
    elements = element_ball(system, 6)
    assert len(elements) == (2 * m if m else 13)
    for x in elements:
        bm = bm_construct(build_graph(system, x))
        assert character(bm) == alg.kl_basis(x) == alg.kl_oracle(x), x
        for w in bm.graph.vertices:
            assert check_flabby_additive(bm, w), (x, w)
            assert check_prop_71(bm, w) == {"kernel_rank": True, "mirror": True}
        for positive, pattern_free, _ in check_conjecture_72(bm).values():
            assert positive and pattern_free, x
