"""Moment graphs on Bruhat intervals, their structure algebra and the
decomposition of modules over a single edge's algebra."""

import random

import pytest

from bmsheaves.coxeter import (
    _reflection_deviation,
    bruhat_interval,
    element_ball,
    make_system,
    multiply,
    parse_word,
    reflection_root,
    sort_key,
)
from bmsheaves.errors import CapError, InconsistencyError, InputError, RealizationError
from bmsheaves.gradedlin import FreeModule, PolyRing
from bmsheaves.momentgraph import (
    Edge,
    LocalSummand,
    MomentGraph,
    ZEModule,
    ZTuple,
    build_graph,
    c_invariant,
    check_deodhar,
    check_sanity,
    decompose_ze_module,
    sigma,
    split_invariant,
    summand_ze_module,
    to_dot,
    z_contains,
)
from bmsheaves.verify import (
    lift_edge_generator,
    random_ze_summands,
    scramble_ze_module,
    structure_sheaf,
)


def elt(system, text):
    return system.element(parse_word(text, system.rank))


# -- graph shapes ----------------------------------------------------------------


def test_full_dihedral_graphs_have_m_squared_edges(a2, b2, g2):
    for system, m in ((a2, 3), (b2, 4), (g2, 6)):
        w0 = system.element(tuple([0, 1] * m)[:m])
        graph = build_graph(system, w0)
        assert len(graph.vertices) == 2 * m
        assert len(graph.edges) == m * m
        assert graph.vertices[0] == system.identity
        assert graph.vertices[-1] == w0
        assert check_sanity(graph)
        assert check_deodhar(graph)


def test_proper_interval_is_a_square(a2):
    graph = build_graph(a2, elt(a2, "12"))
    assert len(graph.vertices) == 4
    assert len(graph.edges) == 4
    assert len(graph.up[a2.identity]) == 2
    assert len(graph.down[elt(a2, "12")]) == 2
    assert check_sanity(graph)


def test_quotient_graph_uses_minimal_coset_representatives(a2):
    w0 = elt(a2, "121")
    graph = build_graph(a2, w0, kind="quotient", s=0)
    assert graph.kind == "quotient"
    assert [str(w) for w in graph.vertices] == ["e", "2", "12"]
    assert graph.top == elt(a2, "12")
    assert len(graph.edges) == 3
    assert check_sanity(graph)
    with pytest.raises(InputError):
        check_deodhar(graph)  # the up-edge bound is stated for regular graphs


def test_sanity_rejects_tampered_graphs(a2):
    graph = build_graph(a2, elt(a2, "121"))

    def rebuilt(edges):
        return MomentGraph(a2, "regular", graph.top, graph.vertices, edges)

    flipped = Edge(
        graph.edges[0].upper,
        graph.edges[0].lower,
        graph.edges[0].reflection,
        graph.edges[0].label,
    )
    with pytest.raises(RealizationError):
        check_sanity(rebuilt((flipped,) + graph.edges[1:]))
    with pytest.raises(RealizationError):
        check_sanity(rebuilt(graph.edges + (graph.edges[0],)))
    e0, e1 = graph.edges[0], next(
        e for e in graph.edges if e.label.coords != graph.edges[0].label.coords
    )
    mislabeled = Edge(e0.lower, e0.upper, e0.reflection, e1.label)
    with pytest.raises(RealizationError):
        check_sanity(rebuilt((mislabeled,) + graph.edges[1:]))


def test_dot_export_is_deterministic(b2):
    w0 = elt(b2, "1212")
    first = to_dot(build_graph(b2, w0))
    second = to_dot(build_graph(b2, w0))
    assert first == second
    assert first.startswith("digraph momentgraph {\n")
    assert '"e" -> "1"' in first
    assert first.endswith("}\n")


# -- the structure algebra ---------------------------------------------------------


def test_sigma_tuples_satisfy_the_edge_congruences(a2, b2):
    for system in (a2, b2):
        w0 = system.element((0, 1, 0, 1)[: 3 if system is a2 else 4])
        graph = build_graph(system, w0)
        for alpha in ((1, 0), (0, 1), (2, -1)):
            assert z_contains(graph, sigma(graph, alpha))
        assert c_invariant(graph, 0) == sigma(graph, (1, 0))
        assert c_invariant(graph, 1) == sigma(graph, (0, 1))


# An entry is {degree: {position in PolyRing.monomials(degree): coeff}}.
ZERO = {}
ONE = {0: {0: 1}}
X0 = {2: {0: 1}}


def test_constant_and_nonmember_tuples(a1):
    graph = build_graph(a1, a1.generators[0])
    alpha, zero, one = X0, ZERO, ONE
    assert z_contains(graph, ZTuple(graph, [one, one]))
    assert z_contains(graph, ZTuple(graph, [alpha, zero]))
    assert not z_contains(graph, ZTuple(graph, [one, zero]))


def test_sigma_on_a_quotient_graph_requires_invariance(a2):
    graph = build_graph(a2, elt(a2, "121"), kind="quotient", s=0)
    assert z_contains(graph, sigma(graph, (1, 2)))  # fixed by the first generator
    with pytest.raises(InputError):
        sigma(graph, (1, 0))


def test_invariant_split_on_the_smallest_graph(a1):
    graph = build_graph(a1, a1.generators[0])
    z = ZTuple(graph, [X0, ZERO])
    plus, quot = split_invariant(graph, 0, z)
    assert plus == ZTuple(graph, [X0, X0])
    assert quot == ZTuple(graph, [ONE, ONE])
    assert plus + c_invariant(graph, 0) * quot == z * 2
    # tuples outside Z do not split
    with pytest.raises(InputError):
        split_invariant(graph, 0, ZTuple(graph, [ONE, ZERO]))


@pytest.mark.parametrize("s", [-1, 2])
def test_invariants_refuse_a_generator_index_out_of_range(a2, s):
    """s = -1 would read the last simple root and s = rank none."""
    graph = build_graph(a2, elt(a2, "121"))
    z = c_invariant(graph, 0)
    match = f"generator index {s} out of range"
    with pytest.raises(InputError, match=match):
        c_invariant(graph, s)
    with pytest.raises(InputError, match=match):
        split_invariant(graph, s, z)


@pytest.mark.parametrize(
    "coxeter, w0, size",
    [
        ([[1, 4], [4, 1]], "1212", 8),
        ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], "121321", 24),
        ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], "123123123", 48),
    ],
    ids=["B2", "A3", "B3"],
)
def test_invariant_split_roundtrip_on_longest_elements(coxeter, w0, size):
    """2z = z_plus + c^s z_quot for every s, with both parts in Z and
    every coefficient an int."""
    system = make_system(coxeter)
    n = system.rank
    graph = build_graph(system, elt(system, w0))
    assert len(graph.vertices) == size
    z = sigma(graph, (1, -1, 2)[:n]) * sigma(graph, (0, 1, 1)[:n])
    z = z + sigma(graph, (2, 1, -1)[:n])
    assert z_contains(graph, z)
    for s in range(n):
        plus, quot = split_invariant(graph, s, z)
        assert plus + c_invariant(graph, s) * quot == z * 2
        for part in (plus, quot):
            assert z_contains(graph, part)
            for entry in part.entries:
                assert all(type(a) is int for v in entry.values() for a in v.values())


def test_structure_algebra_on_the_longest_dihedral_elements(a2, b2, g2):
    """Seeded members of Z on the full A2, B2 and G2 graphs: sums of
    scaled sigma products, an edge-generator lift and a constant."""
    rng = random.Random(11)
    for system, m in ((a2, 3), (b2, 4), (g2, 6)):
        graph = build_graph(system, system.element(tuple([0, 1] * m)[:m]))
        stalk = FreeModule(PolyRing(2), (0,))
        space = structure_sheaf(graph).sections(graph.vertices, 2)
        for _ in range(4):
            a = (rng.randint(-3, 3), rng.randint(1, 3))
            b = (rng.randint(1, 3), rng.randint(-3, 3))
            # the draws of a member of Z with a half-integer coefficient at
            # sigma((1, 1)), doubled so that every coefficient is an int
            z = sigma(graph, a) * sigma(graph, b) * (2 * rng.randint(1, 3))
            z = z + sigma(graph, (1, 1)) * rng.randint(-3, 3)
            z = z + lift_edge_generator(graph, space, rng.choice(graph.edges)) * 2
            const = {0: {0: 2 * rng.randint(1, 3)}}
            z = z + ZTuple(graph, [const] * len(graph.vertices))
            assert z_contains(graph, z)
            for s in (0, 1):
                plus, quot = split_invariant(graph, s, z)
                assert plus + c_invariant(graph, s) * quot == z * 2
                assert z_contains(graph, plus) and z_contains(graph, quot)
            # a nonzero constant at one vertex leaves Z
            bump = [ZERO] * len(graph.vertices)
            bump[rng.randrange(len(bump))] = {0: {0: rng.choice((-2, -1, 1, 2))}}
            bad = z + ZTuple(graph, bump)
            assert not z_contains(graph, bad)
            for s in (0, 1):
                with pytest.raises(InputError):
                    split_invariant(graph, s, bad)
            # products are the per-vertex products of the linear forms
            prod = sigma(graph, a) * sigma(graph, b)
            for v in graph.vertices:
                wa = {k: c for k, c in enumerate(v.apply(a)) if c}
                want = stalk.mul_linear(wa, v.apply(b), 2)
                assert prod[v] == ({4: want} if want else ZERO)


# -- modules over one edge's algebra ------------------------------------------------


def test_canonical_summands_decompose_to_themselves():
    ring = PolyRing(2)
    alpha = (1, 1)
    summands = [
        LocalSummand("M_lower", 0),
        LocalSummand("M_upper", 2),
        LocalSummand("P", 0),
    ]
    zem = summand_ze_module(ring, alpha, summands)
    zem.check_square()
    got = decompose_ze_module(zem, 8)
    assert got == sorted(summands, key=lambda sm: (sm.kind, sm.shift))


def test_decomposition_refuses_a_negative_cap():
    zem = summand_ze_module(PolyRing(2), (1, 1), [LocalSummand("P", 0)])
    assert decompose_ze_module(zem, 4) == [LocalSummand("P", 0)]
    with pytest.raises(CapError, match="leaves no degree"):
        decompose_ze_module(zem, -2)


def test_single_upper_line_is_recognized():
    ring = PolyRing(2)
    zem = summand_ze_module(ring, (2, -1), [LocalSummand("M_upper", 0)])
    assert decompose_ze_module(zem, 6) == [LocalSummand("M_upper", 0)]


def test_decomposition_survives_a_change_of_presentation():
    ring = PolyRing(2)
    rng = random.Random(3)
    summands = [LocalSummand("P", 0), LocalSummand("M_lower", 2)]
    zem = summand_ze_module(ring, (1, -2), summands)
    scrambled = scramble_ze_module(zem, rng)
    scrambled.check_square()
    got = decompose_ze_module(scrambled, 6)
    assert got == sorted(summands, key=lambda sm: (sm.kind, sm.shift))


def _scaled(zem, k):
    """The module presented by k*alpha and k*xi."""
    images = [{r: k * a for r, a in img.items()} for img in zem.xi.images]
    return ZEModule(zem.module, tuple(k * a for a in zem.alpha), images)


@pytest.mark.parametrize("scale", [2, 3, 6])
def test_decomposition_is_unchanged_by_scaling_alpha_and_xi(scale):
    """(k xi)^2 = (k alpha)(k xi), with the same kernels and spans as
    alpha and xi: canonical and scrambled presentations, scaled by k,
    decompose into the summands they were built from."""
    ring = PolyRing(2)
    rng = random.Random(20 + scale)
    for _ in range(6):
        summands = random_ze_summands(rng)
        alpha = (rng.randint(1, 3), rng.randint(-3, 3))
        cap = max(sm.shift for sm in summands) + 6
        want = sorted(summands, key=lambda sm: (sm.kind, sm.shift))
        zem = summand_ze_module(ring, alpha, summands)
        for module in (zem, scramble_ze_module(zem, rng)):
            scaled = _scaled(module, scale)
            scaled.check_square()
            assert decompose_ze_module(module, cap - 2) == want
            assert decompose_ze_module(scaled, cap - 2) == want


def test_check_square_rejects_an_inconsistent_action():
    ring = PolyRing(1)
    free = FreeModule(ring, (0,))
    # xi(g) = 2 alpha g: xi^2 = 4 alpha^2 but alpha xi = 2 alpha^2
    zem = ZEModule(free, (1,), [free.mul_linear({0: 1}, (2,), 0)])
    with pytest.raises(InconsistencyError):
        zem.check_square()


# -- edges against forming every z y^-1 ---------------------------------------------


def _brute_force_edges(system, x, kind, s=None):
    """(lower, upper, reflection, label) of every edge, in build order, by
    forming t = z y^-1 for each pair and asking whether t - 1 has rank
    one (`_reflection_deviation`)."""
    if kind == "regular":
        vertices = bruhat_interval(x)
    else:
        gen = system.generators[s]
        upper = max(x, multiply(x, gen), key=lambda w: w.length)
        vertices = [
            w for w in bruhat_interval(upper) if multiply(w, gen).length > w.length
        ]
    out = []
    for i, y in enumerate(vertices):
        for z in vertices[i + 1 :]:
            if kind == "regular":
                if (z.length - y.length) % 2 == 0 or z.length <= y.length:
                    continue
                ends = (z,)
            else:
                ends = (z, multiply(z, gen))
            cands = []
            for zz in ends:
                t = multiply(zz, y.inverse())
                if t.length % 2 and _reflection_deviation(t) is not None:
                    cands.append(t)
            assert len(cands) <= 1
            if cands:
                out.append((y, z, cands[0], reflection_root(cands[0])))
    return out


def _coset_shape(system, x, s):
    """(vertices, top) of the quotient graph from the definition: the
    minimal representatives of the cosets of the elements below x, and
    the minimal representative of the coset of x."""
    gen = system.generators[s]

    def rep(w):
        return min(w, multiply(w, gen), key=lambda u: u.length)

    vertices = sorted({rep(w) for w in bruhat_interval(x)}, key=sort_key)
    return tuple(vertices), rep(x)


def test_edges_match_the_brute_force_pair_scan(step_system):
    for x in element_ball(step_system, 4):
        graphs = [("regular", None)]
        graphs += [("quotient", s) for s in range(step_system.rank)]
        for kind, s in graphs:
            graph = build_graph(step_system, x, kind=kind, s=s)
            got = [(e.lower, e.upper, e.reflection, e.label) for e in graph.edges]
            assert got == _brute_force_edges(step_system, x, kind, s), (x, kind, s)
            if kind == "regular":
                assert graph.vertices == bruhat_interval(x)
                assert (graph.top, graph.quotient_gen) == (x, None)
                # w has l(w) down-edges: the reflections t with tw < w
                for w in graph.vertices:
                    assert len(graph.down[w]) == w.length, (x, w)
            else:
                assert (graph.vertices, graph.top) == _coset_shape(step_system, x, s)
                assert graph.quotient_gen == s
