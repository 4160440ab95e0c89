"""Sheaves on moment graphs and the canonical indecomposable construction.

A sheaf here assigns a graded free S-module to every vertex (the stalk),
the quotient B^E = B^upper / alpha B^upper to every edge, and restriction
maps from both endpoint stalks into B^E.  The edge module is a function
of the upper stalk's generator degrees and the label,
`Sheaf.edge_module`: the one quotient that the ring keeps per
(generator degrees, label) through `gradedlin.quotient_map`, shared by
every edge of every sheaf on the system with both.  The upper
restriction is the canonical quotient, which the edge module holds as
its `projection`, and the lower one is stored as rho_lower.
Sections over a vertex subset are tuples of stalk elements agreeing in
B^E along every internal edge: the kernel of the S-linear map rho_lower
- projection from the stalks there into the edge modules,
`Sheaf.gluing_map`.  The sections, the costalk at a vertex
and the pair costalks behind wall crossing are all kernels of that one
map, over different vertices and edges.

The canonical sheaf on an interval graph is built top down: the top
stalk is one copy of S; at each lower vertex y the stalk is the
projective cover of the image of the sections over {> y} in the direct
sum of the edge modules at y, i.e. the free module on the minimal
generators of that image, with the cover components as the downward
restrictions.  The sections are never solved for globally.  The builder
carries generators of the sections over the vertices already processed:
by construction the sheaf is flabby on upper sets, so each new vertex
extends every section, with its costalk as the kernel.  At y one
elimination per degree, with a row per coordinate of the edge modules
at y, does all the work.  Its columns are the images of the monomial
multiples of the stalk generators found so far, then the images of the
section generators of that degree.  The section columns that hold a
pivot are the new stalk generators; the kernel at the free stalk
columns is the costalk, and the kernel at the free section columns
lifts those generators to y.  The costalk's minimal generators join the
list.  Each downward restriction sends a stalk generator to its
component on that edge, and its columns are derived on read, as for
any map.  The costalk at a vertex (sections supported only there) is
the kernel of the gluing map of its upward edges; in the canonical case
its graded rank is finite over the cap and deconvolves exactly.  A pair
costalk is the kernel of the gluing map of the pair's edges inside the
upper set it spans.  The flabbiness check certifies the whole sheaf
once from the builder's sections, verified against the stored stalks
and maps: every generator glues on its edges, and at each vertex the
generators born there span the locally solved costalk.  A failed
witness refuses; nothing solves the sections again.

The builder, `Sheaf.costalk_dims` and the pair costalks solve the kernel
of an S-linear map out of free stalks, degree by degree, and none of
them eliminates a column that the kernel one degree down has settled
(`gradedlin.KernelSweep`); `Sheaf.sections` eliminates every column.
The builder (`_solve_vertex`) and `pair_ze_module` read kernel vectors
and build each degree's column system (`KernelSweep.step`).
`Sheaf.costalk_dims`, behind prop 7.1, the flabbiness certificate and
`lifted_character`, and `costalk_interval`, behind the wall-crossing
character, read only dimensions, and take ranks (`KernelSweep.rank`).
So do the certificate's covers, and `minimal_generators` reads which
candidates are new from a sweep's span (`KernelSweep.span`).
This is the leading-term criterion of the Macaulay-matrix Groebner
methods (Faugere's F4).  A column is dropped when it is x_k mu for a
free column mu of the degree below, and the proof that this changes no
output has six steps.

1. A stored row's pivot is its least column, so each kernel basis
   vector's largest column is its own free column.
2. The column order, generator block and then the ring's lex monomial
   order, commutes with multiplication by x_k.  So x_k times the kernel
   vector at mu is a kernel vector whose largest column is x_k mu, and
   each dropped column is a combination of smaller columns.
3. The span of the columns below each kept column is therefore the
   span over all the columns.  The pivots, the ranks and the kernel
   vectors at the kept free columns are those of the full system, and
   the kernel's dimension is the number of dropped columns plus the
   number of kept free ones.
4. The costalk vector at a dropped column x_k mu is x_k times the one
   at mu, less vectors at smaller free columns, up to a scalar.  So it
   lies in the S-multiples of lower degrees plus the span of the vectors
   before it, and `minimal_generators`, which tests candidates in order
   against the span of its own sweep (step 6) and adds only the new
   ones, never picks it.  The builder and `pair_ze_module` pass it only
   the kept vectors and take the costalk's dimension as #dropped +
   #kept-free.
5. A column is kept only when every x_k-divisor of its monomial is a
   pivot one degree down.  Its predecessor under the ring's `_steps`,
   whose column one x_k-step carries to its own, is one of them, so it
   is always resident: a sweep holds only the last degree's pivot
   columns.
6. A rank-only sweep inserts the kept columns, in source order, as rows
   of a span over the target coordinates, and reduces each only until
   its least coordinate leads no stored row (`linalg.insert_lead`).  A
   kept column c is a pivot exactly when its row is new, and it is held
   as its stored row: lambda col_c, lambda != 0, plus columns of its
   degree before c.  x_k keeps the source order, so x_k times that row
   is lambda x_k col_c plus columns before x_k c, dropped ones among
   them, which step 3 puts in the span of the columns before them.  So
   the span of the rows up to each kept position is the full system's
   span of the columns up to it, and every pivot, rank and dimension is
   the full system's.  A generator added to a sweep after its span in
   its own degree, as `minimal_generators` adds a new candidate, is
   independent of that span and is held as its column, lambda = 1 with
   no columns before it, which the same argument covers.

The graded character collects the costalk ranks into the rescaled basis
of the Hecke algebra:  h = sum_y v^(l(y) - l(x)) q_y Tt_y, normalized so
the top coefficient is 1.  Everything downstream of the character - the
self-duality check, the positivity check with its two-generator
forbidden pattern, the local rank identities, the wall-crossing at the
character level, and the lift of sheaves from a quotient graph - is
implemented on top of the same section machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm

from .coxeter import Element, multiply
from .errors import CapError, InconsistencyError, InputError, RealizationError
from .gradedlin import (
    DirectSum,
    FreeModule,
    KernelSweep,
    ModuleMap,
    check_generator_cap,
    hilbert_dim,
    minimal_generators,
    quotient_map,
    rank_from_dims,
)
from .hecke import HeckeElt
from .laurent import LaurentPoly
from .linalg import column_echelon, solve_in_span
from .momentgraph import MomentGraph, ZEModule

__all__ = [
    "Sheaf",
    "BMSheaf",
    "bm_construct",
    "character",
    "costalk_interval",
    "pair_ze_module",
    "theta_character",
    "translate_out",
    "lifted_character",
    "check_conjecture_72",
    "check_prop_71",
    "check_flabby_additive",
    "DEFAULT_MARGIN",
]

DEFAULT_MARGIN = 4


def _require_vertex(graph, w):
    """Refuse (InputError) a w that is not a vertex of the graph."""
    if w not in graph:
        raise InputError(f"{w} is not a vertex of the graph")


def _default_cap(top, w):
    """2 (l(top) - l(w)) + DEFAULT_MARGIN, the degree cap at a vertex w
    below top when none is given."""
    return 2 * (top.length - w.length) + DEFAULT_MARGIN


class Sheaf:
    """Stalks and lower restrictions over a moment graph, over the
    system's ring.  An edge's module is not stored: `edge_module` reads it
    from the upper stalk and the label, and it holds the upper
    restriction, the canonical quotient, as its `projection`.  The sheaf
    holds no cache: `sections` solves on every call."""

    def __init__(self, graph: MomentGraph):
        self.graph = graph
        self.ring = graph.system.ring
        self.stalks = {}
        self.rho_lower = {}
        self.caps = {}

    def edge_module(self, e):
        """B^E = F/alpha_E F for F the stalk at the upper end of e, the one
        module that the ring keeps for F's generator degrees and the label
        (`quotient_map`)."""
        return quotient_map(self.stalks[e.upper], e.label.coords)

    def clear_caches(self):
        """Nothing: the sheaf holds no cache.  The method stays only
        because perfbench's `sections_replay` probe calls it, and goes
        with that probe."""

    # -- sections -----------------------------------------------------------

    def gluing_map(self, verts, edges) -> ModuleMap:
        """The map from the stalks at `verts`, in order, into the direct
        sum of the edge modules of `edges`: on each edge, rho_lower of the
        lower end's component minus the edge module's `projection` of the
        upper end's, with an
        end outside `verts` taken as zero.  Its kernel is the sections
        over `verts` that vanish at those outside ends.  Its source
        columns in degree d are the stalks' own, one stalk after the
        other."""
        mods = [self.edge_module(e) for e in edges]
        target = DirectSum(self.ring, mods)
        ends = {w: [] for w in verts}  # (edge index, generator images, sign)
        for idx, (e, mod) in enumerate(zip(edges, mods)):
            if e.lower in ends:
                ends[e.lower].append((idx, self.rho_lower[e].images, 1))
            if e.upper in ends:
                ends[e.upper].append((idx, mod.projection.images, -1))
        gens, images = [], []
        for w in verts:
            gens += self.stalks[w].gens
            for i, g in enumerate(self.stalks[w].gens):
                off = target.offsets(g)
                image = {}
                for idx, imgs, sign in ends[w]:
                    image.update((off[idx] + t, sign * a) for t, a in imgs[i].items())
                images.append(image)
        return ModuleMap(FreeModule(self.ring, gens), target, images)

    def sections(self, vset, d):
        """The degree-d sections over the vertex set `vset`, solved on
        each call: the kernel of the gluing map of its internal edges,
        over every column.  Returns `(offsets, vectors)`: `offsets` maps
        each vertex to the (start, end) of its stalk, in graph order, in
        the sparse kernel `vectors`."""
        verts = sorted(vset, key=self.graph.index)
        inside = set(verts)
        offsets = {}
        total = 0
        for w in verts:
            dim = self.stalks[w].dim(d)
            offsets[w] = (total, total + dim)
            total += dim
        edges = [e for e in self.graph.edges if {e.lower, e.upper} <= inside]
        m = self.gluing_map(verts, edges)
        return offsets, column_echelon(m.columns(d), m.target.dim(d)).kernel(total)

    # -- costalks -----------------------------------------------------------

    def costalk_dims(self, w, degrees):
        """Dimensions of the sections supported only at w, the kernel of
        the gluing map of the upward edges at w, in the given degrees.

        A `KernelSweep` takes the rank of that map in every even degree
        up to the last one asked for.  It drops the stalk columns x_k mu
        for mu a free column one degree down, where a kernel vector ends
        (step 1 of the module docstring).  Each is a combination of
        smaller columns (step 2), so the rank is the one over every
        column, and the dimension is the stalk's minus that rank, the
        number of dropped columns plus the number of kept free ones (step
        3).  Only the last degree's pivots are held, as rows of the span
        of the kept columns (steps 5 and 6), and no restriction map's
        column memo is filled.  A w outside the graph is refused
        (InputError).
        """
        _require_vertex(self.graph, w)
        degrees = tuple(degrees)
        dims = self._kernel_dims([w], self.graph.up[w], max(degrees, default=-2))
        return {d: dims.get(d, 0) for d in degrees}

    def _kernel_dims(self, verts, edges, top):
        """{d: dim of the kernel of `gluing_map(verts, edges)` in degree
        d} for every even d up to top: the source's dimension minus the
        rank that a `KernelSweep` takes of the map."""
        m = self.gluing_map(verts, edges)
        sweep = KernelSweep(m.target, m.source.gens, m.images)
        return {d: m.source.dim(d) - sweep.rank(d) for d in range(0, top + 1, 2)}


class BMSheaf(Sheaf):
    """The canonical sheaf of an interval, with construction provenance."""

    def __init__(self, graph):
        super().__init__(graph)
        self.top = graph.top
        self.costalk_ranks = {}
        self.costalk_dim_table = {}
        self.section_log = {}
        self._witness = []  # the builder's section generators, see `bm_construct`
        self._flabby = None  # see `_flabby_certificate`


def bm_construct(graph: MomentGraph, cap_override=None):
    """Build the canonical indecomposable sheaf on the given graph.

    Vertices are processed by decreasing length (ShortLex within a
    length), so the processed set P is an upper set.  The builder keeps
    generators of the sections over P, each a degree and its nonzero
    stalk components in that degree.  At a vertex w below the top, the
    canonical quotients of their components at the upper ends of the
    edges at w span the image of the sections over {> w};
    `_solve_vertex` takes its minimal generators as the stalk, their
    components as the downward restrictions, and in the same elimination
    per degree lifts every generator to w and finds the costalk at w.
    Extending P to P + w is onto with the costalk as its kernel, so the
    lifts and the minimal generators of the costalk generate the
    sections over P + w.  `section_log[w][d]` is the dimension of the
    sections over {> w} that this predicts from the costalk ranks above
    w; `check_flabby_additive` compares it with the measured costalk
    dimensions above w, whose sum its flabbiness certificate proves to
    be that dimension.  The final generators, sections over every
    vertex, stay on the sheaf as `_witness`; the certificate verifies
    them and solves no sections.

    The per-vertex degree cap is 2 (l(top) - l(y)) + DEFAULT_MARGIN unless
    overridden, and a cap below 0 is refused (CapError).  Every
    minimal-generator extraction, of a stalk or of a costalk, and every
    graded-rank deconvolution refuses to answer when generators appear
    in the top two even degrees of its range (CapError).
    """
    sheaf = BMSheaf(graph)
    ring = sheaf.ring
    order = sorted(graph.vertices, key=lambda w: (-w.length, w.word))
    top = graph.top
    if order[0] != top:
        raise InconsistencyError("top vertex is not the unique longest")
    for e in graph.edges:
        if e.lower.length == e.upper.length:
            raise RealizationError("edge joins vertices of equal length")
    # generators of the sections over the processed vertices, as
    # (degree, {z: sparse vec}); the CapError rules keep each degree at
    # least 4 below the cap of every later vertex
    sections = []
    for w in order:
        if cap_override is not None:
            capw = int(cap_override)
            capw -= capw % 2
        else:
            capw = _default_cap(top, w)
        if capw < 0:
            raise CapError(f"degree cap {capw} at {w} leaves no degree to compute")
        sheaf.caps[w] = capw
        if w == top:
            stalk = sheaf.stalks[w] = FreeModule(ring, (0,))
            # nothing lies above the top, so its whole stalk is costalk;
            # the unit leads it, and every other column is a multiple
            dims = {d: stalk.dim(d) for d in range(0, capw + 1, 2)}
            costalk = {0: [{0: 1}]}
        else:
            dims, costalk = _solve_vertex(sheaf, w, sections, capw)
            sheaf.section_log[w] = {
                d: sum(
                    c * hilbert_dim(ring.nvars, d - g)
                    for z in graph.above(w)
                    for g, c in sheaf.costalk_ranks[z].c.items()
                )
                for d in range(0, capw + 1, 2)
            }
        sheaf.costalk_dim_table[w] = dims
        rank = rank_from_dims(dims, ring.nvars, capw)
        sheaf.costalk_ranks[w] = rank
        new = minimal_generators(costalk, sheaf.stalks[w], capw)
        if FreeModule(ring, [d for d, _ in new]).rank_poly != rank:
            raise InconsistencyError(f"the costalk at {w} is not graded free")
        sections.extend((d, {w: vec}) for d, vec in new)
    sheaf._witness = sections
    return sheaf


def _solve_vertex(sheaf, w, sections, cap):
    """Build the stalk at w and its downward restrictions, lift the
    section generators `sections` to w in place, and return the costalk
    at w: ({d: dimension}, {d: the kernel vectors at its kept columns}).

    One column system per degree d, stepped by a `KernelSweep` into the
    direct sum of the edge modules above w.  Its columns are first the
    cover's, the images of the monomial multiples of the stalk
    generators of degree below d, in the stalk's basis order.  Then come
    the candidates, one per section generator g of degree d, holding
    minus the canonical quotient (the edge module's `projection`) of g on
    each edge above w.  A candidate column with a pivot is not in the
    image so far: it is a new minimal generator and stands for its own
    stalk column, with the opposite sign.  The kernel vectors
    at free cover columns span the costalk, and the one at a free
    candidate column, with c > 0 there, lifts c g, which stays integral.
    The restriction to an edge above w sends each stalk generator to its
    image's component on that edge.

    The sweep drops the cover columns x_k mu for mu a free cover column
    one degree down, where a costalk vector there ends (step 1 of the
    module docstring); each is a combination of smaller cover columns
    (step 2).  Every candidate comes after every cover column, so the
    picks, the costalk vectors at the kept free columns and every lift
    are those of the system over all the cover columns, and the
    costalk's dimension is the number of dropped columns plus the number
    of kept free ones (step 3).  `minimal_generators` never picks a
    dropped costalk vector (step 4), so the kept ones alone give the
    same stalk generators.  The predecessor of each kept column is a
    held pivot (step 5).
    """
    ring = sheaf.ring
    delta = sheaf.graph.up[w]
    mods = [sheaf.edge_module(e) for e in delta]
    target = DirectSum(ring, mods)
    uppers = [mod.projection for mod in mods]
    sweep = KernelSweep(target)
    dims, costalk = {}, {}
    for d in range(0, cap + 1, 2):
        off = target.offsets(d)
        here = [comps for gd, comps in sections if gd == d]
        candidates = [
            {
                o + t: -a
                for o, e, upper in zip(off, delta, uppers)
                if e.upper in comps
                for t, a in upper.apply(comps[e.upper], d).items()
            }
            for comps in here
        ]
        width = sweep.dim(d)
        ech, positions = sweep.step(d, candidates)
        n = len(positions)
        picked = sorted(p - n for p in ech.rows if p >= n)
        for t in picked:
            sweep.add(d, {r: -a for r, a in candidates[t].items()})
        kernel = ech.kernel(n + len(candidates))
        parts = [_stalk_part(vec, positions, width, picked) for vec in kernel]
        rank = ech.dim - len(picked)  # the cover columns' pivots
        free = n - rank
        costalk[d] = parts[:free]
        dims[d] = width - rank
        unpicked = [t for t in range(len(here)) if n + t not in ech.rows]
        for t, vec, lift in zip(unpicked, kernel[free:], parts[free:]):
            comps = here[t]
            scale = vec[n + t]
            if scale != 1:
                for z, comp in comps.items():
                    comps[z] = {i: scale * a for i, a in comp.items()}
            if lift:
                comps[w] = lift
        for i, t in enumerate(picked, width):
            here[t][w] = {i: 1}
    check_generator_cap(sweep.gens, cap)
    stalk = sheaf.stalks[w] = FreeModule(ring, sweep.gens)
    for idx, (e, mod) in enumerate(zip(delta, mods)):
        images = [
            target.component(vec, idx, g) for g, vec in zip(sweep.gens, sweep.images)
        ]
        sheaf.rho_lower[e] = ModuleMap(stalk, mod, images)
    return dims, costalk


def _stalk_part(vec, positions, width, picked):
    """The stalk vector of a kernel vector over the kept cover columns,
    at the stalk positions `positions`, and the candidates.  The new
    generator i, at stalk position width + i, stands for the candidate
    picked[i], whose column is the generator's negated."""
    n = len(positions)
    part = {positions[i]: a for i, a in vec.items() if i < n}
    for i, t in enumerate(picked, width):
        a = vec.get(n + t)
        if a:
            part[i] = -a
    return part


# -- characters -------------------------------------------------------------


def character(bm: BMSheaf) -> HeckeElt:
    """Graded character sum_y v^(l(y)-l(x)) q_y Tt_y; top coefficient 1."""
    big_l = bm.top.length
    coeffs = {}
    for w in bm.graph.vertices:
        q = bm.costalk_ranks[w]
        if not q:
            raise InconsistencyError(f"empty costalk at {w}")
        coeffs[w] = q.shift(w.length - big_l)
    out = HeckeElt(coeffs)
    if out.coeff(bm.top) != LaurentPoly.one():
        raise InconsistencyError("character is not normalized at the top")
    return out


# -- interval costalks and wall crossing ------------------------------------


@dataclass
class PairCostalk:
    """Sections over {>= ys} supported on the pair {ys, y}, ys = y s < y."""

    lower: Element
    upper: Element
    rank: LaurentPoly
    dims: dict


def _pair_edges(bm: BMSheaf, y: Element, s: int):
    """(ys, edges): the edges whose gluing map on the pair {ys, y}, lower
    vertex first, has the pair costalk as its kernel."""
    graph = bm.graph
    gen = graph.system.generator(s)
    ys = multiply(y, gen)
    if ys.length >= y.length:
        raise InputError(f"{y} has no right descent {s + 1}")
    if y not in graph or ys not in graph:
        raise InputError("both endpoints of the pair must be in the graph")
    omega = {ys, *graph.above(ys)}
    # every edge inside {>= ys} with an end in the pair; the other ends
    # lie outside the pair, where these sections vanish
    edges = [
        e
        for e in graph.edges
        if e.lower in omega and e.upper in omega and {e.lower, e.upper} & {ys, y}
    ]
    return ys, edges


def _pair_systems(bm: BMSheaf, y: Element, s: int):
    """(ys, cap, {d: (echelon, positions, width)}) for every even d up to
    cap = caps[ys], stepped by a `KernelSweep` of the pair's gluing map
    (`_pair_edges`).  The echelon's columns are the kept source columns,
    at the stalk positions `positions` (lower stalk first); the costalk's
    dimension is the width, the source's dimension, minus the rank (step
    3 of the module docstring)."""
    ys, edges = _pair_edges(bm, y, s)
    m = bm.gluing_map([ys, y], edges)
    sweep = KernelSweep(m.target, m.source.gens, m.images)
    systems = {}
    for d in range(0, bm.caps[ys] + 1, 2):
        ech, positions = sweep.step(d)
        systems[d] = ech, positions, m.source.dim(d)
    return ys, bm.caps[ys], systems


def costalk_interval(bm: BMSheaf, y: Element, s: int) -> PairCostalk:
    """The pair costalk's dimensions, width minus rank per degree up to
    caps[ys], and its graded rank.  The ranks come from a sweep of the
    pair's gluing map (`KernelSweep.rank`, step 6 of the module
    docstring)."""
    ys, edges = _pair_edges(bm, y, s)
    cap = bm.caps[ys]
    dims = bm._kernel_dims([ys, y], edges, cap)
    return PairCostalk(ys, y, rank_from_dims(dims, bm.ring.nvars, cap), dims)


def pair_ze_module(bm: BMSheaf, y: Element, s: int) -> ZEModule:
    """The pair costalk as a module over the two-vertex edge algebra.

    xi = (alpha_t, 0) acts on a supported-on-pair section by scaling the
    lower component by the connecting edge label and killing the upper.
    xi is one exact solve per minimal generator of the costalk, picked
    from its kernel vectors at the kept free columns of the pair's
    sweep; they are those of the system over every column, and
    `minimal_generators` never picks a vector at a dropped column (steps
    3 and 4 of the module docstring).  The images present the costalk
    only when the free module on the generators has its dimension, width
    minus rank, in every degree, which is checked.  The module is
    presented by D*alpha and D*xi, D the least common denominator of the
    images: (D xi)^2 = (D alpha)(D xi), and the kernels and spans that
    `decompose_ze_module` reads are unchanged.
    """
    ys, cap, systems = _pair_systems(bm, y, s)
    edge = next((e for e in bm.graph.up[ys] if e.upper == y), None)
    if edge is None:
        raise InputError(f"no edge joins {ys} and {y}")
    alpha = edge.label.coords
    ambient = DirectSum(bm.ring, [bm.stalks[ys], bm.stalks[y]])
    bases = {}
    for d, (ech, kept, _) in systems.items():
        bases[d] = [{kept[i]: a for i, a in v.items()} for v in ech.kernel(len(kept))]
    gens = minimal_generators(bases, ambient, cap)
    free = FreeModule(bm.ring, tuple(d for d, _ in gens))
    if any(free.dim(d) != width - ech.dim for d, (ech, _, width) in systems.items()):
        raise InconsistencyError("pair costalk is not free on its minimal generators")
    emb = ModuleMap(free, ambient, [v for _, v in gens])
    lower_stalk = bm.stalks[ys]
    sols = []
    for g, v in gens:
        # the lower stalk's block comes first in the ambient sum
        low = ambient.component(v, 0, g)
        sol = solve_in_span(emb.columns(g + 2), lower_stalk.mul_linear(low, alpha, g))
        if sol is None:
            raise InconsistencyError(
                "pair costalk is not stable under the edge algebra"
            )
        sols.append(sol)
    big = lcm(*(den for _, den in sols))
    images = [{j: v * (big // den) for j, v in c.items()} for c, den in sols]
    return ZEModule(free, tuple(big * a for a in alpha), images)


def theta_character(bm: BMSheaf, s: int) -> HeckeElt:
    """Character of the wall crossing at s, assembled from pair costalks.

    For each s-orbit {w, ws} with w < ws meeting the interval, the pair
    costalk (or the plain costalk of w when ws falls outside) contributes
    with shifts -1 at the upper and +1 at the lower vertex.
    """
    graph = bm.graph
    gen = graph.system.generator(s)
    big_l = bm.top.length
    coeffs = {}
    for w in graph.vertices:
        ws = multiply(w, gen)
        if ws.length < w.length:
            continue  # w is the upper half; handled from the lower one
        if ws in graph:
            q_pair = costalk_interval(bm, ws, s).rank
        else:
            q_pair = bm.costalk_ranks[w]
        coeffs[ws] = coeffs.get(ws, 0) + q_pair.shift(ws.length - big_l - 1)
        coeffs[w] = coeffs.get(w, 0) + q_pair.shift(w.length - big_l + 1)
    return HeckeElt(coeffs)


# -- lifting sheaves from a quotient graph ----------------------------------


def translate_out(nbm: BMSheaf, target_graph: MomentGraph) -> Sheaf:
    """Lift a sheaf on the quotient graph by <s> to the regular graph.

    Stalks are copied coset-wise, so both ends of an edge inside an
    s-orbit hold one stalk, and its canonical quotient by the label is
    the lower restriction too.  Every other edge has the image edge's
    upper stalk and label, so it reads the image edge's module, the
    ring's one module for those generator degrees and that label, and it
    reuses the image edge's lower restriction.
    """
    qgraph = nbm.graph
    if qgraph.kind != "quotient" or target_graph.kind != "regular":
        raise InputError("translate_out lifts a quotient-graph sheaf")
    s = qgraph.quotient_gen
    system = target_graph.system
    gen = system.generators[s]
    out = Sheaf(target_graph)

    def _bar(w):
        ws = multiply(w, gen)
        return w if ws.length > w.length else ws

    for w in target_graph.vertices:
        wbar = _bar(w)
        if wbar not in qgraph:
            raise InputError(f"coset of {w} is missing from the quotient graph")
        out.stalks[w] = nbm.stalks[wbar]
        out.caps[w] = _default_cap(target_graph.top, w)
    by_pair = {(e.lower, e.upper): e for e in qgraph.edges}
    for e in target_graph.edges:
        u, w = e.lower, e.upper
        if multiply(u, gen) == w:
            out.rho_lower[e] = out.edge_module(e).projection
        else:
            ubar, wbar = _bar(u), _bar(w)
            image = by_pair.get((ubar, wbar))
            if image is None:
                if (wbar, ubar) in by_pair:
                    raise InconsistencyError(
                        f"edge {u} -> {w} reverses orientation in the quotient"
                    )
                raise InconsistencyError(
                    f"edge {u} -> {w} has no image in the quotient graph"
                )
            if image.label != e.label:
                raise RealizationError(
                    f"edge {u} -> {w} and its image disagree on the label"
                )
            out.rho_lower[e] = nbm.rho_lower[image]
    return out


def lifted_character(sheaf: Sheaf, quotient_top_length: int) -> HeckeElt:
    """Character of a lifted sheaf, in module normalization shifted by {1}:
    sum_w v^(l(w) - lbar - 1) q_w Tt_w over the lifted costalk ranks."""
    coeffs = {}
    for w in sheaf.graph.vertices:
        cap = sheaf.caps[w]
        dims = sheaf.costalk_dims(w, range(0, cap + 1, 2))
        q = rank_from_dims(dims, sheaf.ring.nvars, cap)
        coeffs[w] = q.shift(w.length - quotient_top_length - 1)
    return HeckeElt(coeffs)


# -- checks -----------------------------------------------------------------


def check_conjecture_72(bm: BMSheaf):
    """Positivity of the subleading character coefficients.

    For every y below the top, f_{y,x} must lie in v Z[v]; additionally
    the two-generator costalk pattern in degrees l(x)-l(y) and
    2(l(x)-l(y)) must not occur.  Returns {y: (positive, pattern_free, f)}.
    """
    big_l = bm.top.length
    report = {}
    for w in bm.graph.vertices:
        if w == bm.top:
            continue
        q = bm.costalk_ranks[w]
        f = q.shift(w.length - big_l)
        k = big_l - w.length
        forbidden = q == LaurentPoly({k: 1, 2 * k: 1})
        report[w] = (f.is_v_times_polynomial(), not forbidden, f)
    return report


def check_prop_71(bm: BMSheaf, w: Element):
    """Local rank identities at one vertex.

    (2) the kernel of stalk_w -> sum of B^E over all edges at w is graded
    free of rank v^(2 #down-edges) times the costalk rank; (4) the stalk
    generator multiset mirrors the costalk generator multiset under
    d -> 2(l(x)-l(w)) - d.

    (2) is checked from its proof.  Let F be the stalk at w, D the
    down-edges at w, P the product of their labels and K_w the costalk,
    the kernel of the upward restrictions.  Each edge module is the
    quotient of its upper stalk by the edge's label (`Sheaf.edge_module`),
    so each restriction from w down an edge of D is the canonical quotient
    F -> F/alpha_E F by construction: the module's `projection`, out of
    a free module on F's generator degrees, which has F's basis.
    Suppose that the labels of all edges at w are pairwise
    non-proportional.  Then the labels of D are pairwise coprime primes of
    S and F is free, so the kernel of F -> sum over D of F/alpha_E F is
    P F.  Each upward edge module is free over the domain S/alpha_E, and
    alpha_E divides no factor of P, so P is a nonzerodivisor on it: P g
    restricts to zero upward exactly when g does.  Hence the local
    kernel is P K_w, and its dimension in degree d is the costalk's in
    degree d - 2|D|.  On [e, x] |D| = l(w), so the kernel up to the
    bottom vertex's cap 2 l(top) + DEFAULT_MARGIN is the costalk up to
    2 (l(top) - l(w)) + DEFAULT_MARGIN = caps[w], the cap the builder
    solved it under.  Solving K_w up to caps[w] therefore decides (2),
    and its rank deconvolution refuses generators in the top two degrees
    (CapError) as the builder's does.  The one hypothesis is checked, not
    assumed, and a failed one makes "kernel_rank" False.  K_w is
    solved here from the stored maps, independently of the builder's
    tables.  The flabbiness certificate solves the same K_w, by the same
    `Sheaf.costalk_dims` on the same maps, only up to a higher degree,
    so it does not check this solve.  A w outside the graph is refused
    (InputError).

    >>> from bmsheaves.coxeter import make_system, parse_word
    >>> from bmsheaves.momentgraph import build_graph
    >>> a2 = make_system([[1, 3], [3, 1]])
    >>> bm = bm_construct(build_graph(a2, a2.element(parse_word("121", 2))))
    >>> reports = [check_prop_71(bm, w) for w in bm.graph.vertices]
    >>> len(reports), reports[0]
    (6, {'kernel_rank': True, 'mirror': True})
    >>> all(r == reports[0] for r in reports)
    True
    """
    _require_vertex(bm.graph, w)
    cap = bm.caps[w]
    labels = [e.label.coords for e in bm.graph.up[w] + bm.graph.down[w]]
    ok2 = not any(_proportional(a, b) for a, b in combinations(labels, 2)) and (
        rank_from_dims(bm.costalk_dims(w, range(0, cap + 1, 2)), bm.ring.nvars, cap)
        == bm.costalk_ranks[w]
    )
    reflected = bm.costalk_ranks[w].bar().shift(2 * (bm.top.length - w.length))
    ok4 = bm.stalks[w].rank_poly == reflected
    return {"kernel_rank": ok2, "mirror": ok4}


def _proportional(a, b):
    """True when the linear forms a and b are proportional: every 2x2
    minor of the matrix with rows a and b vanishes."""
    return all(
        a[i] * b[j] == a[j] * b[i]
        for i, j in combinations(range(len(a)), 2)
    )


def check_flabby_additive(bm: BMSheaf, w: Element):
    """Degreewise flabbiness and section additivity at w.

    For every degree d under the cap at w: the sheaf's flabbiness
    certificate, the builder's sections verified against the stored
    stalks and maps, holds in degree d, the measured costalk dimension
    at w is the builder's `costalk_dim_table` entry, and the measured
    costalk dimensions above w add up to its `section_log` entry.  Hence
    sections over {>= w} restrict onto sections over {> w}, and dim
    Gamma({>= w}) = dim Gamma({> w}) + dim costalk(w) with dim Gamma({> w})
    the logged number.  The tables are read on every call; the
    certificate (`_flabby_certificate`) is built on the first.  A w
    outside the graph is refused (InputError).
    """
    _require_vertex(bm.graph, w)
    onto, costalks = _flabby_certificate(bm)
    table = bm.costalk_dim_table[w]
    logged = bm.section_log.get(w, {})
    return all(
        onto[d]
        and costalks[w][d] == table.get(d, 0)
        and sum(costalks[z][d] for z in bm.graph.above(w)) == logged.get(d, 0)
        for d in range(0, bm.caps[w] + 1, 2)
    )


def _flabby_certificate(bm: BMSheaf):
    """({d: onto}, {z: {d: costalk dim}}) for every even d up to the
    largest cap, computed on the first call and kept on the sheaf.

    The costalk dimensions c_{z,d} are local solves, one upward kernel
    per vertex, independent of the builder's tables.  For an upper set
    U and a vertex z minimal in U, the restriction Gamma(U) -> Gamma(U
    - z) has the costalk at z as its kernel, so along any chain of upper
    sets from the empty set to the whole graph dim Gamma(V)_d <= sum_z
    c_{z,d}, with equality exactly when every step is onto in degree d.
    Every upper set lies on such a chain, so equality proves that every
    restriction between upper sets is onto in degree d and that dim
    Gamma(U)_d = sum_{z in U} c_{z,d} (Braden-MacPherson, Fiebig).

    The builder's section generators (`_witness`), verified against the
    stored stalks and maps, give the lower bound.  Each glues on every
    edge at its support in its own degree, so its S-multiples are
    sections.  Its birth vertex is the longest in its support (the last
    in graph order), where the builder found it as a costalk generator,
    and it vanishes at every vertex later in graph order.  If at each z
    the S-multiples of the z-components of the generators born at z span
    c_{z,d} dimensions, these sections are triangular and dim
    Gamma(V)_d >= sum_z c_{z,d}.  A generator that does not glue leaves
    no degree certified and a short span leaves its degree uncertified;
    there is no fallback to solving the sections.  The stalks, maps and
    witness are read once: a sheaf changed after the first check keeps
    the old certificate.
    """
    if bm._flabby is None:
        graph = bm.graph
        degrees = range(0, max(bm.caps.values()) + 1, 2)
        costalks = {z: bm.costalk_dims(z, degrees) for z in graph.vertices}
        born = {z: [] for z in graph.vertices}  # (degree, z-component)
        maps = [(e, bm.rho_lower[e], bm.edge_module(e).projection) for e in graph.edges]
        glued = True
        for g, comps in bm._witness:
            z = max(comps, key=graph.index)
            born[z].append((g, comps[z]))
            glued = glued and all(
                _restrict(lower, comps.get(e.lower), g)
                == _restrict(upper, comps.get(e.upper), g)
                for e, lower, upper in maps
                if e.lower in comps or e.upper in comps
            )
        onto = dict.fromkeys(degrees, glued)
        for z, gens in born.items():
            # the cover's span in degree d is that of the S-multiples there;
            # one cover at a time, so only one holds its pivots
            degrees_z = [g for g, _ in gens]
            cover = KernelSweep(bm.stalks[z], degrees_z, [v for _, v in gens])
            for d in degrees:
                if cover.rank(d) != costalks[z][d]:
                    onto[d] = False
        bm._flabby = onto, costalks
    return bm._flabby


def _restrict(rho, vec, g):
    """rho(vec) in degree g; a missing component restricts to zero, and
    the map's columns are not read for it."""
    return rho.apply(vec, g) if vec else {}
