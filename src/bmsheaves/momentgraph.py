"""Moment graphs of Bruhat intervals and their structure algebra.

A moment graph here is the graph of an interval [e, x], or of its image
in the quotient by a rank-one parabolic: vertices are group elements (or
minimal coset representatives), there is an edge between w and tw for
each reflection t that keeps both endpoints in the vertex set, the edge
is directed from the shorter to the longer endpoint, and it is labeled
by the positive root of t.  Each unordered pair of vertices gives at most
one edge.  Construction checks the structural facts the theory predicts
and raises RealizationError when a computed graph would falsify them:
distinct reflections never carry proportional labels, and edge endpoints
are always comparable.  `check_sanity` also refuses double edges, for
graphs built by other means.

The structure algebra Z consists of the vertex tuples (z_w) of
polynomials with z_w = z_{w'} mod alpha_t along every edge.  A tuple
holds each polynomial as `gradedlin` sparse vectors over the monomial
basis of S, one per degree; congruences go through the quotient map
S -> S/alpha_t, products through multiplication by monomials, and exact
division through `linalg.solve_in_span`.  Three operations on it drive
the sheaf theory: the characteristic embedding
sigma(alpha)_w = w(alpha); the invariant splitting of Z over a rank-one
parabolic (2z decomposes as z_+ + c^s z_- with both parts invariant and
integral, where c^s_w = w(alpha_s)); and the decomposition of a
Z(E)-module, for one edge E labeled alpha_t, into shifted copies of the
two vertex-line modules M(x), M(y) and the full edge module P(x,y), by a
greedy degreewise complement computation over the action of
xi = (alpha_t, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import (
    Element,
    Root,
    _differ_by_rank_one,
    bruhat_interval,
    bruhat_leq,
    multiply,
    reflection_root,
    sort_key,
)
from .errors import InconsistencyError, InputError, RealizationError
from .gradedlin import (
    FreeModule,
    ModuleMap,
    PolyRing,
    check_generator_cap,
    combine_columns,
    hilbert_dim,
    quotient_map,
)
from .linalg import column_echelon, insert_lead, solve_in_span

__all__ = [
    "Edge",
    "MomentGraph",
    "build_graph",
    "ZTuple",
    "z_contains",
    "sigma",
    "c_invariant",
    "split_invariant",
    "ZEModule",
    "LocalSummand",
    "decompose_ze_module",
    "summand_ze_module",
    "check_sanity",
    "check_deodhar",
    "to_dot",
]


@dataclass(frozen=True)
class Edge:
    lower: Element
    upper: Element
    reflection: Element
    label: Root

    def __str__(self):
        return f"{self.lower} -> {self.upper} [{self.label}]"


class MomentGraph:
    """Finite labeled graph on a Bruhat interval or its quotient image."""

    def __init__(self, system, kind, x, vertices, edges, quotient_gen=None):
        self.system = system
        self.kind = kind
        self.top = x
        self.vertices = tuple(sorted(vertices, key=sort_key))
        self.edges = tuple(edges)
        self.quotient_gen = quotient_gen
        # S, the stalk of the structure sheaf, in which Z's entries live
        self.stalk = FreeModule(system.ring, (0,))
        self._index = {w: i for i, w in enumerate(self.vertices)}
        up = {w: [] for w in self.vertices}
        down = {w: [] for w in self.vertices}
        for e in self.edges:
            up[e.lower].append(e)
            down[e.upper].append(e)
        self.up = {w: tuple(es) for w, es in up.items()}
        self.down = {w: tuple(es) for w, es in down.items()}
        self._above = {}

    def index(self, w):
        return self._index[w]

    def above(self, w):
        """The vertices z > w in Bruhat order, in vertex order; memoized."""
        out = self._above.get(w)
        if out is None:
            out = self._above[w] = tuple(
                z for z in self.vertices if z is not w and bruhat_leq(w, z)
            )
        return out

    def __contains__(self, w):
        return w in self._index

    def __str__(self):
        return (
            f"MomentGraph({self.kind}, top={self.top}, "
            f"{len(self.vertices)} vertices, {len(self.edges)} edges)"
        )


def _check_labels(edges):
    """Distinct reflections must have non-proportional (primitive) roots."""
    seen = {}
    for e in edges:
        prior = seen.get(e.label.coords)
        if prior is not None and prior != e.reflection:
            raise RealizationError(
                f"distinct reflections {prior} and {e.reflection} share the "
                f"label {e.label}; the realization is not faithful"
            )
        seen[e.label.coords] = e.reflection


def build_graph(system, x: Element, kind="regular", s=None) -> MomentGraph:
    """Moment graph of [e, x], or of its quotient by <s> when kind='quotient'.

    The kind only chooses the vertex set and the top.  A regular graph has
    the interval [e, x]; a quotient graph has the minimal length coset
    representatives of the cosets below the coset of x, ordered by Bruhat
    order on those representatives, and the shorter of x, xs as its top.
    Each vertex z has its ends: z itself, and z s on a quotient graph.
    Vertices y < z are joined when zz y^-1 is a reflection for an end zz.
    That is tested on the matrices alone: the lengths of zz and y differ
    by an odd number and rank(ZZ - Y) = 1.  Only then is t = zz y^-1
    formed.  The two ends of z differ in length by one, so at most one of
    them passes the parity test and a pair gives at most one edge.
    """
    if kind == "regular":
        vertices, top, gen = bruhat_interval(x), x, None
    elif kind == "quotient":
        if s is None or not (0 <= s < system.rank):
            raise InputError("quotient graphs need a generator index")
        gen = system.generators[s]
        top, upper = sorted((x, multiply(x, gen)), key=sort_key)
        vertices = [
            w
            for w in bruhat_interval(upper)
            if multiply(w, gen).length > w.length
        ]
    else:
        raise InputError(f"unknown graph kind {kind!r}")
    ends = [(z,) if gen is None else (z, multiply(z, gen)) for z in vertices]
    edges = []
    for i, y in enumerate(vertices):
        ly, my = y.length, y.matrix
        for j in range(i + 1, len(vertices)):
            for zz in ends[j]:
                if (zz.length - ly) % 2 and _differ_by_rank_one(zz.matrix, my):
                    break
            else:
                continue
            z = vertices[j]
            if z.length == ly or not bruhat_leq(y, z):
                raise RealizationError(f"edge endpoints {y}, {z} are not comparable")
            t = multiply(zz, y.inverse())
            edges.append(Edge(y, z, t, reflection_root(t)))
    _check_labels(edges)
    return MomentGraph(
        system, kind, top, vertices, edges, None if gen is None else s
    )


# -- structure algebra ----------------------------------------------------


def _add(a, b):
    """a + b for entries {degree: sparse vector}."""
    out = {d: dict(vec) for d, vec in a.items()}
    for d, vec in b.items():
        acc = out.setdefault(d, {})
        for p, x in vec.items():
            s = acc.get(p, 0) + x
            if s:
                acc[p] = s
            else:
                del acc[p]
        if not acc:
            del out[d]
    return out


def _scale(a, c):
    if not c:
        return {}
    return {d: {p: x * c for p, x in vec.items()} for d, vec in a.items()}


def _times(stalk, a, b):
    """The product of two entries, by monomials through `mul_mono`."""
    out = {}
    for da, va in a.items():
        for db, vb in b.items():
            monos = stalk.ring.monomials(db)
            cols = {j: stalk.mul_mono(va, monos[j], da) for j in vb}
            out = _add(out, {da + db: combine_columns(vb, cols)})
    return out


def _linear(coeffs):
    """The entry of a linear form: position k of monomials(2) is x_k."""
    vec = {k: a for k, a in enumerate(coeffs) if a}
    return {2: vec} if vec else {}


class ZTuple:
    """One polynomial per vertex, aligned with graph.vertices.

    An entry is a {degree: sparse vector} dict over the monomial basis of
    the stalk `graph.stalk` = S, with no zero vector and no zero
    coefficient, so equal polynomials have equal entries.
    """

    __slots__ = ("graph", "entries")

    def __init__(self, graph, entries):
        self.graph = graph
        self.entries = tuple(entries)
        if len(self.entries) != len(graph.vertices):
            raise InputError("one entry per vertex required")

    def __getitem__(self, w):
        return self.entries[self.graph.index(w)]

    def __add__(self, other):
        return ZTuple(
            self.graph, [_add(a, b) for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, ZTuple):
            stalk = self.graph.stalk
            return ZTuple(
                self.graph,
                [_times(stalk, a, b) for a, b in zip(self.entries, other.entries)],
            )
        return ZTuple(self.graph, [_scale(a, other) for a in self.entries])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, ZTuple)
            and self.graph is other.graph
            and self.entries == other.entries
        )

    def __str__(self):
        return "; ".join(
            f"{w}: {p}" for w, p in zip(self.graph.vertices, self.entries)
        )


def z_contains(graph: MomentGraph, z: ZTuple) -> bool:
    """Edge congruences: z_lower = z_upper mod alpha along every edge,
    through the canonical quotient map S -> S/alpha in each degree, the
    one that the ring keeps per label for the stalk's degrees
    (`quotient_map`)."""
    for e in graph.edges:
        diff = _add(z[e.lower], _scale(z[e.upper], -1))
        upper = quotient_map(graph.stalk, e.label.coords).projection
        if any(upper.apply(vec, d) for d, vec in diff.items()):
            return False
    return True


def sigma(graph: MomentGraph, alpha) -> ZTuple:
    """The characteristic tuple sigma(alpha)_w = w(alpha).

    On a quotient graph this is well defined only when s(alpha) = alpha,
    which is checked and raised as a precondition failure otherwise.
    """
    n = graph.system.rank
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise InputError("covector has wrong arity")
    if graph.kind == "quotient":
        s = graph.quotient_gen
        fixed = graph.system.generators[s].apply(alpha)
        if tuple(fixed) != alpha:
            raise InputError(
                "sigma on a quotient graph needs an s-invariant covector; "
                f"s(alpha) = {fixed} differs from alpha = {alpha}"
            )
    return ZTuple(graph, [_linear(w.apply(alpha)) for w in graph.vertices])


def c_invariant(graph: MomentGraph, s: int) -> ZTuple:
    """The tuple c^s with c^s_w = w(alpha_s)."""
    graph.system.generator(s)  # refuses an index out of range
    unit = tuple(1 if i == s else 0 for i in range(graph.system.rank))
    return ZTuple(graph, [_linear(w.apply(unit)) for w in graph.vertices])


def split_invariant(graph: MomentGraph, s: int, z: ZTuple):
    """Split 2z = z_plus + c^s * z_quot over the invariants of s.

    Requires the vertex set to be closed under right multiplication by s
    (true for [e, x] exactly when xs < x).  s acts by (s.z)_w = z_{ws};
    z_plus = z + s.z, and z_quot is z - s.z divided exactly by
    c^s_w = w(alpha_s), one `solve_in_span` per degree over the columns
    of multiplication by it.  w(alpha_s) is primitive (w has determinant
    +-1 on the root lattice), so by Gauss's lemma z_quot is integral when
    z is; failed division means z was not in Z.
    """
    if graph.kind != "regular":
        raise InputError("the invariant splitting needs a regular orbit graph")
    gen = graph.system.generator(s)
    partner = {}
    for w in graph.vertices:
        ws = multiply(w, gen)
        if ws not in graph:
            raise InputError(
                f"vertex set is not s-invariant: {w}*s is outside the graph"
            )
        partner[w] = ws
    stalk = graph.stalk
    unit = tuple(1 if i == s else 0 for i in range(graph.system.rank))
    plus, quot = [], []
    for w in graph.vertices:
        zw = z[w]
        zws = z[partner[w]]
        plus.append(_add(zw, zws))
        cw = w.apply(unit)
        q = {}
        for d, vec in _add(zw, _scale(zws, -1)).items():
            dim = stalk.dim(d - 2)
            cols = [stalk.mul_linear({j: 1}, cw, d - 2) for j in range(dim)]
            sol = solve_in_span(cols, vec)
            if sol is None or sol[1] != 1:
                raise InputError(
                    f"z_{w} - z_{partner[w]} is not divisible by the linear form {cw}"
                )
            q[d - 2] = sol[0]
        quot.append(q)
    return ZTuple(graph, plus), ZTuple(graph, quot)


# -- Z(E)-modules and their decomposition ----------------------------------


@dataclass(frozen=True)
class LocalSummand:
    """One indecomposable summand: kind in {'M_lower','M_upper','P'} and the
    degree shift of its lowest generator."""

    kind: str
    shift: int


class ZEModule:
    """A graded free module with an S-linear action of xi = (alpha_t, 0).

    Z(E) is generated over S by xi, which satisfies xi^2 = alpha_t xi and
    raises degree by 2; a module is presented by a FreeModule and the
    image of each generator under xi.  `xi` is the ModuleMap from the
    module shifted up by 2 into the module: the shifted basis in degree
    d + 2 is the module's basis in degree d, so xi.columns(d + 2) are the
    images of the degree-d basis vectors.
    """

    def __init__(self, module: FreeModule, alpha, images):
        self.module = module
        self.alpha = tuple(alpha)
        shifted = FreeModule(module.ring, [g + 2 for g in module.gens])
        self.xi = ModuleMap(shifted, module, images)

    def check_square(self):
        """xi(xi(g)) = alpha * xi(g) on every generator g, hence by
        S-linearity on the whole module."""
        mod = self.module
        for g, first in zip(mod.gens, self.xi.images):
            twice = self.xi.apply(first, g + 4)
            if twice != mod.mul_linear(first, self.alpha, g + 2):
                raise InconsistencyError(
                    f"xi^2 differs from alpha*xi on a generator of degree {g}"
                )
        return True


def decompose_ze_module(zem: ZEModule, cap):
    """Decompose into shifted M(lower), M(upper), P summands, greedily.

    Degree by degree: elements with xi m = alpha m span the M(lower)
    isotypic piece, elements with xi m = 0 span M(upper), and whatever is
    not already generated below (together with those) must start new P
    summands.  The resulting multiset must reproduce the dimension table
    exactly (rank conservation), otherwise the module is not a direct sum
    of these shapes and we abort.  A cap below 0 is refused (CapError,
    `check_generator_cap`).
    """
    check_generator_cap((), cap)
    mod = zem.module
    nvars = mod.ring.nvars
    cap -= cap % 2
    summands = []
    for d in range(0, cap + 1, 2):
        dim = mod.dim(d)
        if not dim:
            continue
        # span of Z(E) * (everything in degree d-2) inside degree d; the
        # degree-(d-2) piece was absorbed entirely at the previous step.
        # S_2 times it is spanned by the basis vectors m g with deg m > 0.
        units = [{pos: 1} for pos, (i, _) in enumerate(mod.basis(d)) if mod.gens[i] < d]
        span = {}
        for vec in units + zem.xi.columns(d):
            insert_lead(span, vec)
        cols = zem.xi.columns(d + 2)
        tdim = mod.dim(d + 2)
        # the columns of xi - alpha
        mx_cols = [
            combine_columns({0: 1, 1: -1}, [col, mod.mul_linear({j: 1}, zem.alpha, d)])
            for j, col in enumerate(cols)
        ]
        mx = column_echelon(mx_cols, tdim).kernel(dim)  # xi m = alpha m
        my = column_echelon(cols, tdim).kernel(dim)  # xi m = 0
        counts = []
        for vecs in (mx, my, mx + my):
            grown = dict(span)  # insert_lead never changes a stored row
            counts.append(sum(insert_lead(grown, vec) is not None for vec in vecs))
        a_count, b_count, ab_count = counts
        c_count = dim - len(span) - ab_count
        summands.extend([LocalSummand("M_lower", d)] * a_count)
        summands.extend([LocalSummand("M_upper", d)] * b_count)
        summands.extend([LocalSummand("P", d)] * c_count)
    # rank conservation: the summand multiset must reproduce every dimension
    for d in range(0, cap + 1, 2):
        pred = 0
        for sm in summands:
            if sm.kind == "P":
                pred += hilbert_dim(nvars, d - sm.shift)
                pred += hilbert_dim(nvars, d - sm.shift - 2)
            else:
                pred += hilbert_dim(nvars, d - sm.shift)
        if pred != mod.dim(d):
            raise InconsistencyError(
                f"rank bookkeeping mismatch at degree {d}: summands predict "
                f"{pred}, module has {mod.dim(d)}"
            )
    return sorted(summands, key=lambda sm: (sm.kind, sm.shift))


def summand_ze_module(ring: PolyRing, alpha, summands) -> ZEModule:
    """The canonical ZEModule that is the direct sum of the given summands.

    M(lower){-a}: one generator g, xi(g) = alpha g.
    M(upper){-b}: one generator g, xi(g) = 0.
    P{-c}: generators p1, p2 in degrees c and c+2 with xi(p1) = p2 and
    xi(p2) = alpha p2.
    """
    gens = []
    for sm in summands:
        gens.extend([sm.shift, sm.shift + 2] if sm.kind == "P" else [sm.shift])
    mod = FreeModule(ring, gens)
    images = []
    for sm in summands:
        unit = {mod.block_starts(sm.shift)[len(images)]: 1}
        if sm.kind == "M_lower":
            images.append(mod.mul_linear(unit, alpha, sm.shift))
        elif sm.kind == "M_upper":
            images.append({})
        else:
            p2 = {mod.block_starts(sm.shift + 2)[len(images) + 1]: 1}
            images += [p2, mod.mul_linear(p2, alpha, sm.shift + 2)]
    return ZEModule(mod, alpha, images)


def check_sanity(graph: MomentGraph) -> bool:
    """Re-verify the structural invariants of a built graph.

    No double edges between the same endpoints; every edge joins w to tw
    for its recorded reflection with a primitive positive label; distinct
    reflections never carry proportional labels; endpoints comparable
    (lower strictly shorter).  Raises RealizationError on violation.
    """
    seen = set()
    for e in graph.edges:
        key = (e.lower, e.upper)
        if key in seen:
            raise RealizationError(f"double edge at {e.lower} -> {e.upper}")
        seen.add(key)
        if e.lower.length >= e.upper.length:
            raise RealizationError(f"edge {e} is not directed upward")
        if graph.kind == "regular":
            if multiply(e.reflection, e.lower) != e.upper:
                raise RealizationError(f"edge {e} does not match its reflection")
            if not bruhat_leq(e.lower, e.upper):
                raise RealizationError(f"edge {e} joins incomparable vertices")
        if reflection_root(e.reflection).coords != e.label.coords:
            raise RealizationError(f"edge {e} carries the wrong label")
    _check_labels(graph.edges)
    return True


def check_deodhar(graph: MomentGraph) -> bool:
    """#(upward edges at y) >= l(top) - l(y) at every vertex, regular graphs."""
    if graph.kind != "regular":
        raise InputError("the up-edge lower bound applies to regular graphs")
    big_l = graph.top.length
    for w in graph.vertices:
        if len(graph.up[w]) < big_l - w.length:
            return False
    return True


def to_dot(graph: MomentGraph) -> str:
    """Deterministic DOT rendering (vertices by length, edges in order)."""
    lines = ["digraph momentgraph {"]
    lines.append('  rankdir="BT";')
    for w in graph.vertices:
        lines.append(f'  "{w}" [label="{w} (l={w.length})"];')
    for e in sorted(
        graph.edges, key=lambda e: (sort_key(e.lower), sort_key(e.upper))
    ):
        lines.append(f'  "{e.lower}" -> "{e.upper}" [label="{e.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
