"""End-to-end verification suite.

Twelve independent checks cover everything the package claims: agreement
of the two self-dual-basis constructions, equality of sheaf characters
with that basis, pinned explicit values, positivity and support of the
character coefficients, the product recursion identities, wall-crossing
at the character level, local rank and flabbiness invariants at every
vertex, randomized structure-algebra suites, graph sanity, pair-module
decompositions, and positivity of lifted quotient-sheaf characters.

Scopes are fixed: the full groups A2, B2, G2 everywhere; A3 through
length 4 by default and in full in the extended suite; the universal
rank-2 system through length 6 and rank-3 through length 4.  Randomized
checks use a fixed seed, so the suite is deterministic end to end.

Each check is a generator that yields once per identity it tests: None
when it holds, else its failure text (`_tally`).  The number a check
prints is the count of identities it yielded, whatever its unit word
says: local-ranks-and-flabbiness yields three per vertex.  Every check
returns a CheckResult with its wall-clock time; a crash inside a check
is reported as a failure of that check, never as a crash of the suite.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

from .bmsheaf import (
    BMSheaf,
    Sheaf,
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
from .coxeter import element_ball, multiply, right_descents, sort_key
from .errors import InconsistencyError
from .gradedlin import ModuleMap, PolyRing, combine_columns
from .hecke import HeckeAlgebra
from .laurent import LaurentPoly
from .linalg import solve_in_span
from .momentgraph import (
    LocalSummand,
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
    z_contains,
)
from .presets import preset_system

__all__ = [
    "CheckResult",
    "SuiteContext",
    "run_suite",
    "CRITERIA",
    "structure_sheaf",
    "section_to_ztuple",
    "lift_edge_generator",
    "random_ze_summands",
    "scramble_ze_module",
    "SUITE_SEED",
]

SUITE_SEED = 20260815

_FULL_LENGTH = {"A2": 3, "B2": 4, "G2": 6, "A3": 6}

# the scope of the two self-dual basis routes' check, and of the pair checks
_KL_SCOPE = (
    ("A2", None), ("B2", None), ("A3", None), ("G2", None), ("U2", 6), ("U3", 4)
)
_DIHEDRAL = (("A2", None), ("B2", None))


@dataclass
class CheckResult:
    name: str
    ok: bool
    seconds: float
    detail: str = ""

    def __str__(self):
        mark = "ok  " if self.ok else "FAIL"
        out = f"[{mark}] {self.name}  ({self.seconds:.2f}s)"
        if self.detail:
            out += f"  {self.detail}"
        return out


class SuiteContext:
    """Algebras and element balls by preset name; graphs, sheaves and
    characters by element, built in the element's own system."""

    def __init__(self, extended=False):
        self.extended = extended
        self._algebras = {}
        self._elements = {}
        self._graphs = {}
        self._sheaves = {}
        self._characters = {}

    def algebra(self, name) -> HeckeAlgebra:
        if name not in self._algebras:
            self._algebras[name] = HeckeAlgebra(preset_system(name))
        return self._algebras[name]

    def system(self, name):
        return self.algebra(name).system

    def elements(self, name, max_length):
        key = (name, max_length)
        if key not in self._elements:
            bound = _FULL_LENGTH[name] if max_length is None else max_length
            self._elements[key] = element_ball(self.system(name), bound)
        return self._elements[key]

    def bm_scope(self):
        return [
            ("A2", None),
            ("B2", None),
            ("G2", None),
            ("A3", None if self.extended else 4),
            ("U2", 6),
            ("U3", 4),
        ]

    def cases(self, scope):
        """(preset name, element) over a scope's (name, length bound) pairs."""
        return [(name, x) for name, bound in scope for x in self.elements(name, bound)]

    def graph(self, x):
        if x not in self._graphs:
            self._graphs[x] = build_graph(x.system, x)
        return self._graphs[x]

    def sheaf(self, x) -> BMSheaf:
        if x not in self._sheaves:
            self._sheaves[x] = bm_construct(self.graph(x))
        return self._sheaves[x]

    def bm_character(self, x):
        if x not in self._characters:
            self._characters[x] = character(self.sheaf(x))
        return self._characters[x]


def _failures(bad, checked, unit="cases"):
    if not bad:
        return True, f"{checked} {unit} checked"
    shown = "; ".join(bad[:4]) + ("; ..." if len(bad) > 4 else "")
    return False, f"{len(bad)}/{checked} failed: {shown}"


def _tally(unit):
    """Make a check from a generator that yields once per identity it
    tests: None when the identity holds, else its failure text.  The
    check returns `_failures` of the yields, counted in `unit`."""

    def wrap(gen):
        @functools.wraps(gen)
        def check(ctx: SuiteContext):
            bad, checked = [], 0
            for failure in gen(ctx):
                checked += 1
                if failure is not None:
                    bad.append(failure)
            return _failures(bad, checked, unit)

        return check

    return wrap


# -- the two self-dual basis routes agree -----------------------------------


@_tally("cases")
def crit_kl_oracle(ctx: SuiteContext):
    for name, x in ctx.cases(_KL_SCOPE):
        alg = ctx.algebra(name)
        yield None if alg.kl_basis(x) == alg.kl_oracle(x) else f"{name} x={x}"


# -- sheaf characters equal the self-dual basis -----------------------------


@_tally("cases")
def crit_characters(ctx: SuiteContext):
    for name, x in ctx.cases(ctx.bm_scope()):
        same = ctx.bm_character(x) == ctx.algebra(name).kl_basis(x)
        yield None if same else f"{name} x={x}"


# -- pinned explicit values -------------------------------------------------


@_tally("identities")
def crit_explicit(ctx: SuiteContext):
    v = LaurentPoly.v()
    for name, _ in ctx.bm_scope():
        alg = ctx.algebra(name)
        e = alg.system.identity
        ok = alg.kl_basis(e) == alg.Tt(e)
        yield None if ok else f"{name}: basis element at e is not Tt_e"
        for s, gen in enumerate(alg.system.generators):
            ok = alg.kl_basis(gen) == alg.Tt(gen) + alg.Tt(e, v)
            yield None if ok else f"{name} s={s + 1}: basis element at s"
            ts = alg.Tt(gen)
            expect = alg.Tt(e) + alg.Tt(gen, LaurentPoly({-1: 1, 1: -1}))
            ok = alg.mult(ts, ts) == expect
            yield None if ok else f"{name} s={s + 1}: Tt_s^2 relation"
            cs = alg.kl_basis(gen)
            ok = alg.mult(cs, cs) == cs.scale(LaurentPoly({1: 1, -1: 1}))
            yield None if ok else f"{name} s={s + 1}: square of the s basis element"
    alg = ctx.algebra("U3")
    for x in ctx.elements("U3", 4):
        if x.length < 2:
            continue
        c = alg.kl_basis(x)
        xs = multiply(x, alg.system.generators[x.word[-1]])
        xst = multiply(xs, alg.system.generators[x.word[-2]])
        yield None if c.coeff(xs) == v else f"U3 x={x}: h at xs is {c.coeff(xs)}"
        yield None if c.coeff(xst) == v * v else f"U3 x={x}: h at xst is {c.coeff(xst)}"


# -- costalk positivity and the forbidden pattern ---------------------------


@_tally("vertices")
def crit_costalk_positivity(ctx: SuiteContext):
    for name, x in ctx.cases(ctx.bm_scope()):
        for y, (positive, pattern_free, f) in check_conjecture_72(ctx.sheaf(x)).items():
            if not positive:
                yield f"{name} x={x} y={y}: f={f.format()}"
            else:
                yield None if pattern_free else f"{name} x={x} y={y}: forbidden pattern"


# -- product recursion identities -------------------------------------------


@_tally("identities")
def crit_product_recursion(ctx: SuiteContext):
    for name, bound in ctx.bm_scope():
        alg = ctx.algebra(name)
        for x in ctx.elements(name, bound):
            alg.kl_basis(x)
        for x, (s, prod) in sorted(
            alg.kl_products.items(), key=lambda kv: sort_key(kv[0])
        ):
            # counted only when it fails, so a passing count is that of the
            # coefficient identities below
            if s != min(right_descents(x)):
                yield f"{name} x={x}: s={s + 1} is not its least right descent"
            gen = alg.system.generators[s]
            base = alg.kl_basis(multiply(x, gen))
            full = alg.kl_basis(x)
            for y in sorted(prod.support, key=sort_key):
                ys = multiply(y, gen)
                if ys.length > y.length:
                    continue
                b_ys = prod.coeff(ys)
                ok = b_ys == prod.coeff(y).shift(1)
                yield None if ok else f"{name} x={x} y={y}: v*b_y != b_ys"
                ok = b_ys == base.coeff(ys).shift(1) + base.coeff(y)
                yield None if ok else f"{name} x={x} y={y}: b_ys via h fails"
            for y in sorted(full.support, key=sort_key):
                ys = multiply(y, gen)
                if ys.length > y.length:
                    continue
                ok = full.coeff(ys) == full.coeff(y).shift(1)
                yield None if ok else f"{name} x={x} y={y}: h_ys != v*h_y"


# -- self-duality and support -----------------------------------------------


@_tally("characters")
def crit_selfdual_support(ctx: SuiteContext):
    for name, x in ctx.cases(ctx.bm_scope()):
        ch = ctx.bm_character(x)
        ok = ctx.algebra(name).bar(ch) == ch
        yield None if ok else f"{name} x={x}: character not self-dual"
        ok = ch.support == set(ctx.graph(x).vertices)
        yield None if ok else f"{name} x={x}: support differs from [e, x]"


# -- wall crossing at the character level -----------------------------------


def _pairs(graph, s):
    """The pairs (ws, w) of vertices of the graph with ws below w."""
    gen = graph.system.generators[s]
    for w in graph.vertices:
        ws = multiply(w, gen)
        if ws in graph and ws.length < w.length:
            yield ws, w


@_tally("pairs")
def crit_theta(ctx: SuiteContext):
    for name, x in ctx.cases(_DIHEDRAL):
        alg = ctx.algebra(name)
        bm = ctx.sheaf(x)
        for s, gen in enumerate(alg.system.generators):
            want = alg.mult(ctx.bm_character(x), alg.kl_basis(gen))
            ok = theta_character(bm, s) == want
            yield None if ok else f"{name} x={x} s={s + 1}: theta"
            for ws, w in _pairs(bm.graph, s):
                pc = costalk_interval(bm, w, s)
                ok = pc.rank == bm.costalk_ranks[ws] + bm.costalk_ranks[w]
                yield None if ok else f"{name} x={x} pair ({ws},{w}): additivity"


# -- local rank relations and flabbiness ------------------------------------


@_tally("vertices")
def crit_local(ctx: SuiteContext):
    for name, x in ctx.cases(ctx.bm_scope()):
        bm = ctx.sheaf(x)
        for w in bm.graph.vertices:
            rep = check_prop_71(bm, w)
            yield None if rep["kernel_rank"] else f"{name} x={x} y={w}: kernel rank"
            yield None if rep["mirror"] else f"{name} x={x} y={w}: degree mirror"
            ok = check_flabby_additive(bm, w)
            yield None if ok else f"{name} x={x} y={w}: flabbiness"


# -- randomized structure-algebra suites ------------------------------------


def structure_sheaf(graph) -> Sheaf:
    """The sheaf with stalk S = graph.stalk everywhere and the quotient map
    S -> S/alpha as both restrictions of each edge, the edge module's
    `projection`; the edges with one label share one module, the ring's
    S/alpha for that label.  Its sections are Z^Omega, in the basis of
    `ZTuple` entries."""
    sh = Sheaf(graph)
    for w in graph.vertices:
        sh.stalks[w] = graph.stalk
    for e in graph.edges:
        sh.rho_lower[e] = sh.edge_module(e).projection
    return sh


def section_to_ztuple(graph, offsets, d, vec) -> ZTuple:
    """The vertex tuple of a sparse degree-d structure-sheaf section
    vector, its stalks placed by `offsets` as `Sheaf.sections` returns
    them."""
    entries = []
    for w in graph.vertices:
        lo, hi = offsets[w]
        part = {i - lo: a for i, a in vec.items() if lo <= i < hi}
        entries.append({d: part} if part else {})
    return ZTuple(graph, entries)


def lift_edge_generator(graph, space, edge):
    """An integer global section restricting to den * (alpha_t, 0) on one
    edge, den > 0 the least such multiple, if there is one.

    `space` is the structure sheaf's degree-2 sections over every vertex,
    `structure_sheaf(graph).sections(graph.vertices, 2)`, solved once by
    the caller for all its lifts.  Realizes the surjectivity of Z onto the
    two-vertex edge algebra in degree 2, up to that scalar; returns None
    when the degree-2 sections do not reach it.
    """
    offsets, vectors = space
    lo, hi = offsets[edge.lower]
    ulo, uhi = offsets[edge.upper]
    # each section's two stalk blocks, the lower one first, as one column
    cols = []
    for vec in vectors:
        col = {i - lo: a for i, a in vec.items() if lo <= i < hi}
        col.update((i - ulo + hi - lo, a) for i, a in vec.items() if ulo <= i < uhi)
        cols.append(col)
    # position k of the stalk's degree-2 piece is x_k
    target = {k: a for k, a in enumerate(edge.label.coords) if a}
    sol = solve_in_span(cols, target)
    if sol is None:
        return None
    return section_to_ztuple(graph, offsets, 2, combine_columns(sol[0], vectors))


def _random_alpha(rng, n):
    while True:
        alpha = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(alpha):
            return alpha


def _random_z(graph, space, rng) -> ZTuple:
    """A random structure-algebra element: integer polynomial combination
    of sigma images, their products, and edge-generator lifts from the
    degree-2 sections `space` (see `lift_edge_generator`)."""
    n = graph.system.rank
    total = ZTuple(graph, [{}] * len(graph.vertices))
    for _ in range(rng.randint(1, 3)):
        term = sigma(graph, _random_alpha(rng, n))
        if rng.random() < 0.5:
            term = term * sigma(graph, _random_alpha(rng, n))
        total = total + term * rng.randint(-3, 3)
    if rng.random() < 0.5:
        edge = graph.edges[rng.randrange(len(graph.edges))]
        lift = lift_edge_generator(graph, space, edge)
        if lift is None:
            raise InconsistencyError(
                f"no degree-2 lift of the edge generator at {edge}"
            )
        if rng.random() < 0.5:
            lift = lift * sigma(graph, _random_alpha(rng, n))
        total = total + lift * rng.randint(-2, 2)
    const = rng.randint(-2, 2)
    entry = {0: {0: const}} if const else {}
    return total + ZTuple(graph, [entry] * len(graph.vertices))


def random_ze_summands(rng):
    """A random multiset of local summands with total rank <= 6."""
    kinds = ("M_lower", "M_upper", "P")
    out = []
    budget = 6
    while budget > 0 and (not out or rng.random() < 0.75):
        kind = kinds[rng.randrange(3)]
        if kind == "P" and budget < 2:
            kind = kinds[rng.randrange(2)]
        out.append(LocalSummand(kind, 2 * rng.randint(0, 3)))
        budget -= 2 if kind == "P" else 1
    return out


def scramble_ze_module(zem: ZEModule, rng) -> ZEModule:
    """Conjugate the xi presentation by a random module automorphism.

    The automorphism phi is unipotent with respect to (degree, generator
    index): each generator maps to itself plus random multiples of
    generators of lower degree (or equal degree and smaller index), so it
    is invertible degreewise over the integers.  The conjugated action
    sends g to phi^-1(xi(phi(g))), one solve per generator; the module is
    isomorphic and must decompose identically.
    """
    mod = zem.module
    ring = mod.ring
    unit = (0,) * ring.nvars
    images = []
    for i, gi in enumerate(mod.gens):
        vec = {mod.index(gi)[(i, unit)]: 1}
        for j, gj in enumerate(mod.gens):
            if j == i or gj > gi or (gj == gi and j > i):
                continue
            monos = ring.monomials(gi - gj)
            if monos and rng.random() < 0.7:
                m = monos[rng.randrange(len(monos))]
                vec[mod.index(gi)[(j, m)]] = rng.choice([-2, -1, 1, 2])
        images.append(vec)
    phi = ModuleMap(mod, mod, images)
    xi = []
    for g, img in zip(mod.gens, images):
        sol = solve_in_span(phi.columns(g + 2), zem.xi.apply(img, g + 2))
        if sol is None or sol[1] != 1:
            raise InconsistencyError("scramble produced a singular map")
        xi.append(sol[0])
    return ZEModule(mod, zem.alpha, xi)


@_tally("trials")
def crit_structure(ctx: SuiteContext):
    rng = random.Random(SUITE_SEED)
    # sigma images are always in Z, on the largest graph of each preset
    for name, bound in ctx.bm_scope():
        graph = ctx.graph(ctx.elements(name, bound)[-1])
        for _ in range(20):
            alpha = _random_alpha(rng, graph.system.rank)
            ok = z_contains(graph, sigma(graph, alpha))
            yield None if ok else f"{name}: sigma({alpha}) escapes Z"
    # invariant splitting round-trips on the full finite groups
    for name in ("A2", "B2", "G2"):
        graph = ctx.graph(ctx.elements(name, None)[-1])
        space = structure_sheaf(graph).sections(graph.vertices, 2)
        for s in range(graph.system.rank):
            c_s = c_invariant(graph, s)
            for _ in range(20):
                z = _random_z(graph, space, rng)
                if not z_contains(graph, z):
                    yield f"{name} s={s + 1}: random element escapes Z"
                    continue
                plus, quot = split_invariant(graph, s, z)
                ok = (
                    plus + c_s * quot == z * 2
                    and z_contains(graph, plus)
                    and z_contains(graph, quot)
                )
                yield None if ok else f"{name} s={s + 1}: split round-trip"
    # decomposition round-trips on randomized modules
    ring = PolyRing(2)
    for trial in range(20):
        summands = random_ze_summands(rng)
        alpha = _random_alpha(rng, 2)
        cap = max(sm.shift for sm in summands) + 6
        zem = summand_ze_module(ring, alpha, summands)
        scrambled = scramble_ze_module(zem, rng)
        try:
            scrambled.check_square()
            got = decompose_ze_module(scrambled, cap - 2)
        except InconsistencyError as exc:
            yield f"module {trial}: {exc}"
            continue
        want = sorted(summands, key=lambda sm: (sm.kind, sm.shift))
        yield None if got == want else f"module {trial}: {got} != {want}"


# -- graph invariants -------------------------------------------------------


@_tally("graphs")
def crit_graph_sanity(ctx: SuiteContext):
    for name, x in ctx.cases(ctx.bm_scope()):
        graph = ctx.graph(x)
        try:
            check_sanity(graph)
            yield None
        except Exception as exc:
            yield f"{name} x={x}: {exc}"
        yield None if check_deodhar(graph) else f"{name} x={x}: up-edge count bound"


# -- pair modules contain no upper-vertex line summand ----------------------


@_tally("pairs")
def crit_pair_decomposition(ctx: SuiteContext):
    for name, x in ctx.cases(_DIHEDRAL):
        bm = ctx.sheaf(x)
        for s in range(x.system.rank):
            for ws, w in _pairs(bm.graph, s):
                zem = pair_ze_module(bm, w, s)
                summands = decompose_ze_module(zem, bm.caps[ws] - 2)
                ok = all(sm.kind != "M_upper" for sm in summands)
                yield None if ok else f"{name} x={x} pair ({ws},{w}): upper-line summand"


# -- lifted quotient sheaves have positive characters -----------------------


@_tally("lifts")
def crit_lift(ctx: SuiteContext):
    for name in ("A2", "B2"):
        alg = ctx.algebra(name)
        w0 = ctx.elements(name, None)[-1]
        regular = ctx.graph(w0)
        for s in range(alg.system.rank):
            quotient = build_graph(alg.system, w0, kind="quotient", s=s)
            lifted = translate_out(bm_construct(quotient), regular)
            ch = lifted_character(lifted, quotient.top.length)
            if alg.bar(ch) != ch:
                yield f"{name} s={s + 1}: lifted character not self-dual"
                continue
            ok = all(c.is_nonnegative() for c in alg.expand_kl(ch).values())
            yield None if ok else f"{name} s={s + 1}: negative self-dual coefficient"


CRITERIA = [
    ("kl-oracle-agreement", crit_kl_oracle),
    ("bm-characters-match-kl-basis", crit_characters),
    ("explicit-hecke-values", crit_explicit),
    ("costalk-positivity", crit_costalk_positivity),
    ("product-recursion-identities", crit_product_recursion),
    ("self-duality-and-support", crit_selfdual_support),
    ("wall-crossing-characters", crit_theta),
    ("local-ranks-and-flabbiness", crit_local),
    ("structure-algebra-suite", crit_structure),
    ("graph-sanity-and-edge-bound", crit_graph_sanity),
    ("pair-module-decomposition", crit_pair_decomposition),
    ("quotient-lift-positivity", crit_lift),
]


def run_suite(extended=False, progress=None):
    """Run all checks in order; return the list of CheckResults."""
    ctx = SuiteContext(extended)
    results = []
    for name, fn in CRITERIA:
        start = time.perf_counter()
        try:
            ok, detail = fn(ctx)
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, time.perf_counter() - start, detail))
        if progress is not None:
            progress(results[-1])
    return results
