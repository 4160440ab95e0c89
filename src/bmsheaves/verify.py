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

Every check returns a CheckResult with its wall-clock time; a crash
inside a check is reported as a failure of that check, never as a crash
of the suite.
"""

from __future__ import annotations

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
from .gradedlin import ModuleMap, PolyRing, combine_columns, quotient_map
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
    """Systems, algebras, graphs and sheaves shared across the checks."""

    def __init__(self, extended=False):
        self.extended = extended
        self._systems = {}
        self._algebras = {}
        self._elements = {}
        self._graphs = {}
        self._sheaves = {}
        self._characters = {}

    def system(self, name):
        if name not in self._systems:
            self._systems[name] = preset_system(name)
        return self._systems[name]

    def algebra(self, name) -> HeckeAlgebra:
        if name not in self._algebras:
            self._algebras[name] = HeckeAlgebra(self.system(name))
        return self._algebras[name]

    def elements(self, name, max_length):
        key = (name, max_length)
        if key not in self._elements:
            bound = _FULL_LENGTH[name] if max_length is None else max_length
            self._elements[key] = element_ball(self.system(name), bound)
        return self._elements[key]

    def kl_scope(self):
        return [
            ("A2", None),
            ("B2", None),
            ("A3", None),
            ("G2", None),
            ("U2", 6),
            ("U3", 4),
        ]

    def bm_scope(self):
        return [
            ("A2", None),
            ("B2", None),
            ("G2", None),
            ("A3", None if self.extended else 4),
            ("U2", 6),
            ("U3", 4),
        ]

    def kl_cases(self):
        return [
            (name, x)
            for name, bound in self.kl_scope()
            for x in self.elements(name, bound)
        ]

    def bm_cases(self):
        return [
            (name, x)
            for name, bound in self.bm_scope()
            for x in self.elements(name, bound)
        ]

    def graph(self, name, x):
        if x not in self._graphs:
            self._graphs[x] = build_graph(self.system(name), x)
        return self._graphs[x]

    def sheaf(self, name, x) -> BMSheaf:
        if x not in self._sheaves:
            self._sheaves[x] = bm_construct(self.graph(name, x))
        return self._sheaves[x]

    def bm_character(self, name, x):
        if x not in self._characters:
            self._characters[x] = character(self.sheaf(name, x))
        return self._characters[x]


def _failures(bad, checked, unit="cases"):
    if not bad:
        return True, f"{checked} {unit} checked"
    shown = "; ".join(bad[:4]) + ("; ..." if len(bad) > 4 else "")
    return False, f"{len(bad)}/{checked} failed: {shown}"


# -- the two self-dual basis routes agree -----------------------------------


def crit_kl_oracle(ctx: SuiteContext):
    bad, checked = [], 0
    for name, x in ctx.kl_cases():
        alg = ctx.algebra(name)
        checked += 1
        if alg.kl_basis(x) != alg.kl_oracle(x):
            bad.append(f"{name} x={x}")
    return _failures(bad, checked)


# -- sheaf characters equal the self-dual basis -----------------------------


def crit_characters(ctx: SuiteContext):
    bad, checked = [], 0
    for name, x in ctx.bm_cases():
        alg = ctx.algebra(name)
        checked += 1
        if ctx.bm_character(name, x) != alg.kl_basis(x):
            bad.append(f"{name} x={x}")
    return _failures(bad, checked)


# -- pinned explicit values -------------------------------------------------


def crit_explicit(ctx: SuiteContext):
    bad, checked = [], 0
    v = LaurentPoly.v()
    for name, _ in ctx.bm_scope():
        alg = ctx.algebra(name)
        system = alg.system
        checked += 1
        if alg.kl_basis(system.identity) != alg.Tt(system.identity):
            bad.append(f"{name}: basis element at e is not Tt_e")
        for s, gen in enumerate(system.generators):
            checked += 3
            if alg.kl_basis(gen) != alg.Tt(gen) + alg.Tt(system.identity, v):
                bad.append(f"{name} s={s + 1}: basis element at s")
            ts = alg.Tt(gen)
            expect = alg.Tt(system.identity) + alg.Tt(gen, LaurentPoly({-1: 1, 1: -1}))
            if alg.mult(ts, ts) != expect:
                bad.append(f"{name} s={s + 1}: Tt_s^2 relation")
            cs = alg.kl_basis(gen)
            if alg.mult(cs, cs) != cs.scale(LaurentPoly({1: 1, -1: 1})):
                bad.append(f"{name} s={s + 1}: square of the s basis element")
    alg = ctx.algebra("U3")
    for x in ctx.elements("U3", 4):
        if x.length < 2:
            continue
        checked += 2
        c = alg.kl_basis(x)
        xs = multiply(x, alg.system.generators[x.word[-1]])
        xst = multiply(xs, alg.system.generators[x.word[-2]])
        if c.coeff(xs) != v:
            bad.append(f"U3 x={x}: h at xs is {c.coeff(xs)}")
        if c.coeff(xst) != v * v:
            bad.append(f"U3 x={x}: h at xst is {c.coeff(xst)}")
    return _failures(bad, checked, "identities")


# -- costalk positivity and the forbidden pattern ---------------------------


def crit_costalk_positivity(ctx: SuiteContext):
    bad, checked = [], 0
    for name, x in ctx.bm_cases():
        bm = ctx.sheaf(name, x)
        for y, (positive, pattern_free, f) in check_conjecture_72(bm).items():
            checked += 1
            if not positive:
                bad.append(f"{name} x={x} y={y}: f={f.format()}")
            elif not pattern_free:
                bad.append(f"{name} x={x} y={y}: forbidden pattern")
    return _failures(bad, checked, "vertices")


# -- product recursion identities -------------------------------------------


def crit_product_recursion(ctx: SuiteContext):
    bad, checked = [], 0
    for name, bound in ctx.bm_scope():
        alg = ctx.algebra(name)
        for x in ctx.elements(name, bound):
            alg.kl_basis(x)
        for x, (s, prod) in sorted(
            alg.kl_products.items(), key=lambda kv: sort_key(kv[0])
        ):
            if s != min(right_descents(x)):
                bad.append(f"{name} x={x}: s={s + 1} is not its least right descent")
            gen = alg.system.generators[s]
            base = alg.kl_basis(multiply(x, gen))
            full = alg.kl_basis(x)
            for y in sorted(prod.support, key=sort_key):
                ys = multiply(y, gen)
                if ys.length > y.length:
                    continue
                checked += 2
                b_y = prod.coeff(y)
                b_ys = prod.coeff(ys)
                if b_ys != b_y.shift(1):
                    bad.append(f"{name} x={x} y={y}: v*b_y != b_ys")
                if b_ys != base.coeff(ys).shift(1) + base.coeff(y):
                    bad.append(f"{name} x={x} y={y}: b_ys via h fails")
            for y in sorted(full.support, key=sort_key):
                ys = multiply(y, gen)
                if ys.length > y.length:
                    continue
                checked += 1
                if full.coeff(ys) != full.coeff(y).shift(1):
                    bad.append(f"{name} x={x} y={y}: h_ys != v*h_y")
    return _failures(bad, checked, "identities")


# -- self-duality and support -----------------------------------------------


def crit_selfdual_support(ctx: SuiteContext):
    bad, checked = [], 0
    for name, x in ctx.bm_cases():
        alg = ctx.algebra(name)
        ch = ctx.bm_character(name, x)
        graph = ctx.graph(name, x)
        checked += 2
        if alg.bar(ch) != ch:
            bad.append(f"{name} x={x}: character not self-dual")
        if ch.support != set(graph.vertices):
            bad.append(f"{name} x={x}: support differs from [e, x]")
    return _failures(bad, checked, "characters")


# -- wall crossing at the character level -----------------------------------


def crit_theta(ctx: SuiteContext):
    bad, checked = [], 0
    for name in ("A2", "B2"):
        alg = ctx.algebra(name)
        system = alg.system
        for x in ctx.elements(name, None):
            bm = ctx.sheaf(name, x)
            graph = ctx.graph(name, x)
            for s, gen in enumerate(system.generators):
                checked += 1
                want = alg.mult(ctx.bm_character(name, x), alg.kl_basis(gen))
                if theta_character(bm, s) != want:
                    bad.append(f"{name} x={x} s={s + 1}: theta")
                for w in graph.vertices:
                    ws = multiply(w, gen)
                    if ws not in graph or ws.length > w.length:
                        continue
                    checked += 1
                    pc = costalk_interval(bm, w, s)
                    total = bm.costalk_ranks[ws] + bm.costalk_ranks[w]
                    if pc.rank != total:
                        bad.append(f"{name} x={x} pair ({ws},{w}): additivity")
    return _failures(bad, checked, "pairs")


# -- local rank relations and flabbiness ------------------------------------


def crit_local(ctx: SuiteContext):
    bad, checked = [], 0
    for name, x in ctx.bm_cases():
        bm = ctx.sheaf(name, x)
        for w in bm.graph.vertices:
            checked += 3
            rep = check_prop_71(bm, w)
            if not rep["kernel_rank"]:
                bad.append(f"{name} x={x} y={w}: kernel rank")
            if not rep["mirror"]:
                bad.append(f"{name} x={x} y={w}: degree mirror")
            if not check_flabby_additive(bm, w):
                bad.append(f"{name} x={x} y={w}: flabbiness")
    return _failures(bad, checked, "vertices")


# -- randomized structure-algebra suites ------------------------------------


def structure_sheaf(graph) -> Sheaf:
    """The sheaf with stalk S = graph.stalk everywhere and the quotient map
    S -> S/alpha as both restrictions of each edge, the edge module's
    `projection`; its sections are Z^Omega, in the basis of `ZTuple`
    entries."""
    sh = Sheaf(graph)
    for w in graph.vertices:
        sh.stalks[w] = graph.stalk
    for e in graph.edges:
        q = sh.edge_mod[e] = quotient_map(graph.stalk, e.label.coords)
        sh.rho_lower[e] = q.projection
    return sh


def section_to_ztuple(graph, space, vec) -> ZTuple:
    """Convert a sparse structure-sheaf section vector into a vertex tuple."""
    entries = []
    for w in graph.vertices:
        lo, hi = space.offsets[w]
        part = {i - lo: a for i, a in vec.items() if lo <= i < hi}
        entries.append({space.degree: part} if part else {})
    return ZTuple(graph, entries)


def lift_edge_generator(graph, sh: Sheaf, edge):
    """An integer global section restricting to den * (alpha_t, 0) on one
    edge, den > 0 the least such multiple, if there is one.

    Realizes the surjectivity of Z onto the two-vertex edge algebra in
    degree 2, up to that scalar; returns None when the degree-2 sections
    do not reach it.
    """
    space = sh.sections(graph.vertices, 2)
    lo, hi = space.offsets[edge.lower]
    ulo, uhi = space.offsets[edge.upper]
    # each section's two stalk blocks, the lower one first, as one column
    cols = []
    for vec in space.vectors:
        col = {i - lo: a for i, a in vec.items() if lo <= i < hi}
        col.update((i - ulo + hi - lo, a) for i, a in vec.items() if ulo <= i < uhi)
        cols.append(col)
    # position k of the stalk's degree-2 piece is x_k
    target = {k: a for k, a in enumerate(edge.label.coords) if a}
    sol = solve_in_span(cols, target)
    if sol is None:
        return None
    return section_to_ztuple(graph, space, combine_columns(sol[0], space.vectors))


def _random_alpha(rng, n):
    while True:
        alpha = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(alpha):
            return alpha


def _random_z(graph, sh, rng) -> ZTuple:
    """A random structure-algebra element: integer polynomial combination
    of sigma images, their products, and edge-generator lifts."""
    n = graph.system.rank
    total = ZTuple(graph, [{}] * len(graph.vertices))
    for _ in range(rng.randint(1, 3)):
        term = sigma(graph, _random_alpha(rng, n))
        if rng.random() < 0.5:
            term = term * sigma(graph, _random_alpha(rng, n))
        total = total + term * rng.randint(-3, 3)
    if rng.random() < 0.5:
        edge = graph.edges[rng.randrange(len(graph.edges))]
        lift = lift_edge_generator(graph, sh, edge)
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


def crit_structure(ctx: SuiteContext):
    rng = random.Random(SUITE_SEED)
    bad, checked = [], 0
    # sigma images are always in Z, on the largest graph of each preset
    for name, bound in ctx.bm_scope():
        x = ctx.elements(name, bound)[-1]
        graph = ctx.graph(name, x)
        n = graph.system.rank
        for _ in range(20):
            checked += 1
            alpha = _random_alpha(rng, n)
            if not z_contains(graph, sigma(graph, alpha)):
                bad.append(f"{name}: sigma({alpha}) escapes Z")
    # invariant splitting round-trips on the full finite groups
    for name in ("A2", "B2", "G2"):
        x = ctx.elements(name, None)[-1]
        graph = ctx.graph(name, x)
        sh = structure_sheaf(graph)
        for s in range(graph.system.rank):
            c_s = c_invariant(graph, s)
            for _ in range(20):
                checked += 1
                z = _random_z(graph, sh, rng)
                if not z_contains(graph, z):
                    bad.append(f"{name} s={s + 1}: random element escapes Z")
                    continue
                plus, quot = split_invariant(graph, s, z)
                if (
                    plus + c_s * quot != z * 2
                    or not z_contains(graph, plus)
                    or not z_contains(graph, quot)
                ):
                    bad.append(f"{name} s={s + 1}: split round-trip")
    # decomposition round-trips on randomized modules
    ring = PolyRing(2)
    for trial in range(20):
        checked += 1
        summands = random_ze_summands(rng)
        alpha = _random_alpha(rng, 2)
        cap = max(sm.shift for sm in summands) + 6
        zem = summand_ze_module(ring, alpha, summands)
        scrambled = scramble_ze_module(zem, rng)
        try:
            scrambled.check_square()
            got = decompose_ze_module(scrambled, cap - 2)
        except InconsistencyError as exc:
            bad.append(f"module {trial}: {exc}")
            continue
        want = sorted(summands, key=lambda sm: (sm.kind, sm.shift))
        if got != want:
            bad.append(f"module {trial}: {got} != {want}")
    return _failures(bad, checked, "trials")


# -- graph invariants -------------------------------------------------------


def crit_graph_sanity(ctx: SuiteContext):
    bad, checked = [], 0
    for name, x in ctx.bm_cases():
        graph = ctx.graph(name, x)
        checked += 2
        try:
            check_sanity(graph)
        except Exception as exc:
            bad.append(f"{name} x={x}: {exc}")
        if not check_deodhar(graph):
            bad.append(f"{name} x={x}: up-edge count bound")
    return _failures(bad, checked, "graphs")


# -- pair modules contain no upper-vertex line summand ----------------------


def crit_pair_decomposition(ctx: SuiteContext):
    bad, checked = [], 0
    for name in ("A2", "B2"):
        system = ctx.system(name)
        for x in ctx.elements(name, None):
            bm = ctx.sheaf(name, x)
            graph = ctx.graph(name, x)
            for s, gen in enumerate(system.generators):
                for w in graph.vertices:
                    ws = multiply(w, gen)
                    if ws not in graph or ws.length > w.length:
                        continue
                    checked += 1
                    zem = pair_ze_module(bm, w, s)
                    cap = bm.caps[ws] - 2
                    summands = decompose_ze_module(zem, cap)
                    if any(sm.kind == "M_upper" for sm in summands):
                        bad.append(f"{name} x={x} pair ({ws},{w}): upper-line summand")
    return _failures(bad, checked, "pairs")


# -- lifted quotient sheaves have positive characters -----------------------


def crit_lift(ctx: SuiteContext):
    bad, checked = [], 0
    for name in ("A2", "B2"):
        system = ctx.system(name)
        alg = ctx.algebra(name)
        w0 = ctx.elements(name, None)[-1]
        regular = ctx.graph(name, w0)
        for s in range(system.rank):
            checked += 1
            quotient = build_graph(system, w0, kind="quotient", s=s)
            nbm = bm_construct(quotient)
            lifted = translate_out(nbm, regular)
            ch = lifted_character(lifted, quotient.top.length)
            if alg.bar(ch) != ch:
                bad.append(f"{name} s={s + 1}: lifted character not self-dual")
                continue
            expansion = alg.expand_kl(ch)
            if not all(c.is_nonnegative() for c in expansion.values()):
                bad.append(f"{name} s={s + 1}: negative self-dual coefficient")
    return _failures(bad, checked, "lifts")


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
