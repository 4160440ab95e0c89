"""Workloads of the bmsheaves benchmark: case lists, case bodies and spans.

A case is one call sequence into the public functions of the package,
on one element given as a word.  `make_cases` turns a workload name and a
seed into the case list; `run_pass` runs every case once, closed loop and
single threaded, and returns what the case produced and how long it took.
`summarize` turns the produced objects into plain JSON, which is what the
committed reference stores and what every run is compared against.

Spans are recorded by the benchmark around each call into the package
(no instrumentation inside the package).  A span is named
`<module>.<function>`; the module is the layer.  With tracing off the
same code runs with a tracer whose spans do nothing.
"""

from __future__ import annotations

import contextlib
import random
import resource
import time
from dataclasses import dataclass

from bmsheaves import (
    HeckeAlgebra,
    bm_construct,
    bruhat_interval,
    bruhat_leq,
    build_graph,
    character,
    check_conjecture_72,
    check_prop_71,
    element_ball,
    lifted_character,
    make_system,
    normal_form,
    preset_system,
    theta_character,
    translate_out,
    word_str,
)
from bmsheaves.bmsheaf import check_flabby_additive
from bmsheaves.coxeter import sort_key

WORKLOADS = ("sheaf-ladder", "hecke-sweep", "local-checks")

_COXETER = {
    "A4": [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]],
    "affA2": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
}

# (kind, system, word, generator) with 1-based words.  Sheaf cases are
# fixed for every seed: at equal length and vertex count the nine Ã2
# elements of length 5 with 22 vertices cost from 3.3 s to 8.7 s to build,
# so drawing among them would swamp the run-to-run spread.
_SHEAF_CASES = {
    "sheaf-ladder": [
        ("bm", "A3", "2132", None),
        ("bm", "affA2", "12312", None),
        ("bm", "A3", "121321", None),
    ],
    "local-checks": [
        ("local", "A3", "12321", None),
        ("local", "G2", "121212", None),
        ("local", "B2", "1212", None),
        ("lift", "A3", "121321", 0),
        ("lift", "A3", "121321", 1),
        ("lift", "A3", "121321", 2),
    ],
}
# hecke-sweep: every element of the ball (system, max length)
_SWEEPS = {"hecke-sweep": [("A4", 10), ("affA2", 8)]}

# tiny case lists for the benchmark's own tests
_SMOKE = {
    "sheaf-ladder": [("bm", "A2", "121", None), ("bm", "B2", "121", None)],
    "local-checks": [("local", "B2", "121", None), ("lift", "A2", "121", 0)],
    "hecke-sweep": [("A2", 3), ("B2", 4)],
}


def system(name):
    if name in _COXETER:
        return make_system(_COXETER[name])
    return preset_system(name)


@dataclass
class Case:
    id: str
    kind: str
    system_name: str
    system: object
    word: tuple  # 0-based, as the package takes it
    s: int | None = None

    @property
    def key(self):
        """Reference key: what the case computes, independent of order."""
        out = f"{self.kind}:{self.system_name}:{word_str(self.word) or 'e'}"
        return out if self.s is None else f"{out}:s{self.s + 1}"


def make_cases(workload, seed, smoke=False, tracer=None):
    """The case list of a workload for a seed.

    Sheaf workloads have a fixed list.  In hecke-sweep, seed 0 takes each
    ball in (length, ShortLex) order and any other seed shuffles the
    elements within each length, so every case is a random element of the
    same system and length, and the sweep as a whole does the same work.
    """
    tracer = tracer or NULL_TRACER
    systems = {}

    def get(name):
        if name not in systems:
            systems[name] = system(name)
        return systems[name]

    if workload in _SWEEPS:
        rng = random.Random(f"{workload}:{seed}")
        cases = []
        for name, bound in (_SMOKE if smoke else _SWEEPS)[workload]:
            with tracer.span("coxeter.element_ball"):
                ball = element_ball(get(name), bound)
            by_length = {}
            for w in ball:
                by_length.setdefault(w.length, []).append(w.word)
            for length in sorted(by_length):
                words = by_length[length]
                if seed:
                    rng.shuffle(words)
                cases.extend(("kl", name, word, None) for word in words)
    elif workload in _SHEAF_CASES:
        spec = (_SMOKE if smoke else _SHEAF_CASES)[workload]
        cases = [
            (kind, name, tuple(int(c) - 1 for c in word), s)
            for kind, name, word, s in spec
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [
        Case(f"{i}", kind, name, get(name), word, s)
        for i, (kind, name, word, s) in enumerate(cases)
    ]


# -- spans ------------------------------------------------------------------


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, case id]."""

    def __init__(self):
        self.spans = []
        self.case = "setup"
        self._open = []

    def span(self, name):
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else None
        self.index = len(tr.spans)
        tr._open.append(self.index)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.case])

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._open.pop()
        return False


class _NullTracer:
    case = None
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


NULL_TRACER = _NullTracer()


def self_times(spans, keep=lambda span: True):
    """Per-layer self time: span time not covered by its child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, span in enumerate(spans):
        if keep(span):
            name, start, end = span[:3]
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def traced_figures(spans, wall_raw, factor):
    """Span totals by name and per-layer self time of the timed body,
    divided by the pass's speed factor; and the share of the body's raw
    time that package spans cover.  Spans must already exclude
    calibration time."""
    totals = {}
    for name, start, end, _, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start) / factor
    layers = self_times(
        spans, lambda s: s[4] != "setup" and s[0] not in PROBE_SPANS
    )
    covered = sum(v for k, v in layers.items() if k != "bench")
    return {
        "span_totals": totals,
        "layer_self": {k: v / factor for k, v in layers.items()},
        "coverage": covered / wall_raw if wall_raw > 0 else 0.0,
    }


# -- case bodies ------------------------------------------------------------


@dataclass
class Outcome:
    """What one case produced.  `sheaves` is dropped once the case ends."""

    value: dict
    graphs: list
    sheaves: list
    algebra_key: str
    kl_products: int
    size: int  # vertices of the sheaf's graph, or of the interval


def _bm(case, tr):
    """The `bmsheaves bm` path."""
    sys_ = case.system
    with tr.span("coxeter.normal_form"):
        x = normal_form(sys_, case.word)
    alg = HeckeAlgebra(sys_)
    with tr.span("coxeter.bruhat_interval"):
        bruhat_interval(x)
    with tr.span("momentgraph.build_graph"):
        graph = build_graph(sys_, x)
    with tr.span("bmsheaf.bm_construct"):
        bm = bm_construct(graph)
    with tr.span("bmsheaf.character"):
        ch = character(bm)
    with tr.span("hecke.kl_basis"):
        klb = alg.kl_basis(x)
    with tr.span("hecke.bar"):
        self_dual = alg.bar(ch) == ch
    with tr.span("bmsheaf.check_conjecture_72"):
        report = check_conjecture_72(bm)
    verdicts = {
        "match": ch == klb,
        "self_dual": self_dual,
        "support": ch.support == set(graph.vertices),
        "positivity": all(p and f for p, f, _ in report.values()),
    }
    value = {"character": ch, "sheaf": bm, "verdicts": verdicts}
    return Outcome(
        value, [graph], [bm], case.id, len(alg.kl_products), len(graph.vertices)
    )


def _local(case, tr):
    """Local rank identities, flabbiness and wall crossing on one sheaf."""
    sys_ = case.system
    with tr.span("coxeter.normal_form"):
        x = normal_form(sys_, case.word)
    with tr.span("coxeter.bruhat_interval"):
        bruhat_interval(x)
    with tr.span("momentgraph.build_graph"):
        graph = build_graph(sys_, x)
    with tr.span("bmsheaf.bm_construct"):
        bm = bm_construct(graph)
    with tr.span("bmsheaf.character"):
        ch = character(bm)
    prop71, flabby = {}, {}
    for w in graph.vertices:
        with tr.span("bmsheaf.check_prop_71"):
            prop71[w] = check_prop_71(bm, w)
        with tr.span("bmsheaf.check_flabby_additive"):
            flabby[w] = check_flabby_additive(bm, w)
    theta = []
    for s in range(sys_.rank):
        with tr.span("bmsheaf.theta_character"):
            theta.append(theta_character(bm, s))
    value = {
        "character": ch,
        "sheaf": bm,
        "theta": theta,
        "verdicts": {
            "prop_71": prop71,
            "flabby": flabby,
        },
    }
    return Outcome(value, [graph], [bm], case.id, 0, len(graph.vertices))


def _lift(case, tr):
    """Quotient-graph sheaf lifted to the regular graph."""
    sys_ = case.system
    with tr.span("coxeter.normal_form"):
        x = normal_form(sys_, case.word)
    alg = HeckeAlgebra(sys_)
    with tr.span("bmsheaf.quotient_lift"):
        with tr.span("coxeter.bruhat_interval"):
            bruhat_interval(x)
        with tr.span("momentgraph.build_graph"):
            regular = build_graph(sys_, x)
        with tr.span("momentgraph.build_graph"):
            quotient = build_graph(sys_, x, kind="quotient", s=case.s)
        with tr.span("bmsheaf.bm_construct"):
            nbm = bm_construct(quotient)
        with tr.span("bmsheaf.translate_out"):
            lifted = translate_out(nbm, regular)
        with tr.span("bmsheaf.lifted_character"):
            ch = lifted_character(lifted, quotient.top.length)
        with tr.span("hecke.bar"):
            self_dual = alg.bar(ch) == ch
        with tr.span("hecke.expand_kl"):
            expansion = alg.expand_kl(ch)
    value = {
        "character": ch,
        "sheaf": nbm,
        "expansion": expansion,
        "verdicts": {
            "self_dual": self_dual,
            "positivity": all(c.is_nonnegative() for c in expansion.values()),
        },
    }
    return Outcome(
        value, [regular, quotient], [nbm], case.id, len(alg.kl_products),
        len(quotient.vertices),
    )


def _kl(case, tr, algebras):
    """Both self-dual basis routes, sharing one algebra per system."""
    alg = algebras.get(case.system_name)
    if alg is None:
        alg = algebras[case.system_name] = HeckeAlgebra(case.system)
    with tr.span("coxeter.normal_form"):
        x = normal_form(case.system, case.word)
    with tr.span("coxeter.bruhat_interval"):
        size = len(bruhat_interval(x))
    with tr.span("hecke.kl_basis"):
        klb = alg.kl_basis(x)
    with tr.span("hecke.kl_oracle"):
        oracle = alg.kl_oracle(x)
    value = {"kl_basis": klb, "verdicts": {"routes_agree": klb == oracle}}
    return Outcome(value, [], [], case.system_name, len(alg.kl_products), size)


# spans that re-solve sheaves after a case; they are not part of wall_s
PROBE_SPANS = ("bmsheaf.sections_replay", "bmsheaf.costalk_dims")


def sheaf_probes(bm, tr):
    """Re-solve every {>w} section space and every costalk of a sheaf."""
    graph = bm.graph
    with tr.span("bmsheaf.sections_replay"):
        bm.clear_caches()
        for w in graph.vertices:
            if w == bm.top:
                continue
            above = [z for z in graph.vertices if z != w and bruhat_leq(w, z)]
            for d in range(0, bm.caps[w] + 1, 2):
                bm.sections(above, d)
    with tr.span("bmsheaf.costalk_dims"):
        for w in graph.vertices:
            bm.costalk_dims(w, range(0, bm.caps[w] + 1, 2))


@dataclass
class CaseResult:
    case: Case
    start: float  # perf_counter at the case's first call into the package
    end: float  # and after its last
    vertices: int
    value: dict | None
    error: str | None


def run_pass(cases, tracer=NULL_TRACER, probes=False):
    """Run every case once.  Returns (results, counts, peak RSS MiB).

    The timed body is the cases; the replay probes run after each case
    has ended.  A case that raises is recorded, not propagated.
    """
    results = []
    counts = dict.fromkeys(
        ("vertices", "edges", "section_dim_total", "stalk_gens_total"), 0
    )
    kl_products = {}
    algebras = {}
    for case in cases:
        tracer.case = case.id
        outcome, error = None, None
        start = time.perf_counter()
        with tracer.span("bench.case"):
            try:
                if case.kind == "kl":
                    outcome = _kl(case, tracer, algebras)
                else:
                    outcome = _BODIES[case.kind](case, tracer)
            except Exception as exc:  # counted against error_rate
                error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        vertices = 0
        if outcome is not None:
            vertices = outcome.size
            for g in outcome.graphs:
                counts["vertices"] += len(g.vertices)
                counts["edges"] += len(g.edges)
            for bm in outcome.sheaves:
                counts["section_dim_total"] += sum(
                    sum(log.values()) for log in bm.section_log.values()
                )
                counts["stalk_gens_total"] += sum(
                    len(st.gens) for st in bm.stalks.values()
                )
                if probes:
                    sheaf_probes(bm, tracer)
            kl_products[outcome.algebra_key] = outcome.kl_products
            if "sheaf" in outcome.value:
                outcome.value["sheaf"] = _sheaf_summary(outcome.value["sheaf"])
        results.append(
            CaseResult(case, start, end, vertices,
                       outcome.value if outcome else None, error)
        )
    counts["kl_products"] = sum(kl_products.values())
    counts["bruhat_leq_cache_entries"] = bruhat_leq.cache_info().currsize
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return results, counts, peak


_BODIES = {"bm": _bm, "local": _local, "lift": _lift}


# -- plain JSON outputs -----------------------------------------------------


def _w(x):
    return word_str(x.word) or "e"


def _degrees(poly):
    return [e for e in sorted(poly.c) for _ in range(poly.c[e])]


def _sheaf_summary(bm):
    """Stalk and costalk generator degrees and section dims of a sheaf.

    Taken as soon as the case ends, so the sheaf itself can be freed.
    """
    order = sorted(bm.graph.vertices, key=sort_key)
    return {
        "stalks": {_w(y): list(bm.stalks[y].gens) for y in order},
        "costalks": {_w(y): _degrees(bm.costalk_ranks[y]) for y in order},
        "section_log": {
            _w(y): {str(d): n for d, n in sorted(bm.section_log[y].items())}
            for y in order
            if y in bm.section_log
        },
    }


def _plain(obj):
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, dict):
        if obj and hasattr(next(iter(obj)), "word"):  # keyed by elements
            return {_w(k): _plain(obj[k]) for k in sorted(obj, key=sort_key)}
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def counts_key(workload, smoke):
    """Where the reference keeps a workload's exact counts."""
    return f"{workload}{':smoke' if smoke else ''}"


def summarize(result):
    """Plain JSON of a case's outputs, as stored in the reference."""
    return _plain(result.value)
