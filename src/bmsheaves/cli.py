"""Command-line front end.

Four subcommands: `kl` prints the self-dual basis element and the
classical polynomials for one top element; `bm` builds the canonical
sheaf, prints its stalk/costalk tables and character, and compares
against the self-dual basis; `graph` exports the moment graph as DOT;
`verify` runs the full check suite.  Exit codes: 0 success, 1 a
verification failure, 2 a usage or input error.

Words are 1-based digit strings ("121"); ranks beyond 9 use commas
("2,10,3"); "" or "e" is the identity.  Systems with infinite bonds
require --max-length, and the requested element must fit under it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .bmsheaf import bm_construct, character, check_conjecture_72
from .coxeter import INFINITE, bruhat_interval, load_system, normal_form, parse_word
from .errors import (
    CapError,
    InconsistencyError,
    InputError,
    NotGradedFreeError,
    RealizationError,
)
from .hecke import HeckeAlgebra
from .momentgraph import build_graph, to_dot
from .presets import PRESETS, preset_system
from .verify import run_suite

__all__ = [
    "main",
    "build_parser",
    "cmd_kl",
    "cmd_bm",
    "cmd_graph",
    "cmd_verify",
]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _resolve_system(args):
    if args.preset and args.cartan:
        raise InputError("use either --preset or --cartan, not both")
    if args.cartan:
        system = load_system(args.cartan)
        label = args.cartan
    elif args.preset:
        system = preset_system(args.preset)
        label = args.preset
    else:
        raise InputError("one of --preset or --cartan is required")
    infinite = any(m == INFINITE for row in system.coxeter for m in row)
    return system, infinite, label


def _parse_x(args, system, infinite):
    x = normal_form(system, parse_word(args.x, system.rank))
    if infinite:
        if args.max_length is None:
            raise InputError(
                "this system has infinite bonds; --max-length is required"
            )
        if x.length > args.max_length:
            raise InputError(
                f"x has length {x.length}, above --max-length {args.max_length}"
            )
    return x


def _degree_list(poly):
    out = []
    for e in sorted(poly.c):
        out.extend([e] * poly.c[e])
    return out


def _print_table(headers, rows):
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def cmd_kl(args) -> int:
    system, infinite, label = _resolve_system(args)
    x = _parse_x(args, system, infinite)
    alg = HeckeAlgebra(system)
    c = alg.kl_basis(x)
    print(f"self-dual basis element at x={x} ({label}, length {x.length})")
    rows = []
    for y in bruhat_interval(x):
        rows.append(
            (
                str(y),
                str(y.length),
                c.coeff(y).format(),
                alg.kl_polynomial(y, x).format("q"),
            )
        )
    _print_table(("y", "l(y)", "h_{y,x}", "P_{y,x}"), rows)
    if args.oracle:
        if c != alg.kl_oracle(x):
            print("oracle cross-check: MISMATCH (the two routes disagree)")
            return EXIT_FAIL
        print("oracle cross-check: ok")
    return EXIT_OK


def cmd_bm(args) -> int:
    system, infinite, label = _resolve_system(args)
    x = _parse_x(args, system, infinite)
    alg = HeckeAlgebra(system)
    graph = build_graph(system, x)
    try:
        bm = bm_construct(graph, cap_override=args.cap)
    except CapError as exc:
        if args.cap is not None:
            raise InputError(f"--cap {args.cap} is too small: {exc}") from exc
        raise
    ch = character(bm)
    klb = alg.kl_basis(x)
    match = ch == klb
    report = check_conjecture_72(bm)
    checks = {
        "self_dual": alg.bar(ch) == ch,
        "support": ch.support == set(graph.vertices),
        "positivity": all(pos and free for pos, free, _ in report.values()),
    }
    print(
        f"canonical sheaf on [e, {x}] ({label}, length {x.length}, "
        f"{len(graph.vertices)} vertices, {len(graph.edges)} edges)"
    )
    rows = []
    for y in graph.vertices:
        rows.append(
            (
                str(y),
                str(y.length),
                ",".join(str(g) for g in bm.stalks[y].gens),
                ",".join(str(d) for d in _degree_list(bm.costalk_ranks[y])),
                ch.coeff(y).format(),
                klb.coeff(y).format(),
            )
        )
    _print_table(
        ("y", "l(y)", "stalk", "costalk", "f_{y,x}", "h_{y,x}"), rows
    )
    print(f"character: {ch.format()}")
    print(f"match with the self-dual basis element: {'yes' if match else 'NO'}")
    print(
        "checks: "
        + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    )
    if args.json:
        payload = {
            "x": str(x),
            "stalks": {str(y): list(bm.stalks[y].gens) for y in graph.vertices},
            "costalks": {
                str(y): _degree_list(bm.costalk_ranks[y])
                for y in graph.vertices
            },
            "character": ch.to_json(),
            "kl": klb.to_json(),
            "match": match,
            "checks": checks,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "f", "h"])
            for y in graph.vertices:
                writer.writerow(
                    [str(x), str(y), ch.coeff(y).format(), klb.coeff(y).format()]
                )
    if args.strict and not (match and all(checks.values())):
        return EXIT_FAIL
    return EXIT_OK


def cmd_graph(args) -> int:
    system, infinite, label = _resolve_system(args)
    x = _parse_x(args, system, infinite)
    graph = build_graph(system, x)
    dot = to_dot(graph)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
        print(
            f"wrote {args.dot}: {len(graph.vertices)} vertices, "
            f"{len(graph.edges)} edges"
        )
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(
        extended=(args.suite == "extended"),
        progress=lambda r: print(r, flush=True),
    )
    failed = [r for r in results if not r.ok]
    total = sum(r.seconds for r in results)
    print(
        f"{len(results) - len(failed)}/{len(results)} checks passed "
        f"in {total:.1f}s ({args.suite} suite)"
    )
    return EXIT_FAIL if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmsheaves",
        description=(
            "Canonical sheaves on Bruhat moment graphs and the self-dual "
            "Hecke algebra basis, in exact arithmetic"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--preset", choices=PRESETS, help="built-in system")
        sp.add_argument("--cartan", metavar="FILE", help="JSON system file")
        sp.add_argument("--x", default="", metavar="WORD", help='word, e.g. "121"')
        sp.add_argument(
            "--max-length",
            type=int,
            dest="max_length",
            help="length bound, required for systems with infinite bonds",
        )

    kl = sub.add_parser("kl", help="self-dual basis element and polynomials")
    add_common(kl)
    kl.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the duality-solve construction",
    )
    kl.set_defaults(func=cmd_kl)

    bm = sub.add_parser("bm", help="build the canonical sheaf and its character")
    add_common(bm)
    bm.add_argument("--cap", type=int, help="override the per-vertex degree cap")
    bm.add_argument("--json", metavar="FILE", help="write the result as JSON")
    bm.add_argument("--csv", metavar="FILE", help="write (x, y, f, h) rows")
    bm.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the match or a check fails",
    )
    bm.set_defaults(func=cmd_bm)

    graph = sub.add_parser("graph", help="export the moment graph as DOT")
    add_common(graph)
    graph.add_argument("--dot", metavar="FILE", help="output path (default stdout)")
    graph.set_defaults(func=cmd_graph)

    verify = sub.add_parser("verify", help="run the acceptance checks")
    verify.add_argument(
        "--suite",
        choices=("default", "extended"),
        default="default",
        help="extended adds the full rank-3 finite group",
    )
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapError, NotGradedFreeError, InconsistencyError, RealizationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
