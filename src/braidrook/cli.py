"""Command-line entry point: verification suites and table/graph emitters.

Exit codes: 0 every requested check passed, 1 a verified identity failed,
2 usage, parameter or resource error (bad scalars, gate violations, size
budget, out of memory).
All scalars enter as exact "p/q" strings; there is no floating point.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .acceptance import CRITERIA
from .burau import BurauParams, reduced_generator, unreduced_generator
from .cellular import bratteli, dims_table, partition_label, rook_dimension
from .diagrams import (
    ENUMERATION_BOUND,
    cycle_link_decompose,
    format_cycle_link,
    rescale_iso_check,
    rook_elements,
    verify_presentation,
)
from .lieclosure import lie_report
from .matrix import Matrix
from .scalars import IdentityError, format_scalar, parse_scalar
from .tensor import MATRIX_SIZE_BUDGET, duality_report


def _matrix_json(m: Matrix) -> list[list[str]]:
    return [[format_scalar(x) for x in row] for row in m.to_lists()]


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _blocks(d) -> list[list[int]]:
    """d as a set partition of the 2r nodes, top j as node j and bottom j as
    node r + j: each block sorted, blocks sorted by their minimum."""
    r = d.r
    blocks = [[x, r + y] for x, y in d.pairs]
    blocks += [[x] for x in range(1, r + 1) if x not in d.dom]
    blocks += [[r + y] for y in range(1, r + 1) if y not in d.im]
    return sorted(blocks)


# -- subcommands ----------------------------------------------------------


def cmd_burau(args) -> int:
    p = BurauParams(args.n, parse_scalar(args.q1), parse_scalar(args.q2))
    k = args.power if args.power is not None else 1
    if k < 1:
        raise ValueError("--power must be >= 1")
    maker = reduced_generator if args.reduced else unreduced_generator
    gens = [maker(i, p) ** k for i in range(1, p.n)]
    _emit_json(
        {
            "n": p.n,
            "q1": format_scalar(p.q1),
            "q2": format_scalar(p.q2),
            "q": format_scalar(p.q),
            "reduced": bool(args.reduced),
            "power": k,
            "generators": [_matrix_json(g) for g in gens],
        }
    )
    return 0


def cmd_rook(args) -> int:
    r = args.r
    if args.action == "enumerate":
        elements = rook_elements(r)
        if args.format == "text":
            for d in elements:
                line = format_cycle_link(cycle_link_decompose(d))
                print(f"rank {d.rank}  {line}")
            print(f"total {len(elements)}")
        else:
            _emit_json(
                {
                    "r": r,
                    "count": len(elements),
                    "diagrams": [{"r": r, "blocks": _blocks(d)} for d in elements],
                }
            )
        return 0
    z = parse_scalar(args.z)
    presentation = verify_presentation(r, z)
    rescaling = rescale_iso_check(r, z) if z != 0 else {"skipped": "z = 0"}
    all_pass = presentation["all_pass"] and rescaling.get("all_pass", True)
    _emit_json(
        {
            "r": r,
            "z": format_scalar(z),
            "presentation": presentation,
            "rescaling": rescaling,
            "all_pass": all_pass,
        }
    )
    return 0 if all_pass else 1


def cmd_dims(args) -> int:
    if args.r < 0:
        raise ValueError("r must be nonnegative")
    levels = []
    for t in range(args.r + 1):
        rows = dims_table(t)
        levels.append(
            {
                "r": t,
                "cells": [
                    {"k": row["k"], "partition": row["lambda"], "dim": row["c"]}
                    for row in rows
                ],
                "sum_of_squares": sum(row["square"] for row in rows),
            }
        )
    bad = {level["r"] for level in levels if level["sum_of_squares"] != rook_dimension(level["r"])}
    if args.format == "json":
        _emit_json({"max_r": args.r, "rows": levels})
        return 1 if bad else 0
    table = [("r", "k", "partition", "dim", "square")]
    for level in levels:
        for cell in level["cells"]:
            table.append(
                (
                    str(level["r"]),
                    str(cell["k"]),
                    partition_label(cell["partition"]),
                    str(cell["dim"]),
                    str(cell["dim"] ** 2),
                )
            )
    widths = [max(len(row[i]) for row in table) for i in range(5)]
    for row in table:
        print("  ".join(val.rjust(w) for val, w in zip(row, widths)))
    for t, level in enumerate(levels):
        equal = f"!= dim of the algebra {rook_dimension(t)}" if t in bad else "= dim of the algebra"
        print(f"r = {t}: sum of squares = {level['sum_of_squares']} {equal}")
    return 1 if bad else 0


def cmd_bratteli(args) -> int:
    diagram = bratteli(args.r)
    if args.format == "dot":
        print(diagram.to_dot())
        return 0
    if args.format == "json":
        _emit_json(
            {
                "r": args.r,
                "rows": [[list(parts) for parts in row] for row in diagram.rows],
                "edges": [[list(e) for e in level] for level in diagram.edges],
                "path_counts": diagram.path_counts(),
            }
        )
        return 0
    counts = diagram.path_counts()
    for t, row in enumerate(diagram.rows):
        labels = "  ".join(partition_label(parts) for parts in row)
        print(f"level {t}: {labels}")
    leaves = "  ".join(
        f"{partition_label(parts)}={c}" for parts, c in zip(diagram.rows[-1], counts[-1])
    )
    print(f"paths to level {args.r}: {leaves}")
    return 0


def cmd_duality(args) -> int:
    p = BurauParams(args.n, parse_scalar(args.q1), parse_scalar(args.q2))
    report = duality_report(args.n, args.r, p, budget=args.budget)
    if args.json:
        _emit_json(report)
    else:
        for check in report["checks"]:
            print(f"{check['status'].upper():4} {check['name']}: {check['detail']}")
        cert = report["certificate"]
        if cert["path"] == "character":
            print(f"certificate: rook character, envelope by Lie closure mod {cert['prime']}")
        else:
            print(f"certificate: exact dimensions ({cert['fallback_reason']})")
        verdict = "hold" if report["all_pass"] else "FAIL"
        print(
            f"n={report['n']} r={report['r']} z={report['z']}: identities {verdict}, "
            f"faithful={report['faithful']}"
        )
    return 0 if report["all_pass"] else 1


def cmd_lie(args) -> int:
    report = lie_report(args.n, parse_scalar(args.q), args.generators)
    if args.json:
        _emit_json(report)
    else:
        cert = report["certificate"]
        if cert["path"] == "modular":
            ceiling = cert["bounds"]["ceiling"]
            print(f"certificate: closure mod {cert['prime']} fills the ceiling {ceiling}")
        else:
            print(f"certificate: exact closure ({cert['fallback_reason']})")
        print(
            f"n={report['n']} q={report['q']} family={report['generators']}: "
            f"closure dimension {report['closure_dim']} "
            f"(expected {report['expected_dim']}), basis size {report['basis_size']}"
        )
    return 0 if report["ok"] else 1


def cmd_verify_all(args) -> int:
    wanted = None
    if args.only is not None:
        wanted = {name.strip() for name in args.only.split(",")}
        unknown = wanted - {c.name for c in CRITERIA}
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
    checks = []
    failed = False
    for criterion in CRITERIA:
        if wanted is not None and criterion.name not in wanted:
            continue
        start = time.perf_counter()
        ok, detail = criterion.run()
        elapsed = time.perf_counter() - start
        checks.append(
            {
                "name": criterion.name,
                "paper_ref": criterion.identity,
                "status": "pass" if ok else "fail",
                "detail": detail,
                "elapsed_seconds": elapsed,
            }
        )
        if not args.json:
            print(f"{'PASS' if ok else 'FAIL'} {criterion.name} ({elapsed:.1f}s): {detail}")
        if not ok:
            if not args.json:
                print(f"failed identity: {criterion.identity}")
            failed = True
            break
    if args.json:
        _emit_json({"suite": "verify-all", "checks": checks})
    return 1 if failed else 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidrook",
        description=(
            "Exact verification of the commuting braid-group and "
            "partial-permutation actions on tensor powers, the diagram-algebra "
            "presentation and cell structure, and the tangent-vector closures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    burau = sub.add_parser("burau", help="emit braid generator matrices as JSON")
    burau.add_argument("--n", type=int, required=True, help="number of strands")
    burau.add_argument("--q1", required=True, help="first eigenvalue, as p/q")
    burau.add_argument("--q2", required=True, help="second eigenvalue, as p/q")
    burau.add_argument("--reduced", action="store_true", help="(n-1) x (n-1) action")
    burau.add_argument("--power", type=int, help="emit k-th powers instead")
    burau.set_defaults(func=cmd_burau)

    rook = sub.add_parser(
        "rook", help="enumerate diagrams or verify the presentation at z"
    )
    rook.add_argument("--r", type=int, required=True, help=f"rank, <= {ENUMERATION_BOUND}")
    rook.add_argument("action", choices=["enumerate", "present"])
    rook.add_argument("--z", default="7", help="algebra parameter, as p/q")
    rook.add_argument("--format", choices=["text", "json"], default="json")
    rook.set_defaults(func=cmd_rook)

    dims = sub.add_parser("dims", help="cell dimension table for ranks 0..r")
    dims.add_argument("--r", type=int, required=True)
    dims.add_argument("--format", choices=["text", "json"], default="text")
    dims.set_defaults(func=cmd_dims)

    brat = sub.add_parser("bratteli", help="branching diagram of the cell labels")
    brat.add_argument("--r", type=int, required=True)
    brat.add_argument("--format", choices=["text", "dot", "json"], default="text")
    brat.set_defaults(func=cmd_bratteli)

    duality = sub.add_parser(
        "duality", help="double-centralizer report on the r-fold tensor power"
    )
    duality.add_argument("--n", type=int, required=True)
    duality.add_argument("--r", type=int, required=True)
    duality.add_argument("--q1", required=True, help="first eigenvalue, as p/q")
    duality.add_argument("--q2", required=True, help="second eigenvalue, as p/q")
    duality.add_argument("--json", action="store_true")
    duality.add_argument(
        "--budget",
        type=int,
        default=MATRIX_SIZE_BUDGET,
        help="largest n^r the report accepts, on either path",
    )
    duality.set_defaults(func=cmd_duality)

    lie = sub.add_parser("lie", help="bracket closure of the tangent generators")
    lie.add_argument("--n", type=int, required=True)
    lie.add_argument("--q", required=True, help="ratio -q2/q1, as p/q")
    lie.add_argument(
        "--generators",
        choices=["u", "v", "h"],
        default="u",
        help="generator family (u/h close to gl, v to sl)",
    )
    lie.add_argument("--json", action="store_true")
    lie.set_defaults(func=cmd_lie)

    verify = sub.add_parser("verify-all", help="run every release criterion in order")
    verify.add_argument("--json", action="store_true")
    verify.add_argument("--only", help="comma-separated subset of check names")
    verify.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IdentityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
