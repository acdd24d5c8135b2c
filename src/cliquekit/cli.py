"""Command-line frontend: compute polynomials, export incidence matrices,
verify identities, and run fuzz campaigns.

The catalog of checks (cliquekit.conjectures) is imported by verify and
fuzz only, so poly, matrix and gen start without building it.

Exit codes: 0 success (conjecture-class failures are findings, not errors),
1 theorem-class regression, 2 usage or parse errors, a matrix of more than
MATRIX_CELL_LIMIT cells, or a verify check skipped because it would list
more cliques than the budget.  All randomness flows through explicit --seed
flags; stdout is byte-stable for fixed inputs and seeds (timing goes to
stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb
from pathlib import Path

from .cliques import (
    CliqueBudgetExceeded,
    _require_listing_budget,
    clique_count,
    clique_polynomial,
    poly_divided_derivative,
    poly_reverse,
)
from .graphs import (
    Graph,
    GraphFormatError,
    RngSpec,
    parse_edge_list,
    parse_graph6,
    random_gnp,
    to_graph6,
)
from .incidence import _KINDS, _column_size, _matrix


def _load_graph(args) -> Graph:
    if getattr(args, "graph6", None) is not None:
        return parse_graph6(args.graph6)
    if getattr(args, "input", None) is not None:
        return parse_edge_list(Path(args.input).read_text())
    return parse_graph6(sys.stdin.readline())


def _coeff_line(poly) -> str:
    return " ".join(str(c) for c in poly) if poly else "0"


def _parse_range(text: str, end: type, example: str) -> tuple:
    """text as lo..hi, each end parsed by end (int or float); any other text
    is a ValueError that shows example."""
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return end(lo), end(hi)
    except ValueError:
        pass
    raise ValueError(f"expected a range like {example}, got {text!r}")


# -- subcommands -------------------------------------------------------------

def cmd_poly(args) -> int:
    if args.derivative is not None and args.reversed:
        raise ValueError("--reversed cannot be combined with --derivative")
    if args.with_unit and not args.reversed:
        raise ValueError("--with-unit needs --reversed")
    g = _load_graph(args)
    poly = clique_polynomial(g)
    if args.derivative is not None:
        if args.derivative < 1:
            raise ValueError("derivative order must be >= 1")
        print(_coeff_line(poly_divided_derivative(poly, args.derivative)))
    elif args.reversed:
        print(_coeff_line(poly_reverse(poly, g.n, args.with_unit)))
    else:
        print(_coeff_line(poly))
        print(f"omega {len(poly) - 1}")
    return 0


# the most cells `matrix` builds: 44 times the largest matrix the benchmark exports
MATRIX_CELL_LIMIT = 10_000_000


def _require_cell_budget(g: Graph, kind: str, k: int) -> None:
    """Raise ValueError if the kind matrix of order k on g would have more
    than MATRIX_CELL_LIMIT cells, or if k is below the kind's smallest order;
    lists nothing.  Its rows are the k-cliques and its columns the
    (k+1)-cliques, vertices, edges or triangles.  The listing budget is
    checked first, and the cliques are counted only when C(n, k) rows by the
    columns' C(n, .) bound could exceed the limit."""
    col_size = _column_size(kind, k)
    _require_listing_budget(g, max(k, col_size))  # what the builder lists
    if comb(g.n, k) * comb(g.n, col_size) <= MATRIX_CELL_LIMIT:
        return
    rows, cols = clique_count(g, k), clique_count(g, col_size)
    if rows * cols > MATRIX_CELL_LIMIT:
        raise ValueError(
            f"the {kind} matrix of order {k} would have {rows} x {cols} = {rows * cols} "
            f"cells, over the limit of {MATRIX_CELL_LIMIT}"
        )


def cmd_matrix(args) -> int:
    g = _load_graph(args)
    _require_cell_budget(g, args.kind, args.k)
    matrix = _matrix(g, args.kind, args.k)
    if args.format == "json":
        print(matrix.to_json())
    else:
        sys.stdout.write(matrix.to_csv())
    return 0


_INSTANCE_FLAGS = {"v": "--v", "e": "--e", "delta": "--delta", "clique": "--clique",
                   "unit": "--with-unit"}  # param -> the verify flag that supplies it


def cmd_verify(args) -> int:
    from .conjectures import CHECKS, THEOREM, resolve_checks

    g = _load_graph(args)
    names = ["all-theorems"] if args.all_theorems else []
    resolved = resolve_checks(names + (args.identity or []))
    taken = {CHECKS[name].param for name in resolved}
    for param, flag in _INSTANCE_FLAGS.items():
        if getattr(args, param) is not None and param not in taken:
            raise ValueError(f"{flag} is not taken by any selected check")
    k_range = (args.k, args.k) if args.k is not None else None
    if k_range is not None and not any(CHECKS[name].takes_k(k_range) for name in resolved):
        raise ValueError(f"--k {args.k} is not taken by any selected check")
    instances = {}  # every instance flag is parsed before any check runs; --k filters
    for name in resolved:
        param = CHECKS[name].param
        if param in _INSTANCE_FLAGS and getattr(args, param) is not None:
            instances[name] = CHECKS[name].parse(g, getattr(args, param))
    reports = []
    theorem_failure = skipped = False
    for name in resolved:
        cd = CHECKS[name]
        try:
            done = (cd.reports(g, k_range, [instances[name]]) if name in instances
                    else cd.run(g, k_range))
        except CliqueBudgetExceeded as exc:
            print(f"skipped {name}: {exc}", file=sys.stderr)
            skipped = True
            continue
        for report in done:
            reports.append(report)
            if cd.kind == THEOREM and report.holds is False:
                theorem_failure = True
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], sort_keys=True, indent=2))
    else:
        for r in reports:  # every printed report holds True or False
            print(
                f"{r.identity} params={json.dumps(r.params, sort_keys=True)} "
                f"lhs={json.dumps(r.lhs)} rhs={json.dumps(r.rhs)} holds={json.dumps(r.holds)}"
            )
    return 1 if theorem_failure else 2 if skipped else 0


def cmd_fuzz(args) -> int:
    from .conjectures import CampaignConfig, run_campaign

    cfg = CampaignConfig(
        n_range=_parse_range(args.n, int, "4..10"),
        p_range=_parse_range(args.p, float, "0.2..0.8"),
        samples=args.count,
        rng=RngSpec(args.seed),
        checks=tuple(args.check),
        shrink=args.shrink,
        k_range=_parse_range(args.k, int, "4..10") if args.k else None,
    )
    report = run_campaign(cfg)
    if args.json:
        print(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    print(f"elapsed {report.elapsed_seconds:.2f}s", file=sys.stderr)
    return 1 if report.theorem_failures else 0


def cmd_gen(args) -> int:
    print(to_graph6(random_gnp(args.n, args.p, RngSpec(args.seed))))
    return 0


# -- parser -------------------------------------------------------------------

def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-g", "--graph6", metavar="G6", help="graph6-encoded input graph")
    parser.add_argument(
        "-i", "--input", metavar="FILE",
        help="edge-list file: first line n, then one 'u v' per line",
    )


def _split_ids(text: str) -> list[str]:
    """One --identity or --check value, ID[,ID...], as its list of ids."""
    return text.split(",")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquekit",
        description="Exact clique polynomials, incidence matrices, identity "
                    "verification, and conjecture fuzzing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="clique polynomial of a graph")
    _add_input_options(p_poly)
    p_poly.add_argument("--derivative", type=int, metavar="K",
                        help="print the K-th derivative divided by K!")
    p_poly.add_argument("--reversed", action="store_true",
                        help="print the reversed polynomial at exponent base n")
    p_poly.add_argument("--with-unit", action="store_true",
                        help="reversed variant keeping an extra literal constant 1")
    p_poly.set_defaults(func=cmd_poly)

    p_matrix = sub.add_parser("matrix", help="clique incidence matrices")
    _add_input_options(p_matrix)
    p_matrix.add_argument("--kind", required=True,
                          choices=sorted(_KINDS),
                          help="super: k-cliques vs (k+1)-cliques; vdeck/edeck/tdeck: "
                               "k-cliques vs deleted vertices / edges / triangle edge sets")
    p_matrix.add_argument("--k", type=int, required=True, help="clique size for the rows")
    p_matrix.add_argument("--format", choices=["csv", "json"], default="csv")
    p_matrix.set_defaults(func=cmd_matrix)

    p_verify = sub.add_parser("verify", help="run identity checks on one graph")
    _add_input_options(p_verify)
    p_verify.add_argument("--identity", action="extend", type=_split_ids, metavar="ID[,ID...]",
                          help="identity ids (see README for the catalog)")
    p_verify.add_argument("--all-theorems", action="store_true",
                          help="run every theorem-class identity")
    p_verify.add_argument("--k", type=int, help="restrict k-parameterized identities to one k")
    p_verify.add_argument("--v", type=int, help="vertex for vertex_recurrence")
    p_verify.add_argument("--e", metavar="U-V", help="edge for edge_recurrence")
    p_verify.add_argument("--delta", metavar="A-B-C",
                          help="triangle for triangle_identity / triangle_recurrence / "
                               "triangle_deletion_counts")
    p_verify.add_argument("--clique", metavar="V1-V2-...",
                          help="clique whose edges form M for clique_deletion / "
                               "clique_deletion_edge_subsets")
    p_verify.add_argument("--with-unit", dest="unit", action="store_true", default=None,
                          help="conjecture1 on the reversed polynomial with literal unit")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="run a seeded campaign over G(n, p) graphs")
    p_fuzz.add_argument("--n", required=True, metavar="A..B", help="vertex-count range")
    p_fuzz.add_argument("--p", default="0..1", metavar="X..Y",
                        help="edge-probability range (default 0..1)")
    p_fuzz.add_argument("--count", type=int, required=True, help="number of graphs")
    p_fuzz.add_argument("--seed", type=int, required=True, help="campaign seed")
    p_fuzz.add_argument("--check", action="extend", type=_split_ids, required=True,
                        metavar="ID[,ID...]", help="check ids or all-theorems")
    p_fuzz.add_argument("--k", metavar="A..B", help="restrict k-parameterized checks")
    p_fuzz.add_argument("--shrink", action="store_true",
                        help="shrink counterexamples to local minima")
    p_fuzz.add_argument("--json", action="store_true", help="JSON report instead of text")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_gen = sub.add_parser("gen", help="print the graph6 of a seeded G(n, p) sample")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("p", type=float)
    p_gen.add_argument("seed", type=int)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
