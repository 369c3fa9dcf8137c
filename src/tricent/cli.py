"""Command-line front end: load a network, rank nodes, compare measures, ablate.

Exit codes: 0 success, 2 input parse or usage error, 3 convergence failure,
4 parameter invalid for the graph's size. Diagnostics go to stderr; stdout
carries only the emitted table, written in one shot after the run succeeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .experiments import (
    COMPARISON_MEASURES,
    DEFAULT_SEED,
    EXPERIMENT_DAMPING,
    _check_k,
    comparison_table,
    random_removal_density,
    rank_top_k,
    removal_impact,
)
from .graph import _READERS, ParseError, _triangle_counts, density, load_graph
from .measures import ConvergenceError, Measure, _check_solver, compute

_FORMATS = ("csv", "json", "tsv")

# A table is a header plus rows of JSON-ready values: ints, strings, raw
# floats, node lists, or None. render rounds the floats to their printed precision.
Table = Tuple[List[str], List[list]]


def _parse_measures(text: str) -> Tuple[Measure, ...]:
    tags = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            tags.append(Measure(part.upper()))
        except ValueError:
            raise argparse.ArgumentTypeError(f"unknown measure {part!r}")
    if not tags:
        raise argparse.ArgumentTypeError("empty measure list")
    return tuple(dict.fromkeys(tags))  # a repeated tag counts once


def _parse_measure(text: str) -> Measure:
    tags = _parse_measures(text)
    if len([part for part in text.split(",") if part.strip()]) != 1:
        raise argparse.ArgumentTypeError("expected a single measure tag")
    return tags[0]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricent",
        description="Triangle-neighborhood centrality: rank nodes, compare "
        "measures, and gauge density impact of removing top-ranked nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, many_inputs: bool = False) -> None:
        if many_inputs:
            p.add_argument("inputs", nargs="+", metavar="input", help="network file(s)")
        else:
            p.add_argument("inputs", nargs=1, metavar="input", help="network file")
        p.add_argument("--input-format", choices=("auto", *_READERS), default="auto")
        p.add_argument("--format", choices=_FORMATS, default="csv", dest="output_format")

    def numeric(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", type=_positive_int, default=5)
        p.add_argument("--damping", type=float, default=EXPERIMENT_DAMPING)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--max-iter", type=int, default=1000)

    p_rank = sub.add_parser("rank", help="top-k nodes for one measure")
    common(p_rank)
    numeric(p_rank)
    p_rank.add_argument("--measure", type=_parse_measure, default=Measure.TC)

    p_compare = sub.add_parser("compare", help="top-k nodes for every measure")
    common(p_compare)
    numeric(p_compare)
    p_compare.add_argument("--measures", type=_parse_measures, default=COMPARISON_MEASURES)

    p_ablate = sub.add_parser("ablate", help="residual density after removing top-k nodes")
    common(p_ablate, many_inputs=True)
    numeric(p_ablate)
    p_ablate.add_argument("--measures", type=_parse_measures, default=COMPARISON_MEASURES)
    p_ablate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ablate.add_argument(
        "--plot-series",
        action="store_true",
        help="append the density-by-network series across the input files",
    )
    p_ablate.add_argument(
        "--random-baseline",
        action="store_true",
        help="append a RAND row: mean density over 100 random removals",
    )

    p_info = sub.add_parser("info", help="node/edge counts, density, triangles")
    common(p_info)

    return parser


def _solver(args: argparse.Namespace) -> Dict:
    return {"damping": args.damping, "tol": args.tol, "max_iter": args.max_iter}


def _name(path: str) -> str:
    return Path(path).stem


def render(
    args: argparse.Namespace,
    graph,
    params: Dict,
    table: Table,
    float_format: str = ".6g",
    plot: Optional[Table] = None,
) -> str:
    """The one output path: a table (plus an optional plot table) as csv, tsv or json.

    Every float of both tables is rounded to ``float_format`` first. In csv/tsv
    a node list prints as space-separated labels and None as ``undefined``; the
    plot table follows after a blank line. In json the rows become objects keyed
    by the header, and the plot table becomes its columns.
    """

    def rounded(rows: List[list]) -> List[list]:
        return [[float(format(v, float_format)) if isinstance(v, float) else v for v in row] for row in rows]

    header, rows = table[0], rounded(table[1])
    if plot is not None:
        plot = (plot[0], rounded(plot[1]))
    if args.output_format == "json":
        doc = {
            "graph": graph,
            "command": args.command,
            "params": params,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        if plot is not None:
            plot_header, plot_rows = plot
            networks, *series = (list(col) for col in zip(*plot_rows))
            doc["plot"] = {"networks": networks, "series": dict(zip(plot_header[1:], series))}
        return json.dumps(doc, indent=2) + "\n"

    sep = "," if args.output_format == "csv" else "\t"

    def cell(value) -> str:
        if value is None:
            return "undefined"
        if isinstance(value, float):
            return format(value, float_format)
        if isinstance(value, list):
            return " ".join(map(str, value))
        return str(value)

    def text(header: List[str], rows: List[list]) -> str:
        return "".join(sep.join(map(cell, line)) + "\n" for line in [header, *rows])

    out = text(header, rows)
    if plot is not None:
        out += "\n" + text(*plot)
    return out


def cmd_rank(args: argparse.Namespace) -> str:
    path = args.inputs[0]
    scores = compute(load_graph(path, fmt=args.input_format), args.measure, **_solver(args))
    top = rank_top_k(scores, args.k)
    rows = [[r, node, scores[node]] for r, node in enumerate(top, start=1)]
    params = {"measure": args.measure.value, "k": args.k, **_solver(args)}
    return render(args, _name(path), params, (["rank", "node", "score"], rows))


def cmd_compare(args: argparse.Namespace) -> str:
    path = args.inputs[0]
    g = load_graph(path, fmt=args.input_format)
    table = comparison_table(g, args.k, args.measures, **_solver(args))
    header = [m.value for m in table]
    # rows are node labels only: row r holds each measure's rank-(r+1) node
    rows = [list(row) for row in zip(*table.values())]
    params = {"measures": header, "k": args.k, **_solver(args)}
    return render(args, _name(path), params, (header, rows))


def cmd_ablate(args: argparse.Namespace) -> str:
    tags = [m.value for m in args.measures]
    graphs = []
    for path in args.inputs:  # every input is read and checked before any measure runs
        g = load_graph(path, fmt=args.input_format)
        _check_k(g, args.k, f"{path}: ")
        graphs.append(g)
    rows: List[list] = []
    plot_rows: List[list] = []  # one density-by-measure row per network
    names = [_name(p) for p in args.inputs]
    for name, g in zip(names, graphs):
        report = removal_impact(g, args.k, args.measures, **_solver(args))
        plot_rows.append([name] + [dens for dens, _ in report.values()])
        for m, (dens, removed) in report.items():
            rows.append([name, m.value, dens, list(removed)])
        if args.random_baseline:
            baseline = random_removal_density(g, args.k, trials=100, seed=args.seed)
            rows.append([name, "RAND", baseline, []])

    plot = (["network"] + tags, plot_rows) if args.plot_series else None
    graph = names[0] if len(names) == 1 else names
    params = {"measures": tags, "k": args.k, **_solver(args), "seed": args.seed}
    table = (["graph", "measure", "density", "removed"], rows)
    return render(args, graph, params, table, ".4f", plot)


def cmd_info(args: argparse.Namespace) -> str:
    path = args.inputs[0]
    g = load_graph(path, fmt=args.input_format)
    triangle_total = int(_triangle_counts(g)[0].sum()) // 3
    dens = density(g) if g.node_count >= 2 else None
    rows = [[g.node_count, g.edge_count, dens, triangle_total]]
    return render(args, _name(path), {}, (["nodes", "edges", "density", "triangles"], rows))


_COMMANDS = {
    "rank": cmd_rank,
    "compare": cmd_compare,
    "ablate": cmd_ablate,
    "info": cmd_info,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "tol" in args:  # the solvers' own rule, checked before any input is read
        try:
            _check_solver(**_solver(args))
        except ValueError as exc:
            parser.error(str(exc))
    try:
        text = _COMMANDS[args.command](args)
    except (ParseError, UnicodeDecodeError) as exc:
        print(f"tricent: parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tricent: cannot read input: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"tricent: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"tricent: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution hook
    sys.exit(main())
