"""Command-line front end: graph ingestion, analysis pipelines, reports.

Exit codes: 0 success (and statistical checks passed), 1 statistical
failure, 2 usage or input errors (a sample count too large to allocate
among them).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import reports
from .bump import BumpSpec
from .charts import Chart, chart_for
from .errors import GraphError, ParseError
from .graphs import Graph, classify, parse_graph
from .homology import homology_from_atoms, homology_gm_oracle
from .lattice import (check_lattice_properties, divergent_lattice,
                      enumerate_nested_sets, irreducibles,
                      maximal_building_set, saturated_poset)
from .mc import DEFAULT_SEED, MCParams
from .renorm import (locality_check, period, renormalize_fixed,
                     renormalize_ms, rg_check)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph file")
    p.add_argument("--dim", type=int, default=None,
                   help="override the dimension from the file")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_format(p: argparse.ArgumentParser, other: str) -> None:
    """``--format`` for a command that emits ``other`` besides JSON; every
    other command always writes JSON."""
    p.add_argument("--format", default="json", choices=("json", other))


def _add_mc(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=float, default=1e6)
    p.add_argument("--batches", type=int, default=50)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _load_graph(args) -> Graph:
    text = Path(args.graph).read_text()
    graph = parse_graph(text)
    if args.dim is not None:
        if args.dim <= 0:
            raise ParseError(f"dimension must be positive, got {args.dim}")
        graph = Graph(graph.vertices, graph.edges, graph.base_vertex,
                      args.dim)
    return graph


def _mc_params(args) -> MCParams:
    if not math.isfinite(args.samples):
        raise ValueError(f"--samples must be finite, got {args.samples}")
    return MCParams(samples=int(args.samples), batches=args.batches,
                    seed=args.seed)


def _building(graph: Graph, which: str):
    lattice = divergent_lattice(graph)
    if which == "maximal":
        return maximal_building_set(lattice)
    return irreducibles(lattice)


def _top_chart(graph: Graph, which: str) -> Chart:
    """Chart of the first largest nested set of the building set."""
    building = _building(graph, which)
    nested = enumerate_nested_sets(building)
    if not nested:
        raise GraphError("no divergent subgraph to renormalize")
    top = max(nested, key=lambda n: len(n.members))
    return chart_for(building, top.members)


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    graph = _load_graph(args)
    lattice = divergent_lattice(graph)
    if args.format == "dot":
        _emit(args, reports.hasse_dot(lattice))
        return 0
    # first, so that a lattice beyond the oracle's atom limit fails at once
    oracle = homology_gm_oracle(lattice)
    sat = saturated_poset(graph)
    irr = irreducibles(lattice)
    building = irr if args.building == "minimal" \
        else maximal_building_set(lattice)
    nested = enumerate_nested_sets(building)
    rep = classify(graph.full())
    doc = {
        "graph": reports.graph_payload(graph),
        "classification": {
            "omega": rep.omega,
            "divergent": rep.divergent,
            "primitive": rep.primitive,
            "at_most_logarithmic": rep.at_most_logarithmic,
        },
        "divergent_lattice": reports.poset_payload(lattice),
        "saturated_poset": reports.poset_payload(sat),
        "properties":
            reports.lattice_report_payload(check_lattice_properties(lattice)),
        "irreducibles": [list(m.sorted_edges) for m in irr.members],
        "nested": reports.nested_payload(building, nested),
    }
    doc["pole_order"] = doc["nested"]["max_cardinality"]
    doc["betti_from_atoms"] = reports.betti_payload(
        homology_from_atoms(lattice))
    doc["betti_oracle"] = reports.betti_payload(oracle)
    doc["charts"] = reports.chart_inventory(building, nested)
    _emit(args, reports.json_document(doc))
    return 0


def cmd_nested(args) -> int:
    graph = _load_graph(args)
    building = _building(graph, args.building)
    nested = enumerate_nested_sets(building)
    doc = {"graph": reports.graph_payload(graph),
           "nested": reports.nested_payload(building, nested)}
    _emit(args, reports.json_document(doc))
    return 0


def cmd_homology(args) -> int:
    graph = _load_graph(args)
    lattice = divergent_lattice(graph)
    atoms = homology_from_atoms(lattice)
    oracle = homology_gm_oracle(lattice)
    doc = {"graph": reports.graph_payload(graph),
           "betti_from_atoms": reports.betti_payload(atoms),
           "betti_oracle": reports.betti_payload(oracle),
           "agree": atoms == oracle}
    _emit(args, reports.json_document(doc))
    return 0 if atoms == oracle else 1


def cmd_period(args) -> int:
    graph = _load_graph(args)
    mc = _mc_params(args)
    trace: list = []
    est = period(graph, mc, trace=trace)
    if args.format == "csv":
        _emit(args, reports.trace_csv(trace))
        return 0
    doc = reports.estimate_payload(est, scheme="period",
                                   parameters={"dim": graph.dim})
    _emit(args, reports.json_document(doc))
    print(f"period = {est.value:.6g} +/- {est.stderr:.2g}", file=sys.stderr)
    return 0


def cmd_renorm(args) -> int:
    graph = _load_graph(args)
    mc = _mc_params(args)
    chart = _top_chart(graph, args.building)
    psi = BumpSpec(args.psi_radius)
    trace: list = []
    if args.scheme == "ms":
        est = renormalize_ms(chart, args.cutoff, psi, 1.0, mc, trace=trace)
        params = {"cutoff": args.cutoff, "psi_radius": args.psi_radius}
    else:
        nu = {g: BumpSpec(args.nu_radius, kind="subtraction_nu")
              for g in chart.nested}
        est = renormalize_fixed(chart, nu, psi, 1.0, mc, trace=trace)
        params = {"nu_radius": args.nu_radius,
                  "psi_radius": args.psi_radius}
    if args.format == "csv":
        _emit(args, reports.trace_csv(trace))
        return 0
    doc = reports.estimate_payload(est, chart=chart.chart_id(),
                                   scheme=args.scheme, parameters=params)
    _emit(args, reports.json_document(doc))
    print(f"renormalized = {est.value:.6g} +/- {est.stderr:.2g}",
          file=sys.stderr)
    return 0


def cmd_rgcheck(args) -> int:
    graph = _load_graph(args)
    mc = _mc_params(args)
    chart = _top_chart(graph, args.building)
    psi = BumpSpec(args.psi_radius)
    nu = {g: BumpSpec(args.r1, kind="subtraction_nu") for g in chart.nested}
    nup = {g: BumpSpec(args.r2, kind="subtraction_nu") for g in chart.nested}
    report = rg_check(chart, nu, nup, psi, mc)
    doc = {
        "chart": chart.chart_id(),
        "lhs": reports.estimate_payload(report.lhs),
        "rhs": reports.estimate_payload(report.rhs),
        "difference": report.difference,
        "combined_stderr": report.combined_stderr,
        "n_sigma": report.n_sigma,
        "passed": report.passed,
        "terms": [{"subset": list(t.subset), "sign": t.sign,
                   "coefficient": reports.estimate_payload(t.coefficient),
                   "pairing": reports.estimate_payload(t.pairing)}
                  for t in report.terms],
    }
    _emit(args, reports.json_document(doc))
    print(f"lhs = {report.lhs.value:.6g}, rhs = {report.rhs.value:.6g}, "
          f"passed = {report.passed}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_locality(args) -> int:
    graph = _load_graph(args)
    g = graph.subgraph(int(i) for i in args.g.split(","))
    h = graph.subgraph(int(i) for i in args.h.split(","))
    mc = replace(_mc_params(args), stretch=1)
    report = locality_check(graph, g, h, numerical=args.numerical, mc=mc)
    doc = {
        "irreducibles_split": report.irreducibles_split,
        "nested_sets_split": report.nested_sets_split,
        "combinatorial_ok": report.combinatorial_ok,
        "detail": report.detail,
    }
    ok = report.combinatorial_ok
    if report.numeric is not None:
        doc["numeric"] = {
            "lhs": reports.estimate_payload(report.numeric.lhs),
            "rhs": reports.estimate_payload(report.numeric.rhs),
            "passed": report.numeric.passed,
        }
        ok = ok and report.numeric.passed
    _emit(args, reports.json_document(doc))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphrenorm",
        description="Divergent-subgraph lattices, blow-up charts and "
                    "renormalized integrals of position-space graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="lattice, homology, chart inventory")
    _add_common(p)
    _add_format(p, "dot")
    p.add_argument("--building", default="minimal",
                   choices=("minimal", "maximal"))
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("nested", help="nested-set complex")
    _add_common(p)
    p.add_argument("--building", default="minimal",
                   choices=("minimal", "maximal"))
    p.set_defaults(fn=cmd_nested)

    p = sub.add_parser("homology", help="Betti tables, both methods")
    _add_common(p)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("period", help="period of a primitive graph")
    _add_common(p)
    _add_format(p, "csv")
    _add_mc(p)
    p.set_defaults(fn=cmd_period)

    p = sub.add_parser("renorm", help="renormalized pairing")
    _add_common(p)
    _add_format(p, "csv")
    _add_mc(p)
    p.add_argument("--building", default="minimal",
                   choices=("minimal", "maximal"))
    p.add_argument("--scheme", default="fixed", choices=("ms", "fixed"))
    p.add_argument("--cutoff", type=float, default=1.0)
    p.add_argument("--nu-radius", type=float, default=1.0)
    p.add_argument("--psi-radius", type=float, default=2.0)
    p.set_defaults(fn=cmd_renorm)

    p = sub.add_parser("rgcheck", help="renormalization-group identity")
    _add_common(p)
    _add_mc(p)
    p.add_argument("--building", default="minimal",
                   choices=("minimal", "maximal"))
    p.add_argument("--r1", type=float, default=0.8)
    p.add_argument("--r2", type=float, default=1.2)
    p.add_argument("--psi-radius", type=float, default=2.0)
    p.set_defaults(fn=cmd_rgcheck)

    p = sub.add_parser("locality", help="nested-set splitting for disjoint "
                                        "divergent subgraphs")
    _add_common(p)
    _add_mc(p)
    p.add_argument("--g", required=True,
                   help="comma-separated edge indices of the first subgraph")
    p.add_argument("--h", required=True,
                   help="comma-separated edge indices of the second")
    p.add_argument("--numerical", action="store_true")
    p.set_defaults(fn=cmd_locality)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
