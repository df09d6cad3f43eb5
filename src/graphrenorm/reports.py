"""Deterministic report serialization: JSON, DOT and CSV.

All floats are rendered with 17 significant digits and dictionary keys are
emitted sorted, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

from typing import Any, Optional

from .graphs import Graph
from .homology import BettiTable
from .lattice import (BuildingSet, LatticeReport, SubgraphPoset,
                      nested_cardinality)
from .mc import MCEstimate

SCHEMA = "1"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


# Renderers of the exact built-in scalar types; subclasses of float, int
# and str (numpy.float64, an IntEnum) take the isinstance chain of
# ``dumps`` instead.
_SCALARS = {
    int: str,
    float: format_float,
    bool: lambda x: "true" if x else "false",
    type(None): lambda _x: "null",
    str: _quote,
}


def dumps(obj: Any, indent: int = 0) -> str:
    """Minimal JSON emitter with sorted keys and fixed float format.

    Scalars of exact built-in types are rendered in place: a list or dict
    of them costs no recursive call per element."""
    render = _SCALARS.get(type(obj))
    if render is not None:
        return render(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k in sorted(obj, key=str):
            v = obj[k]
            render = _SCALARS.get(type(v))
            text = render(v) if render is not None else dumps(v, indent + 1)
            parts.append(f'{inner}"{k}": {text}')
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = []
        for v in obj:
            render = _SCALARS.get(type(v))
            text = render(v) if render is not None else dumps(v, indent + 1)
            parts.append(inner + text)
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return _quote(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_document(obj: dict) -> str:
    doc = dict(obj)
    doc.setdefault("schema", SCHEMA)
    return dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------

def graph_payload(graph: Graph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [[graph.vertices[a], graph.vertices[b]]
                  for a, b in graph.edges],
        "dim": graph.dim,
    }


def poset_payload(poset: SubgraphPoset) -> dict:
    elements = [list(s.sorted_edges) for s in poset.elements]
    covers = poset.covers()
    grading = [poset.tau(s) for s in poset.elements]
    return {
        "kind": poset.kind,
        "elements": elements,
        "covers": [list(c) for c in covers],
        "grading": grading,
    }


def lattice_report_payload(report: LatticeReport) -> dict:
    return {
        "closed_under_union": report.closed_under_union,
        "closed_under_intersection": report.closed_under_intersection,
        "graded": report.graded,
        "distributive": report.distributive,
        "ok": report.ok,
        "witness": report.witness,
    }


def betti_payload(table: BettiTable) -> dict:
    return {str(k): r for k, r in table.ranks}


def nested_payload(building: BuildingSet, nested_sets) -> dict:
    """Building set, nested sets and their cardinality report; the nested
    sets are all those of the building set."""
    report = nested_cardinality(building, nested_sets)
    return {
        "building": [list(m.sorted_edges) for m in building.members],
        "minimal": building.minimal,
        "faces": [[list(m.sorted_edges) for m in ns.members]
                  for ns in nested_sets],
        "max_cardinality": report.max_cardinality,
        "maximal_sizes": list(report.maximal_sizes),
        "all_maximal_equal": report.all_maximal_equal,
    }


def chart_payload(chart) -> dict:
    """Nested set, tree, marking table and exponent table of one chart."""
    return _chart_payload(chart, *_nested_tables(chart))


def charts_payload(charts) -> list[dict]:
    """``chart_payload`` of every chart.  Charts of one nested set share
    its member and exponent tables (one list object each) and its member
    labels, computed once per run of consecutive charts on that nested
    set."""
    out = []
    nested = tables = None
    for chart in charts:
        if tables is None or chart.nested != nested:
            nested, tables = chart.nested, _nested_tables(chart)
        out.append(_chart_payload(chart, *tables))
    return out


def _nested_tables(chart) -> tuple[list, list, list]:
    """Member edge lists, exponent table and member labels of a chart's
    nested set."""
    from .charts import pullback_exponents
    members = [list(g.sorted_edges) for g in chart.nested]
    exponents = [{"member": edges, "constant": ae.constant,
                  "s_coefficient": ae.s_coefficient}
                 for edges, ae in zip(members,
                                      pullback_exponents(chart).values())]
    return members, exponents, [g.label() for g in chart.nested]


def _chart_payload(chart, members: list, exponents: list,
                   labels: list) -> dict:
    return {
        "id": chart.chart_id(labels),
        "nested": members,
        "tree": list(chart.basis.tree.sorted_edges),
        "marking": [{"member": edges, "edge": e, "component": i}
                    for edges, (e, i) in zip(members, chart.marks)],
        "exponents": exponents,
    }


def estimate_payload(est: MCEstimate, chart: Optional[str] = None,
                     scheme: Optional[str] = None,
                     parameters: Optional[dict] = None) -> dict:
    out = {
        "value": est.value,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "batches": est.batches,
    }
    if chart is not None:
        out["chart"] = chart
    if scheme is not None:
        out["scheme"] = scheme
    if parameters:
        out["parameters"] = parameters
    return out


# ---------------------------------------------------------------------------
# DOT and CSV
# ---------------------------------------------------------------------------

def hasse_dot(poset: SubgraphPoset, name: str = "hasse") -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    labels = [s.label() for s in poset.elements]
    for lab in labels:
        lines.append(f'  "{lab}";')
    for i, j in poset.covers():
        lines.append(f'  "{labels[i]}" -> "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_csv(rows) -> str:
    out = ["samples,running_mean,running_stderr"]
    for samples, mean, err in rows:
        out.append(f"{samples},{format_float(mean)},{format_float(err)}")
    return "\n".join(out) + "\n"
