"""Span tracer that wraps the package's public functions from outside.

The tracer patches module attributes (and class attributes for methods)
with thin wrappers while it is installed, and restores the originals on
uninstall.  Each wrapped call records one span (name, start, end, parent)
in memory; self time of a span is its duration minus the durations of its
direct children.  Counters are taken at the same boundaries.

Every name a function is reachable under inside the package is patched,
because modules import one another's functions by name (``from .mc import
mc_integrate``): patching only the defining module would miss those calls.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "graphrenorm"


def _rows(x) -> int:
    arr = np.asarray(x)
    return int(arr.shape[0]) if arr.ndim > 1 else 1


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Counters taken at a boundary: fn(counters, args, kwargs, result).
def _count_points(pos, name, key):
    def count(c, args, kwargs, _result):
        c[key] += _rows(_arg(args, kwargs, pos, name))
    return count


def _count_calls(key):
    def count(c, _args, _kwargs, _result):
        c[key] += 1
    return count


def _count_sample_points(c, args, kwargs, _result):
    c["mc.sample_coordinates.points"] += int(_arg(args, kwargs, 1, "n"))


def _count_lattice(c, args, kwargs, result):
    graph = _arg(args, kwargs, 0, "graph")
    c["lattice.divergent_lattice.elements"] += len(result.elements)
    c["lattice.divergent_lattice.scanned"] += 2 ** graph.n_edges


def _count_charts(c, _args, _kwargs, result):
    c["charts.enumerate_charts.charts"] += len(result)


def _count_bytes(c, _args, _kwargs, result):
    c["reports.bytes"] += len(result.encode())


# (module, attribute, span name, counter); "Class.method" patches a method.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("graphs", "parse_graph", "graphs.parse_graph", None),
    ("graphs", "classify", "graphs.classify", None),
    ("graphs", "adapted_spanning_tree", "graphs.adapted_spanning_tree", None),
    ("graphs", "contract_mapped", "graphs.contract_mapped", None),
    ("lattice", "divergent_lattice", "lattice.divergent_lattice",
     _count_lattice),
    ("lattice", "saturated_poset", "lattice.saturated_poset", None),
    ("lattice", "check_lattice_properties",
     "lattice.check_lattice_properties", None),
    ("lattice", "irreducibles", "lattice.irreducibles", None),
    ("lattice", "maximal_building_set", "lattice.maximal_building_set", None),
    ("lattice", "enumerate_nested_sets", "lattice.enumerate_nested_sets",
     None),
    ("lattice", "max_nested_cardinality", "lattice.max_nested_cardinality",
     None),
    ("homology", "homology_from_atoms", "homology.homology_from_atoms", None),
    ("homology", "homology_gm_oracle", "homology.homology_gm_oracle", None),
    ("homology", "reduced_betti_numbers", "homology.reduced_betti_numbers",
     _count_calls("homology.reduced_betti_numbers.calls")),
    ("charts", "enumerate_charts", "charts.enumerate_charts", _count_charts),
    ("charts", "chart_for", "charts.chart_for", None),
    ("charts", "adapted_basis", "charts.adapted_basis", None),
    ("charts", "ChartKernel.__init__", "charts.ChartKernel.init", None),
    ("charts", "ChartKernel.f", "charts.ChartKernel.f",
     _count_points(1, "x", "charts.ChartKernel.f.points")),
    ("charts", "ChartKernel.rho", "charts.ChartKernel.rho", None),
    ("charts", "ChartKernel.u", "charts.ChartKernel.u", None),
    ("charts", "ChartKernel.v_edges", "charts.ChartKernel.v_edges",
     _count_points(1, "y", "charts.ChartKernel.v_edges.points")),
    ("mc", "sample_coordinates", "mc.sample_coordinates",
     _count_sample_points),
    ("bump", "BumpSpec.nu_values", "bump.nu_values",
     _count_calls("bump.nu_values.calls")),
    ("bump", "BumpSpec.test_values", "bump.test_values", None),
    ("bump", "ShellSpec.test_values", "bump.test_values", None),
    ("renorm", "period", "renorm.period", None),
    ("renorm", "leading_coefficient", "renorm.leading_coefficient", None),
    ("renorm", "pair_renormalized", "renorm.pair_renormalized",
     _count_calls("renorm.pair_renormalized.calls")),
    ("renorm", "renormalize_fixed", "renorm.renormalize_fixed", None),
    ("renorm", "renormalize_ms", "renorm.renormalize_ms", None),
    ("renorm", "ms_cutoff_difference", "renorm.ms_cutoff_difference", None),
    ("renorm", "rg_check", "renorm.rg_check", None),
    ("renorm", "locality_check", "renorm.locality_check", None),
    ("reports", "json_document", "reports.json_document", _count_bytes),
    ("reports", "graph_payload", "reports.graph_payload", None),
    ("reports", "poset_payload", "reports.poset_payload", None),
    ("reports", "nested_payload", "reports.nested_payload", None),
    ("reports", "chart_payload", "reports.chart_payload", None),
    ("reports", "estimate_payload", "reports.estimate_payload", None),
]

# mc_integrate is wrapped separately: its integrand argument gets a span of
# its own (every integrand handed to it is built in renorm) and counts of
# the values it returns.
MC_INTEGRATE = ("mc", "mc_integrate", "mc.mc_integrate")
INTEGRAND = "renorm.integrand"

MODULES = ("graphs", "lattice", "homology", "charts", "mc", "bump", "renorm",
           "reports", "cli")


class Tracer:
    """Spans and counters of the traced rounds of one run."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._stack: list = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_integrand(self, fn):
        inner = self.wrap(INTEGRAND, fn)
        counters = self.counters

        def integrand(x):
            vals = inner(x)
            arr = np.asarray(vals)
            counters["mc.integrand.values"] += arr.size
            counters["mc.integrand.nonfinite"] += \
                arr.size - int(np.count_nonzero(np.isfinite(arr)))
            counters["mc.integrand.zero"] += \
                arr.size - int(np.count_nonzero(arr))
            return vals
        return integrand

    def _mc_integrate_wrapper(self, orig):
        traced = self.wrap(MC_INTEGRATE[2], orig)
        wrap_integrand = self._wrap_integrand

        def mc_integrate(fn, *args, **kwargs):
            return traced(wrap_integrand(fn), *args, **kwargs)
        mc_integrate.__wrapped__ = orig
        return mc_integrate

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE
                                         or k.startswith(PACKAGE + "."))]
        for mod, attr, name, count in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self.wrap(name, orig, count))
                continue
            orig = getattr(module, attr)
            self._patch_everywhere(modules, orig,
                                   self.wrap(name, orig, count))
        module = sys.modules[f"{PACKAGE}.{MC_INTEGRATE[0]}"]
        orig = getattr(module, MC_INTEGRATE[1])
        self._patch_everywhere(modules, orig,
                               self._mc_integrate_wrapper(orig))

    def _patch_everywhere(self, modules, orig, wrapper) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._patch(module, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()
        if self._stack:
            raise RuntimeError("uninstall inside an open span")

    # -- derived numbers -------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
