"""Span tracing around the public functions of each carpetgas module.

``Tracer.install`` replaces every public module-level function of each layer
(and a few public methods that carry a layer's work) with a wrapper that
records one span: name, start, end, parent span and an optional summary of
the result.  The wrapper is bound at every import site inside the package,
so ``from .specfun import incomplete_gamma`` in ``zeta`` is traced as well.
``uninstall`` restores the originals.  Spans stay in memory; the caller
writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from time import perf_counter

LAYERS = ("geometry", "graph", "eigensolve", "ldlt", "specfun", "trace",
          "zeta", "thermo", "oracle", "cli")

# Public methods that hold a layer's work and are not reachable as
# module-level functions.
METHODS = {
    "ldlt": {"LDLTFactorizer": ("__init__", "inertia")},
    "zeta": {"ZetaExtension": ("evaluate",)},
}

SOLVERS = ("eigensolve.compute_spectrum", "eigensolve.dense_eigenvalues",
           "eigensolve.slice_spectrum")


def _graph_info(g):
    return (g.n_vertices, g.n_edges)


def _spectrum_info(s):
    return (s.n, bool(s.complete))


INFO = {"graph.build_graph": _graph_info}
INFO.update({name: _spectrum_info for name in SOLVERS})


class Tracer:
    """Records spans while installed; each span is [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(out)
            return out

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = []
        for layer in LAYERS:
            try:
                modules.append((layer, importlib.import_module(f"carpetgas.{layer}")))
            except ImportError:
                continue  # a layer removed by a refactor reads as zero
        # every package namespace that binds a function, so import sites
        # (from .x import f) are traced as well as the defining module
        sites: dict[int, list[tuple[object, str]]] = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "carpetgas" or mod_name.startswith("carpetgas.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value):
                    sites.setdefault(id(value), []).append((mod, attr))
        for layer, mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for site, site_attr in sites.get(id(fn), ()):
                    self._undo.append((site, site_attr, fn))
                    setattr(site, site_attr, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = getattr(cls, meth, None) if cls is not None else None
                    if fn is None or meth not in vars(cls):
                        continue
                    self._undo.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def dump(self) -> dict:
        """Spans as {"names": [...], "spans": [[name_id, start, end, parent], ...]}."""
        names: dict[str, int] = {}
        rows = []
        for name, t0, t1, parent, _info in self.spans:
            rows.append([names.setdefault(name, len(names)),
                         round(t0, 7), round(t1, 7), parent])
        return {"names": list(names), "spans": rows}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures derived from one traced pass.

    busy_s and calls count only a layer's outermost spans (calls entering the
    layer from outside it); self_s is span time not covered by child spans.
    """
    n = len(spans)
    layer = [s[0].split(".", 1)[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    outer = [True] * n
    under_cli = [False] * n
    for i, (name, _t0, _t1, parent, _info) in enumerate(spans):
        if parent < 0:
            continue
        child[parent] += dur[i]
        under_cli[i] = under_cli[parent] or spans[parent][0] == "cli.main"
        p = parent
        while p >= 0:
            if layer[p] == layer[i]:
                outer[i] = False
                break
            p = spans[p][3]

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def seconds(*names):
        return sum(dur[i] for name in names for i in named(name))

    out: dict[str, float] = {}
    for lay in LAYERS:
        idx = [i for i in range(n) if layer[i] == lay]
        out[f"{lay}.busy_s"] = sum(dur[i] for i in idx if outer[i])
        out[f"{lay}.calls"] = sum(1 for i in idx if outer[i])
        out[f"{lay}.self_s"] = sum(dur[i] - child[i] for i in idx)

    builds = [spans[i][4] for i in named("graph.build_graph") if spans[i][4]]
    solves = [spans[i][4] for i in range(n)
              if spans[i][0] in SOLVERS and outer[i] and spans[i][4]]
    evals = [dur[i] for i in named("zeta.ZetaExtension.evaluate")]
    out.update({
        "graph.build_s": seconds("graph.build_graph"),
        "graph.laplacian_s": seconds("graph.laplacian"),
        "graph.vertices": sum(b[0] for b in builds),
        "graph.edges": sum(b[1] for b in builds),
        "eigensolve.solve_s": sum(dur[i] for i in range(n)
                                  if spans[i][0] in SOLVERS and outer[i]),
        "eigensolve.modes": sum(s[0] for s in solves),
        "eigensolve.complete_ratio": (sum(1 for s in solves if s[1]) / len(solves)
                                      if solves else 0.0),
        "eigensolve.load_s": seconds("eigensolve.load_spectrum"),
        "eigensolve.save_s": seconds("eigensolve.save_spectrum"),
        "ldlt.factor_s": seconds("ldlt.LDLTFactorizer.__init__"),
        "ldlt.inertia_s": seconds("ldlt.LDLTFactorizer.inertia"),
        "ldlt.inertia_calls": len(named("ldlt.LDLTFactorizer.inertia")),
        "trace.analyze_s": seconds("trace.analyze"),
        "trace.analyze_calls": len(named("trace.analyze")),
        "trace.windows_s": seconds("trace.default_windows"),
        "trace.heat_trace_s": seconds("trace.heat_trace"),
        "zeta.build_s": seconds("zeta.build_extension"),
        "zeta.eval_s": sum(evals),
        "zeta.evals": len(evals),
        "zeta.eval_ms_p50": 1e3 * statistics.median(evals) if evals else 0.0,
        "cli.stages": len(named("cli.main")),
        "cli.cache_hits": sum(1 for i in named("eigensolve.load_spectrum") if under_cli[i]),
        "cli.cache_misses": sum(1 for i in named("eigensolve.compute_spectrum")
                                if under_cli[i]),
        "tracing.spans": n,
    })
    return out
