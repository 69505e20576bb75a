"""Spans and counters recorded from the benchmark's own wrappers.

`instrument(mods, tracer)` replaces the public functions of each dycksurf
module with wrappers that open a span, under every name its callers look
it up by (for example both `cli.enumerate_closed_geodesics` and
`geodesic.enumerate_closed_geodesics`).  The program itself is unchanged.
Spans and counters stay in memory; the parent writes them out at the end.

`layer_metrics(summaries)` turns the spans of one pass into the per-module
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import math
import time

# (metric, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = [
    ("import.constants_s", "s", "lower"),
    ("import.surface_s", "s", "lower"),
    ("import.geodesic_s", "s", "lower"),
    ("import.hexopt_s", "s", "lower"),
    ("import.capacity_s", "s", "lower"),
    ("import.cli_s", "s", "lower"),
    ("constants.time_s", "s", "lower"),
    ("surface.construct.time_s", "s", "lower"),
    ("surface.construct.faces", "count", "lower"),
    ("surface.subdivide.time_s", "s", "lower"),
    ("surface.chart.calls", "count", "lower"),
    ("surface.edge_transition.calls", "count", "lower"),
    ("geodesic.saddle_connections.time_s", "s", "lower"),
    ("geodesic.saddle_connections.calls", "count", "lower"),
    ("geodesic.saddle_connections.found", "count", "higher"),
    ("geodesic.saddle_connections.repeat_ratio", "ratio", "lower"),
    ("geodesic.faces_developed", "count", "lower"),
    ("geodesic.us_per_face_developed", "us", "lower"),
    ("geodesic.budget_used_max", "ratio", "lower"),
    ("geodesic.chain_search.self_s", "s", "lower"),
    ("geodesic.closed_geodesics.found", "count", "higher"),
    ("geodesic.trace_ray.calls", "count", "lower"),
    ("geodesic.point_distance.self_s", "s", "lower"),
    ("geodesic.point_distance.calls", "count", "lower"),
    ("geodesic.distance_field.build_s", "s", "lower"),
    ("geodesic.distance_field.solve_s", "s", "lower"),
    ("geodesic.distance_field.eval_s", "s", "lower"),
    ("geodesic.distance_field.nodes", "count", "lower"),
    ("geodesic.distance_field.sources", "count", "lower"),
    ("geodesic.distance_field.eval_points", "count", "lower"),
    ("geodesic.distance_field.solve_us_per_node", "us", "lower"),
    ("geodesic.sublevel_area.time_s", "s", "lower"),
    ("hexopt.minimize_hex.time_s", "s", "lower"),
    ("hexopt.minimize_hex.calls", "count", "lower"),
    ("hexopt.grid_points", "count", "lower"),
    ("hexopt.tradeoff.time_s", "s", "lower"),
    ("capacity.muetzel_bound.time_s", "s", "lower"),
    ("capacity.muetzel_bound.calls", "count", "lower"),
    ("capacity.fermi_half_width.calls", "count", "lower"),
    ("capacity.fem.time_s", "s", "lower"),
    ("capacity.fem.calls", "count", "lower"),
    ("capacity.fem.dofs", "count", "lower"),
    ("capacity.fem.solve_s", "s", "lower"),
    ("capacity.fem.assembly_s", "s", "lower"),
    ("capacity.fem.us_per_dof", "us", "lower"),
    ("capacity.fermi_chart.time_s", "s", "lower"),
    ("capacity.fermi_chart.faces", "count", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("cli.run_pipeline.calls", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# metrics that are counts made by the program; two traced passes with the
# same seed must reproduce them exactly
COUNT_METRICS = [m for m, unit, _ in PER_LAYER if unit == "count"] + [
    "geodesic.saddle_connections.repeat_ratio"]

# hexopt.grid_points is not counted by the program: it is computed from the
# arguments of minimize_hex (coarse grid plus the 1e-5 local grid)
COMPUTED_METRICS = {"hexopt.grid_points": "computed from minimize_hex arguments"}

IMPORT_ORDER = ["constants", "surface", "geodesic", "hexopt", "capacity", "cli"]


class Tracer:
    """In-memory spans (name, start, end, parent, run id, counts) plus
    call counters for functions too hot to span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._keep: list = []  # objects whose id() is used as a key

    def span(self, name, fn, counts=None):
        """Wrap fn so each call records a span; counts(result, args, kwargs)
        returns a dict of counts taken from the returned object."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = {"id": sid, "name": name, "run": self.run_id,
                   "parent": self._stack[-1] if self._stack else None,
                   "start": time.perf_counter(), "end": None}
            self.spans.append(rec)
            self._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                rec["counts"] = counts(out, args, kwargs)
            return out

        return wrapper

    def counter(self, name, fn):
        self.counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def identity(self, obj) -> int:
        self._keep.append(obj)
        return id(obj)


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def instrument(mods: dict, tr: Tracer) -> None:
    """Patch every traced public function under each name it is called by."""
    constants, surface, geodesic = mods["constants"], mods["surface"], mods["geodesic"]
    hexopt, capacity, cli = mods["hexopt"], mods["capacity"], mods["cli"]

    def patch(owners, attr, name, counts=None):
        wrapped = tr.span(name, getattr(owners[0], attr), counts)
        for owner in owners:
            setattr(owner, attr, wrapped)

    for attr in ("named_constant", "constant_value", "check_defining_relations"):
        patch([constants], attr, "constants")
    patch([constants, surface], "relations_ok", "constants")
    paper = constants.SurfaceParameters.__dict__["paper"].__func__
    constants.SurfaceParameters.paper = classmethod(tr.span("constants", paper))

    cs = surface.ConeSurface
    init = cs.__init__
    cs.__init__ = tr.span("surface.construct", init,
                          lambda out, a, k: {"faces": len(a[0].faces)})
    cs.chart = tr.counter("surface.chart.calls", cs.chart)
    cs.edge_transition = tr.counter("surface.edge_transition.calls",
                                    cs.edge_transition)
    patch([surface], "subdivide", "surface.subdivide")

    def sc_counts(out, a, k):
        budget = _arg(a, k, 2, "budget", 400_000)
        return {"found": len(out.connections), "faces": out.nodes_explored,
                "budget_used": out.nodes_explored / budget,
                "key": [tr.identity(a[0]), float(_arg(a, k, 1, "L_max", 0.0))]}

    patch([geodesic], "enumerate_saddle_connections",
          "geodesic.saddle_connections", sc_counts)
    patch([geodesic, cli], "enumerate_closed_geodesics",
          "geodesic.closed_geodesics", lambda out, a, k: {"found": len(out.paths)})
    patch([geodesic], "trace_ray", "geodesic.trace_ray")
    patch([geodesic], "point_distance", "geodesic.point_distance")
    patch([geodesic, capacity], "sublevel_area", "geodesic.sublevel_area")
    df = geodesic.DistanceField
    df.__init__ = tr.span("geodesic.distance_field.build", df.__init__)
    df.solve = tr.span(
        "geodesic.distance_field.solve", df.solve,
        lambda out, a, k: {"nodes": len(out.node_distance),
                           "sources": int((out.node_distance == 0).sum())})
    df.eval_points = tr.span("geodesic.distance_field.eval", df.eval_points,
                             lambda out, a, k: {"points": len(out)})

    def grid_points(out, a, k):
        grid = _arg(a, k, 1, "grid", 1e-3)
        coarse = math.ceil((math.pi - 2 * grid) / grid)
        local = math.ceil(4 * grid / 1e-5)
        return {"grid_points": coarse * coarse + local * local}

    patch([hexopt], "minimize_hex", "hexopt.minimize_hex", grid_points)
    patch([hexopt], "optimize_mobius_tradeoff", "hexopt.tradeoff")

    patch([capacity], "muetzel_bound", "capacity.muetzel_bound")
    capacity.fermi_half_width = tr.counter("capacity.fermi_half_width.calls",
                                           capacity.fermi_half_width)
    patch([capacity], "fem_capacity", "capacity.fem",
          lambda out, a, k: {"dofs": out.meta["n_vertices"]})
    patch([capacity], "spsolve", "capacity.fem.solve")
    patch([capacity], "fermi_chart_annulus", "capacity.fermi_chart",
          lambda out, a, k: {"faces": len(out.faces)})

    patch([cli], "main", "cli.command")
    patch([cli], "run_pipeline", "cli.run_pipeline")


# -- reduction ----------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the durations of its direct children."""
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def summarize(tr: Tracer) -> dict:
    """Per-name totals of one interpreter: outermost time, self time, calls
    and summed counts; saddle-connection keys are kept for the repeat ratio."""
    by_id = {s["id"]: s for s in tr.spans}
    selfs = self_times(tr.spans)
    out: dict[str, dict] = {}
    keys = set()
    budget_max = 0.0
    for s in tr.spans:
        agg = out.setdefault(s["name"], {"time": 0.0, "self": 0.0, "calls": 0,
                                         "counts": {}})
        parent = by_id.get(s["parent"])
        if parent is None or parent["name"] != s["name"]:
            agg["time"] += s["end"] - s["start"]
        agg["self"] += selfs[s["id"]]
        agg["calls"] += 1
        for k, v in s.get("counts", {}).items():
            if k == "key":
                keys.add(tuple(v))
            elif k == "budget_used":
                budget_max = max(budget_max, v)
            else:
                agg["counts"][k] = agg["counts"].get(k, 0) + v
    return {"spans": out, "counters": dict(tr.counters),
            "sc_distinct": len(keys), "budget_used_max": budget_max}


def _sum(summaries, name, field, key=None):
    total = 0
    for sm in summaries:
        agg = sm["spans"].get(name)
        if agg is None:
            continue
        total += agg["counts"].get(key, 0) if field == "counts" else agg[field]
    return total


def _per(num, den, scale=1e6):
    return num * scale / den if den else 0.0


def layer_metrics(summaries: list[dict], imports: list[dict]) -> dict:
    """Per-module metrics of one pass from its interpreters' summaries.

    Times and counts are summed over the pass's interpreters; import times
    are the median over them, since each interpreter pays the same import.
    """
    def t(name):
        return _sum(summaries, name, "time")

    def c(name, key):
        return _sum(summaries, name, "counts", key)

    def calls(name):
        return _sum(summaries, name, "calls")

    def counter(name):
        return sum(sm["counters"].get(name, 0) for sm in summaries)

    m = {}
    for mod in IMPORT_ORDER:
        vals = sorted(imp[mod] for imp in imports)
        m[f"import.{mod}_s"] = vals[len(vals) // 2] if vals else 0.0
    sc = "geodesic.saddle_connections"
    df = "geodesic.distance_field"
    distinct = sum(sm["sc_distinct"] for sm in summaries)
    m.update({
        "constants.time_s": t("constants"),
        "surface.construct.time_s": t("surface.construct"),
        "surface.construct.faces": c("surface.construct", "faces"),
        "surface.subdivide.time_s": t("surface.subdivide"),
        "surface.chart.calls": counter("surface.chart.calls"),
        "surface.edge_transition.calls": counter("surface.edge_transition.calls"),
        f"{sc}.time_s": t(sc),
        f"{sc}.calls": calls(sc),
        f"{sc}.found": c(sc, "found"),
        f"{sc}.repeat_ratio": calls(sc) / distinct if distinct else 0.0,
        "geodesic.faces_developed": c(sc, "faces"),
        "geodesic.us_per_face_developed": _per(t(sc), c(sc, "faces")),
        "geodesic.budget_used_max": max(
            (sm["budget_used_max"] for sm in summaries), default=0.0),
        "geodesic.chain_search.self_s": _sum(summaries, "geodesic.closed_geodesics", "self"),
        "geodesic.closed_geodesics.found": c("geodesic.closed_geodesics", "found"),
        "geodesic.trace_ray.calls": calls("geodesic.trace_ray"),
        "geodesic.point_distance.self_s": _sum(summaries, "geodesic.point_distance", "self"),
        "geodesic.point_distance.calls": calls("geodesic.point_distance"),
        f"{df}.build_s": t(f"{df}.build"),
        f"{df}.solve_s": t(f"{df}.solve"),
        f"{df}.eval_s": t(f"{df}.eval"),
        f"{df}.nodes": c(f"{df}.solve", "nodes"),
        f"{df}.sources": c(f"{df}.solve", "sources"),
        f"{df}.eval_points": c(f"{df}.eval", "points"),
        f"{df}.solve_us_per_node": _per(t(f"{df}.solve"), c(f"{df}.solve", "nodes")),
        "geodesic.sublevel_area.time_s": t("geodesic.sublevel_area"),
        "hexopt.minimize_hex.time_s": t("hexopt.minimize_hex"),
        "hexopt.minimize_hex.calls": calls("hexopt.minimize_hex"),
        "hexopt.grid_points": c("hexopt.minimize_hex", "grid_points"),
        "hexopt.tradeoff.time_s": t("hexopt.tradeoff"),
        "capacity.muetzel_bound.time_s": t("capacity.muetzel_bound"),
        "capacity.muetzel_bound.calls": calls("capacity.muetzel_bound"),
        "capacity.fermi_half_width.calls": counter("capacity.fermi_half_width.calls"),
        "capacity.fem.time_s": t("capacity.fem"),
        "capacity.fem.calls": calls("capacity.fem"),
        "capacity.fem.dofs": c("capacity.fem", "dofs"),
        "capacity.fem.solve_s": t("capacity.fem.solve"),
        "capacity.fem.assembly_s": _sum(summaries, "capacity.fem", "self"),
        "capacity.fem.us_per_dof": _per(t("capacity.fem"), c("capacity.fem", "dofs")),
        "capacity.fermi_chart.time_s": t("capacity.fermi_chart"),
        "capacity.fermi_chart.faces": c("capacity.fermi_chart", "faces"),
        "cli.command.self_s": _sum(summaries, "cli.command", "self"),
        "cli.run_pipeline.calls": calls("cli.run_pipeline"),
    })
    return m
