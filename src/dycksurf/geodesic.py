"""Geodesics on flat cone surfaces.

Saddle connections are found by developing the surface into the plane from
each vertex with angular visibility windows; closed geodesics are chains of
saddle connections that subtend angle at least pi on both sides at every
vertex they pass through (on a flat vertex this forces the chain to go
straight).  Distances to curves and Voronoi cells use an edge-subdivided
Dijkstra graph; areas are integrated over a barycentric subtriangle grid.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .surface import ConeSurface, Slot, SurfaceError

WINDOW_TOL = 1e-9
CAPTURE_TOL = 1e-7
ANGLE_KEY_DIGITS = 7
SIDE_ANGLE_TOL = 1e-7
# voronoi_cells decomposes the hexagonal annulus: faces of these regions
# are left out
EXCLUDED_REGIONS = ("mobius",)
# most in-face node pairs a DistanceField builds; each pair holds about
# 100 bytes while the graph is built
MAX_FIELD_PAIRS = 10_000_000
# most point-node distances DistanceField.eval_points holds at once
EVAL_BLOCK = 1 << 15


class GeodesicError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """Raised internally; callers receive a partial result with a flag."""


def _unit(v):
    return v / math.hypot(v[0], v[1])


def _cross(a, b) -> float:
    return a[0] * b[1] - a[1] * b[0]


def _wrap(a: float, total: float) -> float:
    """Angle modulo the link circle, snapping the seam to 0."""
    a %= total
    return 0.0 if total - a < 1e-9 else a


# -- vertex links -------------------------------------------------------


def _link_frame(s: ConeSurface, corner):
    """(offset, E, sigma) of a corner; see ConeSurface.link_frames."""
    row = s.link_frames[corner[0], corner[1]]
    return float(row[0]), row[1:3], float(row[3])


def angle_of(s: ConeSurface, corner, direction) -> float:
    """Link coordinate of a chart direction emanating from the corner."""
    off, E, sigma = _link_frame(s, corner)
    psi = sigma * math.atan2(_cross(E, direction), float(E @ direction))
    return _wrap(off + max(0.0, psi), s.vertex_angles[s.vertex_of(corner)])


# -- saddle connections -------------------------------------------------


@dataclass(frozen=True)
class SaddleConnection:
    """Directed geodesic segment between vertices, no vertex in its interior
    (mesh edges and straight chords alike)."""

    v_src: int
    a_src: float  # departure direction, link coordinate at v_src
    v_dst: int
    a_dst: float  # departure direction of the reversed segment at v_dst
    length: float
    start_face: int
    start_point: tuple[float, float]
    direction: tuple[float, float]

    def key(self):
        return (self.v_src, round(self.a_src, ANGLE_KEY_DIGITS),
                round(self.length, ANGLE_KEY_DIGITS))

    def reverse_key(self):
        return (self.v_dst, round(self.a_dst, ANGLE_KEY_DIGITS),
                round(self.length, ANGLE_KEY_DIGITS))


@dataclass
class SaddleConnectionSet:
    connections: list[SaddleConnection]
    complete: bool
    nodes_explored: int


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded


def _window_intersect(a, b, c, d):
    """Intersection of convex direction sectors [a,b] and [c,d] (< pi each).

    Returns None for empty or pinched (zero-width) intersections: a window
    pinches exactly when its one surviving ray ends at a vertex, and that
    vertex is a corner of the face being crossed, so it has already been
    captured; continuing would orbit the cone point forever.
    """
    lo = a if _cross(c, a) >= -WINDOW_TOL else c
    hi = b if _cross(b, d) >= -WINDOW_TOL else d
    if _cross(lo, hi) <= 1e-12:
        return None
    return lo, hi


def _seg_min_dist(p0, p1) -> float:
    d = p1 - p0
    dd = float(d @ d)
    if dd < 1e-30:
        return float(np.linalg.norm(p0))
    t = min(1.0, max(0.0, -float(p0 @ d) / dd))
    return float(np.linalg.norm(p0 + t * d))


def _in_window(wa, wb, ph) -> bool:
    return _cross(wa, ph) >= -CAPTURE_TOL and _cross(ph, wb) >= -CAPTURE_TOL


def _unfold(s, L_max, budget, stack):
    """Windowed unfolding from the developing origin.

    Stack entries are (face, R, t, wa, wb, entry slot): x |-> R @ x + t
    develops chart(face) into the plane and [wa, wb] is the sector of
    directions still visible through the crossed edges.  Each popped face
    spends one budget step and is yielded as (face, R, t, developed chart,
    wa, wb); then every glued edge within L_max that the sector still sees
    is pushed.  Edges through the origin are never crossed.
    """
    while stack:
        f, R, t, wa, wb, entry = stack.pop()
        budget.spend()
        dev = (R @ s.chart(f).T).T + t
        yield f, R, t, dev, wa, wb
        for e in range(3):
            if e == entry:
                continue
            P0, P1 = dev[e], dev[(e + 1) % 3]
            if _seg_min_dist(P0, P1) > L_max:
                continue
            r0, r1 = np.linalg.norm(P0), np.linalg.norm(P1)
            if r0 < 1e-12 or r1 < 1e-12:
                continue  # edge emanating from the origin
            c0d, c1d = P0 / r0, P1 / r1
            if _cross(c0d, c1d) < 0:
                c0d, c1d = c1d, c0d
            win = _window_intersect(wa, wb, c0d, c1d)
            if win is None or (f, e) not in s.glue_map:
                continue
            f2, e2, _, Re, te = s.edge_transition(f, e)
            stack.append((f2, R @ Re, R @ te + t, win[0], win[1], e2))


def enumerate_saddle_connections(
    s: ConeSurface, L_max: float, budget: int = 400_000
) -> SaddleConnectionSet:
    """All directed saddle connections of length <= L_max between vertices."""
    if not 0 < L_max < math.inf:
        raise GeodesicError("L_max must be finite and positive")
    found: dict[tuple, SaddleConnection] = {}
    bud = _Budget(budget)
    try:
        for f0 in range(len(s.faces)):
            ch0 = s.chart(f0)
            for c0 in range(3):
                origin = ch0[c0]
                start = tuple(origin)
                wa = _unit(ch0[(c0 + 1) % 3] - origin)
                wb = _unit(ch0[(c0 + 2) % 3] - origin)
                if _cross(wa, wb) < 0:
                    wa, wb = wb, wa
                seed = (f0, np.eye(2), -origin, wa, wb, None)
                for f, R, _, dev, wa, wb in _unfold(s, L_max, bud, [seed]):
                    for c in range(3):
                        P = dev[c]
                        r = float(np.linalg.norm(P))
                        if r < 1e-9 or r > L_max + 1e-7 or not _in_window(wa, wb, P / r):
                            continue
                        sc = _saddle_connection(s, (f0, c0), start, (f, c), P, r, R)
                        found.setdefault(sc.key(), sc)
        complete = True
    except BudgetExceeded:
        complete = False
    conns = _drop_colinear(found.values())
    conns.sort(key=lambda sc: (sc.length, sc.key()))
    return SaddleConnectionSet(conns, complete, bud.used)


def _saddle_connection(s, src, start, dst, P, r, R) -> SaddleConnection:
    """Connection from corner src (chart point `start`) to corner dst,
    developed at P with |P| = r by a map with linear part R."""
    a_src = angle_of(s, src, P / r)
    back = -(P / r)
    off_t, E_t, sigma_t = _link_frame(s, dst)
    # directions develop by the rotation part only; a reflection in the
    # developing map reverses the rotation sense
    E_dev = R @ E_t
    det = R[0, 0] * R[1, 1] - R[0, 1] * R[1, 0]
    psi = sigma_t * det * math.atan2(_cross(E_dev, back), float(E_dev @ back))
    v_dst = s.vertex_of(dst)
    a_dst = _wrap(off_t + max(0.0, psi), s.vertex_angles[v_dst])
    return SaddleConnection(s.vertex_of(src), a_src, v_dst, a_dst, r, src[0],
                            start, tuple(P / r))


def _drop_colinear(conns) -> list[SaddleConnection]:
    """Keep only the nearest vertex in each direction: a longer capture in
    the same direction passes through the shorter one's endpoint, so it is
    not a saddle connection (chains reconstruct the pass-through paths)."""
    by_src: dict[int, list[SaddleConnection]] = {}
    for sc in conns:
        by_src.setdefault(sc.v_src, []).append(sc)
    out = []
    for group in by_src.values():
        group.sort(key=lambda sc: (sc.a_src, sc.length))
        kept: list[SaddleConnection] = []
        for sc in group:
            if kept and abs(sc.a_src - kept[-1].a_src) < 1e-9:
                if sc.length >= kept[-1].length:
                    continue
                kept.pop()
            kept.append(sc)
        out.extend(kept)
    return out


# -- tracing and geodesic paths ----------------------------------------


@dataclass
class Segment:
    face: int
    p_in: np.ndarray
    p_out: np.ndarray
    exit_slot: int | None

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.p_out - self.p_in))


def trace_ray(s: ConeSurface, f: int, p, d, length: float,
              entry_slot: int | None = None) -> list[Segment]:
    """Straight geodesic of given length from p in chart(f), direction d.

    Raises GeodesicError if the ray hits a vertex before its endpoint or
    leaves the surface through a boundary edge.
    """
    p = np.asarray(p, dtype=float)
    d = np.asarray(_unit(np.asarray(d, dtype=float)))
    remaining = float(length)
    segs: list[Segment] = []
    for _ in range(100_000):
        ch = s.chart(f)
        best = None
        for e in range(3):
            if e == entry_slot:
                continue
            q0, q1 = ch[e], ch[(e + 1) % 3]
            det = d[0] * (q0[1] - q1[1]) - d[1] * (q0[0] - q1[0])
            if abs(det) < 1e-14:
                continue
            rx, ry = q0[0] - p[0], q0[1] - p[1]
            t = (rx * (q0[1] - q1[1]) - ry * (q0[0] - q1[0])) / det
            u = (d[0] * ry - d[1] * rx) / det
            if t > 1e-9 and -1e-9 <= u <= 1 + 1e-9:
                if best is None or t < best[0]:
                    best = (t, e, u)
        if best is None or best[0] >= remaining - 1e-9:
            segs.append(Segment(f, p.copy(), p + remaining * d, None))
            return segs
        t, e, u = best
        if min(u, 1 - u) < 1e-9:
            raise GeodesicError(f"ray passes through a vertex in face {f}")
        exit_pt = p + t * d
        segs.append(Segment(f, p.copy(), exit_pt, e))
        remaining -= t
        g = s.glue_map.get((f, e))
        if g is None:
            raise GeodesicError(f"ray leaves the surface at boundary ({f},{e})")
        f2, e2, _, R, tt = s.edge_transition(f, e)
        p = R.T @ (exit_pt - tt)
        d = R.T @ d
        f, entry_slot = f2, e2
    raise GeodesicError("trace did not terminate")


@dataclass
class GeodesicPath:
    """Piecewise-straight path across faces; closed paths carry the vertex
    incidences with the two side angles at each vertex."""

    segments: list[Segment]
    incidences: list[tuple[int, float, float]]
    length: float
    closed: bool

    @property
    def kind(self) -> str:
        flat = all(
            abs(a + b - 2 * math.pi) < 1e-7 for _, a, b in self.incidences
        )
        return "soul" if self.closed and flat else "saddle-chain"

    def face_sequence(self) -> list[int]:
        return [seg.face for seg in self.segments]

    def cone_points(self) -> list[int]:
        return [v for v, _, _ in self.incidences]

    def validate(self, s: ConeSurface, tol: float = 1e-10) -> None:
        if not self.segments:
            raise GeodesicError("empty path")
        total = sum(seg.length for seg in self.segments)
        if abs(total - self.length) > 1e-8:
            raise GeodesicError("length mismatch")
        n = len(self.segments)
        last = n if self.closed else n - 1
        for i in range(last):
            a = self.segments[i]
            b = self.segments[(i + 1) % n]
            if a.exit_slot is not None:
                f2, _, _, R, t = s.edge_transition(a.face, a.exit_slot)
                if f2 != b.face:
                    raise GeodesicError("face sequence mismatch")
                if np.linalg.norm(R @ b.p_in + t - a.p_out) > tol:
                    raise GeodesicError("segments do not match across gluing")
                da = a.p_out - a.p_in
                db = R @ (b.p_out - b.p_in)
                if abs(_cross(da, db)) > 1e-8 * np.linalg.norm(da) * np.linalg.norm(db) or float(da @ db) < 0:
                    raise GeodesicError("path bends at an edge crossing")
            else:
                va = _chart_vertex_at(s, a.face, a.p_out, tol=1e-8)
                vb = _chart_vertex_at(s, b.face, b.p_in, tol=1e-8)
                if va is None or vb is None or s.vertex_of(va) != s.vertex_of(vb):
                    raise GeodesicError("segments do not meet at a common vertex")
        for v, left, right in self.incidences:
            if min(left, right) < math.pi - SIDE_ANGLE_TOL:
                raise GeodesicError(f"side angle below pi at vertex {v}")


def _chart_vertex_at(s, f, p, tol):
    ch = s.chart(f)
    for c in range(3):
        if np.linalg.norm(ch[c] - p) < tol:
            return (f, c)
    return None


# -- closed geodesics ---------------------------------------------------


@dataclass
class EnumerationResult:
    paths: list[GeodesicPath]
    complete: bool
    n_saddle_connections: int


def _chain_gap(theta: float, a_in: float, a_out: float) -> tuple[float, float]:
    delta = (a_out - a_in) % theta
    return delta, theta - delta


def _cycle_canonical(cycle: list[SaddleConnection]):
    fwd = [sc.key() for sc in cycle]
    rev = [sc.reverse_key() for sc in reversed(cycle)]
    n = len(cycle)
    cands = [tuple(fwd[i:] + fwd[:i]) for i in range(n)]
    cands += [tuple(rev[i:] + rev[:i]) for i in range(n)]
    return min(cands)


def _build_path(s: ConeSurface, cycle: list[SaddleConnection]) -> GeodesicPath:
    segments: list[Segment] = []
    incidences = []
    n = len(cycle)
    for i, sc in enumerate(cycle):
        segments += trace_ray(s, sc.start_face, sc.start_point, sc.direction,
                              sc.length)
        nxt = cycle[(i + 1) % n]
        theta = s.vertex_angles[sc.v_dst]
        left, right = _chain_gap(theta, sc.a_dst, nxt.a_src)
        incidences.append((sc.v_dst, left, right))
    length = sum(sc.length for sc in cycle)
    return GeodesicPath(segments, incidences, length, closed=True)


def enumerate_closed_geodesics(
    s: ConeSurface, L_max: float, budget: int = 400_000
) -> EnumerationResult:
    """Closed geodesics of length <= L_max as chains of saddle connections,
    deduplicated by unoriented trace, sorted by length."""
    if not s.is_closed:
        raise GeodesicError("surface must be closed")
    scs = enumerate_saddle_connections(s, L_max, budget)
    conns = scs.connections
    by_src: dict[int, list[int]] = {}
    for i, sc in enumerate(conns):
        by_src.setdefault(sc.v_src, []).append(i)
    succ: dict[int, list[int]] = {}
    for i, sc in enumerate(conns):
        theta = s.vertex_angles[sc.v_dst]
        out = []
        for j in by_src.get(sc.v_dst, []):
            left, right = _chain_gap(theta, sc.a_dst, conns[j].a_src)
            if min(left, right) >= math.pi - SIDE_ANGLE_TOL:
                out.append(j)
        succ[i] = out

    seen: set = set()
    cycles: list[list[SaddleConnection]] = []

    def dfs(start: int, cur: int, acc: float, chain: list[int]):
        for j in succ[cur]:
            if j < start:
                continue
            if j == start:
                cyc = [conns[k] for k in chain]
                key = _cycle_canonical(cyc)
                if key not in seen:
                    seen.add(key)
                    cycles.append(cyc)
                continue
            L = acc + conns[j].length
            if L > L_max + 1e-9:
                continue
            dfs(start, j, L, chain + [j])

    for i in range(len(conns)):
        if conns[i].length <= L_max + 1e-9:
            dfs(i, i, conns[i].length, [i])

    paths = []
    for cyc in cycles:
        path = _build_path(s, cyc)
        path.validate(s)
        paths.append(path)
    paths.sort(key=lambda p: (p.length, _cycle_canonical_of_path(p)))
    return EnumerationResult(paths, scs.complete, len(conns))


def _cycle_canonical_of_path(p: GeodesicPath):
    key = [(v, round(a, 6), round(b, 6)) for v, a, b in p.incidences]
    n = len(key)
    return min(tuple(key[i:] + key[:i]) for i in range(n))


@dataclass
class SystoleResult:
    found: bool
    length: float | None
    path: GeodesicPath | None
    complete: bool


def systole(s: ConeSurface, L_max: float, budget: int = 400_000) -> SystoleResult:
    """Shortest closed geodesic; valid as the systole because on a surface
    with all cone angles >= 2*pi no closed geodesic is contractible."""
    if not s.is_closed:
        raise GeodesicError("surface must be closed")
    bad = [v for v, a in enumerate(s.vertex_angles) if a < 2 * math.pi - 1e-9]
    if bad:
        raise GeodesicError(
            f"cone angle below 2*pi at vertices {bad}: surface is not "
            "nonpositively curved, shortest-geodesic method does not apply"
        )
    res = enumerate_closed_geodesics(s, L_max, budget)
    if not res.paths:
        return SystoleResult(False, None, None, res.complete)
    best = res.paths[0]
    return SystoleResult(True, best.length, best, res.complete)


# -- point distances ----------------------------------------------------


def _develop_from_point(s, f0, pt, L_max, budget, target=None):
    """Min straight-line (vertex-free) distances from an interior point to
    every vertex, and optionally to a target point (face, coords)."""
    pt = np.asarray(pt, dtype=float)
    ch0 = s.chart(f0)
    vdist: dict[int, float] = {}
    tdist = math.inf
    # the start face is visible in every direction
    for c in range(3):
        r = float(np.linalg.norm(ch0[c] - pt))
        if 1e-12 < r <= L_max:
            v = s.vertex_of((f0, c))
            vdist[v] = min(vdist.get(v, math.inf), r)
    if target is not None and target[0] == f0:
        r = float(np.linalg.norm(np.asarray(target[1]) - pt))
        if r <= L_max:
            tdist = min(tdist, r)
    # one seed per glued start edge, pushed last-first so that edge 0's
    # subtree is developed first
    seeds = []
    for e0 in (2, 1, 0):
        P0, P1 = ch0[e0] - pt, ch0[(e0 + 1) % 3] - pt
        r0, r1 = np.linalg.norm(P0), np.linalg.norm(P1)
        if min(r0, r1) < 1e-12 or (f0, e0) not in s.glue_map:
            continue
        wa, wb = P0 / r0, P1 / r1
        if _cross(wa, wb) < 0:
            wa, wb = wb, wa
        f2, e2, _, Re, te = s.edge_transition(f0, e0)
        seeds.append((f2, Re, te - pt, wa, wb, e2))
    complete = True
    try:
        for f, R, t, dev, wa, wb in _unfold(s, L_max, _Budget(budget), seeds):
            for c in range(3):
                P = dev[c]
                r = float(np.linalg.norm(P))
                if r < 1e-12 or r > L_max + 1e-7 or not _in_window(wa, wb, P / r):
                    continue
                v = s.vertex_of((f, c))
                vdist[v] = min(vdist.get(v, math.inf), r)
            if target is not None and f == target[0]:
                P = R @ np.asarray(target[1], dtype=float) + t
                r = float(np.linalg.norm(P))
                if 1e-12 < r <= L_max + 1e-7 and _in_window(wa, wb, P / r):
                    tdist = min(tdist, r)
    except BudgetExceeded:
        complete = False
    return vdist, tdist, complete


@dataclass
class PointDistance:
    distance: float
    reachable: bool
    complete: bool


def _snap_to_vertex(s, f, pt):
    corner = _chart_vertex_at(s, f, pt, tol=1e-9)
    return None if corner is None else s.vertex_of(corner)


def point_distance(s: ConeSurface, x, y, L_max: float,
                   budget: int = 400_000) -> PointDistance:
    """Geodesic distance between points x = (face, (u, v)) and y, allowing
    paths through cone points, capped at L_max."""
    if not 0 < L_max < math.inf:
        raise GeodesicError("L_max must be finite and positive")
    # query points placed exactly on a vertex degenerate the developing
    # windows; treat them as the vertex itself
    snap_x = _snap_to_vertex(s, x[0], np.asarray(x[1], dtype=float))
    snap_y = _snap_to_vertex(s, y[0], np.asarray(y[1], dtype=float))
    if snap_x is not None and snap_x == snap_y:
        return PointDistance(0.0, True, True)
    if snap_x is not None:
        vx, direct_x, cx = {snap_x: 0.0}, math.inf, True
    else:
        vx, direct_x, cx = _develop_from_point(s, x[0], x[1], L_max, budget,
                                               target=None if snap_y is not None else y)
    if snap_y is not None:
        vy, cy = {snap_y: 0.0}, True
    else:
        vy, _, cy = _develop_from_point(s, y[0], y[1], L_max, budget)
    scs = enumerate_saddle_connections(s, L_max, budget)
    pair: dict[tuple[int, int], float] = {}
    for sc in scs.connections:
        k = (sc.v_src, sc.v_dst)
        if sc.length < pair.get(k, math.inf):
            pair[k] = sc.length
    # Dijkstra over {x} + vertices, target y
    dist = {("x",): 0.0}
    heap = [(0.0, ("x",))]
    best_y = direct_x
    adj: dict = {("x",): [(("v", v), d) for v, d in vx.items()]}
    for (v1, v2), d in pair.items():
        adj.setdefault(("v", v1), []).append((("v", v2), d))
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf) or d > L_max:
            continue
        if node != ("x",):
            v = node[1]
            if v in vy:
                best_y = min(best_y, d + vy[v])
        for nb, w in adj.get(node, []):
            nd = d + w
            if nd < dist.get(nb, math.inf) and nd <= L_max + 1e-9:
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    complete = cx and cy and scs.complete
    if best_y > L_max + 1e-9:
        return PointDistance(math.inf, False, complete)
    return PointDistance(best_y, True, complete)


# -- distance fields on subdivided edges -------------------------------


class DistanceField:
    """Multi-source geodesic distance approximated on edge-subdivision nodes.

    Each edge (a gluing or a boundary slot) of length l is cut into
    k = max(1, round(l / mesh_h)) equal pieces.  Vertex v is node v; each
    edge then appends its k - 1 interior nodes.  Slot (f, e) keeps the int
    array of its k + 1 nodes from corner e to corner e + 1; the twin slot of
    a flip=True gluing keeps that array reversed.  The nodes of a face are
    its three slot arrays without their last entries, each at its own chart
    position, so a vertex met at two corners of one face sits at both.

    Within each face every two nodes are joined by their straight chart
    distance.  The graph holds one entry per unordered node pair, the
    shortest of its in-face chords; pairs of a node with itself are
    dropped.  Graph paths are unions of in-face chords, and the node error
    is O(mesh_h).  A graph of more than MAX_FIELD_PAIRS in-face node pairs
    is refused before it is built.
    """

    def __init__(self, s: ConeSurface, mesh_h: float):
        if not 0 < mesh_h < math.inf:
            raise GeodesicError("mesh_h must be finite and positive")
        # pieces per slot, as round() gives them; a glued slot takes the
        # count of the record's first slot
        g = s.glue_records
        with np.errstate(over="ignore"):  # infinite counts fail the limit
            pieces = np.maximum(1.0, np.rint(s.lengths / mesh_h))
            pieces[g[:, 2], g[:, 3]] = pieces[g[:, 0], g[:, 1]]
            per_face = pieces.sum(axis=1)
            pairs = float((per_face * (per_face - 1) / 2).sum())
        if pairs > MAX_FIELD_PAIRS:
            raise GeodesicError(
                f"mesh_h={mesh_h} needs {pairs:.3g} in-face node pairs, more "
                f"than MAX_FIELD_PAIRS={MAX_FIELD_PAIRS}")
        self.surface = s
        self.mesh_h = mesh_h
        self.node_distance: np.ndarray | None = None
        n = s.n_vertices
        self._slot_nodes: dict[Slot, np.ndarray] = {}
        edges = [((f, e), (f2, e2), flip) for f, e, f2, e2, flip in s.gluings]
        edges += [(slot, None, False) for slot in s.boundary_slots]
        for (f, e), twin, flip in edges:
            k = int(pieces[f, e])
            ids = np.concatenate(([s.vertex_of((f, e))], np.arange(n, n + k - 1),
                                  [s.vertex_of((f, (e + 1) % 3))]))
            n += k - 1
            self._slot_nodes[(f, e)] = ids
            if twin is not None:
                self._slot_nodes[twin] = ids[::-1] if flip else ids
        rows, cols, vals = [], [], []
        self._face_nodes: list[tuple[np.ndarray, np.ndarray]] = []
        for f in range(len(s.faces)):
            ch = s.chart(f)
            ids, pos = [], []
            for e in range(3):
                nodes = self._slot_nodes[(f, e)]
                frac = np.arange(len(nodes) - 1) / (len(nodes) - 1)
                ids.append(nodes[:-1])
                pos.append(ch[e] + frac[:, None] * (ch[(e + 1) % 3] - ch[e]))
            ids, pos = np.concatenate(ids), np.concatenate(pos)
            self._face_nodes.append((ids, pos))
            iu, ju = np.triu_indices(len(ids), k=1)
            rows.append(ids[iu])
            cols.append(ids[ju])
            vals.append(_hypot(pos[iu], pos[ju]))
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        pair = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        keep = rows != cols
        pair, vals = pair[keep], vals[keep]
        order = np.argsort(pair, kind="stable")
        pair = pair[order]
        first = np.flatnonzero(np.diff(pair, prepend=-1))
        shortest = np.minimum.reduceat(vals[order], first)
        self._graph = sp.csr_matrix((shortest, divmod(pair[first], n)),
                                    shape=(n, n))

    def _vertex_node(self, v) -> int:
        if v not in range(self.surface.n_vertices):
            raise GeodesicError(f"vertex {v!r} is not on the surface")
        return int(v)

    def solve(self, source_slots=(), source_vertices=()):
        src = [self._vertex_node(v) for v in source_vertices]
        for slot in source_slots:
            nodes = self._slot_nodes.get(tuple(slot))
            if nodes is None:
                raise GeodesicError(f"slot {slot!r} is not on the surface")
            src.extend(nodes)
        if not src:
            raise GeodesicError("no sources")
        self.node_distance = _sp_dijkstra(self._graph, directed=False,
                                          indices=np.unique(src), min_only=True)
        return self

    def _solved(self) -> np.ndarray:
        if self.node_distance is None:
            raise GeodesicError("distance field read before solve")
        return self.node_distance

    def eval_points(self, f: int, pts: np.ndarray) -> np.ndarray:
        """Distance at interior points of face f: through the nearest boundary
        node (exact up to the node spacing).  Points are taken in blocks of
        at most EVAL_BLOCK point-node distances."""
        ids, pos = self._face_nodes[f]
        d = self._solved()[ids]
        pts = np.asarray(pts, dtype=float)
        out = np.empty(len(pts))
        step = max(1, EVAL_BLOCK // len(ids))
        for i in range(0, len(pts), step):
            dm = _hypot(pts[i:i + step, None, :], pos[None, :, :])
            dm += d
            dm.min(axis=1, out=out[i:i + step])
        return out

    def vertex_distance(self, v: int) -> float:
        return float(self._solved()[self._vertex_node(v)])


def _hypot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances between broadcast 2-D points p and q; the same floats as
    np.linalg.norm(p - q, axis=-1), without its (..., 2) temporary."""
    dx = p[..., 0] - q[..., 0]
    dy = p[..., 1] - q[..., 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _subtriangle_centroids(s: ConeSurface, f: int, m: int):
    ch = s.chart(f)
    v0, e1, e2 = ch[0], ch[1] - ch[0], ch[2] - ch[0]
    a, b = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    up = a + b <= m - 1
    ua, ub = (a[up] + 1 / 3) / m, (b[up] + 1 / 3) / m
    dn = a + b <= m - 2
    da, db = (a[dn] + 2 / 3) / m, (b[dn] + 2 / 3) / m
    fa = np.concatenate([ua, da])
    fb = np.concatenate([ub, db])
    pts = v0[None, :] + fa[:, None] * e1[None, :] + fb[:, None] * e2[None, :]
    return pts, s.face_area(f) / (m * m)


@dataclass
class SublevelArea:
    area: float
    r: float
    mesh_h: float
    error_estimate: float
    raw_values: tuple[float, ...]


def _sublevel_once(s, curve_slots, r, mesh_h):
    field = DistanceField(s, mesh_h).solve(source_slots=curve_slots)
    total = 0.0
    for f in range(len(s.faces)):
        m = max(1, math.ceil(max(s.faces[f]) / mesh_h))
        pts, sub_area = _subtriangle_centroids(s, f, m)
        d = field.eval_points(f, pts)
        total += sub_area * int((d <= r).sum())
    return total


def sublevel_area(s: ConeSurface, curve_slots, r: float, mesh_h: float = 0.01,
                  extrapolate: bool = True) -> SublevelArea:
    """Area of the set of points within distance r of the marked curve,
    with Richardson extrapolation over one mesh refinement."""
    if not 0 < r < math.inf:
        raise GeodesicError("r must be finite and positive")
    a1 = _sublevel_once(s, curve_slots, r, mesh_h)
    if not extrapolate:
        return SublevelArea(a1, r, mesh_h, math.nan, (a1,))
    a2 = _sublevel_once(s, curve_slots, r, mesh_h / 2)
    return SublevelArea(2 * a2 - a1, r, mesh_h, abs(a2 - a1), (a1, a2))


# -- Voronoi cells ------------------------------------------------------


@dataclass
class VoronoiCell:
    center: int  # vertex id
    area: float
    boundary_points: list[tuple[int, float, float]]  # (face, x, y) near-bisector
    neighbors: set[int]


def voronoi_cells(s: ConeSurface, centers=None,
                  mesh_h: float = 0.01) -> list[VoronoiCell]:
    """Nearest-center decomposition of the faces outside EXCLUDED_REGIONS,
    by labeled distance fields on the refined mesh; the centers default to
    the Weierstrass points."""
    if centers is None:
        if "weierstrass" not in s.marks:
            raise GeodesicError("no centers given and no Weierstrass marks")
        centers = sorted({s.vertex_of(tuple(c)) for c in s.marks["weierstrass"]})
    centers = list(centers)
    if len(set(centers)) != len(centers):
        raise GeodesicError("centers must be distinct")
    field = DistanceField(s, mesh_h)
    # shallow copies share the graph; each solve sets its own node_distance
    fields = [copy.copy(field).solve(source_vertices=[v]) for v in centers]
    region = s.marks.get("region")
    cells = {v: VoronoiCell(v, 0.0, [], set()) for v in centers}
    for f in range(len(s.faces)):
        if region is not None and region[f] in EXCLUDED_REGIONS:
            continue
        m = max(1, math.ceil(max(s.faces[f]) / mesh_h))
        pts, sub_area = _subtriangle_centroids(s, f, m)
        d = np.stack([fl.eval_points(f, pts) for fl in fields])
        lab = d.argmin(axis=0)
        for k, v in enumerate(centers):
            cells[v].area += sub_area * int((lab == k).sum())
        if len(centers) > 1:
            ds = np.sort(d, axis=0)
            near = ds[1] - ds[0] < mesh_h
            order = d.argsort(axis=0)
            for i in np.nonzero(near)[0]:
                v1, v2 = centers[order[0, i]], centers[order[1, i]]
                cells[v1].boundary_points.append((f, float(pts[i, 0]), float(pts[i, 1])))
                cells[v1].neighbors.add(v2)
                cells[v2].neighbors.add(v1)
    return [cells[v] for v in centers]


# -- comparison polygons ------------------------------------------------


@dataclass
class ComparisonPolygon:
    vertices: np.ndarray
    area: float
    bounded: bool


def comparison_polygon(constraints) -> ComparisonPolygon:
    """Intersection of half-planes {x : <x, u_i> <= d_i / 2} for constraints
    (d_i, direction angle); models the Euclidean comparison of a Voronoi cell
    built from geodesic loops of length d_i through the center."""
    if len(constraints) < 2:
        raise GeodesicError("need at least 2 constraints")
    big = 10.0 * max(1.0, max(d for d, _ in constraints))
    poly = [np.array(p) for p in
            [(-big, -big), (big, -big), (big, big), (-big, big)]]
    for d, ang in constraints:
        n = np.array([math.cos(ang), math.sin(ang)])
        off = d / 2
        out = []
        m = len(poly)
        for i in range(m):
            a, b = poly[i], poly[(i + 1) % m]
            fa = float(n @ a) - off
            fb = float(n @ b) - off
            if fa <= 0:
                out.append(a)
            if (fa < 0) != (fb < 0):
                out.append(a + (fa / (fa - fb)) * (b - a))
        poly = out
        if not poly:
            return ComparisonPolygon(np.zeros((0, 2)), 0.0, True)
    verts = np.array(poly)
    bounded = bool((np.abs(verts) < big - 1e-6).all())
    area = 0.0
    for i in range(len(poly)):
        j = (i + 1) % len(poly)
        area += verts[i, 0] * verts[j, 1] - verts[j, 0] * verts[i, 1]
    return ComparisonPolygon(verts, abs(area) / 2, bounded)


# -- export -------------------------------------------------------------


def geodesics_to_json(paths: list[GeodesicPath]) -> list[dict]:
    return [
        {
            "length": p.length,
            "type": p.kind,
            "faces": p.face_sequence(),
            "cone_points": p.cone_points(),
        }
        for p in paths
    ]
