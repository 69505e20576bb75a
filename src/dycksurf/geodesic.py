"""Geodesics on flat cone surfaces.

Saddle connections are found by developing the surface into the plane from
each vertex with angular visibility windows; closed geodesics are chains of
saddle connections that subtend angle at least pi on both sides at every
vertex they pass through (on a flat vertex this forces the chain to go
straight).  Saddle connections, point distances, closed geodesics and
systoles need a closed surface and raise GeodesicError on one with
boundary.  Distances to curves and Voronoi cells use an edge-subdivided
Dijkstra graph; areas are integrated over a barycentric subtriangle grid.
"""

from __future__ import annotations

import copy
import heapq
import math
import operator
import weakref
from dataclasses import dataclass, field
from itertools import compress, cycle, pairwise

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
# most in-face node pairs a DistanceField builds; the build's traced peak
# is about 43 bytes per pair (1.02 million pairs on the flat collar at
# mesh_h 0.005)
MAX_FIELD_PAIRS = 10_000_000
# most point-node distances DistanceField.eval_points and .within hold at
# once.  Each point-node sum is the same float in any block or node subset,
# so a subset's minimum is never below the full one: within's early accept
# from every WITHIN_STRIDE-th node is exact
EVAL_BLOCK = 1 << 15
WITHIN_STRIDE = 16
# about the most chords the DistanceField build computes at once
GRAPH_BLOCK = 1 << 16
# DistanceField.covers accepts a whole face only with this margin, relative
# to the face's chart coordinates and r, for the rounding of the points and
# of their distances
COVER_MARGIN = 1e-12
# most angle gaps _successors holds at once
SUCC_BLOCK = 1 << 12


class GeodesicError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """Raised internally; callers receive a partial result with a flag."""


def _unit(x: float, y: float) -> tuple[float, float]:
    n = math.hypot(x, y)
    return x / n, y / n


def _cross(a, b) -> float:
    return a[0] * b[1] - a[1] * b[0]


def _wrap(a: float, total: float) -> float:
    """Angle modulo the link circle, snapping the seam to 0."""
    a %= total
    return 0.0 if total - a < 1e-9 else a


def _link_angle(off, sigma, ex, ey, dx, dy, theta) -> float:
    """Link coordinate of the unit direction (dx, dy) leaving a corner whose
    link frame (see ConeSurface.link_frames), expressed in the same plane,
    has offset off, entry direction (ex, ey) and rotation sense sigma; theta
    is the total angle at the vertex."""
    psi = sigma * math.atan2(ex * dy - ey * dx, ex * dx + ey * dy)
    return _wrap(off + max(0.0, psi), theta)


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
        return _connection_key(self.v_src, self.a_src, self.length)

    def reverse_key(self):
        return _connection_key(self.v_dst, self.a_dst, self.length)


def _connection_key(v: int, a: float, length: float) -> tuple:
    return (v, round(a, ANGLE_KEY_DIGITS), round(length, ANGLE_KEY_DIGITS))


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


def _unfold(s, L_max, budget, stack):
    """Windowed unfolding from the developing origin, on plain floats.

    Stack entries are (face, R, t, wa, wb, entry slot): x |-> R x + t, with
    R = (R00, R01, R10, R11) and t = (t0, t1), develops chart(face) into the
    plane, and the sector from the unit vector wa to wb is the set of
    directions still visible through the crossed edges.  Each popped face
    spends one budget step and is yielded as (face, R, t, developed corners,
    wa, wb); then every edge within L_max that the sector still sees is
    pushed, in slot order.  The surface must be closed: every slot of a
    face is glued.  Edges through the origin are never crossed.

    The sector clip drops empty or pinched (zero-width) intersections: a
    window pinches exactly when its one surviving ray ends at a vertex, and
    that vertex is a corner of the face being crossed, so it has already
    been captured; continuing would orbit the cone point forever.
    """
    charts = s.chart_floats
    transitions = s.transitions
    sqrt = math.sqrt
    while stack:
        f, R, t, wa, wb, entry = stack.pop()
        budget.spend()
        a, b, c, d = R
        tx, ty = t
        (x0, y0), (x1, y1), (x2, y2) = charts[f]
        dev = ((a * x0 + b * y0 + tx, c * x0 + d * y0 + ty),
               (a * x1 + b * y1 + tx, c * x1 + d * y1 + ty),
               (a * x2 + b * y2 + tx, c * x2 + d * y2 + ty))
        yield f, R, t, dev, wa, wb
        (wax, way), (wbx, wby) = wa, wb
        for e, tr in enumerate(transitions[f]):
            if e == entry:
                continue
            px, py = dev[e]
            qx, qy = dev[(e + 1) % 3]
            # distance from the origin to the edge
            dx, dy = qx - px, qy - py
            dd = dx * dx + dy * dy
            if dd < 1e-30:
                mx, my = px, py
            else:
                u = min(1.0, max(0.0, -(px * dx + py * dy) / dd))
                mx, my = px + u * dx, py + u * dy
            if sqrt(mx * mx + my * my) > L_max:
                continue
            r0, r1 = sqrt(px * px + py * py), sqrt(qx * qx + qy * qy)
            if r0 < 1e-12 or r1 < 1e-12:
                continue  # edge emanating from the origin
            c0, c1 = (px / r0, py / r0), (qx / r1, qy / r1)
            if c0[0] * c1[1] - c0[1] * c1[0] < 0:
                c0, c1 = c1, c0
            # clip the sector to the directions of the edge
            lo = wa if c0[0] * way - c0[1] * wax >= -WINDOW_TOL else c0
            hi = wb if wbx * c1[1] - wby * c1[0] >= -WINDOW_TOL else c1
            if lo[0] * hi[1] - lo[1] * hi[0] <= 1e-12:
                continue
            f2, e2, (ra, rb, rc, rd), (ex, ey) = tr
            stack.append((f2, (a * ra + b * rc, a * rb + b * rd,
                               c * ra + d * rc, c * rb + d * rd),
                          (a * ex + b * ey + tx, c * ex + d * ey + ty), lo, hi, e2))


def _in_window(wa, wb, hx, hy) -> bool:
    return (wa[0] * hy - wa[1] * hx >= -CAPTURE_TOL
            and hx * wb[1] - hy * wb[0] >= -CAPTURE_TOL)


def _captures(dev, wa, wb, r_min, L_max):
    """(corner, distance, unit direction) of each developed corner at
    distance r_min <= r <= L_max + 1e-7 inside the sector [wa, wb]."""
    for c, (px, py) in enumerate(dev):
        r = math.sqrt(px * px + py * py)
        if r < r_min or r > L_max + 1e-7:
            continue
        hx, hy = px / r, py / r
        if _in_window(wa, wb, hx, hy):
            yield c, r, hx, hy


def enumerate_saddle_connections(
    s: ConeSurface, L_max: float, budget: int = 400_000
) -> SaddleConnectionSet:
    """All directed saddle connections of length <= L_max between vertices
    of a closed surface."""
    if not s.is_closed:
        raise GeodesicError("surface must be closed")
    if not 0 < L_max < math.inf:
        raise GeodesicError("L_max must be finite and positive")
    found: dict[tuple, SaddleConnection] = {}
    bud = _Budget(budget)
    vids = s.vertex_ids.tolist()
    frames = s.link_frames.tolist()
    thetas = s.vertex_angles
    try:
        for f0, ch0 in enumerate(s.chart_floats):
            for c0 in range(3):
                start = ch0[c0]
                v_src = vids[f0][c0]
                off, ex, ey, sigma = frames[f0][c0]
                (x1, y1), (x2, y2) = ch0[(c0 + 1) % 3], ch0[(c0 + 2) % 3]
                wa = _unit(x1 - start[0], y1 - start[1])
                wb = _unit(x2 - start[0], y2 - start[1])
                if _cross(wa, wb) < 0:
                    wa, wb = wb, wa
                seed = (f0, (1.0, 0.0, 0.0, 1.0), (-start[0], -start[1]), wa, wb, None)
                for f, R, _, dev, wa, wb in _unfold(s, L_max, bud, [seed]):
                    for c, r, hx, hy in _captures(dev, wa, wb, 1e-9, L_max):
                        a_src = _link_angle(off, sigma, ex, ey, hx, hy, thetas[v_src])
                        # the first capture of a key wins; later ones skip the
                        # arrival angle and the object
                        key = _connection_key(v_src, a_src, r)
                        if key in found:
                            continue
                        v_dst = vids[f][c]
                        a_dst = _arrival_angle(R, frames[f][c], hx, hy, thetas[v_dst])
                        found[key] = SaddleConnection(v_src, a_src, v_dst, a_dst, r,
                                                      f0, start, (hx, hy))
        complete = True
    except BudgetExceeded:
        complete = False
    conns = _drop_colinear(found.values())
    conns.sort(key=lambda sc: (sc.length, sc.key()))
    return SaddleConnectionSet(conns, complete, bud.used)


def _arrival_angle(R, frame, hx, hy, theta) -> float:
    """Link coordinate, at the far end, of the reversed direction of a
    connection that arrives along (hx, hy) at a corner with link frame
    `frame`, developed by a map with linear part R.  Directions develop by
    the rotation part only; a reflection in the developing map reverses
    the rotation sense."""
    a, b, c, d = R
    off, ex, ey, sigma = frame
    return _link_angle(off, sigma * (a * d - b * c), a * ex + b * ey,
                       c * ex + d * ey, -hx, -hy, theta)


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
    d = np.array(_unit(float(d[0]), float(d[1])))
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
    chain_nodes: int  # chains the cycle search extended, roots included

    @property
    def found(self) -> bool:
        return bool(self.paths)

    @property
    def length(self) -> float | None:
        """Length of the shortest path, or None if none was found."""
        return self.paths[0].length if self.paths else None


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


def _successors(s: ConeSurface, conns: list[SaddleConnection]) -> list[list[int]]:
    """For each connection i, the indices j, ascending, of the connections
    that may follow it in a closed geodesic: j leaves the vertex where i
    arrives, and both side angles of the turn, the _chain_gap of i's arrival
    and j's departure, are at least pi - SIDE_ANGLE_TOL.  The gaps of each
    vertex are taken in blocks of at most SUCC_BLOCK (in, out) pairs;
    np.mod gives the floats of Python's %, so the lists are those of the
    pairwise loop.  The lists share one int object per index."""
    v_src = np.array([sc.v_src for sc in conns], dtype=np.intp)
    v_dst = np.array([sc.v_dst for sc in conns], dtype=np.intp)
    a_src = np.array([sc.a_src for sc in conns], dtype=float)
    a_dst = np.array([sc.a_dst for sc in conns], dtype=float)
    succ: list[list[int]] = [[] for _ in conns]
    for v, theta in enumerate(s.vertex_angles):
        ins, outs = np.flatnonzero(v_dst == v), np.flatnonzero(v_src == v)
        if not len(ins) or not len(outs):
            continue
        outs_list = outs.tolist()
        a_out = a_src[outs]
        step = max(1, SUCC_BLOCK // len(outs))
        for k in range(0, len(ins), step):
            block = ins[k:k + step]
            delta = np.mod(a_out - a_dst[block, None], theta)
            ok = np.minimum(delta, theta - delta) >= math.pi - SIDE_ANGLE_TOL
            for i, row in zip(block.tolist(), ok.tolist()):
                succ[i] = list(compress(outs_list, row))
    return succ


def _closed_chains(conns, succ, L_max, budget: _Budget):
    """Chains of connections that close up within L_max, one per class of
    _cycle_canonical, and whether the search finished within the budget.

    Depth-first from each connection i in index order over successors of
    index above i, so each cycle is found from its smallest index; the
    explicit stack visits chains in the order of the recursive search.
    Each chain extended, the root included, spends one budget step.
    """
    lengths = [sc.length for sc in conns]
    cap = L_max + 1e-9
    seen: set = set()
    cycles: list[list[SaddleConnection]] = []
    try:
        for i, length in enumerate(lengths):
            if length > cap:
                continue
            budget.spend()
            chain, acc, stack = [i], [length], [iter(succ[i])]
            while stack:
                for j in stack[-1]:
                    if j < i:
                        continue
                    if j == i:
                        cyc = [conns[k] for k in chain]
                        key = _cycle_canonical(cyc)
                        if key not in seen:
                            seen.add(key)
                            cycles.append(cyc)
                        continue
                    L = acc[-1] + lengths[j]
                    if L > cap:
                        continue
                    budget.spend()
                    chain.append(j)
                    acc.append(L)
                    stack.append(iter(succ[j]))
                    break
                else:
                    stack.pop()
                    chain.pop()
                    acc.pop()
    except BudgetExceeded:
        return cycles, False
    return cycles, True


def enumerate_closed_geodesics(
    s: ConeSurface, L_max: float, budget: int = 400_000
) -> EnumerationResult:
    """Closed geodesics of length <= L_max as chains of saddle connections,
    deduplicated by unoriented trace, sorted by length.  `budget` bounds the
    faces the unfolding develops and, separately, the chains the cycle
    search extends; the result is complete only if neither runs out."""
    scs = enumerate_saddle_connections(s, L_max, budget)
    conns = scs.connections
    chain_budget = _Budget(budget)
    cycles, chains_done = _closed_chains(conns, _successors(s, conns), L_max,
                                         chain_budget)
    paths = []
    for cyc in cycles:
        path = _build_path(s, cyc)
        path.validate(s)
        paths.append(path)
    paths.sort(key=lambda p: (p.length, _cycle_canonical_of_path(p)))
    return EnumerationResult(paths, scs.complete and chains_done, len(conns),
                             chain_budget.used)


def _cycle_canonical_of_path(p: GeodesicPath):
    key = [(v, round(a, 6), round(b, 6)) for v, a, b in p.incidences]
    n = len(key)
    return min(tuple(key[i:] + key[:i]) for i in range(n))


def systole(s: ConeSurface, L_max: float,
            budget: int = 400_000) -> EnumerationResult:
    """Closed geodesics of length <= L_max, as enumerate_closed_geodesics
    gives them, on a closed surface whose cone angles are all >= 2*pi.  Its
    shortest path is then the systole, since on such a surface no closed
    geodesic is contractible."""
    if not s.is_closed:
        raise GeodesicError("surface must be closed")
    bad = [v for v, a in enumerate(s.vertex_angles) if a < 2 * math.pi - 1e-9]
    if bad:
        raise GeodesicError(
            f"cone angle below 2*pi at vertices {bad}: surface is not "
            "nonpositively curved, shortest-geodesic method does not apply"
        )
    return enumerate_closed_geodesics(s, L_max, budget)


# -- point distances ----------------------------------------------------


def _develop_from_point(s, f0, pt, L_max, budget, target=None):
    """Min straight-line (vertex-free) distances from an interior point to
    every vertex, and optionally to a target point (face, coords)."""
    px, py = pt = (float(pt[0]), float(pt[1]))
    ch0 = s.chart_floats[f0]
    vids = s.vertex_ids.tolist()
    vdist: dict[int, float] = {}
    tdist = math.inf
    # the start face is visible in every direction
    for c, q in enumerate(ch0):
        r = math.dist(q, pt)
        if 1e-12 < r <= L_max:
            v = vids[f0][c]
            vdist[v] = min(vdist.get(v, math.inf), r)
    if target is not None:
        tx, ty = float(target[1][0]), float(target[1][1])
        if target[0] == f0:
            r = math.dist((tx, ty), pt)
            if r <= L_max:
                tdist = min(tdist, r)
    # one seed per start edge, pushed last-first so that edge 0's
    # subtree is developed first
    seeds = []
    for e0 in (2, 1, 0):
        P0, P1 = ch0[e0], ch0[(e0 + 1) % 3]
        r0, r1 = math.dist(P0, pt), math.dist(P1, pt)
        if min(r0, r1) < 1e-12:
            continue
        wa = ((P0[0] - px) / r0, (P0[1] - py) / r0)
        wb = ((P1[0] - px) / r1, (P1[1] - py) / r1)
        if _cross(wa, wb) < 0:
            wa, wb = wb, wa
        f2, e2, Re, (ex, ey) = s.transitions[f0][e0]
        seeds.append((f2, Re, (ex - px, ey - py), wa, wb, e2))
    complete = True
    try:
        for f, R, t, dev, wa, wb in _unfold(s, L_max, _Budget(budget), seeds):
            for c, r, _, _ in _captures(dev, wa, wb, 1e-12, L_max):
                v = vids[f][c]
                vdist[v] = min(vdist.get(v, math.inf), r)
            if target is not None and f == target[0]:
                r00, r01, r10, r11 = R
                qx, qy = r00 * tx + r01 * ty + t[0], r10 * tx + r11 * ty + t[1]
                r = math.sqrt(qx * qx + qy * qy)
                if 1e-12 < r <= L_max + 1e-7 and _in_window(wa, wb, qx / r, qy / r):
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


def _query_point(s, p, name):
    """p = (face, (u, v)) as (int, (float, float)); raises GeodesicError
    unless the face exists and (u, v) lies in its chart, up to 1e-9 in
    barycentric coordinates."""
    try:
        f, (u, v) = p
        f, u, v = operator.index(f), float(u), float(v)
    except (TypeError, ValueError) as exc:
        raise GeodesicError(f"{name} must be (face, (u, v))") from exc
    if not 0 <= f < len(s.lengths):
        raise GeodesicError(f"{name}: face {f} out of range")
    if not (math.isfinite(u) and math.isfinite(v)):
        raise GeodesicError(f"{name}: coordinates must be finite")
    (ax, ay), (bx, by), (cx, cy) = s.chart_floats[f]
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    lb = ((u - ax) * (cy - ay) - (v - ay) * (cx - ax)) / det
    lc = ((bx - ax) * (v - ay) - (by - ay) * (u - ax)) / det
    if min(1.0 - lb - lc, lb, lc) < -1e-9:
        raise GeodesicError(f"{name}: ({u!r}, {v!r}) lies outside chart({f})")
    return f, (u, v)


# point_distance's vertex graphs: surface -> {(L_max, budget): graph}
_VERTEX_GRAPHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _vertex_graph(s, L_max, budget):
    """({v: {w: length}}, complete): the shortest saddle connection from
    each vertex to each vertex within L_max, and whether the search was
    complete.  Memoized per surface, held weakly, and per (L_max, budget),
    so a truncated search answers only its own budget."""
    graphs = _VERTEX_GRAPHS.setdefault(s, {})
    key = (L_max, budget)
    if key not in graphs:
        scs = enumerate_saddle_connections(s, L_max, budget)
        adj: dict[int, dict[int, float]] = {}
        for sc in scs.connections:
            nbs = adj.setdefault(sc.v_src, {})
            if sc.length < nbs.get(sc.v_dst, math.inf):
                nbs[sc.v_dst] = sc.length
        graphs[key] = adj, scs.complete
    return graphs[key]


def point_distance(s: ConeSurface, x, y, L_max: float,
                   budget: int = 400_000) -> PointDistance:
    """Geodesic distance between points x = (face, (u, v)) and y, allowing
    paths through cone points, capped at L_max, on a closed surface.

    Each point's face must exist and its (u, v) must lie in chart(face), up
    to 1e-9 in barycentric coordinates; otherwise GeodesicError.  The vertex
    graph (shortest saddle connection per ordered vertex pair, and whether
    the search was complete) is memoized in a WeakKeyDictionary keyed by
    the surface, and inside it by (L_max, budget): repeated calls on one
    surface run one saddle search, and the memo never keeps a surface
    alive."""
    if not s.is_closed:
        raise GeodesicError("surface must be closed")
    if not 0 < L_max < math.inf:
        raise GeodesicError("L_max must be finite and positive")
    x, y = _query_point(s, x, "x"), _query_point(s, y, "y")
    # query points placed exactly on a vertex degenerate the developing
    # windows; treat them as the vertex itself
    snap_x, snap_y = _snap_to_vertex(s, *x), _snap_to_vertex(s, *y)
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
    adj, searched = _vertex_graph(s, L_max, budget)
    # Dijkstra over the vertices, from x's vertex distances, target y
    best_y = direct_x
    dist = {v: d for v, d in vx.items() if d <= L_max + 1e-9}
    heap = [(d, v) for v, d in dist.items()]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v] or d > L_max:
            continue
        if v in vy:
            best_y = min(best_y, d + vy[v])
        for w, length in adj.get(v, {}).items():
            nd = d + length
            if nd < dist.get(w, math.inf) and nd <= L_max + 1e-9:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    complete = cx and cy and searched
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

    The build writes the CSR arrays in row order without sorting the
    pairs.  A node's row holds the nodes of larger id in the faces it lies
    in.  The rows of a vertex form a group, and so do the rows of an
    edge's interior nodes, which lie in the same faces, the edge's.  A
    group's columns are the distinct nodes, from its first row on, of the
    faces where its first row lies: with u of them, row first + i holds the
    last u - i - 1, so the counts give indptr.  One stable sort ranks the
    groups' columns, a few hundred per edge.  Each face node then meets the
    nodes of its face past it, and each chord goes to its entry by its
    column's rank, in blocks of GRAPH_BLOCK chords; an entry keeps the
    shortest of its chords, as where a pair lies in two faces or twice in
    one.

    A point of face f takes the least chart distance plus node distance
    over the face's nodes (`eval_points`).  Each sum is the same float
    whichever nodes are evaluated with it, so a subset's minimum is never
    below the full one; `within` accepts most points from a sparse subset
    and evaluates only the rest in full, with the same result.

    `solve` sets `node_distance`, the distance of each node, so
    `node_distance[v]` is the distance of vertex v.
    """

    def __init__(self, s: ConeSurface, mesh_h: float):
        if not 0 < mesh_h < math.inf:
            raise GeodesicError("mesh_h must be finite and positive")
        # pieces per slot, as round() gives them; a glued slot takes the
        # count of the record's first slot.  Slot (f, e) is entry 3 f + e
        # of the per-slot arrays
        g = s.glue_records
        first, twin = (3 * g[:, 0:4:2] + g[:, 1:4:2]).T
        with np.errstate(over="ignore"):  # infinite counts fail the limit
            pieces = np.maximum(1.0, np.rint(s.lengths / mesh_h))
            pieces.ravel()[twin] = pieces.ravel()[first]
            per_face = pieces.sum(axis=1)
            pairs = float((per_face * (per_face - 1) / 2).sum())
        if pairs > MAX_FIELD_PAIRS:
            raise GeodesicError(
                f"mesh_h={mesh_h} needs {pairs:.3g} in-face node pairs, more "
                f"than MAX_FIELD_PAIRS={MAX_FIELD_PAIRS}")
        self.surface = s
        self.mesh_h = mesh_h
        self.node_distance: np.ndarray | None = None
        V = s.n_vertices
        k = pieces.ravel().astype(np.int64)
        vid = s.vertex_ids.ravel()
        face = np.arange(len(k)) // 3
        free = np.ones(len(k), dtype=bool)
        free[first] = free[twin] = False
        # edge j, the gluings' first slots and then the boundary slots, has
        # the interior nodes start[j] ... start[j] + k - 2
        edge = np.concatenate([first, free.nonzero()[0]])
        inner = k[edge] - 1
        start = inner.cumsum()
        n = V + int(start[-1])
        start += V - inner
        # slot node 0 < t < k is sstart - 1 + t, or sstart + k - 1 - t on
        # the twin of a flip=True gluing
        sstart = np.empty(len(k), dtype=np.int64)
        sstart[edge] = start
        sstart[twin] = start[:len(g)]
        rev = np.zeros(len(k), dtype=np.int64)
        rev[twin] = g[:, 4]
        sign = 1 - 2 * rev
        # the face nodes: each slot's nodes but its last, at their chart
        # positions; slot (f, e) holds entries so ... so + k - 1 of occ and
        # pos, face f the entries of its three slots
        stop = k.cumsum()
        so = stop - k
        t = np.arange(stop[-1]) - so.repeat(k)
        occ = (sstart - 1 + rev * k).repeat(k) + sign.repeat(k) * t
        occ[so] = vid
        corner = s.charts.reshape(-1, 2)
        along = s.charts[:, [1, 2, 0]].reshape(-1, 2) - corner
        pos = (corner.repeat(k, axis=0)
               + (t / k.repeat(k))[:, None] * along.repeat(k, axis=0))
        self._face_nodes: list[tuple[np.ndarray, np.ndarray]] = [
            (occ[a:b], pos[a:b]) for a, b in zip(so[::3].tolist(),
                                                 stop[2::3].tolist())]
        # occ with each face's corner 0 after its nodes: slot (f, e) holds
        # its k + 1 nodes, corner e to corner e + 1, from so + f on
        on_face = face.repeat(k)
        ext = np.empty(len(occ) + len(k) // 3, dtype=np.int64)
        ext[np.arange(len(occ)) + on_face] = occ
        ext[stop[2::3] + face[::3]] = vid[::3]
        at = (so + face).tolist()
        self._slot_nodes: dict[Slot, np.ndarray] = {
            (f, e): ext[a:a + m] for f, e, a, m in zip(
                face.tolist(), cycle((0, 1, 2)), at, (k + 1).tolist())}
        # each face node's row holds the nodes of its face with larger ids.
        # The rows of a vertex, or of an edge's interior nodes, form a group
        # whose first row is the vertex or the edge's start node.  A side,
        # an occurrence of a group's first row, offers the nodes of its face
        # from there on; the u distinct ones over the group's sides are the
        # group's columns, and its row first + i holds the last u - i - 1
        key = on_face * n + occ
        by_id = key.argsort(kind="stable")
        skey = key[by_id]
        grp = sstart.repeat(k)
        grp[so] = vid
        i = occ - grp
        first_row = i == 0
        side_at = np.flatnonzero(first_row)
        fend = stop[2::3][on_face]
        lo = skey.searchsorted(key[side_at])
        slen = fend[side_at] - lo
        # side j's candidates are entries soff[j] ... soff[j] + slen[j] - 1
        soff = slen.cumsum() - slen
        cand = by_id[np.arange(soff[-1] + slen[-1]) + (lo - soff).repeat(slen)]
        # positions as complex numbers: a difference is the same two floats
        cpos = pos.view(np.complex128).ravel()
        spos = cpos[cand]
        scol = occ[cand]
        # each candidate's rank among the distinct candidates of its group
        group = occ[side_at]
        ukey, rank = _distinct(group.repeat(slen) * n + scol)
        rank -= ukey.searchsorted(group * n).repeat(slen)
        del cand
        # the groups' first rows in order, then n
        gs = np.concatenate([np.arange(V), start[inner > 0], [n]])
        lim = ukey.searchsorted(gs * n)
        last = lim[1:] - lim[:-1] - 1 + gs[:-1]
        # MAX_FIELD_PAIRS keeps ids and entries below 2**31, where scipy
        # indexes by int32
        indptr = np.zeros(n + 1, dtype=np.int32)
        (last.repeat(gs[1:] - gs[:-1]) - np.arange(n)).cumsum(out=indptr[1:])
        nnz = int(indptr[-1])
        # every face node against the nodes of its face past it, ranked by
        # its group's side in its face: a corner is its own, an interior
        # node takes its slot's first interior node, the last side before
        # it, or the next one on a reversed twin; in blocks of about
        # GRAPH_BLOCK chords, an entry keeps its shortest chord
        side = first_row.cumsum() - 1 + rev.repeat(k) * (i > 0)
        hi = skey.searchsorted(key, side="right")
        count = fend - hi
        end = count.cumsum()
        begin = end - count
        shift = (soff - lo)[side] + hi - begin
        out0 = indptr[occ] - i - 1
        del grp, side, hi, i
        data = np.full(nnz, np.inf)
        indices = np.empty(nnz, dtype=np.int32)
        scol = scol.astype(np.int32)
        cuts = begin.searchsorted(np.arange(0, end[-1], GRAPH_BLOCK))
        for a, b in pairwise(cuts.tolist() + [len(end)]):
            if a < b:
                c = count[a:b]
                j = np.arange(begin[a], end[b - 1]) + shift[a:b].repeat(c)
                out = out0[a:b].repeat(c) + rank[j]
                d = cpos[a:b].repeat(c) - spos[j]
                np.minimum.at(data, out, _norm(d.real, d.imag))
                indices[out] = scol[j]
        self._graph = sp.csr_matrix((data, indices, indptr), shape=(n, n))

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
        node (exact up to the node spacing)."""
        ids, pos = self._face_nodes[f]
        return _min_through(np.asarray(pts, dtype=float), pos,
                            self._solved()[ids])

    def within(self, f: int, pts: np.ndarray, r: float) -> np.ndarray:
        """Exactly eval_points(f, pts) <= r, element for element.  Only
        nodes within r can bring a point within r; every WITHIN_STRIDE-th of
        them accepts most points early, and the rest go through eval_points."""
        ids, pos = self._face_nodes[f]
        d = self._solved()[ids]
        pts = np.asarray(pts, dtype=float)
        close = np.flatnonzero(d <= r)
        if not len(close):
            return np.zeros(len(pts), dtype=bool)
        sparse = close[::WITHIN_STRIDE]
        inside = _min_through(pts, pos[sparse], d[sparse]) <= r
        rest = np.flatnonzero(~inside)
        inside[rest] = self.eval_points(f, pts[rest]) <= r
        return inside

    def covers(self, f: int, r: float) -> bool:
        """Whether within(f, pts, r) holds for every centroid _subtriangles
        puts in face f, shown without the points.

        A point p of the face has |p - pos_k| <= max over the corners c of
        |c - pos_k| for every node k, the distance to pos_k being convex, so
        eval_points gives it at most reach_k = d_k + that maximum.  The
        computed centroids and sums round: with u = 2^-53 and S the largest
        absolute corner coordinate of the chart, which bounds the nodes too,
        a computed centroid lies within 30 u S of the face, each computed
        chart distance is off by at most 9 u S, and each sum with d_k by u
        of its size, under 60 u (S + r) in all.  The face is accepted when
        the least computed reach_k plus COVER_MARGIN (S + r), over 4000
        u (S + r), is at most r, so every computed centroid distance is."""
        ids, pos = self._face_nodes[f]
        corners = self.surface.charts[f]
        reach = _hypot(pos[:, None, :], corners[None, :, :]).max(axis=1)
        reach += self._solved()[ids]
        scale = float(np.abs(corners).max()) + r
        return float(reach.min()) + COVER_MARGIN * scale <= r


def _min_through(pts: np.ndarray, pos: np.ndarray, d: np.ndarray) -> np.ndarray:
    """min over nodes j of |pts - pos[j]| + d[j] for each point, in blocks of
    at most EVAL_BLOCK point-node distances."""
    out = np.empty(len(pts))
    step = max(1, EVAL_BLOCK // len(pos))
    for i in range(0, len(pts), step):
        dm = _hypot(pts[i:i + step, None, :], pos[None, :, :])
        dm += d
        dm.min(axis=1, out=out[i:i + step])
    return out


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, return_inverse=True): the distinct keys in order and
    the index of each key among them.  A stable sort, which finds the
    sorted runs in keys, and without np.unique's fixed cost."""
    perm = keys.argsort(kind="stable")
    keys = keys[perm]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    index = np.empty(len(keys), dtype=np.int64)
    index[perm] = new.cumsum()
    index -= 1
    return keys[new], index


def _hypot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances between broadcast 2-D points p and q; the same floats as
    np.linalg.norm(p - q, axis=-1), without its (..., 2) temporary."""
    return _norm(p[..., 0] - q[..., 0], p[..., 1] - q[..., 1])


def _norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx * dx + dy * dy), computed in dx and dy."""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _cuts(s: ConeSurface, mesh_h: float) -> list[int]:
    """Subtriangles per side of each face, m = ceil(longest side / mesh_h)."""
    return [max(1, math.ceil(x / mesh_h)) for x in s.lengths.max(axis=1).tolist()]


def _subtriangles(s: ConeSurface, faces, mesh_h: float):
    """(f, centroids, subtriangle area) for each face f in faces: the face
    is cut into m * m congruent subtriangles, m from _cuts.  The centroid
    pattern is built once per distinct m."""
    cuts = _cuts(s, mesh_h)
    patterns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for f in faces:
        m = cuts[f]
        if m not in patterns:
            a, b = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
            up = a + b <= m - 1
            ua, ub = (a[up] + 1 / 3) / m, (b[up] + 1 / 3) / m
            dn = a + b <= m - 2
            da, db = (a[dn] + 2 / 3) / m, (b[dn] + 2 / 3) / m
            patterns[m] = np.concatenate([ua, da]), np.concatenate([ub, db])
        fa, fb = patterns[m]
        ch = s.chart(f)
        v0, e1, e2 = ch[0], ch[1] - ch[0], ch[2] - ch[0]
        pts = v0[None, :] + fa[:, None] * e1[None, :] + fb[:, None] * e2[None, :]
        yield f, pts, s.face_area(f) / (m * m)


@dataclass
class SublevelArea:
    area: float
    r: float
    mesh_h: float
    error_estimate: float
    raw_values: tuple[float, ...]


def _sublevel_once(s, curve_slots, r, mesh_h):
    field = DistanceField(s, mesh_h).solve(source_slots=curve_slots)
    cuts = _cuts(s, mesh_h)
    # a face the field covers counts all its m * m subtriangles unbuilt
    count = {f: m * m for f, m in enumerate(cuts) if field.covers(f, r)}
    rest = [f for f in range(len(cuts)) if f not in count]
    for f, pts, _ in _subtriangles(s, rest, mesh_h):
        count[f] = int(field.within(f, pts, r).sum())
    total = 0.0
    for f, m in enumerate(cuts):
        total += s.face_area(f) / (m * m) * count[f]
    return total


def sublevel_area(s: ConeSurface, curve_slots, r: float, mesh_h: float = 0.01,
                  extrapolate: bool = True) -> SublevelArea:
    """Area of the set of points within distance r of the marked curve,
    with Richardson extrapolation over one mesh refinement.

    Each face is cut into congruent subtriangles, counted when their
    centroid is within r by DistanceField.within: exactly the count of
    eval_points(...) <= r, since a subset of nodes accepts a point only if
    all nodes do.  A face DistanceField.covers counts whole, with the same
    result.
    """
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
    faces = [f for f in range(len(s.lengths))
             if region is None or region[f] not in EXCLUDED_REGIONS]
    for f, pts, sub_area in _subtriangles(s, faces, mesh_h):
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
