"""Piecewise-flat cone surfaces with explicit edge gluings.

A surface is a list of Euclidean triangles (three edge lengths each) plus a
list of gluing records ``(f, e, f2, e2, flip)`` pairing edge slot ``e`` of
face ``f`` with slot ``e2`` of ``f2``.  Slot ``e`` of a face runs from local
vertex ``e`` to vertex ``(e+1) % 3``.  With ``flip=False`` the identification
matches ``v_e <-> v_e2`` and ``v_{e+1} <-> v_{e2+1}``; with ``flip=True`` it
matches ``v_e <-> v_{e2+1}`` and ``v_{e+1} <-> v_e2``.  Unpaired slots are
boundary edges.  Vertices, cone angles, orientability and Euler
characteristic are all derived from the gluing combinatorics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .constants import SurfaceParameters, relations_ok

GLUE_LENGTH_TOL = 1e-12
ANGLE_TOL = 1e-9

Corner = tuple[int, int]
Slot = tuple[int, int]


class SurfaceError(ValueError):
    pass


def _components(n: int, pairs) -> np.ndarray:
    """Component label of each of n nodes joined by the index pairs;
    components are numbered in order of their first node."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    graph = coo_matrix((np.ones(len(pairs)), pairs.T), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _face_table(faces) -> np.ndarray:
    """(F, 3) float copy of the face side lengths."""
    try:
        lengths = np.array(faces, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SurfaceError(f"faces must be rows of three lengths: {exc}") from None
    if lengths.shape == (0,):
        lengths = lengths.reshape(0, 3)
    if lengths.ndim != 2 or lengths.shape[1] != 3:
        raise SurfaceError("faces must be rows of three lengths")
    return lengths


def _gluing_table(gluings) -> np.ndarray:
    """(G, 5) int copy of the gluing records, flip as 0 or 1."""
    try:
        g = np.array(gluings)
    except (TypeError, ValueError) as exc:
        raise SurfaceError(f"gluing records must have 5 entries: {exc}") from None
    if g.shape == (0,):
        g = np.zeros((0, 5), dtype=np.intp)
    if g.ndim != 2 or g.shape[1] != 5:
        raise SurfaceError("gluing records must have 5 entries")
    if g.dtype.kind not in "biu":
        raise SurfaceError("gluing records need integer slot indices")
    g = g.astype(np.intp)
    g[:, 4] = g[:, 4] != 0
    return g


class ConeSurface:
    """Immutable triangulated piecewise-flat surface, possibly with boundary.

    `lengths` is the (F, 3) float array of side lengths and `glue_records`
    the (G, 5) int array of gluing records, both read-only; `faces` and
    `gluings` are the same as lists of tuples, built on first use.
    """

    def __init__(self, faces, gluings, name: str = "", marks: dict | None = None):
        self.lengths = _read_only(_face_table(faces))
        self.glue_records = _read_only(_gluing_table(gluings))
        self.name = name
        self.marks = marks or {}
        self._validate()

    # -- validation and derived combinatorics ---------------------------

    def _validate(self):
        """Raise the error a scan of the faces, then of the gluing records
        in order, would meet first: per record, each slot glued twice or
        out of range, then the two edge lengths."""
        a, b, c = self.lengths.T
        bad = ~((a + b > c) & (b + c > a) & (c + a > b))
        if bad.any():
            raise SurfaceError(f"face {int(bad.argmax())} violates the triangle inequality")
        g = self.glue_records
        slots = g[:, :4].reshape(-1, 2)  # slot 2i + j is slot j of record i
        f, e = slots.T
        outside = ~((0 <= f) & (f < len(self.lengths)) & (0 <= e) & (e < 3))
        # out-of-range slots get distinct keys: the first one already fails
        key = np.where(outside, -1 - np.arange(len(slots)), 3 * f + e)
        order = np.argsort(key, kind="stable")
        twice = np.zeros(len(slots), dtype=bool)
        twice[order[1:]] = key[order[1:]] == key[order[:-1]]
        ends = self.lengths[np.where(outside, 0, f), np.where(outside, 0, e)]
        unequal = np.abs(ends[0::2] - ends[1::2]) > GLUE_LENGTH_TOL
        events = np.column_stack([twice[0::2], outside[0::2], twice[1::2],
                                  outside[1::2], unequal]).ravel()
        if not events.any():
            return
        i, stage = divmod(int(events.argmax()), 5)
        if stage == 4:
            f, e, f2, e2 = g[i, :4].tolist()
            raise SurfaceError(
                f"glued edges ({f},{e})~({f2},{e2}) have unequal lengths")
        s = tuple(slots[2 * i + stage // 2].tolist())
        raise SurfaceError(f"slot {s} {'out of range' if stage % 2 else 'glued twice'}")

    @cached_property
    def faces(self) -> list[tuple[float, float, float]]:
        return list(map(tuple, self.lengths.tolist()))

    @cached_property
    def gluings(self) -> list[tuple[int, int, int, int, bool]]:
        return [(f, e, f2, e2, bool(flip))
                for f, e, f2, e2, flip in self.glue_records.tolist()]

    @cached_property
    def glue_map(self) -> dict[Slot, tuple[int, int, bool]]:
        m: dict[Slot, tuple[int, int, bool]] = {}
        for f, e, f2, e2, flip in self.gluings:
            m[(f, e)] = (f2, e2, flip)
            m[(f2, e2)] = (f, e, flip)
        return m

    @cached_property
    def boundary_slots(self) -> list[Slot]:
        """Unglued slots, in order of face and slot."""
        free = np.ones(self.lengths.shape, dtype=bool)
        g = self.glue_records
        free[g[:, 0], g[:, 1]] = False
        free[g[:, 2], g[:, 3]] = False
        return list(map(tuple, np.argwhere(free).tolist()))

    @property
    def is_closed(self) -> bool:
        return not self.boundary_slots

    @cached_property
    def vertex_ids(self) -> np.ndarray:
        """(F, 3) vertex id of each corner; vertices are numbered in order
        of their first corner."""
        f, e, f2, e2, flip = self.glue_records.T
        # flip=False matches v_e ~ v_e2 and v_{e+1} ~ v_{e2+1}; flip=True
        # matches v_e ~ v_{e2+1} and v_{e+1} ~ v_e2
        e1, e21 = (e + 1) % 3, (e2 + 1) % 3
        pairs = np.concatenate([
            np.column_stack([3 * f + e, 3 * f2 + np.where(flip, e21, e2)]),
            np.column_stack([3 * f + e1, 3 * f2 + np.where(flip, e2, e21)])])
        return _read_only(_components(3 * len(self.lengths), pairs).reshape(-1, 3))

    def vertex_of(self, corner: Corner) -> int:
        return int(self.vertex_ids[corner[0], corner[1]])

    @cached_property
    def n_vertices(self) -> int:
        return int(self.vertex_ids.max()) + 1

    @property
    def n_edges(self) -> int:
        return len(self.glue_records) + len(self.boundary_slots)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + len(self.lengths)

    def face_angles(self, f: int) -> tuple[float, float, float]:
        return tuple(self.corner_angles[f].tolist())

    @cached_property
    def vertex_angles(self) -> list[float]:
        # bincount adds in face order, as a loop over the corners would
        return np.bincount(self.vertex_ids.ravel(), self.corner_angles.ravel(),
                           minlength=self.n_vertices).tolist()

    @cached_property
    def boundary_vertices(self) -> set[int]:
        out = set()
        for f, e in self.boundary_slots:
            out.add(self.vertex_of((f, e)))
            out.add(self.vertex_of((f, (e + 1) % 3)))
        return out

    def cone_points(self, tol: float = 1e-9) -> dict[int, float]:
        """Interior vertices whose total angle differs from 2*pi."""
        return {
            v: a
            for v, a in enumerate(self.vertex_angles)
            if v not in self.boundary_vertices and abs(a - 2 * math.pi) > tol
        }

    def gauss_bonnet_residual(self) -> float:
        total = 0.0
        for v, a in enumerate(self.vertex_angles):
            if v in self.boundary_vertices:
                total += math.pi - a
            else:
                total += 2 * math.pi - a
        return total - 2 * math.pi * self.euler_characteristic

    @cached_property
    def orientable(self) -> bool:
        """No face has both its sheets in one component of the two-sheeted
        cover: each component then lifts to two copies of itself."""
        F = len(self.lengths)
        comp = _components(2 * F, _sheet_gluings(self)[:, [0, 2]])
        return bool((comp[:F] != comp[F:]).all())

    def face_area(self, f: int) -> float:
        return float(self.face_areas[f])

    @cached_property
    def area(self) -> float:
        return sum(self.face_areas.tolist())

    # -- per-corner tables, computed once and read-only -----------------

    @cached_property
    def corner_cos(self) -> np.ndarray:
        """(F, 3) cosine of each corner angle by the law of cosines; the
        angle at corner c lies between sides c and c-1, opposite side c+1."""
        l = self.lengths
        adj1, adj2, opp = l, l[:, [2, 0, 1]], l[:, [1, 2, 0]]
        cosv = (adj1 * adj1 + adj2 * adj2 - opp * opp) / (2 * adj1 * adj2)
        return _read_only(np.clip(cosv, -1.0, 1.0))

    @cached_property
    def corner_angles(self) -> np.ndarray:
        """(F, 3) angle at each corner."""
        # scalar math.acos: np.arccos differs from it in the last bit
        rows = [[math.acos(x) for x in row] for row in self.corner_cos.tolist()]
        return _read_only(np.array(rows, dtype=float).reshape(-1, 3))

    @cached_property
    def face_areas(self) -> np.ndarray:
        """(F,) area of each face by Heron's formula."""
        a, b, c = self.lengths.T
        s = (a + b + c) / 2
        return _read_only(np.sqrt(np.maximum(0.0, s * (s - a) * (s - b) * (s - c))))

    @cached_property
    def charts(self) -> np.ndarray:
        """(F, 3, 2) planar coordinates of each face: corner 0 at the origin,
        corner 1 on the +x axis, corner 2 above it."""
        out = np.zeros((len(self.lengths), 3, 2))
        for f, ((l0, _, l2), a0) in enumerate(
                zip(self.lengths.tolist(), self.corner_angles[:, 0].tolist())):
            out[f, 1, 0] = l0
            out[f, 2] = l2 * math.cos(a0), l2 * math.sin(a0)
        return _read_only(out)

    @cached_property
    def link_frames(self) -> np.ndarray:
        """(F, 3, 4) angular frame (offset, E_x, E_y, sigma) of each corner
        on the link circle of its vertex.

        The corner spans [offset, offset + corner angle] of the link, E is
        the unit chart direction of the link walk's entry edge at the corner,
        and sigma = +-1 is the in-chart rotation sense from E toward the
        corner interior.
        """
        out = np.zeros((len(self.lengths), 3, 4))
        done = set()
        for f in range(len(self.lengths)):
            for c in range(3):
                if (f, c) in done:
                    continue
                for ff, cc, entry, off in self.vertex_link((f, c)):
                    ch = self.charts[ff]
                    other = (cc + 1) % 3 if entry == cc else (cc + 2) % 3
                    E = ch[other] - ch[cc]
                    E = E / math.hypot(E[0], E[1])
                    F = ch[3 - cc - other] - ch[cc]
                    sigma = 1.0 if E[0] * F[1] - E[1] * F[0] > 0 else -1.0
                    out[ff, cc] = off, E[0], E[1], sigma
                    done.add((ff, cc))
        return _read_only(out)

    # -- planar charts and transitions ----------------------------------

    def chart(self, f: int) -> np.ndarray:
        """Planar coordinates of face f (read-only): v0 at origin, v1 on the
        +x axis."""
        return self.charts[f]

    @cached_property
    def chart_floats(self) -> list[tuple[tuple[float, float], ...]]:
        """Per face, its chart as three (x, y) tuples of floats."""
        return [tuple(map(tuple, ch)) for ch in self.charts.tolist()]

    @cached_property
    def transitions(self) -> list[list[tuple | None]]:
        """Per face and slot, the transition across the slot as plain floats,
        (f2, e2, (R00, R01, R10, R11), (t0, t1)), or None at a boundary
        slot; built for every glued slot at once.  See edge_transition."""
        out: list[list[tuple | None]] = [[None] * 3 for _ in range(len(self.lengths))]
        for (f, e), (f2, e2, flip) in self.glue_map.items():
            R, t = self._transition(f, e, f2, e2, flip)
            out[f][e] = (f2, e2, tuple(R.ravel().tolist()), tuple(t.tolist()))
        return out

    def edge_transition(self, f: int, e: int):
        """Isometry mapping chart(f2) into chart(f) across the gluing at (f, e).

        Returns (f2, e2, flip, R, t) with x |-> R @ x + t; R may be a
        reflection when the gluing reverses orientation.
        """
        g = self.glue_map.get((f, e))
        if g is None:
            raise SurfaceError(f"slot ({f},{e}) is a boundary edge")
        f2, e2, R, t = self.transitions[f][e]
        return f2, e2, g[2], np.reshape(R, (2, 2)), np.array(t)

    def _transition(self, f, e, f2, e2, flip):
        """(R, t) of the transition across (f, e), glued to (f2, e2)."""
        ch, ch2 = self.chart(f), self.chart(f2)
        p0, p1 = ch[e], ch[(e + 1) % 3]
        if flip:
            q0, q1 = ch2[(e2 + 1) % 3], ch2[e2]
        else:
            q0, q1 = ch2[e2], ch2[(e2 + 1) % 3]
        # two isometries map segment q0q1 onto p0p1: a rotation and a glide
        # reflection; the glued face must land on the far side of the edge
        u = p1 - p0
        v = q1 - q0
        nrm = float(v @ v)
        c, s = float(u @ v) / nrm, float(u[1] * v[0] - u[0] * v[1]) / nrm
        R_rot = np.array([[c, -s], [s, c]])
        n = np.array([-v[1], v[0]]) / math.sqrt(nrm)
        R_ref = R_rot @ (np.eye(2) - 2.0 * np.outer(n, n))
        opp = ch2[(e2 + 2) % 3]
        side_in = _side(p0, p1, ch[(e + 2) % 3])
        for R in (R_rot, R_ref):
            t = p0 - R @ q0
            if not np.allclose(R @ q1 + t, p1, atol=1e-9):
                raise SurfaceError(f"edge ({f},{e}) does not map onto its twin")
            if _side(p0, p1, R @ opp + t) == -side_in:
                return R, t
        raise SurfaceError(f"no valid transition across ({f},{e})")

    # -- vertex links ----------------------------------------------------

    def _corner_slots(self, c: int) -> tuple[int, int]:
        """The two edge slots incident to local corner c (next, prev)."""
        return c, (c + 2) % 3

    def _step_link(self, f: int, c: int, exit_slot: int):
        """Cross `exit_slot` at corner (f, c); return (f2, c2, entry_slot)."""
        g = self.glue_map.get((f, exit_slot))
        if g is None:
            return None
        f2, e2, flip = g
        starts = c == exit_slot  # vertex is the start of the exit edge
        if starts:
            c2 = (e2 + 1) % 3 if flip else e2
        else:
            c2 = e2 if flip else (e2 + 1) % 3
        return f2, c2, e2

    def vertex_link(self, corner: Corner) -> list[tuple[int, int, int, float]]:
        """Corners around the vertex of `corner`, in cyclic (or chain) order.

        Each item is (face, corner, slot entered through, angular offset); the
        offset of an item is the total corner angle accumulated before it.
        For a boundary vertex the walk starts at one boundary slot and ends
        at the other.
        """
        v = self.vertex_of(corner)
        f, c = corner
        # rewind to a boundary slot if there is one
        entry = self._corner_slots(c)[1]
        start = (f, c, entry)
        seen = {(f, c)}
        while True:
            step = self._step_link(start[0], start[1], start[2])
            if step is None:
                break
            f2, c2, e2 = step
            if (f2, c2) in seen:
                break  # interior vertex: full cycle
            seen.add((f2, c2))
            other = [s for s in self._corner_slots(c2) if s != e2][0]
            start = (f2, c2, other)
        # walk forward accumulating offsets
        out = []
        offset = 0.0
        f, c, entry = start
        # entry slot for the forward walk is the *other* slot at start corner
        entry = [s for s in self._corner_slots(c) if s != start[2]][0]
        visited = set()
        while True:
            if (f, c) in visited:
                break
            visited.add((f, c))
            out.append((f, c, entry, offset))
            offset += self.face_angles(f)[c]
            exit_slot = [s for s in self._corner_slots(c) if s != entry][0]
            step = self._step_link(f, c, exit_slot)
            if step is None:
                break
            f, c, entry = step
        if any(self.vertex_of((ff, cc)) != v for ff, cc, _, _ in out):
            raise SurfaceError(f"link walk around vertex {v} left the vertex")
        return out

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        marks = dict(self.marks)
        if "boundary_labels" in marks:
            marks["boundary_labels"] = {
                str(slot): lbl for slot, lbl in marks["boundary_labels"].items()}
        return {
            "name": self.name,
            "faces": [list(tri) for tri in self.faces],
            "gluings": [[f, e, f2, e2, int(flip)] for f, e, f2, e2, flip in self.gluings],
            "marks": {
                "weierstrass": marks.get("weierstrass", []),
                "p": marks.get("p"),
                "q": marks.get("q"),
                "soul": marks.get("soul", []),
                **{
                    k: v
                    for k, v in sorted(marks.items())
                    if k not in ("weierstrass", "p", "q", "soul")
                },
            },
        }

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConeSurface":
        marks = {}
        for k, v in d.get("marks", {}).items():
            if v is None or v == []:
                continue
            if k in ("weierstrass", "soul"):
                v = [tuple(x) for x in v]
            elif k in ("p", "q"):
                v = tuple(v)
            elif k == "boundary_labels":
                v = {_parse_slot(key): lbl for key, lbl in v.items()}
            marks[k] = v
        return cls(d["faces"], [tuple(g) for g in d["gluings"]], d.get("name", ""), marks)

    @classmethod
    def load_json(cls, path) -> "ConeSurface":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def structurally_equal(self, other: "ConeSurface", tol: float = 1e-12) -> bool:
        if len(self.faces) != len(other.faces) or len(self.gluings) != len(other.gluings):
            return False
        if any(
            abs(a - b) > tol for t1, t2 in zip(self.faces, other.faces) for a, b in zip(t1, t2)
        ):
            return False
        return sorted(self.gluings) == sorted(other.gluings)


def _parse_slot(key: str) -> Slot:
    """Inverse of str((f, e))."""
    f, e = key.strip("()").split(",")
    return int(f), int(e)


def _side(p0, p1, x) -> int:
    cr = (p1[0] - p0[0]) * (x[1] - p0[1]) - (p1[1] - p0[1]) * (x[0] - p0[0])
    return 1 if cr > 0 else (-1 if cr < 0 else 0)


# -- cut graphs --------------------------------------------------------


@dataclass
class CutGraph:
    """Edge paths on a surface, each path a list of interior edge slots."""

    paths: list[list[Slot]] = field(default_factory=list)

    def all_slots(self) -> list[Slot]:
        return [s for p in self.paths for s in p]


def cut_along_graph(s: ConeSurface, g: CutGraph) -> ConeSurface:
    """Cut the surface open along mesh-edge paths (removes their gluings)."""
    cut: set[Slot] = set()
    for slot in g.all_slots():
        slot = (int(slot[0]), int(slot[1]))
        rec = s.glue_map.get(slot)
        if rec is None:
            raise SurfaceError(f"cut edge {slot} is not an interior edge")
        twin = (rec[0], rec[1])
        if slot in cut or twin in cut:
            raise SurfaceError(f"cut edge {slot} repeated: graph not embedded")
        cut.add(slot)
        cut.add(twin)
    keep = [rec for rec in s.gluings if (rec[0], rec[1]) not in cut]
    return ConeSurface(s.lengths, keep, name=s.name + "|cut", marks=dict(s.marks))


# -- orientation double cover ------------------------------------------


def _sheet_gluings(s: ConeSurface) -> np.ndarray:
    """Gluings of the two-sheeted cover, whose face f + k*F is face f on
    sheet k: a gluing keeps the sheet when flip=True, which preserves the
    face-orientation sign, and swaps it otherwise.  Record i of s gives
    records 2i (from sheet 0) and 2i + 1 (from sheet 1)."""
    F = len(s.lengths)
    g = s.glue_records
    other = np.where(g[:, 4] == 1, 0, F)
    lift = np.stack([g, g], axis=1)
    lift[:, 0, 2] += other
    lift[:, 1, 0] += F
    lift[:, 1, 2] += F - other
    return lift.reshape(-1, 5)


def orientation_double_cover(s: ConeSurface) -> ConeSurface:
    """Orientable double cover: two copies of each face, sheets swapped
    across every orientation-reversing gluing."""
    if s.orientable:
        raise SurfaceError("surface is already orientable")
    F = len(s.lengths)
    marks = {}
    for k, v in s.marks.items():
        if k in ("weierstrass", "soul"):
            marks[k] = [tuple(x) for x in v] + [(x[0] + F, x[1]) for x in v]
        elif k in ("p", "q"):
            marks[k] = tuple(v)
        elif k in ("region", "cell"):
            marks[k] = list(v) + list(v)
        elif k == "boundary_labels":
            marks[k] = {slot: lbl for (f, e), lbl in v.items()
                        for slot in ((f, e), (f + F, e))}
    return ConeSurface(np.concatenate([s.lengths, s.lengths]), _sheet_gluings(s),
                       name=s.name + "|cover", marks=marks)


# -- uniform 4-to-1 subdivision ----------------------------------------


def _half_slot(f: int, e: int, k: int) -> Slot:
    """Child slot carrying half k (0 or 1) of parent edge (f, e)."""
    return (4 * f + (e + k) % 3, e)


# the three inner gluings of face f's children, with 4f added to columns
# 0 and 2: corner children 4f, 4f+1, 4f+2 against the middle child 4f+3
_INNER_GLUINGS = np.array([[0, 1, 3, 2, 1], [1, 2, 3, 0, 1], [2, 0, 3, 1, 1]])


def subdivide(s: ConeSurface) -> ConeSurface:
    """Uniform 4-to-1 subdivision.  Face f has children 4f + c at corner c
    and 4f + 3 in the middle; the records are the inner gluings of each
    face in face order, then the two halves of each parent gluing."""
    F = len(s.lengths)
    h = s.lengths / 2
    faces = np.stack([h, h, h, h[:, [2, 0, 1]]], axis=1).reshape(-1, 3)
    inner = _INNER_GLUINGS + (4 * np.arange(F))[:, None, None] * [1, 0, 1, 0, 0]
    # half k of parent edge (f, e) is slot e of child 4f + (e + k) % 3
    f, e, f2, e2, flip = (c[:, None] for c in s.glue_records.T)
    k = np.array([[0, 1]])
    k2 = np.where(flip == 1, 1 - k, k)  # a flip pairs the halves crosswise
    halves = np.stack(np.broadcast_arrays(
        4 * f + (e + k) % 3, e, 4 * f2 + (e2 + k2) % 3, e2, flip), axis=-1)
    gluings = np.concatenate([inner.reshape(-1, 5), halves.reshape(-1, 5)])
    marks = {}
    for k, v in s.marks.items():
        if k in ("weierstrass",):
            marks[k] = [_corner_child(c) for c in v]
        elif k in ("p", "q"):
            marks[k] = _corner_child(tuple(v))
        elif k == "soul":
            marks[k] = [h for (f, e) in v for h in (_half_slot(f, e, 0), _half_slot(f, e, 1))]
        elif k in ("region", "cell"):
            marks[k] = [lbl for lbl in v for _ in range(4)]
        elif k == "boundary_labels":
            marks[k] = {
                _half_slot(f, e, half): lbl
                for (f, e), lbl in v.items()
                for half in (0, 1)
            }
    return ConeSurface(faces, gluings, name=s.name + "|sub", marks=marks)


def _corner_child(corner) -> Corner:
    f, c = corner
    return (4 * f + c, c)


# -- boundary components -----------------------------------------------


def boundary_components(s: ConeSurface) -> list[list[Slot]]:
    slots = s.boundary_slots
    n = len(slots)
    # node i is boundary slot i, node n + v is vertex v; a slot joins its ends
    pairs = [(i, n + s.vertex_of((f, c)))
             for i, (f, e) in enumerate(slots) for c in (e, (e + 1) % 3)]
    labels = _components(n + s.n_vertices, pairs)
    comps: dict[int, list[Slot]] = {}
    for i, slot in enumerate(slots):
        comps.setdefault(labels[i], []).append(slot)
    return sorted(comps.values())


# -- builders -----------------------------------------------------------


def build_trapezoid(p: SurfaceParameters) -> np.ndarray:
    """Counterclockwise planar trapezoid: short side on the x axis, height h."""
    if not (0 < p.theta < math.pi / 2):
        raise SurfaceError("theta out of range")
    if abs(p.alpha - (math.pi - p.theta) / 2) > 1e-9:
        raise SurfaceError("alpha and theta violate the defining relations")
    w = p.h / math.tan(p.alpha)
    return np.array(
        [
            [0.0, 0.0],
            [p.short_side, 0.0],
            [p.short_side + w, p.h],
            [-w, p.h],
        ]
    )


def surface_from_vertex_faces(coords, faces, name: str = "", marks=None) -> ConeSurface:
    """Build a ConeSurface from a vertex-indexed triangulation.

    Only valid when no two faces share more than one edge; gluings and flips
    are recovered from shared (unordered) vertex-id pairs.
    """
    coords = np.asarray(coords, dtype=float)
    tris = np.array(faces, dtype=int).reshape(-1, 3)
    gluings, _ = match_vertex_edges(tris)
    return ConeSurface(side_lengths(coords[tris]), gluings, name=name, marks=marks)


def side_lengths(pts) -> np.ndarray:
    """Side lengths (F, 3) of the triangles pts (F, 3, dim): column e is the
    length of slot e, from corner e to corner e + 1."""
    d = np.roll(pts, -1, axis=1) - pts
    # the batched dot product rounds exactly as np.linalg.norm of one side
    return np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]


def match_vertex_edges(tris) -> tuple[np.ndarray, np.ndarray]:
    """Gluings (G, 5) and boundary slots (B, 2) of a vertex-indexed
    triangulation, as int arrays.

    Two slots whose (unordered) vertex-id pairs coincide are glued; a slot
    whose pair occurs once is a boundary slot.  Slots are listed in order of
    the first occurrence of their pair, and each gluing starts at that first
    slot.
    """
    t = np.asarray(tris, dtype=np.intp).reshape(-1, 3)
    start = t.ravel()  # slot 3f + e runs from corner e to corner e + 1
    end = np.roll(t, -1, axis=1).ravel()
    lo, hi = np.minimum(start, end), np.maximum(start, end)
    order = np.lexsort((hi, lo))  # stable: each pair's slots stay in order
    lo_s, hi_s = lo[order], hi[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (lo_s[1:] != lo_s[:-1]) | (hi_s[1:] != hi_s[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(order)))
    by_first = np.argsort(order[starts])
    starts, counts = starts[by_first], counts[by_first]
    first = order[starts]
    if (counts > 2).any():
        k = first[np.argmax(counts > 2)]
        raise SurfaceError(
            f"edge {(int(lo[k]), int(hi[k]))} shared by more than two faces")
    glued = counts == 2
    a, b = first[glued], order[starts[glued] + 1]
    # different start vertices: endpoints pair up crosswise
    flip = start[a] != start[b]
    gluings = np.column_stack([a // 3, a % 3, b // 3, b % 3, flip])
    one = first[~glued]
    return gluings, np.column_stack([one // 3, one % 3])


def build_flat_torus(a: float = 1.0, b: float = 1.0, shear: float = 0.0) -> ConeSurface:
    """Flat torus from the lattice spanned by (a, 0) and (shear, b)."""
    u = np.array([a, 0.0])
    v = np.array([shear, b])
    l_u, l_v, l_d = np.linalg.norm(u), np.linalg.norm(v), np.linalg.norm(u + v)
    # faces (0, u, u+v) and (0, u+v, v)
    faces = [(l_u, l_v, l_d), (l_d, l_u, l_v)]
    gluings = [
        (0, 2, 1, 0, True),  # shared diagonal
        (0, 0, 1, 1, True),  # bottom ~ top
        (0, 1, 1, 2, True),  # right ~ left
    ]
    return ConeSurface(faces, gluings, name=f"torus({a},{b},{shear})")


def build_flat_klein_bottle(a: float = 1.0, b: float = 1.0) -> ConeSurface:
    """Flat Klein bottle: an a x b rectangle, top glued by translation and
    sides glued with a vertical flip."""
    l_d = math.hypot(a, b)
    # faces (0, ae1, ae1+be2) and (0, ae1+be2, be2)
    faces = [(a, b, l_d), (l_d, a, b)]
    gluings = [
        (0, 2, 1, 0, True),
        (0, 0, 1, 1, True),  # bottom ~ top, translation
        (0, 1, 1, 2, False),  # right ~ left, reversed
    ]
    return ConeSurface(faces, gluings, name=f"klein({a},{b})")


def build_cylinder(circumference: float, height: float, columns: int = 6) -> ConeSurface:
    """Flat right cylinder, both boundary circles free; `columns` >= 3.

    Column j is a w x height rectangle split along its rising diagonal:
    faces 2j = (b_j, b_j+1, u_j+1) and 2j+1 = (b_j, u_j+1, u_j).
    """
    if columns < 3:
        raise SurfaceError("need at least 3 columns")
    n = columns
    w = circumference / n
    diag = math.hypot(w, height)
    faces = []
    gluings = []
    labels = {}
    for j in range(n):
        faces.append((w, height, diag))
        faces.append((diag, w, height))
        gluings.append((2 * j, 2, 2 * j + 1, 0, True))  # diagonal
        gluings.append((2 * j, 1, 2 * ((j + 1) % n) + 1, 2, True))  # vertical seam
        labels[(2 * j, 0)] = "bottom"
        labels[(2 * j + 1, 1)] = "top"
    return ConeSurface(faces, gluings, name=f"cylinder({circumference},{height})",
                       marks={"boundary_labels": labels})


def build_round_annulus(r_in: float, r_out: float, n_theta: int = 48, n_r: int = 8) -> ConeSurface:
    """Planar round annulus triangulated on a polar grid."""
    coords = []
    for i in range(n_r + 1):
        r = r_in * (r_out / r_in) ** (i / n_r)
        for j in range(n_theta):
            t = 2 * math.pi * j / n_theta
            coords.append((r * math.cos(t), r * math.sin(t)))
    tris = []
    for i in range(n_r):
        for j in range(n_theta):
            j2 = (j + 1) % n_theta
            a, b = i * n_theta + j, i * n_theta + j2
            c, d = (i + 1) * n_theta + j, (i + 1) * n_theta + j2
            tris.append((a, b, d))
            tris.append((a, d, c))
    s = surface_from_vertex_faces(coords, tris, name="annulus")
    labels = {}
    for f, e in s.boundary_slots:
        inner = f < 2 * n_theta
        labels[(f, e)] = "bottom" if inner else "top"
    return ConeSurface(s.lengths, s.glue_records, name=f"annulus({r_in},{r_out})",
                       marks={"boundary_labels": labels})


def build_extremal_dyck(p: SurfaceParameters | None = None) -> ConeSurface:
    """The extremal nonpositively curved Dyck's surface as a flat cone mesh.

    Six trapezoids form the hexagonal annulus (outer half-sides identified in
    opposite pairs, creating the two 6-alpha cone points p, q and the three
    smooth Weierstrass midpoints); a cylinder of circumference 2 and height
    delta closes it into a Moebius band whose soul is the top circle.

    Face layout (all indices mod 6 in j):
      trapezoid j:  A_j=3j   (I_j, I_j+1, M_j)
                    B_j=3j+1 (I_j+1, O_j+1, M_j)
                    C_j=3j+2 (I_j, M_j, O_j)
      cylinder col: P_j=18+4j (B_j, B_j+1, X_j)   Q_j=19+4j (B_j+1, U_j+1, X_j)
                    R_j=20+4j (U_j+1, U_j, X_j)   S_j=21+4j (U_j, B_j, X_j)
    The trapezoid outer half-sides are B_j slot 1 and C_j slot 1; the
    cylinder top edges are R_j slot 0.
    """
    p = p or SurfaceParameters.paper()
    if not relations_ok(p, 1e-9):
        raise SurfaceError("parameters violate the defining relations")
    short = p.short_side
    leg = p.leg
    half_long = p.long_side / 2
    dmid = math.hypot(short / 2, p.h)  # I to outer midpoint M
    r = math.hypot(short / 2, p.delta / 2)  # rectangle corner to center X
    faces = []
    for j in range(6):
        faces.append((short, dmid, dmid))  # A_j
        faces.append((leg, half_long, dmid))  # B_j
        faces.append((dmid, half_long, leg))  # C_j
    for j in range(6):
        faces.append((short, r, r))  # P_j
        faces.append((p.delta, r, r))  # Q_j
        faces.append((short, r, r))  # R_j
        faces.append((p.delta, r, r))  # S_j
    A = lambda j: 3 * (j % 6)
    B = lambda j: 3 * (j % 6) + 1
    C = lambda j: 3 * (j % 6) + 2
    P = lambda j: 18 + 4 * (j % 6)
    Q = lambda j: 19 + 4 * (j % 6)
    R = lambda j: 20 + 4 * (j % 6)
    S = lambda j: 21 + 4 * (j % 6)
    gluings = []
    for j in range(6):
        gluings += [
            (A(j), 1, B(j), 2, True),
            (A(j), 2, C(j), 0, True),
            (B(j), 0, C(j + 1), 2, True),
            (P(j), 0, A(j), 0, False),
            (P(j), 1, Q(j), 2, True),
            (Q(j), 1, R(j), 2, True),
            (R(j), 1, S(j), 2, True),
            (S(j), 1, P(j), 2, True),
            (Q(j), 0, S(j + 1), 0, True),
        ]
    for j in range(3):
        # outer side of trapezoid j ~ outer side of trapezoid j+3, by the
        # central identification O_j <-> O_{j+4}, M_j <-> M_{j+3}
        gluings.append((B(j), 1, C(j + 3), 1, True))
        gluings.append((C(j), 1, B(j + 3), 1, True))
        gluings.append((R(j), 0, R(j + 3), 0, False))  # antipodal top
    marks = {
        "weierstrass": [(A(j), 2) for j in range(3)],
        "p": (C(0), 2),  # O_0
        "q": (B(0), 1),  # O_1
        "soul": [(R(j), 0) for j in range(3)],
        "region": ["hex"] * 18 + ["mobius"] * 24,
        "cell": [j % 3 for j in range(6) for _ in range(3)] + [-1] * 24,
    }
    return ConeSurface(faces, gluings, name="dyck_extremal", marks=marks)


def extremal_cut_graph(s: ConeSurface) -> CutGraph:
    """The symmetry graph: three p--q arcs through the Weierstrass points
    (the identified outer sides of the hexagonal annulus)."""
    paths = []
    for j in range(3):
        b = 3 * j + 1
        c = 3 * j + 2
        paths.append([(c, 1), (b, 1)])  # O_j -> M_j -> O_{j+1}
    return CutGraph(paths)


def build_collar_flat(p: SurfaceParameters | None = None) -> ConeSurface:
    """The flat collar: the orientation double cover of the extremal
    surface cut along its symmetry graph.

    The cut surface is a Moebius band around the soul; its cover is an
    annulus around the soul's lift, of length 2.  Each lift of the cut
    boundary lies in one sheet: boundary slots of the first sheet are
    labeled "bottom", those of the second "top".
    """
    s = build_extremal_dyck(p)
    cover = orientation_double_cover(cut_along_graph(s, extremal_cut_graph(s)))
    F = len(s.lengths)
    labels = {(f, e): "bottom" if f < F else "top" for f, e in cover.boundary_slots}
    return ConeSurface(cover.lengths, cover.glue_records, name="collar_flat",
                       marks={**cover.marks, "boundary_labels": labels})
