"""Piecewise-flat cone surfaces with explicit edge gluings.

A surface is a list of Euclidean triangles (three edge lengths each) plus a
list of gluing records ``(f, e, f2, e2, flip)`` pairing edge slot ``e`` of
face ``f`` with slot ``e2`` of ``f2``.  Slot ``e`` of a face runs from local
vertex ``e`` to vertex ``(e+1) % 3``.  With ``flip=False`` the identification
matches ``v_e <-> v_e2`` and ``v_{e+1} <-> v_{e2+1}``; with ``flip=True`` it
matches ``v_e <-> v_{e2+1}`` and ``v_{e+1} <-> v_e2``.  Unpaired slots are
boundary edges.  Vertices, cone angles, orientability and Euler
characteristic are all derived from the gluing combinatorics.

Face charts are counterclockwise (corner 2 above the x axis): ``flip=True``
marks an orientation-preserving gluing, whose chart transition is a
rotation, and ``flip=False`` one whose transition is a reflection.  Faces
degenerate in floating point (a corner cosine of +-1) are refused.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .constants import SurfaceParameters, relations_ok

GLUE_LENGTH_TOL = 1e-12

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
        """Raise the error scans in order would meet first: faces for the
        triangle inequality, then for a corner cosine of +-1; then, per gluing
        record, each slot glued twice or out of range, then the edge lengths."""
        a, b, c = self.lengths.T
        bad = ~((a + b > c) & (b + c > a) & (c + a > b))
        if bad.any():
            raise SurfaceError(f"face {int(bad.argmax())} violates the triangle inequality")
        flat = (np.abs(self.corner_cos) >= 1).any(axis=1)
        if flat.any():
            raise SurfaceError(
                f"face {int(flat.argmax())} is degenerate: a corner angle is 0 or pi")
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
        on the link circle of its vertex; closed surfaces only.

        The corner spans [offset, offset + corner angle] of the link, E is
        the unit chart direction of the link walk's entry edge at the corner,
        and sigma = +-1 is the in-chart rotation sense from E toward the
        corner interior.  The walk enters the vertex's first corner (in
        order of face and corner) through its slot c, and the link starts,
        at offset 0, at the corner the walk comes from.
        """
        if not self.is_closed:
            raise SurfaceError("vertex links need a closed surface")
        # dart 2(3f + c) + k is corner (f, c) entered through slot c (k = 0)
        # or slot c + 2 (k = 1) and left through the other; its successor is
        # the corner across that slot, entered through the twin, and dart
        # d ^ 1 walks the same link the other way
        g = self.glue_records
        f, e, f2, e2, flip = np.concatenate([g, g[:, [2, 3, 0, 1, 4]]]).T
        nxt = np.empty(6 * len(self.lengths), dtype=np.intp)
        for k in (0, 1):
            # slot e is slot c + 2 of corner e + 1 (k = 0) and slot c of corner e
            k2 = (flip == k).astype(np.intp)
            nxt[2 * (3 * f + (e + 1 - k) % 3) + k] = 2 * (3 * f2 + (e2 + k2) % 3) + k2
        nxt = nxt.tolist()
        angles = self.corner_angles.ravel().tolist()
        xy = self.charts.reshape(-1, 2).tolist()
        out: list[tuple | None] = [None] * len(angles)
        for i in range(len(angles)):
            if out[i] is not None:
                continue
            # dart 2i + 1 walks back, so 2i comes from nxt[2i + 1] ^ 1
            start = d = nxt[2 * i + 1] ^ 1
            off = 0.0
            while True:
                j, k = d >> 1, d & 1
                # E runs to corner c + 1 (k = 0) or c + 2 (k = 1); in a
                # counterclockwise chart c + 2 lies counterclockwise of c + 1
                o = j - j % 3 + (j + 1 + k) % 3
                ex, ey = xy[o][0] - xy[j][0], xy[o][1] - xy[j][1]
                n = math.hypot(ex, ey)
                out[j] = off, ex / n, ey / n, 1.0 - 2 * k
                off += angles[j]
                d = nxt[d]
                if d == start:
                    break
        return _read_only(np.array(out, dtype=float).reshape(-1, 3, 4))

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
        g = self.glue_records
        f, e, f2, e2, flip = np.concatenate([g, g[:, [2, 3, 0, 1, 4]]]).T
        ch = self.charts
        p0, p1 = ch[f, e], ch[f, (e + 1) % 3]
        # the twin edge, ordered to match p0 -> p1
        q0, q1 = ch[f2, (e2 + flip) % 3], ch[f2, (e2 + 1 - flip) % 3]
        u, v = p1 - p0, q1 - q0
        # stacked @ rounds as one 2-vector or 2x2 numpy product; a*b + c*d would not
        nrm = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
        c = (u[:, None, :] @ v[:, :, None])[:, 0, 0] / nrm
        s = (u[:, 1] * v[:, 0] - u[:, 0] * v[:, 1]) / nrm
        R = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)  # q1 - q0 onto u
        # charts are counterclockwise: flip=True preserves orientation and R
        # is the rotation; flip=False composes it with the mirror in q0q1
        n = np.stack([-v[:, 1], v[:, 0]], axis=-1) / np.sqrt(nrm)[:, None]
        mirror = np.eye(2) - 2.0 * (n[:, :, None] * n[:, None, :])
        R = np.where(flip[:, None, None] == 1, R, R @ mirror)
        t = p0 - (R @ q0[:, :, None])[:, :, 0]
        out: list[list[tuple | None]] = [[None] * 3 for _ in range(len(self.lengths))]
        for fi, ei, *row in zip(f.tolist(), e.tolist(), f2.tolist(), e2.tolist(),
                                map(tuple, R.reshape(-1, 4).tolist()), map(tuple, t.tolist())):
            out[fi][ei] = tuple(row)
        return out

    def edge_transition(self, f: int, e: int):
        """Isometry mapping chart(f2) into chart(f) across the gluing at (f, e).

        Returns (f2, e2, flip, R, t) with x |-> R @ x + t.  R is a rotation
        when flip is True and a reflection exactly when flip is False.
        """
        g = self.glue_map.get((f, e))
        if g is None:
            raise SurfaceError(f"slot ({f},{e}) is a boundary edge")
        f2, e2, R, t = self.transitions[f][e]
        return f2, e2, g[2], np.reshape(R, (2, 2)), np.array(t)

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


# -- cut graphs --------------------------------------------------------


def cut_along_graph(s: ConeSurface, slots) -> ConeSurface:
    """Cut the surface open along a graph of mesh edges, given as a list of
    interior edge slots (removes their gluings)."""
    cut: set[Slot] = set()
    for slot in slots:
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


def subdivide_arrays(rows: np.ndarray, glue_records: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-corner rows (4F, 3) and gluing records of the 4-to-1 subdivision,
    from the parent's rows (F, 3) and records (G, 5).

    Children 4f + c (c < 3) keep face f's row and the middle child 4f + 3
    takes it as rows[:, [2, 0, 1]]; with halved side lengths for rows these
    are the children's side lengths, and with corner cosines their corner
    cosines.  The records are the inner gluings of each face in face order,
    then the two halves of each parent gluing in record order."""
    F = len(rows)
    children = np.stack([rows, rows, rows, rows[:, [2, 0, 1]]], axis=1).reshape(-1, 3)
    inner = _INNER_GLUINGS + (4 * np.arange(F))[:, None, None] * [1, 0, 1, 0, 0]
    # half k of parent edge (f, e) is slot e of child 4f + (e + k) % 3
    f, e, f2, e2, flip = (c[:, None] for c in glue_records.T)
    k = np.array([[0, 1]])
    k2 = np.where(flip == 1, 1 - k, k)  # a flip pairs the halves crosswise
    halves = np.stack(np.broadcast_arrays(
        4 * f + (e + k) % 3, e, 4 * f2 + (e2 + k2) % 3, e2, flip), axis=-1)
    return children, np.concatenate([inner.reshape(-1, 5), halves.reshape(-1, 5)])


def half_slots(slots: np.ndarray) -> np.ndarray:
    """Child slots (2B, 2) carrying halves 0 and 1 of each parent slot
    (B, 2) in turn, as _half_slot gives them."""
    f, e = (c[:, None] for c in slots.T)
    return np.stack(np.broadcast_arrays(4 * f + (e + [0, 1]) % 3, e),
                    axis=-1).reshape(-1, 2)


def subdivide(s: ConeSurface) -> ConeSurface:
    """Uniform 4-to-1 subdivision.  Face f has children 4f + c at corner c
    and 4f + 3 in the middle, each with the parent's sides halved; the
    records are the inner gluings of each face in face order, then the two
    halves of each parent gluing (`subdivide_arrays`).  Marks follow the
    children: corners to the corner child, slots to their two halves."""
    faces, gluings = subdivide_arrays(s.lengths / 2, s.glue_records)
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


# -- builders -----------------------------------------------------------


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


def extremal_cut_graph(s: ConeSurface) -> list[Slot]:
    """The symmetry graph as edge slots: three p--q arcs O_j -> M_j ->
    O_{j+1} through the Weierstrass points (the identified outer sides of
    the hexagonal annulus), each the slots (C_j, 1), (B_j, 1)."""
    return [slot for j in range(3) for slot in ((3 * j + 2, 1), (3 * j + 1, 1))]


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
