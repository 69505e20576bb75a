"""Model surfaces and helpers that only the tests use.

The builders give small flat surfaces with closed-form geometry (a
cylinder, a round annulus, the square Klein bottle, a tetrahedron) and the
planar trapezoid of the extremal surface; `boundary_components` and
`structurally_equal` inspect surfaces.
"""

import math

import numpy as np

from dycksurf.constants import SurfaceParameters
from dycksurf.surface import (
    ConeSurface,
    Slot,
    SurfaceError,
    _components,
    match_vertex_edges,
    side_lengths,
)


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


def structurally_equal(a: ConeSurface, b: ConeSurface, tol: float = 1e-12) -> bool:
    """Same faces up to tol, in the same order, and the same gluing records
    in any order."""
    if len(a.faces) != len(b.faces) or len(a.gluings) != len(b.gluings):
        return False
    if any(abs(x - y) > tol for t1, t2 in zip(a.faces, b.faces)
           for x, y in zip(t1, t2)):
        return False
    return sorted(a.gluings) == sorted(b.gluings)


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


def build_tetrahedron() -> ConeSurface:
    """Regular tetrahedron of edge 2 sqrt(2): four cone points of angle pi,
    so positively curved."""
    co = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    return surface_from_vertex_faces(
        co, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)], name="tetrahedron")


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
