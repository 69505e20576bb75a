"""Scalar loop versions of the array code in dycksurf, kept as references.

Each function is the per-face or per-record loop the array code replaced;
the tests require the array code to give the same records, in the same
order, and the same floats.
"""

import numpy as np

from dycksurf.surface import GLUE_LENGTH_TOL, SurfaceError


def glued_corners(g):
    """Corner identifications induced by one gluing record."""
    f, e, f2, e2, flip = g
    if flip:
        return [((f, e), (f2, (e2 + 1) % 3)), ((f, (e + 1) % 3), (f2, e2))]
    return [((f, e), (f2, e2)), ((f, (e + 1) % 3), (f2, (e2 + 1) % 3))]


def validate(faces, gluings):
    """The checks of ConeSurface, one face and one record at a time."""
    faces = [tuple(float(x) for x in tri) for tri in faces]
    for i, (a, b, c) in enumerate(faces):
        if not (a + b > c and b + c > a and c + a > b):
            raise SurfaceError(f"face {i} violates the triangle inequality")
    seen = set()
    for f, e, f2, e2, _ in gluings:
        for s in ((f, e), (f2, e2)):
            if s in seen:
                raise SurfaceError(f"slot {s} glued twice")
            seen.add(s)
            if not (0 <= s[0] < len(faces) and 0 <= s[1] < 3):
                raise SurfaceError(f"slot {s} out of range")
        if abs(faces[f][e] - faces[f2][e2]) > GLUE_LENGTH_TOL:
            raise SurfaceError(
                f"glued edges ({f},{e})~({f2},{e2}) have unequal lengths")


def match_vertex_edges(tris):
    """Gluings and boundary slots by a dict of vertex-id pairs, in order of
    each pair's first slot."""
    edge_map = {}
    for f, tri in enumerate(tris):
        for e in range(3):
            key = tuple(sorted((tri[e], tri[(e + 1) % 3])))
            edge_map.setdefault(key, []).append((f, e))
    gluings, boundary = [], []
    for key, occ in edge_map.items():
        if len(occ) > 2:
            raise SurfaceError(f"edge {key} shared by more than two faces")
        if len(occ) == 2:
            (f, e), (f2, e2) = occ
            gluings.append((f, e, f2, e2, bool(tris[f][e] != tris[f2][e2])))
        else:
            boundary += occ
    return gluings, boundary


def _half_slot(f, e, k):
    return (4 * f + (e + k) % 3, e)


def _corner_child(corner):
    f, c = corner
    return (4 * f + c, c)


def subdivide(s):
    """Faces, gluings and marks of the 4-to-1 subdivision, face by face."""
    faces, gluings = [], []
    for f, (l0, l1, l2) in enumerate(s.faces):
        h0, h1, h2 = l0 / 2, l1 / 2, l2 / 2
        faces += [(h0, h1, h2), (h0, h1, h2), (h0, h1, h2), (h2, h0, h1)]
        d = 4 * f + 3
        gluings += [(4 * f, 1, d, 2, True), (4 * f + 1, 2, d, 0, True),
                    (4 * f + 2, 0, d, 1, True)]
    for f, e, f2, e2, flip in s.gluings:
        for k in range(2):
            k2 = 1 - k if flip else k
            a, b = _half_slot(f, e, k), _half_slot(f2, e2, k2)
            gluings.append((a[0], a[1], b[0], b[1], flip))
    marks = {}
    for k, v in s.marks.items():
        if k == "weierstrass":
            marks[k] = [_corner_child(c) for c in v]
        elif k in ("p", "q"):
            marks[k] = _corner_child(tuple(v))
        elif k == "soul":
            marks[k] = [h for (f, e) in v
                        for h in (_half_slot(f, e, 0), _half_slot(f, e, 1))]
        elif k in ("region", "cell"):
            marks[k] = [lbl for lbl in v for _ in range(4)]
        elif k == "boundary_labels":
            marks[k] = {_half_slot(f, e, half): lbl
                        for (f, e), lbl in v.items() for half in (0, 1)}
    return faces, gluings, marks


def eval_points(field, f, pts):
    """DistanceField.eval_points as one dense points x nodes matrix."""
    ids, pos = field._face_nodes[f]
    d = field.node_distance[ids]
    dm = np.linalg.norm(pts[:, None, :] - pos[None, :, :], axis=2)
    return (dm + d[None, :]).min(axis=1)
