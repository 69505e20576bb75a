"""Scalar loop versions of the array code in dycksurf, kept as references.

Each function is the per-face or per-record loop the array code replaced;
the tests require the array code to give the same records, in the same
order, and the same floats.  `direct_solve` is the sparse LU solve the
FEM's conjugate gradients replaced, and `corner_stiffness` the per-corner
assembly the edge-form one replaced; there the tests require agreement to a
relative tolerance.
"""

import math

import numpy as np
import scipy.sparse.linalg

from dycksurf import geodesic as geo
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
    for i, (a, b, c) in enumerate(faces):
        for adj1, adj2, opp in ((a, c, b), (b, a, c), (c, b, a)):
            if abs((adj1 * adj1 + adj2 * adj2 - opp * opp) / (2 * adj1 * adj2)) >= 1:
                raise SurfaceError(f"face {i} is degenerate: a corner angle is 0 or pi")
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


def _side(p0, p1, x):
    cr = (p1[0] - p0[0]) * (x[1] - p0[1]) - (p1[1] - p0[1]) * (x[0] - p0[0])
    return 1 if cr > 0 else (-1 if cr < 0 else 0)


def transition(s, f, e, f2, e2, flip):
    """(R, t) across slot (f, e), glued to (f2, e2), found geometrically:
    of the rotation and the glide reflection that map the twin edge onto
    the edge, the one that puts the glued face on the far side."""
    ch, ch2 = s.chart(f), s.chart(f2)
    p0, p1 = ch[e], ch[(e + 1) % 3]
    if flip:
        q0, q1 = ch2[(e2 + 1) % 3], ch2[e2]
    else:
        q0, q1 = ch2[e2], ch2[(e2 + 1) % 3]
    u = p1 - p0
    v = q1 - q0
    nrm = float(v @ v)
    c, sn = float(u @ v) / nrm, float(u[1] * v[0] - u[0] * v[1]) / nrm
    R_rot = np.array([[c, -sn], [sn, c]])
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


def transitions(s):
    """ConeSurface.transitions, one glued slot at a time."""
    out = [[None] * 3 for _ in range(len(s.faces))]
    for (f, e), (f2, e2, flip) in s.glue_map.items():
        R, t = transition(s, f, e, f2, e2, flip)
        out[f][e] = (f2, e2, tuple(R.ravel().tolist()), tuple(t.tolist()))
    return out


def _corner_slots(c):
    """The two edge slots incident to local corner c (next, prev)."""
    return c, (c + 2) % 3


def _step_link(s, f, c, exit_slot):
    """Cross `exit_slot` at corner (f, c); return (f2, c2, entry_slot)."""
    g = s.glue_map.get((f, exit_slot))
    if g is None:
        return None
    f2, e2, flip = g
    starts = c == exit_slot  # vertex is the start of the exit edge
    if starts:
        c2 = (e2 + 1) % 3 if flip else e2
    else:
        c2 = e2 if flip else (e2 + 1) % 3
    return f2, c2, e2


def vertex_link(s, corner):
    """Corners around the vertex of `corner`, in cyclic (or chain) order.

    Each item is (face, corner, slot entered through, angular offset); the
    offset of an item is the total corner angle accumulated before it.
    For a boundary vertex the walk starts at one boundary slot and ends
    at the other.
    """
    v = s.vertex_of(corner)
    f, c = corner
    # rewind to a boundary slot if there is one
    entry = _corner_slots(c)[1]
    start = (f, c, entry)
    seen = {(f, c)}
    while True:
        step = _step_link(s, start[0], start[1], start[2])
        if step is None:
            break
        f2, c2, e2 = step
        if (f2, c2) in seen:
            break  # interior vertex: full cycle
        seen.add((f2, c2))
        other = [x for x in _corner_slots(c2) if x != e2][0]
        start = (f2, c2, other)
    # walk forward accumulating offsets
    out = []
    offset = 0.0
    f, c, entry = start
    # entry slot for the forward walk is the *other* slot at start corner
    entry = [x for x in _corner_slots(c) if x != start[2]][0]
    visited = set()
    while True:
        if (f, c) in visited:
            break
        visited.add((f, c))
        out.append((f, c, entry, offset))
        offset += s.corner_angles[f].tolist()[c]
        exit_slot = [x for x in _corner_slots(c) if x != entry][0]
        step = _step_link(s, f, c, exit_slot)
        if step is None:
            break
        f, c, entry = step
    if any(s.vertex_of((ff, cc)) != v for ff, cc, _, _ in out):
        raise SurfaceError(f"link walk around vertex {v} left the vertex")
    return out


def link_frames(s):
    """ConeSurface.link_frames by the rewinding corner walk, with sigma the
    sign of a chart cross product."""
    out = np.zeros((len(s.faces), 3, 4))
    done = set()
    for f in range(len(s.faces)):
        for c in range(3):
            if (f, c) in done:
                continue
            for ff, cc, entry, off in vertex_link(s, (f, c)):
                ch = s.chart(ff)
                other = (cc + 1) % 3 if entry == cc else (cc + 2) % 3
                E = ch[other] - ch[cc]
                E = E / math.hypot(E[0], E[1])
                F = ch[3 - cc - other] - ch[cc]
                sigma = 1.0 if E[0] * F[1] - E[1] * F[0] > 0 else -1.0
                out[ff, cc] = off, E[0], E[1], sigma
                done.add((ff, cc))
    return out


def eval_points(field, f, pts):
    """DistanceField.eval_points as one dense points x nodes matrix."""
    ids, pos = field._face_nodes[f]
    d = field.node_distance[ids]
    dm = np.linalg.norm(pts[:, None, :] - pos[None, :, :], axis=2)
    return (dm + d[None, :]).min(axis=1)


def distance_graph(s, mesh_h):
    """DistanceField's CSR graph by per-face pair lists, one concatenation,
    a stable sort and a COO to CSR conversion."""
    g = s.glue_records
    pieces = np.maximum(1.0, np.rint(s.lengths / mesh_h))
    pieces[g[:, 2], g[:, 3]] = pieces[g[:, 0], g[:, 1]]
    n = s.n_vertices
    slot_nodes = {}
    edges = [((f, e), (f2, e2), flip) for f, e, f2, e2, flip in s.gluings]
    edges += [(slot, None, False) for slot in s.boundary_slots]
    for (f, e), twin, flip in edges:
        k = int(pieces[f, e])
        ids = np.concatenate(([s.vertex_of((f, e))], np.arange(n, n + k - 1),
                              [s.vertex_of((f, (e + 1) % 3))]))
        n += k - 1
        slot_nodes[(f, e)] = ids
        if twin is not None:
            slot_nodes[twin] = ids[::-1] if flip else ids
    rows, cols, vals = [], [], []
    for f in range(len(s.faces)):
        ch = s.chart(f)
        ids, pos = [], []
        for e in range(3):
            nodes = slot_nodes[(f, e)]
            frac = np.arange(len(nodes) - 1) / (len(nodes) - 1)
            ids.append(nodes[:-1])
            pos.append(ch[e] + frac[:, None] * (ch[(e + 1) % 3] - ch[e]))
        ids, pos = np.concatenate(ids), np.concatenate(pos)
        iu, ju = np.triu_indices(len(ids), k=1)
        rows.append(ids[iu])
        cols.append(ids[ju])
        vals.append(geo._hypot(pos[iu], pos[ju]))
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    pair = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    keep = rows != cols
    pair, vals = pair[keep], vals[keep]
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    first = np.flatnonzero(np.diff(pair, prepend=-1))
    shortest = np.minimum.reduceat(vals[order], first)
    return scipy.sparse.csr_matrix((shortest, divmod(pair[first], n)),
                                   shape=(n, n))


def corner_stiffness(s):
    """The cotangent stiffness matrix of s, assembled corner by corner from
    the law of cosines: corner c couples the other two corners of its face
    with weight 1/2 cot of its angle."""
    rows, cols, vals = [], [], []
    for f, ls in enumerate(s.faces):
        vs = [s.vertex_of((f, c)) for c in range(3)]
        for c in range(3):
            adj1, adj2, opp = ls[c], ls[(c + 2) % 3], ls[(c + 1) % 3]
            cosang = (adj1 * adj1 + adj2 * adj2 - opp * opp) / (2 * adj1 * adj2)
            cosang = max(-1.0, min(1.0, cosang))
            w = 0.5 * cosang / math.sqrt(max(0.0, 1.0 - cosang * cosang))
            a, b = vs[(c + 1) % 3], vs[(c + 2) % 3]
            rows += [a, b, a, b]
            cols += [a, b, b, a]
            vals += [w, w, -w, -w]
    n = s.n_vertices
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def direct_solve(A, b, precond=None):
    """capacity.spsolve by SuperLU, which needs no preconditioner: x, no
    steps, and |b - A x| / |b|."""
    x = scipy.sparse.linalg.spsolve(A.tocsc(), b)
    return x, 0, float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))


# -- the unfolding on numpy 2-vectors -----------------------------------


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _unit(v):
    return v / math.hypot(v[0], v[1])


def _window_intersect(a, b, c, d):
    lo = a if _cross(c, a) >= -geo.WINDOW_TOL else c
    hi = b if _cross(b, d) >= -geo.WINDOW_TOL else d
    if _cross(lo, hi) <= 1e-12:
        return None
    return lo, hi


def _seg_min_dist(p0, p1):
    d = p1 - p0
    dd = float(d @ d)
    if dd < 1e-30:
        return float(np.linalg.norm(p0))
    t = min(1.0, max(0.0, -float(p0 @ d) / dd))
    return float(np.linalg.norm(p0 + t * d))


def _in_window(wa, wb, ph):
    return (_cross(wa, ph) >= -geo.CAPTURE_TOL
            and _cross(ph, wb) >= -geo.CAPTURE_TOL)


def unfold(s, L_max, budget, stack):
    """geodesic._unfold with 2x2 matrices: entries (face, R, t, wa, wb,
    entry slot), yielding (face, R, t, developed chart, wa, wb)."""
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
                continue
            c0d, c1d = P0 / r0, P1 / r1
            if _cross(c0d, c1d) < 0:
                c0d, c1d = c1d, c0d
            win = _window_intersect(wa, wb, c0d, c1d)
            if win is None or (f, e) not in s.glue_map:
                continue
            f2, e2, _, Re, te = s.edge_transition(f, e)
            stack.append((f2, R @ Re, R @ te + t, win[0], win[1], e2))


def _link_frame(s, corner):
    row = s.link_frames[corner[0], corner[1]]
    return float(row[0]), row[1:3], float(row[3])


def angle_of(s, corner, direction):
    off, E, sigma = _link_frame(s, corner)
    psi = sigma * math.atan2(_cross(E, direction), float(E @ direction))
    return geo._wrap(off + max(0.0, psi), s.vertex_angles[s.vertex_of(corner)])


def saddle_connection(s, src, start, dst, P, r, R):
    a_src = angle_of(s, src, P / r)
    back = -(P / r)
    off_t, E_t, sigma_t = _link_frame(s, dst)
    E_dev = R @ E_t
    det = R[0, 0] * R[1, 1] - R[0, 1] * R[1, 0]
    psi = sigma_t * det * math.atan2(_cross(E_dev, back), float(E_dev @ back))
    v_dst = s.vertex_of(dst)
    a_dst = geo._wrap(off_t + max(0.0, psi), s.vertex_angles[v_dst])
    return geo.SaddleConnection(s.vertex_of(src), a_src, v_dst, a_dst, r,
                                src[0], start, tuple(P / r))


def enumerate_saddle_connections(s, L_max, budget=400_000):
    """geodesic.enumerate_saddle_connections over `unfold`."""
    found = {}
    bud = geo._Budget(budget)
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
                for f, R, _, dev, wa, wb in unfold(s, L_max, bud, [seed]):
                    for c in range(3):
                        P = dev[c]
                        r = float(np.linalg.norm(P))
                        if (r < 1e-9 or r > L_max + 1e-7
                                or not _in_window(wa, wb, P / r)):
                            continue
                        sc = saddle_connection(s, (f0, c0), start, (f, c), P, r, R)
                        found.setdefault(sc.key(), sc)
        complete = True
    except geo.BudgetExceeded:
        complete = False
    conns = geo._drop_colinear(found.values())
    conns.sort(key=lambda sc: (sc.length, sc.key()))
    return geo.SaddleConnectionSet(conns, complete, bud.used)


def develop_from_point(s, f0, pt, L_max, budget, target=None):
    """geodesic._develop_from_point over `unfold`."""
    pt = np.asarray(pt, dtype=float)
    ch0 = s.chart(f0)
    vdist = {}
    tdist = math.inf
    for c in range(3):
        r = float(np.linalg.norm(ch0[c] - pt))
        if 1e-12 < r <= L_max:
            v = s.vertex_of((f0, c))
            vdist[v] = min(vdist.get(v, math.inf), r)
    if target is not None and target[0] == f0:
        r = float(np.linalg.norm(np.asarray(target[1]) - pt))
        if r <= L_max:
            tdist = min(tdist, r)
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
        for f, R, t, dev, wa, wb in unfold(s, L_max, geo._Budget(budget), seeds):
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
    except geo.BudgetExceeded:
        complete = False
    return vdist, tdist, complete


def successors(s, conns):
    """Successor lists of the closed-geodesic chains, pair by pair."""
    by_src = {}
    for i, sc in enumerate(conns):
        by_src.setdefault(sc.v_src, []).append(i)
    succ = []
    for sc in conns:
        theta = s.vertex_angles[sc.v_dst]
        out = []
        for j in by_src.get(sc.v_dst, []):
            delta = (conns[j].a_src - sc.a_dst) % theta
            if min(delta, theta - delta) >= math.pi - geo.SIDE_ANGLE_TOL:
                out.append(j)
        succ.append(out)
    return succ


def closed_chains(conns, succ, L_max):
    """The recursive chain search: the cycles in order of discovery and the
    number of chains extended, roots included."""
    seen, cycles, nodes = set(), [], 0

    def dfs(start, cur, acc, chain):
        nonlocal nodes
        nodes += 1
        for j in succ[cur]:
            if j < start:
                continue
            if j == start:
                cyc = [conns[k] for k in chain]
                key = geo._cycle_canonical(cyc)
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
    return cycles, nodes
