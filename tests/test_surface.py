import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as loop
from dycksurf import surface as sf
from dycksurf.constants import SurfaceParameters
from dycksurf.surface import ConeSurface, CutGraph, SurfaceError

GOLDEN = Path(__file__).parent / "golden"

EXTREMAL_AREA = 1.152794345841759
ANGLE_6A = 6.62580327841745
ANGLE_CYL = 7.216176867963563  # 2*pi + theta


@pytest.fixture(scope="module")
def dyck():
    return sf.build_extremal_dyck()


class TestConeSurfaceBasics:
    def test_triangle_inequality_rejected(self):
        with pytest.raises(SurfaceError):
            ConeSurface([(1.0, 1.0, 3.0)], [])

    def test_double_glued_slot_rejected(self):
        faces = [(1.0, 1.0, 1.0)] * 3
        with pytest.raises(SurfaceError):
            ConeSurface(faces, [(0, 0, 1, 0, False), (0, 0, 2, 0, False)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(SurfaceError):
            ConeSurface([(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], [(0, 0, 1, 0, False)])

    def test_single_triangle(self):
        s = ConeSurface([(3.0, 4.0, 5.0)], [])
        assert s.euler_characteristic == 1
        assert s.n_vertices == 3
        assert abs(s.area - 6.0) < 1e-12
        assert abs(s.gauss_bonnet_residual()) < 1e-12
        assert len(s.boundary_slots) == 3

    def test_face_angles_sum(self):
        s = ConeSurface([(2.0, 3.0, 4.0)], [])
        assert abs(sum(s.face_angles(0)) - math.pi) < 1e-12

    def test_tables_are_read_only_and_computed_once(self, dyck):
        with pytest.raises(ValueError):
            dyck.chart(0)[2, 0] = 0.0
        for name in ("lengths", "glue_records", "vertex_ids", "corner_cos",
                     "corner_angles", "face_areas", "charts", "link_frames"):
            table = getattr(dyck, name)
            assert getattr(dyck, name) is table
            with pytest.raises(ValueError):
                table.flat[0] = 0

    @pytest.mark.parametrize("build", [
        sf.build_extremal_dyck, sf.build_collar_flat,
        lambda: sf.build_round_annulus(1.0, 2.0),
        lambda: sf.subdivide(sf.build_flat_klein_bottle(1.0, 1.5))])
    def test_tables_match_scalar_loops(self, build):
        s = build()
        F = len(s.faces)
        parent = list(range(3 * F))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for g in s.gluings:
            for (f, c), (f2, c2) in loop.glued_corners(g):
                a, b = find(3 * f + c), find(3 * f2 + c2)
                parent[max(a, b)] = min(a, b)
        ids: dict[int, int] = {}
        ref_ids = [ids.setdefault(find(i), len(ids)) for i in range(3 * F)]
        assert s.vertex_ids.ravel().tolist() == ref_ids
        angles = []
        for f, l in enumerate(s.faces):
            row = []
            for c in range(3):
                adj1, adj2, opp = l[c], l[(c + 2) % 3], l[(c + 1) % 3]
                cosv = (adj1 * adj1 + adj2 * adj2 - opp * opp) / (2 * adj1 * adj2)
                row.append(math.acos(min(1.0, max(-1.0, cosv))))
            angles.append(row)
            a, b, c = l
            h = (a + b + c) / 2
            assert s.face_area(f) == math.sqrt(max(0.0, h * (h - a) * (h - b) * (h - c)))
            ch = [[0.0, 0.0], [l[0], 0.0],
                  [l[2] * math.cos(row[0]), l[2] * math.sin(row[0])]]
            assert s.chart(f).tolist() == ch
        assert s.corner_angles.tolist() == angles
        tot = [0.0] * s.n_vertices
        for i, v in enumerate(ref_ids):
            tot[v] += angles[i // 3][i % 3]
        assert s.vertex_angles == tot

    def test_chart_lengths(self):
        s = ConeSurface([(2.0, 3.0, 4.0)], [])
        ch = s.chart(0)
        for e in range(3):
            d = np.linalg.norm(ch[(e + 1) % 3] - ch[e])
            assert abs(d - s.faces[0][e]) < 1e-12


class TestModelSurfaces:
    def test_flat_torus(self):
        t = sf.build_flat_torus()
        assert t.euler_characteristic == 0
        assert t.orientable
        assert t.is_closed
        assert t.n_vertices == 1
        assert abs(t.vertex_angles[0] - 2 * math.pi) < 1e-12

    def test_sheared_torus(self):
        t = sf.build_flat_torus(1.0, 1.0, shear=0.3)
        assert t.euler_characteristic == 0
        assert t.orientable
        assert abs(t.gauss_bonnet_residual()) < 1e-9

    def test_klein_bottle(self):
        k = sf.build_flat_klein_bottle()
        assert k.euler_characteristic == 0
        assert not k.orientable
        assert k.is_closed
        assert not k.cone_points()

    def test_klein_cover_is_torus(self):
        k = sf.build_flat_klein_bottle()
        t = sf.orientation_double_cover(k)
        assert t.orientable
        assert t.euler_characteristic == 0
        assert abs(t.area - 2.0) < 1e-12
        assert not t.cone_points()

    def test_disjoint_unions(self):
        def union(a, b):
            n = len(a.faces)
            return ConeSurface(a.faces + b.faces, a.gluings + [
                (f + n, e, f2 + n, e2, flip) for f, e, f2, e2, flip in b.gluings])

        klein, torus = sf.build_flat_klein_bottle(), sf.build_flat_torus()
        assert not union(klein, torus).orientable
        assert not union(torus, klein).orientable
        assert union(torus, sf.build_flat_torus(1.0, 2.0)).orientable

    def test_cover_of_orientable_rejected(self):
        with pytest.raises(SurfaceError):
            sf.orientation_double_cover(sf.build_flat_torus())

    def test_cylinder(self):
        c = sf.build_cylinder(2.0, 0.5, columns=6)
        assert c.euler_characteristic == 0
        assert c.orientable
        assert abs(c.area - 1.0) < 1e-12
        comps = sf.boundary_components(c)
        assert len(comps) == 2
        for comp in comps:
            assert abs(sum(c.faces[f][e] for f, e in comp) - 2.0) < 1e-12

    def test_round_annulus(self):
        a = sf.build_round_annulus(1.0, 2.0, n_theta=64, n_r=8)
        assert a.euler_characteristic == 0
        assert a.orientable
        assert abs(a.area - 3 * math.pi) < 0.02
        assert len(sf.boundary_components(a)) == 2
        # inner vertices of a planar mesh are flat
        assert not a.cone_points(tol=1e-9)

    def test_golden_klein_bottle(self):
        k = sf.build_flat_klein_bottle()
        loaded = ConeSurface.load_json(GOLDEN / "klein_bottle.json")
        assert k.structurally_equal(loaded)


class TestTrapezoid:
    def test_shape(self):
        p = SurfaceParameters.paper()
        quad = sf.build_trapezoid(p)
        assert quad.shape == (4, 2)
        assert abs(np.linalg.norm(quad[1] - quad[0]) - p.short_side) < 1e-12
        assert abs(np.linalg.norm(quad[2] - quad[3]) - p.long_side) < 1e-12
        assert abs(np.linalg.norm(quad[3] - quad[0]) - p.leg) < 1e-12
        assert abs(quad[2][1] - p.h) < 1e-12

    def test_base_angle(self):
        p = SurfaceParameters.paper()
        quad = sf.build_trapezoid(p)
        v1 = quad[1] - quad[0]
        v2 = quad[3] - quad[0]
        ang = math.acos(v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2)))
        # interior angle at the short side is pi - alpha
        assert abs(ang - (math.pi - p.alpha)) < 1e-9


class TestExtremalSurface:
    def test_euler_characteristic(self, dyck):
        assert dyck.euler_characteristic == -1

    def test_closed_nonorientable(self, dyck):
        assert dyck.is_closed
        assert not dyck.orientable

    def test_area(self, dyck):
        assert abs(dyck.area - EXTREMAL_AREA) < 1e-9

    def test_gauss_bonnet(self, dyck):
        assert abs(dyck.gauss_bonnet_residual()) < 1e-9

    def test_cone_angle_multiset(self, dyck):
        angles = sorted(dyck.cone_points().values())
        assert len(angles) == 8
        for a in angles[:2]:
            assert abs(a - ANGLE_6A) < 1e-9
        for a in angles[2:]:
            assert abs(a - ANGLE_CYL) < 1e-9

    def test_marked_points_flat(self, dyck):
        for corner in dyck.marks["weierstrass"]:
            v = dyck.vertex_of(tuple(corner))
            assert abs(dyck.vertex_angles[v] - 2 * math.pi) < 1e-9
        assert len({dyck.vertex_of(tuple(c)) for c in dyck.marks["weierstrass"]}) == 3

    def test_marked_cone_points(self, dyck):
        vp = dyck.vertex_of(tuple(dyck.marks["p"]))
        vq = dyck.vertex_of(tuple(dyck.marks["q"]))
        assert vp != vq
        for v in (vp, vq):
            assert abs(dyck.vertex_angles[v] - ANGLE_6A) < 1e-9

    def test_soul_length(self, dyck):
        soul = dyck.marks["soul"]
        assert abs(sum(dyck.faces[f][e] for f, e in soul) - 1.0) < 1e-12

    def test_vertex_links_close_up(self, dyck):
        for f in range(len(dyck.faces)):
            for c in range(3):
                link = dyck.vertex_link((f, c))
                tot = sum(dyck.face_angles(ff)[cc] for ff, cc, _, _ in link)
                v = dyck.vertex_of((f, c))
                assert abs(tot - dyck.vertex_angles[v]) < 1e-9

    def test_transitions(self, dyck):
        for f, e, f2, e2, flip in dyck.gluings:
            f2_, e2_, flip_, R, t = dyck.edge_transition(f, e)
            assert (f2_, e2_, flip_) == (f2, e2, flip)
            assert dyck.transitions[f][e] == (f2, e2, tuple(R.ravel()), tuple(t))
            assert abs(abs(np.linalg.det(R)) - 1) < 1e-12
            ch, ch2 = dyck.chart(f), dyck.chart(f2)
            pm = (ch[e] + ch[(e + 1) % 3]) / 2
            qm = (ch2[e2] + ch2[(e2 + 1) % 3]) / 2
            assert np.allclose(R @ qm + t, pm, atol=1e-9)

    def test_float_tables_match_arrays(self):
        s = sf.build_collar_flat()
        assert s.transitions is s.transitions
        assert s.chart_floats == [tuple(map(tuple, ch)) for ch in s.charts.tolist()]
        none = {(f, e) for f, row in enumerate(s.transitions)
                for e, tr in enumerate(row) if tr is None}
        assert none == set(s.boundary_slots) and none
        with pytest.raises(SurfaceError, match="boundary edge"):
            s.edge_transition(*s.boundary_slots[0])

    def test_double_cover_genus_two(self, dyck):
        c = sf.orientation_double_cover(dyck)
        assert c.orientable
        assert c.euler_characteristic == -2
        assert abs(c.area - 2 * EXTREMAL_AREA) < 1e-9

    def test_json_roundtrip(self, dyck, tmp_path):
        path = tmp_path / "dyck.json"
        dyck.save_json(path)
        s2 = ConeSurface.load_json(path)
        assert s2.structurally_equal(dyck)
        assert s2.marks["p"] == dyck.marks["p"]
        assert [tuple(c) for c in s2.marks["weierstrass"]] == dyck.marks["weierstrass"]
        # a second save is byte-identical
        path2 = tmp_path / "dyck2.json"
        s2.save_json(path2)
        assert path.read_bytes() == path2.read_bytes()


class TestCutAndCollar:
    def test_cut_reglue_roundtrip(self, dyck):
        g = sf.extremal_cut_graph(dyck)
        cut = sf.cut_along_graph(dyck, g)
        removed = [r for r in dyck.gluings if r not in cut.gluings]
        assert len(removed) == 6
        back = ConeSurface(cut.faces, cut.gluings + removed)
        assert back.structurally_equal(dyck)

    def test_cut_surface_shape(self, dyck):
        cut = sf.cut_along_graph(dyck, sf.extremal_cut_graph(dyck))
        assert cut.euler_characteristic == 0
        assert not cut.orientable
        assert len(sf.boundary_components(cut)) == 1
        bdry_len = sum(cut.faces[f][e] for f, e in cut.boundary_slots)
        # boundary doubles the three identified sides of total length 3*0.5598...
        assert abs(bdry_len - 12 * 0.2799082452921564) < 1e-9

    def test_cut_rejects_boundary_edge(self):
        c = sf.build_cylinder(2.0, 0.5)
        bad = c.boundary_slots[0]
        with pytest.raises(SurfaceError):
            sf.cut_along_graph(c, CutGraph([[bad]]))

    def test_collar_direct(self):
        c = sf.build_collar_flat()
        assert c.orientable
        assert c.euler_characteristic == 0
        assert abs(c.area - 2 * EXTREMAL_AREA) < 1e-9
        assert len(sf.boundary_components(c)) == 2

    def test_collar_faces_are_two_sheets(self, dyck):
        assert sf.build_collar_flat().faces == dyck.faces * 2

    def test_collar_boundary_lifts_lie_in_one_sheet(self, dyck):
        c = sf.build_collar_flat()
        labels = c.marks["boundary_labels"]
        sheets = set()
        for comp in sf.boundary_components(c):
            (lbl,) = {labels[slot] for slot in comp}
            (sheet,) = {f // len(dyck.faces) for f, _ in comp}
            sheets.add((lbl, sheet))
        assert sheets == {("bottom", 0), ("top", 1)}

    def test_collar_soul_lifts_the_soul(self):
        c = sf.build_collar_flat()
        soul = c.marks["soul"]
        assert len(soul) == 6
        assert abs(sum(c.faces[f][e] for f, e in soul) - 2.0) < 1e-12


class TestSubdivision:
    def test_invariants_preserved(self, dyck):
        s2 = sf.subdivide(dyck)
        assert len(s2.faces) == 4 * len(dyck.faces)
        assert s2.euler_characteristic == dyck.euler_characteristic
        assert s2.orientable == dyck.orientable
        assert abs(s2.area - dyck.area) < 1e-9
        assert abs(s2.gauss_bonnet_residual()) < 1e-9

    def test_cone_angles_preserved(self, dyck):
        s2 = sf.subdivide(dyck)
        assert sorted(np.round(list(s2.cone_points().values()), 9).tolist()) == sorted(
            np.round(list(dyck.cone_points().values()), 9).tolist()
        )

    def test_marks_follow(self, dyck):
        s2 = sf.subdivide(dyck)
        for corner in s2.marks["weierstrass"]:
            assert abs(s2.vertex_angles[s2.vertex_of(tuple(corner))] - 2 * math.pi) < 1e-9
        soul_len = sum(s2.faces[f][e] for f, e in s2.marks["soul"])
        assert abs(soul_len - 1.0) < 1e-12

    def test_boundary_labels_follow(self):
        c = sf.build_cylinder(2.0, 0.5)
        c2 = sf.subdivide(c)
        labels = c2.marks["boundary_labels"]
        assert len(labels) == 2 * len(c.marks["boundary_labels"])
        assert set(labels) == set(map(tuple, c2.boundary_slots))

    def test_repeated_subdivision(self):
        k = sf.build_flat_klein_bottle()
        for _ in range(3):
            k = sf.subdivide(k)
        assert k.euler_characteristic == 0
        assert not k.orientable
        assert abs(k.area - 1.0) < 1e-12


class TestVertexFacesBuilder:
    def test_square(self):
        coords = [(0, 0), (1, 0), (1, 1), (0, 1)]
        s = sf.surface_from_vertex_faces(coords, [(0, 1, 2), (0, 2, 3)])
        assert s.euler_characteristic == 1
        assert abs(s.area - 1.0) < 1e-12
        assert len(s.gluings) == 1

    def test_overshared_edge_rejected(self):
        coords = [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 0)]
        faces = [(0, 1, 2), (0, 3, 1), (0, 1, 4)]
        with pytest.raises(SurfaceError):
            sf.surface_from_vertex_faces(coords, faces)

    def test_random_fans_flat(self):
        # triangle fans around an interior hub: the hub angle is exactly 2*pi
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(4, 9)
            weights = [rng.uniform(0.6, 1.4) for _ in range(n)]
            scale = 2 * math.pi / sum(weights)
            angles = [0.0]
            for w in weights[:-1]:
                angles.append(angles[-1] + w * scale)
            coords = [(0.0, 0.0)] + [(math.cos(a), math.sin(a)) for a in angles]
            faces = [(0, 1 + i, 1 + (i + 1) % n) for i in range(n)]
            s = sf.surface_from_vertex_faces(coords, faces)
            assert s.euler_characteristic == 1
            assert abs(s.vertex_angles[s.vertex_of((0, 0))] - 2 * math.pi) < 1e-9



def grid_triangulation(nx, ny, wrap_x=False, reflect=None, wrap_y=False):
    """Vertex ids (F, 3) and corner positions (F, 3, 2) of an nx x ny grid
    of unit squares, each cut along its rising diagonal.  wrap_y glues row
    ny to row 0; wrap_x glues column nx to column 0, by translation or,
    when reflect is an int, by y -> reflect - y (mod ny if wrap_y, else
    y -> ny - y)."""

    def vid(i, j):
        if wrap_y:
            j %= ny
        if wrap_x and i == nx:
            i = 0
            if reflect is not None:
                j = (reflect - j) % ny if wrap_y else ny - j
        return i * (ny + 1) + j

    tris, pts = [], []
    for i in range(nx):
        for j in range(ny):
            for tri in (((i, j), (i + 1, j), (i + 1, j + 1)),
                        ((i, j), (i + 1, j + 1), (i, j + 1))):
                tris.append([vid(a, b) for a, b in tri])
                pts.append(tri)
    return np.array(tris), np.array(pts, dtype=float)


def shifted_klein_bottle():
    """3 x 4 flat Klein bottle whose sides glue by y -> 1 - y (mod 4)."""
    tris, pts = grid_triangulation(3, 4, wrap_x=True, reflect=1, wrap_y=True)
    gluings, _ = sf.match_vertex_edges(tris)
    return ConeSurface(sf.side_lengths(pts), gluings, name="shifted_klein")


class TestArrayConstruction:
    """The array code gives the records, in order, of its loop reference."""

    @pytest.mark.parametrize("build", [
        sf.build_extremal_dyck, sf.build_collar_flat, shifted_klein_bottle,
        lambda: sf.build_cylinder(2.0, 0.5)])
    def test_subdivide_matches_loop(self, build):
        s = build()
        faces, gluings, marks = loop.subdivide(s)
        sub = sf.subdivide(s)
        assert sub.faces == faces
        assert sub.gluings == gluings
        assert repr(sub.marks) == repr(marks)  # order of every mark kind too

    def test_every_mark_kind_is_covered(self):
        assert set(sf.build_collar_flat().marks) == {
            "weierstrass", "p", "q", "soul", "region", "cell", "boundary_labels"}

    def test_shifted_klein_bottle(self):
        k = shifted_klein_bottle()
        assert k.euler_characteristic == 0
        assert not k.orientable
        assert k.is_closed

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.booleans(),
           st.one_of(st.none(), st.integers(0, 3)), st.booleans(),
           st.randoms(use_true_random=False))
    def test_match_vertex_edges_on_grids(self, nx, ny, wrap_x, reflect, wrap_y, rnd):
        # boundary, one-sided gluings, and faces in random order and with
        # random orientations
        tris, _ = grid_triangulation(nx, ny, wrap_x, reflect, wrap_y)
        tris = [list(t) for t in tris.tolist()]
        rnd.shuffle(tris)
        tris = [t[::-1] if rnd.random() < 0.5 else t for t in tris]
        self._agree(tris)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 5), min_size=3, max_size=3),
                    max_size=8))
    def test_match_vertex_edges_on_random_triples(self, tris):
        self._agree(tris)

    @staticmethod
    def _agree(tris):
        try:
            ref = loop.match_vertex_edges(tris)
        except SurfaceError as exc:
            with pytest.raises(SurfaceError) as got:
                sf.match_vertex_edges(tris)
            assert str(got.value) == str(exc)
            return
        gluings, boundary = sf.match_vertex_edges(tris)
        assert [tuple(g) for g in gluings.tolist()] == ref[0]
        assert [tuple(b) for b in boundary.tolist()] == ref[1]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from([1.0, 2.0, 3.0, math.nan])] * 3),
                    min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 3),
                              st.integers(-1, 4), st.integers(-1, 3),
                              st.booleans()), max_size=5))
    def test_validation_matches_loop(self, faces, gluings):
        try:
            loop.validate(faces, gluings)
        except SurfaceError as exc:
            with pytest.raises(SurfaceError) as got:
                ConeSurface(faces, gluings)
            assert str(got.value) == str(exc)
        else:
            s = ConeSurface(faces, gluings)
            assert s.faces == faces
            assert s.gluings == gluings
            glued = {slot for f, e, f2, e2, _ in gluings for slot in ((f, e), (f2, e2))}
            assert s.boundary_slots == [(f, e) for f in range(len(faces))
                                        for e in range(3) if (f, e) not in glued]

    def test_caller_arrays_stay_writeable(self):
        lengths = np.ones((1, 3))
        s = ConeSurface(lengths, np.zeros((0, 5), dtype=int))
        lengths[0, 0] = 2.0
        assert s.faces == [(1.0, 1.0, 1.0)]


class TestTypedErrors:
    """Malformed input raises SurfaceError, with the message of its fault."""

    TRI = (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("faces", [
        [(1.0, 1.0, 1.0), (1.0, 1.0)], [(1.0, 1.0, 1.0, 1.0)], [1.0, 1.0, 1.0],
        [("a", 1.0, 1.0)], [()]])
    def test_malformed_faces(self, faces):
        with pytest.raises(SurfaceError, match="three lengths"):
            ConeSurface(faces, [])

    @pytest.mark.parametrize("gluings", [
        [(0, 0, 1, 0)], [(0, 0, 1, 0, False, 0)], [(0, 0, 1, 0, False), (0, 1)],
        [()]])
    def test_records_not_of_five(self, gluings):
        with pytest.raises(SurfaceError, match="5 entries"):
            ConeSurface([self.TRI] * 2, gluings)

    @pytest.mark.parametrize("bad", [1.5, 1.0, math.nan, "1", None])
    def test_non_integer_slot(self, bad):
        # int() truncated these: 1.5 was slot 1
        with pytest.raises(SurfaceError, match="integer slot indices"):
            ConeSurface([self.TRI] * 2, [(0, 0, bad, 0, False)])

    @pytest.mark.parametrize("rec, slot", [
        ((0, -1, 1, 0, False), "(0, -1)"), ((-1, 0, 1, 0, False), "(-1, 0)"),
        ((0, 0, 2, 0, True), "(2, 0)"), ((0, 0, 1, 3, True), "(1, 3)")])
    def test_out_of_range(self, rec, slot):
        with pytest.raises(SurfaceError, match=f"slot {re.escape(slot)} out of range"):
            ConeSurface([self.TRI] * 2, [rec])

    @pytest.mark.parametrize("face", [
        (math.nan, 1.0, 1.0), (1.0, 1.0, math.inf), (1.0, 1.0, 3.0)])
    def test_triangle_inequality(self, face):
        with pytest.raises(SurfaceError, match="face 1 violates the triangle inequality"):
            ConeSurface([self.TRI, face], [])

    def test_glued_twice(self):
        with pytest.raises(SurfaceError, match=r"slot \(0, 0\) glued twice"):
            ConeSurface([self.TRI] * 3, [(0, 0, 1, 0, False), (2, 0, 0, 0, False)])

    def test_unequal_lengths(self):
        with pytest.raises(SurfaceError,
                           match=r"glued edges \(0,1\)~\(1,0\) have unequal lengths"):
            ConeSurface([self.TRI, (2.0, 2.0, 2.0)], [(0, 1, 1, 0, False)])

    def test_shared_by_more_than_two_faces(self):
        with pytest.raises(SurfaceError,
                           match=r"edge \(0, 1\) shared by more than two faces"):
            sf.match_vertex_edges([(0, 1, 2), (1, 0, 3), (0, 1, 4)])
