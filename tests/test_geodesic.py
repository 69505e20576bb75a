import functools
import gc
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
import loop_reference as loop
from dycksurf import capacity
from dycksurf import geodesic as geo
from dycksurf import surface as sf
from dycksurf.geodesic import (
    DistanceField,
    GeodesicError,
    GeodesicPath,
    comparison_polygon,
    enumerate_closed_geodesics,
    enumerate_saddle_connections,
    geodesics_to_json,
    point_distance,
    sublevel_area,
    systole,
    trace_ray,
    voronoi_cells,
)

H = 0.22487963004041582
THETA = 0.9329915607796814
HEX_MIN = 0.2008512019731


@pytest.fixture(scope="module")
def dyck():
    return sf.build_extremal_dyck()


@pytest.fixture(scope="module")
def dyck_geodesics(dyck):
    return enumerate_closed_geodesics(dyck, 1.2)


def weierstrass_vertices(s):
    return {s.vertex_of(tuple(c)) for c in s.marks["weierstrass"]}


def soul_vertices(s):
    return {s.vertex_of(tuple(c)) for c in s.marks["soul"]}


def permute_faces(s, rng):
    """Relabeled copy of a closed surface under a random face permutation."""
    n = len(s.faces)
    perm = list(range(n))
    rng.shuffle(perm)
    faces = [None] * n
    for f in range(n):
        faces[perm[f]] = s.faces[f]
    gluings = [(perm[f], e, perm[f2], e2, fl) for f, e, f2, e2, fl in s.gluings]
    return sf.ConeSurface(faces, gluings, name=s.name + "-relabel")


class TestTraceRay:
    def test_straight_across_square_torus(self):
        t = sf.build_flat_torus()
        segs = trace_ray(t, 0, (0.5, 0.2), (1.0, 0.0), 2.0)
        assert abs(sum(sg.length for sg in segs) - 2.0) < 1e-12
        assert len(segs) >= 3

    def test_vertex_hit_refused(self):
        t = sf.build_flat_torus()
        with pytest.raises(GeodesicError):
            trace_ray(t, 0, (0.5, 0.25), (2.0, 1.0), 2.0)

    def test_boundary_exit_refused(self):
        c = fx.build_cylinder(2.0, 1.0)
        with pytest.raises(GeodesicError):
            trace_ray(c, 0, np.mean(c.chart(0), axis=0), (0.0, 1.0), 5.0)


class TestTorusEnumeration:
    def test_square_torus_lengths(self):
        t = sf.build_flat_torus(1.0, 1.0)
        res = enumerate_closed_geodesics(t, 1.5)
        assert res.complete
        lengths = [p.length for p in res.paths]
        assert lengths == pytest.approx([1.0, 1.0, math.sqrt(2), math.sqrt(2)],
                                        abs=1e-9)

    def test_monotone_in_cutoff(self):
        t = sf.build_flat_torus(1.0, 1.3)
        small = enumerate_closed_geodesics(t, 1.1)
        large = enumerate_closed_geodesics(t, 1.8)
        key = lambda p: (round(p.length, 8), tuple(p.cone_points()))
        small_keys = {key(p) for p in small.paths}
        large_keys = {key(p) for p in large.paths}
        assert small_keys <= large_keys
        assert len(large.paths) > len(small.paths)

    def test_paths_validate_and_sorted(self):
        t = sf.build_flat_torus(1.0, 0.7, shear=0.2)
        res = enumerate_closed_geodesics(t, 1.6)
        for p in res.paths:
            p.validate(t)
        lengths = [p.length for p in res.paths]
        assert lengths == sorted(lengths)

    def test_budget_exhaustion_flagged(self):
        t = sf.build_flat_torus()
        res = enumerate_closed_geodesics(t, 4.0, budget=50)
        assert not res.complete

    def test_open_surface_refused(self):
        c = fx.build_cylinder(2.0, 1.0)
        with pytest.raises(GeodesicError):
            enumerate_closed_geodesics(c, 1.5)


class TestSystole:
    def test_klein_bottle(self):
        k = fx.build_flat_klein_bottle(1.0, 1.0)
        res = systole(k, 1.5)
        assert res.found and res.complete
        assert res.length == pytest.approx(1.0, abs=1e-9)

    def test_refines_invariant(self):
        t = sf.build_flat_torus(1.0, 1.2)
        fine = sf.subdivide(t)
        assert systole(t, 1.5).length == pytest.approx(
            systole(fine, 1.5).length, abs=1e-9)

    def test_relabel_invariant(self, dyck):
        relab = permute_faces(dyck, random.Random(5))
        res = systole(relab, 1.2)
        assert res.length == pytest.approx(1.0, abs=1e-9)

    def test_positive_curvature_refused(self):
        with pytest.raises(GeodesicError, match="cone angle below"):
            systole(fx.build_tetrahedron(), 3.0)

    def test_not_found_below_cutoff(self, dyck):
        res = systole(dyck, 0.5)
        assert not res.found and res.length is None and res.complete

    def test_returns_the_enumeration(self):
        t = sf.build_flat_torus(1.0, 1.3)
        res, ref = systole(t, 1.5), enumerate_closed_geodesics(t, 1.5)
        assert [(p.length, p.incidences) for p in res.paths] == [
            (p.length, p.incidences) for p in ref.paths]
        assert (res.complete, res.n_saddle_connections, res.chain_nodes) == (
            ref.complete, ref.n_saddle_connections, ref.chain_nodes)
        assert res.found and res.length == res.paths[0].length
        assert res.length == pytest.approx(1.0, abs=1e-12)


class TestExtremalGeodesics:
    def test_unit_systole_certificate(self, dyck, dyck_geodesics):
        res = dyck_geodesics
        assert res.complete
        assert res.paths, "no closed geodesic found up to 1.2"
        assert res.paths[0].length == pytest.approx(1.0, abs=1e-6)
        assert all(p.length > 1.0 - 1e-6 for p in res.paths)

    def test_three_systolic_families(self, dyck, dyck_geodesics):
        W = weierstrass_vertices(dyck)
        soul_v = soul_vertices(dyck)
        unit = [p for p in dyck_geodesics.paths
                if abs(p.length - 1.0) < 1e-6]
        souls = [p for p in unit if set(p.cone_points()) <= soul_v]
        pairs = [p for p in unit if set(p.cone_points()) <= W
                 and len(p.cone_points()) == 2]
        verticals = [p for p in unit
                     if len(W & set(p.cone_points())) == 1
                     and not (set(p.cone_points()) & soul_v)
                     and p.kind == "soul"]
        assert len(souls) == 1
        assert len(pairs) == 3
        assert len(verticals) == 3

    def test_soul_kind_and_core_curve(self, dyck, dyck_geodesics):
        soul_v = soul_vertices(dyck)
        souls = [p for p in dyck_geodesics.paths
                 if set(p.cone_points()) <= soul_v]
        (p,) = souls
        assert p.kind == "soul"
        assert p.closed
        # the core curve runs along three glued fan-apex edges
        assert len(p.segments) == 3
        assert all(abs(sg.length - 1 / 3) < 1e-9 for sg in p.segments)

    def test_all_paths_validate(self, dyck, dyck_geodesics):
        for p in dyck_geodesics.paths:
            p.validate(dyck)

    def test_saddle_chain_side_angles(self, dyck, dyck_geodesics):
        chains = [p for p in dyck_geodesics.paths if p.kind == "saddle-chain"]
        assert len(chains) == 6
        for p in chains:
            for _, left, right in p.incidences:
                assert min(left, right) >= math.pi - 1e-7

    def test_unfolding_work_pinned(self, dyck):
        scs = enumerate_saddle_connections(dyck, 1.2)
        assert scs.complete
        assert scs.nodes_explored == 8724
        assert len(scs.connections) == 1452

    def test_empty_path_rejected(self, dyck):
        with pytest.raises(GeodesicError):
            GeodesicPath([], [], 0.0, True).validate(dyck)

    def test_json_export(self, dyck_geodesics):
        recs = geodesics_to_json(dyck_geodesics.paths)
        assert len(recs) == len(dyck_geodesics.paths)
        assert [r["length"] for r in recs] == sorted(r["length"] for r in recs)
        assert {r["type"] for r in recs} == {"soul", "saddle-chain"}
        for r in recs:
            assert set(r) == {"length", "type", "faces", "cone_points"}


class TestPointDistance:
    def test_same_face_euclidean(self, dyck):
        ch = dyck.chart(0)
        a = (0, 0.4 * ch[0] + 0.3 * ch[1] + 0.3 * ch[2])
        b = (0, 0.2 * ch[0] + 0.5 * ch[1] + 0.3 * ch[2])
        res = point_distance(dyck, a, b, 1.0)
        assert res.reachable
        assert res.distance == pytest.approx(
            float(np.linalg.norm(a[1] - b[1])), abs=1e-12)

    def test_weierstrass_pair_half_systole(self, dyck):
        W = [tuple(c) for c in dyck.marks["weierstrass"]]
        x = (W[0][0], dyck.chart(W[0][0])[W[0][1]])
        y = (W[1][0], dyck.chart(W[1][0])[W[1][1]])
        res = point_distance(dyck, x, y, 0.8)
        assert res.reachable and res.complete
        assert res.distance == pytest.approx(0.5, abs=1e-6)

    def test_coincident_points(self, dyck):
        ch = dyck.chart(3)
        x = (3, np.mean(ch, axis=0))
        res = point_distance(dyck, x, x, 0.5)
        assert res.reachable and res.distance < 1e-12

    def test_budget_truncated(self, dyck):
        # the partial result depends on the order faces are developed in
        x = (5, np.mean(dyck.chart(5), axis=0))
        y = (30, np.mean(dyck.chart(30), axis=0))
        res = point_distance(dyck, x, y, 1.0, budget=200)
        assert not res.complete and res.reachable
        assert res.distance == pytest.approx(0.5403899656243648, abs=1e-12)

    def test_out_of_range(self, dyck):
        W = [tuple(c) for c in dyck.marks["weierstrass"]]
        x = (W[0][0], dyck.chart(W[0][0])[W[0][1]])
        y = (W[1][0], dyck.chart(W[1][0])[W[1][1]])
        res = point_distance(dyck, x, y, 0.3)
        assert not res.reachable and res.distance == math.inf

    def test_negative_face_refused(self, dyck):
        # -1 must not index the last face
        x = (-1, np.mean(dyck.chart(len(dyck.faces) - 1), axis=0))
        y = (30, np.mean(dyck.chart(30), axis=0))
        with pytest.raises(GeodesicError, match="out of range"):
            point_distance(dyck, x, y, 0.8)

    def test_face_past_end_refused(self, dyck):
        x = (5, np.mean(dyck.chart(5), axis=0))
        y = (len(dyck.faces), (0.1, 0.1))
        with pytest.raises(GeodesicError, match="out of range"):
            point_distance(dyck, x, y, 0.8)

    @pytest.mark.parametrize("uv", [(math.nan, 0.1), (math.inf, 0.1), (0.1, -math.inf)])
    def test_nonfinite_coordinates_refused(self, dyck, uv):
        x = (5, np.mean(dyck.chart(5), axis=0))
        with pytest.raises(GeodesicError, match="finite"):
            point_distance(dyck, x, (0, uv), 0.8)

    def test_point_outside_chart_refused(self, dyck):
        a, b, c = dyck.chart(7)
        y = (30, np.mean(dyck.chart(30), axis=0))
        with pytest.raises(GeodesicError, match="outside chart"):
            point_distance(dyck, (7, -1e-6 * a + (0.5 + 1e-6) * b + 0.5 * c), y, 0.8)
        # within the 1e-9 barycentric tolerance the point is accepted
        assert point_distance(dyck, (7, 0.5 * b + 0.5 * c), y, 0.8).reachable


def centroid(s, f):
    return (f, tuple(np.mean(s.chart(f), axis=0)))


class TestPointDistanceMemo:
    def test_freed_surfaces_never_answer(self):
        # freed tori hand their ids on, so a memo keyed by id would answer a
        # new torus with an old one's connections; between two vertices the
        # distance is read off the vertex graph alone
        rng = random.Random(14)
        ids, cases = set(), []
        for _ in range(50):
            a, b, shear = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3)
            t = sf.subdivide(sf.build_flat_torus(a, b, shear))
            ids.add(id(t))
            x = (0, tuple(t.chart(0)[0]))
            f, c = next((f, c) for f in range(len(t.faces)) for c in range(3)
                        if t.vertex_of((f, c)) != t.vertex_of((0, 0)))
            y = (f, tuple(t.chart(f)[c]))
            cases.append(((a, b, shear), x, y, point_distance(t, x, y, 1.5)))
            del t
        assert len(ids) < 50
        for params, x, y, got in cases:
            geo._VERTEX_GRAPHS.clear()
            fresh = sf.subdivide(sf.build_flat_torus(*params))
            assert got == point_distance(fresh, x, y, 1.5)
            assert got.reachable and got.complete

    def test_entry_dropped_with_surface(self):
        s = sf.build_flat_torus(1.0, 1.3, 0.2)
        point_distance(s, centroid(s, 0), centroid(s, 1), 1.5)
        assert s in geo._VERTEX_GRAPHS
        gc.collect()  # so that only s can leave the memo below
        n, ref = len(geo._VERTEX_GRAPHS), weakref.ref(s)
        del s
        gc.collect()
        assert ref() is None
        assert len(geo._VERTEX_GRAPHS) == n - 1

    def test_truncated_search_answers_only_its_budget(self):
        s = sf.build_extremal_dyck()
        W = [tuple(c) for c in s.marks["weierstrass"]]
        x = (W[0][0], s.chart(W[0][0])[W[0][1]])
        y = (W[1][0], s.chart(W[1][0])[W[1][1]])
        assert not point_distance(s, x, y, 0.8, budget=10).complete
        res = point_distance(s, x, y, 0.8)
        assert res.complete and res.reachable
        assert res.distance == pytest.approx(0.5, abs=1e-6)
        assert res == point_distance(sf.build_extremal_dyck(), x, y, 0.8)

    def test_warm_equals_cold_bitwise(self):
        s1, s2 = sf.build_extremal_dyck(), sf.build_extremal_dyck()
        x, y = centroid(s1, 5), centroid(s1, 30)
        xy_cold = point_distance(s1, x, y, 1.0)
        yx_warm = point_distance(s1, y, x, 1.0)
        yx_cold = point_distance(s2, y, x, 1.0)
        xy_warm = point_distance(s2, x, y, 1.0)
        assert xy_cold.reachable and yx_cold.reachable
        assert xy_cold.distance == xy_warm.distance
        assert yx_cold.distance == yx_warm.distance

    def test_one_search_per_surface_and_length(self, monkeypatch):
        lengths = []
        search = geo.enumerate_saddle_connections

        def counted(s, L_max, *args, **kwargs):
            lengths.append(L_max)
            return search(s, L_max, *args, **kwargs)

        monkeypatch.setattr(geo, "enumerate_saddle_connections", counted)
        s = sf.build_extremal_dyck()
        pts = [centroid(s, f) for f in (5, 30, 11, 17, 2, 40, 23, 8)]
        for x, y in zip(pts[::2], pts[1::2]):
            point_distance(s, x, y, 0.8)
            point_distance(s, y, x, 0.8)
        assert lengths == [0.8]


def stacked_cylinder(circ=2.0, half_height=0.5, columns=6):
    """Two cylinders glued top-to-bottom; middle circle is a mesh curve."""
    c1 = fx.build_cylinder(circ, half_height, columns)
    n = len(c1.faces)
    faces = list(c1.faces) * 2
    glu = list(c1.gluings) + [(f + n, e, f2 + n, e2, fl)
                              for f, e, f2, e2, fl in c1.gluings]
    for j in range(columns):
        glu.append((2 * j + 1, 1, 2 * j + n, 0, True))
    mid = [(2 * j + 1, 1) for j in range(columns)]
    return sf.ConeSurface(faces, glu, name="stacked-cylinder"), mid


class TestDistanceFieldAndSublevel:
    def test_cylinder_band(self):
        cyl, mid = stacked_cylinder()
        res = sublevel_area(cyl, mid, 0.25, mesh_h=0.02)
        assert res.area == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_r(self):
        cyl, mid = stacked_cylinder()
        areas = [sublevel_area(cyl, mid, r, mesh_h=0.04, extrapolate=False).area
                 for r in (0.1, 0.2, 0.3, 0.45)]
        assert areas == sorted(areas)

    def test_saturates_at_total_area(self):
        cyl, mid = stacked_cylinder()
        res = sublevel_area(cyl, mid, 5.0, mesh_h=0.04)
        assert res.area == pytest.approx(cyl.area, abs=1e-9)

    def test_invalid_radius(self):
        cyl, mid = stacked_cylinder()
        with pytest.raises(GeodesicError):
            sublevel_area(cyl, mid, -0.1)

    def test_weierstrass_to_boundary_of_mobius_part(self, dyck):
        # distance from any Weierstrass point to the flat part's outer edge
        # equals the trapezoid height h
        outer = [(3 * j, 0) for j in range(6)]
        field = DistanceField(dyck, 0.01).solve(source_slots=outer)
        for w in weierstrass_vertices(dyck):
            d = field.node_distance[w]
            assert d >= H - 1e-6
            assert d == pytest.approx(H, abs=2e-3)

    @pytest.mark.parametrize("mesh_h", [0.25, 0.1])
    def test_subdivided_torus_vertex_distances(self, mesh_h):
        t = sf.subdivide(sf.build_flat_torus(1.0, 1.0))
        field = DistanceField(t, mesh_h).solve(source_vertices=[0])
        got = sorted(field.node_distance[:t.n_vertices].tolist())
        assert got == pytest.approx([0.0, 0.5, 0.5, math.sqrt(2) / 2],
                                    abs=1e-12)

    def test_repeated_corner_keeps_its_position(self):
        # the one vertex of the torus sits at all three corners of face 0;
        # the point near corner (1, 0) is reached from that corner
        t = sf.build_flat_torus(1.0, 1.0)
        field = DistanceField(t, 0.05).solve(source_vertices=[0])
        (d,) = field.eval_points(0, np.array([[0.95, 0.02]]))
        assert d == pytest.approx(math.hypot(0.05, 0.02), abs=1e-12)

    def test_graph_keeps_shortest_chord_per_pair(self, dyck):
        field = DistanceField(dyck, 0.05)
        chords: dict[tuple[int, int], float] = {}
        for ids, pos in field._face_nodes:
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    a, b = sorted((int(ids[i]), int(ids[j])))
                    if a != b:
                        d = float(np.linalg.norm(pos[i] - pos[j]))
                        chords[(a, b)] = min(d, chords.get((a, b), math.inf))
        g = field._graph.tocoo()
        graph = {}
        for a, b, w in zip(g.row, g.col, g.data):
            key = (min(a, b), max(a, b))
            assert key not in graph
            graph[key] = w
        assert graph.keys() == chords.keys()
        assert [graph[k] for k in chords] == pytest.approx(
            list(chords.values()), rel=1e-15)

    @pytest.mark.parametrize("block", ["default", "seven", "one"])
    def test_eval_points_match_dense_norm(self, monkeypatch, block):
        # bit for bit the dense np.linalg.norm formula, on points that cross
        # block boundaries (the last block holds one point)
        c = sf.build_collar_flat()
        field = DistanceField(c, 0.02).solve(source_slots=c.marks["soul"])
        rng = np.random.default_rng(3)
        for f in (0, 40, 83):
            n = len(field._face_nodes[f][0])
            size = {"default": geo.EVAL_BLOCK, "seven": 7 * n, "one": 1}[block]
            monkeypatch.setattr(geo, "EVAL_BLOCK", size)
            step = max(1, size // n)
            pts = rng.uniform(-0.2, 0.8, size=(2 * step + 1, 2))
            assert (field.eval_points(f, pts).tobytes()
                    == loop.eval_points(field, f, pts).tobytes())

    def test_sublevel_count_matches_dense_oracle(self):
        # the early-accept count equals, not just approximates, the count of
        # dense-formula distances within r on both meshes
        c = sf.build_collar_flat()
        soul = [tuple(sl) for sl in c.marks["soul"]]
        raw = []
        for mesh_h in (0.01, 0.005):
            field = DistanceField(c, mesh_h).solve(source_slots=soul)
            total = 0.0
            for f, pts, sub_area in geo._subtriangles(
                    c, range(len(c.faces)), mesh_h):
                total += sub_area * int(
                    (loop.eval_points(field, f, pts) <= 0.5).sum())
            raw.append(total)
        res = sublevel_area(c, soul, 0.5, mesh_h=0.01)
        assert res.raw_values == tuple(raw)
        assert res.area == 2 * raw[1] - raw[0]

    def test_size_limit_counts_the_in_face_pairs(self, monkeypatch):
        c = sf.build_collar_flat()
        field = DistanceField(c, 0.05)
        pairs = sum(len(ids) * (len(ids) - 1) // 2 for ids, _ in field._face_nodes)
        monkeypatch.setattr(geo, "MAX_FIELD_PAIRS", pairs)
        DistanceField(c, 0.05)
        monkeypatch.setattr(geo, "MAX_FIELD_PAIRS", pairs - 1)
        with pytest.raises(GeodesicError, match="MAX_FIELD_PAIRS"):
            DistanceField(c, 0.05)

    @pytest.mark.parametrize("mesh_h", [5e-5, 1e-300])
    def test_oversized_field_refused(self, mesh_h):
        with pytest.raises(GeodesicError, match="MAX_FIELD_PAIRS"):
            DistanceField(sf.build_collar_flat(), mesh_h)

    def test_read_before_solve_refused(self):
        field = DistanceField(sf.build_flat_torus(), 0.1)
        assert field.node_distance is None
        with pytest.raises(GeodesicError):
            field.eval_points(0, np.array([[0.5, 0.2]]))

    def test_bad_sources_refused(self, dyck):
        field = DistanceField(dyck, 0.1)
        for v in (-1, dyck.n_vertices):
            with pytest.raises(GeodesicError):
                field.solve(source_vertices=[v])
        for slot in ((len(dyck.faces), 0), (0, 3)):
            with pytest.raises(GeodesicError):
                field.solve(source_slots=[slot])


@functools.cache
def graph_surfaces():
    c = sf.build_collar_flat()
    dyck = sf.build_extremal_dyck()
    return {
        "collar": c,
        "extremal": dyck,
        "subdivided": sf.subdivide(dyck),
        # one vertex at all three corners of each face: self pairs
        "one-vertex-torus": sf.build_flat_torus(1.0, 1.0),
        # two faces glued along all three edges: every edge's chords lie
        # in both faces
        "two-face-torus": sf.build_flat_torus(1.0, 1.3, shear=0.2),
        "fermi": capacity.fermi_chart_annulus(
            capacity.hyperbolic_collar_profile(), 96, 24),
        # flip=False and flip=True gluings of two faces
        "klein": fx.build_flat_klein_bottle(),
        # slot 0 glued to slot 1 of the same face: the shared edge's nodes
        # lie twice in that face, with the boundary slot 2
        "one-face-cone": sf.ConeSurface([(1.0, 1.0, 1.2)],
                                        [(0, 0, 0, 1, True)]),
    }


class TestDistanceGraph:
    @pytest.mark.parametrize("name, mesh_h", [
        ("collar", 0.01), ("collar", 0.005), ("extremal", 0.05),
        ("subdivided", 0.02), ("one-vertex-torus", 0.25),
        ("one-vertex-torus", 2.0), ("two-face-torus", 0.1), ("fermi", 0.015),
        ("klein", 0.3), ("one-face-cone", 0.1), ("one-face-cone", 0.45),
        # 96 of the 252 slots in one piece, the others in two
        ("collar", 0.15)])
    def test_graph_matches_the_per_face_build(self, name, mesh_h):
        s = graph_surfaces()[name]
        got = DistanceField(s, mesh_h)._graph
        want = loop.distance_graph(s, mesh_h)
        assert got.shape == want.shape
        for key in ("indptr", "indices", "data"):
            a, b = getattr(got, key), getattr(want, key)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_build_peak_memory_per_pair(self):
        # the build's arrays, numpy buffers included, at most 24 bytes per
        # in-face pair at their peak (about 18 measured)
        c = sf.build_collar_flat()
        tracemalloc.start()
        try:
            field = DistanceField(c, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = sum(len(ids) * (len(ids) - 1) // 2 for ids, _ in field._face_nodes)
        assert pairs > 1_000_000
        assert peak <= 24 * pairs


@functools.cache
def solved_fields():
    """A soul-sourced field on the flat collar and a vertex-sourced one on a
    subdivided torus."""
    c = sf.build_collar_flat()
    t = sf.subdivide(sf.build_flat_torus(1.0, 1.0))
    return (DistanceField(c, 0.02).solve(source_slots=c.marks["soul"]),
            DistanceField(t, 0.05).solve(source_vertices=[0]))


class TestWithin:
    """DistanceField.within(f, pts, r) is exactly eval_points(f, pts) <= r."""

    @settings(max_examples=80, deadline=None)
    @given(which=st.sampled_from([0, 1]), face=st.integers(0, 10_000),
           seed=st.integers(0, 2**32 - 1), n=st.integers(0, 400),
           radius=st.sampled_from(["node", "point", "below_point", "below",
                                   "above", "uniform"]),
           pick=st.integers(0, 10_000))
    def test_matches_eval_points(self, which, face, seed, n, radius, pick):
        field = solved_fields()[which]
        f = face % len(field.surface.faces)
        ids, pos = field._face_nodes[f]
        d = field.node_distance[ids]
        rng = np.random.default_rng(seed)
        # some node positions, then points inside the face and some of its
        # chart plane around it
        pts = rng.dirichlet(np.ones(3), size=n) @ field.surface.chart(f)
        pts[::3] += rng.normal(scale=0.1, size=pts[::3].shape)
        pts[:n // 8] = pos[rng.integers(len(pos), size=n // 8)]
        full = field.eval_points(f, pts)
        if radius == "node":  # ties with a node distance
            r = float(d[pick % len(d)])
        elif radius == "point" and n:  # ties with a point's distance
            r = float(full[pick % n])
        elif radius == "below_point" and n:  # one ulp short of a point's
            r = float(np.nextafter(full[pick % n], -math.inf))
        elif radius == "below":
            r = float(np.nextafter(d.min(), -math.inf))
        elif radius == "above":
            r = float(full.max(initial=d.max()))
        else:
            r = float(rng.uniform(0.0, 1.2 * d.max() + 0.2))
        got = field.within(f, pts, r)
        assert got.dtype == bool
        assert got.tolist() == (full <= r).tolist()

    def test_nearest_node_at_its_own_distance(self):
        # r equal to the face's least node distance, at that node: within
        for field in solved_fields():
            for f in (0, 5):
                ids, pos = field._face_nodes[f]
                d = field.node_distance[ids]
                j = int(d.argmin())
                assert field.within(f, pos[[j]], float(d[j])).tolist() == [True]

    def test_empty_points(self):
        for field in solved_fields():
            got = field.within(0, np.empty((0, 2)), 0.3)
            assert got.shape == (0,) and got.dtype == bool

    def test_read_before_solve_refused(self):
        field = DistanceField(sf.build_flat_torus(), 0.1)
        with pytest.raises(GeodesicError):
            field.within(0, np.array([[0.5, 0.2]]), 0.3)


def _soul_case(s, r, mesh_h):
    return s, [tuple(sl) for sl in s.marks["soul"]], r, mesh_h


def _scaled_collar():
    c = sf.build_collar_flat()
    return sf.ConeSurface(c.lengths * 1e6, c.glue_records, marks=c.marks)


class TestCovers:
    """A face DistanceField.covers has every centroid within r."""

    @pytest.mark.parametrize("case, covered", [
        (lambda: _soul_case(sf.build_collar_flat(), 0.5, 0.01), 48),
        (lambda: _soul_case(sf.build_collar_flat(), 0.5, 0.005), 48),
        (lambda: _soul_case(sf.build_extremal_dyck(), 0.05, 0.02), 0),
        (lambda: _soul_case(sf.build_extremal_dyck(), 0.2, 0.02), 6),
        (lambda: _soul_case(sf.build_extremal_dyck(), 0.5, 0.02), 24),
        (lambda: _soul_case(_scaled_collar(), 0.5e6, 0.005e6), 48)])
    def test_count_matches_within(self, case, covered):
        s, soul, r, mesh_h = case()
        field = DistanceField(s, mesh_h).solve(source_slots=soul)
        total, faces = 0.0, 0
        for f, pts, sub_area in geo._subtriangles(s, range(len(s.faces)), mesh_h):
            inside = int(field.within(f, pts, r).sum())
            if field.covers(f, r):
                faces += 1
                assert inside == len(pts)
                # the margin: no face is accepted at its least reach itself
                ids, pos = field._face_nodes[f]
                reach = np.linalg.norm(pos[:, None, :] - s.charts[f][None, :, :],
                                       axis=-1).max(axis=1) + field.node_distance[ids]
                assert not field.covers(f, float(reach.min()))
            total += sub_area * inside
        assert faces == covered
        assert geo._sublevel_once(s, soul, r, mesh_h) == total


class TestVoronoi:
    def test_three_equal_cells(self, dyck):
        cells = voronoi_cells(dyck, mesh_h=0.02)
        assert len(cells) == 3
        W = weierstrass_vertices(dyck)
        for c in cells:
            assert c.center in W
            assert c.area == pytest.approx(HEX_MIN, abs=1e-3)
            assert c.neighbors == W - {c.center}

    def test_boundary_passes_cone_points(self, dyck):
        # p and q are equidistant from all three centers, hence on every
        # cell boundary
        W = sorted(weierstrass_vertices(dyck))
        p = dyck.vertex_of(tuple(dyck.marks["p"]))
        q = dyck.vertex_of(tuple(dyck.marks["q"]))
        for target in (p, q):
            ds = [DistanceField(dyck, 0.02).solve(
                source_vertices=[w]).node_distance[target] for w in W]
            assert max(ds) - min(ds) < 5e-3

    def test_torus_single_cell(self):
        t = sf.build_flat_torus(1.0, 1.0)
        (cell,) = voronoi_cells(t, centers=[0], mesh_h=0.05)
        assert cell.area == pytest.approx(t.area, abs=1e-9)
        assert cell.neighbors == set()

    def test_duplicate_centers_refused(self, dyck):
        with pytest.raises(GeodesicError):
            voronoi_cells(dyck, centers=[2, 2])

    def test_unmarked_surface_needs_centers(self):
        with pytest.raises(GeodesicError, match="Weierstrass"):
            voronoi_cells(sf.build_flat_torus(), mesh_h=0.05)


@pytest.mark.parametrize("build", [
    lambda: fx.build_cylinder(1.0, 0.5, 3), sf.build_collar_flat,
    lambda: fx.build_round_annulus(1.0, 2.0)], ids=["cylinder", "collar", "annulus"])
class TestBoundedSurfacesRefused:
    """A boundary vertex's link is an interval, not a circle, so the link
    angles of the saddle search do not apply there."""

    def test_link_frames(self, build):
        with pytest.raises(sf.SurfaceError, match="closed"):
            build().link_frames

    def test_saddle_connections(self, build):
        with pytest.raises(GeodesicError, match="surface must be closed"):
            enumerate_saddle_connections(build(), 1.2)

    def test_closed_geodesics_and_systole(self, build):
        s = build()
        for search in (enumerate_closed_geodesics, systole):
            with pytest.raises(GeodesicError, match="surface must be closed"):
                search(s, 1.2)

    def test_point_distance_before_developing(self, build, monkeypatch):
        def develop(*args, **kwargs):
            raise AssertionError("developed a surface with boundary")

        monkeypatch.setattr(geo, "_develop_from_point", develop)
        s = build()
        with pytest.raises(GeodesicError, match="surface must be closed"):
            point_distance(s, centroid(s, 0), centroid(s, 1), 1.2)


@pytest.mark.parametrize("size", [math.nan, math.inf])
class TestNonFiniteSizesRefused:
    def test_saddle_connections(self, dyck, size):
        with pytest.raises(GeodesicError, match="finite"):
            enumerate_saddle_connections(dyck, size)

    def test_point_distance(self, dyck, size):
        x = (5, np.mean(dyck.chart(5), axis=0))
        y = (30, np.mean(dyck.chart(30), axis=0))
        with pytest.raises(GeodesicError, match="finite"):
            point_distance(dyck, x, y, size)

    def test_distance_field(self, dyck, size):
        with pytest.raises(GeodesicError, match="finite"):
            DistanceField(dyck, size)

    def test_sublevel_area(self, size):
        cyl, mid = stacked_cylinder()
        with pytest.raises(GeodesicError, match="finite"):
            sublevel_area(cyl, mid, size, mesh_h=0.1)


class TestComparisonPolygon:
    def test_unit_square(self):
        res = comparison_polygon(
            [(1.0, 0.0), (1.0, math.pi / 2), (1.0, math.pi), (1.0, -math.pi / 2)])
        assert res.bounded
        assert res.area == pytest.approx(1.0, abs=1e-12)

    def test_extremal_hexagon_exact(self):
        cons = [(0.5, a) for a in (THETA / 2, math.pi - THETA / 2,
                                   math.pi + THETA / 2, -THETA / 2)]
        cons += [(2 * H, math.pi / 2), (2 * H, -math.pi / 2)]
        res = comparison_polygon(cons)
        assert res.bounded
        assert res.area == pytest.approx(H * math.sqrt(1 - 4 * H * H), abs=1e-12)
        assert res.area == pytest.approx(HEX_MIN, abs=1e-9)
        assert len(res.vertices) == 6

    def test_parallel_constraints_unbounded(self):
        res = comparison_polygon([(1.0, 0.0), (1.0, math.pi)])
        assert not res.bounded

    def test_too_few_constraints(self):
        with pytest.raises(GeodesicError):
            comparison_polygon([(1.0, 0.0)])

    def test_random_tori_lower_bound(self):
        # the comparison polygon of the loops through the center never
        # exceeds the area of the (single) Voronoi cell = whole torus
        rng = random.Random(11)
        for _ in range(20):
            a = rng.uniform(0.6, 1.4)
            b = rng.uniform(0.6, 1.4)
            shear = rng.uniform(-0.3, 0.3)
            t = sf.build_flat_torus(a, b, shear)
            scs = enumerate_saddle_connections(t, 2.5 * max(a, b))
            cons = [(sc.length, sc.a_src) for sc in scs.connections]
            res = comparison_polygon(cons)
            assert res.bounded
            assert res.area <= t.area + 1e-9

    def test_square_torus_equality(self):
        t = sf.build_flat_torus(1.0, 1.0)
        scs = enumerate_saddle_connections(t, 2.2)
        res = comparison_polygon([(sc.length, sc.a_src)
                                  for sc in scs.connections])
        assert res.area == pytest.approx(t.area, abs=1e-9)
