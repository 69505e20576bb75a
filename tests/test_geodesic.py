import math
import random

import numpy as np
import pytest

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
        c = sf.build_cylinder(2.0, 1.0)
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
        c = sf.build_cylinder(2.0, 1.0)
        with pytest.raises(GeodesicError):
            enumerate_closed_geodesics(c, 1.5)


class TestSystole:
    def test_klein_bottle(self):
        k = sf.build_flat_klein_bottle(1.0, 1.0)
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
        co = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
        tet = sf.surface_from_vertex_faces(
            co, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)])
        with pytest.raises(GeodesicError, match="cone angle below"):
            systole(tet, 3.0)

    def test_not_found_below_cutoff(self, dyck):
        res = systole(dyck, 0.5)
        assert not res.found and res.length is None and res.complete


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


def stacked_cylinder(circ=2.0, half_height=0.5, columns=6):
    """Two cylinders glued top-to-bottom; middle circle is a mesh curve."""
    c1 = sf.build_cylinder(circ, half_height, columns)
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
            d = field.vertex_distance(w)
            assert d >= H - 1e-6
            assert d == pytest.approx(H, abs=2e-3)

    @pytest.mark.parametrize("mesh_h", [0.25, 0.1])
    def test_subdivided_torus_vertex_distances(self, mesh_h):
        t = sf.subdivide(sf.build_flat_torus(1.0, 1.0))
        field = DistanceField(t, mesh_h).solve(source_vertices=[0])
        got = sorted(field.vertex_distance(v) for v in range(t.n_vertices))
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

    def test_read_before_solve_refused(self):
        field = DistanceField(sf.build_flat_torus(), 0.1)
        with pytest.raises(GeodesicError):
            field.vertex_distance(0)
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
        field.solve(source_vertices=[0])
        for v in (-1, dyck.n_vertices):
            with pytest.raises(GeodesicError):
                field.vertex_distance(v)


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
                source_vertices=[w]).vertex_distance(target) for w in W]
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
