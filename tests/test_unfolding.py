"""The scalar unfolding against the numpy reference in loop_reference.

The two differ only in the last bits of their floats (numpy's 2x2 products
may run through fused multiply-adds), so the connection sets, start faces
and successor lists must agree exactly and the lengths and angles to 1e-12.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as loop
from dycksurf import geodesic as geo
from dycksurf import surface as sf

FLOAT_TOL = 1e-12


@pytest.fixture(scope="module")
def dyck():
    return sf.build_extremal_dyck()


def klein_bottle(a, b, shift):
    """Flat a x b Klein bottle: top glued to bottom by translation, the right
    side to the left by the glide (a, y) ~ (0, shift - y mod b).

    The rectangle is cut into horizontal strips at {0, b/2, shift,
    shift + b/2} mod b, a set the glide maps to itself; each strip is the
    triangles (p00, p10, p11) and (p00, p11, p01).
    """
    levels = []
    for y in (0.0, b / 2, shift % b, (shift + b / 2) % b):
        if all(abs(y - z) > 1e-12 and abs(abs(y - z) - b) > 1e-12 for z in levels):
            levels.append(y)
    levels.sort()
    tops = levels[1:] + [b]
    n = len(levels)
    faces, gluings = [], []
    for k, (y0, y1) in enumerate(zip(levels, tops)):
        h = y1 - y0
        d = math.hypot(a, h)
        faces += [(a, h, d), (d, a, h)]
        gluings.append((2 * k, 2, 2 * k + 1, 0, True))  # diagonal
        gluings.append((2 * k + 1, 1, 2 * ((k + 1) % n), 0, True))  # top ~ bottom
        # the right side [y0, y1] lands on the left side [shift - y1, shift - y0]
        low = (shift - y1) % b
        j = min(range(n), key=lambda i: min(abs(levels[i] - low), b - abs(levels[i] - low)))
        gluings.append((2 * k, 1, 2 * j + 1, 2, False))
    return sf.ConeSurface(faces, gluings, name=f"klein({a},{b},{shift})")


def assert_same_connections(s, L_max):
    new = geo.enumerate_saddle_connections(s, L_max)
    ref = loop.enumerate_saddle_connections(s, L_max)
    assert new.complete and ref.complete
    got = {sc.key(): sc for sc in new.connections}
    want = {sc.key(): sc for sc in ref.connections}
    assert got.keys() == want.keys()
    for k, sc in got.items():
        w = want[k]
        assert (sc.v_dst, sc.start_face) == (w.v_dst, w.start_face)
        assert sc.start_point == pytest.approx(w.start_point, abs=FLOAT_TOL)
        for x, y in ((sc.length, w.length), (sc.a_src, w.a_src),
                     (sc.a_dst, w.a_dst), *zip(sc.direction, w.direction)):
            assert abs(x - y) <= FLOAT_TOL
    assert geo._successors(s, new.connections) == loop.successors(s, new.connections)
    return new, ref


@pytest.mark.parametrize("L_max", [0.8, 1.2, 2.0])
def test_extremal_connections_match_reference(dyck, L_max):
    new, ref = assert_same_connections(dyck, L_max)
    if L_max < 2.0:
        assert new.nodes_explored == ref.nodes_explored


def test_faces_develop_in_reference_order(dyck):
    """Same faces, in the same order, with the same developed corners and
    sectors, from every corner of the extremal surface."""
    for f0 in range(len(dyck.faces)):
        ch = dyck.chart(f0)
        for c0 in range(3):
            wa, wb = (loop._unit(ch[(c0 + k) % 3] - ch[c0]) for k in (1, 2))
            if loop._cross(wa, wb) < 0:
                wa, wb = wb, wa
            ref = loop.unfold(dyck, 1.2, geo._Budget(10**6),
                              [(f0, np.eye(2), -ch[c0], wa, wb, None)])
            seed = (f0, (1.0, 0.0, 0.0, 1.0), tuple((-ch[c0]).tolist()),
                    tuple(wa.tolist()), tuple(wb.tolist()), None)
            new = geo._unfold(dyck, 1.2, geo._Budget(10**6), [seed])
            n = 0
            for (f, _, _, dev, a, b), (g, _, _, want, wa_, wb_) in zip(new, ref, strict=True):
                assert f == g
                assert np.abs(np.array([*dev, a, b]) - np.array([*want, wa_, wb_])).max() <= FLOAT_TOL
                n += 1
            assert n > 1


@settings(max_examples=12, deadline=None)
@given(st.floats(0.7, 1.3), st.floats(-0.5, 0.5), st.floats(0.0, 1.0))
def test_subdivided_tori_match_reference(a, shear_frac, stretch):
    shear = a * shear_frac
    b = a * (math.sqrt(1.0 - shear_frac ** 2) + 0.2 * stretch)
    s = sf.subdivide(sf.build_flat_torus(a, b, shear))
    assert_same_connections(s, 2.2 * a)


@settings(max_examples=12, deadline=None)
@given(st.floats(0.6, 1.0), st.floats(1.5, 1.7), st.integers(0, 19))
def test_klein_bottles_match_reference(a, ratio, k):
    b = a * ratio
    s = klein_bottle(a, b, b * k / 20)
    assert not s.orientable and s.is_closed
    assert_same_connections(s, 2.2 * a)


def test_point_development_matches_reference(dyck):
    rng = random.Random(5)
    for _ in range(6):
        f, g = rng.randrange(len(dyck.faces)), rng.randrange(len(dyck.faces))
        pts = []
        for face in (f, g):
            w = [rng.uniform(0.1, 1.0) for _ in range(3)]
            ch = dyck.chart(face)
            pts.append(tuple(sum(w[c] * ch[c][i] for c in range(3)) / sum(w)
                             for i in range(2)))
        target = (g, pts[1])
        vd, td, done = geo._develop_from_point(dyck, f, pts[0], 0.8, 400_000, target)
        wd, tw, wdone = loop.develop_from_point(dyck, f, pts[0], 0.8, 400_000, target)
        assert done and wdone and vd.keys() == wd.keys()
        assert all(abs(vd[v] - wd[v]) <= FLOAT_TOL for v in vd)
        assert td == tw == math.inf or abs(td - tw) <= FLOAT_TOL


class TestChainSearch:
    @pytest.mark.parametrize("L_max, nodes", [(1.2, 2085), (2.0, 10802)])
    def test_iterative_search_keeps_recursive_order(self, dyck, L_max, nodes):
        conns = geo.enumerate_saddle_connections(dyck, L_max).connections
        succ = geo._successors(dyck, conns)
        budget = geo._Budget(nodes)
        cycles, done = geo._closed_chains(conns, succ, L_max, budget)
        want, want_nodes = loop.closed_chains(conns, succ, L_max)
        assert done and budget.used == want_nodes == nodes
        assert cycles == want

    def test_budget_cuts_the_search(self, dyck):
        conns = geo.enumerate_saddle_connections(dyck, 1.2).connections
        succ = geo._successors(dyck, conns)
        full, _ = geo._closed_chains(conns, succ, 1.2, geo._Budget(10**6))
        budget = geo._Budget(500)
        part, done = geo._closed_chains(conns, succ, 1.2, budget)
        assert not done and budget.used == 501
        assert part == full[:len(part)] and 0 < len(part) < len(full)

    def test_result_reports_chain_nodes(self, dyck):
        res = geo.enumerate_closed_geodesics(dyck, 1.2)
        assert res.complete and res.chain_nodes == 2085

    def test_exhausted_chain_budget_marks_result_incomplete(self, dyck, monkeypatch):
        monkeypatch.setattr(geo, "_closed_chains", lambda *args: ([], False))
        res = geo.enumerate_closed_geodesics(dyck, 0.8)
        assert not res.complete and not res.paths
