"""Acceptance gate: the twelve certification criteria.

Each test prints one PASS/FAIL line.  Four subchecks compare against
reference decimals that disagree with the high-precision closed forms by
more than their stated tolerance; those are implemented faithfully and
marked strict-xfail rather than weakened (see the failing assertion for
the true value).
"""

import math
import random
import time

import numpy as np
import pytest

import fixtures as fx
from dycksurf import capacity, constants, hexopt, surface
from dycksurf.geodesic import (
    comparison_polygon,
    enumerate_closed_geodesics,
    enumerate_saddle_connections,
    sublevel_area,
    voronoi_cells,
)

H = 0.22487963004041582
THETA = 0.9329915607796814
AREA = 1.152794345841759
UPPER = 2.283093046469848
LOWER = 2.2946094708421385


@pytest.fixture(scope="module")
def dyck():
    return surface.build_extremal_dyck()


@pytest.fixture(scope="module")
def dyck_geodesics(dyck):
    t0 = time.monotonic()
    res = enumerate_closed_geodesics(dyck, 1.2)
    res.elapsed = time.monotonic() - t0
    return res


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_01_constants():
    t0 = time.monotonic()
    h = constants.constant_value("h")
    ell = constants.constant_value("ell")
    floor = constants.constant_value("voronoi_floor")
    assert abs(h - 0.2248796) <= 5e-8
    assert abs(ell - 4.397146) <= 5e-7
    assert abs(floor - 0.15887) <= 5e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("PASS criterion 1: h, ell, pi h^2 match the reference decimals")


@pytest.mark.xfail(strict=True,
                   reason="reference decimal 0.5954331 is off by ~1.2e-7; "
                          "the closed form (1+sqrt(19))/9 = 0.59543322")
def test_criterion_01b_cos_vartheta_decimal():
    cosv = constants.constant_value("cos_vartheta")
    assert abs(cosv - (1 + math.sqrt(19)) / 9) <= 1e-15
    report("FAIL criterion 1b: cos-vartheta reference decimal is "
           f"unreachable (closed form {cosv:.10f} vs 0.5954331 +- 1e-7)")
    assert abs(cosv - 0.5954331) <= 1e-7


def test_criterion_02_area():
    t0 = time.monotonic()
    p = constants.SurfaceParameters.paper()
    via_height = 2 * p.delta + 3 * p.h * math.sqrt(1 - 4 * p.h * p.h)
    via_radical = 1 + math.sqrt(169 - 38 * math.sqrt(19)) / 12
    assert abs(via_height - via_radical) <= 1e-12
    assert abs(via_height - 1.15279) <= 5e-6
    assert time.monotonic() - t0 < 1.0
    report("PASS criterion 2: area 1.15279 via both closed forms, "
           "agreement 1e-12")


def test_criterion_03_unit_systole(dyck, dyck_geodesics):
    res = dyck_geodesics
    assert res.complete
    assert res.paths
    assert abs(res.paths[0].length - 1.0) <= 1e-6
    assert all(p.length > 1.0 - 1e-6 for p in res.paths)
    assert res.elapsed < 120.0
    report(f"PASS criterion 3: unit systole certified "
           f"({len(res.paths)} geodesics, {res.elapsed:.1f}s)")


@pytest.mark.xfail(strict=True,
                   reason="reference decimal 0.86745 +- 5e-6 excludes the "
                          "closed form 12/(12+sqrt(169-38 sqrt 19)) = "
                          "0.8674574")
def test_criterion_03b_systolic_ratio_decimal(dyck, dyck_geodesics):
    sys_len = dyck_geodesics.paths[0].length
    ratio = sys_len ** 2 / dyck.area
    assert abs(ratio - constants.constant_value("systolic_ratio_dyck")) <= 1e-9
    report(f"FAIL criterion 3b: systolic ratio reference decimal is "
           f"unreachable (computed {ratio:.7f} vs 0.86745 +- 5e-6)")
    assert abs(ratio - 0.86745) <= 5e-6


def test_criterion_04_gauss_bonnet(dyck):
    t0 = time.monotonic()
    assert abs(dyck.gauss_bonnet_residual()) <= 1e-9
    assert dyck.euler_characteristic == -1
    cover = surface.orientation_double_cover(dyck)
    assert cover.euler_characteristic == -2
    assert abs(cover.gauss_bonnet_residual()) <= 1e-9
    assert time.monotonic() - t0 < 1.0
    report("PASS criterion 4: angle defect sums -2 pi and -4 pi")


def test_criterion_05_hexagon_minimum():
    t0 = time.monotonic()
    res = hexopt.minimize_hex((0.25, H, 0.25))
    closed = H * math.sqrt(1 - 4 * H * H)
    assert abs(res.area - closed) <= 1e-8
    assert abs(res.area - 0.2008510) <= 1e-6
    target = (THETA, math.pi - 2 * THETA, THETA)
    assert all(abs(a - t) <= 1e-4 for a, t in zip(res.angles, target))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(f"PASS criterion 5: hexagon minimum {res.area:.9f} at the "
           f"predicted angles ({elapsed:.1f}s)")


def test_criterion_06_tradeoff():
    t0 = time.monotonic()
    res = hexopt.optimize_mobius_tradeoff()
    assert abs(res.h_star ** 2 - (8 - math.sqrt(19)) / 72) <= 1e-8
    assert abs(res.residual) <= 1e-9
    assert time.monotonic() - t0 < 1.0
    report(f"PASS criterion 6: tradeoff height h* = {res.h_star:.10f}, "
           f"quadratic residual {res.residual:.1e}")


def test_criterion_07_case_analysis():
    t0 = time.monotonic()
    cb = hexopt.case_bounds(H, AREA)
    assert abs(cb["case1"].bound - (1 + 2 * math.pi * H * H)) <= 1e-12
    for k in ("case2", "case3", "case4"):
        assert abs(cb[k].bound - (1 + math.pi * H * H)) <= 1e-12
    assert all(c.margin >= 0.006 for c in cb.values())
    assert time.monotonic() - t0 < 1.0
    report("PASS criterion 7: all four case floors exceed the extremal "
           "area with margin >= 0.006")


def test_criterion_08_capacity_upper_mesh_check():
    t0 = time.monotonic()
    res = capacity.flat_capacity_upper(mesh_check=True, mesh_h=0.01,
                                       mesh_tol=1e-3)
    assert abs(res.closed_form.value - UPPER) <= 1e-9
    assert res.mesh is not None
    assert abs(res.mesh.value - res.closed_form.value) <= 1e-3
    assert res.consistent
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(f"PASS criterion 8: capacity upper closed form "
           f"{res.closed_form.value:.7f} confirmed by mesh "
           f"{res.mesh.value:.7f} ({elapsed:.0f}s)")


@pytest.mark.xfail(strict=True,
                   reason="reference decimal 2.28308 +- 5e-6 excludes the "
                          "closed form 2.2830930")
def test_criterion_08b_capacity_upper_decimal():
    res = capacity.flat_capacity_upper(mesh_check=False)
    assert abs(res.closed_form.value - UPPER) <= 1e-9
    report(f"FAIL criterion 8b: capacity upper reference decimal is "
           f"unreachable (closed form {res.closed_form.value:.7f} vs "
           f"2.28308 +- 5e-6)")
    assert abs(res.closed_form.value - 2.28308) <= 5e-6


def test_criterion_09_capacity_lower_quadrature():
    t0 = time.monotonic()
    est = capacity.muetzel_bound(capacity.hyperbolic_collar_profile(),
                                 tol=1e-8)
    lo, hi = est.meta["bracket"]
    assert 2.29 < lo <= est.value <= hi
    assert hi - lo <= 1e-3
    for ell, w in ((2.0, 0.7), (4.0, 1.1)):
        cst = capacity.muetzel_bound(capacity.constant_profile(ell, w),
                                     tol=1e-10)
        exact = ell / (capacity.gudermann(w) - capacity.gudermann(-w))
        assert abs(cst.value - exact) <= 1e-9
    assert time.monotonic() - t0 < 5.0
    report(f"PASS criterion 9: width-integral lower bound {est.value:.7f} "
           f"with Romberg inside its monotone bracket [{lo:.7f}, {hi:.7f}]")


@pytest.mark.xfail(strict=True,
                   reason="the integral evaluates to 2.29460947, just below "
                          "the reference's rounded claim of >= 2.29461")
def test_criterion_09b_capacity_lower_decimal():
    est = capacity.muetzel_bound(capacity.hyperbolic_collar_profile(),
                                 tol=1e-8)
    assert abs(est.value - LOWER) <= 1e-9
    report(f"FAIL criterion 9b: the >= 2.29461 claim is unreachable "
           f"(computed {est.value:.8f})")
    assert est.value >= 2.29461


def test_criterion_10_separation():
    t0 = time.monotonic()
    cert = capacity.separation_certificate()
    assert cert["upper"] < 2.29 < cert["lower"]
    assert cert["margin_upper"] >= 4e-3
    assert cert["margin_lower"] >= 4e-3
    assert time.monotonic() - t0 < 1.0
    report(f"PASS criterion 10: {cert['upper']:.5f} < 2.29 < "
           f"{cert['lower']:.5f}, margins {cert['margin_upper']:.4f} / "
           f"{cert['margin_lower']:.4f}")


def test_criterion_11_fem_consistency():
    t0 = time.monotonic()
    cyl = capacity.fem_capacity(fx.build_cylinder(2.0, 0.5),
                                mesh_h=0.1)
    assert abs(cyl.value / 4.0 - 1.0) <= 5e-3
    ann = capacity.fem_capacity(fx.build_round_annulus(1.0, math.e),
                                mesh_h=0.15)
    assert abs(ann.value / (2 * math.pi) - 1.0) <= 5e-3
    collar = surface.build_collar_flat()
    coarse = capacity.fem_capacity(collar, mesh_h=0.12).value
    mid = capacity.fem_capacity(collar, mesh_h=0.06).value
    fine = capacity.fem_capacity(collar, mesh_h=0.03).value
    assert fine <= UPPER + 1e-3
    assert mid <= coarse + 1e-4 and fine <= mid + 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(f"PASS criterion 11: FEM matches the model annuli and stays "
           f"below the closed-form upper bound ({elapsed:.0f}s)")


def test_criterion_12_property_suites(dyck, dyck_geodesics):
    t0 = time.monotonic()
    for p in dyck_geodesics.paths:
        p.validate(dyck)
    cyl = fx.build_cylinder(2.0, 1.0)
    n = len(cyl.faces)
    faces = list(cyl.faces) * 2
    glu = list(cyl.gluings) + [(f + n, e, f2 + n, e2, fl)
                               for f, e, f2, e2, fl in cyl.gluings]
    for j in range(6):
        glu.append((2 * j + 1, 1, 2 * j + n, 0, True))
    stack = surface.ConeSurface(faces, glu)
    mid = [(2 * j + 1, 1) for j in range(6)]
    areas = [sublevel_area(stack, mid, r, mesh_h=0.05,
                           extrapolate=False).area
             for r in (0.2, 0.5, 0.8, 1.2)]
    assert areas == sorted(areas)

    cells = voronoi_cells(dyck, mesh_h=0.02)
    cons = [(0.5, a) for a in (THETA / 2, math.pi - THETA / 2,
                               math.pi + THETA / 2, -THETA / 2)]
    cons += [(2 * H, math.pi / 2), (2 * H, -math.pi / 2)]
    poly = comparison_polygon(cons)
    for cell in cells:
        assert abs(poly.area - cell.area) <= 1e-3

    rng = random.Random(17)
    for _ in range(20):
        a, b = rng.uniform(0.6, 1.4), rng.uniform(0.6, 1.4)
        torus = surface.build_flat_torus(a, b, rng.uniform(-0.3, 0.3))
        scs = enumerate_saddle_connections(torus, 2.5 * max(a, b))
        res = comparison_polygon([(sc.length, sc.a_src)
                                  for sc in scs.connections])
        assert res.bounded and res.area <= torus.area + 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(f"PASS criterion 12: geodesy, monotonicity and polygon-vs-cell "
           f"properties hold ({elapsed:.0f}s)")
