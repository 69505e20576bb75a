import inspect
import json
import math
import random
from fractions import Fraction

import pytest

from dycksurf.constants import H_SQUARED, SQRT19, SurfaceParameters
from dycksurf.hexopt import (
    CaseBound,
    HexagonSpec,
    HexOptError,
    case_bounds,
    cone_disk_area_floor,
    hex_area_bound,
    hexopt_certificate,
    minimize_hex,
    optimize_mobius_tradeoff,
    tradeoff_area,
)

H = 0.22487963004041582
THETA = 0.9329915607796814
AREA_EXTREMAL = 1.152794345841759
HEX_MIN = H * math.sqrt(1 - 4 * H * H)  # 0.2008512019731...
PAPER_D = (0.25, H, 0.25)


def rand_angles(rng):
    while True:
        w = sorted(rng.uniform(0, math.pi) for _ in range(2))
        a = (w[0], w[1] - w[0], math.pi - w[1])
        if min(a) > 1e-3:
            return a


def rand_distances(rng):
    """A distance triple whose largest entry has d_k^2 < 0.9 (d_i^2 + d_j^2),
    so the minimum is interior and away from the degenerate boundary."""
    while True:
        d = tuple(rng.uniform(0.05, 1.0) for _ in range(3))
        di, dj, dk = sorted(d)
        if dk * dk < 0.9 * (di * di + dj * dj):
            return d


class TestHexagonSpec:
    def test_valid(self):
        s = HexagonSpec(PAPER_D, (THETA, math.pi - 2 * THETA, THETA))
        assert s.d == PAPER_D

    def test_angle_sum_enforced(self):
        with pytest.raises(HexOptError):
            HexagonSpec(PAPER_D, (1.0, 1.0, 1.0))

    def test_positive_distances(self):
        with pytest.raises(HexOptError):
            HexagonSpec((0.25, -0.1, 0.25), (math.pi / 3,) * 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(HexOptError):
            HexagonSpec((0.25, bad, 0.25), (math.pi / 3,) * 3)
        with pytest.raises(HexOptError):
            HexagonSpec(PAPER_D, (bad, math.pi / 3, math.pi / 3))


class TestHexAreaBound:
    def test_equilateral(self):
        s = HexagonSpec(PAPER_D, (math.pi / 3,) * 3)
        expect = (0.25 + 2 * H * H) * math.tan(math.pi / 6)
        assert hex_area_bound(s) == pytest.approx(expect, abs=1e-15)
        assert hex_area_bound(s) == pytest.approx(0.2027318, abs=1e-6)

    def test_optimal_angles_hit_closed_form(self):
        s = HexagonSpec(PAPER_D, (THETA, math.pi - 2 * THETA, THETA))
        assert hex_area_bound(s) == pytest.approx(HEX_MIN, abs=1e-12)

    def test_degenerate_middle_limit(self):
        eps = 1e-9
        s = HexagonSpec(PAPER_D, (math.pi / 2 - eps, 2 * eps,
                                  math.pi / 2 - eps))
        assert hex_area_bound(s) == pytest.approx(0.25, abs=1e-8)

    def test_symmetry_in_outer_pair(self):
        rng = random.Random(2)
        for _ in range(25):
            a = rand_angles(rng)
            d = (0.2, 0.3, 0.4)
            v1 = hex_area_bound(HexagonSpec(d, a))
            v2 = hex_area_bound(HexagonSpec((d[2], d[1], d[0]),
                                            (a[2], a[1], a[0])))
            assert v1 == pytest.approx(v2, abs=1e-14)

    def test_convex_in_each_angle(self):
        # positive second difference along alpha1 (alpha2 compensating)
        d = PAPER_D
        step = 1e-3
        for a1 in (0.5, 1.0, 1.8, 2.5):
            vals = [hex_area_bound(HexagonSpec(
                d, (a1 + k * step, math.pi - 0.3 - (a1 + k * step), 0.3)))
                for k in (-1, 0, 1)]
            assert vals[0] + vals[2] - 2 * vals[1] > 0


class TestMinimizeHex:
    def test_paper_distances(self):
        res = minimize_hex(PAPER_D)
        target = (THETA, math.pi - 2 * THETA, THETA)
        for a, t in zip(res.angles, target):
            assert a == pytest.approx(t, abs=1e-4)
        assert res.area == pytest.approx(HEX_MIN, abs=1e-8)
        assert res.area == pytest.approx(0.2008510, abs=1e-6)

    def test_paper_angles_exact(self):
        h = SurfaceParameters.paper().h
        res = minimize_hex((0.25, h, 0.25))
        theta = 2 * math.asin(2 * h)
        assert res.angles[0] == pytest.approx(theta, abs=1e-15)
        assert res.angles[2] == pytest.approx(theta, abs=1e-15)
        assert res.angles[1] == pytest.approx(math.pi - 2 * theta, abs=1e-15)

    def test_symmetric_distances_equilateral(self):
        res = minimize_hex((0.25, 0.25, 0.25))
        for a in res.angles:
            assert a == pytest.approx(math.pi / 3, abs=1e-4)

    def test_minimality_over_samples(self):
        res = minimize_hex(PAPER_D)
        rng = random.Random(4)
        for _ in range(50):
            a = rand_angles(rng)
            assert res.area <= hex_area_bound(HexagonSpec(PAPER_D, a)) + 1e-12
        # random distances: the KKT relation d_i^2 sec^2(alpha_i/2) = lambda
        # holds, and no sampled angle triple does better
        for _ in range(50):
            d = rand_distances(rng)
            res = minimize_hex(d)
            lam = [di * di / math.cos(ai / 2) ** 2
                   for di, ai in zip(d, res.angles)]
            assert max(lam) - min(lam) <= 1e-12 * max(lam)
            for _ in range(10):
                a = rand_angles(rng)
                assert res.area <= hex_area_bound(HexagonSpec(d, a)) + 1e-12

    def test_distances_required(self):
        d = inspect.signature(minimize_hex).parameters["d"]
        assert d.default is inspect.Parameter.empty
        with pytest.raises(TypeError):
            minimize_hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_distances(self, bad):
        with pytest.raises(HexOptError):
            minimize_hex((0.25, bad, 0.25))

    @pytest.mark.parametrize("d", [(1.0, 0.1, 0.1), (3.0, 4.0, 5.0),
                                   (0.1, 0.1, 1.0)])
    def test_no_interior_minimum(self, d):
        # d_k^2 >= d_i^2 + d_j^2: the infimum 4 d_i d_j needs alpha_k = 0
        with pytest.raises(HexOptError):
            minimize_hex(d)

    def test_near_boundary_below_infimum(self):
        res = minimize_hex((3.0, 4.0, 4.999))
        assert sum(res.angles) == pytest.approx(math.pi, abs=1e-12)
        assert 0 < res.angles[2] < 0.01
        assert res.area < 4 * 3.0 * 4.0


class TestTradeoff:
    def test_equilibrium_height(self):
        res = optimize_mobius_tradeoff()
        assert res.h_star == pytest.approx(H, abs=1e-8)
        assert res.h_star ** 2 == pytest.approx((8 - math.sqrt(19)) / 72,
                                                abs=1e-8)
        assert abs(res.residual) <= 1e-9
        assert res.area == pytest.approx(AREA_EXTREMAL, abs=1e-9)

    def test_exact_equilibrium(self):
        u = H_SQUARED
        q = 576 * u * u - 128 * u + 5
        assert q.a == q.b == 0
        # the other root (8 + sqrt 19)/72 has 3 - 24u < 0: not a slope zero
        other = (8 + SQRT19) / 72
        q = 576 * other * other - 128 * other + 5
        assert q.a == q.b == 0
        gap = other - Fraction(1, 8)  # (sqrt(19) - 1)/72
        assert gap.b > 0 and gap.b * gap.b * 19 > gap.a * gap.a
        res = optimize_mobius_tradeoff()
        assert res.h_star == math.sqrt(float(H_SQUARED))
        assert res.h_star == SurfaceParameters.paper().h

    def test_takes_no_arguments(self):
        assert not inspect.signature(optimize_mobius_tradeoff).parameters

    def test_interior_extremality(self):
        res = optimize_mobius_tradeoff()
        assert tradeoff_area(res.h_star) > tradeoff_area(res.h_star - 0.01)
        assert tradeoff_area(res.h_star) > tradeoff_area(res.h_star + 0.01)

    def test_boundary_degenerate(self):
        # the hexagon contribution x*sqrt(1-4x^2) collapses at x = 1/2
        assert 0.5 * math.sqrt(1 - 4 * 0.25) == 0.0
        assert tradeoff_area(0.25) == pytest.approx(
            0.5 + 0.75 * math.sqrt(0.75), abs=1e-15)


class TestCaseBounds:
    def test_values_and_margins(self):
        cb = case_bounds(H, AREA_EXTREMAL)
        assert set(cb) == {"case1", "case2", "case3", "case4"}
        assert cb["case1"].bound == pytest.approx(1.317744, abs=1e-2)
        assert cb["case1"].bound == pytest.approx(
            1 + 2 * math.pi * H * H, abs=1e-12)
        assert cb["case1"].margin == pytest.approx(0.164952, abs=1e-5)
        for k in ("case2", "case3", "case4"):
            assert cb[k].bound == pytest.approx(1 + math.pi * H * H, abs=1e-12)
            assert cb[k].bound == pytest.approx(1.158872, abs=2e-6)
        assert all(c.margin >= 0.006 for c in cb.values())

    def test_floor_helpers(self):
        assert cone_disk_area_floor(H) == pytest.approx(0.15887, abs=5e-6)


class TestCertificate:
    def test_json_serializable_and_complete(self):
        cert = hexopt_certificate(H, THETA, AREA_EXTREMAL)
        blob = json.loads(json.dumps(cert))
        assert set(blob) == {"hex_min", "tradeoff", "cases"}
        assert set(blob["hex_min"]) == {"angles", "area", "argmin_target",
                                        "closed_form"}
        assert abs(blob["tradeoff"]["stationarity_residual"]) <= 1e-9
        assert all(v["margin"] >= 0.006 for v in blob["cases"].values())
