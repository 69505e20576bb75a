"""Area optimization for the extremal flat surface.

Three certified computations:

* a lower bound for the area of a hexagonal Voronoi cell in terms of the
  three apex distances and apex angles, and its global minimization over
  feasible angle triples;
* the one-dimensional tradeoff between the area spent on the Möbius band
  and the area of the three hexagonal cells, whose minimizer fixes the
  trapezoid height h;
* floor values for the total area under the alternative cell-graph
  shapes, each strictly above the extremal area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

DEGENERATE_ANGLE = 1e-6


class HexOptError(ValueError):
    pass


@dataclass(frozen=True)
class HexagonSpec:
    """Hexagon with alternating apex distances d and apex angles alpha.

    The cell is a hexagon whose three 'long' sides face a center at
    distances d1, d2, d3, subtending apex angles alpha1..3 with
    alpha1 + alpha2 + alpha3 = pi.
    """

    d: tuple[float, float, float]
    alpha: tuple[float, float, float]

    def __post_init__(self):
        if len(self.d) != 3 or len(self.alpha) != 3:
            raise HexOptError("need three distances and three angles")
        if any(di <= 0 for di in self.d):
            raise HexOptError("distances must be positive")
        if any(a <= 0 for a in self.alpha):
            raise HexOptError("angles must be positive")
        if abs(sum(self.alpha) - math.pi) > 1e-12:
            raise HexOptError("angles must sum to pi")

    @property
    def degenerate(self) -> bool:
        return any(a <= DEGENERATE_ANGLE for a in self.alpha)


def hex_area_bound(spec: HexagonSpec) -> float:
    """Lower bound sum_i 2 d_i^2 tan(alpha_i / 2) for the hexagon area."""
    if any(a >= math.pi for a in spec.alpha):
        raise HexOptError("apex angles must be below pi")
    return sum(2 * di * di * math.tan(ai / 2)
               for di, ai in zip(spec.d, spec.alpha))


def _bound_grid(d, a1, a2):
    """Vectorized bound on arrays of (alpha1, alpha2); alpha3 = pi-a1-a2."""
    a3 = math.pi - a1 - a2
    return (2 * d[0] ** 2 * np.tan(a1 / 2)
            + 2 * d[1] ** 2 * np.tan(a2 / 2)
            + 2 * d[2] ** 2 * np.tan(a3 / 2))


@dataclass
class HexMinimum:
    angles: tuple[float, float, float]
    area: float
    grid_area: float            # raw minimum of the dense-grid oracle
    grid: float
    convexity_ok: bool          # tan(x/2) second differences positive
    symmetric_reduction_ok: bool  # averaging alpha1, alpha3 never increases


def _check_convexity(samples: int = 2000) -> bool:
    x = np.linspace(0.01, math.pi - 0.01, samples)
    f = np.tan(x / 2)
    return bool((f[:-2] + f[2:] - 2 * f[1:-1] > 0).all())


def _grid_min(d, lo1, hi1, lo2, hi2, step):
    a1 = np.arange(lo1, hi1, step)
    a2 = np.arange(lo2, hi2, step)
    A1, A2 = np.meshgrid(a1, a2, indexing="ij")
    ok = math.pi - A1 - A2 > DEGENERATE_ANGLE
    vals = np.where(ok, _bound_grid(d, A1, A2), np.inf)
    i = int(np.argmin(vals))  # first occurrence = lexicographic tie-break
    i1, i2 = np.unravel_index(i, vals.shape)
    return float(A1[i1, i2]), float(A2[i1, i2]), float(vals[i1, i2])


def minimize_hex(d=(0.25, None, 0.25), grid: float = 1e-3) -> HexMinimum:
    """Global minimum of hex_area_bound over angle triples summing to pi.

    Dense 2-D grid scan (the independent oracle), local grid refinement,
    then a smooth polish.  When d1 == d3 the convexity of tan(x/2) makes
    symmetric triples alpha1 = alpha3 dominant; that reduction is verified
    on sampled asymmetric triples rather than assumed.
    """
    if grid < 1e-4:
        raise HexOptError("grid resolution below 1e-4 is not supported")
    d = tuple(float(x) for x in d)
    if any(x <= 0 for x in d):
        raise HexOptError("distances must be positive")
    convexity_ok = _check_convexity()

    b1, b2, coarse = _grid_min(d, grid, math.pi - grid, grid,
                               math.pi - grid, grid)
    lo1, hi1 = max(b1 - 2 * grid, DEGENERATE_ANGLE), b1 + 2 * grid
    lo2, hi2 = max(b2 - 2 * grid, DEGENERATE_ANGLE), b2 + 2 * grid
    r1, r2, grid_area = _grid_min(d, lo1, hi1, lo2, hi2, 1e-5)

    def f(x):
        a1, a2 = x
        a3 = math.pi - a1 - a2
        if min(a1, a2, a3) <= DEGENERATE_ANGLE:
            return math.inf
        return float(_bound_grid(d, a1, a2))

    res = optimize.minimize(f, [r1, r2], method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-14})
    a1, a2 = (float(v) for v in res.x)
    a3 = math.pi - a1 - a2
    area = float(res.fun)
    if area > grid_area + 1e-12:
        a1, a2, a3, area = r1, r2, math.pi - r1 - r2, grid_area

    sym_ok = True
    if abs(d[0] - d[2]) < 1e-15:
        rng = np.random.default_rng(3)
        for _ in range(200):
            w = rng.dirichlet((1.0, 1.0, 1.0)) * math.pi
            if min(w) <= 2 * DEGENERATE_ANGLE:
                continue
            m = (w[0] + w[2]) / 2
            asym = hex_area_bound(HexagonSpec(d, tuple(w)))
            symm = hex_area_bound(HexagonSpec(d, (m, w[1], m)))
            if symm > asym + 1e-12:
                sym_ok = False
    return HexMinimum((a1, a2, a3), area, grid_area, grid,
                      convexity_ok, sym_ok)


# -- Moebius band / hexagon tradeoff ------------------------------------


def tradeoff_area(x: float) -> float:
    """Total area 2(1/2 - x) + 3 x sqrt(1 - 4 x^2) as a function of the
    trapezoid height x in (0, 1/4)."""
    return 2 * (0.5 - x) + 3 * x * math.sqrt(1 - 4 * x * x)


def _tradeoff_slope(x: float) -> float:
    return -2 + (3 - 24 * x * x) / math.sqrt(1 - 4 * x * x)


@dataclass
class TradeoffResult:
    h_star: float
    area: float
    residual: float             # 576 u^2 - 128 u + 5 at u = h*^2
    golden_h: float             # bracketing-search estimate
    slope_root_h: float         # root of the derivative
    boundary_degenerate: bool   # x = 1/4 collapses the hexagons


def optimize_mobius_tradeoff(lo: float = 1e-6,
                             hi: float = 0.25 - 1e-9) -> TradeoffResult:
    """Equilibrium height of the total-area tradeoff on (0, 1/4).

    The tradeoff has a unique interior critical point: the height at which
    giving area to the collar and giving area to the hexagonal cells
    balance.  Two independent routes must agree: a derivative-free
    bracketing search for the interior extremum and a bisection root of
    the closed-form slope.  The returned residual of 576 u^2 - 128 u + 5
    at u = h*^2 certifies stationarity exactly.
    """
    gold = optimize.minimize_scalar(lambda x: -tradeoff_area(x),
                                    bounds=(lo, hi), method="bounded",
                                    options={"xatol": 1e-12})
    root = float(optimize.brentq(_tradeoff_slope, 0.1, 0.24, xtol=1e-15))
    if abs(gold.x - root) > 1e-6:
        raise HexOptError(
            f"optimizer routes disagree: {gold.x} vs {root}")
    u = root * root
    residual = 576 * u * u - 128 * u + 5
    return TradeoffResult(root, tradeoff_area(root), residual,
                          float(gold.x), root, boundary_degenerate=True)


# -- floors for the alternative cell decompositions ---------------------


def cone_disk_area_floor(h: float) -> float:
    """Area of an embedded disk of radius h about a cone point of angle
    at least pi more than 2 pi: at least pi h^2."""
    return math.pi * h * h


@dataclass
class CaseBound:
    bound: float
    margin: float


def case_bounds(h: float, area_extremal: float) -> dict[str, CaseBound]:
    """Area floors for the four alternative cell-graph shapes.

    A graph with a separating cell ('case1') forces two extra height-h
    collars on top of the Möbius band: 2(1/2 - h) + 2h + 2 pi h^2.  The
    remaining shapes ('case2'..'case4') each force at least one embedded
    cone disk: 1 + pi h^2.  Every floor must exceed the extremal area.
    """
    floors = {
        "case1": 1.0 + 2 * cone_disk_area_floor(h),
        "case2": 1.0 + cone_disk_area_floor(h),
        "case3": 1.0 + cone_disk_area_floor(h),
        "case4": 1.0 + cone_disk_area_floor(h),
    }
    return {k: CaseBound(v, v - area_extremal) for k, v in floors.items()}


def hexopt_certificate(h: float, theta: float,
                       area_extremal: float) -> dict:
    """Machine-readable record of the three optimization certificates."""
    hx = minimize_hex((0.25, h, 0.25))
    tr = optimize_mobius_tradeoff()
    cases = case_bounds(h, area_extremal)
    return {
        "hex_min": {
            "angles": list(hx.angles),
            "area": hx.area,
            "grid_area": hx.grid_area,
            "argmin_target": [theta, math.pi - 2 * theta, theta],
            "closed_form": h * math.sqrt(1 - 4 * h * h),
            "convexity_ok": hx.convexity_ok,
            "symmetric_reduction_ok": hx.symmetric_reduction_ok,
        },
        "tradeoff": {
            "h_star": tr.h_star,
            "area": tr.area,
            "stationarity_residual": tr.residual,
        },
        "cases": {k: {"bound": c.bound, "margin": c.margin}
                  for k, c in cases.items()},
    }
