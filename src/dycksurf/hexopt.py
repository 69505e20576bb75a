"""Area optimization for the extremal flat surface.

Three certified computations, each in closed form:

* a lower bound for the area of a hexagonal Voronoi cell in terms of the
  three apex distances and apex angles, and its global minimum over
  feasible angle triples: the unique KKT point of a strictly convex
  function, located by a bracketed bisection in one variable;
* the one-dimensional tradeoff between the area spent on the Möbius band
  and the area of the three hexagonal cells, whose exact equilibrium
  h^2 = (8 - sqrt(19))/72 in Q(sqrt(19)) fixes the trapezoid height h;
* floor values for the total area under the alternative cell-graph
  shapes, each strictly above the extremal area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import H_SQUARED


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
        if not all(math.isfinite(x) for x in (*self.d, *self.alpha)):
            raise HexOptError("distances and angles must be finite")
        if any(di <= 0 for di in self.d):
            raise HexOptError("distances must be positive")
        if any(a <= 0 for a in self.alpha):
            raise HexOptError("angles must be positive")
        if abs(sum(self.alpha) - math.pi) > 1e-12:
            raise HexOptError("angles must sum to pi")


def hex_area_bound(spec: HexagonSpec) -> float:
    """Lower bound sum_i 2 d_i^2 tan(alpha_i / 2) for the hexagon area."""
    if any(a >= math.pi for a in spec.alpha):
        raise HexOptError("apex angles must be below pi")
    return sum(2 * di * di * math.tan(ai / 2)
               for di, ai in zip(spec.d, spec.alpha))


@dataclass
class HexMinimum:
    angles: tuple[float, float, float]
    area: float


def minimize_hex(d) -> HexMinimum:
    """Global minimum of hex_area_bound over angle triples summing to pi.

    f(alpha) = sum 2 d_i^2 tan(alpha_i / 2) is strictly convex on the
    simplex alpha_i > 0, sum alpha_i = pi, because tan(x/2) is strictly
    convex on (0, pi).  So a KKT point, d_i^2 sec^2(alpha_i / 2) = lambda
    for all i, is the unique global minimum.  With R = sqrt(lambda) it
    reads alpha_i = 2 arccos(d_i / R), and the constraint becomes

        g(R) = sum_i 2 arccos(d_i / R) = pi.

    g increases in R, so the root is unique.  Let d_k be the largest
    distance.  At R = 2 d_k / sqrt(3) every term is at least
    2 arccos(sqrt(3)/2) = pi/3, so g >= pi; at R = d_k the term of d_k
    vanishes, and g(d_k) < pi exactly when d_k^2 < d_i^2 + d_j^2.  The
    root then lies in [d_k, 2 d_k / sqrt(3)] and bisection finds it.
    Otherwise there is no interior minimum: the infimum 4 d_i d_j is
    approached as alpha_k -> 0, no HexagonSpec attains it, and
    HexOptError is raised.
    """
    d = tuple(float(x) for x in d)
    if len(d) != 3 or not all(math.isfinite(x) and x > 0 for x in d):
        raise HexOptError("need three finite positive distances")
    di, dj, dk = sorted(d)
    if dk * dk >= di * di + dj * dj:
        raise HexOptError(f"no interior minimum for d = {d}: the infimum "
                          f"4 d_i d_j = {4 * di * dj!r} needs alpha_k = 0")
    # the bracket's relative width is 2/sqrt(3) - 1 < 2^-2, so 64 halvings
    # reach the float resolution; the loop stops once the midpoint does
    lo, hi = dk, 2 * dk / math.sqrt(3)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if sum(2 * math.acos(x / mid) for x in d) < math.pi:
            lo = mid
        else:
            hi = mid
    a = [2 * math.acos(x / hi) for x in d]
    # the smallest distance has the largest, best-conditioned angle; taking
    # it from the constraint makes the triple sum to pi near the boundary
    i = d.index(di)
    a[i] = math.pi - a[i - 1] - a[i - 2]
    a = tuple(a)
    return HexMinimum(a, hex_area_bound(HexagonSpec(d, a)))


# -- Moebius band / hexagon tradeoff ------------------------------------


def tradeoff_area(x: float) -> float:
    """Total area 2(1/2 - x) + 3 x sqrt(1 - 4 x^2) as a function of the
    trapezoid height x in (0, 1/4)."""
    return 2 * (0.5 - x) + 3 * x * math.sqrt(1 - 4 * x * x)


@dataclass
class TradeoffResult:
    h_star: float
    area: float
    residual: float             # 576 u^2 - 128 u + 5 at u = h*^2


def optimize_mobius_tradeoff() -> TradeoffResult:
    """Equilibrium height of the total-area tradeoff on (0, 1/4).

    The slope -2 + (3 - 24 u) / sqrt(1 - 4 u), u = x^2, vanishes exactly
    when 3 - 24 u > 0 and (3 - 24 u)^2 = 4 (1 - 4 u), that is
    576 u^2 - 128 u + 5 = 0.  Its roots are (8 -/+ sqrt(19))/72; the
    larger one exceeds 1/8, where 3 - 24 u < 0, so the unique equilibrium
    is u = H_SQUARED = (8 - sqrt(19))/72 in Q(sqrt(19)).  The returned
    residual of the quadratic at the float h*^2 records how closely the
    float height satisfies it.
    """
    h = math.sqrt(float(H_SQUARED))
    u = h * h
    return TradeoffResult(h, tradeoff_area(h), 576 * u * u - 128 * u + 5)


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
            "argmin_target": [theta, math.pi - 2 * theta, theta],
            "closed_form": h * math.sqrt(1 - 4 * h * h),
        },
        "tradeoff": {
            "h_star": tr.h_star,
            "area": tr.area,
            "stationarity_residual": tr.residual,
        },
        "cases": {k: {"bound": c.bound, "margin": c.margin}
                  for k, c in cases.items()},
    }
