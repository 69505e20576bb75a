"""Conformal capacity estimates for the two collar annuli.

The flat collar (two copies of the hexagonal annulus glued along the
soul) admits a distance-function test map giving a closed-form upper
bound for its capacity.  The hyperbolic collar of the constant-curvature
surface, described by its Fermi half-width profile, admits a width-integral
lower bound: Romberg evaluates it inside the lower and upper sums of its
monotone integrand.  An independent piecewise-linear finite element solver
cross-checks both, and the separation certificate shows the two capacities
straddle 2.29, so the underlying conformal annuli are not equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from .constants import SurfaceParameters
from . import surface as _surface
from .geodesic import sublevel_area


# most 4-to-1 refinements fem_capacity makes; each quadruples the faces
MAX_REFINE = 6


class CapacityError(ValueError):
    pass


def gudermann(s: float) -> float:
    """Angle change of variable 2*arctan(e^s); maps R onto (0, pi)."""
    return 2.0 * math.atan(math.exp(s))


def collar_circumference() -> float:
    """Soul length of the hyperbolic collar, 2*arccosh((5 + sqrt 17)/2)."""
    return 2.0 * math.acosh((5.0 + math.sqrt(17.0)) / 2.0)


def fermi_half_width(t: float, ell: float) -> float:
    """Half-width arctanh(cosh(t)*tanh(ell/4)) of the collar at offset t
    along its soul."""
    arg = math.cosh(t) * math.tanh(ell / 4.0)
    if arg >= 1.0:
        raise CapacityError(
            f"offset t={t} outside the collar range: cosh(t)*tanh(ell/4)"
            f" = {arg} >= 1")
    return math.atanh(arg)


def _mirror(t: float, piece: float) -> float:
    """Reflect t about the multiples of piece into [0, piece]."""
    x = t % (2.0 * piece)
    return min(x, 2.0 * piece - x)


@dataclass
class CollarProfile:
    """Annulus in Fermi coordinates: soul length ell, upper half-width
    a(t) > 0 and lower half-width b(t) < 0.  The widths are even about
    every multiple of `piece` (None: the whole soul), and on [0, piece]
    a and -b are monotone in the same sense."""

    ell: float
    a: Callable[[float], float]
    b: Callable[[float], float]
    piece: float | None = None

    def validate(self) -> None:
        piece = self.ell if self.piece is None else self.piece
        if not 0.0 < piece <= self.ell < math.inf:
            raise CapacityError(f"need 0 < piece <= ell < inf, got "
                                f"piece={self.piece}, ell={self.ell}")
        for t in np.linspace(0.0, self.ell, 40).tolist():
            up, lo, x = self.a(t), self.b(t), _mirror(t, piece)
            if not (up > 0.0 > lo and math.isclose(up, self.a(x), rel_tol=1e-12)
                    and math.isclose(lo, self.b(x), rel_tol=1e-12)):
                raise CapacityError(
                    f"profile at t={t} is not a two-sided collar even about "
                    f"the multiples of piece: a={up}, b={lo}")
        ts = np.linspace(0.0, piece, 40).tolist()
        steps = np.diff([[self.a(t) for t in ts], [-self.b(t) for t in ts]])
        if not ((steps >= 0.0).all() or (steps <= 0.0).all()):
            raise CapacityError(
                "a and -b are not monotone in the same sense on [0, piece]")


def hyperbolic_collar_profile() -> CollarProfile:
    """Half-width profile of the hyperbolic collar: twelve congruent
    quadrilateral pieces, so the width is even about every multiple of
    ell/12, and it rises with cosh(t) on [0, ell/12]."""
    ell = collar_circumference()

    def a(t: float) -> float:
        return fermi_half_width(_mirror(t, ell / 12.0), ell)

    return CollarProfile(ell, a, lambda t: -a(t), piece=ell / 12.0)


def constant_profile(ell: float, w: float) -> CollarProfile:
    """Collar of constant half-width w (capacity ell/(H(w) - H(-w)))."""
    if w <= 0:
        raise CapacityError("width must be positive")
    return CollarProfile(ell, lambda t: w, lambda t: -w)


@dataclass
class CapacityEstimate:
    kind: str                    # upper_closed_form | upper_mesh |
    value: float                 # lower_muetzel | fem_rayleigh
    error_estimate: float
    meta: dict = field(default_factory=dict)


# -- width-integral lower bound -----------------------------------------


def _romberg(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Romberg extrapolation of the trapezoid rule to tolerance tol; returns
    the value and the change of its last extrapolation."""
    rows = [[(hi - lo) * (f(lo) + f(hi)) / 2.0]]
    for k in range(1, 22):
        h = (hi - lo) / 2 ** k
        mids = sum(f(lo + (2 * i + 1) * h) for i in range(2 ** (k - 1)))
        row = [rows[-1][0] / 2.0 + h * mids]
        for m, prev in enumerate(rows[-1]):
            row.append(row[-1] + (row[-1] - prev) / (4 ** (m + 1) - 1))
        rows.append(row)
        change = abs(row[-1] - rows[-2][-1])
        if k > 3 and change < tol / 4.0:
            return row[-1], change
    raise CapacityError("quadrature failed to converge")


def muetzel_bound(profile: CollarProfile, tol: float = 1e-8) -> CapacityEstimate:
    """Capacity lower bound: the integral of dt / (H(a(t)) - H(b(t))) over
    the soul, with H the gudermann map.

    Cauchy-Schwarz applied fiberwise makes each width-(H(a)-H(b)) strip
    contribute at least the reciprocal gap, with equality exactly for
    t-independent widths.  The soul is ell/piece mirror copies of
    [0, piece], so Romberg integrates that piece alone.  There the gap is
    monotone, so the integrand is too, and its lower and upper sums on
    1024 cells enclose the integral: `meta["bracket"]`.  A Romberg value
    outside that bracket raises CapacityError.
    """
    if not 0 < tol < math.inf:
        raise CapacityError("tol must be finite and positive")
    profile.validate()
    piece = profile.piece or profile.ell
    factor = profile.ell / piece

    def integrand(t: float) -> float:
        return 1.0 / (gudermann(profile.a(t)) - gudermann(profile.b(t)))

    value, change = _romberg(integrand, 0.0, piece, tol / factor)
    value *= factor
    # on each cell the monotone integrand lies between its endpoint values;
    # the sums are widened by 1e-12, relative, for the rounding of the
    # integrand and of the sums
    h = piece / 1024
    ys = [integrand(h * i) for i in range(1025)]
    cells = list(zip(ys, ys[1:]))
    lo = factor * h * math.fsum(map(min, cells)) * (1.0 - 1e-12)
    hi = factor * h * math.fsum(map(max, cells)) * (1.0 + 1e-12)
    if not lo <= value <= hi:
        raise CapacityError(
            f"Romberg value {value} outside the monotone bracket "
            f"[{lo}, {hi}]")
    return CapacityEstimate("lower_muetzel", value,
                            error_estimate=factor * change,
                            meta={"tol": tol, "bracket": [lo, hi]})


# -- flat-collar upper bound --------------------------------------------


def singular_corner_correction(h: float, theta: float) -> float:
    """Area missing from the radius-h neighborhood of the soul at one
    reflex corner of the flat collar: [tan(theta/2) - theta/2] h^2."""
    return (math.tan(theta / 2.0) - theta / 2.0) * h * h


@dataclass
class FlatCapacityUpper:
    closed_form: CapacityEstimate
    mesh: CapacityEstimate | None
    consistent: bool


def flat_capacity_upper(p: SurfaceParameters | None = None,
                        mesh_check: bool = True,
                        mesh_h: float = 0.01,
                        mesh_tol: float = 1e-3) -> FlatCapacityUpper:
    """Upper bound for the flat collar capacity.

    The test map climbs at unit rate with the distance from the soul and
    is clamped at half the systole, so its energy is the area of the
    half-systole neighborhood of the soul: twice the surface area minus
    twelve singular-corner corrections.  A distance-field mesh estimate of
    that neighborhood area cross-checks the closed form.
    """
    p = p or SurfaceParameters.paper()
    area = 2.0 * p.delta + 3.0 * p.h * math.sqrt(1.0 - 4.0 * p.h * p.h)
    closed = 2.0 * area - 12.0 * singular_corner_correction(p.h, p.theta)
    closed_est = CapacityEstimate("upper_closed_form", closed, 0.0,
                                  meta={"area": area})
    if not mesh_check:
        return FlatCapacityUpper(closed_est, None, True)
    collar = _surface.build_collar_flat(p)
    soul = [tuple(sl) for sl in collar.marks["soul"]]
    sub = sublevel_area(collar, soul, 0.5, mesh_h=mesh_h)
    mesh_est = CapacityEstimate("upper_mesh", sub.area,
                                error_estimate=sub.error_estimate,
                                meta={"mesh_h": mesh_h, "r": 0.5})
    consistent = abs(sub.area - closed) <= mesh_tol
    return FlatCapacityUpper(closed_est, mesh_est, consistent)


# -- finite element solver ----------------------------------------------


def _fem_energy(s: "_surface.ConeSurface", fixed: dict[int, float]) -> float:
    """Dirichlet energy of the piecewise-linear harmonic function on s with
    the given vertex values prescribed; cotangent weights from the corner
    cosines."""
    cos = s.corner_cos
    sin = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
    w = 0.5 * cos / sin
    # corner c couples the other two corners a, b of its face; the entries
    # keep the order faces, corners, [a, b, a, b]
    a, b = s.vertex_ids[:, [1, 2, 0]], s.vertex_ids[:, [2, 0, 1]]
    rows = np.stack([a, b, a, b], axis=-1).ravel()
    cols = np.stack([a, b, b, a], axis=-1).ravel()
    vals = np.stack([w, w, -w, -w], axis=-1).ravel()
    n = s.n_vertices
    K = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    u = np.zeros(n)
    held = np.fromiter(fixed, dtype=np.intp, count=len(fixed))
    u[held] = np.fromiter(fixed.values(), dtype=float, count=len(fixed))
    is_free = np.ones(n, dtype=bool)
    is_free[held] = False
    free = np.flatnonzero(is_free)
    if len(free):
        rhs = -(K @ u)[free]
        u[free] = spsolve(K[np.ix_(free, free)].tocsc(), rhs)
    return float(u @ (K @ u))


def fem_capacity(annulus, mesh_h: float = 0.02) -> CapacityEstimate:
    """Capacity of a flat annulus by the piecewise-linear Rayleigh quotient.

    The mesh is refined 4-to-1, on whole arrays, until no edge exceeds
    mesh_h, at most MAX_REFINE times (mesh_h = inf: never).  Conforming
    elements make the discrete energy an upper bound that is nonincreasing
    under refinement.  Boundary values come from the two boundary labels
    in alphabetical order (first label 0, second label 1).
    """
    if not mesh_h > 0:
        raise CapacityError("mesh_h must be positive")
    s = annulus
    if s.euler_characteristic != 0:
        raise CapacityError("input is not an annulus (Euler char != 0)")
    labels = s.marks.get("boundary_labels")
    if not labels:
        raise CapacityError("annulus boundary is not labeled")
    refines = 0
    while s.lengths.max() > mesh_h:
        if refines >= MAX_REFINE:
            raise CapacityError("refinement limit reached before mesh_h")
        s = _surface.subdivide(s)
        refines += 1
    labels = s.marks["boundary_labels"]
    names = sorted(set(labels.values()))
    if len(names) != 2:
        raise CapacityError(f"need exactly 2 boundary labels, got {names}")
    values = {names[0]: 0.0, names[1]: 1.0}
    if set(s.boundary_slots) - set(labels):
        raise CapacityError("unlabeled boundary edges present")
    fixed: dict[int, float] = {}
    for (f, e), lbl in labels.items():
        for c in (e, (e + 1) % 3):
            fixed[s.vertex_of((f, c))] = values[lbl]
    energy = _fem_energy(s, fixed)
    return CapacityEstimate("fem_rayleigh", energy, math.nan,
                            meta={"mesh_h": mesh_h, "refines": refines,
                                  "n_vertices": s.n_vertices})


def collar_fem_pair(p: SurfaceParameters | None = None, mesh_h: float = 0.06
                    ) -> tuple[CapacityEstimate, CapacityEstimate]:
    """FEM capacities of the flat collar, refined to mesh_h, and of the
    hyperbolic collar's Fermi chart on its own grid (never refined)."""
    p = p or SurfaceParameters.paper()
    flat = fem_capacity(_surface.build_collar_flat(p), mesh_h=mesh_h)
    chart = fermi_chart_annulus(hyperbolic_collar_profile())
    return flat, fem_capacity(chart, mesh_h=math.inf)


def fermi_chart_annulus(profile: CollarProfile, n_t: int = 96,
                        n_s: int = 24) -> "_surface.ConeSurface":
    """Flat annulus conformally equivalent to the collar profile.

    In coordinates (t, sigma) with sigma = H(s) - pi/2 the collar metric
    cosh(s)^2 dt^2 + ds^2 becomes a conformal factor times dt^2 + dsigma^2,
    and 2-D Dirichlet energy ignores the factor.  The chart is the
    t-periodic strip |sigma| < H(a(t)) - pi/2, meshed on a structured grid.
    """
    if n_t < 3 or n_s < 2:
        raise CapacityError("grid too coarse")
    profile.validate()
    ell = profile.ell
    ts = [ell * i / n_t for i in range(n_t + 1)]
    half = [gudermann(profile.a(t)) - math.pi / 2.0 for t in ts]
    if min(half) <= 0:
        raise CapacityError("profile too narrow for the angular chart")

    # grid point (i, j) sits at (t_i, half_i (2 j / n_s - 1)); each grid
    # square (i, j) is split into the triangles below, by corner offsets
    sigma = np.array(half)[:, None] * (2.0 * np.arange(n_s + 1) / n_s - 1.0)
    grid = np.stack(np.broadcast_arrays(np.array(ts)[:, None], sigma), axis=-1)
    offsets = np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]])
    i, j = np.meshgrid(np.arange(n_t), np.arange(n_s), indexing="ij")
    ci = (i[..., None, None] + offsets[..., 0]).reshape(-1, 3)
    cj = (j[..., None, None] + offsets[..., 1]).reshape(-1, 3)
    # vertex ids wrap in t, so lengths come from the grid coordinates
    lengths = _surface.side_lengths(grid[ci, cj])
    tris = (ci % n_t) * (n_s + 1) + cj
    gluings, boundary = _surface.match_vertex_edges(tris)
    # a boundary slot runs along sigma = -/+ half, at grid row j = 0 or n_s
    bottom = tris[boundary[:, 0], boundary[:, 1]] % (n_s + 1) == 0
    labels = {(f, e): "bottom" if low else "top"
              for (f, e), low in zip(boundary.tolist(), bottom.tolist())}
    return _surface.ConeSurface(lengths, gluings, name="fermi_chart",
                                marks={"boundary_labels": labels})


# -- separation certificate ---------------------------------------------

SEPARATION_LEVEL = 2.29


def separation_certificate(p: SurfaceParameters | None = None,
                           tol: float = 1e-3,
                           include_fem: bool = False,
                           lower: CapacityEstimate | None = None) -> dict:
    """Test flat-collar capacity < 2.29 < hyperbolic-collar capacity, each
    margin above tol, the lower one at the bottom of the width integral's
    monotone bracket; `separated` records the outcome.

    `lower` is the hyperbolic-collar width-integral bound when the caller
    has already computed it (at its own quadrature tolerance).
    """
    p = p or SurfaceParameters.paper()
    upper = flat_capacity_upper(p, mesh_check=False)
    if lower is None:
        lower = muetzel_bound(hyperbolic_collar_profile())
    margin_upper = SEPARATION_LEVEL - upper.closed_form.value
    margin_lower = lower.value - SEPARATION_LEVEL
    bracket = lower.meta["bracket"]
    ok = margin_upper > tol and bracket[0] - SEPARATION_LEVEL > tol
    cert = {
        "upper": upper.closed_form.value,
        "lower": lower.value,
        "lower_error": lower.error_estimate,
        "lower_bracket": bracket,
        "level": SEPARATION_LEVEL,
        "margin_upper": margin_upper,
        "margin_lower": margin_lower,
        "tol": tol,
        "separated": ok,
    }
    if include_fem:
        flat, hyp = collar_fem_pair(p)
        cert["fem_flat"] = flat.value
        cert["fem_hyperbolic"] = hyp.value
    return cert
