"""Conformal capacity estimates for the two collar annuli.

The flat collar (two copies of the hexagonal annulus glued along the
soul) admits a distance-function test map giving a closed-form upper
bound for its capacity.  The hyperbolic collar of the constant-curvature
surface, described by its Fermi half-width profile, admits a
width-integral lower bound.  An independent piecewise-linear finite
element solver cross-checks both, and the separation certificate shows
the two capacities straddle 2.29, so the underlying conformal annuli are
not equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from .constants import SurfaceParameters
from . import surface as _surface
from .geodesic import sublevel_area


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


@dataclass
class CollarProfile:
    """Annulus in Fermi coordinates: soul length ell, upper half-width
    a(t) > 0 and lower half-width b(t) < 0."""

    ell: float
    a: Callable[[float], float]
    b: Callable[[float], float]
    period: float | None = None      # t-period of the widths, if any
    even_about: float | None = None  # widths even about multiples of this
    symmetric: bool = False          # b = -a

    def validate(self, samples: int = 40) -> None:
        for t in np.linspace(0.0, self.ell, samples):
            up, lo = self.a(float(t)), self.b(float(t))
            if not up > 0.0 > lo:
                raise CapacityError(
                    f"profile not a two-sided collar at t={t}: "
                    f"a={up}, b={lo}")


def hyperbolic_collar_profile(dps: int = 30) -> CollarProfile:
    """Half-width profile of the hyperbolic collar: twelve congruent
    quadrilateral pieces, so the width has period ell/6 and is even about
    every multiple of ell/12."""
    ell = collar_circumference()
    half_period = ell / 12.0

    def fold(t: float) -> float:
        x = math.fmod(t, 2.0 * half_period)
        if x < 0.0:
            x += 2.0 * half_period
        return 2.0 * half_period - x if x > half_period else x

    def a(t: float) -> float:
        return fermi_half_width(fold(t), ell)

    return CollarProfile(ell, a, lambda t: -a(t), period=2.0 * half_period,
                         even_about=half_period, symmetric=True)


def constant_profile(ell: float, w: float) -> CollarProfile:
    """Collar of constant half-width w (capacity ell/(H(w) - H(-w)))."""
    if w <= 0:
        raise CapacityError("width must be positive")
    return CollarProfile(ell, lambda t: w, lambda t: -w, period=None,
                         even_about=None, symmetric=True)


@dataclass
class CapacityEstimate:
    kind: str                    # upper_closed_form | upper_mesh |
    value: float                 # lower_muetzel | fem_rayleigh
    error_estimate: float
    meta: dict = field(default_factory=dict)


# -- width-integral lower bound -----------------------------------------


def _romberg(f, lo: float, hi: float, tol: float, max_level: int = 22) -> float:
    """Romberg extrapolation of the trapezoid rule to tolerance tol."""
    rows = [[(hi - lo) * (f(lo) + f(hi)) / 2.0]]
    for k in range(1, max_level):
        n = 2 ** k
        h = (hi - lo) / n
        mids = sum(f(lo + (2 * i + 1) * h) for i in range(n // 2))
        first = rows[-1][0] / 2.0 + h * mids
        row = [first]
        for m, prev in enumerate(rows[-1]):
            row.append(row[-1] + (row[-1] - prev) / (4 ** (m + 1) - 1))
        rows.append(row)
        if k > 3 and abs(row[-1] - rows[-2][-1]) < tol / 4.0:
            return row[-1]
    raise CapacityError("quadrature failed to converge")


def muetzel_bound(profile: CollarProfile, tol: float = 1e-8) -> CapacityEstimate:
    """Capacity lower bound: the integral of dt / (H(a(t)) - H(b(t))) over
    one soul period, with H the gudermann map.

    Cauchy-Schwarz applied fiberwise makes each width-(H(a)-H(b)) strip
    contribute at least the reciprocal gap, with equality exactly for
    t-independent widths.  Two independent quadrature routes (adaptive
    Gauss and Romberg) must agree.
    """
    if tol <= 0:
        raise CapacityError("tol must be positive")
    profile.validate()

    def integrand(t: float) -> float:
        return 1.0 / (gudermann(profile.a(t)) - gudermann(profile.b(t)))

    if profile.period and profile.even_about:
        lo, hi = 0.0, profile.even_about
        factor = profile.ell / profile.even_about
    else:
        lo, hi = 0.0, profile.ell
        factor = 1.0
    gauss, gauss_err = integrate.quad(integrand, lo, hi, epsabs=tol / factor,
                                      epsrel=0.0, limit=200)
    romberg = _romberg(integrand, lo, hi, tol / factor)
    disagreement = factor * abs(gauss - romberg)
    if disagreement > 2.0 * tol:
        raise CapacityError(
            f"quadrature routes disagree: {factor * gauss} vs "
            f"{factor * romberg}")
    return CapacityEstimate(
        "lower_muetzel", factor * gauss,
        error_estimate=factor * gauss_err + disagreement,
        meta={"tol": tol, "romberg": factor * romberg,
              "segments": factor if factor != 1.0 else None})


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
    if (sin < 1e-14).any():
        raise CapacityError("degenerate triangle in FEM mesh")
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
    for v, val in fixed.items():
        u[v] = val
    free = np.array(sorted(set(range(n)) - set(fixed)), dtype=int)
    if len(free):
        rhs = -(K @ u)[free]
        u[free] = spsolve(K[np.ix_(free, free)].tocsc(), rhs)
    return float(u @ (K @ u))


def fem_capacity(annulus, mesh_h: float = 0.02,
                 max_refine: int = 6) -> CapacityEstimate:
    """Capacity of a flat annulus by the piecewise-linear Rayleigh quotient.

    The mesh is refined 4-to-1 until no edge exceeds mesh_h; conforming
    elements make the discrete energy an upper bound that is nonincreasing
    under refinement.  Boundary values come from the two boundary labels in
    alphabetical order (first label 0, second label 1).
    """
    s = annulus
    if s.euler_characteristic != 0:
        raise CapacityError("input is not an annulus (Euler char != 0)")
    labels = s.marks.get("boundary_labels")
    if not labels:
        raise CapacityError("annulus boundary is not labeled")
    refines = 0
    while max(max(tri) for tri in s.faces) > mesh_h:
        if refines >= max_refine:
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
    tris = ((ci % n_t) * (n_s + 1) + cj).tolist()
    gluings, boundary = _surface.match_vertex_edges(tris)
    # a boundary slot runs along sigma = -/+ half, at grid row j = 0 or n_s
    labels = {(f, e): "bottom" if tris[f][e] % (n_s + 1) == 0 else "top"
              for f, e in boundary}
    return _surface.ConeSurface(lengths, gluings, name="fermi_chart",
                                marks={"boundary_labels": labels})


# -- separation certificate ---------------------------------------------

SEPARATION_LEVEL = 2.29


def separation_certificate(p: SurfaceParameters | None = None,
                           tol: float = 1e-3,
                           include_fem: bool = False,
                           lower: CapacityEstimate | None = None) -> dict:
    """Test flat-collar capacity < 2.29 < hyperbolic-collar capacity, each
    margin above tol; `separated` records the outcome.

    `lower` is the hyperbolic-collar width-integral bound when the caller
    has already computed it (at its own quadrature tolerance).
    """
    p = p or SurfaceParameters.paper()
    upper = flat_capacity_upper(p, mesh_check=False)
    if lower is None:
        lower = muetzel_bound(hyperbolic_collar_profile())
    margin_upper = SEPARATION_LEVEL - upper.closed_form.value
    margin_lower = lower.value - SEPARATION_LEVEL
    ok = margin_upper > tol and margin_lower > tol
    cert = {
        "upper": upper.closed_form.value,
        "lower": lower.value,
        "lower_error": lower.error_estimate,
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
