"""Conformal capacity estimates for the two collar annuli.

The flat collar (two copies of the hexagonal annulus glued along the
soul) admits a distance-function test map giving a closed-form upper
bound for its capacity.  The hyperbolic collar of the constant-curvature
surface, described by its Fermi half-width profile, admits a width-integral
lower bound: Romberg evaluates it inside the lower and upper sums of its
monotone integrand.  An independent piecewise-linear finite element solver
cross-checks both.  It refines its validated input as index arrays (corner
cosines, gluing records, boundary slots and vertex ids), with no surface
built per level, and solves its stiffness system by conjugate gradients
preconditioned with a multigrid V-cycle on that refinement hierarchy;
since the boundary values are imposed exactly every iterate is
admissible, so its energy stays a Rayleigh upper bound whatever the
residual.  The separation certificate shows the two capacities straddle
2.29, so the underlying conformal annuli are not equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from .constants import SurfaceParameters
from . import surface as _surface
from .geodesic import sublevel_area


# most 4-to-1 refinements fem_capacity makes; each quadruples the faces
MAX_REFINE = 6
# most conjugate-gradient steps of one FEM solve (the 42 624-unknown collar
# at mesh_h 0.015 takes 14), and the relative residual at which it stops
CG_MAX_STEPS = 10_000
CG_RTOL = 1e-12
# multigrid coarsening stops at a level of at most this many unknowns, which
# dense Cholesky solves
MAX_DIRECT = 512


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
        if k > 3 and change <= tol / 4.0:
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


class _Level(NamedTuple):
    """One level of the FEM mesh as index arrays: the corner cosines
    (F, 3), the gluing records (G, 5), the boundary slots (B, 2), the
    vertex id of each corner (F, 3) and the vertex count."""

    cos: np.ndarray
    glue: np.ndarray
    bslots: np.ndarray
    vids: np.ndarray
    n: int


def _level_of(s: "_surface.ConeSurface") -> _Level:
    """The arrays of a validated surface, boundary slots in face order."""
    bslots = np.array(s.boundary_slots, dtype=np.intp).reshape(-1, 2)
    return _Level(s.corner_cos, s.glue_records, bslots, s.vertex_ids, s.n_vertices)


def _edge_ends(lv: _Level) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Face and slot (E,) of each edge, one per gluing record (its first
    slot) and then one per boundary slot, and its end vertices (E, 2)."""
    f, e = np.concatenate([lv.glue[:, :2], lv.bslots]).T
    return f, e, np.column_stack([lv.vids[f, e], lv.vids[f, (e + 1) % 3]])


def _refined(lv: _Level) -> tuple[_Level, tuple[np.ndarray, np.ndarray]]:
    """The 4-to-1 subdivision of lv, its faces and records numbered as
    surface.subdivide numbers them and its boundary slots the two halves of
    each coarse one in turn, and its multigrid link: the coarse parents
    (n_fine, 2) of each fine vertex and the corner child (n,) of each
    coarse vertex.

    The fine vertices are the coarse ones, 0..n-1, then one midpoint per
    coarse edge: n + i for gluing record i and n + G + j for boundary slot
    j.  Child 4f + c has the coarse vertex at corner c and the midpoints of
    slots c and c + 2 at corners c + 1 and c + 2; the middle child has the
    midpoint of slot k at corner k.  A coarse vertex is its own corner
    child with parents (v, v); a midpoint's parents are its edge's ends.

    Halving the sides scales every term of the law of cosines by a power
    of two, so the children's cosines are the parent's, permuted for the
    middle child, to the bit.  For the same reason each check
    ConeSurface._validate makes on a child follows from the same check on
    its parent: the triangle inequality and the corner cosines carry over
    exactly, glued halves differ by half the parent's difference, and the
    child records glue each child slot once by construction.
    """
    F, G, B, n = len(lv.cos), len(lv.glue), len(lv.bslots), lv.n
    cos, glue = _surface.subdivide_arrays(lv.cos, lv.glue)
    g = lv.glue
    mid = np.empty((F, 3), dtype=np.intp)
    mid[g[:, 0], g[:, 1]] = mid[g[:, 2], g[:, 3]] = n + np.arange(G)
    mid[lv.bslots[:, 0], lv.bslots[:, 1]] = n + G + np.arange(B)
    c = np.arange(3)
    vids = np.empty((F, 4, 3), dtype=np.intp)
    vids[:, c, c] = lv.vids
    vids[:, c, (c + 1) % 3] = mid
    vids[:, c, (c + 2) % 3] = mid[:, (c + 2) % 3]
    vids[:, 3] = mid
    coarse = np.arange(n)
    parents = np.concatenate([np.column_stack([coarse, coarse]), _edge_ends(lv)[2]])
    fine = _Level(cos, glue, _surface.half_slots(lv.bslots), vids.reshape(-1, 3),
                  n + G + B)
    return fine, (parents, coarse)


def _edge_weights(lv: _Level) -> tuple[np.ndarray, np.ndarray]:
    """Ends (E, 2) and cotangent weights (E,) of the edges of lv, in the
    order of _edge_ends, each weighted by the sum of 1/2 cot of the corners
    opposite it (corner e + 2 of slot e).  An edge from a vertex to itself
    carries no energy and is left out."""
    cos = lv.cos
    half_cot = 0.5 * cos / np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
    f, e, ends = _edge_ends(lv)
    w = half_cot[f, (e + 2) % 3]
    g = lv.glue
    w[:len(g)] += half_cot[g[:, 2], (g[:, 3] + 2) % 3]
    keep = ends[:, 0] != ends[:, 1]
    return ends[keep], w[keep]


def _free_system(ends: np.ndarray, w: np.ndarray, is_free: np.ndarray,
                 u: np.ndarray):
    """Free-block stiffness CSR and right-hand side of the Dirichlet
    problem with the held values u[~is_free], from the edge weights: each
    edge, in each direction a -> b with a free, adds w to the diagonal at a,
    and -w at (a, b) when b is free, else w u[b] to the right-hand side."""
    index = np.cumsum(is_free) - 1
    n = int(index[-1]) + 1
    a, b = np.concatenate([ends, ends[:, ::-1]]).T
    w = np.concatenate([w, w])
    out = is_free[a]
    a, b, w = index[a[out]], b[out], w[out]
    inner = is_free[b]
    diag = np.arange(n)
    A = csr_matrix((np.append(-w[inner], np.bincount(a, w, n)),
                    (np.append(a[inner], diag),
                     np.append(index[b[inner]], diag))), shape=(n, n))
    return A, np.bincount(a[~inner], w[~inner] * u[b[~inner]], n)


def _prolongation(parents: np.ndarray, fine_free: np.ndarray,
                  coarse_free: np.ndarray):
    """CSR prolongation from the free coarse to the free fine unknowns:
    each fine vertex takes the mean of its two coarse parents, a held parent
    contributing zero."""
    index = np.cumsum(coarse_free) - 1
    p = parents[fine_free]
    keep = coarse_free[p]
    rows = np.broadcast_to(np.arange(len(p))[:, None], p.shape)[keep]
    return csr_matrix((np.full(len(rows), 0.5), (rows, index[p[keep]])),
                      shape=(len(p), int(index[-1]) + 1))


def _l1_inverse(A) -> np.ndarray:
    """Reciprocal row sums of |A|: the l1-Jacobi smoother's diagonal."""
    return 1.0 / (abs(A) @ np.ones(A.shape[0]))


class _VCycle:
    """One symmetric multigrid V(2, 2)-cycle from zero, as a preconditioner
    for the free block A (W. L. Briggs, V. E. Henson and S. F. McCormick,
    A Multigrid Tutorial, 2nd ed., SIAM 2000).

    `links` holds, from the finest level down, the coarse parents and the
    corner children of each coarser level.  A coarse vertex is free exactly
    when its corner child is, and its operator is the Galerkin product
    P^T A P.  The smoother is l1-Jacobi, with D the row sums of |A| (A. H.
    Baker, R. D. Falgout, T. V. Kolev and U. M. Yang, SIAM J. Sci. Comput.
    33(5), 2011), which converges for any symmetric positive definite A, so
    the cycle is symmetric positive definite.  Coarsening stops at a level
    of at most MAX_DIRECT unknowns, solved by dense Cholesky; a larger
    coarsest level, as on a mesh without a hierarchy, is only smoothed.
    """

    def __init__(self, A, is_free: np.ndarray, links) -> None:
        self.levels = []
        for parents, child in links:
            coarse_free = is_free[child]
            if A.shape[0] <= MAX_DIRECT or not coarse_free.any():
                break
            P = _prolongation(parents, is_free, coarse_free)
            R = P.T.tocsr()
            self.levels.append((A, _l1_inverse(A), P, R))
            A, is_free = (R @ A @ P).tocsr(), coarse_free
        self.coarse, self.factor, self.coarse_l1 = A, None, None
        if A.shape[0] <= MAX_DIRECT:
            self.factor = _inverse_cholesky(A.toarray())
        else:
            self.coarse_l1 = _l1_inverse(A)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, k: int, r: np.ndarray) -> np.ndarray:
        if k == len(self.levels):
            if self.factor is not None:
                return np.einsum("ji,j->i", self.factor,
                                 np.einsum("ij,j->i", self.factor, r))
            return _smooth(self.coarse, self.coarse_l1, r, 4)
        A, d, P, R = self.levels[k]
        x = _smooth(A, d, r, 2)
        x += P @ self._cycle(k + 1, R @ (r - A @ x))
        return _smooth(A, d, r, 2, x)


def _inverse_cholesky(A: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor L of the dense symmetric matrix A, so
    A^-1 = L^-T L^-1.  Row reduction of [A | I]: scaling row j by the root
    of its pivot makes its left part row j of L^T, whose entries past the
    diagonal clear column j below it, and leaves [L^T | L^-1].  The
    arithmetic is elementwise, so it rounds the same for any thread count,
    unlike LAPACK's blocked factorization; a pivot that is not finite and
    positive, that is an A that is not positive definite, raises
    CapacityError."""
    n = len(A)
    M = np.hstack([A, np.eye(n)])
    for j in range(n):
        pivot = M[j, j]
        if not 0.0 < pivot < math.inf:
            raise CapacityError("coarsest multigrid operator is not "
                                "positive definite")
        M[j] /= math.sqrt(pivot)
        # past column j, rows below j hold nonzeros only up to column n + j
        band = slice(j + 1, n + j + 1)
        M[j + 1:, band] -= M[j, j + 1:n, None] * M[j, band]
    return M[:, n:]


def _smooth(A, d: np.ndarray, r: np.ndarray, sweeps: int,
            x: np.ndarray | None = None) -> np.ndarray:
    """`sweeps` l1-Jacobi steps x += d (r - A x), from x = 0 by default."""
    if x is None:
        x, sweeps = d * r, sweeps - 1
    for _ in range(sweeps):
        x += d * (r - A @ x)
    return x


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by numpy's pairwise summation.  BLAS dot products split
    long vectors over threads and sum the parts in a thread-dependent
    order; this sum rounds the same for any thread count."""
    return float(np.add.reduce(a * b))


# keeps the name of scipy's direct solver it replaced: the benchmark tracer
# times the FEM solve by patching capacity.spsolve, so _fem_energy calls it
# through this global, with the V-cycle applied inside the timed solve
def spsolve(A, b: np.ndarray, precond) -> tuple[np.ndarray, int, float]:
    """Solve A x = b for symmetric positive definite CSR A by conjugate
    gradients from x = 0 preconditioned by the callable precond, which maps
    a residual r to z ~ A^-1 r (Y. Saad, Iterative Methods for Sparse Linear
    Systems, 2nd ed., SIAM 2003, ch. 9).

    Stops once the updated residual is at most CG_RTOL |b|; returns x, the
    step count and the true relative residual |b - A x| / |b|.  A
    non-positive diagonal, a non-finite right-hand side, a step with r.z
    not finite and positive (the preconditioner is not positive definite)
    or p.Ap not finite and positive (A is not positive definite), or more
    than CG_MAX_STEPS steps raise CapacityError.
    """
    if not (A.diagonal() > 0.0).all():
        raise CapacityError("matrix diagonal is not positive")
    b_norm = math.sqrt(_dot(b, b))
    if not math.isfinite(b_norm):
        raise CapacityError("right-hand side is not finite")
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = _dot(r, z)
    steps = 0
    while math.sqrt(_dot(r, r)) > CG_RTOL * b_norm:
        if steps == CG_MAX_STEPS:
            raise CapacityError(
                f"conjugate gradients did not reach CG_RTOL={CG_RTOL} in "
                f"CG_MAX_STEPS={CG_MAX_STEPS} steps")
        if not 0.0 < rz < math.inf:
            raise CapacityError(f"r.z = {rz} at step {steps + 1}: the "
                                "preconditioner is not positive definite")
        q = A @ p
        pq = _dot(p, q)
        if not 0.0 < pq < math.inf:
            raise CapacityError(f"p.Ap = {pq} at step {steps + 1}: the "
                                "matrix is not positive definite")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = precond(r)
        rz, rz_old = _dot(r, z), rz
        p *= rz / rz_old
        p += z
        steps += 1
    e = b - A @ x
    residual = math.sqrt(_dot(e, e)) / b_norm if b_norm else 0.0
    return x, steps, residual


def _dirichlet_problem(lv: _Level, held: np.ndarray):
    """Edge ends and weights of lv, the vertex values u with held[j] at
    both ends of boundary slot j, and the mask of free vertices."""
    ends, w = _edge_weights(lv)
    f, e = lv.bslots.T
    at = np.concatenate([lv.vids[f, e], lv.vids[f, (e + 1) % 3]])
    held = np.concatenate([held, held])
    u = np.zeros(lv.n)
    u[at] = held
    if (u[at] != held).any():
        raise CapacityError("a vertex lies on both labeled boundaries")
    is_free = np.ones(lv.n, dtype=bool)
    is_free[at] = False
    return ends, w, u, is_free


def _fem_energy(ends: np.ndarray, w: np.ndarray, u: np.ndarray,
                is_free: np.ndarray, links: list) -> tuple[float, int, float]:
    """Dirichlet energy sum w_e (u_a - u_b)^2 of the piecewise-linear
    harmonic function with the values u held off is_free; also spsolve's
    step count and relative residual."""
    steps, residual = 0, 0.0
    if is_free.any():
        A, rhs = _free_system(ends, w, is_free, u)
        u[is_free], steps, residual = spsolve(A, rhs, _VCycle(A, is_free, links))
    d = u[ends[:, 0]] - u[ends[:, 1]]
    return _dot(w, d * d), steps, residual


def fem_capacity(annulus, mesh_h: float = 0.02) -> CapacityEstimate:
    """Capacity of a flat annulus by the piecewise-linear Rayleigh quotient.

    The input surface is validated once, as ConeSurface does; it is then
    refined 4-to-1 as index arrays (`_refined`), with the numbering of
    surface.subdivide, until no edge exceeds mesh_h, at most MAX_REFINE
    times (mesh_h = inf: never).  No refined level is built as a surface:
    its corner cosines are carried from the parent exactly, and its vertex
    ids and multigrid parents follow from the child numbering.  Conforming
    elements make the discrete energy an upper bound that is nonincreasing
    under refinement.  Boundary values come from the two boundary labels
    in alphabetical order (first label 0, second label 1); every boundary
    slot needs a label, only boundary slots may carry one, and no vertex
    may lie on both labeled boundaries.

    The stiffness is assembled per edge.  The system is solved by conjugate
    gradients to a relative residual of CG_RTOL within CG_MAX_STEPS steps
    (`spsolve`), preconditioned by a multigrid V-cycle on the refinement's
    levels and, for a Fermi chart, on its grid halved in index space;
    `meta` records the steps as `cg_iterations` and the final
    |b - A x| / |b| as `residual`.  The boundary values are imposed
    exactly, so any iterate is admissible and its energy is a Rayleigh
    upper bound whatever the residual.
    """
    if not mesh_h > 0:
        raise CapacityError("mesh_h must be positive")
    s = annulus
    if s.euler_characteristic != 0:
        raise CapacityError("input is not an annulus (Euler char != 0)")
    labels = s.marks.get("boundary_labels")
    if not labels:
        raise CapacityError("annulus boundary is not labeled")
    # multigrid links, finest first: the refinement's, then the chart grid's
    links = _chart_links(s)
    level = _level_of(s)
    # halving is exact, so this is the refined level's longest side
    longest = float(s.lengths.max())
    refines = 0
    while longest > mesh_h:
        if refines >= MAX_REFINE:
            raise CapacityError("refinement limit reached before mesh_h")
        level, link = _refined(level)
        links.insert(0, link)
        longest /= 2
        refines += 1
    names = sorted(set(labels.values()))
    if len(names) != 2:
        raise CapacityError(f"need exactly 2 boundary labels, got {names}")
    if set(s.boundary_slots) - set(labels):
        raise CapacityError("unlabeled boundary edges present")
    if set(labels) - set(s.boundary_slots):
        raise CapacityError("boundary labels on slots that are not boundary edges")
    # half_slots keeps each slot's halves together, so boundary slot j of
    # the input became fine slots j 2^refines up to (j + 1) 2^refines - 1
    held = np.repeat([float(names.index(labels[slot])) for slot in s.boundary_slots],
                     2 ** refines)
    ends, w, u, is_free = _dirichlet_problem(level, held)
    del level  # the mesh arrays are not needed during the solve
    energy, steps, residual = _fem_energy(ends, w, u, is_free, links)
    return CapacityEstimate("fem_rayleigh", energy, math.nan,
                            meta={"mesh_h": mesh_h, "refines": refines,
                                  "n_vertices": len(u),
                                  "cg_iterations": steps,
                                  "residual": residual})


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

    # grid point (i, j) sits at (t_i, half_i (2 j / n_s - 1))
    sigma = np.array(half)[:, None] * (2.0 * np.arange(n_s + 1) / n_s - 1.0)
    grid = np.stack(np.broadcast_arrays(np.array(ts)[:, None], sigma), axis=-1)
    ci, cj = _chart_corners(n_t, n_s)
    # vertex ids wrap in t, so lengths come from the grid coordinates
    lengths = _surface.side_lengths(grid[ci, cj])
    tris = _grid_vertex(ci, cj, n_t, n_s)
    gluings, boundary = _surface.match_vertex_edges(tris)
    # a boundary slot runs along sigma = -/+ half, at grid row j = 0 or n_s
    bottom = tris[boundary[:, 0], boundary[:, 1]] % (n_s + 1) == 0
    labels = {(f, e): "bottom" if low else "top"
              for (f, e), low in zip(boundary.tolist(), bottom.tolist())}
    return _surface.ConeSurface(lengths, gluings, name="fermi_chart",
                                marks={"boundary_labels": labels,
                                       "grid": [int(n_t), int(n_s)]})


def _chart_corners(n_t: int, n_s: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices (i, j), each (F, 3), of the chart faces' corners, i not
    wrapped: each grid square (i, j) is split along its (0, 0)-(1, 1)
    diagonal into the triangles below, by corner offsets."""
    offsets = np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]])
    i, j = np.meshgrid(np.arange(n_t), np.arange(n_s), indexing="ij")
    ci = (i[..., None, None] + offsets[..., 0]).reshape(-1, 3)
    cj = (j[..., None, None] + offsets[..., 1]).reshape(-1, 3)
    return ci, cj


def _grid_vertex(i, j, n_t: int, n_s: int):
    """Vertex id of grid point (i, j) of the n_t x n_s chart; i wraps."""
    return (i % n_t) * (n_s + 1) + j


def _grid_parents(n_t: int, n_s: int) -> tuple[np.ndarray, np.ndarray]:
    """Coarse parents (n_fine, 2) of each vertex of the n_t x n_s chart grid
    on the half grid, and the corner child of each half-grid vertex, by grid
    vertex id.  Every half-grid face, doubled, is a union of fine faces, so
    its corners keep their value and its side midpoints take the mean of the
    side's ends: exact in index space."""
    ci, cj = _chart_corners(n_t // 2, n_s // 2)
    coarse = _grid_vertex(ci, cj, n_t // 2, n_s // 2)
    parents = np.empty((n_t * (n_s + 1), 2), dtype=np.intp)
    child = np.empty(n_t // 2 * (n_s // 2 + 1), dtype=np.intp)
    for c in range(3):
        d = (c + 1) % 3
        corner = _grid_vertex(2 * ci[:, c], 2 * cj[:, c], n_t, n_s)
        parents[corner] = coarse[:, [c, c]]
        child[coarse[:, c]] = corner
        mid = _grid_vertex(ci[:, c] + ci[:, d], cj[:, c] + cj[:, d], n_t, n_s)
        parents[mid] = coarse[:, [c, d]]
    return parents, child


def _chart_links(s: "_surface.ConeSurface") -> list:
    """Multigrid links of a Fermi chart (`marks["grid"]`) down its grid,
    halved while both sides are even and the half grid is one
    fermi_chart_annulus builds; the finest link is renumbered from grid
    vertex ids to the vertex ids of s.  No grid mark: no links."""
    if "grid" not in s.marks:
        return []
    n_t, n_s = s.marks["grid"]
    ci, cj = _chart_corners(n_t, n_s)
    grid_ids = _grid_vertex(ci, cj, n_t, n_s)
    if s.vertex_ids.shape != grid_ids.shape or s.n_vertices != n_t * (n_s + 1):
        raise CapacityError(f"grid mark {[n_t, n_s]} does not match the chart")
    to_grid = np.empty(s.n_vertices, dtype=np.intp)
    to_grid[s.vertex_ids] = grid_ids
    if not (to_grid[s.vertex_ids] == grid_ids).all():
        raise CapacityError(f"grid mark {[n_t, n_s]} does not match the chart")
    links = []
    while n_t % 2 == n_s % 2 == 0 and n_t >= 6 and n_s >= 4:
        links.append(_grid_parents(n_t, n_s))
        n_t, n_s = n_t // 2, n_s // 2
    if links:
        parents, child = links[0]
        links[0] = parents[to_grid], np.argsort(to_grid)[child]
    return links


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
