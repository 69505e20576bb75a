import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import fixtures as fx
import loop_reference as loop
from dycksurf import capacity as cap
from dycksurf import surface as sf
from dycksurf.capacity import (
    CapacityError,
    CapacityEstimate,
    CollarProfile,
    collar_circumference,
    constant_profile,
    fem_capacity,
    fermi_chart_annulus,
    fermi_half_width,
    flat_capacity_upper,
    gudermann,
    hyperbolic_collar_profile,
    muetzel_bound,
    separation_certificate,
    singular_corner_correction,
)
from dycksurf.constants import SurfaceParameters

UPPER = 2.283093046469848
LOWER = 2.2946094708421385
ELL = 4.397146055841872


def _identity(r):
    return r


def _record_systems(monkeypatch) -> list:
    """Solve every FEM system directly, recording its free block, right-hand
    side and multigrid preconditioner."""
    systems = []

    def record(A, b, precond):
        systems.append((A, b, precond))
        return loop.direct_solve(A, b)

    monkeypatch.setattr(cap, "spsolve", record)
    return systems


def _boundary_values(s):
    """Vertex values, 0 on the first boundary label and 1 on the second,
    and the free vertices."""
    labels = s.marks["boundary_labels"]
    names = sorted(set(labels.values()))
    u = np.zeros(s.n_vertices)
    free = np.ones(s.n_vertices, dtype=bool)
    for (f, e), lbl in labels.items():
        for c in (e, (e + 1) % 3):
            u[s.vertex_of((f, c))] = names.index(lbl)
            free[s.vertex_of((f, c))] = False
    return u, np.flatnonzero(free)


def _id_map(ids: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The relabeling that takes the vertex ids of each corner, ids, to the
    reference ids, ref, of the same corner; fails unless the two induce the
    same partition of the corners."""
    to_ref = np.full(ids.max() + 1, -1)
    to_ref[ids] = ref
    assert (to_ref[ids] == ref).all()
    assert sorted(to_ref.tolist()) == list(range(ref.max() + 1))
    return to_ref


class TestGudermann:
    def test_at_zero(self):
        assert gudermann(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_reflection_identity(self):
        for s in (0.3, 1.0, 5.0, *np.linspace(-3, 3, 25)):
            assert gudermann(s) + gudermann(-s) == pytest.approx(
                math.pi, abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(-6, 6, 200)
        ys = [gudermann(float(x)) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_value(self):
        assert gudermann(1.09940) == pytest.approx(2.498, abs=1e-3)


class TestFermiHalfWidth:
    def test_at_zero(self):
        assert fermi_half_width(0.0, ELL) == pytest.approx(ELL / 4, abs=1e-12)

    def test_widest_section(self):
        # half-width at a twelfth of the circumference
        assert fermi_half_width(ELL / 12, ELL) == pytest.approx(
            1.2728593851569263, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(CapacityError):
            fermi_half_width(3.0, ELL)

    def test_soul_length(self):
        assert collar_circumference() == pytest.approx(
            2 * math.acosh((5 + math.sqrt(17)) / 2), abs=1e-15)
        assert collar_circumference() == pytest.approx(4.397146, abs=5e-7)


class TestCollarProfile:
    def test_paper_profile_symmetries(self):
        p = hyperbolic_collar_profile()
        p.validate()
        assert p.piece == pytest.approx(p.ell / 12, abs=1e-15)
        for t in np.linspace(0, p.ell, 37):
            t = float(t)
            assert p.b(t) == pytest.approx(-p.a(t), abs=1e-15)
            assert p.a(t + p.ell / 6) == pytest.approx(p.a(t), abs=1e-12)
        for x in np.linspace(0, p.ell / 12, 11):
            x = float(x)
            assert p.a(p.ell / 12 + x) == pytest.approx(
                p.a(p.ell / 12 - x), abs=1e-12)

    def test_width_range(self):
        p = hyperbolic_collar_profile()
        widths = [p.a(float(t)) for t in np.linspace(0, p.ell, 400)]
        assert min(widths) == pytest.approx(ELL / 4, abs=1e-9)
        peak = p.a(p.ell / 12)
        assert peak == pytest.approx(1.2728594, abs=1e-6)
        assert max(widths) <= peak + 1e-12

    def test_invalid_profile_rejected(self):
        bad = CollarProfile(2.0, lambda t: 0.5 - t, lambda t: -0.5)
        with pytest.raises(CapacityError):
            bad.validate()

    def test_constant_profile_needs_positive_width(self):
        with pytest.raises(CapacityError):
            constant_profile(2.0, -0.1)

    @pytest.mark.parametrize("ell, piece", [
        (math.nan, None), (math.inf, None), (0.0, None), (-2.0, None),
        (2.0, math.nan), (2.0, math.inf), (2.0, 0.0), (2.0, -0.5),
        (2.0, 2.5)])
    def test_bad_lengths_rejected(self, ell, piece):
        with pytest.raises(CapacityError):
            CollarProfile(ell, lambda t: 0.5, lambda t: -0.5, piece).validate()

    def test_piece_contract_enforced(self):
        good = hyperbolic_collar_profile()
        good.validate()
        # the paper widths rise on [0, ell/12], but not on [0, ell/6]
        with pytest.raises(CapacityError, match="monotone"):
            CollarProfile(good.ell, good.a, good.b, 2 * good.piece).validate()
        # even about t = 1, but on [0, 1] a rises while -b falls
        with pytest.raises(CapacityError, match="monotone"):
            CollarProfile(2.0, lambda t: 2.0 - abs(1.0 - t),
                          lambda t: -1.0 - abs(1.0 - t), piece=1.0).validate()
        # rising on all of [0, 2] is not even about t = 1
        with pytest.raises(CapacityError, match="even"):
            CollarProfile(2.0, lambda t: 1.0 + t, lambda t: -1.0 - t,
                          piece=1.0).validate()
        CollarProfile(2.0, lambda t: 1.0 + t, lambda t: -1.0 - t).validate()


class TestMuetzelBound:
    def test_paper_profile(self):
        est = muetzel_bound(hyperbolic_collar_profile(), tol=1e-8)
        assert est.kind == "lower_muetzel"
        assert est.value == pytest.approx(LOWER, abs=1e-9)
        assert est.value >= 2.29460
        assert est.error_estimate < 1e-6
        lo, hi = est.meta["bracket"]
        assert 2.29 < lo <= est.value <= hi
        assert hi - lo <= 1e-3

    def test_constant_profile_closed_form(self):
        for ell, w in ((2.0, 0.7), (5.0, 1.3)):
            est = muetzel_bound(constant_profile(ell, w), tol=1e-10)
            exact = ell / (gudermann(w) - gudermann(-w))
            assert est.value == pytest.approx(exact, abs=1e-9)

    def test_wide_limit_monotone(self):
        vals = [muetzel_bound(constant_profile(2.0, w), tol=1e-9).value
                for w in (1.0, 2.0, 4.0, 8.0)]
        limit = 2.0 / math.pi
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > limit for v in vals)
        assert vals[-1] == pytest.approx(limit, abs=1e-3)

    def test_monotone_in_width(self):
        # pointwise wider collars have smaller bounds
        paper = muetzel_bound(hyperbolic_collar_profile()).value
        widest = muetzel_bound(
            constant_profile(ELL, 1.2728593851569263)).value
        narrowest = muetzel_bound(constant_profile(ELL, ELL / 4)).value
        assert widest <= paper <= narrowest

    def test_bad_tol(self):
        with pytest.raises(CapacityError):
            muetzel_bound(hyperbolic_collar_profile(), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol(self, tol):
        with pytest.raises(CapacityError, match="finite"):
            muetzel_bound(hyperbolic_collar_profile(), tol=tol)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.5, 3.0), st.floats(0.5, 5.0))
    def test_bracket_encloses_linear_integrand(self, c, ell):
        # H(a) - H(-a) = 2 arctan(sinh a) = 1/(c + t): the integrand is c + t
        def a(t):
            return math.asinh(math.tan(1.0 / (2.0 * (c + t))))

        est = muetzel_bound(CollarProfile(ell, a, lambda t: -a(t)), tol=1e-10)
        exact = c * ell + ell * ell / 2.0
        lo, hi = est.meta["bracket"]
        assert lo <= exact <= hi
        assert est.value == pytest.approx(exact, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.5, 5.0), st.floats(0.05, 4.0))
    def test_constant_widths_match_closed_form(self, ell, w):
        est = muetzel_bound(constant_profile(ell, w), tol=1e-10)
        exact = ell / (gudermann(w) - gudermann(-w))
        lo, hi = est.meta["bracket"]
        assert lo <= exact <= hi
        assert est.value == pytest.approx(exact, abs=1e-9)

    def test_underflowing_tol_converges(self):
        # tol / 4 rounds to 0: only an exact Romberg agreement meets it,
        # where a strict comparison ran all 21 levels and then failed
        est = muetzel_bound(hyperbolic_collar_profile(), tol=5e-324)
        lo, hi = est.meta["bracket"]
        assert est.error_estimate == 0.0 and lo <= est.value <= hi

    def test_value_outside_bracket_refused(self, monkeypatch):
        monkeypatch.setattr(cap, "_romberg", lambda *args: (1.0, 0.0))
        with pytest.raises(CapacityError, match="bracket"):
            muetzel_bound(hyperbolic_collar_profile())


class TestFlatCapacityUpper:
    def test_closed_form(self):
        res = flat_capacity_upper(mesh_check=False)
        assert res.closed_form.value == pytest.approx(UPPER, abs=1e-9)
        assert res.mesh is None and res.consistent

    def test_corner_correction(self):
        p = SurfaceParameters.paper()
        corr = singular_corner_correction(p.h, p.theta)
        assert corr == pytest.approx(0.00187464, abs=1e-8)
        assert corr == pytest.approx(0.0018755, abs=1e-6)

    def test_correction_vanishes_flat(self):
        assert singular_corner_correction(0.0, 0.9) == 0.0
        assert singular_corner_correction(0.1, 0.0) == 0.0

    def test_mesh_cross_check_coarse(self):
        res = flat_capacity_upper(mesh_check=True, mesh_h=0.04,
                                  mesh_tol=2.5e-2)
        assert res.mesh is not None
        assert res.mesh.value == pytest.approx(res.closed_form.value,
                                               abs=2.5e-2)
        assert res.consistent


class TestFemCapacity:
    def test_flat_cylinder(self):
        est = fem_capacity(fx.build_cylinder(2.0, 0.5), mesh_h=0.1)
        assert est.kind == "fem_rayleigh"
        assert est.value == pytest.approx(4.0, rel=5e-3)

    def test_round_annulus_log(self):
        est = fem_capacity(fx.build_round_annulus(1.0, math.e), mesh_h=0.15)
        assert est.value == pytest.approx(2 * math.pi, rel=5e-3)

    def test_nonincreasing_under_refinement(self):
        collar = sf.build_collar_flat()
        coarse = fem_capacity(collar, mesh_h=0.12).value
        mid = fem_capacity(collar, mesh_h=0.06).value
        fine = fem_capacity(collar, mesh_h=0.03).value
        assert mid <= coarse + 1e-4
        assert fine <= mid + 1e-4

    def test_conformal_scale_invariance(self):
        a = fem_capacity(fx.build_cylinder(2.0, 0.5), mesh_h=0.1).value
        b = fem_capacity(fx.build_cylinder(6.0, 1.5), mesh_h=0.3).value
        assert a == pytest.approx(b, abs=1e-9)

    def test_flat_collar_below_both_bounds(self):
        est = fem_capacity(sf.build_collar_flat(), mesh_h=0.06)
        assert est.value <= UPPER + 1e-3
        assert est.value < 2.29

    def test_json_round_trip_keeps_slot_labels(self, tmp_path):
        # the written JSON keys each label by its slot, as str((f, e))
        collar = sf.build_collar_flat()
        path = tmp_path / "collar.json"
        collar.save_json(path)
        data = json.loads(path.read_text())
        assert data == json.loads(json.dumps(collar.to_json_dict()))
        labels = collar.marks["boundary_labels"]
        assert data["marks"]["boundary_labels"] == {
            str(slot): lbl for slot, lbl in labels.items()}
        assert all(isinstance(slot, tuple) for slot in labels)

    @pytest.mark.parametrize("build, mesh_h", [
        (sf.build_collar_flat, 0.12),
        (lambda: fx.build_round_annulus(1.0, 2.0), 0.5),
        (lambda: fermi_chart_annulus(hyperbolic_collar_profile(), 48, 12), 1.0)])
    def test_assembly_matches_corner_loop(self, build, mesh_h, monkeypatch):
        # the free block and right-hand side spsolve receives, against the
        # per-corner law-of-cosines stiffness the edge-form assembly replaced,
        # with the array vertex ids mapped to subdivide's corner by corner
        systems = _record_systems(monkeypatch)
        s = build()
        est = fem_capacity(s, mesh_h=mesh_h)
        lv = cap._level_of(s)
        for _ in range(est.meta["refines"]):
            s, (lv, _) = sf.subdivide(s), cap._refined(lv)
        to_sub = _id_map(lv.vids, s.vertex_ids)
        u, free = _boundary_values(s)
        is_free = np.zeros(s.n_vertices, dtype=bool)
        is_free[free] = True
        order = to_sub[is_free[to_sub]]  # the unknowns in array order
        K = loop.corner_stiffness(s)
        ((A, b, _),) = systems
        scale = abs(K).max()
        assert abs(A - K[order][:, order]).max() <= 1e-14 * scale
        assert np.abs(b + (K @ u)[order]).max() <= 1e-14 * scale

    @pytest.mark.parametrize("build, mesh_h", [
        (lambda: fx.build_cylinder(2.0, 0.5), 0.1),
        (lambda: fx.build_round_annulus(1.0, math.e), 0.15),
        (sf.build_collar_flat, 0.06),
        (sf.build_collar_flat, 0.03),
        (lambda: fermi_chart_annulus(hyperbolic_collar_profile(), 96, 24),
         math.inf)])
    def test_energy_matches_direct_solve(self, build, mesh_h, monkeypatch):
        s = build()
        est = fem_capacity(s, mesh_h=mesh_h)
        assert 0 < est.meta["cg_iterations"] < cap.CG_MAX_STEPS
        assert est.meta["residual"] <= 10 * cap.CG_RTOL
        monkeypatch.setattr(cap, "spsolve", loop.direct_solve)
        direct = fem_capacity(s, mesh_h=mesh_h)
        assert est.value == pytest.approx(direct.value, rel=1e-12, abs=0)

    def test_indefinite_system_refused(self):
        # p.Ap = -12 at step 2, not a NaN or a ZeroDivisionError
        A = csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(CapacityError, match="at step 2"):
            cap.spsolve(A, np.array([1.0, 0.0]), _identity)

    def test_bad_systems_refused(self):
        with pytest.raises(CapacityError, match="diagonal"):
            cap.spsolve(csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]])),
                        np.array([1.0, 1.0]), _identity)
        with pytest.raises(CapacityError, match="not finite"):
            cap.spsolve(csr_matrix(np.eye(2)), np.array([1.0, math.nan]),
                        _identity)

    @pytest.mark.parametrize("precond, rz", [
        (lambda r: -r, "-1.0"), (lambda r: 0.0 * r, "0.0"),
        (lambda r: r + math.nan, "nan")])
    def test_indefinite_preconditioner_refused(self, precond, rz):
        with pytest.raises(CapacityError,
                           match=rf"r.z = {rz} at step 1: the preconditioner"):
            cap.spsolve(csr_matrix(np.eye(2)), np.array([1.0, 0.0]), precond)

    def test_step_budget_refused(self, monkeypatch):
        monkeypatch.setattr(cap, "CG_MAX_STEPS", 5)
        with pytest.raises(CapacityError, match="CG_MAX_STEPS"):
            fem_capacity(sf.build_collar_flat(), mesh_h=0.06)

    def test_zero_right_hand_side(self):
        x, steps, residual = cap.spsolve(csr_matrix(np.eye(3)), np.zeros(3),
                                         _identity)
        assert x.tolist() == [0.0, 0.0, 0.0]
        assert (steps, residual) == (0, 0.0)

    def test_non_annulus_rejected(self):
        with pytest.raises(CapacityError):
            fem_capacity(sf.build_extremal_dyck())

    def test_unlabeled_boundary_rejected(self):
        cyl = fx.build_cylinder(2.0, 0.5)
        bare = sf.ConeSurface(cyl.faces, cyl.gluings, name="bare")
        with pytest.raises(CapacityError):
            fem_capacity(bare, mesh_h=0.5)

    def test_labels_off_the_boundary_rejected(self):
        # a label on a glued slot, or a vertex held at both 0 and 1, has no
        # Dirichlet problem behind it
        collar = sf.build_collar_flat()
        labels = dict(collar.marks["boundary_labels"])
        labels[tuple(collar.glue_records[0, :2].tolist())] = "top"
        torus = sf.build_flat_torus()
        for s in (sf.ConeSurface(collar.lengths, collar.glue_records,
                                 marks={"boundary_labels": labels}),
                  sf.ConeSurface(torus.lengths, torus.glue_records,
                                 marks={"boundary_labels": {(0, 0): "bottom",
                                                            (1, 1): "top"}})):
            with pytest.raises(CapacityError, match="not boundary edges"):
                fem_capacity(s, mesh_h=0.5)
        cyl = fx.build_cylinder(2.0, 0.5)
        mixed = {**cyl.marks["boundary_labels"], (0, 0): "top"}
        with pytest.raises(CapacityError, match="both labeled boundaries"):
            fem_capacity(sf.ConeSurface(cyl.lengths, cyl.glue_records,
                                        marks={"boundary_labels": mixed}),
                         mesh_h=0.5)

    def test_nan_mesh_h_rejected(self):
        # inf means never refine; NaN would stop the refinement loop at once
        cyl = fx.build_cylinder(2.0, 0.5)
        assert fem_capacity(cyl, mesh_h=math.inf).meta["refines"] == 0
        with pytest.raises(CapacityError):
            fem_capacity(cyl, mesh_h=math.nan)


class TestMultigrid:
    def test_galerkin_matches_coarse_assembly(self, monkeypatch):
        # the P1 spaces of the subdivide levels are nested, so P^T A P is the
        # coarse level's own free block; a misnumbered parent shows here
        systems = _record_systems(monkeypatch)
        collar = sf.build_collar_flat()
        for mesh_h in (0.24, 0.12, 0.06, 0.03):
            fem_capacity(collar, mesh_h=mesh_h)
        *own, (_, _, vcycle) = systems
        galerkin = [level[0] for level in vcycle.levels[1:]] + [vcycle.coarse]
        galerkin.reverse()
        assert len(galerkin) == 3
        for (A, _, _), G in zip(own, galerkin):
            assert G.shape == A.shape
            assert abs(G - A).max() <= 1e-12 * abs(A).max()

    def test_subdivision_parents(self):
        coarse = sf.build_collar_flat()
        fine, (parents, child) = cap._refined(cap._level_of(coarse))
        assert parents.shape == (fine.n, 2)
        assert sorted(child.tolist()) == sorted(set(child.tolist()))
        assert parents[child].tolist() == [[v, v] for v in range(coarse.n_vertices)]
        # the other fine vertices are the midpoints of the coarse edges
        mid = np.delete(parents, child, axis=0)
        ends = cap._edge_weights(cap._level_of(coarse))[0]
        edges = {tuple(sorted(e)) for e in ends.tolist()}
        assert len(mid) == coarse.n_edges
        assert {tuple(sorted(p)) for p in mid.tolist()} == edges

    @pytest.mark.parametrize("build", [
        sf.build_collar_flat,
        lambda: fx.build_cylinder(2.0, 0.5),
        lambda: fx.build_round_annulus(1.0, 2.0),
        lambda: fermi_chart_annulus(hyperbolic_collar_profile(), 48, 12)])
    def test_refinement_matches_subdivide(self, build):
        # two array refinements against two subdivide calls: the same vertex
        # partition, each midpoint's parents the ends of its coarse edge, and
        # the carried cosines the law of cosines on the halved sides
        s = build()
        lv = cap._level_of(s)
        coarse_map = _id_map(lv.vids, s.vertex_ids)
        for _ in range(2):
            fine_s, (fine, (parents, child)) = sf.subdivide(s), cap._refined(lv)
            to_sub = _id_map(fine.vids, fine_s.vertex_ids)
            assert fine.n == fine_s.n_vertices
            assert fine.cos.tobytes() == fine_s.corner_cos.tobytes()
            assert fine.glue.tolist() == fine_s.glue_records.tolist()
            assert sorted(map(tuple, fine.bslots.tolist())) == fine_s.boundary_slots
            from_sub = np.argsort(to_sub)
            F = len(s.lengths)
            for c in range(3):
                # corner c of child 4f + c is the coarse corner (f, c), and its
                # corner c + 1 the midpoint of the coarse slot (f, c)
                kids = 4 * np.arange(F) + c
                corner = from_sub[fine_s.vertex_ids[kids, c]]
                assert (coarse_map[child[corner]] == s.vertex_ids[:, c]).all()
                assert (parents[corner] == corner[:, None]).all()
                mid = from_sub[fine_s.vertex_ids[kids, (c + 1) % 3]]
                got = np.sort(coarse_map[parents[mid]], axis=1)
                want = np.sort(s.vertex_ids[:, [c, (c + 1) % 3]], axis=1)
                assert (got == want).all()
            s, lv, coarse_map = fine_s, fine, to_sub

    @pytest.mark.parametrize("n_t, n_s", [(12, 4), (96, 24), (40, 6)])
    def test_grid_parents_are_neighbours(self, n_t, n_s):
        parents, child = cap._grid_parents(n_t, n_s)
        half_t, half_s = n_t // 2, n_s // 2
        i, j = np.divmod(parents, half_s + 1)
        fi, fj = np.divmod(np.arange(n_t * (n_s + 1)), n_s + 1)
        # each fine vertex is the mean of its parents in index space, and
        # they are equal or joined by a grid side or a square's diagonal
        di, dj = (i[:, 1] - i[:, 0] + 1) % half_t - 1, j[:, 1] - j[:, 0]
        assert ((i[:, 0] + i[:, 0] + di) % n_t == fi).all()
        assert (j.sum(axis=1) == fj).all()
        step = {tuple(d) for d in np.column_stack([di, dj]).tolist()}
        assert step <= {(0, 0), (1, 0), (0, 1), (1, 1),
                        (-1, 0), (0, -1), (-1, -1)}
        assert (parents[child] == np.arange(len(child))[:, None]).all()

    @pytest.mark.parametrize("s", [
        sf.build_collar_flat(),
        fermi_chart_annulus(hyperbolic_collar_profile(), 48, 12)])
    def test_prolongation_keeps_constants(self, s):
        fine, link = cap._refined(cap._level_of(s))
        links = [link] + cap._chart_links(s)
        n = fine.n
        for parents, child in links:
            P = cap._prolongation(parents, np.ones(n, dtype=bool),
                                  np.ones(len(child), dtype=bool))
            assert P.shape == (n, len(child))
            assert (P @ np.ones(len(child))).tolist() == [1.0] * n
            n = len(child)

    def test_steps_do_not_grow_with_level(self):
        # Jacobi-preconditioned CG roughly doubled its steps per level
        collar = sf.build_collar_flat()
        prof = hyperbolic_collar_profile()
        flat = [fem_capacity(collar, mesh_h=h).meta["cg_iterations"]
                for h in (0.06, 0.03, 0.015)]
        chart = [fem_capacity(fermi_chart_annulus(prof, n, n // 4),
                              mesh_h=math.inf).meta["cg_iterations"]
                 for n in (96, 192, 384)]
        for steps in (flat, chart):
            assert max(steps) <= 25
            assert steps[-1] <= steps[0] + 2

    @pytest.mark.parametrize("build", [
        # odd n_s: no grid hierarchy, 2112 unknowns, only smoothed
        lambda: fermi_chart_annulus(hyperbolic_collar_profile(), 96, 23),
        # one level of 336 unknowns, solved by Cholesky
        lambda: fx.build_round_annulus(1.0, math.e)])
    def test_single_level_solves(self, build, monkeypatch):
        s = build()
        assert cap._chart_links(s) == []
        est = fem_capacity(s, mesh_h=math.inf)
        assert est.meta["refines"] == 0
        assert 0 < est.meta["cg_iterations"] < cap.CG_MAX_STEPS
        assert est.meta["residual"] <= 10 * cap.CG_RTOL
        monkeypatch.setattr(cap, "spsolve", loop.direct_solve)
        direct = fem_capacity(s, mesh_h=math.inf)
        assert est.value == pytest.approx(direct.value, rel=1e-12, abs=0)

    def test_indefinite_coarsest_level_refused(self):
        A = csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(CapacityError, match="coarsest multigrid"):
            cap._VCycle(A, np.ones(2, dtype=bool), [])

    def test_mismatched_grid_mark_refused(self):
        ann = fermi_chart_annulus(hyperbolic_collar_profile(), 48, 12)
        for grid in ([24, 24], [12, 48]):
            bad = sf.ConeSurface(ann.lengths, ann.glue_records,
                                 marks={**ann.marks, "grid": grid})
            with pytest.raises(CapacityError, match="grid mark"):
                fem_capacity(bad, mesh_h=math.inf)


class TestFermiChart:
    def test_chart_is_labeled_annulus(self):
        ann = fermi_chart_annulus(hyperbolic_collar_profile(), 48, 12)
        assert ann.euler_characteristic == 0
        labels = set(ann.marks["boundary_labels"].values())
        assert labels == {"bottom", "top"}
        # the grid mark is plain ints, so the chart exports to JSON
        assert json.loads(json.dumps(ann.to_json_dict()))["marks"]["grid"] == [48, 12]

    def test_fem_above_width_integral(self):
        ann = fermi_chart_annulus(hyperbolic_collar_profile(), 96, 24)
        est = fem_capacity(ann, mesh_h=10.0)
        assert est.value >= LOWER - 1e-6
        assert est.value == pytest.approx(2.31, abs=5e-3)

    def test_fem_decreases_with_grid(self):
        prof = hyperbolic_collar_profile()
        coarse = fem_capacity(fermi_chart_annulus(prof, 96, 24),
                              mesh_h=10.0).value
        fine = fem_capacity(fermi_chart_annulus(prof, 192, 48),
                            mesh_h=10.0).value
        assert fine <= coarse + 1e-4

    def test_too_coarse_rejected(self):
        with pytest.raises(CapacityError):
            fermi_chart_annulus(hyperbolic_collar_profile(), 2, 1)

    def test_faces_match_per_face_loop(self):
        # the grid-array chart equals, bit for bit, one built face by face
        # with np.linalg.norm of each side
        prof = hyperbolic_collar_profile()
        n_t, n_s = 96, 24
        ts = [prof.ell * i / n_t for i in range(n_t + 1)]
        half = [gudermann(prof.a(t)) - math.pi / 2.0 for t in ts]
        faces, tris = [], []
        for i in range(n_t):
            for j in range(n_s):
                quad = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
                for tri in ([quad[0], quad[1], quad[2]],
                            [quad[0], quad[2], quad[3]]):
                    pts = [np.array((ts[a], half[a] * (2.0 * b / n_s - 1.0)))
                           for a, b in tri]
                    faces.append(tuple(
                        float(np.linalg.norm(pts[(k + 1) % 3] - pts[k]))
                        for k in range(3)))
                    tris.append(tuple((a % n_t) * (n_s + 1) + b
                                      for a, b in tri))
        ann = fermi_chart_annulus(prof, n_t, n_s)
        assert ann.faces == faces
        assert ann.gluings == loop.match_vertex_edges(tris)[0]


class TestSeparation:
    def test_certificate(self):
        cert = separation_certificate(tol=1e-3)
        assert cert["separated"]
        assert cert["upper"] < 2.29 < cert["lower"]
        assert cert["margin_upper"] >= 4e-3
        assert cert["margin_lower"] >= 4e-3
        assert cert["margin_upper"] == pytest.approx(0.00691, abs=1e-5)
        assert cert["margin_lower"] == pytest.approx(0.00461, abs=1e-5)
        lo, hi = cert["lower_bracket"]
        assert 2.29 < lo <= cert["lower"] <= hi

    def test_separation_needs_the_bracket_to_clear(self):
        # the value clears 2.29 by 0.0046, the bottom of its bracket by 5e-4
        lower = CapacityEstimate("lower_muetzel", LOWER, 0.0,
                                 meta={"bracket": [2.2905, 2.30]})
        cert = separation_certificate(tol=1e-3, lower=lower)
        assert cert["margin_lower"] > 1e-3
        assert not cert["separated"]

    def test_failed_separation_is_reported(self):
        # margins 0.0069 and 0.0046 do not clear tol = 0.01
        cert = separation_certificate(tol=0.01)
        assert not cert["separated"]
        assert cert["upper"] < 2.29 < cert["lower"]

    def test_with_fem_consistency(self):
        cert = separation_certificate(include_fem=True)
        assert cert["fem_flat"] < 2.29 < cert["fem_hyperbolic"]

    def test_corrupted_circumference_moves_bound(self):
        # negative control: a 1% shorter soul changes the lower bound
        good = hyperbolic_collar_profile()
        bad = CollarProfile(0.99 * good.ell, good.a, good.b, piece=good.piece)
        v = muetzel_bound(bad, tol=1e-8).value
        assert abs(v - LOWER) / LOWER > 0.005
