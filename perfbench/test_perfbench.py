"""Self-tests of the benchmark: checks reject perturbed answers, span self
times add up, and inputs depend only on the seed.

    python3 -m pytest perfbench -q
"""

import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads as W  # noqa: E402


# -- checks reject perturbed answers ------------------------------------


def _verify_report(systole=1.0, all_passed=True):
    return {"all_passed": all_passed,
            "systole": {"value": systole, "complete": True}}


def _separation(upper=2.283093046469848, lower=2.2946094708421385):
    return {"separated": True, "margin_upper": W.LEVEL - upper,
            "margin_lower": lower - W.LEVEL,
            "fem_flat": 2.1954, "fem_hyperbolic": 2.3086}


def test_verify_check_accepts_true_answer():
    assert W.check_cli("verify", 0, _verify_report())[0]


@pytest.mark.parametrize("code,report", [
    (4, _verify_report()),
    (0, _verify_report(systole=1.0 + 2e-6)),
    (0, _verify_report(all_passed=False)),
])
def test_verify_check_rejects_perturbed(code, report):
    assert not W.check_cli("verify", code, report)[0]


def test_separation_check_rejects_thin_margin():
    assert W.check_cli("capacity_certify_fem", 0, {"separation": _separation()})[0]
    thin = _separation(upper=W.LEVEL - 0.003)
    assert not W.check_cli("capacity_certify_fem", 0, {"separation": thin})[0]
    swapped = {**_separation(), "fem_flat": 2.3}
    assert not W.check_cli("capacity_certify_fem", 0, {"separation": swapped})[0]


def test_build_check_rejects_wrong_area():
    s = {"euler_characteristic": -1, "orientable": False,
         "gauss_bonnet_residual": 0.0, "area": W.extremal_area()}
    assert W.check_cli("build", 0, {"surface": s})[0]
    assert not W.check_cli("build", 0, {"surface": {**s, "area": s["area"] + 1e-8}})[0]


def test_fem_ladder_check():
    good = {("flat", 0.03): 2.1954, ("flat", 0.015): 2.1950,
            ("chart", (192, 48)): 2.3090, ("chart", (384, 96)): 2.3086}
    assert W.check_fem_ladder(good)[0]
    rising = {**good, ("flat", 0.015): 2.1960}
    assert not W.check_fem_ladder(rising)[0]
    crossing = {**good, ("chart", (384, 96)): 2.289, ("chart", (192, 48)): 2.2895}
    assert not W.check_fem_ladder(crossing)[0]


def test_mesh_check_rejects_inconsistent_mesh():
    up = {"closed_form": 2.283093, "mesh": 2.282466, "consistent": True}
    assert W.check_mesh_check(0, {"upper": up})[0]
    assert not W.check_mesh_check(0, {"upper": {**up, "mesh": 2.2845}})[0]
    assert not W.check_mesh_check(4, {"upper": up})[0]


def test_family_and_symmetry_checks():
    res = SimpleNamespace(found=True, complete=True, length=0.8)
    assert W.check_family(res, 0.8)[0]
    assert not W.check_family(SimpleNamespace(**{**vars(res), "length": 0.8 + 1e-8}), 0.8)[0]
    assert not W.check_family(SimpleNamespace(**{**vars(res), "complete": False}), 0.8)[0]
    d = SimpleNamespace(distance=0.3, reachable=True)
    assert W.check_symmetric(d, d)[0]
    assert not W.check_symmetric(d, SimpleNamespace(distance=0.3 + 1e-8, reachable=True))[0]
    far = SimpleNamespace(distance=math.inf, reachable=False)
    assert W.check_symmetric(far, far)[0]
    assert not W.check_symmetric(d, far)[0]


def test_shortest_lattice_vector():
    assert W.shortest_lattice_vector(1.0, 1.0, 0.0) == 1.0
    assert math.isclose(W.shortest_lattice_vector(1.0, 0.2, 0.9),
                        math.hypot(0.1, 0.2))


# -- spans ---------------------------------------------------------------


def test_self_plus_child_times_equal_span_total():
    tr = tracing.Tracer("test")

    def busy(dt):
        end = time.perf_counter() + dt
        while time.perf_counter() < end:
            pass

    leaf = tr.span("leaf", lambda: busy(0.002))

    def mid():
        busy(0.001)
        leaf()
        leaf()

    mid_w = tr.span("mid", mid)
    root = tr.span("root", lambda: (busy(0.001), mid_w(), leaf()))
    root()
    spans = tr.spans
    assert [s["name"] for s in spans] == ["root", "mid", "leaf", "leaf", "leaf"]
    selfs = tracing.self_times(spans)
    for s in spans:
        children = sum(c["end"] - c["start"] for c in spans if c["parent"] == s["id"])
        assert math.isclose(selfs[s["id"]] + children, s["end"] - s["start"],
                            rel_tol=1e-12, abs_tol=1e-12)
    root_total = spans[0]["end"] - spans[0]["start"]
    assert math.isclose(sum(selfs.values()), root_total, rel_tol=1e-9)
    summary = tracing.summarize(tr)["spans"]
    assert summary["leaf"]["calls"] == 3
    assert all(s["run"] == "test" for s in spans)


def test_nested_same_name_counted_once():
    tr = tracing.Tracer("test")
    inner = tr.span("constants", lambda: None)
    outer = tr.span("constants", lambda: inner())
    outer()
    agg = tracing.summarize(tr)["spans"]["constants"]
    assert agg["calls"] == 2
    assert math.isclose(agg["time"], tr.spans[0]["end"] - tr.spans[0]["start"])


def test_layer_metrics_cover_every_per_layer_name():
    tr = tracing.Tracer("test")
    imports = [{m: 0.01 for m in tracing.IMPORT_ORDER}]
    m = tracing.layer_metrics([tracing.summarize(tr)], imports)
    names = {n for n, _, _ in tracing.PER_LAYER}
    assert names - set(m) == {"trace.wall_s", "trace.overhead_ratio"}
    assert set(tracing.COUNT_METRICS) <= set(m)


# -- inputs --------------------------------------------------------------


def test_generator_repeats_for_same_seed():
    a = W.generate_inputs("geodesic_sweep", 7)
    assert a == W.generate_inputs("geodesic_sweep", 7)
    assert a != W.generate_inputs("geodesic_sweep", 8)
    assert len(a["tori"]) == W.N_TORI and len(a["klein"]) == W.N_KLEIN
    assert len(a["points"]) == 2 * W.N_POINT_PAIRS
    for k in a["klein"]:
        assert 0 <= k["s"] < k["b"]
    assert W.generate_inputs("certify_cli", 7) == W.generate_inputs("certify_cli", 8) == {}


@pytest.mark.parametrize("s_steps", [0, 1, 7, 10, 19])
def test_klein_bottle_construction(s_steps):
    from dycksurf import surface
    a, b = 0.8, 1.3
    k = W.klein_bottle(a, b, b * s_steps / W.KLEIN_SHIFT_STEPS, surface)
    assert k.is_closed and k.euler_characteristic == 0 and not k.orientable
    assert all(abs(x - 2 * math.pi) < 1e-9 for x in k.vertex_angles)
    assert math.isclose(k.area, a * b)


def test_benchmark_json_matches_code():
    import json
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == tracing.PER_LAYER
    import run
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
