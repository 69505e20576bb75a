"""Workload definitions: seeded inputs, the timed operations and their checks.

A workload is a list of parts; each part runs in its own fresh interpreter
(see child.py).  A part returns one record per operation:

    {"op": name, "phase": end-to-end metric the time adds to,
     "seconds": wall time of the call, "ok": check passed,
     "known_defect": failure belongs to a documented defect family,
     "detail": what the check saw}

Checks compare against closed forms or invariants that hold for any seed,
never against whole report bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time

LEVEL = 2.29            # capacity separation level
MARGIN = 0.004          # both separation margins must exceed this
SYSTOLE_TOL = 1e-6      # unit systole of the extremal surface
FAMILY_TOL = 1e-9       # torus / Klein bottle systoles and symmetry

N_TORI = 16
N_KLEIN = 16
N_POINT_PAIRS = 4
EXTREMAL_FACES = 42       # faces of surface.build_extremal_dyck()
CLOSED_LMAX = 2.0
POINT_LMAX = 0.8
FAMILY_LMAX_FACTOR = 2.2  # search cutoff over the closed-form systole
KLEIN_SHIFT_STEPS = 20    # side shift s = k * b / 20, k drawn by the seed

CLI_COMMANDS = [
    ("constants", ["constants"], None),
    ("build", ["build"], None),
    ("systole", ["systole"], "systole_s"),
    ("hexopt", ["hexopt"], "hexopt_s"),
    ("capacity_certify_fem", ["capacity", "certify", "--fem"], None),
    ("verify", ["verify"], "verify_s"),
    ("certify", ["certify"], "certify_s"),
]

# flat collar at two mesh sizes, Fermi chart at two grids
FEM_LADDER = [("flat", 0.03), ("flat", 0.015),
              ("chart", (192, 48)), ("chart", (384, 96))]

# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "certify_cli": {
        "parts": len(CLI_COMMANDS),
        "phases": ["verify_s", "certify_s", "systole_s", "hexopt_s"],
    },
    "capacity_mesh": {
        "parts": 1,
        "phases": ["mesh_check_s", "fem_ladder_s"],
    },
    "geodesic_sweep": {
        "parts": 1,
        "phases": ["closed_geodesics_s", "point_distance_s",
                   "systole_family_s"],
    },
}



# -- seeded inputs ------------------------------------------------------


def generate_inputs(workload: str, seed: int) -> dict:
    """Plain numbers for one pass; the same seed gives the same inputs.

    Only geodesic_sweep is seeded; the other workloads run fixed commands.
    The search cost of a flat surface grows with (cutoff)^2 / area, so the
    shapes are drawn with that ratio in a narrow band and the seed mostly
    varies scale, shear, shift and position: the work per pass stays
    nearly constant across seeds.
    """
    if workload != "geodesic_sweep":
        return {}
    rng = random.Random(seed)
    tori = []
    for _ in range(N_TORI):
        # reduced basis: |(a, 0)| <= |(shear, b)|, |shear| <= a / 2
        a = rng.uniform(0.7, 1.3)
        shear = a * rng.uniform(-0.5, 0.5)
        b = a * rng.uniform(math.sqrt(1.0 - (shear / a) ** 2), 1.2)
        tori.append({"a": a, "b": b, "shear": shear})
    klein = []
    for _ in range(N_KLEIN):
        a = rng.uniform(0.6, 1.0)
        b = a * rng.uniform(1.5, 1.7)
        klein.append({"a": a, "b": b,
                      "s": b * rng.randrange(KLEIN_SHIFT_STEPS)
                      / KLEIN_SHIFT_STEPS})
    points = []
    for _ in range(2 * N_POINT_PAIRS):
        w = [rng.uniform(0.1, 1.0) for _ in range(3)]
        total = sum(w)
        points.append({"face": rng.randrange(EXTREMAL_FACES),
                       "bary": [x / total for x in w]})
    return {"tori": tori, "klein": klein, "points": points}


# -- closed forms for the checks ----------------------------------------


def paper_h() -> float:
    """Collar half-height h = sqrt((8 - sqrt 19) / 72)."""
    return math.sqrt((8.0 - math.sqrt(19.0)) / 72.0)


def extremal_area() -> float:
    """A(h) = 2(1/2 - h) + 3h sqrt(1 - 4h^2)."""
    h = paper_h()
    return 2.0 * (0.5 - h) + 3.0 * h * math.sqrt(1.0 - 4.0 * h * h)


def shortest_lattice_vector(a: float, b: float, shear: float) -> float:
    """Shortest nonzero vector of the lattice spanned by (a, 0), (shear, b)."""
    return min(math.hypot(m * a + n * shear, n * b)
               for m in range(-4, 5) for n in range(-4, 5) if (m, n) != (0, 0))


def klein_bottle(a: float, b: float, s: float, surface_mod):
    """Flat a x b Klein bottle: top glued to bottom by translation, right
    side to left by the glide (a, y) ~ (0, s - y mod b).

    The vertices on each side sit at {0, b/2, s, s + b/2} mod b, a set the
    side map preserves, so the rectangle splits into horizontal strips whose
    side edges glue edge to edge.
    """
    ys: list[float] = []
    for y in (0.0, b / 2, s % b, (s + b / 2) % b):
        if all(abs(y - z) > 1e-12 for z in ys):
            ys.append(y)
    levels = sorted(ys) + [b]
    tris = []
    for y0, y1 in zip(levels, levels[1:]):
        p00, p10, p11, p01 = (0.0, y0), (a, y0), (a, y1), (0.0, y1)
        tris += [(p00, p10, p11), (p00, p11, p01)]

    def side_image(p, q):
        """Image of a top or right side edge under its gluing, else None."""
        if abs(p[1] - b) < 1e-12 and abs(q[1] - b) < 1e-12:
            return (p[0], 0.0), (q[0], 0.0)
        if abs(p[0] - a) < 1e-12 and abs(q[0] - a) < 1e-12:
            # map the midpoint mod b, then the ends relative to it, so an
            # end on the seam y = 0 ~ b lands on the correct copy
            ym = (p[1] + q[1]) / 2
            im = (s - ym) % b
            return (0.0, im + ym - p[1]), (0.0, im + ym - q[1])
        return None

    def same(p, q):
        return abs(p[0] - q[0]) < 1e-9 and abs(p[1] - q[1]) < 1e-9

    slots = [(f, e) for f in range(len(tris)) for e in range(3)]
    ends = {(f, e): (tris[f][e], tris[f][(e + 1) % 3]) for f, e in slots}
    gluings, used = [], set()
    for f, e in slots:
        if (f, e) in used:
            continue
        p, q = side_image(*ends[(f, e)]) or ends[(f, e)]
        for g, e2 in slots:
            if (g, e2) == (f, e) or (g, e2) in used:
                continue
            r, t = ends[(g, e2)]
            if same(p, r) and same(q, t) or same(p, t) and same(q, r):
                # flip pairs the start of (f, e) with the end of (g, e2)
                gluings.append((f, e, g, e2, not same(p, r)))
                used.update({(f, e), (g, e2)})
                break
    lengths = [tuple(math.dist(t[k], t[(k + 1) % 3]) for k in range(3))
               for t in tris]
    return surface_mod.ConeSurface(lengths, gluings, name=f"klein({a},{b},{s})")


# -- parts --------------------------------------------------------------


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _record(op, phase, seconds, ok, detail, known_defect=False):
    return {"op": op, "phase": phase, "seconds": seconds, "ok": bool(ok),
            "known_defect": bool(known_defect and not ok), "detail": detail}


def _run_cli(cli, argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    seconds = time.perf_counter() - t0
    return code, buf.getvalue(), seconds


def check_cli(name: str, code: int, report: dict) -> tuple[bool, str]:
    """Invariants of one CLI report; exit code 0 is required for all."""
    if code != 0:
        return False, f"exit code {code}"
    h, area = paper_h(), extremal_area()
    if name == "constants":
        vals = {r["name"]: float(r["value"]) for r in report["constants"]}
        ok = abs(vals["h"] - h) <= 1e-12 and abs(vals["area_extremal"] - area) <= 1e-12
        return ok, f"h={vals['h']!r} area={vals['area_extremal']!r}"
    if name == "build":
        s = report["surface"]
        ok = (s["euler_characteristic"] == -1 and not s["orientable"]
              and abs(s["gauss_bonnet_residual"]) <= 1e-9
              and abs(s["area"] - area) <= 1e-9)
        return ok, f"chi={s['euler_characteristic']} area={s['area']!r}"
    if name == "systole":
        ok = (report["search"]["complete"]
              and abs(report["systole"] - 1.0) <= SYSTOLE_TOL)
        return ok, f"systole={report['systole']!r}"
    if name == "hexopt":
        return _check_hexopt(report["hexopt"], h)
    if name == "capacity_certify_fem":
        sep = report["separation"]
        ok, detail = _check_separation(sep)
        ok &= sep["fem_flat"] < LEVEL < sep["fem_hyperbolic"]
        return ok, detail + f" fem={sep['fem_flat']!r},{sep['fem_hyperbolic']!r}"
    if name == "verify":
        ok = (report["all_passed"] and report["systole"]["complete"]
              and abs(report["systole"]["value"] - 1.0) <= SYSTOLE_TOL)
        return ok, f"all_passed={report['all_passed']} systole={report['systole']['value']!r}"
    if name == "certify":
        ok1 = report["all_passed"] and abs(report["systole"]["value"] - 1.0) <= SYSTOLE_TOL
        ok2, d2 = _check_separation(report["separation_certificate"])
        ok3, d3 = _check_hexopt(report["hexopt_certificate"], h)
        return ok1 and ok2 and ok3, f"all_passed={report['all_passed']} {d2} {d3}"
    raise ValueError(f"no check for {name}")


def _check_separation(sep: dict) -> tuple[bool, str]:
    ok = (sep["separated"] and sep["margin_upper"] > MARGIN
          and sep["margin_lower"] > MARGIN)
    return ok, f"margins={sep['margin_upper']:.6f},{sep['margin_lower']:.6f}"


def _check_hexopt(cert: dict, h: float) -> tuple[bool, str]:
    closed = h * math.sqrt(1.0 - 4.0 * h * h)
    ok = (abs(cert["hex_min"]["area"] - closed) <= 1e-8
          and abs(cert["tradeoff"]["h_star"] - h) <= 1e-8
          and all(c["margin"] >= 0.006 for c in cert["cases"].values()))
    return ok, f"hex_min={cert['hex_min']['area']!r}"


def run_certify_cli(part: int, inputs: dict, mods: dict) -> list[dict]:
    name, argv, phase = CLI_COMMANDS[part]
    code, out, seconds = _run_cli(mods["cli"], argv)
    try:
        ok, detail = check_cli(name, code, json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:
        ok, detail = False, f"unreadable report: {exc!r}"
    return [_record(name, phase, seconds, ok, detail)]


def check_fem_ladder(values: dict) -> tuple[bool, str]:
    """Refinement never raises the P1 energy; flat < 2.29 < chart."""
    flat = [values[("flat", h)] for _, h in FEM_LADDER[:2]]
    chart = [values[("chart", g)] for _, g in FEM_LADDER[2:]]
    ok = flat[1] <= flat[0] and chart[1] <= chart[0]
    ok &= max(flat) < LEVEL < min(chart)
    return ok, f"flat={flat} chart={chart}"


def check_mesh_check(code: int, report: dict) -> tuple[bool, str]:
    up = report["upper"]
    ok = (code == 0 and up["consistent"]
          and abs(up["mesh"] - up["closed_form"]) <= 1e-3
          and LEVEL - up["closed_form"] > MARGIN)
    return ok, f"exit={code} closed={up['closed_form']!r} mesh={up['mesh']!r}"


def run_capacity_mesh(part: int, inputs: dict, mods: dict) -> list[dict]:
    cap, surf = mods["capacity"], mods["surface"]
    code, out, seconds = _run_cli(mods["cli"], ["capacity", "upper",
                                                "--mesh-check"])
    try:
        ok, detail = check_mesh_check(code, json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:
        ok, detail = False, f"unreadable report: {exc!r}"
    recs = [_record("mesh_check", "mesh_check_s", seconds, ok, detail)]
    values, ladder = {}, []
    for kind, arg in FEM_LADDER:
        if kind == "flat":
            est, sec = _timed(lambda: cap.fem_capacity(
                surf.build_collar_flat(), mesh_h=arg))
        else:
            est, sec = _timed(lambda: cap.fem_capacity(
                cap.fermi_chart_annulus(cap.hyperbolic_collar_profile(),
                                        n_t=arg[0], n_s=arg[1]),
                mesh_h=10.0))
        values[(kind, arg)] = est.value
        ladder.append((kind, arg, sec))
    ok, detail = check_fem_ladder(values)
    recs += [_record(f"fem_{kind}_{arg}", "fem_ladder_s", sec, ok, detail)
             for kind, arg, sec in ladder]
    return recs


def check_family(res, expected: float) -> tuple[bool, str]:
    got = res.length if res.found else None
    ok = (res.found and res.complete
          and abs(res.length - expected) <= FAMILY_TOL)
    return ok, f"systole={got!r} expected={expected!r} complete={res.complete}"


def check_symmetric(d1, d2) -> tuple[bool, str]:
    if d1.reachable != d2.reachable:
        return False, f"reachable {d1.reachable} vs {d2.reachable}"
    ok = not d1.reachable or abs(d1.distance - d2.distance) <= FAMILY_TOL
    return ok, f"d={d1.distance!r},{d2.distance!r}"


def run_geodesic_sweep(part: int, inputs: dict, mods: dict) -> list[dict]:
    surf, geo = mods["surface"], mods["geodesic"]
    recs = []

    res, sec = _timed(lambda: geo.enumerate_closed_geodesics(
        surf.build_extremal_dyck(), CLOSED_LMAX))
    lengths = [p.length for p in res.paths]
    ok = (res.complete and bool(lengths)
          and abs(lengths[0] - 1.0) <= SYSTOLE_TOL
          and lengths == sorted(lengths) and lengths[-1] <= CLOSED_LMAX + 1e-9)
    recs.append(_record("closed_geodesics", "closed_geodesics_s", sec, ok,
                        f"found={len(lengths)} shortest={lengths[:1]!r}"))

    s = surf.build_extremal_dyck()
    pts = []
    for p in inputs["points"]:
        ch = s.chart(p["face"])
        w = p["bary"]
        pts.append((p["face"], tuple(float(sum(w[k] * ch[k][i] for k in range(3)))
                                     for i in range(2))))
    for i in range(N_POINT_PAIRS):
        x, y = pts[2 * i], pts[2 * i + 1]
        d1, s1 = _timed(lambda: geo.point_distance(s, x, y, POINT_LMAX))
        d2, s2 = _timed(lambda: geo.point_distance(s, y, x, POINT_LMAX))
        ok, detail = check_symmetric(d1, d2)
        recs += [_record(f"point_distance_{i}", "point_distance_s", s1, ok, detail),
                 _record(f"point_distance_{i}_rev", "point_distance_s", s2, ok, detail)]

    for t in inputs["tori"]:
        expected = shortest_lattice_vector(t["a"], t["b"], t["shear"])
        res, sec = _timed(lambda: geo.systole(
            surf.subdivide(surf.build_flat_torus(t["a"], t["b"], t["shear"])),
            FAMILY_LMAX_FACTOR * expected))
        ok, detail = check_family(res, expected)
        recs.append(_record("torus_systole", "systole_family_s", sec, ok, detail))
    for k in inputs["klein"]:
        expected = min(k["a"], k["b"])
        res, sec = _timed(lambda: geo.systole(
            klein_bottle(k["a"], k["b"], k["s"], surf),
            FAMILY_LMAX_FACTOR * expected))
        ok, detail = check_family(res, expected)
        # a failure here is counted in `failed` but does not make the run
        # incorrect: when s != 0 the one-sided core misses every vertex,
        # which the systole search cannot find yet (ROADMAP item 3)
        recs.append(_record("klein_systole", "systole_family_s", sec, ok,
                            detail + f" shift={k['s']!r}", known_defect=True))
    return recs


def expected_ops(workload: str) -> int:
    """Operations a part attempts; all count as failed if it crashes."""
    return {"certify_cli": 1, "capacity_mesh": 1 + len(FEM_LADDER),
            "geodesic_sweep": 1 + 2 * N_POINT_PAIRS + N_TORI + N_KLEIN}[workload]


RUNNERS = {
    "certify_cli": run_certify_cli,
    "capacity_mesh": run_capacity_mesh,
    "geodesic_sweep": run_geodesic_sweep,
}
