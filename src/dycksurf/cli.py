"""Command-line interface: build the extremal surface, certify its
systole, run the area optimizations and capacity bounds, and export
machine-readable reports.

Exit codes: 0 success, 2 bad input, 3 computation failure, 4 a
certification check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import sys
from dataclasses import dataclass

from . import __version__, capacity, constants, hexopt, surface
from .capacity import CapacityError
from .geodesic import GeodesicError, geodesics_to_json, systole
from .hexopt import HexOptError
from .surface import SurfaceError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_COMPUTE = 3
EXIT_CHECK_FAILED = 4


# fewest and most decimal digits a run may ask for; the fewest is the
# default, and above the most mpmath's time grows faster than linearly with
# the precision (300 000 digits ran for over 300 s)
MIN_DIGITS = 15
MAX_DIGITS = 10_000


class BadInput(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    digits: int = MIN_DIGITS
    lmax: float = 1.2
    mesh_h: float = 0.005
    tol: float = 1e-8
    budget: int = 400_000
    fmt: str = "json"
    out: str | None = None

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise BadInput(f"digits must be at least {MIN_DIGITS}")
        if self.digits > MAX_DIGITS:
            raise BadInput(f"digits must be at most {MAX_DIGITS}")
        for key in ("lmax", "mesh_h", "tol"):
            if not 0 < getattr(self, key) < math.inf:
                raise BadInput(f"{key.replace('_', '-')} must be finite and positive")
        if self.budget <= 0:
            raise BadInput("budget must be positive")
        if self.fmt not in ("json", "csv", "text"):
            raise BadInput(f"unknown format {self.fmt!r}")

    def digest(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# config-file key (and command-line option) -> RunConfig field; the field
# keeps the name `fmt`, so the config digest does not change
_CONFIG_KEYS = {("format" if f.name == "fmt" else f.name): f.name
                for f in dataclasses.fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment.  A key set twice, in
    either spelling of an option (mesh-h, mesh_h), is refused."""
    out, lines = {}, {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise BadInput(f"{path}:{ln}: expected 'key = value'")
            key, val = (x.strip() for x in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise BadInput(f"{path}:{ln}: unknown key {key!r}")
            name = _CONFIG_KEYS[key]
            if name in lines:
                raise BadInput(f"{path}:{ln}: key {key!r} already set on "
                               f"line {lines[name]}")
            out[name], lines[name] = val, ln
    return out


def build_config(args) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key, name in _CONFIG_KEYS.items():
        val = getattr(args, key, None)
        if val is not None:
            values[name] = val
    for key in ("digits", "budget"):
        if key in values:
            values[key] = int(values[key])
    for key in ("lmax", "mesh_h", "tol"):
        if key in values:
            values[key] = float(values[key])
    return RunConfig(**values)


# -- report plumbing ----------------------------------------------------


def _jsonable(value):
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    raise TypeError(f"not JSON serializable: {value!r}")


def _render(report: dict, cfg: RunConfig) -> str:
    if cfg.fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2,
                          default=_jsonable) + "\n"
    if cfg.fmt == "csv":
        lines = ["name,value,exact_form"]
        for r in report["constants"]:
            exact = (r["exact_form"] or "").replace(",", ";")
            lines.append(f"{r['name']},{r['value']},{exact}")
        return "\n".join(lines) + "\n"
    return _render_text(report) + "\n"


def _render_text(report: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(val, indent + 1))
        elif isinstance(val, list):
            lines.append(f"{pad}{key}: {json.dumps(val)}")
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines)


def _emit(report: dict, cfg: RunConfig) -> None:
    text = _render(report, cfg)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(cfg: RunConfig) -> dict:
    return {"version": __version__, "config_digest": cfg.digest()}


# -- subcommands --------------------------------------------------------


def cmd_constants(cfg: RunConfig, args) -> int:
    rows = []
    for name in constants.constant_names():
        value, exact = constants.named_constant(name, cfg.digits)
        rows.append({"name": name, "value": value, "exact_form": exact})
    report = _base_report(cfg)
    report["constants"] = rows
    _emit(report, cfg)
    return EXIT_OK


def cmd_build(cfg: RunConfig, args) -> int:
    s = surface.build_extremal_dyck()
    report = _base_report(cfg)
    report["surface"] = {
        "name": s.name,
        "faces": len(s.faces),
        "edges": s.n_edges,
        "vertices": s.n_vertices,
        "euler_characteristic": s.euler_characteristic,
        "orientable": s.orientable,
        "area": s.area,
        "gauss_bonnet_residual": s.gauss_bonnet_residual(),
        "cone_angles": sorted(round(a, 12) for a in s.cone_points().values()),
    }
    _emit(report, cfg)
    return EXIT_OK


def cmd_systole(cfg: RunConfig, args) -> int:
    s = surface.build_extremal_dyck()
    res = systole(s, cfg.lmax, cfg.budget)
    report = _base_report(cfg)
    report["search"] = {"lmax": cfg.lmax, "complete": res.complete,
                       "count": len(res.paths)}
    report["geodesics"] = geodesics_to_json(res.paths)
    if not res.found:
        report["message"] = f"no closed geodesic <= {cfg.lmax}"
        _emit(report, cfg)
        return EXIT_COMPUTE
    report["systole"] = res.length
    _emit(report, cfg)
    return EXIT_OK if res.complete else EXIT_COMPUTE


def cmd_hexopt(cfg: RunConfig, args) -> int:
    p = constants.SurfaceParameters.paper()
    cert, checks = hexopt_stage(p, constants.constant_value("area_extremal"))
    report = _base_report(cfg)
    report["hexopt"] = cert
    _emit(report, cfg)
    ok = all(c["pass"] for c in checks)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_capacity(cfg: RunConfig, args) -> int:
    report = _base_report(cfg)
    code = EXIT_OK
    target = args.target
    if target == "upper":
        res = capacity.flat_capacity_upper(mesh_check=args.mesh_check,
                                           mesh_h=cfg.mesh_h * 2)
        report["upper"] = {
            "closed_form": res.closed_form.value,
            "mesh": res.mesh.value if res.mesh else None,
            "consistent": res.consistent,
        }
        if not res.consistent:
            code = EXIT_CHECK_FAILED
    elif target == "lower":
        est = capacity.muetzel_bound(capacity.hyperbolic_collar_profile(),
                                     tol=cfg.tol)
        report["lower"] = {"value": est.value,
                          "error_estimate": est.error_estimate,
                          "bracket": est.meta["bracket"]}
    elif target == "fem":
        # the FEM meshes on its own scale; --mesh-h sizes distance fields
        flat, hyp = capacity.collar_fem_pair()
        report["fem"] = {"flat_collar": flat.value,
                        "hyperbolic_chart": hyp.value}
    else:  # certify
        cert, _ = capacity_stage(constants.SurfaceParameters.paper(), cfg,
                                 include_fem=args.fem)
        report["separation"] = cert
        if not cert["separated"]:
            code = EXIT_CHECK_FAILED
    _emit(report, cfg)
    return code


# -- verification pipeline ----------------------------------------------


def _check(checks: list, name: str, value, ok: bool, tolerance=None,
           provenance: str = "closed-form") -> bool:
    checks.append({"name": name, "value": value, "pass": bool(ok),
                   "tolerance": tolerance, "provenance": provenance})
    return bool(ok)


def hexopt_stage(p, area_closed: float) -> tuple[dict, list[dict]]:
    """The hexopt certificate and the three checks read from it."""
    cert = hexopt.hexopt_certificate(p.h, p.theta, area_closed)
    checks: list[dict] = []
    hx = cert["hex_min"]
    ok = abs(hx["area"] - hx["closed_form"]) <= 1e-8
    ok &= abs(hx["angles"][0] - hx["argmin_target"][0]) <= 1e-4
    ok &= abs(hx["angles"][1] - hx["argmin_target"][1]) <= 1e-4
    _check(checks, "hexagon minimum", hx["area"], ok, 1e-8)
    tr = cert["tradeoff"]
    ok = abs(tr["h_star"] - p.h) <= 1e-8
    ok &= abs(tr["stationarity_residual"]) <= 1e-9
    _check(checks, "height tradeoff equilibrium", tr["h_star"], ok, 1e-8)
    worst_margin = min(c["margin"] for c in cert["cases"].values())
    _check(checks, "alternative-decomposition margins", worst_margin,
           worst_margin >= 0.006, 0.006)
    return cert, checks


def capacity_stage(p, cfg: RunConfig,
                   include_fem: bool = False) -> tuple[dict, list[dict]]:
    """The separation certificate and the three checks read from it; the
    width-integral bound is computed once, at the configured tol."""
    lower = capacity.muetzel_bound(capacity.hyperbolic_collar_profile(),
                                   tol=cfg.tol)
    cert = capacity.separation_certificate(p, include_fem=include_fem,
                                           lower=lower)
    checks: list[dict] = []
    ok = abs(cert["upper"] - 2.283093046469848) <= 1e-9
    _check(checks, "flat collar capacity upper", cert["upper"], ok, 1e-9)
    lo, hi = lower.meta["bracket"]
    ok = abs(lower.value - 2.2946094708421385) <= 1e-9
    ok &= lo <= lower.value <= hi and lo > capacity.SEPARATION_LEVEL
    _check(checks, "hyperbolic collar capacity lower", lower.value, ok, 1e-9,
           "quadrature")
    worst = min(cert["margin_upper"], cert["margin_lower"])
    _check(checks, "capacity separation margins", worst, worst >= 4e-3, 4e-3)
    return cert, checks


def run_pipeline(cfg: RunConfig,
                 perturb_h: float = 0.0) -> tuple[dict, str | None, dict]:
    """Build -> systole -> area -> hexopt -> capacity -> certificate.

    Returns the report, the name of the first failing stage (or None) and
    the hexopt and separation certificates the checks were read from.
    """
    report = _base_report(cfg)
    checks: list[dict] = []
    first_fail: str | None = None

    def stage_fail(stage: str):
        nonlocal first_fail
        if first_fail is None:
            first_fail = stage

    p = constants.SurfaceParameters.paper()
    if perturb_h:
        p = dataclasses.replace(p, h=p.h + perturb_h)
    residuals = constants.check_defining_relations(p)
    worst = max(abs(r) for _, r in residuals)
    if not _check(checks, "defining-relation residuals", worst,
                  worst <= 1e-9, 1e-9):
        stage_fail("build")
        report["checks"] = checks
        report["first_failure"] = first_fail
        return report, first_fail, {}

    s = surface.build_extremal_dyck(p)
    ok = s.euler_characteristic == -1 and not s.orientable
    ok &= abs(s.gauss_bonnet_residual()) <= 1e-9
    if not _check(checks, "topology and curvature bookkeeping",
                  s.gauss_bonnet_residual(), ok, 1e-9, "mesh"):
        stage_fail("build")

    area_mesh = s.area
    area_closed = constants.constant_value("area_extremal")
    area_direct = 2 * p.delta + 3 * p.h * math.sqrt(1 - 4 * p.h * p.h)
    ok = abs(area_closed - area_direct) <= 1e-12
    ok &= abs(area_mesh - area_closed) <= 1e-9
    if not _check(checks, "area (two closed forms and mesh)", area_mesh,
                  ok, 1e-12):
        stage_fail("area")

    res = systole(s, cfg.lmax, cfg.budget)
    if not res.found:
        _check(checks, "systole search", None, False, None, "mesh")
        report["systole"] = {
            "message": f"no closed geodesic <= {cfg.lmax}",
            "complete": res.complete,
        }
        stage_fail("systole")
    else:
        sys_len = res.length
        ok = res.complete and abs(sys_len - 1.0) <= 1e-6
        ok &= all(g.length > 1.0 - 1e-6 for g in res.paths)
        if not _check(checks, "unit systole certified", sys_len, ok, 1e-6,
                      "mesh"):
            stage_fail("systole")
        ratio = sys_len ** 2 / area_mesh
        ratio_closed = constants.constant_value("systolic_ratio_dyck")
        if not _check(checks, "systolic ratio", ratio,
                      abs(ratio - ratio_closed) <= 1e-6, 1e-6):
            stage_fail("systole")
        report["systole"] = {"value": sys_len,
                            "count": len(res.paths),
                            "complete": res.complete}

    hexopt_cert, hexopt_checks = hexopt_stage(p, area_closed)
    sep_cert, capacity_checks = capacity_stage(p, cfg)
    # the last capacity check, the separation margins, is the certificate
    stages = ["hexopt"] * 3 + ["capacity"] * 2 + ["certificate"]
    for stage, check in zip(stages, hexopt_checks + capacity_checks):
        checks.append(check)
        if not check["pass"]:
            stage_fail(stage)

    report["area"] = area_mesh
    report["checks"] = checks
    report["first_failure"] = first_fail
    report["all_passed"] = first_fail is None
    return report, first_fail, {"hexopt_certificate": hexopt_cert,
                                "separation_certificate": sep_cert}


def cmd_verify(cfg: RunConfig, args) -> int:
    perturb_h = args.perturb_h or 0.0
    if not math.isfinite(perturb_h):
        raise BadInput("perturb-h must be finite")
    report, first_fail, _ = run_pipeline(cfg, perturb_h=perturb_h)
    _emit(report, cfg)
    return EXIT_OK if first_fail is None else EXIT_CHECK_FAILED


def cmd_certify(cfg: RunConfig, args) -> int:
    report, first_fail, certificates = run_pipeline(cfg)
    report.update(certificates)
    _emit(report, cfg)
    return EXIT_OK if first_fail is None else EXIT_CHECK_FAILED


def cmd_export(cfg: RunConfig, args) -> int:
    if not cfg.out:
        raise BadInput("export requires --out")
    target = args.target
    if target == "surface":
        surface.build_extremal_dyck().save_json(cfg.out)
    elif target == "annulus":
        surface.build_collar_flat().save_json(cfg.out)
    elif target == "geodesics":
        s = surface.build_extremal_dyck()
        res = systole(s, cfg.lmax, cfg.budget)
        with open(cfg.out, "w") as fh:
            json.dump(geodesics_to_json(res.paths), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
    elif target == "profile":
        prof = capacity.hyperbolic_collar_profile()
        ts = [prof.ell * i / 256 for i in range(256)]
        data = {"ell": prof.ell, "t": ts,
                "a": [prof.a(t) for t in ts],
                "b": [prof.b(t) for t in ts]}
        with open(cfg.out, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    # SUPPRESS defaults keep pre-subcommand flags from being clobbered by
    # the subparser's copy of the same option
    sup = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=sup,
                        help="flat key = value config file")
    common.add_argument("--digits", type=int, default=sup,
                        help=f"decimal digits ({MIN_DIGITS} to {MAX_DIGITS})")
    common.add_argument("--lmax", type=float, default=sup,
                        help="geodesic search cutoff")
    common.add_argument("--mesh-h", dest="mesh_h", type=float, default=sup,
                        help="distance-field mesh size")
    common.add_argument("--tol", type=float, default=sup,
                        help="quadrature tolerance")
    common.add_argument("--budget", type=int, default=sup,
                        help="unfolding step budget")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=sup, help="output format (default json)")
    common.add_argument("--json", dest="format", action="store_const",
                        const="json", default=sup,
                        help="shorthand for --format json")
    common.add_argument("--out", default=sup,
                        help="write the report to this path")
    ap = argparse.ArgumentParser(
        prog="dycksurf", parents=[common],
        description="Extremal Dyck's surface: systole, area optimization "
                    "and collar capacity certificates.")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("constants", parents=[common],
                   help="constant registry with exact forms")
    sub.add_parser("build", parents=[common],
                   help="build the surface and report invariants")
    sub.add_parser("systole", parents=[common],
                   help="closed-geodesic search up to --lmax")
    sub.add_parser("hexopt", parents=[common],
                   help="hexagon/tradeoff/case certificates")
    cap = sub.add_parser("capacity", parents=[common],
                         help="collar capacity estimates")
    cap.add_argument("target", nargs="?", default="certify",
                     choices=("upper", "lower", "fem", "certify"))
    cap.add_argument("--mesh-check", action="store_true",
                     help="cross-check the closed form on the mesh")
    cap.add_argument("--fem", action="store_true",
                     help="include FEM values in the certificate")
    sub.add_parser("certify", parents=[common],
                   help="full machine-readable certificate")
    ver = sub.add_parser("verify", parents=[common],
                         help="run the whole pipeline and check")
    ver.add_argument("--perturb-h", dest="perturb_h", type=float,
                     default=0.0,
                     help="test hook: offset h to force a residual failure")
    exp = sub.add_parser("export", parents=[common],
                         help="write JSON artifacts")
    exp.add_argument("target",
                     choices=("surface", "annulus", "geodesics", "profile"))
    return ap


_HANDLERS = {
    "constants": cmd_constants,
    "build": cmd_build,
    "systole": cmd_systole,
    "hexopt": cmd_hexopt,
    "capacity": cmd_capacity,
    "certify": cmd_certify,
    "verify": cmd_verify,
    "export": cmd_export,
}


def main(argv=None) -> int:
    # the import-time objects live on; no full collection need rescan them
    if not gc.get_freeze_count():
        gc.freeze()
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        cfg = build_config(args)
        # refused before any work is done
        if cfg.fmt == "csv" and args.command != "constants":
            raise BadInput("csv format is only defined for `constants`")
    except (BadInput, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return _HANDLERS[args.command](cfg, args)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (SurfaceError, GeodesicError, HexOptError, CapacityError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
