import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dycksurf
from dycksurf import capacity, hexopt
from dycksurf.cli import (
    BadInput,
    RunConfig,
    build_config,
    load_config_file,
    main,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.digits == 15 and cfg.lmax == 1.2 and cfg.fmt == "json"

    def test_invariants(self):
        with pytest.raises(BadInput):
            RunConfig(digits=10)
        with pytest.raises(BadInput):
            RunConfig(lmax=0.0)
        with pytest.raises(BadInput):
            RunConfig(mesh_h=-1.0)

    def test_digest_stable(self):
        assert RunConfig().digest() == RunConfig().digest()
        assert RunConfig().digest() != RunConfig(lmax=1.3).digest()


class TestConfigFile:
    def test_precedence_flags_over_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lmax = 0.9\ndigits = 16  # comment\n\n")
        values = load_config_file(str(cfgfile))
        assert values == {"lmax": "0.9", "digits": "16"}

        class Args:
            config = str(cfgfile)
            digits = None
            lmax = 1.1
            mesh_h = None
            tol = None
            budget = None
            format = None
            out = None

        cfg = build_config(Args())
        assert cfg.lmax == 1.1  # flag wins
        assert cfg.digits == 16  # file beats default

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("volume = 11\n")
        with pytest.raises(BadInput):
            load_config_file(str(cfgfile))

    def test_seed_is_not_a_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = 1\n")
        assert main(["--config", str(cfgfile), "constants"]) == 2
        assert "unknown key 'seed'" in capsys.readouterr().err

    def test_bad_flag_exit_code(self, capsys):
        assert main(["--digits", "10", "constants"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["lmax", "mesh-h", "tol"])
    def test_non_finite_float_exit_code(self, tmp_path, capsys, key, value):
        assert main([f"--{key}", value, "constants"]) == 2
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        assert main(["--config", str(cfgfile), "constants"]) == 2
        assert capsys.readouterr().out == ""


class TestConstants:
    def test_json_registry(self, capsys):
        code, rep = run_json(capsys, "constants")
        assert code == 0
        names = {r["name"] for r in rep["constants"]}
        assert {"h", "theta", "area_extremal", "ell"} <= names
        h = next(r for r in rep["constants"] if r["name"] == "h")
        assert abs(float(h["value"]) - 0.2248796) < 5e-8
        assert "sqrt" in h["exact_form"]

    def test_digits_consistency(self, capsys):
        _, r15 = run_json(capsys, "constants")
        _, r30 = run_json(capsys, "--digits", "30", "constants")
        v15 = {r["name"]: float(r["value"]) for r in r15["constants"]}
        v30 = {r["name"]: float(r["value"]) for r in r30["constants"]}
        for name in v15:
            assert v15[name] == pytest.approx(v30[name], abs=1e-13)
            assert len(r30["constants"][0]["value"]) > len(
                r15["constants"][0]["value"])

    def test_csv(self, capsys):
        code, out = run(capsys, "constants", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,value,exact_form"
        assert len(lines) == 1 + len(json.loads(
            run(capsys, "constants")[1])["constants"])


class TestBuild:
    def test_report(self, capsys):
        code, rep = run_json(capsys, "build")
        assert code == 0
        s = rep["surface"]
        assert s["euler_characteristic"] == -1
        assert not s["orientable"]
        assert s["area"] == pytest.approx(1.152794345841759, abs=1e-12)
        assert abs(s["gauss_bonnet_residual"]) < 1e-9
        assert len(s["cone_angles"]) == 8


class TestSystole:
    def test_default_run(self, capsys):
        code, rep = run_json(capsys, "systole")
        assert code == 0
        assert rep["search"]["complete"]
        assert rep["systole"] == pytest.approx(1.0, abs=1e-9)
        lengths = [g["length"] for g in rep["geodesics"]]
        assert lengths == sorted(lengths)
        assert {g["type"] for g in rep["geodesics"]} == {"soul",
                                                         "saddle-chain"}

    def test_low_cutoff_incomplete(self, capsys):
        code, rep = run_json(capsys, "systole", "--lmax", "0.5")
        assert code == 3
        assert rep["message"] == "no closed geodesic <= 0.5"


class TestHexoptAndCapacity:
    def test_hexopt(self, capsys):
        code, rep = run_json(capsys, "hexopt")
        assert code == 0
        assert rep["hexopt"]["hex_min"]["area"] == pytest.approx(
            0.2008512019731, abs=1e-8)

    def test_hexopt_fails_on_any_check(self, capsys, monkeypatch):
        # only the hexagon-minimum check fails; the case margins still pass
        real = hexopt.minimize_hex
        monkeypatch.setattr(hexopt, "minimize_hex",
                            lambda d: hexopt.HexMinimum(real(d).angles, 0.3))
        code, rep = run_json(capsys, "hexopt")
        assert code == 4
        assert rep["hexopt"]["hex_min"]["area"] == 0.3
        code, rep = run_json(capsys, "verify")
        assert code == 4
        assert rep["first_failure"] == "hexopt"

    def test_capacity_lower(self, capsys):
        code, rep = run_json(capsys, "capacity", "lower")
        assert code == 0
        assert rep["lower"]["value"] == pytest.approx(2.2946094708,
                                                      abs=1e-9)
        lo, hi = rep["lower"]["bracket"]
        assert 2.29 < lo <= rep["lower"]["value"] <= hi
        assert "romberg" not in rep["lower"]

    def test_capacity_upper_closed_form(self, capsys):
        code, rep = run_json(capsys, "capacity", "upper")
        assert code == 0
        assert rep["upper"]["closed_form"] == pytest.approx(
            2.2830930464698, abs=1e-9)
        assert rep["upper"]["mesh"] is None

    def test_capacity_upper_mesh_check(self, capsys):
        code, rep = run_json(capsys, "--mesh-h", "0.01", "capacity", "upper",
                             "--mesh-check")
        assert code == 0
        assert rep["upper"]["consistent"] is True
        assert abs(rep["upper"]["mesh"] - rep["upper"]["closed_form"]) <= 1e-3

    def test_capacity_certify(self, capsys):
        code, rep = run_json(capsys, "capacity", "certify")
        assert code == 0
        assert rep["separation"]["separated"]

    def test_capacity_fem_matches_certificate(self, capsys):
        code, rep = run_json(capsys, "capacity", "fem")
        assert code == 0
        code, cert = run_json(capsys, "capacity", "certify", "--fem")
        assert code == 0
        assert rep["fem"] == {
            "flat_collar": cert["separation"]["fem_flat"],
            "hyperbolic_chart": cert["separation"]["fem_hyperbolic"]}

    def test_capacity_certify_failed_separation(self, capsys, monkeypatch):
        # margins 0.0069 and 0.0046 do not clear a 0.01 tolerance
        monkeypatch.setattr(capacity, "separation_certificate", functools.partial(
            capacity.separation_certificate, tol=0.01))
        code, rep = run_json(capsys, "capacity", "certify")
        assert code == 4
        assert not rep["separation"]["separated"]


class TestVerify:
    def test_green_run(self, capsys):
        code, rep = run_json(capsys, "verify")
        assert code == 0
        assert rep["all_passed"] and rep["first_failure"] is None
        assert rep["systole"]["value"] == pytest.approx(1.0, abs=1e-9)
        assert rep["area"] == pytest.approx(1.152794, abs=5e-7)
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["systolic ratio"]["value"] == pytest.approx(
            0.867457, abs=5e-7)
        assert all(c["pass"] for c in rep["checks"])
        assert all("provenance" in c and "tolerance" in c
                   for c in rep["checks"])
        assert by_name["hexagon minimum"]["provenance"] == "closed-form"

    def test_deterministic_output(self, capsys):
        _, out1 = run(capsys, "verify")
        _, out2 = run(capsys, "verify")
        assert out1 == out2

    def test_perturbation_hook(self, capsys):
        code, rep = run_json(capsys, "verify", "--perturb-h", "0.01")
        assert code == 4
        assert rep["first_failure"] == "build"
        assert not rep["checks"][0]["pass"]


class TestCertify:
    def test_full_certificate(self, capsys):
        code, rep = run_json(capsys, "certify")
        assert code == 0
        assert rep["separation_certificate"]["separated"]
        assert rep["hexopt_certificate"]["tradeoff"][
            "stationarity_residual"] == pytest.approx(0.0, abs=1e-9)


class TestCertifyComputesOnce:
    def test_each_certificate_computed_once(self, capsys, monkeypatch):
        calls = {"minimize_hex": 0, "muetzel_bound": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(hexopt, "minimize_hex")
        counted(capacity, "muetzel_bound")
        code, rep = run_json(capsys, "--tol", "1e-6", "certify")
        assert code == 0
        assert calls == {"minimize_hex": 1, "muetzel_bound": 1}
        # the certificate carries the bound computed at the configured tol
        by_name = {c["name"]: c for c in rep["checks"]}
        assert (rep["separation_certificate"]["lower"]
                == by_name["hyperbolic collar capacity lower"]["value"])


class TestExport:
    def test_surface_golden(self, tmp_path, capsys):
        out = tmp_path / "surface.json"
        assert main(["export", "surface", "--out", str(out)]) == 0
        golden = Path(GOLDEN, "extremal_surface.json").read_bytes()
        assert out.read_bytes() == golden

    def test_geodesics_sorted(self, tmp_path, capsys):
        out = tmp_path / "geos.json"
        assert main(["export", "geodesics", "--out", str(out)]) == 0
        recs = json.loads(out.read_text())
        lengths = [r["length"] for r in recs]
        assert lengths == sorted(lengths) and len(recs) == 13

    def test_geodesics_golden(self, tmp_path, capsys):
        out = tmp_path / "geos.json"
        assert main(["export", "geodesics", "--out", str(out)]) == 0
        recs = json.loads(out.read_text())
        with open(os.path.join(GOLDEN, "extremal_geodesics.json")) as fh:
            golden = json.load(fh)
        assert [(r["faces"], r["cone_points"], r["type"]) for r in recs] == [
            (g["faces"], g["cone_points"], g["type"]) for g in golden]
        for r, g in zip(recs, golden):
            assert abs(r["length"] - g["length"]) <= 1e-12

    def test_profile_grid(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert main(["export", "profile", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["t"]) == len(data["a"]) == 256
        assert data["a"][0] == pytest.approx(data["ell"] / 4, abs=1e-12)
        assert data["b"] == [-a for a in data["a"]]

    def test_requires_out(self, capsys):
        assert main(["export", "surface"]) == 2


def test_cli_import_skips_scipy_integrate():
    src = os.path.dirname(os.path.dirname(dycksurf.__file__))
    code = ("import sys, dycksurf.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"
