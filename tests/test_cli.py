import functools
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dycksurf
import fixtures as fx
from dycksurf import capacity, geodesic, hexopt, surface
from dycksurf.cli import (
    MAX_DIGITS,
    MIN_DIGITS,
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

    def test_digits_above_limit_refused(self, tmp_path, capsys):
        # refused before any work: 300 000 digits ran for over 300 s
        RunConfig(digits=MAX_DIGITS)
        for argv in (["--digits", "300000", "constants"],
                     ["constants", "--digits", str(MAX_DIGITS + 1)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"digits must be at most {MAX_DIGITS}" in captured.err
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("digits = 300000\n")
        assert main(["--config", str(cfgfile), "verify"]) == 2

    def test_digits_help_states_both_limits(self, capsys):
        # the limits RunConfig enforces, as the help states them
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"decimal digits ({MIN_DIGITS} to {MAX_DIGITS})" in help_text
        RunConfig(digits=MIN_DIGITS)
        for digits in (MIN_DIGITS - 1, MAX_DIGITS + 1):
            with pytest.raises(BadInput):
                RunConfig(digits=digits)

    @pytest.mark.parametrize("first, second", [
        ("mesh-h", "mesh_h"), ("mesh_h", "mesh-h"), ("lmax", "lmax")])
    def test_key_set_twice_refused(self, tmp_path, capsys, first, second):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{first} = 0.01\n# comment\ntol = 1e-8\n"
                           f"{second} = 0.02\n")
        with pytest.raises(BadInput, match=r":4: key .* already set on line 1"):
            load_config_file(str(cfgfile))
        assert main(["--config", str(cfgfile), "constants"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "already set on line 1" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["lmax", "mesh-h", "tol", "perturb-h"])
    def test_non_finite_float_exit_code(self, tmp_path, capsys, key, value):
        if key == "perturb-h":  # an option of verify, not a config key
            assert main(["verify", f"--{key}", value]) == 2
            assert "perturb-h must be finite" in capsys.readouterr().err
        else:
            assert main([f"--{key}", value, "constants"]) == 2
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        assert main(["--config", str(cfgfile), "constants"]) == 2
        assert capsys.readouterr().out == ""

    def test_format_key(self, tmp_path, capsys):
        # the file key is `format`, as the option is; `fmt`, the field
        # name, is not a key
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("format = text\n")
        assert load_config_file(str(cfgfile)) == {"fmt": "text"}
        assert run(capsys, "--config", str(cfgfile), "build") == run(
            capsys, "--format", "text", "build")
        cfgfile.write_text("fmt = text\n")
        assert main(["--config", str(cfgfile), "build"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown key 'fmt'" in captured.err


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
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_output_ends_in_newline(self, capsys, fmt):
        code, out = run(capsys, "build", "--format", fmt)
        assert code == 0
        assert out.endswith("\n") and not out.endswith("\n\n")

    def test_text_report(self, capsys):
        code, out = run(capsys, "build", "--format", "text")
        lines = out.split("\n")
        assert lines[0] == "config_digest: " + RunConfig(fmt="text").digest()
        assert lines[1] == "surface:" and lines[-2] == "version: " + dycksurf.__version__
        assert "  euler_characteristic: -1" in lines

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

    def test_curvature_checked(self, capsys, monkeypatch):
        # the command certifies through geodesic.systole, which refuses a
        # positively curved surface
        monkeypatch.setattr(surface, "build_extremal_dyck", fx.build_tetrahedron)
        assert main(["systole"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "cone angle below" in captured.err


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

    def test_capacity_upper_mesh_check_too_fine(self, capsys):
        # the distance field would need about 2.6e9 node pairs
        assert main(["--mesh-h", "0.00005", "capacity", "upper",
                     "--mesh-check"]) == 3
        assert "MAX_FIELD_PAIRS" in capsys.readouterr().err

    def test_csv_refused_before_the_mesh_check(self, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("built a distance field")

        monkeypatch.setattr(geodesic, "DistanceField", build)
        assert main(["capacity", "upper", "--mesh-check", "--format",
                     "csv"]) == 2
        err = capsys.readouterr().err
        assert err == "error: csv format is only defined for `constants`\n"

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

    def test_capacity_fem_ignores_mesh_h(self, capsys):
        # --mesh-h sizes distance fields; both FEM routes refine the flat
        # collar to the certificate's own 0.06
        code, rep = run_json(capsys, "--mesh-h", "0.1", "capacity", "fem")
        assert code == 0
        code, cert = run_json(capsys, "--mesh-h", "0.1", "capacity",
                              "certify", "--fem")
        assert code == 0
        assert rep["fem"] == {
            "flat_collar": cert["separation"]["fem_flat"],
            "hyperbolic_chart": cert["separation"]["fem_hyperbolic"]}
        assert run_json(capsys, "capacity", "fem")[1]["fem"] == rep["fem"]

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

    def test_csv_refused(self, tmp_path, capsys):
        out = tmp_path / "geos.json"
        assert main(["export", "geodesics", "--format", "csv",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: csv format is only defined for `constants`\n"
        assert not out.exists()


def test_cli_import_skips_scipy_integrate():
    src = os.path.dirname(os.path.dirname(dycksurf.__file__))
    code = ("import sys, dycksurf.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_main_freezes_the_import_objects_once():
    # a full collection would rescan them in every command's work
    src = os.path.dirname(os.path.dirname(dycksurf.__file__))
    code = """
import contextlib, gc, io
import dycksurf.cli as cli
counts = [gc.get_freeze_count()]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["constants"])
    counts.append(gc.get_freeze_count())
print(*counts)
"""
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    before, first, second = map(int, out.split())
    assert before == 0 and first > 0 and second == first


def test_fem_digits_do_not_depend_on_blas_threads():
    # threaded BLAS reductions sum in an order set by the thread count; the
    # FEM's printed digits must not follow it
    src = os.path.dirname(os.path.dirname(dycksurf.__file__))
    code = """
import contextlib, io
from dycksurf import capacity, cli, surface
rung = capacity.fem_capacity(surface.build_collar_flat(), mesh_h=0.015)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["capacity", "certify", "--fem"])
print(rung.value.hex(), code)
print(out.getvalue(), end="")
"""
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src}
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[key] = threads
        outs.append(subprocess.run([sys.executable, "-c", code], check=True,
                                   capture_output=True, text=True,
                                   env=env).stdout)
    assert outs[0].split("\n", 1)[0].endswith(" 0")
    assert outs[0] == outs[1]


# commands that finish in milliseconds whatever the flags, and commands
# whose run time grows with --lmax, --budget or a small --mesh-h
CHEAP_COMMANDS = [["constants"], ["build"], ["hexopt"], ["capacity", "lower"],
                  ["capacity", "upper"], ["capacity", "fem"],
                  ["capacity", "certify"], ["capacity", "certify", "--fem"]]
COSTLY_COMMANDS = [["systole"], ["verify"], ["certify"],
                   ["capacity", "upper", "--mesh-check"],
                   ["export", "geodesics"]]
FLOAT_TEXT = st.sampled_from(["1", "0.5", "1e-3", "0", "-0.0", "-1", "5e-324",
                              "1e-300", "1e308", "1e309", "nan", "inf",
                              "-inf"]) | st.floats().map(repr)
# valid digits stay small: MAX_DIGITS digits take about a second
INT_TEXT = (st.integers(MIN_DIGITS - 3, 200)
            | st.sampled_from([0, -1, MAX_DIGITS + 1, 10**30])).map(str)
OPTIONS = {"lmax": FLOAT_TEXT, "mesh-h": FLOAT_TEXT, "tol": FLOAT_TEXT,
           "digits": INT_TEXT, "budget": INT_TEXT}
# each is refused before any work
REFUSALS = ["--digits=14", f"--digits={MAX_DIGITS + 1}", "--lmax=0",
            "--mesh-h=-1", "--tol=nan", "--budget=0", "--format=csv"]
CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(["lmax", "mesh-h", "mesh_h", "tol", "digits",
                               "budget", "seed", "fmt"]),
              FLOAT_TEXT | INT_TEXT | st.text("abxyz .-+", max_size=6)
              ).map(" = ".join),
    st.sampled_from(["", "# a comment", "lmax", "= 1"]),
    st.text(st.characters(blacklist_categories=["Cc", "Cs"]), max_size=12))


@st.composite
def invocations(draw):
    """argv for main and the output format it asks for."""
    costly = draw(st.booleans())
    argv = list(draw(st.sampled_from(COSTLY_COMMANDS if costly
                                     else CHEAP_COMMANDS)))
    for key in draw(st.lists(st.sampled_from(sorted(OPTIONS)), max_size=4)):
        argv.append(f"--{key}={draw(OPTIONS[key])}")
    fmt = draw(st.sampled_from([None, "json", "text", "csv"]))
    if fmt:
        argv.append(f"--format={fmt}")
    if costly:
        argv.append(draw(st.sampled_from(REFUSALS)))
    config = draw(st.none() | st.lists(CONFIG_LINE, max_size=5))
    if argv[-1] == "--format=csv":
        fmt = "csv"
    return argv, fmt or "json", config, costly


class TestInputContract:
    """Bad input exits 2 with one line on stderr, never a traceback."""

    @settings(max_examples=120, deadline=1000)
    @given(invocations())
    def test_main_over_generated_input(self, invocation):
        argv, fmt, config, costly = invocation
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if config is not None:
                path = os.path.join(tmp, "run.cfg")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(config) + "\n")
                argv = [f"--config={path}"] + argv
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3, 4)
        if costly:
            assert code == 2
        if code == 2:
            assert out == ""
            assert err.endswith("\n") and err.count("\n") == 1
        if out and fmt == "json":
            json.loads(out)
