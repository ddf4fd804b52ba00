"""End-to-end CLI behaviour: configs, exit codes, file formats, determinism."""

import argparse
import functools
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import eit3.cli
import eit3.model
import eit3.optics
import eit3.steady
from eit3.analytic import _GRID_PASS_POINTS
from eit3.cli import (
    EXIT_CONFIG,
    EXIT_DISCREPANCY,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_SOLVER,
    bundled_config_path,
    load_config,
    main,
    read_sweep_csv,
    read_sweep_json,
)
from eit3.model import Configuration, build_liouvillian
from eit3.optics import OpticalConstants
from eit3.presets import REFERENCE_OMEGA_MHZ, reference_params
from eit3.steady import STEP_SAFETY


def base_config(**overrides):
    cfg = {
        "config": "lambda",
        "g_probe": 0.5, "g_pump": 105.0, "gamma_a": 0.1, "gamma_b": 6.0,
        "delta_pump": 0.0,
        "sweep": {"min": -30.0, "max": 30.0, "points": 201},
        "optics": {"n0": 1e21, "mu": 9.2740100657e-24, "omega_probe": 2.37e9},
        "backend": "both",
        "output": {"path": "out.csv", "format": "csv"},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="run.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)), encoding="utf-8")
    return path


@pytest.fixture(autouse=True)
def output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("EIT3_OUTPUT_DIR", str(tmp_path))
    return tmp_path


def test_bundled_configs_load():
    for tag in ("lambda", "cascade", "vee"):
        run = load_config(str(bundled_config_path(tag)))
        assert run.params.config.value == tag
        assert run.sweep_points == 201


# the paper's reference systems: (g_probe, g_pump, gamma_a, gamma_b) and the
# probe carrier, all in MHz
REFERENCE_SYSTEMS = {
    "lambda": ((0.5, 105.0, 0.1, 6.0), 2.37e9),
    "cascade": ((0.8, 92.0, 0.49, 3.49), 2.88e9),
    "vee": ((10.0, 250.0, 9.0, 6.0), 2.42e9),
}


@pytest.mark.parametrize("tag", sorted(REFERENCE_SYSTEMS))
def test_reference_systems_are_pinned(tag):
    # `calibrate` and the tests run reference_params, `sweep TAG` the file
    run = load_config(bundled_config_path(tag))
    params = reference_params(tag)
    assert params == run.params
    rates, omega = REFERENCE_SYSTEMS[tag]
    assert (params.g_probe, params.g_pump, params.gamma_a, params.gamma_b) == rates
    assert REFERENCE_OMEGA_MHZ[Configuration(tag)] == run.optics.omega_probe == omega
    default = OpticalConstants(omega_probe=omega)
    assert (default.n0, default.mu) == (run.optics.n0, run.optics.mu)
    assert run.optics.angular_convention == default.angular_convention
    assert (run.sweep_min, run.sweep_max, run.sweep_points) == (-30.0, 30.0, 201)


def test_sweep_lambda_reference(tmp_path, capsys):
    assert main(["sweep", "lambda", "--out", str(tmp_path / "lam.csv")]) == EXIT_OK
    metadata, rows, errors = read_sweep_csv(tmp_path / "lam.csv")
    assert errors == []
    assert len(rows) == 201
    assert metadata["angular_convention"] == "two_pi_mhz"
    assert "config_sha256" in metadata
    alphas = [r["alpha"] for r in rows]
    center = rows[100]
    assert center["delta_mhz"] == 0.0
    assert abs(center["alpha"]) <= 1e-9 * max(alphas)
    assert center["rho33"] == 0.0
    assert float(metadata["backend_discrepancy"]) <= 1e-8


def test_sweep_vee_resonance_row(tmp_path):
    assert main(["sweep", "vee", "--out", str(tmp_path / "vee.csv")]) == EXIT_OK
    _, rows, _ = read_sweep_csv(tmp_path / "vee.csv")
    center = rows[100]
    assert center["delta_mhz"] == 0.0
    # strong-pump saturation: ground and middle levels share the population
    assert abs(center["rho11"] - 0.500323) <= 1e-5
    assert abs(center["rho22"] - 0.498878) <= 1e-5
    assert center["rho33"] <= 1e-3


def test_negative_gamma_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, gamma_a=-0.1)
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    assert "gamma_a" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["numeric", "analytic"])
@pytest.mark.parametrize("field,overrides", [
    ("g_probe", {"g_probe": math.nan}),
    ("gamma_b", {"gamma_b": math.inf}),
    ("delta_pump", {"delta_pump": math.nan}),
    ("optics.n0", {"optics": {"n0": math.inf, "mu": 9.2740100657e-24,
                              "omega_probe": 2.37e9}}),
    ("sweep.min", {"sweep": {"min": -math.inf, "max": 30.0, "points": 5}}),
    ("sweep.max", {"sweep": {"min": -30.0, "max": math.nan, "points": 5}}),
    ("sweep.max", {"sweep": {"min": -1e308, "max": 1e308, "points": 5}}),
    ("g_probe", {"g_probe": 10**400}),  # a JSON integer past the float range
])
def test_non_finite_config_rejected(tmp_path, capsys, backend, field, overrides):
    # json.dumps writes NaN/Infinity literals, which the config parser accepts
    cfg = write_config(tmp_path, backend=backend, **overrides)
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["steady", "lambda", "--delta", "nan"],
    ["evolve", "lambda", "--delta", "inf", "--t-end", "1"],
    ["evolve", "lambda", "--t-end", "nan"],
    ["steady", "lambda", "--delta", "-inf"],
    ["evolve", "lambda", "--t-end", "1", "--dt", "-inf"],
])
def test_non_finite_options_rejected(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1e3", "-2.5E+1", "-1_000"])
def test_steady_takes_a_negative_delta_in_any_form(value, capsys):
    # argparse reads "-1e3" after an option as an option of its own unless
    # it is joined by "="; both spellings give the same run
    assert main(["steady", "vee", "--delta", value]) == EXIT_OK
    spaced = capsys.readouterr()
    assert main(["steady", "vee", f"--delta={value}"]) == EXIT_OK
    assert capsys.readouterr() == spaced
    assert f"delta_probe = {float(value):g} MHz" in spaced.out


@pytest.mark.parametrize("argv,joined,code", [
    (["--t-end", "1", "--delta", "-2.5e1"], ["--t-end", "1", "--delta=-2.5e1"],
     EXIT_OK),
    (["--del", "-2.5e1", "--t", "1"], ["--del=-2.5e1", "--t", "1"], EXIT_OK),
    (["--t-end", "1", "--dt", "-1e-3"], ["--t-end", "1", "--dt=-1e-3"],
     EXIT_CONFIG),
    (["--t-end", "-1e0"], ["--t-end=-1e0"], EXIT_CONFIG),
])
def test_evolve_takes_negative_options_in_any_form(tmp_path, capsys, argv,
                                                   joined, code):
    runs = []
    for options in (argv, joined):
        out = tmp_path / "traj.csv"
        assert main(["evolve", "vee", *options, "--out", str(out)]) == code
        runs.append((capsys.readouterr(),
                     out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert runs[0] == runs[1]
    assert (runs[0][1] is None) == (code == EXIT_CONFIG)


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, pump_power=3.0)
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    assert "pump_power" in capsys.readouterr().err


def test_missing_field_rejected(tmp_path, capsys):
    raw = base_config()
    del raw["optics"]["mu"]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    assert "mu" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,message", [
    ({"sweep": [1, 2]}, "field sweep must be a JSON object, got [1, 2]"),
    ({"optics": "x"}, "field optics must be a JSON object, got 'x'"),
    ({"output": None}, "field output must be a JSON object, got None"),
    ({"output": {"path": 5, "format": "csv"}},
     "field output.path must be a string, got 5"),
    ({"output": {"path": "", "format": "csv"}},
     "field output.path must name a file, got ''"),
    ({"output": {"path": ".", "format": "json"}},
     "field output.path must name a file, got '.'"),
    ({"output": {"path": "out.xml", "format": "xml"}},
     "field output.format must be csv or json, got 'xml'"),
    ({"sweep": {"min": -1.0, "max": 1.0, "points": 2}},
     "field sweep.points must be an integer >= 3, got 2"),
    ({"sweep": {"min": -1.0, "max": 1.0, "points": 2.5}},
     "field sweep.points must be an integer >= 3, got 2.5"),
    ({"sweep": {"min": -1.0, "max": 1.0, "points": True}},
     "field sweep.points must be an integer >= 3, got True"),
    ({"sweep": {"min": 1.0, "max": 1.0, "points": 5}},
     "field sweep.min must be below sweep.max"),
    # a list or object is unhashable: the same error, not a TypeError
    ({"backend": "Both"}, "field backend must be numeric/analytic/both, got 'Both'"),
    ({"backend": ["both"]},
     "field backend must be numeric/analytic/both, got ['both']"),
    ({"backend": {"both": 1}},
     "field backend must be numeric/analytic/both, got {'both': 1}"),
    ({"backend": None}, "field backend must be numeric/analytic/both, got None"),
    # the model's rule for numbers, the CLI's messages
    ({"g_probe": "1"}, "field g_probe must be a number, got '1'"),
    ({"g_pump": True}, "field g_pump must be a number, got True"),
    ({"gamma_b": None}, "field gamma_b must be a number, got None"),
    ({"delta_pump": [0]}, "field delta_pump must be a number, got [0]"),
    ({"sweep": {"min": "-1", "max": 1.0, "points": 5}},
     "field sweep.min must be a number, got '-1'"),
])
def test_malformed_section_is_config_error(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]  # no file named "5"


@pytest.mark.parametrize("content,error", [
    (None, "IsADirectoryError"),
    (b'{"config": "lambda\xe9"}', "UnicodeDecodeError"),  # Latin-1, not UTF-8
])
def test_unreadable_config_is_config_error(tmp_path, capsys, content, error):
    cfg = tmp_path / "run.json"
    if content is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(content)
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {cfg}: {error}: ")


@pytest.mark.parametrize("document,message", [
    (None, "config file not found: {cfg}"),
    ("[]", "config must be a JSON object"),
])
def test_config_that_is_no_object_is_config_error(tmp_path, capsys, document,
                                                  message):
    cfg = tmp_path / "run.json"
    if document is not None:
        cfg.write_text(document, encoding="utf-8")
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message.format(cfg=cfg)}\n"
    assert list(tmp_path.iterdir()) == ([] if document is None else [cfg])


def test_evolve_output_path_without_a_file_name_is_config_error(tmp_path, capsys):
    # evolve derives its default file name from output.path
    cfg = write_config(tmp_path, output={"path": "", "format": "csv"})
    assert main(["evolve", str(cfg), "--t-end", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: field output.path must name a file, got ''\n")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", [["sweep"], ["evolve", "--t-end", "1"]])
@pytest.mark.parametrize("out", ["", ".", "/"])
def test_out_without_a_file_name_is_config_error(tmp_path, capsys, monkeypatch,
                                                 command, out):
    # --out is held to output.path's rule, before anything is solved or
    # integrated: "" is no file, not the config's output.path
    cfg = write_config(tmp_path, backend="numeric")

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before --out was checked")

    monkeypatch.setattr(eit3.cli, "sweep", no_solve)
    monkeypatch.setattr(eit3.cli, "evolve", no_solve)
    argv = [command[0], str(cfg), *command[1:], "--out", out]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: option --out must name a file, got {out!r}\n")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", [["sweep"], ["evolve", "--t-end", "1"]])
@pytest.mark.parametrize("target,error", [
    ("blocker/out.csv", "FileExistsError"),         # mkdir: a file in the way
    ("blocker/sub/out.csv", "NotADirectoryError"),  # mkdir: a file as parent
    ("adir", "IsADirectoryError"),                  # the write itself
])
def test_unwritable_output_path_is_config_error(tmp_path, capsys, command,
                                                target, error):
    cfg = write_config(tmp_path, backend="numeric")
    (tmp_path / "blocker").write_text("kept", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    out = tmp_path / target
    argv = [command[0], str(cfg), *command[1:], "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output file {out}: {error}: ")
    assert err.count("\n") == 1
    assert (tmp_path / "blocker").read_text(encoding="utf-8") == "kept"
    assert list((tmp_path / "adir").iterdir()) == []


@pytest.mark.parametrize("command", [["sweep"], ["evolve", "--t-end", "1"]])
@pytest.mark.parametrize("override", [False, True], ids=["config", "out"])
def test_output_path_with_a_nul_is_config_error(tmp_path, capsys, command,
                                                override):
    # a JSON "\u0000" in output.path, or the same path given as --out: the OS
    # calls raise ValueError, not OSError
    path = "out\x00.csv"
    cfg = write_config(tmp_path, backend="numeric",
                       output={"path": "out.csv" if override else path,
                               "format": "csv"})
    argv = [command[0], str(cfg), *command[1:]]
    if override:
        argv += ["--out", path]
    if command[0] == "evolve" and not override:
        path = "out\x00.evolve.csv"  # the name evolve derives from output.path
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: output path must not contain NUL, got {path!r}\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_unwritable_sweep_output_fails_before_solving(tmp_path, capsys,
                                                     monkeypatch):
    # undriven: every point would fail, and be reported, if it were solved
    cfg = write_config(tmp_path, g_probe=0.0, g_pump=0.0, backend="numeric")
    (tmp_path / "blocker").write_text("kept", encoding="utf-8")

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep solved before the output path was checked")

    monkeypatch.setattr(eit3.cli, "sweep", no_sweep)
    out = tmp_path / "blocker" / "out.csv"
    assert main(["sweep", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: cannot write output file {out}: FileExistsError: ")
    assert err.count("\n") == 1
    assert (tmp_path / "blocker").read_text(encoding="utf-8") == "kept"


def test_steady_reports_zero_upper_population(capsys):
    assert main(["steady", "lambda", "--delta", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rho33 = 0.000000000" in out
    assert "discrepancy" in out
    disc = float(out.split("discrepancy =")[1].split()[0])
    assert disc <= 1e-8


@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_steady_backends_agree_on_bundled_configs(tag, capsys):
    assert main(["steady", tag, "--delta", "1.5"]) == EXIT_OK
    out = capsys.readouterr().out
    disc = float(out.split("discrepancy =")[1].split()[0])
    assert disc <= 1e-8


def test_steady_degenerate_config(tmp_path, capsys):
    cfg = write_config(tmp_path, g_probe=0.0, g_pump=0.0, backend="numeric")
    assert main(["steady", str(cfg), "--delta", "0"]) == EXIT_SOLVER
    assert "DegenerateNullSpace" in capsys.readouterr().err


def test_repeated_detunings_are_config_error(tmp_path, capsys):
    # 11 points over a 2-ulp span repeat detunings at float precision
    cfg = write_config(tmp_path, sweep={"min": 1.0, "max": 1.0000000000000009,
                                        "points": 11})
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: fields sweep.min, sweep.max, sweep.points: 11 points "
        "from 1.0 to 1.0000000000000009 are not a strictly increasing grid "
        "of floats\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("points", [eit3.optics.MAX_POINTS + 1, 10**400],
                         ids=["cap+1", "1e400"])
def test_sweep_points_above_the_cap_are_config_error(tmp_path, capsys, points):
    cfg = write_config(tmp_path, sweep={"min": -1.0, "max": 1.0,
                                        "points": points})
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: fields sweep.min, sweep.max, sweep.points: "
        f"{points} points exceed the cap of 100000\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "steady", "darkstate", "evolve"])
def test_huge_integers_in_a_config_are_config_error(tmp_path, capsys, command):
    # past the float range, and past the 4300 digits Python's int() parses
    argv = ["--t-end", "5"] if command == "evolve" else []
    for digits, message in ((400, "config error: field g_probe must be finite, "
                                  "got an integer too large for a float\n"),
                            (5000, "config error: config is not valid JSON: ")):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(base_config()).replace(
            "0.5", "1" + "0" * digits, 1), encoding="utf-8")
        assert main([command, str(cfg), *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(message) and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", ["sweep", "steady", "darkstate", "evolve"])
def test_deeply_nested_config_is_config_error(tmp_path, capsys, command):
    # json.loads raises RecursionError on arrays nested past the recursion limit
    argv = ["--t-end", "5"] if command == "evolve" else []
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(base_config(output={"path": "X", "format": "csv"}))
                   .replace('"X"', "[" * 5000 + "]" * 5000), encoding="utf-8")
    assert main([command, str(cfg), *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: config is not valid JSON: ")
    assert "RecursionError" not in err and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [cfg]


OVERFLOWING_OPTICS = [
    {"n0": 1e21, "mu": 1e200, "omega_probe": 2.37e9},  # mu**2 raises
    {"n0": 1e300, "mu": 1e10, "omega_probe": 2.37e9},  # prefactor inf
    {"n0": 1e21, "mu": 9.2740100657e-24, "omega_probe": 1e305},  # n_g scale inf
]


@pytest.mark.parametrize("optics", OVERFLOWING_OPTICS)
def test_overflowing_optics_are_config_error(tmp_path, capsys, optics):
    cfg = write_config(tmp_path, optics=optics)
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: optics: prefactor * omega_probe "
                          "overflows a float (")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out.csv").exists()


def test_sweep_partial_output_on_solver_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, g_probe=0.0, g_pump=0.0, backend="numeric",
                       sweep={"min": -1.0, "max": 1.0, "points": 3},
                       output={"path": "broken.csv", "format": "csv"})
    assert main(["sweep", str(cfg)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "DegenerateNullSpace" in err and "delta=" in err
    metadata, rows, errors = read_sweep_csv(tmp_path / "broken.csv")
    assert len(errors) == 3            # error rows retained, not silently empty
    assert len(rows) == 3
    assert all(math.isnan(r["n"]) for r in rows)


def test_evolve_converges_and_conserves_trace(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["evolve", "lambda", "--delta", "0", "--t-end", "500",
                 "--rho0", "ground", "--out", str(out)])
    assert code == EXIT_OK
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[0] == "t_us" and header[-1] == "trace"
    traces = [float(l.split(",")[-1]) for l in lines[1:]]
    assert max(abs(t - 1.0) for t in traces) <= 1e-9
    times = [float(l.split(",")[0]) for l in lines[1:]]
    assert times[0] == 0.0 and times[-1] == 500.0


@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_evolve_builds_one_liouvillian(tmp_path, capsys, monkeypatch, tag):
    # the steady target is solved on the Liouvillian evolve integrates: one
    # build, counted in both namespaces that hold the builder, and the file
    # holds that Liouvillian's trajectory, every number read back exactly
    params = reference_params(tag, delta_probe=2.5)
    dt = STEP_SAFETY / params.rate_scale
    traj = eit3.steady.evolve(build_liouvillian(params), np.diag([0, 0, 1.0]),
                              500.0, dt)
    s = traj.states
    expected = np.column_stack([
        traj.times, s[:, 2, 2].real, s[:, 1, 1].real, s[:, 0, 0].real,
        s[:, 2, 1].real, s[:, 2, 1].imag, s[:, 2, 0].real, s[:, 2, 0].imag,
        s[:, 1, 0].real, s[:, 1, 0].imag, np.trace(s, axis1=1, axis2=2).real])
    builds = []
    for module in (eit3.model, eit3.steady):
        def counted(*args, _build=module.build_liouvillian_stack):
            builds.append(args)
            return _build(*args)
        monkeypatch.setattr(module, "build_liouvillian_stack", counted)
    out = tmp_path / "traj.csv"
    code = main(["evolve", tag, "--delta", "2.5", "--t-end", "500",
                 "--out", str(out)])
    assert code == EXIT_OK and len(builds) == 1
    rows = [[float(x) for x in line.split(",")]
            for line in out.read_text().splitlines()
            if not line.startswith(("#", "t_us"))]
    assert np.array(rows).tobytes() == expected.tobytes()


def test_evolve_short_run_warns(tmp_path, capsys):
    out = tmp_path / "short.csv"
    code = main(["evolve", "lambda", "--delta", "0", "--t-end", "0.01",
                 "--rho0", "mixed", "--out", str(out)])
    assert code == EXIT_NOT_CONVERGED
    assert out.exists()                # file still written
    assert "steady state" in capsys.readouterr().err


def test_evolve_non_finite_trajectory_warns(tmp_path, capsys, monkeypatch):
    # a NaN state fails every comparison, so it must not pass as converged
    def nan_evolve(L, rho0, t_end, dt_max):
        traj = eit3.steady.evolve(L, rho0, t_end, dt_max)
        return replace(traj, states=np.full_like(traj.states, np.nan))
    monkeypatch.setattr(eit3.cli, "evolve", nan_evolve)
    out = tmp_path / "nan.csv"
    code = main(["evolve", "lambda", "--t-end", "5", "--out", str(out)])
    assert code == EXIT_NOT_CONVERGED
    err = capsys.readouterr().err
    assert "overflowed to nan/inf" in err and "--t-end" in err and "--dt" in err
    assert "t_end may be too short" not in err


@pytest.mark.parametrize("t_end", ["1e8", "1e200"])
def test_evolve_too_many_steps_per_sample_is_config_error(tmp_path, capsys, t_end):
    # 1e8 us at the default step is 5.25e7 RK4 steps per recorded sample
    out = tmp_path / "long.csv"
    code = main(["evolve", "lambda", "--t-end", t_end, "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "RK4 steps per recorded sample" in err
    assert not out.exists()


def test_evolve_fine_step_within_the_cap_converges(tmp_path):
    # 1000x finer than the default step: 2.6e5 RK4 steps per recorded sample
    out = tmp_path / "fine.csv"
    code = main(["evolve", "lambda", "--t-end", "500",
                 "--dt", repr(0.1 / 105.0 / 1000), "--out", str(out)])
    assert code == EXIT_OK


def test_evolve_step_too_large(tmp_path, capsys):
    code = main(["evolve", "lambda", "--delta", "0", "--t-end", "1",
                 "--dt", "0.5", "--rho0", "ground",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "StepTooLarge" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--t-end", "1", "--dt", "1e-320"],     # step count overflows
    ["--t-end", "-1"],
    ["--t-end", "1", "--dt", "0"],
])
def test_evolve_bad_step_is_config_error(tmp_path, capsys, argv):
    code = main(["evolve", "lambda", *argv, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "x.csv").exists()


def assert_sweep_names_overflow(tmp_path, capsys, points):
    cfg = write_config(tmp_path, g_probe=1e60, g_pump=1e60, backend="analytic",
                       sweep={"min": -1.0, "max": 1.0, "points": points},
                       output={"path": "huge.csv", "format": "csv"})
    assert main(["sweep", str(cfg)]) == EXIT_SOLVER
    assert "ClosedFormOverflow" in capsys.readouterr().err
    _, _, errors = read_sweep_csv(tmp_path / "huge.csv")
    assert len(errors) == points
    assert all("ClosedFormOverflowError: ClosedFormOverflow:" in e for e in errors)


def test_analytic_sweep_names_overflow(tmp_path, capsys):
    assert_sweep_names_overflow(tmp_path, capsys, 3)


def test_analytic_grid_pass_sweep_names_overflow(tmp_path, capsys):
    # evaluated over the whole grid at once, where g_probe**6 raises
    # OverflowError for every point together
    assert_sweep_names_overflow(tmp_path, capsys, _GRID_PASS_POINTS)


def test_evolve_rho0_from_file(tmp_path):
    state = tmp_path / "rho0.json"
    state.write_text(json.dumps({
        "rho_real": [[0.2, 0, 0], [0, 0.3, 0], [0, 0, 0.5]],
        "rho_imag": [[0.0, 0, 0], [0, 0.0, 0], [0, 0, 0.0]],
    }), encoding="utf-8")
    out = tmp_path / "filetraj.csv"
    code = main(["evolve", "lambda", "--delta", "0", "--t-end", "500",
                 "--rho0", str(state), "--out", str(out)])
    assert code == EXIT_OK


GROUND = "[[0, 0, 0], [0, 0, 0], [0, 0, 1]]"
NAN_STATE = ('{"rho_real": [[NaN, 0, 0], [0, 0.5, 0], [0, 0, 0.5]], '
             '"rho_imag": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}')


@pytest.mark.parametrize("content,detail", [
    (None, "FileNotFoundError"),
    ("not json", "JSONDecodeError"),
    ('{"rho_imag": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}', "KeyError: 'rho_real'"),
    ('{"rho_real": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}', "KeyError: 'rho_imag'"),
    ('{"rho_real": [[1, 0, 0], [0, 0], [0, 0, 0]], '
     '"rho_imag": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}', "ValueError"),
    ("[1, 2]", "TypeError"),
    (NAN_STATE, "not a valid density matrix"),
    pytest.param(NAN_STATE.replace("NaN", "1" + "0" * 400), "OverflowError",
                 id="integer-past-the-float-range-OverflowError"),
    # np.array would read these as the ground state: numbers only, as in configs
    ('{"rho_real": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]], '
     '"rho_imag": [[false, 0, 0], [0, 0, 0], [0, 0, 0]]}',
     "TypeError: rho_real holds '1', not a number"),
    ('{"rho_real": [[0, 0, 0], [0, 0, 0], [0, 0, 1]], '
     '"rho_imag": [[0, 0, 0], [0, 0, 0], [0, 0, false]]}',
     "TypeError: rho_imag holds False, not a number"),
    ('{"rho_real": [[0, 0, 0], [0, 0, 0], [0, 0, true]], '
     '"rho_imag": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}',
     "TypeError: rho_real holds True, not a number"),
    ('{"rho_real": [[0, 0, 0], [0, 0, 0], [0, 0, 1]], "rho_imag": '
     '[[null, 0, 0], [0, 0, 0], [0, 0, 0]]}',
     "TypeError: rho_imag holds None, not a number"),
    # a scalar or a row would broadcast to 3x3 in rho_real + 1j * rho_imag
    pytest.param(f'{{"rho_real": {GROUND}, "rho_imag": 0}}',
                 "ValueError: rho_imag has shape (), not (3, 3)", id="scalar"),
    pytest.param(f'{{"rho_real": [0, 0, 1], "rho_imag": {GROUND}}}',
                 "ValueError: rho_real has shape (3,), not (3, 3)", id="row"),
    pytest.param(f'{{"rho_real": [{GROUND}], "rho_imag": {GROUND}}}',
                 "ValueError: rho_real has shape (1, 3, 3), not (3, 3)",
                 id="stacked"),
    pytest.param(f'{{"rho_real": {GROUND}, "rho_imag": '
                 f'{"[" * 5000 + "]" * 5000}}}',
                 "RecursionError: maximum recursion depth exceeded",
                 id="nested-5000-deep"),
])
def test_evolve_bad_rho0_file_is_config_error(tmp_path, capsys, content, detail):
    state = tmp_path / "rho0.json"
    if content is not None:
        state.write_text(content, encoding="utf-8")
    code = main(["evolve", "lambda", "--t-end", "5", "--rho0", str(state),
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(state) in err
    assert detail in err
    assert not (tmp_path / "x.csv").exists()


def test_evolve_bad_rho0_file_is_read_before_the_steady_solve(tmp_path, capsys):
    # the undriven vee system has no unique steady state: the unreadable
    # initial state is still the error reported
    cfg = write_config(tmp_path, config="vee", g_probe=1.0, g_pump=1.0,
                       gamma_a=0.0, gamma_b=0.0, backend="numeric")
    state = tmp_path / "missing.json"
    code = main(["evolve", str(cfg), "--t-end", "5", "--rho0", str(state),
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read an initial state from {state}: "
                          "FileNotFoundError")
    assert "DegenerateNullSpace" not in err
    assert not (tmp_path / "x.csv").exists()
    # with a valid initial state the same config fails in the solver
    assert main(["evolve", str(cfg), "--t-end", "5", "--rho0", "ground",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_SOLVER
    assert "DegenerateNullSpace" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--t-end", "-1"],
    ["--t-end", "1", "--dt", "0"],
    ["--t-end", "1", "--dt", "1e9"],      # above the stability bound
])
def test_evolve_bad_step_is_checked_before_the_steady_solve(tmp_path, capsys,
                                                            argv):
    # the undecayed vee system has no unique steady state: the bad step is
    # still the error reported, as on the bundled vee config
    cfg = write_config(tmp_path, config="vee", g_probe=10.0, g_pump=250.0,
                       gamma_a=0.0, gamma_b=0.0, backend="numeric")
    for config in (str(cfg), "vee"):
        code = main(["evolve", config, *argv, "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(("config error: ", "error: StepTooLarge: "))
        assert "DegenerateNullSpace" not in err
        assert not (tmp_path / "x.csv").exists()


def test_evolve_all_zero_config_fails_in_the_solver(tmp_path, capsys):
    # every rate and detuning 0: no step bound, and the default step is no
    # division by zero; the steady solve fails and writes no trajectory
    cfg = write_config(tmp_path, g_probe=0.0, g_pump=0.0, gamma_a=0.0,
                       gamma_b=0.0, backend="numeric")
    code = main(["evolve", str(cfg), "--delta", "0", "--t-end", "5",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_SOLVER
    assert capsys.readouterr().err == (
        "error: DegenerateNullSpaceError: DegenerateNullSpace: Liouvillian "
        "null space has dimension > 1; the stationary state is not unique\n")
    assert not (tmp_path / "x.csv").exists()


# one row per kind of failure: the config written to DIR/run.json (None: no
# config), the command, its exit code and the start of its first stderr line.
# A config error's line starts "config error: ", a solver failure's "error: ";
# an argparse usage error exits 2 too, and prints a "usage:" line first
UNDRIVEN = base_config(g_probe=0.0, g_pump=0.0, backend="numeric")
OVERFLOWING_DECAYS = base_config(gamma_a=1e308, gamma_b=1.7e308,
                                 backend="numeric")


@pytest.mark.parametrize("config,argv,code,first_line", [
    pytest.param("not json", ["sweep", "DIR/run.json"], EXIT_CONFIG,
                 "config error: config is not valid JSON: ", id="invalid-json"),
    pytest.param(base_config(pump_power=3.0), ["sweep", "DIR/run.json"],
                 EXIT_CONFIG, "config error: unknown field(s) {pump_power}",
                 id="unknown-key"),
    pytest.param(None, ["steady", "lambda", "--delta", "inf"], EXIT_CONFIG,
                 "config error: option --delta must be finite, got inf",
                 id="delta-inf"),
    pytest.param(None, ["evolve", "lambda", "--t-end", "1", "--dt", "0.5"],
                 EXIT_CONFIG, "config error: StepTooLarge: dt_max=0.5 us "
                 "exceeds the stability bound", id="step-above-the-bound"),
    pytest.param(None, ["evolve", "lambda", "--t-end", "1e8"], EXIT_CONFIG,
                 "config error: t_end=1e+08 us at dt_max=", id="stride-cap"),
    pytest.param(None, ["evolve", "lambda", "--t-end", "5", "--rho0",
                        "DIR/missing.json"], EXIT_CONFIG,
                 "config error: cannot read an initial state from "
                 "DIR/missing.json: FileNotFoundError", id="missing-rho0"),
    pytest.param(UNDRIVEN, ["steady", "DIR/run.json"], EXIT_SOLVER,
                 "error: DegenerateNullSpaceError: ", id="undriven-steady"),
    pytest.param(OVERFLOWING_DECAYS, ["evolve", "DIR/run.json", "--t-end",
                                      "1e-300"], EXIT_SOLVER,
                 "error: SingularSolveError: SingularSolve: Liouvillian has "
                 "non-finite entries", id="overflowing-decays-evolve"),
    pytest.param(None, ["steady", "lambda", "--delta", "abc"], None, "usage: ",
                 id="usage-delta-not-a-number"),
    pytest.param(None, ["steady", "lambda", "--delta", "-abc"], None, "usage: ",
                 id="usage-delta-dash-not-a-number"),
    pytest.param(None, ["evolve", "vee", "--t-end", "1", "--d", "-1e3"], None,
                 "usage: ", id="usage-ambiguous-abbreviation"),
])
def test_each_failure_kind_has_its_exit_code_and_first_line(
        tmp_path, capsys, config, argv, code, first_line):
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config)
        (tmp_path / "run.json").write_text(text, encoding="utf-8")
    argv = [arg.replace("DIR", str(tmp_path)) for arg in argv]
    if code is None:  # argparse's usage error
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_SOLVER == 2
        last = f"eit3 {argv[0]}: error: "
    else:
        assert main(argv) == code
        last = None
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(first_line.replace("DIR", str(tmp_path))), lines
    if last is not None:
        assert lines[-1].startswith(last), lines
    # no data file: the run failed before writing one
    written = ["run.json"] if config is not None else []
    assert [path.name for path in tmp_path.iterdir()] == written


def test_darkstate_lambda(capsys):
    assert main(["darkstate", "lambda"]) == EXIT_OK
    out = capsys.readouterr().out
    theta = float(out.split("theta =")[1].split()[0])
    assert theta <= 0.05
    assert "kernel residual" in out


def test_darkstate_cascade_reports_ground_state(capsys):
    assert main(["darkstate", "cascade"]) == EXIT_OK
    out = capsys.readouterr().out
    amps = out.split("amplitudes (|3>, |2>, |1>): [")[1].split("]")[0]
    a3, a2, a1 = (float(tok) for tok in amps.split(","))
    assert abs(a1) >= 0.999            # dark state is essentially |1>
    assert abs(a2) <= 1e-9 and abs(a3) <= 0.05


def test_darkstate_vee_reports_small_angle(capsys):
    # the saturated vee holds its population in |1>,|2>: the (|2>,|3>) pair
    # angle is small at these parameters
    assert main(["darkstate", "vee"]) == EXIT_OK
    out = capsys.readouterr().out
    theta = float(out.split("theta =")[1].split()[0])
    assert abs(theta - 0.040014) <= 1e-4


def test_darkstate_names_an_undefined_mixing_angle(tmp_path, capsys):
    # weak fields leave the vee's dark pair |2>,|3> almost empty: no angle
    cfg = write_config(tmp_path, config="vee", g_probe=1e-4, g_pump=1e-4,
                       gamma_a=1.0, gamma_b=1.0, backend="analytic")
    assert main(["darkstate", str(cfg)]) == EXIT_SOLVER
    assert capsys.readouterr() == ("", "error: UndefinedAngleError: UndefinedAngle: "
                                       "dark pair |2>,|3> holds 2.00e-08 population\n")


def test_bundled_metadata_pins_constants(tmp_path):
    for tag in ("lambda", "cascade", "vee"):
        out = tmp_path / f"{tag}.csv"
        assert main(["sweep", tag, "--out", str(out)]) == EXIT_OK
        metadata, _, _ = read_sweep_csv(out)
        assert metadata["mu_si"] == "9.2740100657e-24"
        assert metadata["prefactor"] == "7329939171110.788"
        assert metadata["angular_convention"] == "two_pi_mhz"


def test_null_angular_convention_means_calibrated(tmp_path):
    optics = dict(base_config()["optics"], angular_convention=None)
    cfg = write_config(tmp_path, optics=optics,
                       sweep={"min": -5.0, "max": 5.0, "points": 21})
    assert load_config(str(cfg)).optics.angular_convention == "two_pi_mhz"
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "n.csv")]) == EXIT_OK
    metadata, _, _ = read_sweep_csv(tmp_path / "n.csv")
    assert metadata["angular_convention"] == "two_pi_mhz"


@pytest.mark.parametrize("convention", ["", "bogus", False, 0, []])
def test_bad_angular_convention_is_config_error(tmp_path, capsys, convention):
    optics = dict(base_config()["optics"], angular_convention=convention)
    cfg = write_config(tmp_path, optics=optics)
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG
    assert "angular_convention" in capsys.readouterr().err


def test_calibrate_reports_targets_and_choice(capsys):
    assert main(["calibrate"]) == EXIT_OK
    out = capsys.readouterr().out
    for target in ("17543.7", "16316.5", "16558"):
        assert target in out
    assert "chosen convention" in out and "two_pi_mhz" in out
    assert "n_g(0) >= 1e12" in out     # honest fallback statement
    assert "rel err" in out


def test_calibrate_reports_a_reproduced_lambda_target(capsys, monkeypatch):
    # the bundled data reproduce neither convention within 10%
    # (test_calibration_table_and_default_convention); a table that does
    # prints the other line
    table = eit3.cli.calibration_table()
    monkeypatch.setattr(eit3.cli, "calibration_table",
                        lambda: {**table, "within_10pct": True})
    assert main(["calibrate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "\nlambda target reproduced within 10%\n" in out
    assert "neither convention" not in out


def test_sweep_output_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, sweep={"min": -5.0, "max": 5.0, "points": 21})
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "a.csv")]) == EXIT_OK
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "b.csv")]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_round_trip(tmp_path):
    cfg = write_config(tmp_path, sweep={"min": -5.0, "max": 5.0, "points": 11},
                       backend="analytic")
    assert main(["sweep", str(cfg)]) == EXIT_OK
    metadata, rows, _ = read_sweep_csv(tmp_path / "out.csv")
    from eit3.optics import OpticalConstants, sweep as lib_sweep
    run = load_config(cfg)
    s, failures = lib_sweep(run.params, run.optics, -5.0, 5.0, 11,
                            backend="analytic")
    assert failures == []
    assert len(rows) == len(s.delta)
    for i, row in enumerate(rows):
        assert row["delta_mhz"] == s.delta[i]
        assert row["n"] == s.n[i]
        assert row["alpha"] == s.alpha[i]
        assert row["n_g"] == s.n_g[i]
        assert row["v_g_m_per_s"] == s.v_g[i]
        assert row["rho11"] == s.rho11[i]
        assert row["re_coh"] == s.probe_coherence[i].real
        assert row["im_coh"] == s.probe_coherence[i].imag


def test_json_round_trip(tmp_path):
    cfg = write_config(tmp_path, sweep={"min": -5.0, "max": 5.0, "points": 11},
                       backend="analytic",
                       output={"path": "out.json", "format": "json"})
    assert main(["sweep", str(cfg)]) == EXIT_OK
    metadata, records, errors = read_sweep_json(tmp_path / "out.json")
    assert errors == []
    run = load_config(cfg)
    from eit3.optics import sweep as lib_sweep
    s, failures = lib_sweep(run.params, run.optics, -5.0, 5.0, 11,
                            backend="analytic")
    assert failures == []
    for i, rec in enumerate(records):
        assert rec["delta_mhz"] == s.delta[i]
        assert rec["v_g_m_per_s"] == s.v_g[i]
        assert rec["edge_stencil"] == s.edge_stencil[i]


RECORD_FIELDS = ("delta", "n", "alpha", "n_g", "v_g", "rho11", "rho22", "rho33")


def point_values(s, i):
    """Point i of a Spectrum as Python values: the eight real fields, then
    the coherence and the edge flag."""
    return ([float(getattr(s, name)[i]) for name in RECORD_FIELDS]
            + [complex(s.probe_coherence[i]), bool(s.edge_stencil[i])])


def dumps_oracle(metadata, s, errors=None):
    """The bytes write_sweep_json must produce: json's own indenting encoder."""
    records = []
    for i in range(len(s.delta)):
        *reals, c, edge = point_values(s, i)
        records.append(dict(zip(("delta_mhz", "n", "alpha", "n_g", "v_g_m_per_s",
                                 "rho11", "rho22", "rho33"), reals),
                            re_coh=c.real, im_coh=c.imag, edge_stencil=edge))
    doc = {"errors": [{"delta_mhz": d, "error": msg} for d, msg in (errors or [])],
           "metadata": metadata, "records": records}
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


def csv_oracle(metadata, s, errors=()):
    """The bytes write_sweep_csv must produce, built row by row: the error
    lines, then repr of each field of every row, failed or not."""
    lines = [f"# {key} = {value}" for key, value in metadata.items()]
    lines += [f"# error: delta={d!r} {msg}" for d, msg in errors]
    lines.append("delta_mhz,n,alpha,n_g,v_g_m_per_s,rho11,rho22,rho33,re_coh,im_coh")
    for i in range(len(s.delta)):
        *reals, c, _ = point_values(s, i)
        lines.append(",".join(repr(v) for v in reals + [c.real, c.imag]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def spectrum(rows):
    """A Spectrum from (eight real fields, coherence, edge_stencil) rows."""
    reals = np.array([values for values, _, _ in rows], dtype=float).reshape(-1, 8)
    return eit3.optics.Spectrum(
        *reals.T, probe_coherence=np.array([c for _, c, _ in rows], dtype=complex),
        edge_stencil=np.array([edge for _, _, edge in rows], dtype=bool))


@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_json_writer_matches_json_dumps_on_reference_sweeps(tmp_path, tag):
    run = load_config(str(bundled_config_path(tag)))
    s, failures = eit3.optics.sweep(run.params, run.optics, run.sweep_min,
                                    run.sweep_max, 2001, backend="analytic")
    assert failures == []
    metadata = eit3.cli._metadata(run, "sweep")
    out = tmp_path / "out.json"
    eit3.cli.write_sweep_json(out, metadata, s)
    assert out.read_bytes() == dumps_oracle(metadata, s)


@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_csv_writer_matches_row_oracle_on_reference_sweeps(tmp_path, tag):
    run = load_config(str(bundled_config_path(tag)))
    s, failures = eit3.optics.sweep(run.params, run.optics, run.sweep_min,
                                    run.sweep_max, 2001, backend="numeric")
    assert failures == []
    metadata = eit3.cli._metadata(run, "sweep")
    out = tmp_path / "out.csv"
    eit3.cli.write_sweep_csv(out, metadata, s)
    assert out.read_bytes() == csv_oracle(metadata, s)


def interleaved_failures(monkeypatch, points):
    """The cascade reference sweep at ``points`` points with points 1, 4,
    7, ... failing as a solver fails them (a nan+nanj row), and its errors
    as cmd_sweep passes them to the writers."""
    original = eit3.optics.solve_grid

    def failing(params, deltas, backend):
        block, failures = original(params, deltas, backend)
        assert failures == []
        block[1::3] = complex(math.nan, math.nan)
        return block, [(i, RuntimeError(f"injected {i}"))
                       for i in range(1, len(deltas), 3)]
    monkeypatch.setattr(eit3.optics, "solve_grid", failing)
    run = load_config(str(bundled_config_path("cascade")))
    s, failures = eit3.optics.sweep(run.params, run.optics, run.sweep_min,
                                    run.sweep_max, points, backend="numeric")
    monkeypatch.undo()
    return run, s, [(d, f"{type(e).__name__}: {e}") for d, e in failures]


# one chunk, and three chunks of the writers with failed rows on both sides
# of each chunk boundary
INTERLEAVED_POINTS = [31, 2 * eit3.cli._WRITE_ROWS + 1]


@pytest.mark.parametrize("points", INTERLEAVED_POINTS)
def test_csv_writer_matches_row_oracle_with_interleaved_failures(tmp_path,
                                                                 monkeypatch,
                                                                 points):
    # points 1, 4, 7, ... fail: their rows sit between the solved ones
    run, s, errors = interleaved_failures(monkeypatch, points)
    assert len(s.delta) == points and len(errors) == len(range(1, points, 3))
    metadata = eit3.cli._metadata(run, "sweep")
    out = tmp_path / "out.csv"
    eit3.cli.write_sweep_csv(out, metadata, s, errors)
    assert out.read_bytes() == csv_oracle(metadata, s, errors)
    # a failed row is its detuning and nine nans
    lines = out.read_text(encoding="utf-8").splitlines()[-points:]
    assert lines[1::3] == [",".join([repr(d)] + ["nan"] * 9) for d, _ in errors]
    _, rows, _ = read_sweep_csv(out)
    assert [r["delta_mhz"] for r in rows] == s.delta.tolist()
    assert ([math.isnan(r["n"]) for r in rows]
            == [i % 3 == 1 for i in range(points)])


@pytest.mark.parametrize("points", INTERLEAVED_POINTS)
def test_json_writer_has_no_record_for_a_failed_point(tmp_path, monkeypatch,
                                                      points):
    run, s, errors = interleaved_failures(monkeypatch, points)
    solved = [i for i in range(points) if i % 3 != 1]
    metadata = eit3.cli._metadata(run, "sweep")
    out = tmp_path / "out.json"
    eit3.cli.write_sweep_json(out, metadata, s, errors)
    kept = eit3.optics.Spectrum(**{f.name: getattr(s, f.name)[solved]
                                   for f in fields(eit3.optics.Spectrum)})
    assert out.read_bytes() == dumps_oracle(metadata, kept, errors)


def wide_vee_failures(monkeypatch, points):
    """The vee reference system swept over delta in [-1e77, 1e77] on the
    closed forms: points that overflow or fall to the denominator floor
    around the one that solves, at delta = 0."""
    run = load_config(str(bundled_config_path("vee")))
    s, failures = eit3.optics.sweep(run.params, run.optics, -1e77, 1e77,
                                    points, backend="analytic")
    return run, s, [(d, f"{type(e).__name__}: {e}") for d, e in failures]


def late_first_record(monkeypatch, points, tag):
    """The ``tag`` reference system swept over delta in [-1e77, 0] on the
    closed forms: every point overflows or falls to the denominator floor
    but the last, delta = 0, so the JSON writer's first record falls in
    the last slice."""
    run = load_config(str(bundled_config_path(tag)))
    s, failures = eit3.optics.sweep(run.params, run.optics, -1e77, 0.0,
                                    points, backend="analytic")
    assert [d for d, _ in failures] == s.delta[:-1].tolist()
    return run, s, [(d, f"{type(e).__name__}: {e}") for d, e in failures]


# the first kept record after one writer slice of failed points
LATE_FIRST = [pytest.param(functools.partial(late_first_record, tag=tag),
                           eit3.cli._WRITE_ROWS + 1, id=f"late-first-{tag}")
              for tag in ("lambda", "cascade", "vee")]


@pytest.mark.parametrize("failing, points", [
    pytest.param(interleaved_failures, 2 * eit3.cli._WRITE_ROWS + 1,
                 id="interleaved"),
    pytest.param(wide_vee_failures, 2 * eit3.cli._WRITE_ROWS + 1,
                 id="wide-vee"),
    *LATE_FIRST])
@pytest.mark.parametrize("write", ["write_sweep_csv", "write_sweep_json"])
def test_writer_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch,
                                                      write, failing, points):
    run, s, errors = failing(monkeypatch, points)
    assert 0 < len(errors) < points
    metadata = eit3.cli._metadata(run, "sweep")
    out = tmp_path / "out"
    written = set()
    for rows in (1, 7, eit3.cli._WRITE_ROWS):
        monkeypatch.setattr(eit3.cli, "_WRITE_ROWS", rows)
        getattr(eit3.cli, write)(out, metadata, s, errors)
        written.add(out.read_bytes())
    assert len(written) == 1


def all_failed(monkeypatch, points):
    """The lambda reference system with g_probe = g_pump = 1e60 on the
    closed forms: a power of the rates alone overflows, every point fails."""
    run = load_config(str(bundled_config_path("lambda")))
    params = replace(run.params, g_probe=1e60, g_pump=1e60)
    s, failures = eit3.optics.sweep(params, run.optics, run.sweep_min,
                                    run.sweep_max, points, backend="analytic")
    assert len(failures) == points
    return run, s, [(d, f"{type(e).__name__}: {e}") for d, e in failures]


@pytest.mark.parametrize("failing, points", [
    *LATE_FIRST,
    pytest.param(all_failed, 2 * eit3.cli._WRITE_ROWS + 1, id="all-failed")])
def test_json_writer_opens_its_records_in_a_later_slice(tmp_path, monkeypatch,
                                                        failing, points):
    # the "[" of the first record written, wherever it falls, and "[]"
    # when there is none
    run, s, errors = failing(monkeypatch, points)
    solved = np.isin(s.delta, [d for d, _ in errors], invert=True)
    kept = eit3.optics.Spectrum(**{f.name: getattr(s, f.name)[solved]
                                   for f in fields(eit3.optics.Spectrum)})
    metadata = eit3.cli._metadata(run, "sweep")
    out = tmp_path / "out.json"
    eit3.cli.write_sweep_json(out, metadata, s, errors)
    assert out.read_bytes() == dumps_oracle(metadata, kept, errors)


@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_both_discrepancy_matches_pointwise_maximum(tmp_path, tag):
    # the per-pair maximum over populations and coherence, in Python floats
    assert main(["sweep", tag, "--out", str(tmp_path / "both.csv")]) == EXIT_OK
    metadata, _, _ = read_sweep_csv(tmp_path / "both.csv")
    run = load_config(str(bundled_config_path(tag)))
    (a, a_failures), (b, b_failures) = (
        eit3.optics.sweep(run.params, run.optics, run.sweep_min,
                          run.sweep_max, run.sweep_points, backend=backend)
        for backend in ("analytic", "numeric"))
    assert a_failures == b_failures == []
    pairs = zip(*(column.tolist() for s in (a, b) for column in
                  (s.rho11, s.rho22, s.rho33, s.probe_coherence)))
    expected = max(max(abs(a11 - b11), abs(a22 - b22), abs(a33 - b33),
                       abs(ac - bc))
                   for a11, a22, a33, ac, b11, b22, b33, bc in pairs)
    assert metadata["backend_discrepancy"] == repr(expected)


ODD_NUMBERS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5,
               np.float64(0.1), -1.5, 0.0, 1e300, -2.2250738585072014e-308]
# quotes, a backslash, non-ASCII, control characters and a NaN detuning
ODD_ERRORS = [(math.nan, 'SomeError: "quoted" \\ path'),
              (-1.0, "caf\u00e9 \u03b4 \U0001f600 \x00\x01\t\n\r\x7f"),
              (np.float64(2.5), "")]


@pytest.mark.parametrize("errors", [None, ODD_ERRORS])
@pytest.mark.parametrize("rows", [
    [],
    [(ODD_NUMBERS[:8], complex(ODD_NUMBERS[8], ODD_NUMBERS[9]), True),
     (ODD_NUMBERS[4:12], complex(math.nan, -math.inf), False),
     ([np.float64(x) for x in ODD_NUMBERS[2:10]],
      np.complex128(complex(1e16, -0.0)), True)],
], ids=["no-points", "odd-values"])
def test_json_writer_matches_json_dumps_on_odd_values(tmp_path, rows, errors):
    metadata = {"tool": "eit3", "z_last": "\u00e9\"\\", "a_first": "x"}
    out = tmp_path / "out.json"
    eit3.cli.write_sweep_json(out, metadata, spectrum(rows), errors)
    assert out.read_bytes() == dumps_oracle(metadata, spectrum(rows), errors)


def check_json_writer_against_json_dumps(out, max_rows):
    """write_sweep_json against dumps_oracle on up to ``max_rows`` rows of
    any floats, NaN and the infinities included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None,
                         database=None)
    @hypothesis.given(st.lists(st.tuples(st.lists(st.floats(), min_size=10,
                                                  max_size=10),
                                         st.booleans()), max_size=max_rows))
    def check(rows):
        s = spectrum([(values[:8], complex(values[8], values[9]), edge)
                      for values, edge in rows])
        eit3.cli.write_sweep_json(out, {"command": "sweep"}, s)
        assert out.read_bytes() == dumps_oracle({"command": "sweep"}, s)

    check()


def test_json_writer_matches_json_dumps_property(tmp_path):
    check_json_writer_against_json_dumps(tmp_path / "out.json", 4)


@pytest.mark.parametrize("write_rows", [1, 3])
def test_json_writer_spells_non_finite_numbers_per_slice_property(
        tmp_path, monkeypatch, write_rows):
    # json's NaN and Infinity are spelled only in a column slice that holds
    # one: with slices of 1 or 3 rows and up to 8 rows, slices with and
    # without non-finite numbers alternate within one file
    monkeypatch.setattr(eit3.cli, "_WRITE_ROWS", write_rows)
    check_json_writer_against_json_dumps(tmp_path / "out.json", 8)


def test_json_writer_spells_an_infinity_in_the_last_slice_only(tmp_path):
    # every number finite but one v_g, in the one-row third slice
    points = 2 * eit3.cli._WRITE_ROWS + 1
    rows = [([float(i), 1.0 + i * 1e-9, i * 0.5, 1e12 + i, 3e8 / (1 + i),
              0.9, 0.1 - i * 1e-6, -0.0], complex(i * 1e-3, -i * 1e-4), i % 2)
            for i in range(points)]
    rows[-1][0][4] = math.inf
    s = spectrum(rows)
    out = tmp_path / "out.json"
    eit3.cli.write_sweep_json(out, {"command": "sweep"}, s)
    assert out.read_bytes() == dumps_oracle({"command": "sweep"}, s)
    text = out.read_text(encoding="utf-8")
    assert text.count("Infinity") == 1 and "NaN" not in text
    assert text.endswith('   "v_g_m_per_s": Infinity\n  }\n ]\n}\n')


def test_the_parser_keeps_no_state_between_main_calls(tmp_path, capsys):
    # one parser serves every main call of a process: an option given to one
    # call must not carry over into the next, which takes its default
    cfg = write_config(tmp_path, sweep={"min": -2.0, "max": 2.0, "points": 5},
                       output={"path": "own.csv", "format": "csv"})
    assert main(["sweep", str(cfg), "--out", "override.csv"]) == EXIT_OK
    assert main(["sweep", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out == (f"wrote {tmp_path / 'override.csv'}\n"
                                       f"wrote {tmp_path / 'own.csv'}\n")

    assert main(["steady", "lambda", "--delta", "2"]) == EXIT_OK
    assert main(["steady", "lambda"]) == EXIT_OK
    titles = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("steady state")]
    assert [t.split(", ")[1] for t in titles] == ["delta_probe = 2 MHz",
                                                   "delta_probe = 0 MHz"]

    for name, step in (("fine", ["--dt", "1e-4"]), ("default", [])):
        main(["evolve", "lambda", "--t-end", "0.01", *step,
              "--out", f"{name}.csv"])
    steps = [read_sweep_csv(tmp_path / f"{name}.csv")[0]["dt_max_us"]
             for name in ("fine", "default")]
    default = STEP_SAFETY / reference_params("lambda").rate_scale
    assert steps == ["0.0001", repr(default)]


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    eit3.cli._build_parser.cache_clear()
    assert main(["steady", "lambda"]) == EXIT_OK
    assert "eit3" in built  # the parser and its subcommands' parsers
    first_call = len(built)
    assert main(["steady", "vee"]) == EXIT_OK
    assert len(built) == first_call


def test_output_dir_env_used(tmp_path):
    cfg = write_config(tmp_path, sweep={"min": -2.0, "max": 2.0, "points": 5},
                       output={"path": "envout.csv", "format": "csv"})
    assert main(["sweep", str(cfg)]) == EXIT_OK
    assert (tmp_path / "envout.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


PUMP_DETUNED = ("PumpDetuningUnsupportedError: PumpDetuningUnsupported: closed-form "
                "steady states require delta_pump = 0, got 1.7")


def shift_numeric_sweep(monkeypatch):
    """Make the numeric sweep's rho11 read 1e-5 high, past the 1e-6 agreement
    tolerance."""
    original = eit3.cli.sweep

    def shifted(*args, backend, **kwargs):
        s, failures = original(*args, backend=backend, **kwargs)
        if backend == "numeric":
            s = replace(s, rho11=s.rho11 + 1e-5)
        return s, failures
    monkeypatch.setattr(eit3.cli, "sweep", shifted)


def shift_numeric_solve(monkeypatch):
    original = eit3.cli.solve_grid

    def shifted(params, deltas, backend):
        block, failures = original(params, deltas, backend)
        return (block + 1e-5 if backend == "numeric" else block), failures
    monkeypatch.setattr(eit3.cli, "solve_grid", shifted)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_backend_discrepancy_exits_3(tmp_path, capsys, monkeypatch, fmt):
    shift_numeric_sweep(monkeypatch)
    cfg = write_config(tmp_path, sweep={"min": -5.0, "max": 5.0, "points": 21},
                       output={"path": f"disc.{fmt}", "format": fmt})
    assert main(["sweep", str(cfg)]) == EXIT_DISCREPANCY
    read = read_sweep_csv if fmt == "csv" else read_sweep_json
    metadata, rows, errors = read(tmp_path / f"disc.{fmt}")
    disc = float(metadata["backend_discrepancy"])
    assert 1e-5 <= disc <= 1e-5 + 1e-12
    assert not errors
    # the analytic profile is the one written
    run = load_config(cfg)
    analytic, failures = eit3.optics.sweep(run.params, run.optics, -5.0, 5.0,
                                           21, backend="analytic")
    assert failures == []
    assert [r["rho11"] for r in rows] == analytic.rho11.tolist()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: numeric vs analytic discrepancy {disc:.3e} "
                            "exceeds 1e-06\n")


def test_steady_backend_discrepancy_exits_3(capsys, monkeypatch):
    shift_numeric_solve(monkeypatch)
    assert main(["steady", "lambda", "--delta", "2.5"]) == EXIT_DISCREPANCY
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "max-abs backend discrepancy = 1.000e-05"
    assert captured.err == "error: discrepancy exceeds 1e-06\n"


def test_darkstate_backend_discrepancy_exits_3(capsys, monkeypatch):
    shift_numeric_solve(monkeypatch)
    assert main(["darkstate", "lambda"]) == EXIT_DISCREPANCY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: backend discrepancy 1.000e-05\n"


def test_steady_both_with_pump_detuning(tmp_path, capsys):
    # the numeric state is printed before the closed forms refuse delta_pump
    cfg = write_config(tmp_path, delta_pump=1.7)
    assert main(["steady", str(cfg), "--delta", "0"]) == EXIT_SOLVER
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[:2] == ["steady state (lambda, delta_probe = 0 MHz, "
                         "delta_pump = 1.7 MHz)", "backend numeric:"]
    assert lines[2] == "  rho11 = 0.999976605  rho22 = 0.000023033  rho33 = 0.000000362"
    assert len(lines) == 6 and "analytic" not in captured.out
    assert captured.err == f"error: {PUMP_DETUNED}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_both_with_pump_detuning(tmp_path, capsys, fmt):
    # the analytic sweep runs first; its failure is the partial file written
    cfg = write_config(tmp_path, delta_pump=1.7,
                       sweep={"min": -1.0, "max": 1.0, "points": 5},
                       output={"path": f"detuned.{fmt}", "format": fmt})
    assert main(["sweep", str(cfg)]) == EXIT_SOLVER
    read = read_sweep_csv if fmt == "csv" else read_sweep_json
    metadata, rows, errors = read(tmp_path / f"detuned.{fmt}")
    assert "backend_discrepancy" not in metadata
    deltas = [-1.0, -0.5, 0.0, 0.5, 1.0]
    if fmt == "csv":
        assert errors == [f"delta={d!r} {PUMP_DETUNED}" for d in deltas]
        assert [r["delta_mhz"] for r in rows] == deltas
        assert all(math.isnan(r["n"]) for r in rows)
    else:
        assert errors == [{"delta_mhz": d, "error": PUMP_DETUNED} for d in deltas]
        assert rows == []
    err = capsys.readouterr().err.splitlines()
    assert err[:5] == [f"error: delta={d:g} MHz: {PUMP_DETUNED}" for d in deltas]
    assert err[5:] == [f"partial output retained in {tmp_path / f'detuned.{fmt}'}"]


def test_sweep_both_writes_the_analytic_failure(tmp_path, capsys):
    # both backends fail here; the analytic sweep runs first, so its errors
    # make the partial file
    cfg = write_config(tmp_path, g_probe=0.0, g_pump=0.0,
                       sweep={"min": -1.0, "max": 1.0, "points": 3})
    assert main(["sweep", str(cfg)]) == EXIT_SOLVER
    _, _, errors = read_sweep_csv(tmp_path / "out.csv")
    assert len(errors) == 3
    assert all("DegenerateDenominatorError" in e for e in errors)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_both_keeps_the_analytic_profile_when_numeric_fails(tmp_path, capsys,
                                                                   fmt):
    # every rate and the range scaled by 1e-14: the closed forms solve each
    # point, while the numeric solve is too ill-conditioned at each
    rates = {name: base_config()[name] * 1e-14
             for name in ("g_probe", "g_pump", "gamma_a", "gamma_b")}
    grid = {"min": -30.0 * 1e-14, "max": 30.0 * 1e-14, "points": 11}
    read = read_sweep_csv if fmt == "csv" else read_sweep_json
    files = {}
    for backend in ("analytic", "both"):
        cfg = write_config(tmp_path, f"{backend}-run.json", backend=backend,
                           sweep=grid, **rates,
                           output={"path": f"{backend}.{fmt}", "format": fmt})
        code = main(["sweep", str(cfg)])
        assert code == (EXIT_OK if backend == "analytic" else EXIT_SOLVER)
        files[backend] = read(tmp_path / f"{backend}.{fmt}")
    analytic_rows, both_rows = files["analytic"][1], files["both"][1]
    assert len(both_rows) == 11
    assert all(math.isfinite(r["n"]) for r in both_rows)
    assert both_rows == analytic_rows
    metadata, _, errors = files["both"]
    assert "backend_discrepancy" not in metadata and not errors
    run = load_config(cfg)
    _, failures = eit3.optics.sweep(run.params, run.optics, grid["min"],
                                    grid["max"], 11, backend="numeric")
    assert len(failures) == 11
    captured = capsys.readouterr()
    assert captured.out == f"wrote {tmp_path / f'analytic.{fmt}'}\n"
    assert captured.err.splitlines() == [
        f"error: delta={d:g} MHz: {type(e).__name__}: {e}"
        for d, e in failures]
