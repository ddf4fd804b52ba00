"""Tests of the benchmark itself: determinism, metric names and checks.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import hashlib
import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eit3.analytic
import eit3.cli
import eit3.darkstate
import eit3.optics
import eit3.steady
import run
import tracing
import workloads
from eit3.model import build_liouvillian
from eit3.presets import reference_params

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_dirs = itertools.count()


def _make(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}-{next(_dirs)}"
    workdir.mkdir()
    return workloads.make(name, seed, workdir, run.child_env())


def _result(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    first = _make(name, 7, tmp_path).inputs()
    assert _make(name, 7, tmp_path).inputs() == first
    assert _make(name, 8, tmp_path).inputs() != first


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_counts(name, tmp_path):
    def counts():
        wl = _make(name, 3, tmp_path)
        wl.warm_up()  # the lazy calibration runs once per process, as in run.py
        tracer = tracing.Tracer()
        rnd = wl.run_round(tracer)
        assert rnd.failures == []
        layers = tracing.aggregate(tracer.spans)["layers"]
        return rnd.ops, {k: (v["calls"], v["units"]) for k, v in layers.items()}

    ops, calls = counts()
    assert ops > 0 and any(c for c, _ in calls.values())
    assert counts() == (ops, calls)


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _result("--workload", "scan", "--seed", "1", "--seconds", "0.5",
                         "--trace", str(trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[key]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_patches_every_namespace_and_restores_it():
    original = eit3.steady.steady_state
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for module in (eit3.steady, eit3.optics, eit3.darkstate, eit3.cli):
            assert module.steady_state is not original
        eit3.darkstate.population_sweep(reference_params("lambda"), -1, 1, 3,
                                        backend="numeric")
    for module in (eit3.steady, eit3.optics, eit3.darkstate, eit3.cli):
        assert module.steady_state is original
    layers = tracing.aggregate(tracer.spans)["layers"]
    assert layers["steady.steady_state"]["calls"] == 3
    assert layers["model.build_liouvillian"]["calls"] == 3


def test_self_time_subtracts_children():
    spans = [["cli.main", 0.0, 10.0, -1, False, 0],
             ["optics.sweep", 1.0, 9.0, 0, False, 5],
             ["steady.steady_state", 2.0, 3.0, 1, False, 0],
             ["steady.steady_state", 4.0, 6.0, 1, True, 0]]
    summary = tracing.aggregate(spans)
    layers = summary["layers"]
    assert layers["cli.main"]["self_s"] == 2.0
    assert layers["optics.sweep"]["self_s"] == 5.0
    assert layers["optics.sweep"]["units"] == 5
    assert layers["steady.steady_state"] == {"calls": 2, "errors": 1, "units": 0,
                                             "self_s": 3.0}
    assert summary["covered_s"] == 10.0


def test_tampered_sweep_file_is_a_failed_operation(tmp_path):
    wl = _make("sweep-analytic", 5, tmp_path)
    wl.warm_up()
    assert wl.run_round().failures == []
    assert wl.check() == []
    tag = wl.tags[0]
    out = wl._out(tag, "analytic")
    doc = json.loads(out.read_text())
    doc["records"][1000]["rho11"] += 1e-5
    out.write_text(json.dumps(doc))
    assert len(wl.check()) == 1  # the one call that wrote this file


def test_changed_bytes_are_a_failed_operation():
    digest = hashlib.sha256(b"x").hexdigest()
    assert workloads.check_same_bytes({"a.csv": digest}, {"a.csv": digest}) == []
    assert workloads.check_same_bytes({"a.csv": digest}, {"a.csv": "0" * 64})
    assert workloads.check_same_bytes({}, {"a.csv": digest})


def test_perturbed_scan_state_fails():
    p = replace(reference_params("vee"), delta_probe=3.0)
    rho = eit3.steady.steady_state(build_liouvillian(p))
    rho_a = eit3.analytic.analytic_steady_state(p)
    assert workloads.check_scan_state(p, rho, rho_a) == []
    bump = np.zeros((3, 3), dtype=complex)
    bump[2, 0] = bump[0, 2] = 1e-5
    assert workloads.check_scan_state(p, rho + bump, rho_a)
    assert workloads.check_scan_state(p, rho, rho_a + bump)
    assert workloads.check_scan_state(p, rho, None) == []


def test_perturbed_trajectory_fails():
    p = replace(reference_params("vee"), delta_probe=3.0)
    L = build_liouvillian(p)
    target = eit3.steady.steady_state(L)
    ground = np.zeros((3, 3), dtype=complex)
    ground[2, 2] = 1.0
    traj = eit3.steady.evolve(L, ground, 10.0, dt_max=0.1 / p.rate_scale)
    assert workloads.check_trajectory(traj, target, 10.0) == []
    states = traj.states.copy()
    states[5, 0, 0] += 1e-8  # trace drift
    assert workloads.check_trajectory(replace(traj, states=states), target, 10.0)
    assert workloads.check_trajectory(traj, target + 1e-5, 10.0)


def test_failed_command_is_a_failed_operation(tmp_path):
    wl = _make("cli", 1, tmp_path)
    wl.commands = [("steady", str(tmp_path / "missing.json"))]
    rnd = wl.run_round()
    assert rnd.ops == 1 and len(rnd.failures) == 1
