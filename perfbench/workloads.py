"""The benchmark's workloads: generated inputs, timed rounds and output checks.

A workload's inputs come only from its seed.  A round runs the workload's
whole input list once, so every round does the same work; the harness in
``run.py`` repeats rounds until the run's time is used.  Each round returns
one sample ``(operation, units, seconds, reference_s)`` per operation, where
``reference_s`` is the machine-speed burst (``reference.py``) timed around
it, and the failures its checks found.  Checks run outside the timed
sections.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import eit3.analytic
import eit3.cli
import eit3.model
import eit3.steady
from eit3.model import Configuration, SystemParams, obe_rhs
from eit3.presets import reference_params
from eit3.steady import is_density_matrix

import reference
import tracing

HERE = Path(__file__).resolve().parent
TAGS = ("lambda", "cascade", "vee")

SWEEP_POINTS = 2001
SCAN_BATCH = 200
EVOLVE_T_END = 500.0
CLI_TIMEOUT_S = 120.0

# agreement of the two steady-state solvers (the CLI's own --backend both bound)
BACKEND_TOL = 1e-6
# evolve: trace drift of a recorded state, and distance of the final state
# from the steady state (the CLI's convergence test)
TRACE_TOL = 1e-9
CONVERGED_TOL = 1e-6
# scan: max|drho/dt| of a returned state relative to the largest rate
RESIDUAL_TOL = 1e-10


@dataclass
class Round:
    samples: list[tuple[str, float, float, float]] = field(default_factory=list)
    ops: int = 0
    failures: list[str] = field(default_factory=list)
    bytes_written: int = 0


@contextlib.contextmanager
def _sample(rnd: Round, op: str, units: float, tracer: tracing.Tracer | None):
    """Time the enclosed work as one sample, traced if a tracer is given,
    between two machine-speed bursts."""
    before = reference.burst()
    with tracing.installed(tracer):
        t0 = perf_counter()
        yield
        elapsed = perf_counter() - t0
    rnd.samples.append((op, units, elapsed, (before + reference.burst()) / 2))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# checks (pure functions of the outputs, so tests can feed them bad data)
# ---------------------------------------------------------------------------

SWEEP_FIELDS = ("rho11", "rho22", "rho33", "re_coh", "im_coh")


def check_sweep_pair(csv_path, json_path, points: int) -> list[str]:
    """Numeric CSV against analytic JSON of one grid: every point's
    populations and probe coherence agree within BACKEND_TOL."""
    _, rows, csv_errors = eit3.cli.read_sweep_csv(csv_path)
    _, records, json_errors = eit3.cli.read_sweep_json(json_path)
    if csv_errors or json_errors:
        return [f"{csv_path}: solver errors {csv_errors or json_errors}"]
    if not len(rows) == len(records) == points:
        return [f"{csv_path}: {len(rows)} numeric / {len(records)} analytic rows, "
                f"expected {points}"]
    for row, rec in zip(rows, records):
        if row["delta_mhz"] != rec["delta_mhz"]:
            return [f"{csv_path}: grids differ at {row['delta_mhz']!r}"]
        worst = max(abs(row[k] - rec[k]) for k in SWEEP_FIELDS)
        if not worst <= BACKEND_TOL:
            return [f"{csv_path}: backends differ by {worst:.3e} at "
                    f"delta={row['delta_mhz']!r}"]
    return []


def check_scan_state(p: SystemParams, rho: np.ndarray,
                     rho_analytic: np.ndarray | None) -> list[str]:
    """A solved state is a density matrix, nearly stationary under the
    longhand optical Bloch equations, and equal to the closed form."""
    problems = []
    for label, state in (("numeric", rho), ("analytic", rho_analytic)):
        if state is None:
            continue
        if not is_density_matrix(state):
            problems.append(f"{label} state of {p} is not a density matrix")
        residual = float(np.abs(obe_rhs(p, state)).max())
        if not residual <= RESIDUAL_TOL * p.rate_scale:
            problems.append(f"{label} state of {p} has residual {residual:.3e}")
    if rho_analytic is not None:
        disc = float(np.abs(rho - rho_analytic).max())
        if not disc <= BACKEND_TOL:
            problems.append(f"backends differ by {disc:.3e} for {p}")
    return problems


def check_trajectory(traj, target: np.ndarray, t_end: float) -> list[str]:
    """Every recorded state keeps unit trace; the last one is the steady state."""
    problems = []
    trace_err = float(np.abs(np.trace(traj.states, axis1=1, axis2=2) - 1.0).max())
    if not trace_err <= TRACE_TOL:
        problems.append(f"trace error {trace_err:.3e}")
    if traj.times[-1] != t_end:
        problems.append(f"trajectory ends at {traj.times[-1]!r}, not {t_end!r}")
    residual = float(np.abs(traj.final - target).max())
    if not residual <= CONVERGED_TOL:
        problems.append(f"final state is {residual:.3e} from the steady state")
    return problems


def check_same_bytes(digests: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Data files of a repeated run match the first run byte for byte."""
    return [f"{name} differs from the first run"
            for name in sorted(set(digests) | set(reference))
            if digests.get(name) != reference.get(name)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Sweep:
    """The bundled configs, 2001 points, through ``eit3.cli.main``.

    ``backend`` is the one timed; the other backend's file is written once,
    untimed, as the reference the checks compare every point against.
    """

    def __init__(self, backend: str, seed: int, workdir: Path):
        self.name = f"sweep-{backend}"
        self.backend = backend
        self.other = "analytic" if backend == "numeric" else "numeric"
        rng = _rng(self.name, seed)
        self.configs: dict[tuple[str, str], dict] = {}
        tags = list(TAGS)
        rng.shuffle(tags)
        for tag in tags:
            doc = json.loads(eit3.cli.bundled_config_path(tag).read_text())
            half = rng.uniform(20.0, 40.0)
            center = rng.uniform(-5.0, 5.0)
            doc["sweep"] = {"min": center - half, "max": center + half,
                            "points": SWEEP_POINTS}
            for backend_, fmt in (("numeric", "csv"), ("analytic", "json")):
                self.configs[tag, backend_] = dict(
                    doc, backend=backend_,
                    output={"path": f"{tag}_{backend_}.{fmt}", "format": fmt})
        self.tags = tags
        in_dir = workdir / "inputs"
        self.out_dir = workdir / "out"
        in_dir.mkdir(parents=True)
        self.out_dir.mkdir()
        self.paths = {}
        for (tag, backend_), doc in self.configs.items():
            path = in_dir / f"{tag}_{backend_}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n")
            self.paths[tag, backend_] = path
        self.reference: dict[str, str] = {}
        self.failed: set[str] = set()
        self.calls: dict[str, int] = {}

    def inputs(self):
        return [self.configs[tag, b] for tag in self.tags for b in ("numeric", "analytic")]

    def _out(self, tag: str, backend: str) -> Path:
        return self.out_dir / self.configs[tag, backend]["output"]["path"]

    def _main(self, tag: str, backend: str) -> int:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return eit3.cli.main(["sweep", str(self.paths[tag, backend]),
                                  "--out", str(self._out(tag, backend))])

    def warm_up(self) -> None:
        for tag in self.tags:
            if self._main(tag, self.other) != 0:
                self.failed.add(f"{tag} {self.other} reference sweep failed")

    def run_round(self, tracer: tracing.Tracer | None = None) -> Round:
        rnd = Round()
        for tag in self.tags:
            self._out(tag, self.backend).unlink(missing_ok=True)  # each call must write
            with _sample(rnd, tag, SWEEP_POINTS, tracer):
                try:
                    code = self._main(tag, self.backend)
                except Exception as exc:  # counted as a failed operation
                    code = f"{type(exc).__name__}: {exc}"
            rnd.ops += 1
            self.calls[tag] = self.calls.get(tag, 0) + 1
            out = self._out(tag, self.backend)
            if code != 0 or not out.exists():
                rnd.failures.append(f"{tag} {self.backend} sweep returned {code}")
                continue
            rnd.bytes_written += out.stat().st_size
            digest = _sha256(out)
            rnd.failures += check_same_bytes({tag: digest},
                                             {tag: self.reference.setdefault(tag, digest)})
        return rnd

    def check(self) -> list[str]:
        problems = sorted(self.failed)
        for tag in self.tags:
            csv, js = self._out(tag, "numeric"), self._out(tag, "analytic")
            if not (csv.exists() and js.exists()):
                continue  # already counted as a failed call
            bad = check_sweep_pair(csv, js, SWEEP_POINTS)
            if bad:  # every call of this config wrote the same wrong file
                problems += bad * self.calls.get(tag, 1)
        return problems


class Scan:
    """Single-point solves with random, partly stiff parameters (N = 1)."""

    name = "scan"

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(self.name, seed)
        lo, hi = math.log(1e-2), math.log(3e2)
        self.params = []
        for i in range(SCAN_BATCH):
            rates = [math.exp(rng.uniform(lo, hi)) for _ in range(4)]
            delta_probe = rng.uniform(-50.0, 50.0)
            delta_pump = 0.0 if i % 2 == 0 else rng.uniform(-20.0, 20.0)
            self.params.append(SystemParams(
                Configuration(TAGS[i % 3]), *rates,
                delta_probe=delta_probe, delta_pump=delta_pump))

    def inputs(self):
        return [repr(p) for p in self.params]

    def warm_up(self) -> None:
        p = self.params[0]
        eit3.steady.steady_state(eit3.model.build_liouvillian(p))
        eit3.analytic.analytic_steady_state(p)

    def run_round(self, tracer: tracing.Tracer | None = None) -> Round:
        rnd = Round(ops=len(self.params))
        results = []
        with _sample(rnd, "batch", len(self.params), tracer):
            for p in self.params:
                try:
                    rho = eit3.steady.steady_state(eit3.model.build_liouvillian(p))
                    rho_a = (eit3.analytic.analytic_steady_state(p)
                             if p.delta_pump == 0.0 else None)
                    results.append((p, rho, rho_a))
                except Exception as exc:  # counted as a failed operation
                    results.append((p, exc, None))
        for p, rho, rho_a in results:
            if isinstance(rho, Exception):
                rnd.failures.append(f"{p}: {type(rho).__name__}: {rho}")
            else:
                rnd.failures += check_scan_state(p, rho, rho_a)[:1]
        return rnd

    def check(self) -> list[str]:
        return []


class Evolve:
    """RK4 trajectories of the three reference systems, off resonance."""

    name = "evolve"

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(self.name, seed)
        self.runs = []
        tags = list(TAGS)
        rng.shuffle(tags)
        for tag in tags:
            delta = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0)
            p = reference_params(tag, delta_probe=delta)
            self.runs.append((p, EVOLVE_T_END, 0.1 / p.rate_scale))
        self.ground = np.zeros((3, 3), dtype=complex)
        self.ground[2, 2] = 1.0  # |1><1|

    def inputs(self):
        return [(repr(p), t_end, dt) for p, t_end, dt in self.runs]

    def warm_up(self) -> None:
        p, _, dt = self.runs[0]
        eit3.steady.evolve(eit3.model.build_liouvillian(p), self.ground, 1000 * dt, dt)

    def run_round(self, tracer: tracing.Tracer | None = None) -> Round:
        rnd = Round()
        for p, t_end, dt in self.runs:
            with _sample(rnd, p.config.value, tracing.rk4_steps(t_end, dt), tracer):
                try:
                    L = eit3.model.build_liouvillian(p)
                    traj = eit3.steady.evolve(L, self.ground, t_end, dt_max=dt)
                except Exception as exc:  # counted as a failed operation
                    traj = exc
            rnd.ops += 1
            if isinstance(traj, Exception):
                rnd.failures.append(f"{p}: {type(traj).__name__}: {traj}")
                continue
            target = eit3.steady.steady_state(L)
            rnd.failures += [f"{p}: {msg}" for msg in
                             check_trajectory(traj, target, t_end)[:1]]
        return rnd

    def check(self) -> list[str]:
        return []


class Cli:
    """Terminal sessions: one fresh interpreter per eit3 command.

    ``cli_child.py`` runs the command as ``python -m eit3.cli`` would, then
    times the machine-speed burst in the same process, since a process's
    speed on a shared machine is partly its own.
    """

    name = "cli"
    COMMANDS = (
        ("sweep", "lambda"),
        ("sweep", "cascade"),
        ("sweep", "vee"),
        ("steady", "lambda", "--delta", "2"),
        ("darkstate", "vee"),
        ("calibrate",),
        ("evolve", "lambda", "--t-end", "500"),
    )
    SWEEP_FILES = ("lambda_sweep.csv", "cascade_sweep.csv", "vee_sweep.csv")

    def __init__(self, seed: int, workdir: Path, env: dict[str, str]):
        rng = _rng(self.name, seed)
        self.commands = list(self.COMMANDS)
        rng.shuffle(self.commands)
        self.workdir = workdir
        self.env = env
        self.sessions = 0
        self.reference: dict[str, str] | None = None

    def inputs(self):
        return [list(c) for c in self.commands]

    def warm_up(self) -> None:
        pass  # every command pays its own start-up; that is the workload

    def run_round(self, tracer: tracing.Tracer | None = None) -> Round:
        self.sessions += 1
        out = self.workdir / f"session-{self.sessions}"
        out.mkdir()
        env = dict(self.env, EIT3_OUTPUT_DIR=str(out))
        report = self.workdir / "report.json"
        rnd = Round()
        for command in self.commands:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(report),
                    "0" if tracer is None else "1", *command]
            t0 = perf_counter()
            try:
                proc = subprocess.run(argv, env=env, cwd=self.workdir,
                                      capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S)
                code, err = proc.returncode, proc.stderr.strip()
            except subprocess.TimeoutExpired:
                code, err = "timeout", ""
            elapsed = perf_counter() - t0
            rnd.ops += 1
            if code != 0:
                rnd.failures.append(f"eit3 {' '.join(command)} exited {code}: {err}")
            if not report.exists():
                rnd.failures.append(f"eit3 {' '.join(command)} wrote no report")
                continue
            doc = json.loads(report.read_text())
            report.unlink()
            rnd.samples.append((" ".join(command), 1,
                                elapsed - doc["burst_phase_s"], doc["reference_s"]))
            if tracer is not None:
                tracer.extend(doc["spans"])
        digests = {}
        for path in sorted(out.iterdir()):
            digests[path.name] = _sha256(path)
            rnd.bytes_written += path.stat().st_size
        for name in self.SWEEP_FILES:
            if name in digests:
                meta, _, _ = eit3.cli.read_sweep_csv(out / name)
                disc = float(meta.get("backend_discrepancy", "nan"))
                if not disc <= BACKEND_TOL:
                    rnd.failures.append(f"{name}: backend_discrepancy {disc!r}")
        if self.reference is None:
            self.reference = digests
        rnd.failures += check_same_bytes(digests, self.reference)
        shutil.rmtree(out)
        return rnd

    def check(self) -> list[str]:
        return []


WORKLOADS = ("sweep-numeric", "sweep-analytic", "scan", "evolve", "cli")


def make(name: str, seed: int, workdir: Path, env: dict[str, str]):
    if name == "sweep-numeric":
        return Sweep("numeric", seed, workdir)
    if name == "sweep-analytic":
        return Sweep("analytic", seed, workdir)
    if name == "scan":
        return Scan(seed, workdir)
    if name == "evolve":
        return Evolve(seed, workdir)
    if name == "cli":
        return Cli(seed, workdir, env)
    raise ValueError(f"unknown workload {name!r}")
