"""eit3 benchmark: one workload per run, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-numeric, sweep-analytic, scan, evolve, cli (see
RATIONALE.md).  The run builds its inputs from the seed, times the set-up of
fresh interpreters, repeats rounds of the workload until S seconds are
used, and checks every output outside the timed sections.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics from the traced ones.
End-to-end times are quoted at the nominal machine speed of
``reference.py``; the raw values are in the line before the result.

stdout ends with two JSON lines: the run's provenance and sample counts,
then the result ``{"correct", "attempted", "failed", "metrics"}``.  The run
exits with code 2 and prints no result when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# the program runs sequentially; pin the BLAS pools to one thread so idle
# pool threads do not compete with it on a small machine
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the names of workloads.WORKLOADS; that module imports eit3, so it loads
# only after the sources are found
WORKLOADS = ("sweep-numeric", "sweep-analytic", "scan", "evolve", "cli")
# set-up is timed before and after the rounds, so that its median spans the
# whole run rather than one moment of a shared machine
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 3
MIN_ROUNDS = 2

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}

LAYER_STATS = {
    "cli.main": ("self_s",),
    "cli.load_config": ("calls", "self_s"),
    "cli.write_sweep_csv": ("self_s",),
    "cli.write_sweep_json": ("self_s",),
    "optics.sweep": ("calls", "points", "self_s", "self_us_per_point"),
    "model.build_liouvillian": ("calls", "self_s", "us_per_call"),
    "steady.steady_state": ("calls", "self_s", "us_per_call", "errors"),
    "analytic.analytic_steady_state": ("calls", "self_s", "us_per_call", "errors"),
    "steady.evolve": ("calls", "steps", "self_s", "ns_per_step"),
    "darkstate.estimate_mixing_angle": ("calls", "self_s"),
    "darkstate.verify_dark_state": ("calls", "self_s"),
}
STAT_UNITS = {"calls": "count", "errors": "count", "points": "count",
              "steps": "count", "self_s": "s", "us_per_call": "us",
              "self_us_per_point": "us", "ns_per_step": "ns"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"setup.import_s": "s", "setup.calibrate_s": "s"}
    for layer, stats in LAYER_STATS.items():
        units.update({f"{layer}.{stat}": STAT_UNITS[stat] for stat in stats})
    units.update({"cli.bytes_written": "bytes", "trace.overhead_share": "ratio",
                  "trace.uncovered_s": "s"})
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["TMPDIR"] = str(WORK)
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    return env


def measure_setup(env: dict[str, str], probes: int) -> list[tuple[float, float, float]]:
    """(import_s, calibrate_s, reference_s) of fresh interpreters, one
    bundled config each."""
    tags = ("lambda", "cascade", "vee")
    out = []
    for i in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), tags[i % 3]],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        import_s, calibrate_s, reference_s = map(float, proc.stdout.split())
        out.append((import_s, calibrate_s, reference_s))
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "eit3").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"seed": seed, "commit": commit, "source_sha256": _source_digest(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS}}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_rounds(workload, seconds: float, tracer) -> tuple[list, list]:
    """Rounds for about ``seconds``, at least MIN_ROUNDS of them.

    A new round starts only while the mean round so far still fits in the
    time left.  Without a tracer every round is untraced.  With one, rounds
    come in pairs, untraced and traced, alternating which of the two goes
    first, and at least one pair runs.  Returns (untraced, traced) rounds.
    """
    plain, traced = [], []
    least = MIN_ROUNDS if tracer is None else 1
    start = perf_counter()
    while True:
        done = max(len(plain), len(traced))  # rounds, or pairs of rounds
        if done >= least and (perf_counter() - start) * (done + 1) / done > seconds:
            break
        if tracer is None:
            plain.append(workload.run_round())
            continue
        for t in ((None, tracer) if done % 2 == 0 else (tracer, None)):
            (plain if t is None else traced).append(workload.run_round(t))
    return plain, traced


def _nominal_s(samples, nominal: float) -> float:
    """Summed sample seconds, each scaled to the nominal machine speed."""
    return sum(s * nominal / ref for _, _, s, ref in samples)


def work_per_s(samples, nominal: float | None) -> tuple[float, dict]:
    """Units of one round over the sum of each operation's median time.

    Every round runs the same operations, so this is the throughput of a
    round in which each operation took its typical time.  With ``nominal``
    each time is first scaled to the nominal machine speed; with None it is
    the raw wall time.  Also returns the per-operation median seconds.
    """
    times: dict[str, list[float]] = {}
    units: dict[str, float] = {}
    for op, u, s, ref in samples:
        times.setdefault(op, []).append(s if nominal is None else s * nominal / ref)
        units[op] = u
    medians = {op: statistics.median(v) for op, v in times.items()}
    return sum(units.values()) / sum(medians.values()), medians


def layer_metrics(spans_summary: dict, traced: list, plain: list,
                  setup: list[tuple[float, float, float]],
                  nominal: float) -> dict[str, float]:
    n = len(traced)
    values = {"setup.import_s": statistics.median(s[0] for s in setup),
              "setup.calibrate_s": statistics.median(s[1] for s in setup)}
    for layer, stats in LAYER_STATS.items():
        entry = spans_summary["layers"][layer]
        calls, self_s, units = entry["calls"], entry["self_s"], entry["units"]
        derived = {
            "calls": calls / n, "errors": entry["errors"] / n,
            "points": units / n, "steps": units / n, "self_s": self_s / n,
            "us_per_call": 1e6 * self_s / calls if calls else 0.0,
            "self_us_per_point": 1e6 * self_s / units if units else 0.0,
            "ns_per_step": 1e9 * self_s / units if units else 0.0,
        }
        values.update({f"{layer}.{stat}": derived[stat] for stat in stats})
    traced_s = sum(s for r in traced for _, _, s, _ in r.samples)
    values["cli.bytes_written"] = sum(r.bytes_written for r in traced) / n
    values["trace.overhead_share"] = (
        _nominal_s((x for r in traced for x in r.samples), nominal)
        / _nominal_s((x for r in plain for x in r.samples), nominal) - 1.0)
    values["trace.uncovered_s"] = (traced_s - spans_summary["covered_s"]) / n
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eit3" / "__init__.py").is_file():
        print(f"error: the eit3 sources are missing under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        env = child_env()
        try:
            setup = measure_setup(env, SETUP_PROBES_BEFORE)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        import eit3
        if Path(eit3.__file__).resolve().parent != SRC / "eit3":
            print(f"error: eit3 imported from {eit3.__file__}", file=sys.stderr)
            return 2
        import reference
        import tracing
        import workloads

        workload = workloads.make(args.workload, args.seed, workdir, env)
        workload.warm_up()
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = run_rounds(workload, args.seconds, tracer)
        setup += measure_setup(env, SETUP_PROBES_AFTER)
        setup_s = [(a + b) * reference.NOMINAL_S / ref for a, b, ref in setup]
        failures = [f for r in plain + traced for f in r.failures] + workload.check()
        attempted = sum(r.ops for r in plain + traced)

        if args.trace:
            summary = tracing.aggregate(tracer.spans)
            values = layer_metrics(summary, traced, plain, setup, reference.NOMINAL_S)
            units = per_layer_units()
        else:
            samples_ = [x for r in plain for x in r.samples]
            work, per_op = work_per_s(samples_, reference.NOMINAL_S)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            values = {
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
                "work_per_s": work,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = min(len(failures), attempted)
    samples = {"rounds": len(plain) + len(traced), "setup_probes": len(setup)}
    if not args.trace:
        samples["work_per_s"] = {"n": len(samples_), "median_s": per_op,
                                 "raw": work_per_s(samples_, None)[0],
                                 "samples": samples_}
        samples["setup_s"] = {"n": len(setup_s), "quartiles": _quartiles(setup_s),
                              "values": setup_s,
                              "raw": [a + b for a, b, _ in setup],
                              "reference_s": [ref for _, _, ref in setup]}
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}", file=sys.stderr)
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted})",
          file=sys.stderr)
    print(json.dumps({"provenance": provenance(args.seed), "samples": samples,
                      "failed_share": failed / attempted}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
