"""Command-line surface: sweeps, steady states, time evolution, dark states.

Subcommands
-----------
sweep CONFIG        detuning sweep -> CSV/JSON data file
steady CONFIG       steady state at one detuning, printed
evolve CONFIG       fixed-step time evolution -> CSV trajectory
darkstate CONFIG    resonance populations, mixing angle, dark state
calibrate           angular-convention calibration table

CONFIG is a strict JSON document (see ``load_config``); unknown keys are
rejected.  Data rows never contain timestamps and metadata carries a SHA-256
hash of the config, so identical configs produce byte-identical output.
Relative output paths resolve against $EIT3_OUTPUT_DIR when set.

Exit codes: 0 success; 1 invalid config, option value or integrator step,
its stderr line starting "config error: "; 2 solver failure, its line
starting "error: " (partial sweep output is retained with error rows); 3
numeric vs analytic backend discrepancy above 1e-6; 4 evolution did not
reach the steady state (trajectory file still written).  argparse usage
errors (an unknown option, a value that is not a number) also exit 2; they
print a "usage:" line first, which tells them from solver failures.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import compress
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from ._floatrepr import rows_text
from .darkstate import dark_state_vector, estimate_mixing_angle, verify_dark_state
from .model import Configuration, SystemParams, _finite_real, build_liouvillian
from .optics import (
    CALIBRATED_CONVENTION,
    OpticalConstants,
    Spectrum,
    _check_points,
    _detunings,
    calibration_table,
    prefactor,
    sweep,
)
from .steady import STEP_SAFETY, evolve, is_density_matrix, solve_grid, steady_states
from .presets import REFERENCE_VG_NM_PER_S, bundled_config_path

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "write_sweep_csv",
    "read_sweep_csv",
    "write_sweep_json",
    "read_sweep_json",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_DISCREPANCY = 3
EXIT_NOT_CONVERGED = 4

OUTPUT_DIR_ENV = "EIT3_OUTPUT_DIR"
BACKEND_AGREEMENT_TOL = 1e-6
# the backends each config value runs, in order; the last one is reported
_BACKENDS = {"numeric": ("numeric",), "analytic": ("analytic",),
             "both": ("numeric", "analytic")}

# the data columns in file order: the name in the file, the Spectrum field
_COLUMNS = {"delta_mhz": "delta", "n": "n", "alpha": "alpha", "n_g": "n_g",
            "v_g_m_per_s": "v_g", "rho11": "rho11", "rho22": "rho22",
            "rho33": "rho33", "re_coh": "probe_coherence.real",
            "im_coh": "probe_coherence.imag"}
CSV_HEADER = ",".join(_COLUMNS)


class ConfigError(ValueError):
    """Run configuration failed validation; message names the field."""


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    optics: OpticalConstants
    sweep_min: float
    sweep_max: float
    sweep_points: int
    backend: str
    output_path: str
    output_format: str
    sha256: str


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing required field {where}{key}")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    if not isinstance(mapping, dict):  # a section such as "sweep."
        raise ConfigError(f"field {where[:-1]} must be a JSON object, got {mapping!r}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {where}{{{', '.join(sorted(unknown))}}}")


def _number(value, field: str) -> float:
    try:  # JSON's NaN/Infinity literals parse, and fail here
        return _finite_real(value, f"field {field}")
    except ValueError as exc:
        raise ConfigError(str(exc))


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration document (strict)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8, ...
        raise ConfigError(f"cannot read config file {path}: {type(exc).__name__}: {exc}")
    except (ValueError, RecursionError) as exc:
        # bad JSON, an integer of over 4300 digits, arrays nested ~1000 deep
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    _check_keys(raw, {"config", "g_probe", "g_pump", "gamma_a", "gamma_b",
                      "delta_pump", "sweep", "optics", "backend", "output"}, "")

    tag = _require(raw, "config", "")
    try:
        config = Configuration(tag)
    except ValueError:
        raise ConfigError(f"field config must be one of lambda/cascade/vee, got {tag!r}")

    kwargs = {name: _number(_require(raw, name, ""), name)
              for name in ("g_probe", "g_pump", "gamma_a", "gamma_b")}
    delta_pump = _number(raw.get("delta_pump", 0.0), "delta_pump")
    try:
        params = SystemParams(config=config, delta_pump=delta_pump, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))

    sw = _require(raw, "sweep", "")
    _check_keys(sw, {"min", "max", "points"}, "sweep.")
    sweep_min = _number(_require(sw, "min", "sweep."), "sweep.min")
    sweep_max = _number(_require(sw, "max", "sweep."), "sweep.max")
    points = _require(sw, "points", "sweep.")
    try:
        _check_points(points, "field sweep.")
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not sweep_min < sweep_max:
        raise ConfigError("field sweep.min must be below sweep.max")
    if not math.isfinite(sweep_max - sweep_min):  # the grid would be NaN/inf
        raise ConfigError("fields sweep.min, sweep.max span more than a float holds")
    try:
        _detunings(sweep_min, sweep_max, points)
    except ValueError as exc:
        raise ConfigError(f"fields sweep.min, sweep.max, sweep.points: {exc}")

    opt = _require(raw, "optics", "")
    _check_keys(opt, {"n0", "mu", "omega_probe", "angular_convention"}, "optics.")
    convention = opt.get("angular_convention")
    if convention is None:  # absent or JSON null; "" is rejected below
        convention = CALIBRATED_CONVENTION
    try:
        optics = OpticalConstants(
            omega_probe=_number(_require(opt, "omega_probe", "optics."), "optics.omega_probe"),
            n0=_number(_require(opt, "n0", "optics."), "optics.n0"),
            mu=_number(_require(opt, "mu", "optics."), "optics.mu"),
            angular_convention=convention)
    except ValueError as exc:
        raise ConfigError(f"optics: {exc}")

    backend = _require(raw, "backend", "")
    if not isinstance(backend, str) or backend not in _BACKENDS:  # [] is unhashable
        raise ConfigError(f"field backend must be numeric/analytic/both, got {backend!r}")

    out = _require(raw, "output", "")
    _check_keys(out, {"path", "format"}, "output.")
    output_path = _require(out, "path", "output.")
    if not isinstance(output_path, str):
        raise ConfigError(f"field output.path must be a string, got {output_path!r}")
    _require_file_name(output_path, "field output.path")
    output_format = _require(out, "format", "output.")
    if output_format not in ("csv", "json"):
        raise ConfigError(f"field output.format must be csv or json, got {output_format!r}")

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    sha = hashlib.sha256(canonical.encode()).hexdigest()
    return RunConfig(params=params, optics=optics, sweep_min=sweep_min,
                     sweep_max=sweep_max, sweep_points=points, backend=backend,
                     output_path=output_path, output_format=output_format,
                     sha256=sha)


def _require_file_name(path_str: str, where: str) -> None:
    if not Path(path_str).name:  # "", ".", "/": no file to write
        raise ConfigError(f"{where} must name a file, got {path_str!r}")


def _resolve_output(path_str: str) -> Path:
    if "\0" in path_str:  # a JSON "\u0000": the OS calls raise ValueError
        raise ConfigError(f"output path must not contain NUL, got {path_str!r}")
    path = Path(path_str)
    if path.is_absolute():
        return path
    base = os.environ.get(OUTPUT_DIR_ENV)
    return (Path(base) / path) if base else path


def _metadata(run: RunConfig, command: str) -> dict:
    """Ordered, deterministic metadata for output headers."""
    k = run.optics
    return {
        "tool": "eit3",
        "version": __version__,
        "command": command,
        "config_sha256": run.sha256,
        "configuration": run.params.config.value,
        "backend": run.backend,
        "angular_convention": k.angular_convention,
        "g_probe_mhz": repr(run.params.g_probe),
        "g_pump_mhz": repr(run.params.g_pump),
        "gamma_a_mhz": repr(run.params.gamma_a),
        "gamma_b_mhz": repr(run.params.gamma_b),
        "delta_pump_mhz": repr(run.params.delta_pump),
        "n0_per_m3": repr(k.n0),
        "mu_si": repr(k.mu),
        "omega_probe_mhz": repr(k.omega_probe),
        "prefactor": repr(prefactor(k)),
        "sweep_min_mhz": repr(run.sweep_min),
        "sweep_max_mhz": repr(run.sweep_max),
        "sweep_points": str(run.sweep_points),
        "alpha_scale": "dimensionless (same prefactor scale as n-1)",
        "endpoint_stencils": "one-sided",
    }


# Spectrum rows formatted per write by both writers: a few MB of strings at a
# time, where a whole CSV or JSON file costs ~1.2 or ~2.5 KB of peak memory a point
_WRITE_ROWS = 1024


def _columns(points: Spectrum, rows: slice) -> list[np.ndarray]:
    """The data columns at ``rows``, in ``_COLUMNS`` order."""
    return [attrgetter(field)(points)[rows] for field in _COLUMNS.values()]


def write_sweep_csv(path: Path, metadata: dict, points: Spectrum,
                    errors: list[tuple[float, str]] | None = None) -> None:
    """``#`` lines for metadata and errors, the header, then a line per
    Spectrum row, its numbers as ``repr`` prints them, formatted and
    written ``_WRITE_ROWS`` rows at a time."""
    with path.open("w", encoding="utf-8") as out:
        out.writelines(f"# {key} = {value}\n" for key, value in metadata.items())
        out.writelines(f"# error: delta={d!r} {msg}\n" for d, msg in errors or [])
        out.write(CSV_HEADER + "\n")
        for start in range(0, len(points.delta), _WRITE_ROWS):
            columns = _columns(points, slice(start, start + _WRITE_ROWS))
            out.write(rows_text(np.column_stack(columns)))


def read_sweep_csv(path) -> tuple[dict, list[dict], list[str]]:
    """Parse a sweep CSV back into (metadata, data rows, error lines).

    Data-row floats round-trip exactly (rows are emitted with repr).
    """
    metadata: dict = {}
    errors: list[str] = []
    rows: list[dict] = []
    header: list[str] | None = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# error:"):
            errors.append(line[len("# error:"):].strip())
        elif line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, (float(tok) for tok in line.split(",")))))
    return metadata, rows, errors


# one record as json.dumps(..., indent=1, sort_keys=True) lays it out at
# depth 2, the keys in sorted order, numbers as floatstr writes them, split
# at its 11 slots into 12 literal pieces; a record carries its separator
_RECORD_KEYS = sorted([*_COLUMNS, "edge_stencil"])
_RECORD_PIECES = (",\n  {\n%s\n  }" % ",\n".join(
    f'   "{key}": %s' for key in _RECORD_KEYS)).split("%s")


def _json_records(points: Spectrum, rows: slice, kept: list[bool]) -> list[str]:
    """The pieces of ``write_sweep_json``'s records for the kept Spectrum
    rows at ``rows``, in order: 23 a record, its 12 literal pieces around
    its 11 numbers."""
    # one text line per column: the repr of each number, which is also how
    # json prints a finite float
    text = rows_text(np.stack(_columns(points, rows)))
    if "n" in text:  # only nan, inf and -inf hold an n: spell them as json does
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    columns = {name: line.split(",")
               for name, line in zip(_COLUMNS, text.split("\n"))}
    columns["edge_stencil"] = ["true" if e else "false"
                               for e in points.edge_stencil[rows].tolist()]
    keep = kept[rows]
    count = sum(keep)
    width = len(_RECORD_PIECES) + len(_RECORD_KEYS)
    pieces = [""] * (width * count)
    for i, piece in enumerate(_RECORD_PIECES):
        pieces[2 * i::width] = [piece] * count
    for i, key in enumerate(_RECORD_KEYS):
        pieces[2 * i + 1::width] = (columns[key] if count == len(keep)
                                    else compress(columns[key], keep))
    return pieces


def write_sweep_json(path: Path, metadata: dict, points: Spectrum,
                     errors: list[tuple[float, str]] | None = None) -> None:
    """Write the bytes of ``json.dumps(doc, indent=1, sort_keys=True) + "\\n"``
    for ``doc = {"errors": [...], "metadata": ..., "records": [...]}``.

    With ``indent`` set, ``json`` drops its C encoder for the pure-Python
    one, which took longer than the closed forms of an analytic sweep.  So
    only the small errors + metadata part goes through ``json.dumps``
    (string escaping unchanged).  The records fill a fixed template's
    literal pieces with the numbers' ``repr`` text, which ``rows_text``
    gives a column at a time, nan and +-inf respelled as json spells them
    in a slice whose text holds one.  The numbers are formatted
    ``_WRITE_ROWS`` Spectrum rows at a time, and each slice's records,
    each after its ",\\n" (the first of the file after "[\\n"), are
    joined and written at once, so the document is never held whole.
    """
    head = json.dumps({"errors": [{"delta_mhz": d, "error": msg}
                                  for d, msg in (errors or [])],
                       "metadata": metadata}, indent=1, sort_keys=True)
    kept = (~np.isin(points.delta, [d for d, _ in errors or []])).tolist()
    opening = "[\n"  # the separator of the first record, until it is written
    with path.open("w", encoding="utf-8") as out:
        # head ends in "\n}": reopen it for the last key, "records"
        out.write(f'{head[:-2]},\n "records": ')
        for start in range(0, len(kept), _WRITE_ROWS):
            pieces = _json_records(points, slice(start, start + _WRITE_ROWS),
                                   kept)
            if pieces and opening:
                pieces[0] = opening + pieces[0][2:]
                opening = ""
            out.write("".join(pieces))
        out.write("[]\n}\n" if opening else "\n ]\n}\n")


def read_sweep_json(path) -> tuple[dict, list[dict], list[dict]]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return doc["metadata"], doc["records"], doc["errors"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sweep(run: RunConfig, out_override: str | None = None) -> int:
    """Sweep the config's grid and write its data file once.

    Under ``both`` the analytic sweep is the one written and the numeric
    sweep, run only when every analytic point solved, checks it.  A failed
    point of either sweep prints an error line and gives exit 2; the file
    then lists the written sweep's errors; a CSV file keeps a NaN row for
    each failed point, a JSON file has no record for it.
    """
    path = _resolve_output(
        run.output_path if out_override is None else out_override)
    metadata = _metadata(run, "sweep")
    with _writing(path):  # an unwritable path fails before any point is solved
        path.open("a", encoding="utf-8").close()  # "a": nothing truncated yet

    grid = (run.sweep_min, run.sweep_max, run.sweep_points)
    *checks, written = _BACKENDS[run.backend]
    spectrum, failures = sweep(run.params, run.optics, *grid, backend=written)
    errors = [(d, f"{type(e).__name__}: {e}") for d, e in failures]
    disc = 0.0
    if checks and not failures:
        b, failures = sweep(run.params, run.optics, *grid, backend=checks[0])
        if not failures:
            # on the dimensionless density-matrix scale (as for `steady`)
            a = spectrum
            disc = float(np.max([abs(a.rho11 - b.rho11), abs(a.rho22 - b.rho22),
                                 abs(a.rho33 - b.rho33),
                                 abs(a.probe_coherence - b.probe_coherence)]))
            metadata["backend_discrepancy"] = repr(disc)
    write = write_sweep_csv if run.output_format == "csv" else write_sweep_json
    with _writing(path):
        write(path, metadata, spectrum, errors)
    if failures:
        for d, e in failures:
            print(f"error: delta={d:g} MHz: {type(e).__name__}: {e}",
                  file=sys.stderr)
        if errors:  # a numeric failure under both leaves the file complete
            print(f"partial output retained in {path}", file=sys.stderr)
        return EXIT_SOLVER
    if disc > BACKEND_AGREEMENT_TOL:
        print(f"error: numeric vs analytic discrepancy {disc:.3e} exceeds "
              f"{BACKEND_AGREEMENT_TOL:g}", file=sys.stderr)
        return EXIT_DISCREPANCY
    print(f"wrote {path}")
    return EXIT_OK


@contextmanager
def _writing(path: Path):
    """Create the directory of an output file about to be written; an
    OSError in the block (no such directory, a file in the way, no
    permission) is a config error naming the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: "
                          f"{type(exc).__name__}: {exc}") from exc


def _format_rho(rho: np.ndarray) -> str:
    # round before formatting so rounding-level negatives print as 0.000000000
    pop = [round(float(rho[i, i].real), 9) + 0.0 for i in (2, 1, 0)]
    lines = ["  rho11 = %.9f  rho22 = %.9f  rho33 = %.9f" % tuple(pop)]
    for label, (i, j) in (("rho12", (2, 1)), ("rho13", (2, 0)), ("rho23", (1, 0))):
        z = rho[i, j]
        lines.append(f"  {label} = {z.real:+.9e} {z.imag:+.9e}j")
    return "\n".join(lines)


def cmd_steady(run: RunConfig, delta: float) -> int:
    print(f"steady state ({run.params.config.value}, delta_probe = {delta:g} MHz, "
          f"delta_pump = {run.params.delta_pump:g} MHz)")
    states = {}
    for backend in _BACKENDS[run.backend]:
        block, failures = solve_grid(run.params, [delta], backend)
        for _, exc in failures:  # one point: at most one failure
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        states[backend] = block[0]
        print(f"backend {backend}:")
        print(_format_rho(states[backend]))
    if len(states) == 2:
        disc = float(np.abs(states["numeric"] - states["analytic"]).max())
        print(f"max-abs backend discrepancy = {disc:.3e}")
        if disc > BACKEND_AGREEMENT_TOL:
            print(f"error: discrepancy exceeds {BACKEND_AGREEMENT_TOL:g}",
                  file=sys.stderr)
            return EXIT_DISCREPANCY
    return EXIT_OK


def _state_part(doc, key: str) -> np.ndarray:
    """doc[key] as a (3, 3) float array, else a ValueError.  As in configs,
    numbers only: a string, bool or null anywhere in it is a TypeError
    (np.array reads "1", true and null as numbers)."""
    todo = [doc[key]]
    while todo:
        item = todo.pop()
        if isinstance(item, list):
            todo += item
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise TypeError(f"{key} holds {item!r}, not a number")
    part = np.array(doc[key], dtype=float)
    if part.shape != (3, 3):
        raise ValueError(f"{key} has shape {part.shape}, not (3, 3)")
    return part


def _initial_state(spec: str) -> np.ndarray:
    if spec == "ground":
        rho = np.zeros((3, 3), dtype=complex)
        rho[2, 2] = 1.0  # |1><1|
        return rho
    if spec == "mixed":
        return np.eye(3, dtype=complex) / 3.0
    try:
        doc = json.loads(Path(spec).read_text(encoding="utf-8"))
        rho = _state_part(doc, "rho_real") + 1j * _state_part(doc, "rho_imag")
    except (OSError, ValueError, KeyError, TypeError, OverflowError,
            RecursionError) as exc:
        # unreadable or missing file, bad or too deeply nested JSON, a missing
        # key, a part not 3x3, a non-number, an integer past the float range
        raise ConfigError(f"cannot read an initial state from {spec}: "
                          f"{type(exc).__name__}: {exc}") from exc
    if not is_density_matrix(rho, herm_tol=1e-9):
        raise ConfigError(f"initial state in {spec} is not a valid density matrix")
    return rho


def cmd_evolve(run: RunConfig, delta: float, t_end: float, dt: float | None,
               rho0_spec: str, out_override: str | None = None) -> int:
    rho0 = _initial_state(rho0_spec)  # a bad file is a config error first
    params = replace(run.params, delta_probe=delta)
    L = build_liouvillian(params)
    if dt is None:  # an all-zero config has no step bound (one step); its
        # solve fails below
        dt = STEP_SAFETY / params.rate_scale if params.rate_scale else t_end
    try:  # before the steady solve: a bad step is a config error whatever L is
        traj = evolve(L, rho0, t_end=t_end, dt_max=dt)
    except ValueError as exc:  # t_end or dt <= 0, StepTooLargeError, too many steps
        raise ConfigError(str(exc)) from exc
    (target,), failures = steady_states(L.matrix[np.newaxis])
    for _, exc in failures:  # one matrix: at most one failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    default = Path(run.output_path).with_suffix(".evolve.csv").name
    path = _resolve_output(default if out_override is None else out_override)
    metadata = _metadata(run, "evolve")
    metadata["delta_probe_mhz"] = repr(delta)
    metadata["t_end_us"] = repr(t_end)
    metadata["dt_max_us"] = repr(dt)
    metadata["rho0"] = rho0_spec
    states = traj.states
    block = np.column_stack([
        traj.times, states[:, 2, 2].real, states[:, 1, 1].real,
        states[:, 0, 0].real, states[:, 2, 1].real, states[:, 2, 1].imag,
        states[:, 2, 0].real, states[:, 2, 0].imag, states[:, 1, 0].real,
        states[:, 1, 0].imag, np.trace(states, axis1=1, axis2=2).real])
    text = "".join(f"# {k} = {v}\n" for k, v in metadata.items())
    text += ("t_us,rho11,rho22,rho33,re_coh12,im_coh12,re_coh13,im_coh13,"
             "re_coh23,im_coh23,trace\n") + rows_text(block)
    with _writing(path):
        path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")

    if not np.isfinite(traj.final).all():  # NaN would pass the check below
        print(f"warning: the trajectory overflowed to nan/inf at --t-end "
              f"{t_end:g}, --dt {dt:g}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    residual = float(np.abs(traj.final - target).max())
    if residual > 1e-6:
        print(f"warning: final state is {residual:.3e} from the steady state "
              f"(t_end may be too short)", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_darkstate(run: RunConfig) -> int:
    states = {}
    for backend in _BACKENDS[run.backend]:
        block, failures = solve_grid(run.params, [0.0], backend)
        for _, exc in failures:  # one point: at most one failure
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        states[backend] = block[0]
    if len(states) == 2:
        disc = float(np.abs(states["numeric"] - states["analytic"]).max())
        if disc > BACKEND_AGREEMENT_TOL:
            print(f"error: backend discrepancy {disc:.3e}", file=sys.stderr)
            return EXIT_DISCREPANCY
    rho = states[backend]  # the last backend's
    pops = (float(rho[2, 2].real), float(rho[1, 1].real), float(rho[0, 0].real))
    try:
        theta = estimate_mixing_angle(pops, run.params.config)
    except ValueError as exc:  # populations not summing to 1, UndefinedAngleError
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"configuration: {run.params.config.value}")
    print("resonance populations: rho11 = %.6f  rho22 = %.6f  rho33 = %.6f" % pops)
    print(f"mixing angle theta = {theta:.6f} rad = {math.degrees(theta):.4f} deg")
    amp = ", ".join(f"{a.real:+.6f}"
                    for a in dark_state_vector(theta, run.params.config))
    print(f"dark state amplitudes (|3>, |2>, |1>): [{amp}]")
    if run.params.config is Configuration.LAMBDA:
        residual = verify_dark_state(replace(run.params, delta_probe=0.0,
                                             delta_pump=0.0))
        print(f"interaction-kernel residual |H_int a0| = {residual:.3e} MHz")
    return EXIT_OK


def cmd_calibrate() -> int:
    table = calibration_table()
    tags = [c.value for c in Configuration]
    print("resonant group velocity v_g(0) of the reference systems")
    print("targets [nm/s]: " + "  ".join(
        f"{tag}={REFERENCE_VG_NM_PER_S[Configuration(tag)]}" for tag in tags))
    for conv in table["conventions"]:
        row = table["conventions"][conv]
        errs = table["relative_errors"][conv]
        cells = "  ".join(
            f"{tag}: {row[tag]:.4e} m/s (rel err {errs[tag]:.3e})" for tag in tags)
        print(f"{conv:>11}:  {cells}")
    print(f"chosen convention (smallest lambda error): {table['chosen']}")
    if table["within_10pct"]:
        print("lambda target reproduced within 10%")
    else:
        print("neither convention reproduces the lambda target within 10%; "
              "both are reported above and the slow-light property "
              "n_g(0) >= 1e12 applies instead")
    print("configs without angular_convention use the chosen convention")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # one parser per process: parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eit3",
        description="Steady-state EIT simulator for three-level systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="probe-detuning sweep to CSV/JSON")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", help="override the config output path")

    p_steady = sub.add_parser("steady", help="print the steady state")
    p_steady.add_argument("config")
    p_steady.add_argument("--delta", type=float, default=0.0,
                          help="probe detuning in MHz (default 0)")

    p_evolve = sub.add_parser("evolve", help="time-evolve to a CSV trajectory")
    p_evolve.add_argument("config")
    p_evolve.add_argument("--delta", type=float, default=0.0)
    p_evolve.add_argument("--t-end", type=float, required=True,
                          help="integration time in microseconds")
    p_evolve.add_argument("--dt", type=float, default=None,
                          help="max step in microseconds (default: stability bound)")
    p_evolve.add_argument("--rho0", default="ground",
                          help="ground | mixed | path to a JSON state")
    p_evolve.add_argument("--out", help="override the output path")

    p_dark = sub.add_parser("darkstate", help="mixing-angle report at resonance")
    p_dark.add_argument("config")

    sub.add_parser("calibrate", help="angular-convention calibration table")
    return parser


# the options whose value is a number and may be negative
_NUMBER_OPTIONS = ("--delta", "--t-end", "--dt")


def _is_negative_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with a negative number after ``--delta``, ``--t-end`` or
    ``--dt`` (or an abbreviation of one) joined to it by "=".  argparse
    takes ``-1`` and ``-.5`` there as values but ``-1e3`` or ``-inf`` as an
    option of their own; the "=" form takes any of them."""
    args = list(argv)
    i = 0
    while i < len(args) - 1 and args[i] != "--":
        option, value = args[i], args[i + 1]
        if (len(option) > 2 and any(o.startswith(option) for o in _NUMBER_OPTIONS)
                and _is_negative_number(value)):
            args[i:i + 2] = [f"{option}={value}"]
        i += 1
    return args


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "calibrate":
            return cmd_calibrate()
        cfg = args.config
        if cfg in ("lambda", "cascade", "vee"):  # bundled reference configs
            cfg = str(bundled_config_path(cfg))
        run = load_config(cfg)
        for option in _NUMBER_OPTIONS:
            value = getattr(args, option[2:].replace("-", "_"), None)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"option {option} must be finite, got {value!r}")
        if getattr(args, "out", None) is not None:  # checked before any solve
            _require_file_name(args.out, "option --out")
        if args.command == "sweep":
            return cmd_sweep(run, args.out)
        if args.command == "steady":
            return cmd_steady(run, args.delta)
        if args.command == "evolve":
            return cmd_evolve(run, args.delta, args.t_end, args.dt, args.rho0,
                              args.out)
        return cmd_darkstate(run)  # the parser admits no other command
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
