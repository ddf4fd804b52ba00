#!/usr/bin/env bash
# Byte-identity guard: run the same eit3 commands from two checkouts and
# compare their stdout, stderr, exit codes and data files with diff -r.
#
#   .github/compare_outputs.sh BASE HEAD
#
# BASE and HEAD are checkouts of this repository (for example the base of
# a pull request as a git worktree, and the working tree).  The commands,
# for each bundled configuration: 2001-point numeric|analytic|both x
# csv|json sweeps; the same at 11 points with g_probe = g_pump = 0 (failing
# points, partial files); a delta_pump = 1.7 numeric sweep; 2001-point
# numeric csv sweeps with gamma_a = 0 and with gamma_b = 0, each a
# Liouvillian whose dissipator is the other decay channel's alone; stiff
# 2001-point numeric csv and json sweeps (g_probe = g_pump = 1, both
# decays 1e-8, delta from -1e3 to 1e3), whose chunks mix points solved on
# the conditioning proof, points decided by the definition (cond of the
# bordered matrix and the SVD of L) and DegenerateNullSpaceError points;
# 2001-point numeric csv sweeps over delta from -150 to 150, where the
# inverse of each block's centre matrix (one per 64 points, then one per 8
# of the points left) proves only part of the lambda and cascade grids:
# the proved points are solved for the state alone, the others take their
# own inverse;
# 2001-point analytic csv and json sweeps over delta from -1e77 to 1e77,
# whose points overflow the closed forms, fall to the denominator floor
# (each message quoting its point's rate scale) or solve (at delta = 0),
# so each writer sees failed points between solved ones from each
# backend; 11- and 2001-point backend-both csv and json sweeps with
# every rate and the sweep range scaled by 1e-14, where the analytic
# profile solves and the numeric check may fail (its file is complete, no
# "partial output" line); analytic csv sweeps one point below and at the
# size from which the closed forms are evaluated over the whole grid at
# once (eit3.analytic._GRID_PASS_POINTS, read from HEAD); analytic json
# sweeps of one JSON writer slice and of one slice and one record
# (eit3.cli._WRITE_ROWS and one more, read from HEAD), where the first
# record's "[" and the separators of a streamed second slice meet; an
# analytic json sweep of one slice and one record over delta from -1e77 to
# 0, where every point but the last (delta = 0) overflows or falls to the
# denominator floor (exit 2, partial file), so the first record's "["
# opens the second slice; 2001-point
# analytic csv and json sweeps with g_probe = g_pump = 1e60, where a power
# of the rates alone overflows a Python float and every point fails;
# 11- and 2001-point analytic csv sweeps (the per-point path and the grid
# pass) over delta from 9.99e3 to 1.001e4 with g_probe = 1e-4, g_pump =
# 1e4 and both decays 1e-4, where the closed forms cancel (lambda states
# off by up to 8e-2 in trace), so any change in their order of operations
# shows in the printed bits, and cascade and vee reach the denominator
# floor at delta = 1e4 (exit 2, partial file);
# 11-point numeric csv sweeps with g_probe = -0.0 (the build's signed
# zero) and with delta_pump = -1.7e308 over delta from 0 to 1.7e308, where
# every point fails (exit 2, partial file): a DegenerateNullSpaceError at
# delta 0, then the overflowing Liouvillian's SingularSolveError (lambda,
# vee) or DegenerateNullSpaceError (cascade); 11-point numeric csv sweeps
# over delta from -1.7e308 to 0 with delta_pump 1e308 and with -1e308, one
# of which leaves the numeric grid's template Liouvillian (the one at the
# first detuning) non-finite in each configuration, so no point is proved
# from it and each is built whole;
# 2001-point analytic csv and json sweeps with optics n0 = 1e-200, whose
# alpha column prints three-digit exponents; a 2001-point analytic csv
# sweep over delta from -2e-4 to 2e-4, whose detunings cross 0.0 and the
# switch between repr's fixed (0.0001) and exponent (9.98e-05) forms;
# for lambda only, a numeric csv and an analytic json sweep at the point
# cap (eit3.optics.MAX_POINTS, read from HEAD), ~98 chunks of each writer;
# `sweep TAG`;
# `steady` at --delta 0 and 2.5 with delta_pump 0 (the bundled config) and
# 1.7 (backend both: the numeric block on stdout, the analytic error on
# stderr); `darkstate` with delta_pump 0, and 1.7 on the numeric and both
# backends; `steady` and `darkstate` on the undriven numeric and analytic
# csv configs, whose solves fail (exit 2); `steady` at --delta 0 and 500
# on the stiff csv and the 11-point tiny csv configs, one-matrix solves
# that take the conditioning proof (stiff, delta 0) or the definition: a
# DegenerateNullSpaceError (delta 500), the condition number in the
# SingularSolveError message (lambda and cascade tiny) or a state solved
# after both checks (vee tiny); `steady` on a numeric config with decays
# gamma_a = 1e308 and gamma_b = 1.7e308, whose Liouvillian holds inf and
# NaN (SingularSolveError, exit 2), and `evolve` on it at --t-end 1e-300
# (a step count within the cap, the same SingularSolveError, exit 2);
# negative option values given as separate words: `steady TAG` at --delta
# -1e3, --del -2.5e1 (an abbreviated option) and --delta -inf (a config
# error, exit 1), and `evolve TAG --t-end 1 --delta -2.5e1` into its own
# file; `evolve TAG --t-end 500`; `evolve`
# at --t-end 0.5 (one RK4 step per sample in every configuration), at
# --t-end 0.609 (the last sample's time is t_end, not n_steps * h), at
# --t-end 30 --delta 2.5 --rho0 mixed (a stride that does not divide the
# step count: a shorter last power of the propagator), from a --rho0 file
# with complex coherences, at --t-end 2 --dt 1e-6 (1,000 steps per
# sample), at --t-end 1e-3 (times such as 5e-07) and at --t-end 1e8
# (above the cap on steps per sample: a config error, exit 1), each into
# its own file.  Then `calibrate`: 213 commands in all.  Both checkouts
# write into one shared output directory, so the paths they print agree.
# Exits 1 and prints the diff on a difference.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 BASE HEAD" >&2; exit 2; }
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# the configs are written once, from HEAD's bundled ones, and shared
python3 - "$head/src" "$work" <<'EOF'
import json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from eit3.analytic import _GRID_PASS_POINTS
from eit3.cli import _WRITE_ROWS
from eit3.optics import MAX_POINTS

bundled, work = Path(sys.argv[1]) / "eit3" / "configs", Path(sys.argv[2])
(work / "configs").mkdir()
commands = []
# an initial state with complex coherences, for evolve --rho0
coherent = work / "rho0-coherent.json"
coherent.write_text(json.dumps({
    "rho_real": [[0.5, 0.1, 0.05], [0.1, 0.3, 0.0], [0.05, 0.0, 0.2]],
    "rho_imag": [[0.0, 0.2, -0.1], [-0.2, 0.0, 0.1], [0.1, -0.1, 0.0]]}),
    encoding="utf-8")


def write(doc, name, change):  # DOC with CHANGE applied, as configs/NAME.json
    cfg = dict(doc, backend=change.pop("backend"),
               sweep=dict(doc["sweep"], points=change.pop("points"),
                          **change.pop("range", {})))
    fmt = change.pop("format")
    cfg["output"] = {"path": f"{name}.{fmt}", "format": fmt}
    cfg.update(change)
    path = work / "configs" / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


for tag in ("lambda", "cascade", "vee"):
    doc = json.loads((bundled / f"{tag}.json").read_text(encoding="utf-8"))
    runs = [(f"{tag}-{backend}-{fmt}", {"backend": backend, "points": 2001,
                                        "format": fmt})
            for backend in ("numeric", "analytic", "both")
            for fmt in ("csv", "json")]
    runs += [(f"{tag}-undriven-{backend}-{fmt}",
              {"backend": backend, "points": 11, "format": fmt,
               "g_probe": 0.0, "g_pump": 0.0})
             for backend in ("numeric", "analytic", "both")
             for fmt in ("csv", "json")]
    runs.append((f"{tag}-pump-detuned", {"backend": "numeric", "points": 2001,
                                         "format": "csv", "delta_pump": 1.7}))
    runs += [(f"{tag}-{rate}-zero", {"backend": "numeric", "points": 2001,
                                     "format": "csv", rate: 0.0})
             for rate in ("gamma_a", "gamma_b")]
    runs += [(f"{tag}-stiff-{fmt}", {"backend": "numeric", "points": 2001,
                                     "format": fmt, "g_probe": 1.0,
                                     "g_pump": 1.0, "gamma_a": 1e-8,
                                     "gamma_b": 1e-8,
                                     "range": {"min": -1e3, "max": 1e3}})
             for fmt in ("csv", "json")]
    runs.append((f"{tag}-wide-numeric", {"backend": "numeric", "points": 2001,
                                         "format": "csv",
                                         "range": {"min": -150.0,
                                                   "max": 150.0}}))
    runs += [(f"{tag}-wide-analytic-{fmt}", {"backend": "analytic",
                                             "points": 2001, "format": fmt,
                                             "range": {"min": -1e77,
                                                       "max": 1e77}})
             for fmt in ("csv", "json")]
    tiny = {name: doc[name] * 1e-14
            for name in ("g_probe", "g_pump", "gamma_a", "gamma_b")}
    runs += [(f"{tag}-tiny-both-{points}-{fmt}",
              {"backend": "both", "points": points, "format": fmt, **tiny,
               "range": {"min": doc["sweep"]["min"] * 1e-14,
                         "max": doc["sweep"]["max"] * 1e-14}})
             for points in (11, 2001) for fmt in ("csv", "json")]
    runs += [(f"{tag}-analytic-{points}-csv", {"backend": "analytic",
                                               "points": points, "format": "csv"})
             for points in (_GRID_PASS_POINTS - 1, _GRID_PASS_POINTS)]
    runs += [(f"{tag}-analytic-{points}-json", {"backend": "analytic",
                                                "points": points,
                                                "format": "json"})
             for points in (_WRITE_ROWS, _WRITE_ROWS + 1)]
    runs.append((f"{tag}-late-first-analytic-json",
                 {"backend": "analytic", "points": _WRITE_ROWS + 1,
                  "format": "json", "range": {"min": -1e77, "max": 0.0}}))
    runs += [(f"{tag}-huge-analytic-{fmt}", {"backend": "analytic",
                                             "points": 2001, "format": fmt,
                                             "g_probe": 1e60, "g_pump": 1e60})
             for fmt in ("csv", "json")]
    runs += [(f"{tag}-cancelling-analytic-{points}",
              {"backend": "analytic", "points": points, "format": "csv",
               "g_probe": 1e-4, "g_pump": 1e4, "gamma_a": 1e-4,
               "gamma_b": 1e-4, "range": {"min": 9.99e3, "max": 1.001e4}})
             for points in (11, 2001)]
    runs.append((f"{tag}-negative-zero-probe", {"backend": "numeric",
                                                "points": 11, "format": "csv",
                                                "g_probe": -0.0}))
    runs.append((f"{tag}-overflowing-pump", {"backend": "numeric",
                                             "points": 11, "format": "csv",
                                             "delta_pump": -1.7e308,
                                             "range": {"min": 0.0,
                                                       "max": 1.7e308}}))
    runs += [(f"{tag}-overflowing-template-{sign}", {"backend": "numeric",
                                                     "points": 11,
                                                     "format": "csv",
                                                     "delta_pump": pump,
                                                     "range": {"min": -1.7e308,
                                                               "max": 0.0}})
             for sign, pump in (("plus", 1e308), ("minus", -1e308))]
    runs += [(f"{tag}-tiny-n0-analytic-{fmt}",
              {"backend": "analytic", "points": 2001, "format": fmt,
               "optics": dict(doc["optics"], n0=1e-200)})
             for fmt in ("csv", "json")]
    runs.append((f"{tag}-narrow-analytic", {"backend": "analytic",
                                            "points": 2001, "format": "csv",
                                            "range": {"min": -2e-4,
                                                      "max": 2e-4}}))
    if tag == "lambda":
        runs += [(f"{tag}-cap-{backend}-{fmt}", {"backend": backend,
                                                 "points": MAX_POINTS,
                                                 "format": fmt})
                 for backend, fmt in (("numeric", "csv"), ("analytic", "json"))]
    paths = {name: write(doc, name, change) for name, change in runs}
    commands += [f"{name} sweep {path}" for name, path in paths.items()]
    detuned = {"numeric": paths[f"{tag}-pump-detuned"],
               "both": write(doc, f"{tag}-pump-detuned-both",
                             {"backend": "both", "points": 2001,
                              "format": "csv", "delta_pump": 1.7})}
    commands += [f"sweep-{tag} sweep {tag}", f"darkstate-{tag} darkstate {tag}"]
    commands += [f"{command}-{tag}-undriven-{backend} {command} "
                 f"{paths[f'{tag}-undriven-{backend}-csv']}"
                 for backend in ("numeric", "analytic")
                 for command in ("steady", "darkstate")]
    commands += [f"darkstate-{tag}-pump-detuned-{backend} darkstate {path}"
                 for backend, path in detuned.items()]
    for delta in ("0", "2.5"):
        commands += [f"steady-{tag}-{delta} steady {tag} --delta {delta}",
                     f"steady-{tag}-pump-detuned-{delta} steady "
                     f"{detuned['both']} --delta {delta}"]
    commands += [f"steady-{name}-{delta} steady {paths[name]} --delta {delta}"
                 for name in (f"{tag}-stiff-csv", f"{tag}-tiny-both-11-csv")
                 for delta in ("0", "500")]
    overflowing_decays = write(doc, f"{tag}-overflowing-decays",
                               {"backend": "numeric", "points": 11,
                                "format": "csv", "gamma_a": 1e308,
                                "gamma_b": 1.7e308})
    commands.append(f"steady-{tag}-overflowing-decays steady "
                    f"{overflowing_decays}")
    commands.append(f"evolve-{tag}-overflowing-decays evolve "
                    f"{overflowing_decays} --t-end 1e-300 "
                    f"--out evolve-{tag}-overflowing-decays.csv")
    # negative option values, spaced and in exponent form (-1e3 alone
    # would read as an option), abbreviated, and -inf (a config error)
    commands += [f"steady-{tag}-{name} steady {tag} {args}"
                 for name, args in (("negative", "--delta -1e3"),
                                    ("negative-abbreviated", "--del -2.5e1"),
                                    ("negative-inf", "--delta -inf"))]
    commands.append(f"evolve-{tag}-negative evolve {tag} --t-end 1 "
                    f"--delta -2.5e1 --out evolve-{tag}-negative.csv")
    commands.append(f"evolve-{tag} evolve {tag} --t-end 500")
    commands += [f"evolve-{tag}-{name} evolve {tag} {args} "
                 f"--out evolve-{tag}-{name}.csv"
                 for name, args in (
                     ("stride-1", "--t-end 0.5"),
                     ("short-last-step", "--t-end 0.609"),
                     ("ragged-mixed", "--t-end 30 --delta 2.5 --rho0 mixed"),
                     ("coherent", f"--t-end 500 --rho0 {coherent}"),
                     ("fine-step", "--t-end 2 --dt 1e-6"),
                     ("short", "--t-end 1e-3"),
                     ("stride-cap", "--t-end 1e8"))]
commands.append("calibrate calibrate")
(work / "commands").write_text("\n".join(commands) + "\n", encoding="utf-8")
EOF

run_all() {  # run_all CHECKOUT NAME: outputs of every command into $work/NAME
    local out="$work/out"
    mkdir "$out"
    while read -r name args; do
        code=0
        # shellcheck disable=SC2086  # args is a word list
        (cd "$out" && PYTHONPATH="$1/src" EIT3_OUTPUT_DIR="$out" \
            python3 -m eit3.cli $args >"$name.stdout" 2>"$name.stderr") || code=$?
        echo "$code" >"$out/$name.exit"
    done <"$work/commands"
    mv "$out" "$work/$2"
}

run_all "$base" base
run_all "$head" head
if diff -r "$work/base" "$work/head"; then
    echo "identical: $(wc -l <"$work/commands") commands and their" \
         "$(find "$work/head" -type f -name '*.csv' -o -name '*.json' | wc -l)" \
         "data files"
else
    exit 1
fi
