"""Survey both steady-state backends on seeded random rate sets.

    python tests/backend_survey.py

Draws ``SETS`` rate sets from ``numpy.random.default_rng(SEED)``, cycling
through lambda, cascade and vee.  Each set draws, in this order, its rates
g_probe, g_pump, gamma_a and gamma_b, log-uniform on 1e-6..1e6 MHz, then u
uniform on -6..6, then ``POINTS`` probe detunings uniform on +-10**u MHz;
the pump detuning is 0, so the closed forms apply.  Every set's grid is
solved by both backends of ``eit3.steady.solve_grid``.  For each
configuration the script prints:

- the points each backend solved, and its failures by error type;
- the points the numeric backend calls degenerate
  (``DegenerateNullSpaceError``) that the closed forms solve, and the
  points the closed forms call degenerate (``DegenerateDenominatorError``)
  that the numeric backend solves;
- over the points both solve: the largest discrepancy (max-abs over the
  nine entries) and how many points exceed 1e-9 and 1e-6;
- the exact error of each backend (``tests/exact_oracle.py``) on a fixed
  sample: the first ``SAMPLE`` misdiagnosed points and the ``SAMPLE``
  largest discrepancies.

It also counts the solved states that fail ``is_density_matrix``.  The
output is deterministic text, so two checkouts can diff it.  Exits 1 if a
solved state is not a density matrix or the backends differ by more than
the CLI's 1e-6 where both solve, else 0.
"""

import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from eit3.analytic import DegenerateDenominatorError  # noqa: E402
from eit3.cli import BACKEND_AGREEMENT_TOL  # noqa: E402
from eit3.model import Configuration, SystemParams  # noqa: E402
from eit3.steady import (  # noqa: E402
    DegenerateNullSpaceError,
    is_density_matrix,
    solve_grid,
)
from eit3.su3 import LEVEL_INDEX  # noqa: E402
from exact_oracle import exact_state  # noqa: E402

SEED = 7
SETS = 600
POINTS = 64
SAMPLE = 6  # per configuration and kind of sampled point


def draws(sets: int = SETS):
    """The first ``sets`` rate sets as ``(params, deltas)`` pairs, in draw
    order; a prefix of the full survey."""
    rng = np.random.default_rng(SEED)
    configs = list(Configuration)
    for k in range(sets):
        g_probe, g_pump, gamma_a, gamma_b = 10.0 ** rng.uniform(-6, 6, 4)
        u = rng.uniform(-6, 6)
        deltas = rng.uniform(-10.0 ** u, 10.0 ** u, POINTS)
        yield SystemParams(configs[k % 3], float(g_probe), float(g_pump),
                           float(gamma_a), float(gamma_b)), deltas


def solve(params: SystemParams, deltas: np.ndarray) -> dict:
    """Each backend's per-point outcomes over the grid: the (3, 3) state of
    a solved point, the error of a failed one."""
    outcomes = {}
    for backend in ("numeric", "analytic"):
        block, failures = solve_grid(params, deltas, backend)
        points = list(block)
        for i, exc in failures:
            points[i] = exc
        outcomes[backend] = points
    return outcomes


def survey(sets: int = SETS) -> dict:
    """Per configuration: the counts the script prints, and the points
    (params at their detuning, with their states) that the numeric
    backend misdiagnoses and that both backends solve."""
    tally = {config: dict(solved=Counter(), failed=Counter(), invalid=0,
                          misdiagnosed=[], floored=0, both=[])
             for config in Configuration}
    for params, deltas in draws(sets):
        t = tally[params.config]
        outcomes = solve(params, deltas)
        for d, num, ana in zip(deltas.tolist(), outcomes["numeric"],
                               outcomes["analytic"]):
            point = replace(params, delta_probe=d)
            for backend, rho in (("numeric", num), ("analytic", ana)):
                if isinstance(rho, Exception):
                    t["failed"][backend, type(rho).__name__] += 1
                else:
                    t["solved"][backend] += 1
                    t["invalid"] += not is_density_matrix(rho)
            solved = [not isinstance(rho, Exception) for rho in (num, ana)]
            if all(solved):
                t["both"].append((float(np.abs(num - ana).max()), point, num, ana))
            elif solved[1] and isinstance(num, DegenerateNullSpaceError):
                t["misdiagnosed"].append((point, ana))
            elif solved[0] and isinstance(ana, DegenerateDenominatorError):
                t["floored"] += 1
    return tally


def oracle_error(samples) -> str:
    """The largest distance of an entry of a sampled state from the exact
    state, over ``(params, rho)`` samples, formatted."""
    worst = 0.0
    for params, rho in samples:
        for (k, l), r in exact_state(params).items():
            z = complex(rho[LEVEL_INDEX[k], LEVEL_INDEX[l]])
            worst = max(worst, r.distance(z))
    return f"{worst:.3e}"


def main() -> int:
    tally = survey()
    print(f"backend survey: {SETS} rate sets, {POINTS} detunings each, seed {SEED}")
    totals = Counter()
    for config, t in tally.items():
        both = t["both"]
        worst = max((disc for disc, *_ in both), default=0.0)
        over_9 = sum(disc > 1e-9 for disc, *_ in both)
        over_6 = sum(disc > BACKEND_AGREEMENT_TOL for disc, *_ in both)
        print(f"{config.value}:")
        for backend in ("numeric", "analytic"):
            failed = ", ".join(f"{n} {name}" for (b, name), n in
                               sorted(t["failed"].items()) if b == backend)
            print(f"  {backend}: {t['solved'][backend]} solved; failed: "
                  f"{failed or 'none'}")
        print(f"  degenerate to numeric, solved by the closed forms: "
              f"{len(t['misdiagnosed'])}")
        print(f"  degenerate to the closed forms, solved by numeric: "
              f"{t['floored']}")
        print(f"  both solved: {len(both)}; largest discrepancy {worst:.3e}; "
              f"{over_9} above 1e-9, {over_6} above 1e-6")
        print(f"  not a density matrix: {t['invalid']}")
        largest = sorted(both, key=lambda item: -item[0])[:SAMPLE]
        misdiagnosed = t["misdiagnosed"][:SAMPLE]
        print(f"  exact oracle error on {len(misdiagnosed)} misdiagnosed "
              f"points: analytic {oracle_error(misdiagnosed)}")
        print(f"  exact oracle error on the {len(largest)} largest "
              f"discrepancies: numeric "
              f"{oracle_error((p, num) for _, p, num, _ in largest)}, analytic "
              f"{oracle_error((p, ana) for _, p, _, ana in largest)}")
        totals.update(numeric=t["solved"]["numeric"],
                      analytic=t["solved"]["analytic"],
                      misdiagnosed=len(t["misdiagnosed"]), both=len(both),
                      over_6=over_6, invalid=t["invalid"])
    print(f"total: {totals['numeric']} numeric and {totals['analytic']} "
          f"closed-form solves of {SETS * POINTS} points, "
          f"{totals['misdiagnosed']} misdiagnosed, {totals['both']} solved by both")
    return 1 if totals["over_6"] or totals["invalid"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
