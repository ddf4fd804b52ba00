"""Probe-field optics: refractive index, absorption, group velocity, sweeps.

The steady-state susceptibility of the probe is read off its coherence
rho_p (rho_13 on 1<->3, rho_12 on 1<->2) through the paper's SU(3) form,

    n     = 1 + P * Tr[rho lam_r] = 1 + P * 2 Re rho_p   (lam_4 / lam_6)
    alpha =     P * Tr[rho lam_i] =     P * 2 Im rho_p   (lam_5 / lam_7)

with the dimensionless prefactor P = N0 mu^2 / (2 eps0 hbar) expressed in
the working frequency unit (the traces are exact: each state is Hermitian).
Group index n_g = 1 + P * omega * d(2 Re rho_p)/dDelta and v_g = c / n_g.

The SI constants c, eps0, hbar and the Bohr magneton are module literals,
the CODATA 2022 recommended values, so the prefactor needs no physics
library; a test pins them and the ``mu_si``/``prefactor`` metadata strings.

Unit convention: all couplings, decays and detunings are quoted in MHz and
it is ambiguous whether such a number means 1e6 s^-1 or 2 pi * 1e6 rad/s.
Both readings are implemented behind ``angular_convention``
("plain_mhz" / "two_pi_mhz"): the SI prefactor (units s^-1) and the probe
carrier are converted into the chosen unit while detunings stay in MHz.
The default, :data:`CALIBRATED_CONVENTION`, is the convention that lands
v_g(0) of the reference lambda system closer to its reference value;
:func:`calibration_table` recomputes both, so the choice stays explicit and
falsifiable.

Absorption is reported on the same dimensionless prefactor scale as n - 1,
not converted to 1/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Configuration, SystemParams, _finite_real
from .presets import REFERENCE_OMEGA_MHZ, REFERENCE_VG_NM_PER_S, reference_params
from .steady import solve_grid
from .su3 import LEVEL_INDEX

__all__ = [
    "C_LIGHT",
    "EPSILON_0",
    "HBAR",
    "MU_BOHR",
    "ANGULAR_CONVENTIONS",
    "CALIBRATED_CONVENTION",
    "OpticalConstants",
    "Spectrum",
    "prefactor",
    "sweep",
    "calibration_table",
]

# CODATA 2022 recommended values in SI units
C_LIGHT = 299792458.0            # m/s, exact
EPSILON_0 = 8.8541878188e-12     # F/m
HBAR = 1.0545718176461565e-34    # J s, h / (2 pi) with h exact
MU_BOHR = 9.2740100657e-24       # J/T

# working frequency unit of each convention, in s^-1
_UNIT = {"plain_mhz": 1e6, "two_pi_mhz": 2 * math.pi * 1e6}
ANGULAR_CONVENTIONS = tuple(_UNIT)
# calibration_table()["chosen"]; a test recomputes it
CALIBRATED_CONVENTION = "two_pi_mhz"
# grid points a sweep takes at most: 50x the 2001-point reference grids (the
# bundled configs have 201 points), checked before the grid is allocated
MAX_POINTS = 10**5

@dataclass(frozen=True)
class OpticalConstants:
    """Constants entering the susceptibility prefactor and group velocity.

    ``omega_probe`` is the probe carrier in MHz; ``mu`` is the transition
    dipole moment in SI units (by default the Bohr magneton's numerical
    value, kept for fidelity to the reference data despite the dimensional
    oddity for an electric dipole).  ``angular_convention`` defaults to
    :data:`CALIBRATED_CONVENTION`.  ``omega_probe``, ``n0`` and ``mu`` must
    be positive real numbers, finite as floats, as in
    :class:`~eit3.model.SystemParams`; those, and constants whose
    prefactor times ``omega_probe`` is not a finite float, are a
    ValueError.
    """

    omega_probe: float
    n0: float = 1e21
    mu: float = MU_BOHR
    angular_convention: str = CALIBRATED_CONVENTION

    def __post_init__(self) -> None:
        for name in ("omega_probe", "n0", "mu"):
            _finite_real(getattr(self, name), name)
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.angular_convention not in ANGULAR_CONVENTIONS:
            raise ValueError(
                f"angular_convention must be one of {ANGULAR_CONVENTIONS}")
        try:  # mu**2 raises OverflowError past a float, n0 * mu**2 gives inf
            scale = prefactor(self) * self.omega_probe
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):  # the scale of n_g - 1
            raise ValueError(
                f"prefactor * omega_probe overflows a float (n0={self.n0!r}, "
                f"mu={self.mu!r}, omega_probe={self.omega_probe!r})")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A probe-detuning sweep as columns: one array per quantity, in Delta
    order, so ``s.v_g[i]`` is the group velocity at ``s.delta[i]``.  Every
    grid point has a row; a failed point's row is NaN but for ``delta``.

    ``alpha`` shares the dimensionless prefactor scale of ``n - 1``;
    ``v_g`` is in m/s and satisfies v_g = c / n_g exactly;
    ``probe_coherence`` is complex.  ``edge_stencil`` (bool) marks group
    quantities computed with a one-sided difference (grid endpoints) or
    left as NaN (broken grid).
    """

    delta: np.ndarray
    n: np.ndarray
    alpha: np.ndarray
    n_g: np.ndarray
    v_g: np.ndarray
    rho11: np.ndarray
    rho22: np.ndarray
    rho33: np.ndarray
    probe_coherence: np.ndarray
    edge_stencil: np.ndarray


def prefactor(k: OpticalConstants) -> float:
    """N0 mu^2 / (2 eps0 hbar), expressed in the working frequency unit."""
    p_si = k.n0 * k.mu**2 / (2.0 * EPSILON_0 * HBAR)  # s^-1
    return p_si / _UNIT[k.angular_convention]


def _check_points(points, where: str = "") -> None:
    """ValueError naming ``{where}points`` unless ``points`` is an integer
    >= 3: a Python or numpy integer, not a bool."""
    if (isinstance(points, bool) or not isinstance(points, (int, np.integer))
            or points < 3):
        raise ValueError(f"{where}points must be an integer >= 3, got {points!r}")


def _detunings(delta_min: float, delta_max: float, points: int) -> np.ndarray:
    """The uniform sweep grid; ValueError above MAX_POINTS points or unless
    it strictly increases (a span too narrow for ``points`` distinct floats
    repeats detunings)."""
    if points > MAX_POINTS:
        raise ValueError(f"{points} points exceed the cap of {MAX_POINTS}")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf span: NaNs
        deltas = np.linspace(delta_min, delta_max, points)
    if not (deltas[1:] > deltas[:-1]).all():
        raise ValueError(f"{points} points from {delta_min!r} to {delta_max!r} "
                         "are not a strictly increasing grid of floats")
    return deltas


def sweep(params: SystemParams, k: OpticalConstants, delta_min: float,
          delta_max: float, points: int,
          backend: str) -> tuple[Spectrum, list[tuple[float, Exception]]]:
    """Uniform probe-detuning sweep with group quantities attached.

    Returns ``(spectrum, failures)``: a :class:`Spectrum` of ``points`` rows
    in Delta order, and the ordered (delta, error) list of the points whose
    solve failed, empty when every point solves.
    n, alpha and n_g read 2 Re and 2 Im of the probe coherence, which are
    Tr[rho lam_r] and Tr[rho lam_i] since every solved state is exactly
    Hermitian; n_g and v_g use central differences on the grid (one-sided
    at the two endpoints, flagged via ``edge_stencil``).
    The state columns view the (N, 3, 3) block of
    :func:`eit3.steady.solve_grid` (``backend`` "numeric": batched
    Liouvillian stacks, "analytic": the closed forms).  ``points`` that is
    no integer >= 3 (a bool included), and a grid that is not strictly
    increasing or of more than MAX_POINTS points, are a ValueError.
    A failed point raises nothing: its row keeps its detuning and is NaN in
    every other column, and the whole grid has ``edge_stencil`` set and NaN
    group quantities, since the grid is broken.
    """
    _check_points(points)
    deltas = _detunings(delta_min, delta_max, points)
    rho, failed = solve_grid(params, deltas, backend)
    failures = [(float(deltas[i]), exc) for i, exc in failed]
    pref = prefactor(k)
    pl, pu = params.config.probe_transition
    coherence = rho[:, LEVEL_INDEX[pl], LEVEL_INDEX[pu]]  # e.g. rho_13 at [2, 0]
    tr_re, tr_im = 2.0 * coherence.real, 2.0 * coherence.imag  # Tr[rho lam]
    edge = np.ones(len(deltas), dtype=bool)
    if failures:  # the grid is broken: no group quantities
        n_g = v_g = np.full(len(deltas), math.nan)
    else:
        slope = np.gradient(tr_re, deltas[1] - deltas[0])  # one-sided at the ends
        n_g = 1.0 + pref * k.omega_probe * slope
        v_g = C_LIGHT / n_g
        edge[1:-1] = False
    return Spectrum(
        delta=deltas, n=1.0 + pref * tr_re, alpha=pref * tr_im, n_g=n_g,
        v_g=v_g, rho11=rho[:, 2, 2].real, rho22=rho[:, 1, 1].real,
        rho33=rho[:, 0, 0].real, probe_coherence=coherence,
        edge_stencil=edge), failures


def calibration_table() -> dict:
    """Resonant group velocities of the reference systems, both conventions.

    Returns {"conventions": {conv: {tag: vg_m_per_s}},
    "relative_errors": {conv: {tag: rel_err}}, "chosen": conv,
    "within_10pct": bool} where the relative errors are taken against
    :data:`eit3.presets.REFERENCE_VG_NM_PER_S`, the chosen convention
    minimizes the lambda relative error and ``within_10pct`` records whether
    it lands within 10% of the lambda reference value.  v_g(0) is the centre
    of a 3-point analytic sweep over +-0.3 MHz, a central-difference stencil;
    a reference point that fails raises its own error.
    """
    table: dict = {"conventions": {}, "relative_errors": {}}
    for conv in ANGULAR_CONVENTIONS:
        table["conventions"][conv] = {}
        table["relative_errors"][conv] = {}
        for config in Configuration:
            k = OpticalConstants(omega_probe=REFERENCE_OMEGA_MHZ[config],
                                 angular_convention=conv)
            spectrum, failures = sweep(reference_params(config), k, -0.3, 0.3,
                                       3, backend="analytic")
            if failures:
                raise failures[0][1]
            vg = float(spectrum.v_g[1])
            target = REFERENCE_VG_NM_PER_S[config] * 1e-9  # m/s
            table["conventions"][conv][config.value] = vg
            table["relative_errors"][conv][config.value] = abs(vg - target) / target
    lam = Configuration.LAMBDA.value
    chosen = min(ANGULAR_CONVENTIONS,
                 key=lambda c: table["relative_errors"][c][lam])
    table["chosen"] = chosen
    table["within_10pct"] = table["relative_errors"][chosen][lam] <= 0.10
    return table

