"""Mixing angles and dark-state construction.

Each topology owns a two-state superposition decoupled from the driving,

    lambda:  cos(theta)|1> - sin(theta)|2>
    cascade: cos(theta)|1> - sin(theta)|3>
    vee:     cos(theta)|2> - sin(theta)|3>

The mixing angle is estimated from steady-state populations of the two
bare states spanning the superposition, theta = atan2(sqrt(rho_qq),
sqrt(rho_pp)), discarding any residual third-level population.  The
populations themselves come from :func:`eit3.steady.solve_grid` (or, on a
sweep grid, :func:`eit3.optics.sweep`).

At zero detunings each superposition is annihilated by its interaction
Hamiltonian at a coupling-ratio angle: theta* = atan(g_probe / g_pump) for
lambda and cascade, theta* = atan(g_pump / g_probe) for vee.  Only the
lambda pair is built on levels that do not decay, so only there does the
kernel state trap population and fix the steady-state mixing angle;
:func:`verify_dark_state` checks that kernel property directly and is
therefore restricted to the lambda system.
"""

from __future__ import annotations

import numpy as np

from .model import Configuration, SystemParams, build_hamiltonian_rwa
from .su3 import LEVEL_INDEX

__all__ = [
    "UndefinedAngleError",
    "UnsupportedConfigurationError",
    "estimate_mixing_angle",
    "dark_state_vector",
    "verify_dark_state",
]

# (p, q): bare-state pair spanning the dark superposition, cos on p
_DARK_PAIR = {
    Configuration.LAMBDA: (1, 2),
    Configuration.CASCADE: (1, 3),
    Configuration.VEE: (2, 3),
}


def _dark_pair(config: Configuration) -> tuple[int, int]:
    if not isinstance(config, Configuration):  # not a raw KeyError
        raise ValueError(f"config must be a Configuration, got {config!r}")
    return _DARK_PAIR[config]


class UndefinedAngleError(ValueError):
    """Dark-state pair carries too little population to define an angle."""


class UnsupportedConfigurationError(ValueError):
    """Kernel verification only applies to the lambda system."""


def estimate_mixing_angle(populations: tuple[float, float, float],
                          config: Configuration) -> float:
    """Mixing angle (radians, in [0, pi/2]) of the configuration's dark pair.

    ``populations`` is (rho11, rho22, rho33), normalized; tiny negative
    entries from numerics are clipped to zero; a NaN or inf entry is a
    ValueError, as is a ``config`` that is no :class:`Configuration`.
    Raises :class:`UndefinedAngleError` when the pair holds less than 1e-6
    of the population.
    """
    r11, r22, r33 = populations
    total = r11 + r22 + r33
    if not abs(total - 1.0) <= 1e-6:  # a NaN or inf entry makes the sum fail
        raise ValueError(f"populations must sum to 1, got {total}")
    by_level = {1: max(r11, 0.0), 2: max(r22, 0.0), 3: max(r33, 0.0)}
    p, q = _dark_pair(config)
    if by_level[p] + by_level[q] < 1e-6:
        raise UndefinedAngleError(
            f"UndefinedAngle: dark pair |{p}>,|{q}> holds "
            f"{by_level[p] + by_level[q]:.2e} population")
    return float(np.arctan2(np.sqrt(by_level[q]), np.sqrt(by_level[p])))


def dark_state_vector(theta: float, config: Configuration) -> np.ndarray:
    """cos(theta)|p> - sin(theta)|q> for the dark pair, in (|3>, |2>, |1>)
    order; a theta outside [0, pi/2] or a ``config`` that is no
    :class:`Configuration` is a ValueError."""
    if not 0.0 <= theta <= np.pi / 2:
        raise ValueError(f"theta must be in [0, pi/2], got {theta}")
    p, q = _dark_pair(config)
    vec = np.zeros(3, dtype=complex)
    vec[LEVEL_INDEX[p]] = np.cos(theta)
    vec[LEVEL_INDEX[q]] = -np.sin(theta)
    return vec


def verify_dark_state(params: SystemParams) -> float:
    """Norm of H_int acting on the coupling-ratio dark state (lambda only).

    At zero detunings :func:`eit3.model.build_hamiltonian_rwa` holds only
    the couplings, H_int.  Sets theta* = atan(g_probe / g_pump) and returns
    ||H_int |a0(theta*)>||; the two arms cancel exactly, so the residual is
    bounded by 1e-12 max(g).  Requires both detunings zero; raises
    :class:`UnsupportedConfigurationError` for cascade and vee.  Their
    superpositions are annihilated too (cascade at atan(g_probe / g_pump),
    vee at atan(g_pump / g_probe)), but each contains a decaying level, so
    the kernel state does not trap population and says nothing about the
    steady state this check is meant to vouch for.
    """
    if params.config is not Configuration.LAMBDA:
        raise UnsupportedConfigurationError(
            "UnsupportedConfiguration: kernel verification applies to the "
            f"lambda system only, got {params.config.value}")
    if params.delta_probe != 0.0 or params.delta_pump != 0.0:
        raise ValueError("verify_dark_state requires both detunings zero")
    theta_star = float(np.arctan2(params.g_probe, params.g_pump))
    dark = dark_state_vector(theta_star, Configuration.LAMBDA)
    return float(np.linalg.norm(build_hamiltonian_rwa(params) @ dark))
