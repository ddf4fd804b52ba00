"""Rotating-frame Hamiltonians, Lindblad dissipators and Liouvillians.

Each of the three driving topologies couples a weak probe and a strong pump
to two of the three dipole-allowed transitions:

    lambda:  probe 1<->3 (g13), pump 2<->3 (g23); decays Gamma_31, Gamma_32
    cascade: probe 1<->2 (g12), pump 2<->3 (g23); decays Gamma_21, Gamma_32
    vee:     probe 1<->3 (g13), pump 1<->2 (g12); decays Gamma_21, Gamma_31

All couplings, decay constants and detunings are in MHz (hbar = 1); time is
in microseconds.  The master equation is

    drho/dt = i [rho, H_rot] + sum_k Gamma_k (2 A_k rho A_k+ - A_k+ A_k rho
                                              - rho A_k+ A_k)

with lowering operators A_k on the permitted decay channels.  With this
(standard, trace-preserving) dissipator the equations of motion match the
per-element optical Bloch equations transcribed in :func:`obe_rhs`, which is
kept as a deliberately independent code path so the two can cross-check each
other.

Vectorization is column-major over the (|3>, |2>, |1>) matrix layout:
``vec(rho)[3*c + r] = rho[r, c]``, so vec(A rho B) = (B^T kron A) vec(rho).
The diagonal entries rho_33, rho_22, rho_11 sit at vec indices 0, 4, 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .su3 import LEVEL_INDEX, shift_operator

__all__ = [
    "Configuration",
    "SystemParams",
    "Liouvillian",
    "DIAGONAL_VEC_INDICES",
    "vectorize",
    "unvectorize",
    "build_hamiltonian_rwa",
    "build_dissipator",
    "build_liouvillian",
    "build_liouvillian_stack",
    "obe_rhs",
]

_I3 = np.eye(3, dtype=complex)

# vec indices of rho_33, rho_22, rho_11 under column-major vectorization
DIAGONAL_VEC_INDICES = (0, 4, 8)


class Configuration(Enum):
    """Driving topology of the three-level system."""

    LAMBDA = "lambda"
    CASCADE = "cascade"
    VEE = "vee"

    @property
    def probe_transition(self) -> tuple[int, int]:
        return {"lambda": (1, 3), "cascade": (1, 2), "vee": (1, 3)}[self.value]

    @property
    def pump_transition(self) -> tuple[int, int]:
        return {"lambda": (2, 3), "cascade": (2, 3), "vee": (1, 2)}[self.value]

    @property
    def decay_channels(self) -> tuple[str, str]:
        """(gamma_a channel, gamma_b channel) as "kl" strings, decay k->l."""
        return {
            "lambda": ("31", "32"),
            "cascade": ("21", "32"),
            "vee": ("21", "31"),
        }[self.value]


# lowering operator for each decay channel k->l
_LOWERING = {
    "31": shift_operator("V", "minus"),
    "32": shift_operator("T", "minus"),
    "21": shift_operator("U", "minus"),
}


def _unit_dissipator(A: np.ndarray) -> np.ndarray:
    """Superoperator of 2 A rho A+ - A+A rho - rho A+A (unit rate)."""
    AdA = A.conj().T @ A
    return (2.0 * np.kron(A.conj(), A)
            - np.kron(_I3, AdA)
            - np.kron(AdA.T, _I3))


# unit-rate dissipator of each decay channel; detuning- and rate-independent,
# so built once here instead of on every Liouvillian
_DISSIPATORS = {channel: _unit_dissipator(A)
                for channel, A in _LOWERING.items()}


@dataclass(frozen=True)
class SystemParams:
    """Couplings, decays and detunings of one driven three-level system.

    ``gamma_a``/``gamma_b`` are the two permitted decay constants of the
    configuration, in the order (Gamma_31, Gamma_32) for lambda,
    (Gamma_21, Gamma_32) for cascade and (Gamma_21, Gamma_31) for vee;
    spontaneous decay from lower to higher levels is structurally absent.
    Couplings, decay constants and detunings must be finite; couplings and
    decay constants must also be >= 0.
    A unique steady state additionally needs at least one positive decay
    constant; that is diagnosed by the solver (DegenerateNullSpaceError),
    since purely unitary parameter sets are still valid for time evolution.
    """

    config: Configuration
    g_probe: float
    g_pump: float
    gamma_a: float
    gamma_b: float
    delta_probe: float = 0.0
    delta_pump: float = 0.0

    def __post_init__(self) -> None:
        for name in ("g_probe", "g_pump", "gamma_a", "gamma_b",
                     "delta_probe", "delta_pump"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("g_probe", "g_pump", "gamma_a", "gamma_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def rate_scale(self) -> float:
        """Largest rate entering the dynamics, in MHz."""
        return max(self.g_probe, self.g_pump, self.gamma_a, self.gamma_b,
                   abs(self.delta_probe), abs(self.delta_pump))

    @property
    def gammas(self) -> dict[str, float]:
        """Decay rates keyed by channel "kl"."""
        a, b = self.config.decay_channels
        return {a: self.gamma_a, b: self.gamma_b}


@dataclass(frozen=True)
class Liouvillian:
    """9x9 superoperator acting on column-major vectorized density matrices.

    ``rate_scale`` (MHz) is the largest rate of the generating parameters
    and bounds the spectral radius used for integrator step control.
    """

    matrix: np.ndarray
    rate_scale: float


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-major (Fortran-order) vectorization of a 3x3 matrix."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`; a stack of shape (..., 9) gives one of
    shape (..., 3, 3)."""
    v = np.asarray(v, dtype=complex)
    return v.reshape(*v.shape[:-1], 3, 3).swapaxes(-1, -2)  # vec[3c + r] = rho[r, c]


def build_hamiltonian_rwa(params: SystemParams) -> np.ndarray:
    """Time-independent rotating-frame Hamiltonian (MHz), Hermitian.

    Off-diagonals carry the probe and pump couplings on their assigned
    transitions; the diagonal carries the accumulated rotating-frame
    detunings with the lower level |1> as the zero of energy:

        lambda:  diag(D_13, D_13 - D_23, 0)
        cascade: diag(D_12 + D_23, D_12, 0)
        vee:     diag(D_13, D_12, 0)

    so that i[rho, H_rot] reproduces the coherent part of the optical Bloch
    equations of the configuration.
    """
    return _hamiltonian_stack(params, [params.delta_probe])[0]


def _hamiltonian_stack(params: SystemParams, delta_probe) -> np.ndarray:
    """:func:`build_hamiltonian_rwa` at each probe detuning, shape (N, 3, 3).

    Every entry is the scalar expression evaluated elementwise, so each
    slice equals the single-detuning Hamiltonian bit for bit.
    """
    dp, dq = np.asarray(delta_probe, dtype=float), params.delta_pump
    H = np.zeros((len(dp), 3, 3), dtype=complex)
    upper, middle = LEVEL_INDEX[3], LEVEL_INDEX[2]
    cfg = params.config
    if cfg is Configuration.LAMBDA:
        H[:, upper, upper] = dp
        H[:, middle, middle] = dp - dq
    elif cfg is Configuration.CASCADE:
        H[:, upper, upper] = dp + dq
        H[:, middle, middle] = dp
    else:  # VEE
        H[:, upper, upper] = dp
        H[:, middle, middle] = dq
    (pl, pu) = cfg.probe_transition
    H[:, LEVEL_INDEX[pu], LEVEL_INDEX[pl]] += params.g_probe
    H[:, LEVEL_INDEX[pl], LEVEL_INDEX[pu]] += params.g_probe
    (ql, qu) = cfg.pump_transition
    H[:, LEVEL_INDEX[qu], LEVEL_INDEX[ql]] += params.g_pump
    H[:, LEVEL_INDEX[ql], LEVEL_INDEX[qu]] += params.g_pump
    return H


def build_dissipator(params: SystemParams) -> Liouvillian:
    """Lindblad dissipator as a superoperator.

    For each permitted channel k->l with rate Gamma_kl and lowering operator
    A = |l><k| the contribution is Gamma_kl (2 A rho A+ - A+A rho - rho A+A):
    population 2 Gamma_kl rho_kk flows from level k to level l and every
    coherence involving k decays at the total rate out of k.
    """
    L = np.zeros((9, 9), dtype=complex)
    for channel, gamma in params.gammas.items():
        if gamma == 0.0:
            continue
        L += gamma * _DISSIPATORS[channel]
    return Liouvillian(matrix=L, rate_scale=params.rate_scale)


def build_liouvillian(params: SystemParams) -> Liouvillian:
    """Full generator: commutator part i[rho, H_rot] plus the dissipator."""
    L = build_liouvillian_stack(params, [params.delta_probe])[0]
    return Liouvillian(matrix=L, rate_scale=params.rate_scale)


def build_liouvillian_stack(params: SystemParams, delta_probe) -> np.ndarray:
    """Liouvillian matrices of ``params`` at each probe detuning in
    ``delta_probe``, shape (N, 9, 9).

    Slice n equals ``build_liouvillian(replace(params,
    delta_probe=delta_probe[n])).matrix`` bit for bit: the commutator is
    formed per slice from that slice's Hamiltonian and the
    detuning-independent dissipator is added once.  (Splitting L into
    L0 + Delta L1 would not be exact: (dp + dq) - dp and dq round
    differently.)  Entries that overflow read inf or NaN without a numpy
    warning; the steady-state solve names them as non-finite.
    """
    with np.errstate(all="ignore"):
        H = _hamiltonian_stack(params, delta_probe)
        I3 = _I3[np.newaxis]
        L = 1j * (_kron_stack(H.transpose(0, 2, 1), I3) - _kron_stack(I3, H))
        L += build_dissipator(params).matrix
    return L


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a[n], b[n]) for each slice of two broadcastable (N, 3, 3)
    stacks: the products np.kron forms, without its per-call set-up."""
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, 9, 9)


def obe_rhs(params: SystemParams, rho: np.ndarray) -> np.ndarray:
    """Per-element optical Bloch equations, transcribed longhand.

    This is the cross-check oracle for :func:`build_liouvillian`: no matrix
    products, no vectorization, just the six coupled equations of each
    configuration written out element by element (with the cascade
    rho_33/rho_12/rho_13 lines taken in their trace-conserving form).
    """
    r = np.asarray(rho, dtype=complex)
    r33, r32, r31 = r[0, 0], r[0, 1], r[0, 2]
    r23, r22, r21 = r[1, 0], r[1, 1], r[1, 2]
    r13, r12, r11 = r[2, 0], r[2, 1], r[2, 2]

    gp, gq = params.g_probe, params.g_pump
    dp, dq = params.delta_probe, params.delta_pump
    out = np.zeros((3, 3), dtype=complex)
    cfg = params.config

    if cfg is Configuration.LAMBDA:
        g13, g23 = gp, gq
        G31, G32 = params.gamma_a, params.gamma_b
        d13, d23 = dp, dq
        d11 = 1j * g13 * (r13 - r31) + 2 * G31 * r33
        d22 = 1j * g23 * (r23 - r32) + 2 * G32 * r33
        d33 = (-1j * g13 * (r13 - r31) - 1j * g23 * (r23 - r32)
               - 2 * (G31 + G32) * r33)
        d12 = 1j * ((d13 - d23) * r12 + g23 * r13 - g13 * r32)
        d13_ = (1j * (g23 * r12 + d13 * r13 + g13 * (r11 - r33))
                - (G31 + G32) * r13)
        d23_ = (1j * (g13 * r21 + d23 * r23 + g23 * (r22 - r33))
                - (G31 + G32) * r23)
    elif cfg is Configuration.CASCADE:
        g12, g23 = gp, gq
        G21, G32 = params.gamma_a, params.gamma_b
        d12_det, d23_det = dp, dq
        d11 = 1j * g12 * (r12 - r21) + 2 * G21 * r22
        d22 = (-1j * (g12 * (r12 - r21) + g23 * (r32 - r23))
               + 2 * G32 * r33 - 2 * G21 * r22)
        d33 = 1j * g23 * (r32 - r23) - 2 * G32 * r33
        d12 = (1j * (g12 * (r11 - r22) + d12_det * r12 + g23 * r13)
               - G21 * r12)
        d13_ = (1j * (g23 * r12 + (d12_det + d23_det) * r13 - g12 * r23)
                - G32 * r13)
        d23_ = (1j * (-g12 * r13 + g23 * (r22 - r33) + d23_det * r23)
                - (G21 + G32) * r23)
    else:  # VEE
        g13, g12 = gp, gq
        G21, G31 = params.gamma_a, params.gamma_b
        d13_det, d12_det = dp, dq
        d11 = (1j * (g12 * (r12 - r21) + g13 * (r13 - r31))
               + 2 * G21 * r22 + 2 * G31 * r33)
        d22 = -1j * g12 * (r12 - r21) - 2 * G21 * r22
        d33 = -1j * g13 * (r13 - r31) - 2 * G31 * r33
        d12 = (1j * (g12 * (r11 - r22) + d12_det * r12 - g13 * r32)
               - G21 * r12)
        d13_ = (1j * (g13 * (r11 - r33) + d13_det * r13 - g12 * r23)
                - G31 * r13)
        d23_ = (1j * (-g12 * r13 + g13 * r21 + (d13_det - d12_det) * r23)
                - (G21 + G31) * r23)

    out[2, 2] = d11
    out[1, 1] = d22
    out[0, 0] = d33
    out[2, 1] = d12
    out[1, 2] = np.conj(d12)
    out[2, 0] = d13_
    out[0, 2] = np.conj(d13_)
    out[1, 0] = d23_
    out[0, 1] = np.conj(d23_)
    return out
