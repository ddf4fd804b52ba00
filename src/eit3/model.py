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

with lowering operators A_k on the permitted decay channels: for Gamma_kl
the SU(3) lowering operator |l><k| of the level pair (:mod:`eit3.su3`), T-
for Gamma_32, U- for Gamma_21 and V- for Gamma_31.  With this
(standard, trace-preserving) dissipator the equations of motion match the
per-element optical Bloch equations transcribed in :func:`obe_rhs`, which is
kept as a deliberately independent code path so the two can cross-check each
other.

Vectorization is column-major over the (|3>, |2>, |1>) matrix layout:
``vec(rho)[3*c + r] = rho[r, c]``, so vec(A rho B) = (B^T kron A) vec(rho).
The diagonal entries rho_33, rho_22, rho_11 sit at vec indices 0, 4, 8.

So L = i (H^T kron I - I kron H) + sum_k Gamma_k D_k, built without np.kron
but bit for bit as it (:func:`_liouvillian_entries`).
"""

from __future__ import annotations

import math
import numbers
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
    "build_liouvillian",
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


def _unit_dissipator(A: np.ndarray) -> np.ndarray:
    """Superoperator of 2 A rho A+ - A+A rho - rho A+A (unit rate)."""
    AdA = A.conj().T @ A
    return (2.0 * np.kron(A.conj(), A)
            - np.kron(_I3, AdA)
            - np.kron(AdA.T, _I3))


# unit-rate dissipators of each configuration's (gamma_a, gamma_b) channels,
# from the lowering operators X- of their SU(3) families; detuning- and
# rate-independent, so built once here instead of on every Liouvillian
_DISSIPATORS = {
    config: tuple(_unit_dissipator(shift_operator(family, "minus"))
                  for family in families)
    for config, families in {Configuration.LAMBDA: ("V", "T"),
                             Configuration.CASCADE: ("U", "T"),
                             Configuration.VEE: ("U", "V")}.items()}


def _coupling_slots(config: Configuration) -> tuple:
    """Row template of the Hamiltonian, H[r, c] at index 3r + c: 1 at the
    two entries of the probe transition, 2 at the pump's, 0 elsewhere."""
    slots = [0] * 9
    for slot, (lower, upper) in ((1, config.probe_transition),
                                 (2, config.pump_transition)):
        lo, up = LEVEL_INDEX[lower], LEVEL_INDEX[upper]
        slots[3 * up + lo] = slots[3 * lo + up] = slot
    return tuple(slots)


_COUPLING_SLOTS = {config: _coupling_slots(config) for config in Configuration}
# row indices of the detunings on the diagonal, H[3, 3] and H[2, 2]
_UPPER, _MIDDLE = 4 * LEVEL_INDEX[3], 4 * LEVEL_INDEX[2]

# Gather maps of the commutator over the 81 entries of L, row-major:
# kron(H^T, I)[3i + k, 3j + l] = H[j, i] I[k, l] and
# kron(I, H)[3i + k, 3j + l] = I[i, j] H[k, l], with H as its row of 9
_FLAT = np.arange(9).reshape(3, 3)
_ONES = np.ones((3, 3), dtype=int)
_TRANSPOSE_GATHER, _TRANSPOSE_EYE = (np.kron(_FLAT.T, _ONES).ravel(),
                                     np.kron(_ONES, _I3).ravel())
_GATHER, _EYE = np.kron(_ONES, _FLAT).ravel(), np.kron(_I3, _ONES).ravel()


def _finite_real(value, name: str) -> float:
    """``value`` as a float, or ValueError naming ``name``: a real number
    (``numbers.Real``: a Python or numpy one, a Fraction, not a bool) that
    is finite as a float."""
    # float and int first: the ABC's check costs ~0.5 us, theirs ~0.05
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} must be finite, got an integer too large "
                         "for a float")
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class SystemParams:
    """Couplings, decays and detunings of one driven three-level system.

    ``gamma_a``/``gamma_b`` are the two permitted decay constants of the
    configuration, each the rate of one SU(3) lowering operator, in the
    order (Gamma_31 of V-, Gamma_32 of T-) for lambda, (Gamma_21 of U-,
    Gamma_32 of T-) for cascade and (Gamma_21 of U-, Gamma_31 of V-) for
    vee; spontaneous decay from lower to higher levels is structurally
    absent.
    ``config`` must be a :class:`Configuration` member.  Couplings, decay
    constants and detunings must be real numbers (``numbers.Real``, not
    bools) that are finite as floats; couplings and decay constants must
    also be >= 0.  Any other value is a ValueError naming the field.
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
        if not isinstance(self.config, Configuration):
            raise ValueError(f"config must be a Configuration, got {self.config!r}")
        for name in ("g_probe", "g_pump", "gamma_a", "gamma_b",
                     "delta_probe", "delta_pump"):
            _finite_real(getattr(self, name), name)
        for name in ("g_probe", "g_pump", "gamma_a", "gamma_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def rate_scale(self) -> float:
        """Largest rate entering the dynamics, in MHz."""
        return max(self.g_probe, self.g_pump, self.gamma_a, self.gamma_b,
                   abs(self.delta_probe), abs(self.delta_pump))


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
    equations of the configuration.  Entries that overflow read inf
    without a numpy warning, as in :func:`build_liouvillian`.
    """
    with np.errstate(all="ignore"):
        return _hamiltonian_rows(params, [params.delta_probe]).reshape(3, 3)


def _hamiltonian_rows(params: SystemParams, delta_probe) -> np.ndarray:
    """:func:`build_hamiltonian_rwa` at each probe detuning as the rows of
    an (N, 9) array, H[r, c] at index 3r + c.

    One float row holds the couplings, each as ``0.0 + g`` (so a -0.0
    coupling enters as 0.0), and zeros; the detuning columns are written
    over it and the block is made complex once.  Every entry is the scalar
    expression evaluated elementwise, so each row equals the
    single-detuning Hamiltonian bit for bit.
    """
    dp, dq = np.asarray(delta_probe, dtype=float), params.delta_pump
    cfg = params.config
    values = (0.0, 0.0 + params.g_probe, 0.0 + params.g_pump)
    H = np.empty((len(dp), 9))
    H[:] = [values[slot] for slot in _COUPLING_SLOTS[cfg]]
    if cfg is Configuration.LAMBDA:
        H[:, _UPPER], H[:, _MIDDLE] = dp, dp - dq
    elif cfg is Configuration.CASCADE:
        H[:, _UPPER], H[:, _MIDDLE] = dp + dq, dp
    else:  # VEE
        H[:, _UPPER], H[:, _MIDDLE] = dp, dq
    return H.astype(complex)


def _dissipator(params: SystemParams) -> np.ndarray:
    """The 9x9 dissipator matrix: zeros plus each channel's Gamma_kl times
    its unit superoperator, in channel order (a zero rate adds signed zeros,
    which move no bit).  Entries that overflow read inf or NaN, with a
    numpy warning unless the caller ignores it, as
    :func:`_liouvillian_entries` does."""
    D = np.zeros((9, 9), dtype=complex)
    for gamma, unit in zip((params.gamma_a, params.gamma_b),
                           _DISSIPATORS[params.config]):
        D += gamma * unit
    return D


def build_liouvillian(params: SystemParams) -> Liouvillian:
    """Full generator: commutator part i[rho, H_rot] plus the dissipator."""
    L = _liouvillian_entries(params, [params.delta_probe]).reshape(9, 9)
    return Liouvillian(matrix=L, rate_scale=params.rate_scale)


def _liouvillian_entries(params: SystemParams, delta_probe,
                         slots: slice = slice(None)) -> np.ndarray:
    """The entries ``slots`` of the row-major 81 of the Liouvillian of
    ``params`` at each probe detuning in ``delta_probe``, shape (N,
    entries): all of them, or for example the diagonal, ``slice(None,
    None, 10)``.

    The commutator 1j (kron(H^T, I) - kron(I, H)) is read from the (N, 9)
    Hamiltonian rows through two fixed gather maps: entry (3i + k, 3j + l)
    is H[j, i] I[k, l] minus I[i, j] H[k, l].  Those are the products
    np.kron forms, with the same operands in the same order, so each row
    equals the np.kron composition on its own Hamiltonian bit for bit, inf
    and NaN included, and so does any slice of it: one expression serves
    every ``slots``.  The detuning-independent dissipator is computed once
    and added to every row.  (Splitting L into L0 + Delta L1 would not be
    exact: (dp + dq) - dp and dq round differently.)  Entries that overflow
    read inf or NaN without a numpy warning; the steady-state solve names
    them as non-finite.
    """
    with np.errstate(all="ignore"):
        H = _hamiltonian_rows(params, delta_probe)
        # each operand where the np.kron composition has it
        left = H.take(_TRANSPOSE_GATHER[slots], axis=1)
        left *= _TRANSPOSE_EYE[slots]
        right = H.take(_GATHER[slots], axis=1)
        np.multiply(_EYE[slots], right, out=right)
        # L is allocated after both factors, so freeing them leaves a gap
        # below L for the solve's temporaries.  Freed at the heap top, they
        # would go back to the system and be faulted in again for the next
        # call: 6x the page faults of a numeric sweep
        L = 1j * (left - right)
        L += _dissipator(params).ravel()[slots]
    return L


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
