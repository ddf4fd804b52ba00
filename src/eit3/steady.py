"""Steady-state solve and fixed-step time evolution of the master equation.

The steady state is the unit-trace null vector of the Liouvillian.  For the
generic (one-dimensional null space) case it is found by replacing the last
population-derivative row of L -- the row generating d(rho_11)/dt -- with
the trace constraint and solving the resulting linear system.  Two checks
guard the solve.  One inverse of the bordered matrix proves both on nearly
every matrix and gives its state; the rest are decided by their
definition, the condition number of the bordered matrix and the singular
values of L.  The same solve serves one Liouvillian (:func:`steady_state`)
and a stack of them (:func:`steady_states`); :func:`solve_grid` runs
either backend over a probe-detuning grid.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

try:  # the inverse np.linalg.cond(B, "fro") forms, NaN for a singular B
    from numpy.linalg import _umath_linalg
    _umath_linalg.inv
except (ImportError, AttributeError) as exc:
    raise ImportError(
        "eit3 needs numpy.linalg._umath_linalg.inv, the stacked inverse of "
        f"np.linalg.cond, which this numpy {np.__version__} lacks") from exc

from .analytic import _steady_state_rows
from .model import (
    DIAGONAL_VEC_INDICES,
    Liouvillian,
    SystemParams,
    build_liouvillian_stack,
    unvectorize,
    vectorize,
)

__all__ = [
    "DegenerateNullSpaceError",
    "SingularSolveError",
    "StepTooLargeError",
    "Trajectory",
    "steady_state",
    "steady_states",
    "solve_grid",
    "evolve",
    "is_density_matrix",
]

# singular values below NULL_TOL * sigma_max count as null directions
NULL_TOL = 1e-10
# condition estimate above this aborts the linear solve
COND_LIMIT = 1e14
# integrator step must satisfy h <= STEP_SAFETY / rate_scale
STEP_SAFETY = 0.1
# states evolve records at most, t = 0 and t_end included
MAX_SAMPLES = 2001
# RK4 steps between two recorded states (the stride) at most: rounding in
# phi**stride drifts the trace of a trajectory by ~1e-13 per step of stride
MAX_STRIDE = 10**6
# detunings per batched solve in solve_grid: bounds a sweep's working set
# (building all 2001 points of a sweep at once costs ~8 MB of peak memory)
_CHUNK = 256
# the d(rho_11)/dt row of L, which the bordered matrix B replaces with the
# trace constraint
_TRACE_ROW = DIAGONAL_VEC_INDICES[-1]
_TRACE_CONSTRAINT = np.zeros(9, dtype=complex)
_TRACE_CONSTRAINT[list(DIAGONAL_VEC_INDICES)] = 1.0


class DegenerateNullSpaceError(ValueError):
    """Null space of the Liouvillian has dimension > 1; the stationary state
    is not unique and must be disambiguated by time evolution from a
    specific initial state."""


class SingularSolveError(ValueError):
    """Trace-constrained linear system is too ill-conditioned to trust."""


class StepTooLargeError(ValueError):
    """Requested integrator step violates the stability bound."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the master equation.

    ``times`` are in microseconds, strictly increasing, starting at 0;
    ``states`` has shape (len(times), 3, 3).
    """

    times: np.ndarray
    states: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def is_density_matrix(rho: np.ndarray, herm_tol: float = 1e-10) -> bool:
    """Finite, Hermitian within herm_tol, unit trace within 1e-10 and
    eigenvalues above -1e-9."""
    rho = np.asarray(rho)
    if not np.isfinite(rho).all():  # NaN would fail no comparison below
        return False
    if np.abs(rho - rho.conj().T).max() > herm_tol:
        return False
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        return False
    eig = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return bool(eig.min() >= -1e-9)


def steady_state(L: Liouvillian) -> np.ndarray:
    """Unique stationary density matrix of the Liouvillian.

    The one-matrix case of :func:`steady_states`.  Raises
    :class:`DegenerateNullSpaceError` when the null space has dimension > 1
    and :class:`SingularSolveError` when the trace-constrained system
    exceeds the conditioning limit or L has non-finite entries.  The
    returned state satisfies max|L vec(rho)| <= 1e-10 max|L| and
    Tr rho = 1.
    """
    block, failures = steady_states(L.matrix[np.newaxis])
    if failures:
        raise failures[0][1]
    return block[0]


def steady_states(matrices: np.ndarray) -> tuple[np.ndarray, list]:
    """The (N, 3, 3) block of stationary states of an (N, 9, 9) Liouvillian
    stack, NaN where a matrix fails, and the (index, error) failures in order.

    Every matrix gets both checks: a null-space dimension above 1 (singular
    values at or below NULL_TOL * sigma_max) gives
    :class:`DegenerateNullSpaceError`; otherwise a condition number of the
    trace-bordered matrix B above COND_LIMIT, or non-finite entries, give
    :class:`SingularSolveError`.  Per matrix, the arithmetic is that of a
    one-matrix stack.

    One inverse per matrix proves both checks and gives the state.  Let
    kappa_F = ||B||_F ||B^-1||_F.  As ||.||_2 <= ||.||_F, cond(B) <= kappa_F
    and sigma_9(B) = 1 / ||B^-1||_2 >= ||B||_F / kappa_F.  A matrix with
    kappa_F <= 1e-2 * COND_LIMIT and 6 * kappa_F * NULL_TOL * ||L||_F <
    ||B||_F is therefore within the condition limit and has sigma_9(B) > 6 *
    NULL_TOL * ||L||_F.  B is L with one row replaced, so rank-one
    interlacing gives sigma_8(L) >= sigma_9(B) > 6 * NULL_TOL * sigma_1(L): L
    has at most one null direction.  The factors 1e-2 and 6 are margins for
    rounding: the computed inverse has a relative error of about 9 eps
    kappa_F (2e-3 at kappa_F = 1e12), and the SVD an absolute error of a few
    eps sigma_1.  The right-hand side of the trace-row system is the unit
    vector of the trace row, so the state is that column of B^-1.  kappa_F
    reads NaN or inf where B is exactly singular or L is not finite, so
    those matrices go without the proof and the others in the stack keep
    it.  A stack that is proved whole returns at once.  Otherwise every
    other finite matrix is decided by the definition: cond(B) from
    ``np.linalg.cond`` (the value in the error message) and the null
    directions counted from the singular values of L.
    """
    M = np.asarray(matrices)
    bordered = np.array(M, dtype=complex)
    bordered[:, _TRACE_ROW] = _TRACE_CONSTRAINT
    with np.errstate(all="ignore"):
        inverse, kappa, norm = _kappa_f(bordered)
        # NaN or inf where M is not finite or a norm overflows: no proof
        proved = ((kappa <= 1e-2 * COND_LIMIT)
                  & (6.0 * kappa * NULL_TOL * _frobenius(M) < norm))
    if proved.all():
        return _symmetrized(inverse[:, :, _TRACE_ROW]), []

    # the rest are decided by the definition: cond of B and L's SVD
    finite = np.isfinite(M).all(axis=(1, 2))
    cond = np.zeros(len(M))  # proved rows are within the limit
    degenerate = np.zeros(len(M), dtype=bool)
    rows = np.flatnonzero(finite & ~proved)
    if rows.size:
        cond[rows] = np.linalg.cond(bordered[rows])
        sv = np.linalg.svd(M[rows], compute_uv=False)  # sigma_max first
        degenerate[rows] = (sv <= NULL_TOL * sv[:, :1]).sum(axis=1) > 1
    ok = finite & ~degenerate & (cond <= COND_LIMIT)
    block = np.full((len(M), 3, 3), complex(np.nan, np.nan))
    block[ok] = _symmetrized(inverse[ok][:, :, _TRACE_ROW])
    return block, [(i, _failure(finite[i], degenerate[i], cond[i]))
                   for i, passed in enumerate(ok.tolist()) if not passed]


def _kappa_f(bordered: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inverses of an (N, 9, 9) complex stack, NaN where LAPACK finds a
    matrix singular, with kappa_F and ||B||_F per matrix: the inverse and
    the arithmetic of ``np.linalg.cond(bordered, "fro")``, which reads inf
    where this reads NaN for a finite matrix.  numpy warns of a singular
    matrix or an overflow unless the caller ignores them with np.errstate,
    as :func:`steady_states` does."""
    inverse = _umath_linalg.inv(bordered, signature="D->D")
    norm = _frobenius(bordered)
    return inverse, norm * _frobenius(inverse), norm


def _frobenius(x: np.ndarray) -> np.ndarray:
    """||x||_F of each matrix of an (N, 9, 9) stack, in the operations of
    ``np.linalg.norm(x, axis=(1, 2))``."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(1, 2)))


def _symmetrized(vectors: np.ndarray) -> np.ndarray:
    """The (N, 3, 3) states of (N, 9) solution vectors, with the solver's
    rounding-level Hermiticity defect symmetrized away: 0.5 (rho + rho^H)
    built in one buffer.  ``vectors`` reshaped is rho transposed, so the
    buffer starts as its conjugate, rho^H.  Each sum and product is that of
    ``0.5 * (rho + rho.conj().transpose(0, 2, 1))`` with its operands
    swapped, so the bytes are the same."""
    transposed = vectors.reshape(-1, 3, 3)  # vec[3c + r] = rho[r, c]
    rho = transposed.conj()
    rho += transposed.swapaxes(1, 2)
    rho *= 0.5
    return rho


def _failure(finite: bool, degenerate: bool, cond: float) -> ValueError:
    """The error of a matrix that failed a check of :func:`steady_states`."""
    if not finite:
        return SingularSolveError(
            "SingularSolve: Liouvillian has non-finite entries")
    if degenerate:
        return DegenerateNullSpaceError(
            "DegenerateNullSpace: Liouvillian null space has dimension > 1; "
            "the stationary state is not unique")
    return SingularSolveError(
        f"SingularSolve: condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")


def solve_grid(params: SystemParams, deltas,
               backend: str) -> tuple[np.ndarray, list]:
    """The (N, 3, 3) block of steady states of ``params`` at the probe
    detunings ``deltas``, NaN where a point fails, and the (index, error)
    failures in grid order.

    ``backend`` "numeric" solves Liouvillian stacks of 256 detunings
    (:func:`steady_states`), "analytic" the closed forms: from 32 points
    (``analytic._GRID_PASS_POINTS``) one evaluation per slice of up to
    2,048 points in float64 arrays that repeat CPython's float and complex
    arithmetic, below it one Python evaluation per point.  Each
    row, and each failure's error, is that of the one-point call
    ``steady_state(build_liouvillian(replace(params, delta_probe=d)))`` or
    ``analytic_steady_state(replace(params, delta_probe=d))``, bit for bit;
    a non-finite d is that call's ValueError, before any point is solved.
    """
    deltas = np.asarray(deltas, dtype=float)
    if (bad := deltas[~np.isfinite(deltas)]).size:  # SystemParams' check
        raise ValueError(f"delta_probe must be finite, got {bad[0]}")
    if backend == "numeric":
        block = np.empty((len(deltas), 3, 3), dtype=complex)
        failures: list = []
        for start in range(0, len(deltas), _CHUNK):
            # named: each stack lives until the next is built, 7.8x fewer faults
            stack = build_liouvillian_stack(params, deltas[start:start + _CHUNK])
            block[start:start + _CHUNK], failed = steady_states(stack)
            failures += [(start + i, exc) for i, exc in failed]
        return block, failures
    if backend == "analytic":
        return _steady_state_rows(params, deltas)
    raise ValueError(f"backend must be 'numeric' or 'analytic', got {backend!r}")


def evolve(L: Liouvillian, rho0: np.ndarray, t_end: float,
           dt_max: float) -> Trajectory:
    """Integrate drho/dt = L rho with classical fixed-step RK4.

    The step is t_end/n with n chosen so the step is <= dt_max; dt_max must
    itself respect the stability bound 0.1 / max(g, Gamma, |Delta|), else
    :class:`StepTooLargeError` is raised, and must give a finite n, else
    ``ValueError``.  For this autonomous linear system the four RK4 stages
    collapse to the quartic Taylor polynomial phi of exp(hL).  At most
    MAX_SAMPLES = 2001 states are recorded (uniformly strided, always
    including t=0 and t_end); the state jumps from one record to the next by
    phi**stride, formed once by repeated squaring, so a sample costs one
    matrix-vector product whatever the step count.  The samples are the
    rows of one preallocated (samples, 9) block, each written in place from
    the one before by ``P.dot(x, row)`` (``out`` passed by position),
    mapped in C over a list of the rows, so no Python loop step runs per
    sample.  That is the BLAS zgemv of ``P @ x``, so the same bits, at
    about half the cost per call: ``@`` pays matmul's ufunc dispatch on
    each of ~2,000 sequential 9x9 products, ``ndarray.dot`` goes to BLAS
    directly.  A ragged last sample is one ``phi**tail`` product.  The
    sample k steps in is at ``k * h``, the last at ``t_end``.  A non-finite L is not integrated: every state
    after ``rho0`` is NaN, as its propagator's powers would be.  A finite L
    whose states overflow gives inf or NaN without a numpy warning.  The
    scheme is the same RK4, but rounding in phi**stride drifts the trace of
    a trajectory by 4.7e-14 to 1.03e-13 per step of stride on the reference
    systems (the trace error is ~1e-11 at the default step 0.1 / rate_scale
    and ~3e-8 at a 1000x finer step), so a stride above MAX_STRIDE = 1e6,
    where the drift would pass 1e-7, raises ``ValueError``.  So does a
    ``rho0`` that is not a finite (3, 3) array.
    """
    rho0 = np.asarray(rho0)
    if rho0.shape != (3, 3):
        raise ValueError(f"rho0 must be a (3, 3) array, got shape {rho0.shape}")
    if not np.isfinite(rho0).all():
        raise ValueError("rho0 must be finite, got a NaN or inf entry")
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if dt_max <= 0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    bound = STEP_SAFETY / L.rate_scale if L.rate_scale else np.inf
    if dt_max > bound:
        raise StepTooLargeError(
            f"StepTooLarge: dt_max={dt_max:g} us exceeds the stability bound "
            f"{bound:g} us")
    steps = np.ceil(t_end / dt_max)
    if not np.isfinite(steps):
        raise ValueError(f"dt_max={dt_max:g} us gives a non-finite step count "
                         f"over t_end={t_end:g} us")
    n_steps = max(1, int(steps))
    stride = max(1, -(-n_steps // (MAX_SAMPLES - 1)))
    if stride > MAX_STRIDE:
        raise ValueError(
            f"t_end={t_end:g} us at dt_max={dt_max:g} us takes {stride:.3g} RK4 "
            f"steps per recorded sample, above the cap of {MAX_STRIDE:.0e}")
    h = t_end / n_steps
    full, tail = divmod(n_steps, stride)
    states = np.empty((full + 1 + (tail > 0), 9), dtype=complex)
    states[0] = vectorize(rho0)
    if np.isfinite(L.matrix).all():
        eye = np.eye(9, dtype=complex)
        with np.errstate(all="ignore"):  # inf or NaN states give no warning
            A = h * L.matrix
            # RK4 one-step propagator: I + A + A^2/2 + A^3/6 + A^4/24 (Horner)
            phi = eye + A @ (eye + (A / 2) @ (eye + (A / 3) @ (eye + A / 4)))
            P = np.linalg.matrix_power(phi, stride)
            # P @ x's zgemv without matmul's dispatch per call; listing the
            # rows first spares the map an array iteration per sample
            rows = list(states[:full + 1])
            collections.deque(map(P.dot, rows, rows[1:]), maxlen=0)
            if tail:
                states[-1] = np.linalg.matrix_power(phi, tail) @ states[-2]
    else:  # NaN, as phi**stride would give, without forming phi**stride
        states[1:] = complex(np.nan, np.nan)
    times = np.arange(0, stride * len(states), stride) * h  # k * h
    times[-1] = t_end
    return Trajectory(times=times, states=unvectorize(states))
