"""Steady-state solve and fixed-step time evolution of the master equation.

The steady state is the unit-trace null vector of the Liouvillian.  For the
generic (one-dimensional null space) case it is found by replacing the last
population-derivative row of L -- the row generating d(rho_11)/dt -- with
the trace constraint and solving the resulting linear system.  Two checks
guard the solve.  A matrix is proved by its own inverse, which also gives
its state, or decided by the definition: the condition number of the
bordered matrix and the singular values of L (:func:`steady_state` for one
Liouvillian, :func:`steady_states` for a stack of them).  Along a numeric
probe-detuning grid (:func:`solve_grid`) only L's diagonal moves: one
template Liouvillian per grid and nine diagonal entries per point make the
bordered matrices, the inverse of one anchor per 64 detunings, and then one
per 8 of the points those anchors leave, proves the checks on its
neighbours, which are solved for the state alone, and only the points no
anchor proves are built whole.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError:
    _umath_linalg = None
# the stacked inverse np.linalg.cond(B, "fro") forms, NaN for a singular B,
# and the stacked one-vector solve of np.linalg.solve(B, b)
for _gufunc, _role in (("inv", "stacked inverse of np.linalg.cond"),
                       ("solve1", "stacked solve of np.linalg.solve")):
    if not hasattr(_umath_linalg, _gufunc):
        raise ImportError(
            f"eit3 needs numpy.linalg._umath_linalg.{_gufunc}, the {_role}, "
            f"which this numpy {np.__version__} lacks")

from .analytic import _steady_state_rows
from .model import (
    DIAGONAL_VEC_INDICES,
    Liouvillian,
    SystemParams,
    _finite_real,
    _liouvillian_entries,
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
# (building all 2001 points of a sweep at once costs ~8 MB of peak memory).
# The bordered buffer of 512 is 663 KB, mapped apart from the heap; freeing
# it lifts glibc's dynamic mmap threshold above every per-chunk temporary,
# which then reuse heap pages: 15 in-process numeric CLI sweeps of 2001
# points after a warm-up fault in 0-2 pages, against 3,891 (7,110 with one
# BLAS thread) at 256, whose 331 KB buffer left later temporaries above it
_CHUNK = 512
# detunings per anchor in solve_grid: only the centre matrix of each block
# of this many consecutive detunings is inverted, and its inverse bounds the
# conditioning of the others
_ANCHOR_BLOCK = 64
# detunings per anchor of solve_grid's second pass, over the points of a
# chunk that the first pass leaves unproved
_SECOND_BLOCK = 8
# the d(rho_11)/dt row of L, which the bordered matrix B replaces with the
# trace constraint
_TRACE_ROW = DIAGONAL_VEC_INDICES[-1]
_TRACE_CONSTRAINT = np.zeros(9, dtype=complex)
_TRACE_CONSTRAINT[list(DIAGONAL_VEC_INDICES)] = 1.0
# the right-hand side of the trace-row system: the unit vector of the trace row
_UNIT_TRACE = np.zeros(9, dtype=complex)
_UNIT_TRACE[_TRACE_ROW] = 1.0


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
    stack, NaN where a matrix fails, and the (index, error) failures in order;
    any other shape raises ``ValueError``.

    Every matrix gets both checks: a null-space dimension above 1 (singular
    values at or below NULL_TOL * sigma_max) gives
    :class:`DegenerateNullSpaceError`; otherwise a condition number of the
    trace-bordered matrix B above COND_LIMIT, or non-finite entries, give
    :class:`SingularSolveError`.  Per matrix, the outcome, and the state
    bit for bit, are those of a one-matrix stack.

    A bound kappa on cond(B) proves both checks.  As sigma_9(B) = 1 /
    ||B^-1||_2 and ||.||_2 <= ||.||_F, a kappa of the form ||B||_F times a
    bound on ||B^-1||_2 also gives sigma_9(B) >= ||B||_F / kappa.  A matrix
    with kappa <= 1e-2 * COND_LIMIT and 6 * kappa * NULL_TOL * ||L||_F <
    ||B||_F is therefore within the condition limit and has sigma_9(B) > 6 *
    NULL_TOL * ||L||_F.  B is L with one row replaced, so rank-one
    interlacing gives sigma_8(L) >= sigma_9(B) > 6 * NULL_TOL * sigma_1(L):
    L has at most one null direction.  The factors 1e-2 and 6 are margins
    for rounding: the computed inverse has a relative error of about 9 eps
    kappa_F (2e-3 at kappa_F = 1e12), and the SVD an absolute error of a
    few eps sigma_1.

    Each matrix takes its own inverse X: kappa_F = ||B||_F ||X||_F is its
    bound, and the trace-row column of X, the solution of B x = e_8, is its
    state.  kappa_F reads NaN or inf where B is exactly singular or L is
    not finite.  Every other matrix that kappa_F leaves unproved is decided
    by the definition: cond(B) from ``np.linalg.cond`` (the value in the
    error message) and the null directions counted from the singular
    values of L.  So the proof decides no outcome: each is the
    definition's.  (:func:`solve_grid` proves most points of a detuning
    grid by one inverse per 64, then per 8 of the rest; see
    :func:`_grid_states`.)
    """
    M = np.asarray(matrices)
    if M.shape[1:] != (9, 9):
        raise ValueError(f"matrices must be an (N, 9, 9) stack, got shape {M.shape}")
    bordered = np.array(M, dtype=complex)
    bordered[:, _TRACE_ROW] = _TRACE_CONSTRAINT
    with np.errstate(all="ignore"):
        inverse, kappa, norm = _kappa_f(bordered)
        # NaN or inf where M is not finite or a norm overflows: no proof
        proved = _within(kappa, _frobenius(M), norm)
    if proved.all():
        return _symmetrized(inverse[:, :, _TRACE_ROW]), []

    # the rest are decided by the definition: cond of B and L's SVD
    finite = np.isfinite(M).all(axis=(1, 2))
    cond = np.zeros(len(M))  # proved rows are within the limit
    degenerate = np.zeros(len(M), dtype=bool)
    rows = np.flatnonzero(finite & ~proved)
    cond[rows] = np.linalg.cond(bordered[rows])
    sv = np.linalg.svd(M[rows], compute_uv=False)  # sigma_max first
    degenerate[rows] = (sv <= NULL_TOL * sv[:, :1]).sum(axis=1) > 1
    ok = finite & ~degenerate & (cond <= COND_LIMIT)
    block = np.full((len(M), 3, 3), complex(np.nan, np.nan))
    block[ok] = _symmetrized(inverse[ok][:, :, _TRACE_ROW])
    return block, [(i, _failure(finite[i], degenerate[i], cond[i]))
                   for i, passed in enumerate(ok.tolist()) if not passed]


def _grid_states(params: SystemParams, deltas: np.ndarray) -> tuple[
        np.ndarray, list, np.ndarray]:
    """:func:`solve_grid`'s numeric backend on finite ``deltas``: the block
    of states, the failures and each point's bound on cond(B), NaN exactly
    where no anchor proves the point.

    Along the grid only L's diagonal moves.  One template L_0, the build at
    the first detuning, gives the off-diagonal entries of every point's L;
    per 512 detunings (``_CHUNK``) only the 9 diagonal entries of each L
    are computed, through the build's gather maps restricted to the
    diagonal (:func:`eit3.model._liouvillian_entries`), and written into
    one bordered buffer per call, the template's off-diagonal entries and
    trace row in place.  Whenever the template's off-diagonal entries and a
    point's diagonal are finite, its row of the buffer is the whole build's
    bordered matrix bit for bit: an off-diagonal entry depends on the
    detuning only through products of H's diagonal with a 0 of the
    identity, signed zeros that adding the dissipator's +0.0 (or its
    nonzero entry) erases.  So ||L_j||_F^2 = c_L + sum_i |L_j[i, i]|^2 and
    ||B_j||_F^2 = c_B + sum_{i<8} |L_j[i, i]|^2, with c_L and c_B the
    template's off-diagonal sums of squares (c_B counting the trace row and
    its diagonal 1).  A point with a non-finite diagonal entry, or any
    point of a grid whose template has a non-finite off-diagonal entry,
    has a non-finite norm and is never proved.

    The proof takes one inverse per block of 64 consecutive detunings
    (``_ANCHOR_BLOCK``) within a chunk.  The anchor, the block's centre
    matrix B_a, gets its inverse X_a and kappa_F = ||B_a||_F ||X_a||_F, its
    own bound, tested as in :func:`steady_states`.  Its neighbours are B_j
    = B_a + E_j with E_j diagonal, so rho_j = ||E_j X_a||_F, from the
    diagonal difference and the row norms of X_a, bounds ||E_j X_a||_2.
    B_j = (I + E_j X_a) B_a, and for rho_j < 1 the Banach lemma (Higham
    2002, ch. 7) bounds ||B_j^-1||_2 <= ||X_a||_2 / (1 - rho_j), so
    kappa-hat_j = ||B_j||_F ||X_a||_F / (1 - rho_j) >= cond(B_j).  An
    anchor whose kappa_F is at most 1e-2 * COND_LIMIT lends X_a to the
    neighbours with rho_j <= 1/2, each proved by its kappa-hat in the two
    inequalities of :func:`steady_states`.  The rounding stays inside the
    same margins: X_a is within 2e-3 of the inverse, which moves rho_j,
    ||X_a||_F and, with 1 - rho_j >= 1/2, the factor 1 / (1 - rho_j) by
    under 1%; the norms from the diagonal round a few eps away from
    ``np.linalg.norm``'s.  A NaN or inf anywhere leaves a point unproved.

    The anchor's reach is a count of points, not a detuning width, so on a
    coarse or wide grid the points far from a centre are left.  A second
    pass runs the same proof over the chunk's unproved points alone, taken
    in order as one stack, with an anchor per 8 of them (``_SECOND_BLOCK``).
    Nothing in the proof needs B_j and B_a to be adjacent, only B_j - B_a
    diagonal, which holds for any two points of the grid, so the second
    pass is as sound as the first.  On the bundled lambda grid it proves
    198 of the 201 points against the first pass's 76, and 1,858 of 2001
    against 776 over +-150 MHz.

    A proved point is solved for the state alone, by numpy's stacked
    ``solve1`` on its buffer row, at about half the cost of an inverse.
    On this LAPACK build its result is the trace-row column of B^-1 bit for
    bit (a property of the build, not a numpy guarantee, which
    ``test_kappa_f_and_the_state_are_cond_and_solve_bit_for_bit`` names),
    so the state does not depend on which proof a point took, nor on which
    pass.  Only the points both passes leave, and a one-point chunk (its own
    anchor), are built whole and solved by :func:`steady_states`.
    """
    n = len(deltas)
    block = np.empty((n, 3, 3), dtype=complex)
    bound = np.full(n, np.nan)
    failures: list = []
    if n > 1:
        # allocated once: the chunks only move its 8 free diagonal entries
        bordered = np.empty((min(n, _CHUNK), 9, 9), dtype=complex)
        bordered[:] = build_liouvillian_stack(params, deltas[:1])
        with np.errstate(all="ignore"):  # an overflow proves nothing
            c_l = _off_diagonal_squares(bordered[0])
            bordered[:, _TRACE_ROW] = _TRACE_CONSTRAINT
            c_b = _off_diagonal_squares(bordered[0]) + 1.0
        # row 8's diagonal stays the trace constraint's 1
        free_diagonal = bordered.reshape(-1, 81)[:, :80:10]
    for start in range(0, n, _CHUNK):
        chunk = deltas[start:start + _CHUNK]
        here = slice(start, start + len(chunk))
        if len(chunk) > 1:  # else its own anchor, built whole
            B = bordered[:len(chunk)]
            diagonal = _liouvillian_entries(params, chunk, slice(None, None, 10))
            free_diagonal[:len(chunk)] = diagonal[:, :8]
            bound[here] = _anchored(B, diagonal, c_l, c_b, _ANCHOR_BLOCK)
            rest = np.flatnonzero(np.isnan(bound[here]))
            if rest.size:  # anchors closer together over the rows left
                bound[start + rest] = _anchored(B[rest], diagonal[rest], c_l,
                                                c_b, _SECOND_BLOCK)
            solved = ~np.isnan(bound[here])
            if solved.all():
                block[here] = _symmetrized(_solve(B))
                continue
            if solved.any():
                block[here][solved] = _symmetrized(_solve(B[solved]))
        rest = np.flatnonzero(np.isnan(bound[here]))
        # named: each stack lives until the next is built, so a chunk's
        # temporaries reuse its memory instead of faulting in new pages
        stack = build_liouvillian_stack(params, chunk[rest])
        block[start + rest], failed = steady_states(stack)
        failures += [(start + int(rest[i]), exc) for i, exc in failed]
    return block, failures, bound


def _anchored(bordered: np.ndarray, diagonal: np.ndarray, c_l: float,
              c_b: float, block: int) -> np.ndarray:
    """Each point's bound on cond(B) in a stack of grid points, one anchor
    per ``block`` consecutive points, NaN where its anchor proves nothing:
    an anchor's kappa_F, the others' kappa-hat (see :func:`_grid_states`).
    ``bordered`` holds the points' template-filled bordered matrices,
    ``diagonal`` the (N, 9) diagonals of their Liouvillians, ``c_l`` and
    ``c_b`` the template's off-diagonal sums of squares.  A point whose
    rho-hat or norms are NaN or inf, whose rho-hat is above 1/2, or whose
    bound fails either check, reads NaN."""
    n = len(bordered)
    owner = np.arange(n) // block  # each point's block
    starts = np.arange(0, n, block)
    anchors = starts + np.minimum(block, n - starts) // 2
    with np.errstate(all="ignore"):  # NaN and inf leave a point unproved
        squares = (diagonal.conj() * diagonal).real
        free = squares[:, :8].sum(axis=1)  # B's moving diagonal
        norm_l = np.sqrt(c_l + free + squares[:, 8])
        norm_b = np.sqrt(c_b + free)
        inverse, kappa, norm = _kappa_f(bordered[anchors])
        rows = (inverse.conj() * inverse).real.sum(axis=2)  # ||X_a[i]||^2
        spread = np.sqrt(rows.sum(axis=1))[owner]  # ||X_a||_F
        # the diagonal of B_j - B_a scales the rows of X_a
        shift = diagonal[:, :8] - diagonal[anchors][owner, :8]
        rho = np.sqrt(np.einsum("ij,ij->i", (shift.conj() * shift).real,
                                rows[owner, :8]))
        bound = norm_b * spread / (1.0 - rho)
        proved = ((kappa <= 1e-2 * COND_LIMIT)[owner] & (rho <= 0.5)
                  & _within(bound, norm_l, norm_b))
        # each anchor by its own kappa_F, as in a one-matrix stack
        bound[anchors] = kappa
        proved[anchors] = _within(kappa, norm_l[anchors], norm)
    bound[~proved] = np.nan
    return bound


def _off_diagonal_squares(x: np.ndarray) -> float:
    """The sum of |x[i, j]|^2 over the off-diagonal entries of a 9x9 x."""
    squares = (x.conj() * x).real
    squares.flat[::10] = 0.0
    return squares.sum()


def _within(bound: np.ndarray, norm_l: np.ndarray,
            norm_b: np.ndarray) -> np.ndarray:
    """Where a bound on cond(B) proves both checks of :func:`steady_states`,
    given ||L||_F and ||B||_F; never where any of them is NaN."""
    return ((bound <= 1e-2 * COND_LIMIT)
            & (6.0 * bound * NULL_TOL * norm_l < norm_b))


def _solve(bordered: np.ndarray) -> np.ndarray:
    """The (N, 9) solutions of B x = e_8, the trace row's unit vector, for an
    (N, 9, 9) stack of trace-bordered matrices: ``np.linalg.solve(B, e_8)``
    without its checks, NaN where LAPACK finds a matrix singular."""
    return _umath_linalg.solve1(bordered, _UNIT_TRACE, signature="DD->D")


def _kappa_f(bordered: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inverses of an (N, 9, 9) complex stack, NaN where LAPACK finds a
    matrix singular, with kappa_F and ||B||_F per matrix: the inverse and
    the arithmetic of ``np.linalg.cond(bordered, "fro")``, which reads inf
    where this reads NaN for a finite matrix.  numpy warns of a singular
    matrix or an overflow unless the caller ignores them with np.errstate,
    as its callers do."""
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

    ``backend`` "numeric" solves 512 detunings at a time from one template
    Liouvillian and each point's diagonal, proving most points by one
    inverse per 64, then one per 8 of the points left, and building whole
    only the Liouvillians of the rest
    (:func:`_grid_states`); "analytic" the closed forms: from 32 points
    (``analytic._GRID_PASS_POINTS``) one evaluation per slice of up to
    2,048 points in float64 arrays that repeat CPython's float and complex
    arithmetic, below it one Python evaluation per point.  Each
    row, and each failure's error, is that of the one-point call
    ``steady_state(build_liouvillian(replace(params, delta_probe=d)))`` or
    ``analytic_steady_state(replace(params, delta_probe=d))``, bit for bit;
    a non-finite d is that call's ValueError, before any point is solved,
    and ``deltas`` of any shape but 1-D raise ``ValueError``.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1:
        raise ValueError(f"deltas must be 1-D detunings, got shape {deltas.shape}")
    if (bad := deltas[~np.isfinite(deltas)]).size:  # SystemParams' check
        raise ValueError(f"delta_probe must be finite, got {bad[0]}")
    if backend == "numeric":
        return _grid_states(params, deltas)[:2]
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
    where the drift would pass 1e-7, raises ``ValueError``.  So does an
    ``L`` whose matrix is not (9, 9) or whose ``rate_scale`` is not a finite
    number >= 0, a ``t_end`` or ``dt_max`` that is not a finite number (the
    rule of :class:`~eit3.model.SystemParams`), and a ``rho0`` that is not
    a finite (3, 3) array.
    """
    if np.shape(L.matrix) != (9, 9):
        raise ValueError(f"L.matrix must be a (9, 9) Liouvillian, got shape "
                         f"{np.shape(L.matrix)}")
    if _finite_real(L.rate_scale, "rate_scale") < 0:
        raise ValueError(f"rate_scale must be >= 0, got {L.rate_scale!r}")
    rho0 = np.asarray(rho0)
    if rho0.shape != (3, 3):
        raise ValueError(f"rho0 must be a (3, 3) array, got shape {rho0.shape}")
    if not np.isfinite(rho0).all():
        raise ValueError("rho0 must be finite, got a NaN or inf entry")
    if _finite_real(t_end, "t_end") <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if _finite_real(dt_max, "dt_max") <= 0:
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
