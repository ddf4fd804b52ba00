"""Null-space steady states and RK4 time evolution."""

import importlib.util
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from conftest import outcomes, random_params, random_state
from exact_oracle import exact_state

import eit3.analytic
import eit3.steady
from eit3.analytic import (
    _GRID_PASS_POINTS,
    DegenerateDenominatorError,
    analytic_steady_state,
    steady_state_terms,
)
from eit3.model import (
    DIAGONAL_VEC_INDICES,
    Configuration,
    Liouvillian,
    SystemParams,
    build_liouvillian,
    build_liouvillian_stack,
    unvectorize,
    vectorize,
)
from eit3.presets import reference_params
from eit3.steady import (
    COND_LIMIT,
    MAX_SAMPLES,
    MAX_STRIDE,
    NULL_TOL,
    DegenerateNullSpaceError,
    SingularSolveError,
    StepTooLargeError,
    _kappa_f,
    evolve,
    is_density_matrix,
    solve_grid,
    steady_state,
    steady_states,
)
from eit3.su3 import LEVEL_INDEX


def bordered(M):
    """L with its d(rho_11)/dt row replaced by the trace constraint."""
    B = M.copy()
    B[DIAGONAL_VEC_INDICES[-1], :] = 0.0
    B[DIAGONAL_VEC_INDICES[-1], list(DIAGONAL_VEC_INDICES)] = 1.0
    return B


# the trace constraint: the d(rho_11)/dt row of every bordered matrix
TRACE_ROW = bordered(np.zeros((9, 9), dtype=complex))[DIAGONAL_VEC_INDICES[-1]]


def one_matrix_solve(M):
    """The trace-row solve written out for a single matrix, as the reference
    for the batched one: both checks on every matrix, each with its own SVD
    (the null-space count from L's, the condition number from the bordered
    matrix's), the same LAPACK calls and the same error messages, so equal
    bit for bit."""
    if not np.isfinite(M).all():
        raise SingularSolveError(
            "SingularSolve: Liouvillian has non-finite entries")
    sv = np.linalg.svd(M, compute_uv=False)
    if np.sum(sv <= NULL_TOL * sv.max()) > 1:
        raise DegenerateNullSpaceError(
            "DegenerateNullSpace: Liouvillian null space has dimension > 1; "
            "the stationary state is not unique")
    B = bordered(M)
    cond = np.linalg.cond(B)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSolveError(
            f"SingularSolve: condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")
    b = np.zeros(9, dtype=complex)
    b[DIAGONAL_VEC_INDICES[-1]] = 1.0
    rho = unvectorize(np.linalg.solve(B, b))
    return 0.5 * (rho + rho.conj().T)


def stiff_stacks(seed, lo, hi, sets=150, per_set=8):
    """Liouvillian stacks of random parameter sets: rates log-uniform in
    [lo, hi], about one in seven set to exactly 0, the pump on resonance in
    every other set, probe detunings spread over both pump resonances."""
    rng = np.random.default_rng(seed)
    for i in range(sets):
        rates = np.exp(rng.uniform(np.log(lo), np.log(hi), 4))
        rates[rng.random(4) < 0.15] = 0.0
        delta_pump = 0.0 if i % 2 else float(rng.uniform(-2, 2) * rates.max())
        p = SystemParams(list(Configuration)[i % 3], *rates.tolist(),
                         delta_pump=delta_pump)
        deltas = rng.uniform(-2, 2, per_set) * max(rates[1], lo)
        yield build_liouvillian_stack(p, deltas)


@pytest.fixture
def linalg_calls(monkeypatch):
    """The np.linalg.svd, np.linalg.cond and np.linalg.solve calls and the
    stacked inverses (numpy.linalg._umath_linalg.inv, which np.linalg.inv
    and np.linalg.cond(..., "fro") call too), as (name, matrices, further
    positional arguments)."""
    calls = []

    def counting(namespace, name, label):
        function = getattr(namespace, name)

        def call(a, *args, **kwargs):
            calls.append((label, np.array(a), args))
            return function(a, *args, **kwargs)
        monkeypatch.setattr(namespace, name, call)

    for name in ("svd", "cond", "solve"):
        counting(np.linalg, name, name)
    counting(_umath_linalg, "inv", "inv")
    return calls


def call_shapes(calls):
    return [(name, a.shape, *args) for name, a, args in calls]


def rk4_propagator(L, h):
    """The RK4 one-step propagator of L at step h, as evolve forms it."""
    A = h * L.matrix
    eye = np.eye(9, dtype=complex)
    return eye + A @ (eye + (A / 2) @ (eye + (A / 3) @ (eye + A / 4)))


def step_loop(L, rho0, t_end, dt_max, max_samples):
    """RK4 applied one step at a time, recording every stride-th state so
    that at most ``max_samples`` states are kept: the longhand reference for
    the strided propagator of :func:`evolve`.
    Returns (times, states, n_steps, stride)."""
    n_steps = max(1, int(np.ceil(t_end / dt_max)))
    h = t_end / n_steps
    phi = rk4_propagator(L, h)
    stride = max(1, -(-n_steps // (max_samples - 1)))
    x = vectorize(rho0)
    times = [0.0]
    states = [unvectorize(x)]
    for k in range(1, n_steps + 1):
        x = phi @ x
        if k % stride == 0 or k == n_steps:
            times.append(t_end if k == n_steps else k * h)
            states.append(unvectorize(x))
    return np.array(times), np.array(states), n_steps, stride


def test_lambda_resonance_traps_population_in_ground():
    L = build_liouvillian(reference_params("lambda"))
    rho = steady_state(L)
    assert rho[2, 2].real >= 0.99
    assert rho[1, 1].real <= 0.01
    assert abs(rho[0, 0]) <= 1e-10  # rho_33 carries a Delta^2 factor


def test_degenerate_when_undriven():
    p = SystemParams(Configuration.LAMBDA, g_probe=0.0, g_pump=0.0,
                     gamma_a=0.1, gamma_b=6.0)
    with pytest.raises(DegenerateNullSpaceError):
        steady_state(build_liouvillian(p))


def test_residual_and_validity_across_params(rng, config):
    for _ in range(15):
        p = random_params(rng, config)
        L = build_liouvillian(p)
        rho = steady_state(L)
        residual = np.abs(L.matrix @ vectorize(rho)).max()
        assert residual <= 1e-10 * np.abs(L.matrix).max()
        assert is_density_matrix(rho)


def test_null_space_dimensions():
    # one null direction: a unique state; nine (L = 0): no unique state
    for tag in ("lambda", "vee"):
        assert is_density_matrix(steady_state(build_liouvillian(reference_params(tag))))
    zero = Liouvillian(matrix=np.zeros((9, 9), dtype=complex), rate_scale=0.0)
    with pytest.raises(DegenerateNullSpaceError):
        steady_state(zero)


def test_singular_solve_guard():
    # a rank-8 "Liouvillian" whose null vector is traceless: the null-space
    # probe sees one null direction, but the trace constraint cannot pin it
    x = vectorize(np.diag([1.0, -1.0, 0.0]).astype(complex))
    x = x / np.linalg.norm(x)
    M = np.eye(9, dtype=complex) - np.outer(x, x.conj())
    with pytest.raises((SingularSolveError, DegenerateNullSpaceError)) as err:
        steady_state(Liouvillian(matrix=M, rate_scale=1.0))
    assert isinstance(err.value, SingularSolveError)


def test_evolve_reaches_steady_state_from_any_start(rng):
    # t_end = 50 / Gamma_min with the steady-state solver as oracle
    p = reference_params("lambda")
    L = build_liouvillian(p)
    target = steady_state(L)
    t_end = 50.0 / min(p.gamma_a, p.gamma_b)
    for rho0 in (np.eye(3, dtype=complex) / 3, random_state(rng)):
        traj = evolve(L, rho0, t_end=t_end, dt_max=0.1 / p.rate_scale)
        assert np.abs(traj.final - target).max() <= 1e-6
        assert is_density_matrix(traj.final)


@pytest.mark.parametrize("tag,t_end", [("cascade", 50.0 / 0.49), ("vee", 50.0 / 6.0)])
def test_evolve_converges_other_configs(tag, t_end):
    p = reference_params(tag)
    L = build_liouvillian(p)
    traj = evolve(L, np.eye(3, dtype=complex) / 3, t_end=t_end,
                  dt_max=0.1 / p.rate_scale)
    assert np.abs(traj.final - steady_state(L)).max() <= 1e-6


def test_evolve_from_steady_state_is_idempotent():
    p = reference_params("vee", delta_probe=3.0)
    L = build_liouvillian(p)
    rho_s = steady_state(L)
    traj = evolve(L, rho_s, t_end=20.0, dt_max=0.1 / p.rate_scale)
    for state in traj.states:
        assert np.abs(state - rho_s).max() <= 1e-8


def test_trace_conserved_along_trajectory():
    p = reference_params("lambda", delta_probe=2.0)
    L = build_liouvillian(p)
    traj = evolve(L, np.eye(3, dtype=complex) / 3, t_end=200.0,
                  dt_max=0.1 / p.rate_scale)
    assert np.array_equal(traj.times, np.sort(traj.times))
    assert len(set(traj.times.tolist())) == len(traj.times)
    for state in traj.states:
        assert abs(np.trace(state).real - 1.0) <= 1e-9
        assert abs(np.trace(state).imag) <= 1e-9
        assert is_density_matrix(state)


@pytest.mark.parametrize("t_end,step_factor,max_samples,ragged", [
    (2.0, 1, 2001, False),
    (3.0, 10, 2001, True),
    (30.0, 1, 2001, True),    # strides of 14 to 38
    (0.609, 1, 2001, False),  # cascade: n_steps * h != t_end
])
@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_strided_evolve_matches_step_loop(tag, t_end, step_factor,
                                          max_samples, ragged):
    # step_factor divides the stability bound; a ragged case must have a
    # step count that is not a multiple of the stride, so the last sample
    # takes a shorter power of phi; max_samples is evolve's fixed cap
    assert max_samples == MAX_SAMPLES
    p = reference_params(tag, delta_probe=2.5)
    L = build_liouvillian(p)
    rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    dt_max = 0.1 / p.rate_scale / step_factor
    times, states, n_steps, stride = step_loop(L, rho0, t_end, dt_max,
                                               max_samples)
    if ragged:
        assert n_steps % stride != 0
    traj = evolve(L, rho0, t_end=t_end, dt_max=dt_max)
    assert np.array_equal(traj.times, times)
    assert traj.times[-1] == t_end
    assert traj.states.shape == states.shape
    assert np.abs(traj.states - states).max() <= 1e-9
    trace = np.trace(traj.states, axis1=1, axis2=2)
    assert np.abs(trace - 1.0).max() <= 1e-9


def strided_recursion(L, rho0, t_end, dt_max):
    """evolve's strided recursion written out with lists: x = P @ x per
    sample, a ragged last sample by phi**tail, the list stacked once.  The
    bytewise reference for evolve's preallocated block.
    Returns (times, states, stride)."""
    n_steps = max(1, int(np.ceil(t_end / dt_max)))
    stride = max(1, -(-n_steps // (MAX_SAMPLES - 1)))
    h = t_end / n_steps
    phi = rk4_propagator(L, h)
    P = np.linalg.matrix_power(phi, stride)
    x = vectorize(rho0)
    times = [0.0]
    samples = [x]
    for k in range(stride, n_steps + 1, stride):
        x = P @ x
        times.append(t_end if k == n_steps else k * h)
        samples.append(x)
    if n_steps % stride:
        x = np.linalg.matrix_power(phi, n_steps % stride) @ x
        times.append(t_end)
        samples.append(x)
    return np.array(times), unvectorize(np.array(samples)), stride


@pytest.mark.parametrize("t_end,step_factor,rho0", [
    (2.0, 1, "upper"),
    (3.0, 10, "upper"),    # ragged
    (30.0, 1, "upper"),    # ragged, strides of 14 to 38
    (0.609, 1, "upper"),   # cascade: n_steps * h != t_end
    (0.5, 1, "upper"),     # stride 1 in every configuration
    (30.0, 1, "random"),   # a full-rank state with complex coherences
])
@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_evolve_is_the_strided_recursion_byte_for_byte(rng, tag, t_end,
                                                       step_factor, rho0):
    # the preallocated block and P.dot give the times, states, shape and
    # strides of the list recursion, to the bit
    p = reference_params(tag, delta_probe=2.5)
    L = build_liouvillian(p)
    rho0 = (random_state(rng) if rho0 == "random"
            else np.diag([0.0, 0.0, 1.0]).astype(complex))
    dt_max = 0.1 / p.rate_scale / step_factor
    times, states, stride = strided_recursion(L, rho0, t_end, dt_max)
    if t_end == 0.5:
        assert stride == 1
    traj = evolve(L, rho0, t_end=t_end, dt_max=dt_max)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.times[-1] == t_end
    assert traj.states.shape == states.shape
    assert traj.states.strides == states.strides
    assert traj.states.tobytes() == states.tobytes()


def test_evolve_step_is_matmul_bit_for_bit(rng):
    # evolve writes each sample by P.dot(x, row), out passed by position as
    # in its map over the rows, not by P @ x: numpy hands this (9, 9) @ (9,)
    # complex product to the same BLAS zgemv either way.  That the two agree
    # bit for bit, inf and NaN included, is a property of the BLAS build,
    # not a numpy guarantee: on a build where they differ this test names it
    propagators = []
    for tag in ("lambda", "cascade", "vee"):
        p = reference_params(tag, delta_probe=2.5)
        phi = rk4_propagator(build_liouvillian(p), 0.1 / p.rate_scale)
        propagators += [phi, np.linalg.matrix_power(phi, 105)]
    propagators.append(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    hostile = propagators[-1].copy()
    hostile[0, 0], hostile[4, 8] = np.inf, complex(np.nan, 1.0)
    propagators.append(hostile)
    vectors = [vectorize(random_state(rng)) for _ in range(8)]
    vectors.append(rng.normal(size=9) * 1e300 + 1j * rng.normal(size=9))
    for value in (np.inf, -np.inf, np.nan, complex(np.inf, -np.inf),
                  complex(1.0, np.nan)):
        x = vectorize(random_state(rng))
        x[int(rng.integers(9))] = value
        vectors.append(x)
    block = np.empty((2, 9), dtype=complex)  # rows as in evolve's block
    with np.errstate(all="ignore"):
        for P in propagators:
            for x in vectors:
                block[0] = x
                P.dot(block[0], block[1])
                assert block[1].tobytes() == (P @ x).tobytes()


def test_evolve_caps_the_steps_per_sample():
    # a stride of 1e6 steps is allowed, one more step per sample is not
    p = reference_params("lambda")
    L = build_liouvillian(p)
    rho0 = np.eye(3, dtype=complex) / 3
    dt_max = 2.0**-20  # a power of two: t_end / dt_max is exact
    traj = evolve(L, rho0, t_end=(MAX_SAMPLES - 1) * MAX_STRIDE * dt_max,
                  dt_max=dt_max)
    assert traj.times.size == MAX_SAMPLES
    assert abs(np.trace(traj.final) - 1.0) <= 1e-7
    with pytest.raises(ValueError, match="RK4 steps per recorded sample"):
        evolve(L, rho0, t_end=(MAX_SAMPLES - 1) * (MAX_STRIDE + 1) * dt_max,
               dt_max=dt_max)


def _non_finite_liouvillian(case):
    """(L, t_end) of a hostile case: decays at the float limit, whose L
    holds inf and NaN, at a stride of ~850,000 steps per sample, or the
    reference lambda L with one inf or NaN entry at stride 1."""
    if case in ("lambda", "cascade", "vee"):
        params = replace(reference_params(case), gamma_a=1e308,
                         gamma_b=1.7e308)
        return build_liouvillian(params), 1e-300
    L = build_liouvillian(reference_params("lambda"))
    matrix = L.matrix.copy()
    matrix[3, 5] = {"inf": np.inf, "nan": np.nan}[case]
    return replace(L, matrix=matrix), 1.0


@pytest.mark.parametrize("case", ["lambda", "cascade", "vee", "inf", "nan"])
def test_a_non_finite_liouvillian_is_not_integrated(monkeypatch, case):
    # its propagator's powers are NaN: evolve writes NaN rows without
    # forming them, at the recursion's times to the bit (the sign of a NaN
    # the recursion forms is not pinned)
    L, t_end = _non_finite_liouvillian(case)
    rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    dt_max = 0.1 / L.rate_scale
    with np.errstate(all="ignore"):
        times, states, stride = strided_recursion(L, rho0, t_end, dt_max)
    assert stride == (1 if case in ("inf", "nan") else 850_001)
    calls = Counter()
    matrix_power = np.linalg.matrix_power

    def counting(a, n):
        calls["matrix_power"] += 1
        return matrix_power(a, n)
    monkeypatch.setattr(np.linalg, "matrix_power", counting)
    traj = evolve(L, rho0, t_end=t_end, dt_max=dt_max)
    assert calls["matrix_power"] == 0
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.shape == states.shape
    assert traj.states[0].tobytes() == rho0.tobytes()
    for rows in (traj.states[1:], states[1:]):  # the recursion's are NaN too
        assert np.isnan(rows.real).all() and np.isnan(rows.imag).all()


def test_free_evolution_is_constant():
    zero = Liouvillian(matrix=np.zeros((9, 9), dtype=complex), rate_scale=0.0)
    rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
    traj = evolve(zero, rho0, t_end=10.0, dt_max=1.0)
    for state in traj.states:
        assert np.array_equal(state, rho0)


def test_step_bound_enforced():
    p = reference_params("lambda")  # rate scale 105 -> bound ~9.5e-4 us
    L = build_liouvillian(p)
    with pytest.raises(StepTooLargeError):
        evolve(L, np.eye(3, dtype=complex) / 3, t_end=1.0, dt_max=0.01)


def test_evolve_argument_validation():
    L = Liouvillian(matrix=np.zeros((9, 9), dtype=complex), rate_scale=0.0)
    with pytest.raises(ValueError):
        evolve(L, np.eye(3) / 3, t_end=-1.0, dt_max=0.1)
    with pytest.raises(ValueError):
        evolve(L, np.eye(3) / 3, t_end=1.0, dt_max=0.0)
    nan_state = np.eye(3) / 3
    nan_state[0, 0] = np.nan
    with pytest.raises(ValueError, match="rho0 must be finite"):
        evolve(L, nan_state, t_end=1.0, dt_max=0.1)
    # a vectorized state and a 2x2 matrix are not states of the 3 levels
    with pytest.raises(ValueError, match=r"rho0 must be a \(3, 3\) array, "
                                         r"got shape \(9,\)"):
        evolve(L, np.eye(3).reshape(9) / 3, t_end=1.0, dt_max=0.1)
    with pytest.raises(ValueError, match=r"rho0 must be a \(3, 3\) array, "
                                         r"got shape \(2, 2\)"):
        evolve(L, np.eye(2) / 2, t_end=1.0, dt_max=0.1)


def test_is_density_matrix_checks():
    assert is_density_matrix(np.eye(3) / 3)
    assert not is_density_matrix(np.eye(3))                      # trace 3
    assert not is_density_matrix(np.diag([1.5, -0.5, 0.0]))      # negative
    skew = np.eye(3, dtype=complex) / 3
    skew[0, 1] = 0.1
    assert not is_density_matrix(skew)                           # non-Hermitian
    # non-finite entries: NaN fails every comparison, and LAPACK rejects an
    # all-NaN matrix
    assert not is_density_matrix(np.diag([np.nan, 0.5, 0.5]))
    assert not is_density_matrix(np.full((3, 3), np.nan))
    assert not is_density_matrix(np.diag([np.inf, 0.5, 0.5]))


@pytest.mark.parametrize("delta_pump", [0.0, 1.7])
@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_grid_solve_matches_single_solves_bitwise(tag, delta_pump):
    # 601 detunings span three chunks of the batched solve, the last partial
    p = replace(reference_params(tag), delta_pump=delta_pump)
    deltas = np.linspace(-40.0, 40.0, 601)
    states = outcomes(solve_grid(p, deltas, "numeric"))
    assert len(states) == len(deltas)
    for d, rho in zip(deltas, states):
        L = build_liouvillian(replace(p, delta_probe=float(d)))
        assert np.array_equal(rho, steady_state(L))
        assert np.array_equal(rho, one_matrix_solve(L.matrix))


def test_steady_states_attributes_each_failure_to_its_matrix(linalg_calls):
    p = reference_params("vee", delta_probe=2.0)
    good = build_liouvillian(p).matrix
    undriven = build_liouvillian(SystemParams(Configuration.LAMBDA, 0.0, 0.0,
                                              gamma_a=0.1, gamma_b=6.0)).matrix
    x = vectorize(np.diag([1.0, -1.0, 0.0]).astype(complex)) / np.sqrt(2.0)
    rank8 = np.eye(9, dtype=complex) - np.outer(x, x.conj())
    broken = good.copy()
    broken[3, 5] = np.nan
    out = outcomes(steady_states(np.stack([good, undriven, rank8, broken, good])))
    # one inverse of the bordered stack proves and solves the good matrices;
    # the two finite failures get the bordered matrix's condition number,
    # then L's SVD, each in one call; nothing is solved a second time
    assert call_shapes(linalg_calls) == [
        ("inv", (5, 9, 9)), ("cond", (2, 9, 9)), ("svd", (2, 9, 9))]
    assert np.array_equal(out[0], steady_state(build_liouvillian(p)))
    assert np.array_equal(out[4], out[0])
    assert isinstance(out[1], DegenerateNullSpaceError)
    assert isinstance(out[2], SingularSolveError)
    assert isinstance(out[3], SingularSolveError)
    assert "non-finite" in str(out[3])
    # each error is the one the one-matrix call raises
    for M, err in zip((undriven, rank8, broken), out[1:4]):
        with pytest.raises(type(err)) as single:
            steady_state(Liouvillian(M, rate_scale=1.0))
        assert str(single.value) == str(err)


@pytest.mark.parametrize("points", [11, 601])
def test_grid_solve_mixes_solved_and_failed_points_in_one_chunk(points):
    # with decays of 1e-8 the null-space probe resolves the steady state
    # only near resonance; far detunings read as degenerate.  At 601 points
    # the solved run straddles the first chunk boundary and all three chunks
    # hold failures, so each chunk's failure indices must be offset by the
    # chunk's start
    p = SystemParams(Configuration.CASCADE, 1.0, 1.0, gamma_a=1e-8, gamma_b=1e-8)
    deltas = np.linspace(-1e3, 1e3, points)
    block, failures = solve_grid(p, deltas, "numeric")
    states = outcomes((block, failures))
    solved = [i for i, r in enumerate(states) if not isinstance(r, Exception)]
    assert all(isinstance(r, DegenerateNullSpaceError)
               for r in states if isinstance(r, Exception))
    # each point's outcome is the one-point solve's, at its own index
    for d, got in zip(deltas, states):
        L = build_liouvillian(replace(p, delta_probe=float(d)))
        if isinstance(got, Exception):
            with pytest.raises(DegenerateNullSpaceError,
                               match=f"^{re.escape(str(got))}$"):
                steady_state(L)
        else:
            assert np.array_equal(got, steady_state(L))
    if points == 11:
        assert solved == [5]
        assert np.array_equal(states[5], steady_state(build_liouvillian(p)))
    else:
        assert solved[0] < 256 <= solved[-1]
        assert {i // 256 for i, _ in failures} == {0, 1, 2}


def match_oracle(stack, out):
    """Each outcome of ``out = steady_states(stack)`` is the oracle's state
    bit for bit, or its error by type and message; returns the oracle's
    outcomes."""
    refs = []
    for Mi, got in zip(stack, outcomes(out)):
        try:
            ref = one_matrix_solve(Mi)
            assert np.array_equal(got, ref)
        except ValueError as exc:
            ref = exc
            assert type(got) is type(ref)
            assert str(got) == str(ref)
        refs.append(ref)
    return refs


@pytest.mark.parametrize("lo,hi", [(1e-5, 1e5), (1e-12, 1e-8)])
def test_stiff_stacks_match_the_two_svd_oracle(lo, hi, linalg_calls):
    # the batched solve decides both checks from one inverse where it can
    # prove them, else from the bordered matrix's condition number and L's
    # SVD; the oracle from the two SVDs: states bit for bit, errors by type
    # and message; tiny rates put the condition number near COND_LIMIT,
    # where the SVD's rounding is largest
    outcomes = Counter()
    for M in stiff_stacks(7, lo, hi):
        linalg_calls.clear()
        out = steady_states(M)
        # one inverse of the stack, then the 2-norm condition number and
        # L's SVD of the matrices the proof left, and no solve
        calls = [(name, len(a)) for name, a, args in linalg_calls]
        assert calls[0] == ("inv", len(M))
        assert [name for name, _ in calls] in (["inv"], ["inv", "cond", "svd"])
        fallback = [B for name, a, args in linalg_calls
                    if name == "cond" and not args for B in a]
        for Mi, ref in zip(M, match_oracle(M, out)):
            path = ("fallback" if any(np.array_equal(bordered(Mi), B)
                                      for B in fallback) else "proof")
            outcomes[path] += 1
            outcomes[path, type(ref).__name__] += 1
            cond = np.linalg.cond(bordered(Mi))
            near = COND_LIMIT / 100 <= cond <= COND_LIMIT * 100
            outcomes[type(ref).__name__, near] += 1
            kappa = np.linalg.cond(bordered(Mi), "fro")
            outcomes["kappa_F within the margin", kappa <= 1e-2 * COND_LIMIT] += 1
    # both draws reach degenerate points, and the tiny rates solved and
    # failed points within a factor 100 of the condition limit
    assert outcomes["ndarray", False] > 0
    assert outcomes["DegenerateNullSpaceError", False] > 0
    if lo < 1e-8:
        assert outcomes["ndarray", True] > 0
        assert outcomes["SingularSolveError", True] > 0
    # kappa_F falls on both sides of 1e-2 * COND_LIMIT, and both the proof
    # and the SVD fallback decide points
    assert outcomes["kappa_F within the margin", True] > 0
    assert outcomes["kappa_F within the margin", False] > 0
    assert outcomes["proof"] > 0
    assert outcomes["fallback"] > 0
    # the stiff matrices that pass without the proof are solved after both
    # SVDs, to the oracle's bits
    assert outcomes["fallback", "ndarray"] > 0


def unitary_with(rng, first):
    """A random unitary 9x9 matrix whose first column is the unit vector
    ``first``."""
    z = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    z[:, 0] = first
    q = np.linalg.qr(z)[0]
    q[:, 0] = first  # QR leaves it up to a sign
    return q


def test_condition_limit_is_decided_by_the_svd():
    # L whose bordered matrix B has sigma = sqrt(3) (the trace row), seven
    # at 1e-6 and one at sqrt(3) / c, for c within 1% of COND_LIMIT: kappa_F
    # equals c to 1e-6, the SVD's cond only to about 1e-2, so they fall on
    # different sides of the limit on some points.  The decision is the
    # SVD's; a proof that admitted kappa_F up to COND_LIMIT would solve
    # points the oracle rejects
    rng = np.random.default_rng(0)
    row = DIAGONAL_VEC_INDICES[-1]
    targets = COND_LIMIT * np.linspace(0.99, 1.01, 200)
    stack = []
    for c in targets:
        sigma = np.full(9, 1e-6)
        sigma[0], sigma[-1] = np.sqrt(3.0), np.sqrt(3.0) / c
        V = unitary_with(rng, TRACE_ROW.real / np.sqrt(3.0))
        W = unitary_with(rng, np.eye(9)[row])
        L = (W * sigma) @ V.conj().T
        L[row] = 0.0  # the trace row of B, not part of L
        stack.append(L)
    stack = np.stack(stack)
    refs = match_oracle(stack, steady_states(stack))
    outcomes = Counter(type(r).__name__ for r in refs)
    assert outcomes["ndarray"] > 0 and outcomes["SingularSolveError"] > 0
    kappa = np.array([np.linalg.cond(bordered(L), "fro") for L in stack])
    cond = np.array([np.linalg.cond(bordered(L)) for L in stack])
    assert np.allclose(kappa, targets, rtol=1e-6, atol=0)
    assert ((kappa <= COND_LIMIT) & (cond > COND_LIMIT)).any()


def test_singular_and_non_finite_matrices_leave_the_proof_to_the_rest(linalg_calls):
    # the undriven lambda system's bordered matrix is exactly singular
    # (np.linalg.inv raises for it), so its kappa_F reads inf; a non-finite
    # L has none; the good matrices beside them in the stack keep the proof
    good = [build_liouvillian(reference_params(tag, delta_probe=2.0)).matrix
            for tag in ("lambda", "cascade", "vee")]
    singular = build_liouvillian(SystemParams(Configuration.LAMBDA, 0.0, 0.0,
                                              gamma_a=0.1, gamma_b=6.0)).matrix
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(bordered(singular))
    not_a_number = good[0].copy()
    not_a_number[3, 5] = np.nan
    infinite = good[1].copy()
    infinite[0, 0] = np.inf
    stack = np.stack([good[0], singular, not_a_number, good[1], infinite,
                      good[2]])
    linalg_calls.clear()
    out = steady_states(stack)
    # one inverse of the stack; only the singular matrix gets the bordered
    # matrix's condition number, then L's SVD
    assert call_shapes(linalg_calls) == [
        ("inv", (6, 9, 9)), ("cond", (1, 9, 9)), ("svd", (1, 9, 9))]
    refs = match_oracle(stack, out)
    assert [type(r).__name__ for r in refs] == [
        "ndarray", "DegenerateNullSpaceError", "SingularSolveError",
        "ndarray", "SingularSolveError", "ndarray"]


def test_tiny_rates_degenerate_null_space_is_found():
    # rates near 1e-11 make sigma_9 of the bordered matrix a rounding-level
    # 4e-19, far above NULL_TOL * ||L||_F: only L's own SVD, not the
    # condition number, can tell this null space is two-dimensional
    p = SystemParams(Configuration.CASCADE, 0.0, 1.5105967702649054e-12,
                     gamma_a=0.0, gamma_b=1.7069283734733226e-11)
    L = build_liouvillian(p)
    assert np.linalg.cond(bordered(L.matrix)) > COND_LIMIT
    with pytest.raises(DegenerateNullSpaceError):
        one_matrix_solve(L.matrix)
    with pytest.raises(DegenerateNullSpaceError):
        steady_state(L)


@pytest.mark.xfail(strict=True, raises=DegenerateNullSpaceError,
                   reason="ROADMAP item 6: NULL_TOL compares L's raw singular "
                          "values, so this stiff system with a unique state "
                          "reads as degenerate")
@pytest.mark.parametrize("config", list(Configuration))
def test_stiff_system_with_a_unique_state_is_solved(config):
    # the byte guard's stiff system (g = 1, decays 1e-8) at delta 500: the
    # exact state is unique, and the closed forms match it to 1e-16
    p = SystemParams(config, 1.0, 1.0, gamma_a=1e-8, gamma_b=1e-8,
                     delta_probe=500.0)
    rho = steady_state(build_liouvillian(p))
    exact = exact_state(p)
    err = max(r.distance(complex(rho[LEVEL_INDEX[k], LEVEL_INDEX[l]]))
              for (k, l), r in exact.items())
    assert err <= 1e-9


@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_grid_solve_makes_one_inverse_per_chunk(tag, linalg_calls):
    # one inverse proves both checks on every point of the reference grids
    # and gives the states: neither the bordered matrix's SVD nor L's is
    # needed, nor a solve
    solve_grid(reference_params(tag), np.linspace(-40.0, 40.0, 601), "numeric")
    assert call_shapes(linalg_calls) == [
        ("inv", (256, 9, 9)), ("inv", (256, 9, 9)), ("inv", (89, 9, 9))]


def test_kappa_f_and_the_state_are_cond_and_solve_bit_for_bit():
    # steady_states reads kappa_F and the state from numpy's private stacked
    # inverse, the one np.linalg.cond(B, "fro") forms.  Its kappa_F is
    # cond's wherever cond's is finite, and the trace-row column of the
    # inverse is np.linalg.solve's solution of B x = e_8, bit for bit.  The
    # second equality is a property of the LAPACK build (the inverse is the
    # same LU solve with the identity as right-hand side), not a numpy
    # guarantee: on a build where it fails this test names it
    row = DIAGONAL_VEC_INDICES[-1]
    e_8 = np.eye(9, dtype=complex)[row]
    grids = [build_liouvillian_stack(reference_params(tag),
                                     np.linspace(-40.0, 40.0, 2001))
             for tag in ("lambda", "cascade", "vee")]
    seen = Counter()
    for M in [*stiff_stacks(7, 1e-5, 1e5), *stiff_stacks(7, 1e-12, 1e-8),
              *grids]:
        B = np.stack([bordered(Mi) for Mi in M])
        with np.errstate(all="ignore"):
            inverse, kappa, norm = _kappa_f(B)
        cond = np.linalg.cond(B, "fro")
        finite = np.isfinite(cond)
        assert kappa[finite].tobytes() == cond[finite].tobytes()
        assert not np.isfinite(kappa[~finite]).any()
        assert norm.tobytes() == np.linalg.norm(B, axis=(1, 2)).tobytes()
        solvable = np.isfinite(inverse).all(axis=(1, 2))
        x = np.linalg.solve(B[solvable], e_8)
        assert inverse[solvable][:, :, row].tobytes() == x.tobytes()
        for Bi in B[~solvable]:  # LAPACK's NaN inverse: an exactly singular B
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(Bi, e_8)
        seen["finite"] += finite.sum()
        seen["singular"] += (~solvable).sum()
    assert seen["finite"] > 8000 and seen["singular"] > 0


def test_a_numpy_without_the_stacked_inverse_fails_at_import(monkeypatch):
    spec = importlib.util.spec_from_file_location("eit3.steady_without_inv",
                                                  eit3.steady.__file__)
    monkeypatch.delattr(_umath_linalg, "inv")
    with pytest.raises(ImportError, match=r"numpy\.linalg\._umath_linalg\.inv"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def composed_analytic(p, d):
    """The closed-form state at one detuning composed from the public
    pieces: ``steady_state_terms`` of the replaced parameters, then Python's
    complex division entry by entry; or the error that point fails with."""
    try:
        D, *numerators = steady_state_terms(replace(p, delta_probe=float(d)))
    except (ValueError, ZeroDivisionError) as exc:
        return exc
    r11, r22, r33, r12, r13, r23 = (complex(n) / D for n in numerators)
    return np.array([[r33, r23.conjugate(), r13.conjugate()],
                     [r23, r22, r12.conjugate()],
                     [r13, r12, r11]])


def same_outcome(got, expected):
    """Bit-identical states, or the same error type and message."""
    if isinstance(expected, Exception):
        return type(got) is type(expected) and str(got) == str(expected)
    return isinstance(got, np.ndarray) and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("delta_pump", [0.0, 1.7])
@pytest.mark.parametrize("grid", ["reference", "wide", "nan"])
@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_analytic_grid_matches_the_per_point_composition(tag, grid, delta_pump):
    # the wide grid mixes overflowing, degenerate and solved points, each
    # error quoting its own point's rate scale
    deltas = {"reference": np.linspace(-40.0, 40.0, 2001),
              "wide": np.linspace(-1e77, 1e77, 2001),
              "nan": [np.nan, 1.0]}[grid]
    p = replace(reference_params(tag), delta_pump=delta_pump)
    if grid == "nan":  # the one-point call's ValueError, on both backends
        expected = composed_analytic(p, np.nan)
        assert type(expected) is ValueError
        for backend in ("numeric", "analytic"):
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected))}$"):
                solve_grid(p, deltas, backend)
        return
    block, failures = solve_grid(p, deltas, "analytic")
    states = outcomes((block, failures))
    assert len(states) == len(deltas)
    for d, rho in zip(deltas, states):
        assert same_outcome(rho, composed_analytic(p, d)), d
    if grid == "wide" and delta_pump == 0.0:
        assert {type(rho).__name__ for rho in states} == {"ndarray", "ClosedFormOverflowError",
                              "DegenerateDenominatorError"}
    # the solved points are rows of one block
    solved = [rho for rho in states if isinstance(rho, np.ndarray)]
    assert all(rho.base is not None and np.shares_memory(rho, block)
               for rho in solved)


# detunings that the closed forms solve (0.0, -0.0, +-1e-300, +-5e-324),
# overflow (+-1e77) or find degenerate (+-1e60: |D| below the floor)
ADVERSARIAL_DELTAS = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324,
                      1e77, -1e77, 1e60, -1e60]


@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_analytic_grid_pass_matches_the_per_point_composition(tag, monkeypatch):
    # on both sides of the size from which the terms are evaluated once over
    # the grid (one slice up to _GRID_CHUNK points): every state, error type
    # and message of the grid is the one-point composition's, bit for bit
    passes = []
    original = eit3.analytic._grid_pass
    monkeypatch.setattr(eit3.analytic, "_grid_pass",
                        lambda *args: passes.append(1) or original(*args))
    # (the 2001-point grid over +-1e77 is the wide grid of the test above)
    p = reference_params(tag)
    for n in (_GRID_PASS_POINTS - 1, _GRID_PASS_POINTS, 2001):
        passes.clear()
        deltas = np.concatenate([
            ADVERSARIAL_DELTAS, np.linspace(-40.0, 40.0, n - len(ADVERSARIAL_DELTAS))])
        states = outcomes(solve_grid(p, deltas, "analytic"))
        assert len(passes) == (n >= _GRID_PASS_POINTS)
        for d, rho in zip(deltas, states):
            assert same_outcome(rho, composed_analytic(p, d)), (n, d)
        assert {type(rho).__name__ for rho in states} == {
            "ndarray", "ClosedFormOverflowError", "DegenerateDenominatorError"}


@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_analytic_grid_bytes_do_not_depend_on_the_chunk_size(tag, monkeypatch):
    # the grid pass runs on slices of _GRID_CHUNK points and offsets the
    # indices it leaves to the per-point loop; adversarial detunings are
    # spread over the grid and sit on both sides of the default boundary
    chunk = eit3.analytic._GRID_CHUNK
    deltas = np.linspace(-40.0, 40.0, chunk + 11)
    for k, d in enumerate(ADVERSARIAL_DELTAS):
        deltas[k * 211] = deltas[chunk - 5 + k] = d
    p = reference_params(tag)
    passes = []
    original = eit3.analytic._grid_pass
    monkeypatch.setattr(eit3.analytic, "_grid_pass",
                        lambda *args: passes.append(1) or original(*args))
    results = set()
    for size in (1, 7, chunk):
        passes.clear()
        monkeypatch.setattr(eit3.analytic, "_GRID_CHUNK", size)
        block, failures = solve_grid(p, deltas, "analytic")
        assert len(passes) == -(-len(deltas) // size)
        assert {type(e).__name__ for _, e in failures} == {
            "ClosedFormOverflowError", "DegenerateDenominatorError"}
        results.add((block.tobytes(),
                     tuple((i, type(e), str(e)) for i, e in failures)))
    assert len(results) == 1


def test_analytic_grid_pass_matches_on_random_rates():
    # rates log-uniform over 1e-6..1e6 with 5% exact zeros, 64 detunings each
    rng = np.random.default_rng(19)
    configs = list(Configuration)
    for k in range(99):
        rates = 10.0 ** rng.uniform(-6.0, 6.0, 4) * (rng.random(4) >= 0.05)
        p = SystemParams(configs[k % 3], *rates.tolist())
        deltas = rng.choice([-1.0, 1.0], 64) * 10.0 ** rng.uniform(-6.0, 6.0, 64)
        for d, rho in zip(deltas, outcomes(solve_grid(p, deltas, "analytic"))):
            assert same_outcome(rho, composed_analytic(p, d)), (p, d)


@pytest.mark.parametrize("tag", ["lambda", "cascade", "vee"])
def test_analytic_grid_floor_decision_where_the_array_test_defers(tag, monkeypatch):
    # the grid pass keeps a point by one array comparison only when
    # |D|**(1/deg) clears the floor by a relative 1e-9; the others retake
    # the test in Python floats.  With the floor at the median of the
    # grid's ratios |D|**(1/deg) / max(scale, |d|) (about half the points
    # fail), at one point's own ratio and one ulp either side of it, every
    # state, error and message is the one-point composition's, which reads
    # the patched floor too
    p = reference_params(tag)
    deltas = np.linspace(-40.0, 40.0, 2001)
    root = 1 / eit3.analytic._DEGREE[p.config]
    scale = max(p.g_probe, p.g_pump, p.gamma_a, p.gamma_b)
    ratios = [abs(steady_state_terms(replace(p, delta_probe=d))[0]) ** root
              / max(scale, abs(d)) for d in deltas.tolist()]
    own = ratios[700]
    floors = {"median": sorted(ratios)[len(ratios) // 2], "own": own,
              "below": math.nextafter(own, 0.0),
              "above": math.nextafter(own, math.inf)}
    for name, floor in floors.items():
        monkeypatch.setitem(eit3.analytic._FLOOR_ROOT, p.config, floor)
        states = outcomes(solve_grid(p, deltas, "analytic"))
        for d, rho in zip(deltas, states):
            assert same_outcome(rho, composed_analytic(p, d)), (name, d)
        failed = [isinstance(rho, DegenerateDenominatorError) for rho in states]
        if name == "median":
            assert 0.4 < sum(failed) / len(failed) < 0.6
        if name == "above":  # floor * max(scale, |d|) >= |D|**(1/deg) there
            assert failed[700]


@pytest.mark.parametrize("rates", [
    (1e60, 1e60, 6.0, 6.0), (1e52, 1.0, 1.0, 1.0), (1.0, 1e60, 1.0, 1.0),
    (1.0, 1.0, 1e60, 1e60), (1e40, 1e40, 1.0, 1.0), (1e30, 1e30, 1e30, 1e30)])
@pytest.mark.parametrize("config", list(Configuration))
def test_analytic_grid_pass_matches_on_huge_rates(config, rates):
    # a power of the rates alone raises OverflowError where a Python float
    # passes 1e308 (lambda and cascade from g_probe = 1e52, vee from
    # g_pump = 1e60): every point fails as in the one-point call
    p = SystemParams(config, *rates)
    for n in (_GRID_PASS_POINTS, 257):
        deltas = np.concatenate([
            ADVERSARIAL_DELTAS, np.linspace(-1e3, 1e3, n - len(ADVERSARIAL_DELTAS))])
        for d, rho in zip(deltas, outcomes(solve_grid(p, deltas, "analytic"))):
            assert same_outcome(rho, composed_analytic(p, d)), (n, d)

def test_failed_rows_are_nan_in_both_parts():
    # not nan+0j: the CSV writer prints alpha and im_coh of a failed row
    undriven = SystemParams(Configuration.LAMBDA, 0.0, 0.0, gamma_a=0.1,
                            gamma_b=6.0)
    good = reference_params("lambda")
    stack = build_liouvillian_stack(good, [-1.0, 0.0, 1.0])
    stack[1] = build_liouvillian(undriven).matrix
    results = {"steady_states": steady_states(stack)}
    for backend in ("numeric", "analytic"):
        results[backend] = solve_grid(undriven, [-1.0, 0.0, 1.0], backend)
    for name, (block, failures) in results.items():
        failed = [i for i, _ in failures]
        assert failed == ([1] if name == "steady_states" else [0, 1, 2]), name
        assert np.isnan(block[failed].real).all(), name
        assert np.isnan(block[failed].imag).all(), name


@pytest.mark.parametrize("p", [
    reference_params("lambda", delta_probe=2.5),
    reference_params("cascade", delta_probe=-7.0),
    reference_params("vee", delta_probe=0.0),
    replace(reference_params("vee"), delta_pump=1.7),
    SystemParams(Configuration.LAMBDA, 1e60, 1.0, 1.0, 1.0),
    SystemParams(Configuration.CASCADE, 0.0, 0.0, 1.0, 1.0, delta_probe=3.0),
], ids=["lambda", "cascade", "vee", "pump-detuned", "overflow", "degenerate"])
def test_analytic_steady_state_is_the_one_point_grid(p):
    [expected] = outcomes(solve_grid(p, [p.delta_probe], "analytic"))
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            analytic_steady_state(p)
    else:
        assert analytic_steady_state(p).tobytes() == expected.tobytes()
    assert same_outcome(expected, composed_analytic(p, p.delta_probe))
