"""Property tests over random systems: valid states, stationarity under the
longhand optical Bloch equations, unit-free solves and backend agreement.

Rates (both couplings and both decays) are drawn log-uniform; the probe
detuning is f * g_pump with f in [-2, 2], which includes the pump
resonances f = +-1.  The numeric properties run over rates in 1e-4..1e4
with the pump detuned or not.  The closed forms are compared over rates in
1e-2..1e2 only: near f = +-1 they lose about eps * (g_pump / g_probe)**4 to
cancellation, which reaches 1e-1 in the wider box
(``test_closed_forms_lose_precision_at_the_pump_resonance``).
"""

import numpy as np
import pytest

from conftest import outcomes

from eit3.model import Configuration, SystemParams, build_liouvillian, obe_rhs
from eit3.steady import DegenerateNullSpaceError, is_density_matrix, solve_grid

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

EPS = np.finfo(float).eps
# max|obe_rhs(rho)| / rate_scale of a numeric state; measured <= 8.4 eps
RESIDUAL_TOL = 1e-13
# forward error of a numeric state in units of eps / (sigma_8 / sigma_max)
# of its Liouvillian, the relative gap above the null space; measured <= 2.2
GAP_ERROR_FACTOR = 16
# closed-form error on rates in 1e-2..1e2; measured <= 3.0e-9
CLOSED_FORM_TOL = 1e-7

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                             database=None)


@st.composite
def systems(draw, config, decades, pump_detuned):
    g_probe, g_pump, gamma_a, gamma_b = (
        10.0 ** draw(st.floats(-decades, decades)) for _ in range(4))
    delta_probe = draw(st.floats(-2.0, 2.0)) * g_pump
    delta_pump = draw(st.floats(-2.0, 2.0)) * g_pump if pump_detuned else 0.0
    return SystemParams(config, g_probe, g_pump, gamma_a, gamma_b,
                        delta_probe=delta_probe, delta_pump=delta_pump)


def solve(params, backend):
    """The state of ``params``; a draw the numeric solve reports as a
    degenerate null space is discarded.  Not every such refusal is right:
    a stiff system can have a unique state and still read as degenerate
    (ROADMAP item 6, pinned by a strict xfail in test_steady.py), so these
    properties do not cover such draws."""
    [rho] = outcomes(solve_grid(params, [params.delta_probe], backend))
    assume(not isinstance(rho, DegenerateNullSpaceError))
    if isinstance(rho, Exception):
        raise rho
    return rho


def gap_error(params):
    """eps over the relative gap of the Liouvillian's null space."""
    sv = np.linalg.svd(build_liouvillian(params).matrix, compute_uv=False)
    return EPS * sv[0] / sv[-2]


def scaled(params, k):
    s = 2.0 ** k  # exact: every rate keeps its mantissa
    return SystemParams(params.config, params.g_probe * s, params.g_pump * s,
                        params.gamma_a * s, params.gamma_b * s,
                        delta_probe=params.delta_probe * s,
                        delta_pump=params.delta_pump * s)


@pytest.mark.parametrize("config", list(Configuration))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_numeric_states_are_valid_and_stationary(config, data):
    p = data.draw(systems(config, 4, pump_detuned=data.draw(st.booleans())))
    rho = solve(p, "numeric")
    assert is_density_matrix(rho)
    assert np.abs(obe_rhs(p, rho)).max() <= RESIDUAL_TOL * p.rate_scale


@pytest.mark.parametrize("config", list(Configuration))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_numeric_states_are_unit_free(config, data):
    p = data.draw(systems(config, 4, pump_detuned=data.draw(st.booleans())))
    k = data.draw(st.integers(-10, 10))
    rho = solve(p, "numeric")
    rho_scaled = solve(scaled(p, k), "numeric")
    assert np.abs(rho_scaled - rho).max() <= GAP_ERROR_FACTOR * gap_error(p)


@pytest.mark.parametrize("config", list(Configuration))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_closed_forms_agree_with_the_numeric_solve(config, data):
    p = data.draw(systems(config, 2, pump_detuned=False))
    k = data.draw(st.integers(-10, 10))
    numeric = solve(p, "numeric")
    analytic = solve(p, "analytic")
    tol = CLOSED_FORM_TOL + GAP_ERROR_FACTOR * gap_error(p)
    assert np.abs(analytic - numeric).max() <= tol
    assert np.abs(solve(scaled(p, k), "analytic") - analytic).max() <= CLOSED_FORM_TOL


# rates 1e4 and 1e-4 in MHz, probe detuned onto the pump resonance; the
# closed forms miss the state by 8e-2, 1.6e-3 and 8e-3, the numeric solve by
# at most 2e-10 (both against the exact state of exact_oracle.exact_state)
PUMP_RESONANCE_CORNERS = [
    SystemParams(Configuration.LAMBDA, 1e-4, 1e4, 1e-4, 1e-4, delta_probe=1e4),
    SystemParams(Configuration.CASCADE, 1e-3, 1e4, 1e-4, 1e-4, delta_probe=1e4),
    SystemParams(Configuration.VEE, 1e-4, 1e4, 1e-4, 1e-4, delta_probe=1e4 * (1 + 1e-7)),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the closed forms have no guard against cancellation "
                   "near the pump resonance")
@pytest.mark.parametrize("p", PUMP_RESONANCE_CORNERS, ids=lambda p: p.config.value)
def test_closed_forms_lose_precision_at_the_pump_resonance(p):
    [numeric] = outcomes(solve_grid(p, [p.delta_probe], "numeric"))
    [analytic] = outcomes(solve_grid(p, [p.delta_probe], "analytic"))
    assert np.abs(analytic - numeric).max() <= CLOSED_FORM_TOL
