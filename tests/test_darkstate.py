"""Resonance populations, mixing angles, dark-state construction and
kernel check."""

import numpy as np
import pytest

from conftest import outcomes

from eit3.darkstate import (
    UndefinedAngleError,
    UnsupportedConfigurationError,
    dark_state_vector,
    estimate_mixing_angle,
    verify_dark_state,
)
from eit3.model import Configuration, SystemParams
from eit3.presets import reference_params
from eit3.steady import solve_grid


def populations(params, deltas, backend="analytic"):
    """(rho11, rho22, rho33) at each probe detuning, from solve_grid."""
    return [(float(rho[2, 2].real), float(rho[1, 1].real), float(rho[0, 0].real))
            for rho in outcomes(solve_grid(params, deltas, backend))]


def resonance_populations(tag, backend="analytic"):
    [pops] = populations(reference_params(tag), [0.0], backend)
    return pops


def test_lambda_resonance_population_trapping():
    r11, r22, r33 = resonance_populations("lambda")
    assert r11 >= 0.99
    assert r22 <= 0.01
    assert abs(r33) <= 1e-9


def test_cascade_resonance_ground_occupation():
    r11, _, _ = resonance_populations("cascade")
    assert r11 >= 0.95


def test_vee_resonance_pump_saturation():
    # the strong 1<->2 pump shares the population between the ground and
    # middle levels; the upper level stays nearly empty (values frozen from
    # the closed forms, confirmed by the numeric solver)
    r11, r22, r33 = resonance_populations("vee")
    assert abs(r11 - 0.500323) <= 1e-5
    assert abs(r22 - 0.498878) <= 1e-5
    assert abs(r33 - 0.000800) <= 1e-5
    num = resonance_populations("vee", backend="numeric")
    assert np.abs(np.array(num) - np.array((r11, r22, r33))).max() <= 1e-10


def test_lambda_population_curves_even_in_detuning():
    deltas = np.linspace(-25.0, 25.0, 51)
    assert np.array_equal(deltas, -deltas[::-1])
    rows = populations(reference_params("lambda"), deltas)
    for row_a, row_b in zip(rows, reversed(rows)):
        for a, b in zip(row_a, row_b):
            assert abs(a - b) <= 1e-12


def test_mixing_angle_round_trip():
    # ideal populations (cos^2, sin^2) recover theta for every configuration
    for config in Configuration:
        for theta in np.linspace(0.0, np.pi / 2, 25):
            vec = dark_state_vector(float(theta), config)
            pops = [abs(vec[2])**2, abs(vec[1])**2, abs(vec[0])**2]
            estimate = estimate_mixing_angle(tuple(pops), config)
            assert abs(estimate - theta) <= 1e-12
            assert 0.0 <= estimate <= np.pi / 2


def test_lambda_resonance_angle_small():
    theta = estimate_mixing_angle(resonance_populations("lambda"),
                                  Configuration.LAMBDA)
    assert theta <= 0.05


def test_vee_resonance_angle():
    # with the upper level nearly empty the dark pair (|2>,|3>) angle is
    # small, not maximal (frozen from the closed forms)
    theta = estimate_mixing_angle(resonance_populations("vee"),
                                  Configuration.VEE)
    assert abs(theta - 0.040014) <= 1e-4


def test_symmetric_vee_pair_gives_quarter_pi():
    theta = estimate_mixing_angle((0.0, 0.5, 0.5), Configuration.VEE)
    assert theta == np.pi / 4
    expected = np.zeros(3, dtype=complex)
    expected[1] = np.cos(np.pi / 4)
    expected[0] = -np.sin(np.pi / 4)
    assert np.abs(dark_state_vector(theta, Configuration.VEE) - expected).max() <= 1e-15


def test_coupling_ratio_law():
    # at resonance the estimated angle tracks atan(g_probe / g_pump)
    base = reference_params("lambda")
    for g_probe in np.linspace(0.1, 5.0, 25):
        p = SystemParams(Configuration.LAMBDA, float(g_probe), base.g_pump,
                         base.gamma_a, base.gamma_b)
        [pops] = populations(p, [0.0])
        theta = estimate_mixing_angle(pops, Configuration.LAMBDA)
        assert abs(theta - np.arctan(g_probe / base.g_pump)) <= 0.02


def test_dark_state_vectors():
    ket1 = np.array([0.0, 0.0, 1.0], dtype=complex)
    assert np.array_equal(dark_state_vector(0.0, Configuration.LAMBDA), ket1)
    assert np.array_equal(dark_state_vector(0.0, Configuration.CASCADE), ket1)
    vee = dark_state_vector(np.pi / 4, Configuration.VEE)
    expected = np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert np.abs(vee - expected).max() <= 1e-15
    for config in Configuration:
        for theta in (0.0, 0.3, np.pi / 2):
            assert abs(np.linalg.norm(dark_state_vector(theta, config)) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        dark_state_vector(-0.1, Configuration.LAMBDA)
    with pytest.raises(ValueError):
        dark_state_vector(2.0, Configuration.LAMBDA)


@pytest.mark.parametrize("config", ["lambda", None, 0])
def test_dark_pair_of_what_is_no_configuration(config):
    # the message of SystemParams, not a raw KeyError
    message = f"^config must be a Configuration, got {config!r}$"
    with pytest.raises(ValueError, match=message):
        estimate_mixing_angle((0.5, 0.5, 0.0), config)
    with pytest.raises(ValueError, match=message):
        dark_state_vector(0.3, config)


def test_undefined_angle():
    with pytest.raises(UndefinedAngleError):
        estimate_mixing_angle((1e-7, 1e-8, 1.0 - 1e-7 - 1e-8),
                              Configuration.LAMBDA)
    with pytest.raises(ValueError):
        estimate_mixing_angle((0.5, 0.2, 0.2), Configuration.LAMBDA)
    # a NaN sum is not "more than 1e-6 from 1", and inf - inf is NaN
    for pops in ((np.nan, 0.5, 0.5), (np.inf, 0.5, -np.inf)):
        with pytest.raises(ValueError, match="populations must sum to 1, got nan"):
            estimate_mixing_angle(pops, Configuration.LAMBDA)


def test_verify_dark_state_lambda():
    p = reference_params("lambda")
    assert verify_dark_state(p) <= 1e-12 * p.g_pump


def test_verify_dark_state_symmetric_couplings():
    # cancellation exact up to the one-ulp cos/sin difference at pi/4
    p = SystemParams(Configuration.LAMBDA, 3.0, 3.0, gamma_a=0.1, gamma_b=6.0)
    assert verify_dark_state(p) <= 1e-15 * p.g_pump


def test_verify_dark_state_restrictions():
    with pytest.raises(UnsupportedConfigurationError):
        verify_dark_state(reference_params("cascade"))
    with pytest.raises(UnsupportedConfigurationError):
        verify_dark_state(reference_params("vee"))
    with pytest.raises(ValueError):
        verify_dark_state(reference_params("lambda", delta_probe=1.0))
