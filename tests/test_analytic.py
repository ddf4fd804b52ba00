"""Closed-form steady states: transcription guards and solver equivalence."""

import importlib
import math
import operator
import pkgutil
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import random_params
from exact_oracle import closed_form_state, closed_form_terms, exact_state

import eit3
from eit3.analytic import (
    _GRID_PASS_POINTS,
    _TERMS,
    _Grid,
    _float_power,
    _quotient,
    ClosedFormOverflowError,
    DegenerateDenominatorError,
    PumpDetuningUnsupportedError,
    analytic_steady_state,
    steady_state_terms,
)
from eit3.model import Configuration, SystemParams, build_liouvillian
from eit3.optics import OpticalConstants, sweep
from eit3.presets import reference_params
from eit3.steady import is_density_matrix, steady_state
from eit3.su3 import LEVEL_INDEX


def test_normalization_identity_randomized(rng, config):
    # the three population numerators must sum exactly to the denominator:
    # a strong transcription check
    for _ in range(50):
        p = random_params(rng, config)
        p = replace(p, delta_pump=0.0)
        D, n11, n22, n33, *_ = steady_state_terms(p)
        assert abs((n11 + n22 + n33) / D - 1.0) <= 1e-12
        assert D > 0.0


def test_matches_numeric_solver_on_grid(config):
    # independent oracle: null-space solve of the Liouvillian
    p = reference_params(config.value)
    for delta in np.linspace(-30.0, 30.0, 21):
        pd = replace(p, delta_probe=float(delta))
        diff = np.abs(analytic_steady_state(pd)
                      - steady_state(build_liouvillian(pd))).max()
        assert diff <= 1e-8


def test_lambda_resonance_exact_zeros():
    p = reference_params("lambda")
    rho = analytic_steady_state(p)
    assert rho[0, 0] == 0.0   # rho_33 numerator carries Delta^2
    assert rho[2, 0] == 0.0   # rho_13 numerator carries Delta


def test_lambda_resonant_ground_population_closed_form():
    # independent evaluation of the printed polynomial at resonance
    g13, g23, G31, G32 = 0.5, 105.0, 0.1, 6.0
    d0 = (G32 * g13**6 + g23**2 * (G31 + 2 * G32) * g13**4
          + (2 * G31 + G32) * g23**4 * g13**2 + g23**6 * G31)
    expected = g23**2 * (g13**2 + g23**2) * (G32 * g13**2 + g23**2 * G31) / d0
    rho = analytic_steady_state(reference_params("lambda"))
    got = rho[LEVEL_INDEX[1], LEVEL_INDEX[1]]
    assert abs(got - expected) <= 1e-12
    assert expected > 0.99


def test_lambda_upper_population_even_in_detuning():
    p = reference_params("lambda")
    rho33 = LEVEL_INDEX[3], LEVEL_INDEX[3]
    for d in (3.0, 11.5, 27.0):
        plus = analytic_steady_state(replace(p, delta_probe=d))[rho33]
        minus = analytic_steady_state(replace(p, delta_probe=-d))[rho33]
        assert plus == minus           # bit-exact: even powers only
        assert plus.real > 0.0


def test_cascade_upper_population_numerator_detuning_free():
    p = reference_params("cascade")
    D0, _, _, n33_0, *_ = steady_state_terms(replace(p, delta_probe=0.0))
    D1, _, _, n33_1, *_ = steady_state_terms(replace(p, delta_probe=17.0))
    assert n33_0 == n33_1
    assert D0 != D1


def test_vee_arm_swap_symmetry():
    # equal couplings and equal decays: the two excited arms are equivalent
    p = SystemParams(Configuration.VEE, g_probe=4.0, g_pump=4.0,
                     gamma_a=2.5, gamma_b=2.5, delta_probe=0.0)
    rho = analytic_steady_state(p)
    assert abs(rho[1, 1] - rho[0, 0]) <= 1e-14


def test_hermitian_assembly(rng, config):
    for _ in range(10):
        p = replace(random_params(rng, config), delta_pump=0.0)
        rho = analytic_steady_state(p)
        assert np.array_equal(rho, rho.conj().T)
        assert is_density_matrix(rho)


def test_assembly_divides_each_numerator_in_python(config):
    # rho_kl = complex(n_kl) / D, entry by entry, bit for bit; numpy's
    # complex division multiplies by a reciprocal and differs on this grid
    p = reference_params(config.value)
    for delta in np.linspace(-30.0, 30.0, 201):
        pd = replace(p, delta_probe=float(delta))
        D, *numerators = steady_state_terms(pd)
        r11, r22, r33, r12, r13, r23 = (complex(n) / D for n in numerators)
        expected = np.empty((3, 3), dtype=complex)
        for k, r in ((1, r11), (2, r22), (3, r33)):
            expected[LEVEL_INDEX[k], LEVEL_INDEX[k]] = r
        for (k, l), r in (((1, 2), r12), ((1, 3), r13), ((2, 3), r23)):
            expected[LEVEL_INDEX[k], LEVEL_INDEX[l]] = r
            expected[LEVEL_INDEX[l], LEVEL_INDEX[k]] = r.conjugate()
        assert analytic_steady_state(pd).tobytes() == expected.tobytes()


# max |rho - rho_exact| over the nine entries, for the states at
# ORACLE_POINTS; measured worst cases 2.8e-14 (lambda at the cancellation
# point), 2.9e-15 and 9.8e-16 analytic, 5.0e-16, 2.4e-16 and 1.5e-16 numeric
ORACLE_BOUND = {
    "lambda": {"analytic": 5e-14, "numeric": 1e-15},
    "cascade": {"analytic": 6e-15, "numeric": 1e-15},
    "vee": {"analytic": 2e-15, "numeric": 1e-15},
}
# the reference systems on the bundled sweep range, and the point where the
# lambda terms cancel most, (g23^2 - Delta^2)^2 with g_pump = 105
ORACLE_POINTS = [{"delta_probe": d} for d in (-30.0, -2.5, 0.0, 0.3, 2.5, 30.0)]
ORACLE_POINTS.append({"g_pump": 105.0, "delta_probe": 104.9})


def test_closed_forms_against_exact_oracle(config):
    # the transcribed terms run unchanged on Gaussian rationals and equal,
    # entry for entry, the exact solve of the master equation; the float
    # states of both backends are measured against that exact state
    for point in ORACLE_POINTS:
        p = replace(reference_params(config.value), **point)
        D, n11, n22, n33, *_ = closed_form_terms(p)
        assert n11 + n22 + n33 == D
        exact = exact_state(p)
        assert closed_form_state(p) == exact, point
        states = {"analytic": analytic_steady_state(p),
                  "numeric": steady_state(build_liouvillian(p))}
        for backend, rho in states.items():
            err = max(r.distance(complex(rho[LEVEL_INDEX[k], LEVEL_INDEX[l]]))
                      for (k, l), r in exact.items())
            assert err <= ORACLE_BOUND[config.value][backend], (point, backend)


def test_closed_forms_equal_the_exact_state_at_random_rationals(config):
    # exact arithmetic at rational points no float holds: a wrong term of
    # the polynomials passes such a draw with negligible probability
    # (Schwartz-Zippel), whatever its size against the others
    rng = random.Random(7)

    def draw(low=1):
        return Fraction(rng.randint(low, 10**6), rng.randint(1, 10**3))

    for _ in range(10):
        p = SystemParams(config, draw(), draw(), draw(), draw(),
                         delta_probe=draw(-10**6))
        assert closed_form_state(p) == exact_state(p), p


def test_pump_detuning_rejected():
    p = replace(reference_params("lambda"), delta_pump=1.0)
    with pytest.raises(PumpDetuningUnsupportedError):
        analytic_steady_state(p)


def test_degenerate_denominator():
    # both couplings zero: every population distribution is stationary and
    # the common denominator collapses
    p = SystemParams(Configuration.LAMBDA, g_probe=0.0, g_pump=0.0,
                     gamma_a=0.1, gamma_b=6.0)
    with pytest.raises(DegenerateDenominatorError):
        analytic_steady_state(p)
    # all rates zero: D = 0 at a zero rate scale
    with pytest.raises(DegenerateDenominatorError):
        analytic_steady_state(SystemParams(Configuration.LAMBDA, 0.0, 0.0, 0.0, 0.0))


def test_every_eit3_error_is_a_value_error():
    # one base for every error class a module exports, so a caller catches
    # ValueError alone; DegenerateDenominatorError stays a ZeroDivisionError
    modules = [importlib.import_module(f"eit3.{info.name}")
               for info in pkgutil.iter_modules(eit3.__path__)]
    errors = {obj for module in modules for name in getattr(module, "__all__", ())
              if isinstance(obj := getattr(module, name), type)
              and issubclass(obj, BaseException)}
    assert DegenerateDenominatorError in errors and len(errors) >= 9  # today's nine
    assert [e.__name__ for e in errors if not issubclass(e, ValueError)] == []
    assert issubclass(DegenerateDenominatorError, ZeroDivisionError)
    # an undriven sweep still lists the error at each point, on the
    # per-point path and in the grid pass
    p = SystemParams(Configuration.LAMBDA, 0.0, 0.0, gamma_a=0.1, gamma_b=6.0)
    k = OpticalConstants(omega_probe=2.37e9)
    for points in (3, _GRID_PASS_POINTS):
        spectrum, failures = sweep(p, k, -1.0, 1.0, points, backend="analytic")
        assert [d for d, _ in failures] == spectrum.delta.tolist()
        assert all(type(exc) is DegenerateDenominatorError for _, exc in failures)
        assert np.isnan(spectrum.rho11).all()


# degree of D, and of every numerator, in the rates (g, Gamma, Delta)
DEGREE = {"lambda": 7, "cascade": 8, "vee": 8}


def test_denominator_degree(config):
    p = reference_params(config.value, delta_probe=2.0)
    doubled = replace(p, g_probe=2 * p.g_probe, g_pump=2 * p.g_pump,
                      gamma_a=2 * p.gamma_a, gamma_b=2 * p.gamma_b,
                      delta_probe=2 * p.delta_probe)
    assert (steady_state_terms(doubled)[0]
            == 2.0**DEGREE[config.value] * steady_state_terms(p)[0])


@pytest.mark.parametrize("factor", [1e-6, 1e3])
def test_rate_units_do_not_change_the_state(config, factor):
    # D and every numerator share one degree in (g, Gamma, Delta), so the
    # state is unchanged when all rates are given in another unit (x 1e-6:
    # MHz to THz); the denominator floor is relative to rate_scale**degree
    p = reference_params(config.value, delta_probe=2.0)
    scaled = replace(p, g_probe=p.g_probe * factor, g_pump=p.g_pump * factor,
                     gamma_a=p.gamma_a * factor, gamma_b=p.gamma_b * factor,
                     delta_probe=p.delta_probe * factor)
    diff = np.abs(analytic_steady_state(scaled) - analytic_steady_state(p)).max()
    assert diff <= 1e-14


def test_huge_coupling_is_a_degenerate_denominator(config):
    # rate_scale**degree overflows from about 1e44 while the terms stay
    # finite; |D| / rate_scale**degree is ~1e-44 here, below the floor
    p = replace(reference_params(config.value), g_probe=1e45)
    with pytest.raises(DegenerateDenominatorError,
                       match=rf"rate_scale\*\*{DEGREE[config.value]}$"):
        steady_state_terms(p)


@pytest.mark.parametrize("as_type", [float, np.float64])
def test_overflowing_terms_raise_named_error(config, as_type):
    # g**6 leaves the double range near g = 1e51: Python floats raise
    # OverflowError in a power, np.float64 gave inf and an all-NaN state
    p = SystemParams(config, g_probe=as_type(1e60), g_pump=as_type(1e60),
                     gamma_a=1.0, gamma_b=1.0)
    with pytest.raises(ClosedFormOverflowError,
                       match=r"^ClosedFormOverflow:"):
        analytic_steady_state(p)


def test_overflowing_product_raises_named_error():
    # every power stays finite but a product of them overflows to inf
    p = SystemParams(Configuration.LAMBDA, g_probe=1e50, g_pump=1e60,
                     gamma_a=1.0, gamma_b=1.0)
    with pytest.raises(ClosedFormOverflowError):
        steady_state_terms(p)


# operands of the grid-arithmetic pin: signed zeros, infinities, NaN,
# subnormals, 1e+-300 and plain values, as ints, floats and complexes
PIN_REALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310,
             1e300, -1e-300, 2.0, 3.0, -1.5, 2]
PIN_COMPLEXES = [complex(math.inf, 0.0), complex(-0.0), complex(0.0, -0.0),
                 complex(-0.0, -0.0), complex(1e300, -1e-300),
                 complex(math.nan, 1.0), complex(5e-324, -math.inf),
                 complex(-1.5, 2.5), 1j]
PIN_OPERANDS = PIN_REALS + PIN_COMPLEXES


def one_point(x):
    """``x`` as a one-point _Grid."""
    if isinstance(x, complex):
        return _Grid(np.array([x.real]), np.array([x.imag]))
    return _Grid(np.array([float(x)]))


def scalar_bytes(x):
    if isinstance(x, complex):
        return "complex", np.array([x.real]).tobytes(), np.array([x.imag]).tobytes()
    return "real", np.array([float(x)]).tobytes()


def grid_bytes(g):
    if g.im is None:
        return "real", np.broadcast_to(g.re, 1).tobytes()
    return ("complex", np.broadcast_to(g.re, 1).tobytes(),
            np.broadcast_to(g.im, 1).tobytes())


def test_grid_arithmetic_is_cpythons():
    # every operator of the array number the closed forms run on over a
    # grid gives the bytes of the Python scalar operation it copies; on an
    # interpreter with C99 Annex G mixed real/complex arithmetic (CPython
    # 3.14) this fails, and with it the grid pass's bitwise equality
    assert math.isnan((complex(math.inf, 0.0) * 2.0).imag)  # (x, 0.0) promotion
    assert math.copysign(1.0, (complex(-0.0) / 3.0).real) == 1.0  # +0j
    with np.errstate(all="ignore"):
        for op, a, b in product((operator.add, operator.sub, operator.mul),
                                PIN_OPERANDS, PIN_OPERANDS):
            expected = scalar_bytes(op(a, b))
            for got in (op(one_point(a), b), op(a, one_point(b)),
                        op(one_point(a), one_point(b))):
                assert grid_bytes(got) == expected, (op, a, b)
        for a in PIN_OPERANDS:
            assert grid_bytes(-one_point(a)) == scalar_bytes(-a), a
            for k in (2, 3, 4, 6):
                got = one_point(a) ** k
                try:
                    expected = scalar_bytes(a ** k)
                except OverflowError:  # read as a non-finite result
                    assert not all(np.isfinite(part).all() for part in
                                   (got.re, 0.0 if got.im is None else got.im))
                    continue
                assert grid_bytes(got) == expected, (a, k)
            for D in (5e-324, -1e-310, 1e300, -1e-300, 2.0, 3.0, -1.5):
                re, im = _quotient(one_point(a), np.array([D]))
                assert grid_bytes(_Grid(re, im)) == scalar_bytes(complex(a) / D), (a, D)


def python_powers(values, k):
    """``v ** k`` of each Python float, an OverflowError read as inf."""
    powers = []
    for v in values:
        try:
            powers.append(v ** k)
        except OverflowError:
            powers.append(math.inf)
    return np.array(powers)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_float_power_is_pythons_pow_bit_for_bit(k):
    # a real grid's x ** k maps math.pow, which calls the C library's
    # pow(x, k), where a Python float's x ** k calls pow(|x|, k) and negates
    # it for an odd k.  That the two agree on a negative x is a property of
    # the libm (glibc's pow is sign-symmetric for an integral exponent), not
    # a Python guarantee: on a libm where they differ this test names it
    rng = np.random.default_rng(37)
    signs = rng.choice([-1.0, 1.0], 4000)
    magnitudes = 10.0 ** rng.uniform(-60, 60, 4000)
    tiny = 10.0 ** rng.uniform(-330 / k, -308 / k, 4000)  # subnormal k-th powers
    overflowing = magnitudes.copy()
    overflowing[1234] = 1e200
    grids = {"positive": magnitudes, "both-signs": signs * magnitudes,
             "special": np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324,
                                  math.inf, -math.inf, math.nan]),
             "underflow": signs * tiny, "overflow": signs * overflowing}
    for name, x in grids.items():
        expected = python_powers(x.tolist(), k)
        assert _float_power(x, k).tobytes() == expected.tobytes(), (name, k)
    underflow = python_powers(grids["underflow"].tolist(), k)
    assert (underflow == 0.0).any() and (underflow != 0.0).any()
    assert (np.abs(underflow) < 2.2250738585072014e-308).all()
    assert np.isinf(python_powers(grids["overflow"].tolist(), k)).sum() == 1


def test_each_power_is_evaluated_once(config, monkeypatch):
    # _Grid keeps no cache of powers, so each distinct power of a number
    # must be taken once by the term functions themselves: over a grid a
    # repeated power of the detuning is one more Python pow per point
    calls, operands = {}, []
    power = _Grid.__pow__

    def counted(self, k):
        operands.append(self)  # alive to the end, so no id is reused
        calls[id(self), k] = calls.get((id(self), k), 0) + 1
        return power(self, k)

    monkeypatch.setattr(_Grid, "__pow__", counted)
    p = reference_params(config.value, delta_probe=2.5)
    _TERMS[config](*map(one_point, (p.g_probe, p.g_pump, p.gamma_a,
                                    p.gamma_b, p.delta_probe)))
    assert calls
    assert all(n == 1 for n in calls.values()), sorted(calls.values())


@pytest.mark.parametrize("rates,delta", [
    ((1e60, 1e60, 0.1, 6.0), 0.0),
    ((10**60, Fraction(10**60), Fraction(1, 3), 6), 2.5),
    ((np.float64(0.5), 105, 0.1, 6.0), -1e77),
])
def test_overflow_message_quotes_the_params_rate_scale(config, rates, delta):
    # the closed forms take their rate scale as max(max(rates), |delta|)
    # in Python floats: SystemParams.rate_scale at a zero pump detuning,
    # whatever the number types, on the per-point path and the grid's
    p = SystemParams(config, *rates, delta_probe=delta, delta_pump=-0.0)
    quoted = f"(rate scale {float(p.rate_scale):.3e} MHz)"
    with pytest.raises(ClosedFormOverflowError) as info:
        steady_state_terms(p)
    assert str(info.value).endswith(quoted)
    deltas = np.full(_GRID_PASS_POINTS, float(delta))
    block, failures = eit3.steady.solve_grid(p, deltas, "analytic")
    assert [str(exc) for i, exc in failures] == [str(info.value)] * len(deltas)
