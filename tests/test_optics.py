"""Dispersion, absorption, group velocity and sweep plumbing."""

import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import BAD_NUMBERS, outcomes

import eit3.optics
from eit3.model import Configuration, SystemParams
from eit3.optics import (
    ANGULAR_CONVENTIONS,
    C_LIGHT,
    CALIBRATED_CONVENTION,
    EPSILON_0,
    HBAR,
    MU_BOHR,
    OpticalConstants,
    Spectrum,
    calibration_table,
    prefactor,
    sweep,
)
from eit3.presets import REFERENCE_OMEGA_MHZ, reference_params
from eit3.steady import DegenerateNullSpaceError, solve_grid
from eit3.su3 import gell_mann


def optics_for(config, convention=CALIBRATED_CONVENTION):
    cfg = Configuration(config) if not isinstance(config, Configuration) else config
    return OpticalConstants(omega_probe=REFERENCE_OMEGA_MHZ[cfg],
                            angular_convention=convention)


def test_zero_coherence_state_is_transparent(config):
    # an uncoupled probe transition carries no coherence: n = 1, alpha = 0
    p = replace(reference_params(config.value), g_probe=0.0)
    k = optics_for(config)
    for backend in ("analytic", "numeric"):
        s, failures = sweep(p, k, -30.0, 30.0, 21, backend=backend)
        assert failures == []
        assert (s.probe_coherence == 0.0).all()
        assert (s.n == 1.0).all()
        assert (s.alpha == 0.0).all()


def test_lambda_resonance_unit_index_zero_absorption():
    p = reference_params("lambda")
    k = optics_for("lambda")
    s, failures = sweep(p, k, -1.0, 1.0, 3, backend="analytic")
    assert failures == []
    assert s.delta[1] == 0.0
    assert s.n[1] == 1.0            # probe coherence vanishes identically
    assert s.alpha[1] == 0.0
    # numeric solve: transparency at the 1e-9 coherence level (the huge
    # dimensionless prefactor would otherwise amplify solver noise)
    num, failures = sweep(p, k, -1.0, 1.0, 3, backend="numeric")
    assert failures == []
    pref = prefactor(k)
    assert abs(num.n[1] - 1.0) <= 1e-9 * pref
    assert abs(num.alpha[1]) <= 1e-9 * pref


def test_susceptibility_traces_pick_probe_coherence():
    # Tr[rho lam_r] and Tr[rho lam_i] are twice the real and imaginary parts
    # of the probe coherence, rho_13 (lambda, vee) or rho_12 (cascade)
    for config in Configuration:
        p = reference_params(config.value)
        k = optics_for(config)
        pref = prefactor(k)
        for backend in ("analytic", "numeric"):
            s, failures = sweep(p, k, -30.0, 30.0, 41, backend=backend)
            assert failures == []
            for n, alpha, c in zip(s.n, s.alpha, s.probe_coherence):
                assert n - 1.0 == pytest.approx(pref * 2 * c.real, rel=1e-12, abs=0)
                assert alpha == pytest.approx(pref * 2 * c.imag, rel=1e-12, abs=0)


def su3_oracle(params, k, s, backend):
    """n, alpha and n_g of the paper's SU(3) form on the grid of ``s``:
    1 + P Tr[rho lam_r], P Tr[rho lam_i] and 1 + P omega d(Tr[rho lam_r])/dDelta
    with the Gell-Mann matrices of the probe pair, from solve_grid states."""
    lam_r, lam_i = {(1, 3): (4, 5), (1, 2): (6, 7)}[params.config.probe_transition]
    rho = np.array(outcomes(solve_grid(params, s.delta, backend)))
    tr_re = np.trace(rho @ gell_mann(lam_r), axis1=1, axis2=2).real
    tr_im = np.trace(rho @ gell_mann(lam_i), axis1=1, axis2=2).real
    pref = prefactor(k)
    slope = np.gradient(tr_re, s.delta[1] - s.delta[0])
    return 1.0 + pref * tr_re, pref * tr_im, 1.0 + pref * k.omega_probe * slope


@pytest.mark.parametrize("tag,change,backend,points", [
    *[(tag, {}, backend, 2001) for tag in ("lambda", "cascade", "vee")
      for backend in ("numeric", "analytic")],
    *[(tag, {"delta_pump": 1.7}, "numeric", 2001)
      for tag in ("lambda", "cascade", "vee")],
    *[(tag, {"g_probe": 0.0, "g_pump": 0.0}, backend, 11)
      for tag in ("cascade", "vee") for backend in ("numeric", "analytic")],
    *[(tag, {"g_probe": 0.0}, backend, 201) for tag in ("lambda", "cascade", "vee")
      for backend in ("numeric", "analytic")],
])
def test_sweep_equals_su3_traces_bitwise(tag, change, backend, points):
    # n, alpha and n_g read off the probe coherence equal the Gell-Mann
    # traces bit for bit, the sign of zeros included (repr tells -0.0 apart)
    p = replace(reference_params(tag), **change)
    k = optics_for(tag)
    s, failures = sweep(p, k, -30.0, 30.0, points, backend=backend)
    assert failures == []
    for got, want in zip((s.n, s.alpha, s.n_g), su3_oracle(p, k, s, backend)):
        assert list(map(repr, got.tolist())) == list(map(repr, want.tolist()))


def test_dispersion_odd_absorption_even_lambda():
    # mirrored grid points, both backends, zero pump detuning; the dyadic
    # step (1.5 MHz) keeps the grid exactly antisymmetric
    p = reference_params("lambda")
    k = optics_for("lambda")
    for backend in ("analytic", "numeric"):
        s, failures = sweep(p, k, -30.0, 30.0, 41, backend=backend)
        assert failures == []
        assert (np.abs(s.delta + s.delta[::-1]) <= 1e-12).all()
        assert (np.abs((s.n - 1.0) + (s.n[::-1] - 1.0)) <= 1e-9).all()
        assert (np.abs(s.alpha - s.alpha[::-1]) <= 1e-9).all()


def test_absorption_nonnegative_and_dip_at_resonance(config):
    # window wide enough to contain the absorption doublet at +-g_pump
    p = reference_params(config.value)
    k = optics_for(config)
    w = 2.0 * p.g_pump
    s, failures = sweep(p, k, -w, w, 401, backend="analytic")
    assert failures == []
    alphas = s.alpha
    assert alphas.min() >= 0.0
    a0 = alphas[200]
    ratio = {"lambda": 1e-3, "cascade": 1e-2, "vee": 1e-2}[config.value]
    assert a0 <= ratio * alphas.max()
    # doublet: the strongest absorption sits symmetrically off resonance
    imax = int(np.argmax(alphas))
    mirrored = alphas[len(alphas) - 1 - imax]
    assert abs(s.delta[imax]) > 0.0
    assert abs(mirrored - alphas[imax]) <= 1e-9 * alphas.max()


def test_lambda_window_absorption_maxima_symmetric():
    p = reference_params("lambda")
    k = optics_for("lambda")
    s, failures = sweep(p, k, -30.0, 30.0, 201, backend="analytic")
    assert failures == []
    alphas = s.alpha
    # transparency at the center, two symmetric maxima about it
    assert alphas[100] == 0.0
    left, right = alphas[:100], alphas[101:]
    assert np.argmax(alphas) != 100
    assert abs(left.max() - right.max()) <= 1e-9 * alphas.max()


def test_positive_dispersion_slope_and_slow_light(config):
    p = reference_params(config.value)
    k = optics_for(config)
    s, failures = sweep(p, k, -3.0, 3.0, 21, backend="analytic")
    assert failures == []
    i = 10
    assert s.delta[i] == 0.0
    slope = (s.n[i + 1] - s.n[i - 1]) / (s.delta[i + 1] - s.delta[i - 1])
    assert slope > 0.0
    assert s.n_g[i] > 1.0
    assert s.n_g[i] >= 1e12     # slow light at the order-of-magnitude level


def test_group_velocity_index_identity(config):
    p = reference_params(config.value)
    k = optics_for(config)
    s, failures = sweep(p, k, -5.0, 5.0, 11, backend="analytic")
    assert failures == []
    assert (np.abs(s.v_g * s.n_g - C_LIGHT) <= 1e-12 * C_LIGHT).all()
    assert (np.abs(s.rho11 + s.rho22 + s.rho33 - 1.0) <= 1e-9).all()
    flagged = s.edge_stencil.tolist()
    assert flagged[0] and flagged[-1] and not any(flagged[1:-1])


def test_group_velocity_richardson_check():
    # halving the grid step moves the centre v_g by < 1e-3 relative on a
    # +-3 MHz window (measured 1.5e-4 lambda, 2.0e-4 cascade), by more on a
    # +-10 MHz one (1.7e-3, 2.2e-3): the stencil resolves the EIT slope
    for tag in ("lambda", "cascade"):
        p = reference_params(tag)
        k = optics_for(tag)
        for width, converged in ((3.0, True), (10.0, False)):
            coarse, coarse_failures = sweep(p, k, -width, width, 5,
                                            backend="analytic")
            fine, fine_failures = sweep(p, k, -width, width, 9,
                                        backend="analytic")
            assert coarse_failures == fine_failures == []
            assert coarse.delta[2] == fine.delta[4] == 0.0
            mismatch = float(abs(coarse.v_g[2] - fine.v_g[4]) / abs(fine.v_g[4]))
            assert (mismatch <= 1e-3) is converged


def test_backends_agree_pointwise():
    # agreement at 1e-8 on the dimensionless susceptibility-trace scale
    for tag in ("lambda", "cascade", "vee"):
        p = reference_params(tag)
        k = optics_for(tag)
        pref = prefactor(k)
        a, a_failures = sweep(p, k, -30.0, 30.0, 41, backend="analytic")
        b, b_failures = sweep(p, k, -30.0, 30.0, 41, backend="numeric")
        assert a_failures == b_failures == []
        assert (np.abs(a.n - b.n) / pref <= 1e-8).all()
        assert (np.abs(a.alpha - b.alpha) / pref <= 1e-8).all()


def test_sweep_repeat_calls_identical():
    p = replace(reference_params("cascade"), delta_pump=1.7)
    k = optics_for("cascade")
    first, first_failures = sweep(p, k, -10.0, 10.0, 301, backend="numeric")
    second, second_failures = sweep(p, k, -10.0, 10.0, 301, backend="numeric")
    assert first_failures == second_failures == []
    for f in fields(Spectrum):
        assert np.array_equal(getattr(first, f.name), getattr(second, f.name))


def test_sweep_surfaces_per_point_failures():
    p = SystemParams(Configuration.LAMBDA, g_probe=0.0, g_pump=0.0,
                     gamma_a=0.1, gamma_b=6.0)
    k = optics_for("lambda")
    s, failures = sweep(p, k, -1.0, 1.0, 3, backend="numeric")
    assert [d for d, _ in failures] == [-1.0, 0.0, 1.0]
    assert all(isinstance(e, DegenerateNullSpaceError) for _, e in failures)
    assert s.delta.tolist() == [-1.0, 0.0, 1.0]
    assert_failed_rows(s, range(3))


def test_degenerate_sweep_fails_every_point_in_delta_order():
    # 600 points: two chunks of the batched solve
    p = SystemParams(Configuration.LAMBDA, g_probe=0.0, g_pump=0.0,
                     gamma_a=0.1, gamma_b=6.0)
    s, failures = sweep(p, optics_for("lambda"), -1.0, 1.0, 600,
                        backend="numeric")
    assert [d for d, _ in failures] == np.linspace(-1.0, 1.0, 600).tolist()
    assert all(isinstance(e, DegenerateNullSpaceError) for _, e in failures)
    assert s.delta.tolist() == np.linspace(-1.0, 1.0, 600).tolist()
    assert_failed_rows(s, range(600))


def assert_failed_rows(s, rows):
    """Rows ``rows`` of the Spectrum are failed points: NaN in every column
    but delta, in both parts of the coherence; every column has a row per
    grid point and every edge_stencil is set."""
    rows = list(rows)
    for f in fields(Spectrum):
        assert len(getattr(s, f.name)) == len(s.delta), f.name
    for name in ("n", "alpha", "rho11", "rho22", "rho33"):
        assert np.isnan(getattr(s, name)[rows]).all(), name
    assert np.isnan(s.probe_coherence[rows].real).all()
    assert np.isnan(s.probe_coherence[rows].imag).all()
    assert np.isnan(s.n_g).all() and np.isnan(s.v_g).all()
    assert s.edge_stencil.all()


def test_sweep_argument_validation():
    p = reference_params("lambda")
    k = optics_for("lambda")
    with pytest.raises(ValueError):
        sweep(p, k, -1.0, 1.0, 2, backend="analytic")
    with pytest.raises(ValueError):
        sweep(p, k, 1.0, -1.0, 5, backend="analytic")
    with pytest.raises(ValueError):
        sweep(p, k, -1.0, 1.0, 5, backend="exact")
    with pytest.raises(ValueError, match="exceed the cap of 100000"):
        sweep(p, k, -1.0, 1.0, eit3.optics.MAX_POINTS + 1, backend="analytic")


@pytest.mark.parametrize("points", [3.5, 3.0, "3", None, True, 2])
def test_sweep_points_must_be_an_integer(points):
    # not the raw TypeError of linspace or of "3" < 3
    with pytest.raises(ValueError, match=re.escape(
            f"points must be an integer >= 3, got {points!r}")):
        sweep(reference_params("lambda"), optics_for("lambda"), -1.0, 1.0,
              points, backend="analytic")
    # a numpy integer is an integer
    spectrum, _ = sweep(reference_params("lambda"), optics_for("lambda"),
                        -1.0, 1.0, np.int64(3), backend="analytic")
    assert len(spectrum.delta) == 3


def test_sweep_rejects_repeated_detunings():
    # 11 points over a 2-ulp span: linspace repeats detunings
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(reference_params("lambda"), optics_for("lambda"), 1.0,
              1.0000000000000009, 11, backend="numeric")


def test_sweep_failures_keep_the_surviving_columns(monkeypatch):
    # every third point fails, as the solvers fail one: a nan+nanj row.  The
    # Spectrum keeps the grid, the others bit-equal to the clean sweep's
    original = eit3.optics.solve_grid

    def failing(params, deltas, backend):
        block, failures = original(params, deltas, backend)
        assert failures == []
        block[1::3] = complex(np.nan, np.nan)
        return block, [(i, RuntimeError("injected"))
                       for i in range(1, len(deltas), 3)]
    monkeypatch.setattr(eit3.optics, "solve_grid", failing)
    p, k = reference_params("vee"), optics_for("vee")
    s, failures = sweep(p, k, -3.0, 3.0, 7, backend="analytic")
    monkeypatch.undo()
    full, full_failures = sweep(p, k, -3.0, 3.0, 7, backend="analytic")
    assert full_failures == []
    kept = [0, 2, 3, 5, 6]
    assert [d for d, _ in failures] == [-2.0, 1.0]
    assert s.delta.tobytes() == full.delta.tobytes()
    for name in ("n", "alpha", "rho11", "rho22", "rho33", "probe_coherence"):
        assert getattr(s, name)[kept].tobytes() == getattr(full, name)[kept].tobytes()
    assert_failed_rows(s, [1, 4])


@pytest.mark.parametrize("backend", ["numeric", "analytic"])
def test_sweep_without_failures_views_the_solved_block(monkeypatch, backend):
    # no second (N, 3, 3) block: the state columns are views of solve_grid's
    blocks = []
    original = eit3.optics.solve_grid

    def recording(params, deltas, backend):
        block, failures = original(params, deltas, backend)
        blocks.append(block)
        return block, failures
    monkeypatch.setattr(eit3.optics, "solve_grid", recording)
    s, failures = sweep(reference_params("vee"), optics_for("vee"), -3.0, 3.0,
                        7, backend=backend)
    assert failures == []
    # nor when points fail: every point of the undriven lambda system does
    undriven = SystemParams(Configuration.LAMBDA, g_probe=0.0, g_pump=0.0,
                            gamma_a=0.1, gamma_b=6.0)
    failing, failures = sweep(undriven, optics_for("lambda"), -3.0, 3.0, 7,
                              backend=backend)
    assert len(failures) == 7
    for spectrum, block in zip((s, failing), blocks, strict=True):
        for name in ("rho11", "rho22", "rho33", "probe_coherence"):
            assert np.shares_memory(getattr(spectrum, name), block), name


def test_calibration_table_and_default_convention():
    table = calibration_table()
    assert set(table["conventions"]) == set(ANGULAR_CONVENTIONS)
    for conv in ANGULAR_CONVENTIONS:
        assert set(table["conventions"][conv]) == {"lambda", "cascade", "vee"}
        for tag, vg in table["conventions"][conv].items():
            assert 0 < vg < 3e-4    # n_g(0) >= 1e12 for every reference system
    assert table["chosen"] == CALIBRATED_CONVENTION
    assert OpticalConstants(omega_probe=1.0).angular_convention == CALIBRATED_CONVENTION
    # neither reading of "MHz" reproduces the reference nm/s values; the
    # calibration must say so rather than pretend
    assert table["within_10pct"] is False
    lam_err = table["relative_errors"][table["chosen"]]["lambda"]
    assert all(table["relative_errors"][c]["lambda"] >= lam_err
               for c in ANGULAR_CONVENTIONS)


def test_calibration_table_raises_a_failed_points_own_error(monkeypatch):
    # the centre of a reference stencil fails: its error, not a wrapper
    original = eit3.optics.solve_grid
    error = DegenerateNullSpaceError("injected")

    def failing(params, deltas, backend):
        block, failures = original(params, deltas, backend)
        assert failures == []
        block[1] = np.nan
        return block, [(1, error)]
    monkeypatch.setattr(eit3.optics, "solve_grid", failing)
    with pytest.raises(DegenerateNullSpaceError) as err:
        calibration_table()
    assert err.value is error


def test_calibration_values_pinned():
    # v_g(0) from the 3-point analytic stencil over +-0.3 MHz, in m/s
    expected = {
        "plain_mhz": {"lambda": 3.0282163042432e-11,
                      "cascade": 1.1999607483611922e-11,
                      "vee": 1.6921841837883604e-11},
        "two_pi_mhz": {"lambda": 1.9026844189782538e-10,
                       "cascade": 7.539575743295263e-11,
                       "vee": 1.0632306800620704e-10},
    }
    table = calibration_table()
    for conv, row in expected.items():
        for tag, vg in row.items():
            assert table["conventions"][conv][tag] == pytest.approx(vg, rel=1e-12, abs=0)


def test_two_conventions_differ_by_two_pi():
    k_plain = optics_for("lambda", "plain_mhz")
    k_twopi = optics_for("lambda", "two_pi_mhz")
    assert abs(prefactor(k_plain) / prefactor(k_twopi) - 2 * math.pi) <= 1e-12


def test_optical_constants_validation():
    with pytest.raises(ValueError):
        OpticalConstants(omega_probe=-1.0)
    with pytest.raises(ValueError):
        OpticalConstants(omega_probe=1.0, n0=0.0)
    with pytest.raises(ValueError):
        OpticalConstants(omega_probe=1.0, angular_convention="mhz")
    with pytest.raises(ValueError):
        OpticalConstants(omega_probe=1.0, angular_convention=None)


@pytest.mark.parametrize("constants", [
    {"omega_probe": 1.0, "mu": 1e200},             # mu**2 raises OverflowError
    {"omega_probe": 1.0, "n0": 1e300, "mu": 1e10},  # prefactor is inf
    {"omega_probe": 1e305},                         # prefactor * omega is inf
])
def test_optical_constants_reject_overflowing_prefactor(constants):
    with pytest.raises(ValueError, match="overflows a float"):
        OpticalConstants(**constants)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["omega_probe", "n0", "mu"])
def test_optical_constants_reject_non_finite(name, bad):
    fields = {"omega_probe": 1.0, name: bad}
    with pytest.raises(ValueError, match=name):
        OpticalConstants(**fields)


@pytest.mark.parametrize("bad,message", BAD_NUMBERS)
@pytest.mark.parametrize("name", ["omega_probe", "n0", "mu"])
def test_optical_constants_reject_what_is_no_number(name, bad, message):
    with pytest.raises(ValueError, match=f"^{name} {re.escape(message)}$"):
        OpticalConstants(**{"omega_probe": 1.0, name: bad})


def test_optical_constants_take_numpy_real_scalars():
    k = OpticalConstants(omega_probe=np.float32(2.0), n0=np.int64(10**18))
    assert prefactor(k) == prefactor(OpticalConstants(omega_probe=2.0, n0=1e18))


def test_si_constants_pinned():
    # CODATA 2022; the metadata strings mu_si and prefactor depend on them
    assert C_LIGHT == 299792458.0
    assert EPSILON_0 == 8.8541878188e-12
    assert HBAR == 1.0545718176461565e-34
    assert MU_BOHR == 9.2740100657e-24
    assert repr(MU_BOHR) == "9.2740100657e-24"


def test_si_constants_equal_codata_library():
    constants = pytest.importorskip("scipy.constants")
    assert C_LIGHT == constants.c
    assert EPSILON_0 == constants.epsilon_0
    assert HBAR == constants.hbar
    assert MU_BOHR == constants.physical_constants["Bohr magneton"][0]


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, eit3.cli; assert 'scipy' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
