"""Liouvillian assembly against the hand-transcribed Bloch equations."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import BAD_NUMBERS, random_params, random_state

from eit3.model import (
    Configuration,
    DIAGONAL_VEC_INDICES,
    SystemParams,
    build_hamiltonian_rwa,
    build_liouvillian,
    build_liouvillian_stack,
    obe_rhs,
    unvectorize,
    vectorize,
    _dissipator,
)
from eit3.presets import reference_params
from eit3.su3 import LEVEL_INDEX


def test_decoupled_fields_give_diagonal_hamiltonian():
    p = SystemParams(Configuration.LAMBDA, g_probe=0.0, g_pump=0.0,
                     gamma_a=0.1, gamma_b=6.0, delta_probe=5.0, delta_pump=0.0)
    h = build_hamiltonian_rwa(p)
    assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
    assert np.allclose(np.diag(h), [5.0, 5.0, 0.0])
    # probe coherence picks up i*Delta plus pure decay
    rho = np.zeros((3, 3), dtype=complex)
    rho[2, 0] = 0.3 - 0.2j
    rho[0, 2] = np.conj(rho[2, 0])
    d = obe_rhs(p, rho)
    expected = (1j * 5.0 - (0.1 + 6.0)) * rho[2, 0]
    assert abs(d[2, 0] - expected) <= 1e-14


def test_hamiltonian_hermitian_for_random_params(rng, config):
    for _ in range(10):
        h = build_hamiltonian_rwa(random_params(rng, config))
        assert np.abs(h - h.conj().T).max() == 0.0


def test_lambda_probe_coherence_term_by_term(rng):
    # coherent part of d(rho_13)/dt is i(g23 rho_12 + D13 rho_13
    # + g13 (rho_11 - rho_33)), term by term
    p = reference_params("lambda", delta_probe=7.0)
    h = build_hamiltonian_rwa(p)
    rho = random_state(rng)
    coherent = 1j * (rho @ h - h @ rho)
    expected = 1j * (p.g_pump * rho[2, 1] + p.delta_probe * rho[2, 0]
                     + p.g_probe * (rho[2, 2] - rho[0, 0]))
    assert abs(coherent[2, 0] - expected) <= 1e-12


def test_lambda_dissipator_population_flow(rng):
    p = reference_params("lambda")
    rho = random_state(rng)
    with np.errstate(all="ignore"):
        D = _dissipator(p)
    d = unvectorize(D @ vectorize(rho))
    r33 = rho[0, 0]
    assert abs(d[2, 2] - 2 * p.gamma_a * r33) <= 1e-12          # feeds rho_11
    assert abs(d[0, 0] + 2 * (p.gamma_a + p.gamma_b) * r33) <= 1e-12
    # probe coherence decays at the total rate out of its upper level
    assert abs(d[2, 0] + (p.gamma_a + p.gamma_b) * rho[2, 0]) <= 1e-12


def test_zero_decay_dissipator_is_zero():
    p = SystemParams(Configuration.VEE, g_probe=1.0, g_pump=2.0,
                     gamma_a=0.0, gamma_b=0.0)
    with np.errstate(all="ignore"):
        assert np.abs(_dissipator(p)).max() == 0.0


def test_cascade_upper_population_decays(rng):
    # the dissipative part of d(rho_33)/dt must be -2 Gamma_32 rho_33:
    # anything else breaks trace conservation
    p = reference_params("cascade")
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    d = obe_rhs(p, rho)
    assert abs(d[0, 0] + 2 * p.gamma_b) <= 1e-14
    assert abs(d[1, 1] - 2 * p.gamma_b) <= 1e-14  # lands on the middle level
    assert abs(np.trace(d)) <= 1e-14


def test_liouvillian_matches_obe_rhs(rng, config):
    # two independently written generators must agree on random states
    for _ in range(100):
        p = random_params(rng, config)
        L = build_liouvillian(p)
        rho = random_state(rng)
        rhs = unvectorize(L.matrix @ vectorize(rho))
        assert np.abs(rhs - obe_rhs(p, rho)).max() <= 1e-12


def test_trace_readout_row_is_zero(rng, config):
    for _ in range(10):
        L = build_liouvillian(random_params(rng, config)).matrix
        trace_row = L[list(DIAGONAL_VEC_INDICES), :].sum(axis=0)
        assert np.abs(trace_row).max() <= 1e-12


def test_hermiticity_preservation(rng, config):
    for _ in range(10):
        L = build_liouvillian(random_params(rng, config))
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))  # non-Hermitian
        out_of_adjoint = unvectorize(L.matrix @ vectorize(m.conj().T))
        adjoint_of_out = unvectorize(L.matrix @ vectorize(m)).conj().T
        assert np.abs(out_of_adjoint - adjoint_of_out).max() <= 1e-12
        h = random_state(rng)
        out = unvectorize(L.matrix @ vectorize(h))
        assert np.abs(out - out.conj().T).max() <= 1e-12


def test_obe_rhs_is_traceless_and_hermitian(rng, config):
    for _ in range(20):
        p = random_params(rng, config)
        rho = random_state(rng)
        d = obe_rhs(p, rho)
        assert abs(np.trace(d)) <= 1e-12
        assert np.abs(d - d.conj().T).max() <= 1e-12


def test_pure_decay_from_maximally_mixed_state():
    p = SystemParams(Configuration.LAMBDA, g_probe=0.0, g_pump=0.0,
                     gamma_a=0.1, gamma_b=6.0)
    d = obe_rhs(p, np.eye(3, dtype=complex) / 3)
    assert abs(d[2, 2] - 2 * 0.1 / 3) <= 1e-15
    assert abs(d[1, 1] - 2 * 6.0 / 3) <= 1e-15
    assert abs(d[0, 0] + 2 * (0.1 + 6.0) / 3) <= 1e-15


def test_undriven_population_flow_is_downhill(rng, config):
    # couplings off: the upper level drains, and the cascade chains 3->2->1
    p = random_params(rng, config)
    p = SystemParams(config, 0.0, 0.0, p.gamma_a + 0.1, p.gamma_b + 0.1)
    top = np.zeros((3, 3), dtype=complex)
    top[0, 0] = 1.0
    d = obe_rhs(p, top)
    assert d[0, 0].real < 0
    if config is Configuration.CASCADE:
        assert d[1, 1].real > 0 and d[2, 2].real == 0
        mid = np.zeros((3, 3), dtype=complex)
        mid[1, 1] = 1.0
        d2 = obe_rhs(p, mid)
        assert d2[1, 1].real < 0 and d2[2, 2].real > 0
    else:
        assert d[2, 2].real > 0


def test_vectorization_layout_roundtrip(rng):
    rho = random_state(rng)
    v = vectorize(rho)
    # column-major: vec[3c + r] = rho[r, c]; diagonal at 0, 4, 8
    assert v[0] == rho[0, 0] and v[4] == rho[1, 1] and v[8] == rho[2, 2]
    assert v[1] == rho[1, 0] and v[3] == rho[0, 1]
    assert np.array_equal(unvectorize(v), rho)


def test_unvectorize_takes_a_stack(rng):
    # each slice of a stack's unvectorization is that of its vector, bit for
    # bit, and the stack round-trips through vectorize
    V = rng.normal(size=(5, 9)) + 1j * rng.normal(size=(5, 9))
    stack = unvectorize(V)
    assert stack.shape == (5, 3, 3)
    for v, rho in zip(V, stack):
        assert np.array_equal(rho, unvectorize(v))
    assert np.array_equal(np.array([vectorize(rho) for rho in stack]), V)
    assert unvectorize(V.reshape(5, 1, 9)).shape == (5, 1, 3, 3)


def test_zero_pump_detuning_is_default():
    p = reference_params("lambda")
    assert p.delta_pump == 0.0


def test_negative_parameters_rejected():
    with pytest.raises(ValueError, match="gamma_a"):
        SystemParams(Configuration.LAMBDA, 0.5, 105.0, -0.1, 6.0)
    with pytest.raises(ValueError, match="g_probe"):
        SystemParams(Configuration.LAMBDA, -0.5, 105.0, 0.1, 6.0)


@pytest.mark.parametrize("config", ["lambda", "LAMBDA", None, 0])
def test_config_that_is_no_configuration_rejected(config):
    # not a raw KeyError at the first build or closed-form solve
    with pytest.raises(ValueError, match=f"^config must be a Configuration, "
                                         f"got {config!r}$"):
        SystemParams(config, 0.5, 105.0, 0.1, 6.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["g_probe", "g_pump", "gamma_a", "gamma_b",
                                  "delta_probe", "delta_pump"])
def test_non_finite_parameters_rejected(name, bad):
    p = reference_params("lambda")
    with pytest.raises(ValueError, match=name):
        replace(p, **{name: bad})


@pytest.mark.parametrize("bad,message", BAD_NUMBERS)
@pytest.mark.parametrize("name", ["g_probe", "g_pump", "gamma_a", "gamma_b",
                                  "delta_probe", "delta_pump"])
def test_system_params_reject_what_is_no_number(name, bad, message):
    with pytest.raises(ValueError, match=f"^{name} {re.escape(message)}$"):
        replace(reference_params("lambda"), **{name: bad})


def test_system_params_take_numpy_real_scalars():
    p = SystemParams(Configuration.LAMBDA, np.float32(0.5), np.int64(105),
                     np.float64(0.1), 6, delta_probe=np.float16(-1.0))
    assert p.rate_scale == 105


def _kron_hamiltonian(p):
    """H_rot of p written out from build_hamiltonian_rwa's docstring: the
    diagonal formulas in Python floats, each coupling added to a complex
    zero on both entries of its transition."""
    dp, dq = p.delta_probe, p.delta_pump
    upper, middle = {Configuration.LAMBDA: (dp, dp - dq),
                     Configuration.CASCADE: (dp + dq, dp),
                     Configuration.VEE: (dp, dq)}[p.config]
    H = np.zeros((3, 3), dtype=complex)
    H[LEVEL_INDEX[3], LEVEL_INDEX[3]] = upper
    H[LEVEL_INDEX[2], LEVEL_INDEX[2]] = middle
    for (lower, up), g in ((p.config.probe_transition, p.g_probe),
                           (p.config.pump_transition, p.g_pump)):
        H[LEVEL_INDEX[up], LEVEL_INDEX[lower]] += g
        H[LEVEL_INDEX[lower], LEVEL_INDEX[up]] += g
    return H


# the decay channels k->l of gamma_a and gamma_b, from the SystemParams
# docstring: (Gamma_31, Gamma_32), (Gamma_21, Gamma_32), (Gamma_21, Gamma_31)
_KRON_CHANNELS = {Configuration.LAMBDA: ((3, 1), (3, 2)),
                  Configuration.CASCADE: ((2, 1), (3, 2)),
                  Configuration.VEE: ((2, 1), (3, 1))}


def _kron_dissipator(p):
    """Zeros plus Gamma_kl (2 A* kron A - I kron A+A - (A+A)^T kron I) of
    each nonzero channel, A = |l><k|, in channel order."""
    eye = np.eye(3, dtype=complex)
    expected = np.zeros((9, 9), dtype=complex)
    for (upper, lower), gamma in zip(_KRON_CHANNELS[p.config],
                                     (p.gamma_a, p.gamma_b)):
        if gamma == 0.0:
            continue
        A = np.zeros((3, 3), dtype=complex)
        A[LEVEL_INDEX[lower], LEVEL_INDEX[upper]] = 1.0   # |l><k|
        AdA = A.conj().T @ A
        expected += gamma * (2.0 * np.kron(A.conj(), A)
                             - np.kron(eye, AdA)
                             - np.kron(AdA.T, eye))
    return expected


def _kron_liouvillian(p):
    """1j (kron(H^T, I) - kron(I, H)) plus the dissipator, by np.kron."""
    eye = np.eye(3, dtype=complex)
    H = _kron_hamiltonian(p)
    with np.errstate(all="ignore"):
        expected = 1j * (np.kron(H.T, eye) - np.kron(eye, H))
        expected += _kron_dissipator(p)
    return expected


@pytest.mark.parametrize("zero_rate", [None, "gamma_a", "gamma_b"])
def test_dissipator_matches_kron_formula_bitwise(config, zero_rate):
    # the per-channel superoperators are precomputed; the sum must be the
    # np.kron formula evaluated afresh, bit for bit (tobytes: array_equal
    # would let -0.0 pass for 0.0 and could never pass on NaN).  With one
    # rate zeroed, the other channel's operator is checked alone
    p = reference_params(config)
    if zero_rate:
        p = replace(p, **{zero_rate: 0.0})
    with np.errstate(all="ignore"):
        assert _dissipator(p).tobytes() == _kron_dissipator(p).tobytes()


@pytest.mark.parametrize("delta_pump", [0.0, 1.7])
def test_liouvillian_stack_matches_kron_formula(config, delta_pump):
    # the stack's commutator, slice by slice, against np.kron on each
    # single-detuning Hamiltonian: same products, so equal bit for bit.  An
    # affine split L0 + Delta L1 fails here: with delta_pump = 1.7,
    # (1 + 1.7) - 1.7 != 1 in floating point
    p = replace(reference_params(config), delta_pump=delta_pump)
    deltas = np.linspace(-40.0, 40.0, 61)
    stack = build_liouvillian_stack(p, deltas)
    assert stack.shape == (61, 9, 9)
    for d, L in zip(deltas, stack):
        q = replace(p, delta_probe=float(d))
        expected = _kron_liouvillian(q).tobytes()
        assert L.tobytes() == expected
        assert build_liouvillian(q).matrix.tobytes() == expected
        assert build_hamiltonian_rwa(q).tobytes() == _kron_hamiltonian(q).tobytes()


# parameter changes whose Liouvillians hold signed zeros, subnormals, inf or
# NaN: -0.0 couplings, subnormal rates, dp +- dq past the float limit, and
# decays whose products and sum overflow
_HOSTILE = {
    "negative-zero-couplings": dict(g_probe=-0.0, g_pump=-0.0),
    "subnormal-rates": dict(g_probe=5e-324, g_pump=1e-300, gamma_a=5e-324,
                            gamma_b=1e-300),
    "pump-at-plus-limit": dict(delta_pump=1.7e308),
    "pump-at-minus-limit": dict(delta_pump=-1.7e308),
    "decays-at-limit": dict(gamma_a=1e308, gamma_b=1.7e308),
    "huge-couplings": dict(g_probe=1e154, g_pump=1.7e308),
}
_HOSTILE_DELTAS = {
    1: [-1.7e308],
    5: [-0.0, 5e-324, 1e154, 1.7e308, -1.7e308],
    256: ([-0.0, 0.0, 5e-324, -1e-300, 2.5, 1e154, 1e308, 1.7e308, -1.7e308]
          + list(np.linspace(-40.0, 40.0, 247))),
}


@pytest.mark.parametrize("n", sorted(_HOSTILE_DELTAS))
@pytest.mark.parametrize("case", list(_HOSTILE))
def test_liouvillian_build_matches_kron_formula_on_hostile_inputs(config, case, n):
    # byte for byte, inf and NaN entries included, at the one-point size,
    # a short stack and a 256-point stack; every builder runs under its
    # own np.errstate, so an entry that overflows raises no numpy warning
    p = replace(reference_params(config), **_HOSTILE[case])
    deltas = np.array(_HOSTILE_DELTAS[n])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = build_liouvillian_stack(p, deltas)
        assert stack.shape == (n, 9, 9) and stack.dtype == complex
        for d, L in zip(deltas, stack):
            q = replace(p, delta_probe=float(d))
            expected = _kron_liouvillian(q).tobytes()
            assert L.tobytes() == expected
            assert build_liouvillian(q).matrix.tobytes() == expected
            # the dissipator's +0.0 entries hide a -0.0 coupling from L; H
            # shows it
            H = build_hamiltonian_rwa(q)
            assert H.tobytes() == _kron_hamiltonian(q).tobytes()
    with np.errstate(all="ignore"):
        assert _dissipator(p).tobytes() == _kron_dissipator(p).tobytes()
    if case.endswith("limit") and n == 256:  # the bytes compared hold inf or NaN
        assert not np.isfinite(stack).all()
