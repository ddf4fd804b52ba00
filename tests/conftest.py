import numpy as np
import pytest

from eit3.model import Configuration, SystemParams


# values that are no finite real number, each with the message tail
# SystemParams and OpticalConstants give after the field's name; before
# one rule checked them, each was a raw TypeError or OverflowError, or
# (True) accepted
BAD_NUMBERS = [
    pytest.param("1", "must be a number, got '1'", id="str"),
    pytest.param(None, "must be a number, got None", id="None"),
    pytest.param(1j, "must be a number, got 1j", id="complex"),
    pytest.param(True, "must be a number, got True", id="bool"),
    pytest.param(10**400, "must be finite, got an integer too large for a float",
                 id="huge-int"),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, scale=1.0):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return scale * 0.5 * (m + m.conj().T)


def random_state(rng):
    """Random full-rank density matrix (Hermitian, unit trace, positive)."""
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_params(rng, config, with_detuning=True):
    return SystemParams(
        config=config,
        g_probe=float(rng.uniform(0.05, 20.0)),
        g_pump=float(rng.uniform(0.05, 200.0)),
        gamma_a=float(rng.uniform(0.05, 10.0)),
        gamma_b=float(rng.uniform(0.05, 10.0)),
        delta_probe=float(rng.uniform(-50.0, 50.0)) if with_detuning else 0.0,
        delta_pump=float(rng.uniform(-20.0, 20.0)) if with_detuning else 0.0,
    )


@pytest.fixture(params=list(Configuration), ids=lambda c: c.value)
def config(request):
    return request.param


def outcomes(result):
    """The per-point outcomes of a solver's ``(block, failures)`` result, in
    grid order: the row of each solved point, the error of each failed one.
    Checks the shape on the way: an (N, 3, 3) complex block, failure
    indices strictly increasing within the grid, every failed row all NaN."""
    block, failures = result
    assert block.ndim == 3 and block.shape[1:] == (3, 3)
    assert block.dtype == complex
    indices = [i for i, _ in failures]
    assert all(i < j for i, j in zip(indices, indices[1:]))
    assert all(0 <= i < len(block) for i in indices)
    out = list(block)
    for i, exc in failures:
        assert isinstance(exc, Exception)
        assert np.isnan(block[i]).all()
        out[i] = exc
    return out
