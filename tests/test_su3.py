"""SU(3) operator algebra: ladder structure, Gell-Mann orthonormality,
projection identities, and the scalar-loop reference for matrix algebra."""

import itertools

import numpy as np
import pytest

from eit3.su3 import gell_mann, shift_operator

FAMILIES = ("T", "U", "V")
COMPONENTS = ("plus", "minus", "three")


def matmul_reference(a, b):
    """Scalar triple-loop product, the independent oracle for @."""
    out = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            acc = 0.0 + 0.0j
            for k in range(3):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def test_nine_distinct_shift_operators():
    ops = [shift_operator(f, c) for f in FAMILIES for c in COMPONENTS]
    assert len(ops) == 9
    for a, b in itertools.combinations(ops, 2):
        assert np.abs(a - b).max() > 0


def test_ladder_operators_have_single_unit_entry():
    for family in FAMILIES:
        for component in ("plus", "minus"):
            op = shift_operator(family, component)
            nz = np.argwhere(op != 0)
            assert len(nz) == 1
            assert op[tuple(nz[0])] == 1.0


def test_three_components_are_diagonal():
    for family in FAMILIES:
        op = shift_operator(family, "three")
        assert np.abs(op - np.diag(np.diag(op))).max() == 0.0


def test_v_plus_is_upper_to_lower_projector():
    # single 1 in the |3>-row, |1>-column of the (|3>,|2>,|1>) layout
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 2] = 1.0
    assert np.array_equal(shift_operator("V", "plus"), expected)


def test_minus_is_adjoint_of_plus():
    for family in FAMILIES:
        plus = shift_operator(family, "plus")
        minus = shift_operator(family, "minus")
        assert np.array_equal(plus.conj().T, minus)


@pytest.mark.parametrize("family", FAMILIES)
def test_ladder_commutator_closes_on_three(family):
    plus = shift_operator(family, "plus")
    minus = shift_operator(family, "minus")
    three = shift_operator(family, "three")
    lhs = matmul_reference(plus, minus) - matmul_reference(minus, plus)
    assert np.abs(lhs - 2.0 * three).max() <= 1e-14


def test_v_plus_v_minus_is_upper_projector():
    prod = matmul_reference(shift_operator("V", "plus"), shift_operator("V", "minus"))
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = 1.0
    assert np.abs(prod - expected).max() <= 1e-14


def test_gell_mann_trace_orthonormality():
    for a in range(1, 9):
        for b in range(1, 9):
            tr = np.trace(gell_mann(a) @ gell_mann(b))
            expected = 2.0 if a == b else 0.0
            assert abs(tr - expected) <= 1e-14


def test_gell_mann_hermitian_traceless():
    for a in range(1, 9):
        lam = gell_mann(a)
        assert np.abs(lam - lam.conj().T).max() <= 1e-14
        assert abs(np.trace(lam)) <= 1e-14


def test_gell_mann_projects_probe_coherences(rng):
    # symbolic expansion of the trace: lam4/lam5 pick Re/Im rho_13,
    # lam6/lam7 pick Re/Im rho_12, each with weight 2
    x, y, u, v = rng.normal(size=4)
    rho = np.array([[0.3, 0.1, x - 1j * y],
                    [0.1, 0.4, u - 1j * v],
                    [x + 1j * y, u + 1j * v, 0.3]], dtype=complex)
    # rho[2, 0] = rho_13 = x + iy, rho[2, 1] = rho_12 = u + iv
    assert abs(np.trace(rho @ gell_mann(4)) - 2 * x) <= 1e-14
    assert abs(np.trace(rho @ gell_mann(5)) - 2 * y) <= 1e-14
    assert abs(np.trace(rho @ gell_mann(6)) - 2 * u) <= 1e-14
    assert abs(np.trace(rho @ gell_mann(7)) - 2 * v) <= 1e-14


def test_commutator_of_t_ladder():
    plus, minus = shift_operator("T", "plus"), shift_operator("T", "minus")
    lhs = plus @ minus - minus @ plus
    assert np.abs(lhs - 2 * shift_operator("T", "three")).max() <= 1e-14


def test_matrix_algebra_matches_scalar_loop(rng):
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.abs(a @ b - matmul_reference(a, b)).max() <= 1e-13
        loop_sum = np.array([[a[i, j] + b[i, j] for j in range(3)] for i in range(3)])
        assert np.array_equal(a + b, loop_sum)
        loop_adj = np.array([[np.conj(a[j, i]) for j in range(3)] for i in range(3)])
        assert np.array_equal(a.conj().T, loop_adj)


def test_input_validation():
    with pytest.raises(ValueError):
        shift_operator("W", "plus")
    with pytest.raises(ValueError):
        shift_operator("T", "up")
    with pytest.raises(ValueError):
        gell_mann(0)
    with pytest.raises(ValueError):
        gell_mann(9)
