"""SU(3) shift operators and Gell-Mann matrices for the three-level basis.

Everything in this package uses the basis order (|3>, |2>, |1>): row/column
0 is the upper level |3>, 1 the middle level |2>, 2 the lower level |1>,
with the energy hierarchy E1 < E2 < E3.  Density-matrix entries therefore
read rho[2, 0] = rho_13, rho[2, 1] = rho_12, rho[1, 0] = rho_23, and so on.

The shift-operator families couple fixed level pairs:

    T: 2 <-> 3      U: 1 <-> 2      V: 1 <-> 3

with T+ = |3><2|, U+ = |2><1|, V+ = |3><1|, X- = (X+)^dagger, and the
diagonal generators X3 = [X+, X-]/2 in the usual SU(2)-subalgebra
normalization.

Because the basis order above is reversed relative to the common Gell-Mann
convention, the lambda matrices here are defined directly by the level pair
they project: lambda_4/lambda_5 are the Hermitian/anti-Hermitian pair on
1 <-> 3 and lambda_6/lambda_7 the pair on 1 <-> 2, normalized so that
Tr[lam_a lam_b] = 2 delta_ab.  The signs of lambda_5 and lambda_7 give
Tr[rho lam_5] = 2 Im rho_13 and Tr[rho lam_7] = 2 Im rho_12: the tests'
reference for the optics' absorption, non-negative on the reference sweeps.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LEVEL_INDEX",
    "shift_operator",
    "gell_mann",
]

LEVEL_INDEX = {1: 2, 2: 1, 3: 0}  # level label -> matrix row/column

# (upper level, lower level) coupled by each family
_FAMILY_LEVELS = {"T": (3, 2), "U": (2, 1), "V": (3, 1)}


def _ketbra(i: int, j: int) -> np.ndarray:
    """|i><j| for level labels i, j in {1, 2, 3}."""
    m = np.zeros((3, 3), dtype=complex)
    m[LEVEL_INDEX[i], LEVEL_INDEX[j]] = 1.0
    return m


def shift_operator(family: str, component: str) -> np.ndarray:
    """Return one of the nine SU(3) shift operators as a 3x3 complex array.

    ``family`` is one of "T", "U", "V" and ``component`` one of "plus",
    "minus", "three".  The raising operators are T+ = |3><2|, U+ = |2><1|,
    V+ = |3><1|; "minus" gives the adjoint and "three" the diagonal
    generator with [X+, X-] = 2 X3.
    """
    if family not in _FAMILY_LEVELS:
        raise ValueError(f"unknown shift-operator family {family!r}")
    up, lo = _FAMILY_LEVELS[family]
    if component == "plus":
        return _ketbra(up, lo)
    if component == "minus":
        return _ketbra(lo, up)
    if component == "three":
        return 0.5 * (_ketbra(up, up) - _ketbra(lo, lo))
    raise ValueError(f"unknown shift-operator component {component!r}")


def _build_gell_mann() -> tuple[np.ndarray, ...]:
    lam1 = _ketbra(3, 2) + _ketbra(2, 3)
    lam2 = -1j * _ketbra(3, 2) + 1j * _ketbra(2, 3)
    lam3 = _ketbra(3, 3) - _ketbra(2, 2)
    lam4 = _ketbra(3, 1) + _ketbra(1, 3)
    # sign chosen so Tr[rho lam5] = 2 Im rho_13 (absorption >= 0 on sweeps)
    lam5 = 1j * _ketbra(1, 3) - 1j * _ketbra(3, 1)
    lam6 = _ketbra(2, 1) + _ketbra(1, 2)
    lam7 = 1j * _ketbra(1, 2) - 1j * _ketbra(2, 1)
    lam8 = (_ketbra(3, 3) + _ketbra(2, 2) - 2.0 * _ketbra(1, 1)) / np.sqrt(3.0)
    return (lam1, lam2, lam3, lam4, lam5, lam6, lam7, lam8)


_GELL_MANN = _build_gell_mann()


def gell_mann(index: int) -> np.ndarray:
    """Return lambda_a for a in 1..8 (copy; safe to mutate)."""
    if not 1 <= index <= 8:
        raise ValueError(f"Gell-Mann index must be in 1..8, got {index}")
    return _GELL_MANN[index - 1].copy()
