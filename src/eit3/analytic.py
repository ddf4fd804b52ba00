"""Closed-form steady states for zero pump detuning.

Each configuration's stationary density matrix is a ratio of polynomials in
the couplings, decay constants and probe detuning: every element is a
numerator over one common real denominator D, with the three population
numerators summing exactly to D (normalization is built into the formulas).
The polynomials below are transcribed with their printed groupings and
evaluated in double precision, each power of a name taken once into a
local (``g13_4 = g13**4``); transcription fidelity is guarded by two
independent tests, the numerator-sum identity and element-wise agreement
with the numeric null-space solver.

These formulas assume the pump detuning is zero; the numeric solver covers
the general case.

A sweep of at least ``_GRID_PASS_POINTS`` detunings evaluates each term
function once per slice of up to ``_GRID_CHUNK`` points, on a
:class:`_Grid` holding the slice, instead of once per point.  The grid's
operators repeat CPython 3.10/3.11's float and complex arithmetic in
float64 arrays, so each state is the per-point state bit for bit and the
polynomials are written once.  CPython 3.14's C99
Annex G mixed arithmetic would change those bytes;
``test_grid_arithmetic_is_cpythons`` pins the interpreter's.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .model import Configuration, SystemParams

__all__ = [
    "PumpDetuningUnsupportedError",
    "DegenerateDenominatorError",
    "ClosedFormOverflowError",
    "steady_state_terms",
    "analytic_steady_state",
]

# |D| at or below DENOMINATOR_FLOOR * rate_scale**degree is treated as a
# vanishing denominator; relative to the rate scale, so that the unit the rates
# are given in does not decide it
DENOMINATOR_FLOOR = 1e-30


class PumpDetuningUnsupportedError(ValueError):
    """Closed forms are only available for zero pump detuning."""


class DegenerateDenominatorError(ZeroDivisionError):
    """Common denominator underflows (no unique stationary state)."""


class ClosedFormOverflowError(ValueError):
    """A closed-form term overflows double precision (couplings, decays or
    detuning too large for the polynomials)."""


def _lambda_terms(g13, g23, G31, G32, d):
    Gs = G31 + G32
    g13_2, g13_4, g13_6 = g13**2, g13**4, g13**6
    g23_2, g23_4 = g23**2, g23**4
    Gs_2 = Gs**2
    d_2, d_4 = d**2, d**4
    D = (G32 * g13_6 + g23_2 * (G31 + 2 * G32) * g13_4
         + ((2 * G31 + G32) * g23_4
            + Gs * (2 * g23_2 + G32 * Gs) * d_2) * g13_2
         + g23_2 * G31 * (g23_4 - 2 * d_2 * g23_2 + d_4 + Gs_2 * d_2))
    n11 = g23_2 * (G31 * d_4
                   + G31 * (g13_2 - 2 * g23_2 + Gs_2) * d_2
                   + (g13_2 + g23_2) * (G32 * g13_2 + g23_2 * G31))
    n22 = g13_2 * (G32 * g13_4 + g23_2 * Gs * g13_2
                   + G32 * Gs_2 * d_2 + g23_2 * G32 * d_2 + g23_4 * G31)
    n33 = g13_2 * g23_2 * Gs * d_2
    n12 = -g13 * g23 * (G32 * g13_4
                        + Gs * (g23_2 + 1j * G32 * d) * g13_2
                        + g23_2 * G31 * (g23_2 + 1j * (Gs + 1j * d) * d))
    n13 = g13 * g23_2 * d * (G32 * g13_2 + g23_2 * G31
                             + 1j * G31 * (Gs + 1j * d) * d)
    n23 = -g13_2 * g23 * d * (G31 * g23_2 + G32 * (g13_2 - 1j * Gs * d))
    return D, n11, n22, n33, n12, n13, n23


def _cascade_terms(g12, g23, G21, G32, d):
    Gs = G21 + G32
    g12_2, g12_4, g12_6 = g12**2, g12**4, g12**6
    g23_2, g23_4 = g23**2, g23**4
    G21_2, G21_3 = G21**2, G21**3
    G32_2, G32_3 = G32**2, G32**3
    d_2 = d**2
    D = (2 * G21 * G32 * g12_6
         + ((G21_2 + 4 * G32 * G21 + 2 * G32_2) * g23_2
            + G21 * G32 * ((G21 + 2 * G32)**2 + d_2)) * g12_4
         + ((2 * G21_2 + 3 * G32 * G21 + 2 * G32_2) * g23_4
            + ((2 * G21_2 + 4 * G32 * G21 + G32_2) * d_2
               + G32 * (4 * G21_3 + 7 * G32 * G21_2
                        + 6 * G32_2 * G21 + 2 * G32_3)) * g23_2
            + 2 * G21 * G32 * Gs * ((G21 + 2 * G32) * d_2
                                    + G32 * (G21_2 + G32 * G21 + G32_2))) * g12_2
         + G21 * Gs * (g23_2 + G32 * Gs)
         * (g23_4 + 2 * (G21 * G32 - d_2) * g23_2
            + (G21_2 + d_2) * (G32_2 + d_2)))
    n11 = (G21 * G32 * g12_6
           + G32 * (Gs * g23_2
                    + G21 * (G21_2 + 2 * G32 * G21 + 2 * G32_2 + d_2)) * g12_4
           + (G21_2 * g23_4
              + ((G21_2 + 3 * G32 * G21 + G32_2) * d_2
                 + G32 * (3 * G21_3 + 3 * G32 * G21_2
                          + 2 * G32_2 * G21 + G32_3)) * g23_2
              + G21 * G32 * Gs * ((G21 + 3 * G32) * d_2
                                  + G32 * (2 * G21_2 + G32 * G21 + G32_2))) * g12_2
           + G21 * Gs * (g23_2 + G32 * Gs)
           * (g23_4 + 2 * (G21 * G32 - d_2) * g23_2
              + (G21_2 + d_2) * (G32_2 + d_2)))
    n22 = g12_2 * (G21 * G32 * g12_4
                   + G32 * ((2 * G21 + G32) * g23_2 + 2 * G21 * G32 * Gs) * g12_2
                   + Gs * (g23_2 + G32 * Gs)
                   * (G32 * g23_2 + G21 * (G32_2 + d_2)))
    n33 = g12_2 * g23_2 * Gs * (G21 * g12_2 + Gs * (g23_2 + G21 * G32))
    n12 = 1j * g12 * (G21 * G32 * (G21 + 1j * d) * g12_4
                      + G32 * ((2 * G21 + G32) * g23_2 + 2 * G21 * G32 * Gs)
                      * (G21 + 1j * d) * g12_2
                      + G21 * Gs * (g23_2 + G32 * Gs)
                      * (g23_2 + (G21 + 1j * d) * (G32 + 1j * d))
                      * (G32 - 1j * d))
    n13 = g12 * g23 * (G21 * G32 * g12_4
                       + (-G32 * G21_3 + G32_3 * G21
                          + g23_2 * (-G21_2 + G32 * G21 + G32_2)) * g12_2
                       - G21 * Gs * (g23_2 + G32 * Gs)
                       * (g23_2 + (G21 + 1j * d) * (G32 + 1j * d)))
    n23 = 1j * g12_2 * g23 * Gs * (G21 * G32 * g12_2
                                   + G32 * Gs * (g23_2 + G21 * G32)
                                   + 1j * G21 * (g23_2 + G32 * Gs) * d)
    return D, n11, n22, n33, n12, n13, n23


def _vee_terms(g13, g12, G21, G31, d):
    Gs = G21 + G31
    g13_2, g13_4 = g13**2, g13**4
    g12_2, g12_4, g12_6 = g12**2, g12**4, g12**6
    G21_2, G21_3, G21_4 = G21**2, G21**3, G21**4
    G31_2, G31_3, G31_4 = G31**2, G31**3, G31**4
    Gs_2 = Gs**2
    d_2, d_3, d_4 = d**2, d**3, d**4
    K = g13_2 + G21 * Gs
    Q = K**2 + G21_2 * d_2
    D = (2 * G21 * G31 * g12_6
         + (2 * (G21_2 + G31 * G21 + G31_2) * g13_2
            + G21 * G31 * ((G21 + 2 * G31)**2 - 4 * d_2)) * g12_4
         + (2 * G21 * G31 * d_4
            + ((G21_2 + 6 * G31 * G21 + 2 * G31_2) * g13_2
               + 4 * G21 * G31_2 * Gs) * d_2
            + 2 * (g13_2 + G31_2) * (G21_2 + G31 * G21 + G31_2) * K) * g12_2
         + G21 * G31 * (2 * g13_2 + G31_2 + d_2) * Q)
    n11 = (G21 * G31 * g12_6
           + ((G21_2 + G31 * G21 + G31_2) * g13_2
              + G21 * G31 * (G21_2 + 2 * G31 * G21 + 2 * G31_2 - 2 * d_2)) * g12_4
           + ((G21_2 + G31 * G21 + G31_2) * g13_4
              + (G21_4 + 2 * G31 * G21_3 + 4 * G31_2 * G21_2
                 + 2 * G31_3 * G21 + G31_4
                 + G31 * (2 * G21 + G31) * d_2) * g13_2
              + G21 * G31 * (2 * G31 * G21_3 + (3 * G31_2 - d_2) * G21_2
                             + 2 * G31 * (G31_2 + d_2) * G21
                             + (G31_2 + d_2)**2)) * g12_2
           + G21 * G31 * (g13_2 + G31_2 + d_2) * Q)
    n22 = g12_2 * (G21 * G31 * g12_4
                   + ((G21_2 + G31_2) * g13_2
                      + 2 * G21 * G31 * (G31 * Gs - d_2)) * g12_2
                   + G31 * (G21 * g13_4
                            + (G21_3 + G31 * G21_2 + G31_2 * G21 + G31_3
                               + (3 * G21 + G31) * d_2) * g13_2
                            + G21 * (G31_2 + d_2) * (Gs_2 + d_2)))
    n33 = g13_2 * (G21 * G31 * g12_4
                   + ((G21_2 + G31_2) * g13_2
                      + G21 * Gs * (G21_2 + G31_2 + d_2)) * g12_2
                   + G21 * G31 * Q)
    n12 = 1j * g12 * (G21_2 * G31 * g12_4
                      + ((G21_3 + G31_2 * G21 + 2j * G31_2 * d) * g13_2
                         + 2 * G21_2 * G31 * (G31 * Gs - d_2)) * g12_2
                      + G21 * G31 * (g13_2 + G21 * (Gs - 1j * d))
                      * ((G21 + 2j * d) * g13_2
                         + (Gs + 1j * d) * (G31_2 + d_2)))
    n13 = 1j * g13 * (G21 * G31 * (G31 - 1j * d) * g12_4
                      + (1j * G21 * G31 * d_3 + G21 * G31 * Gs * d_2
                         + 1j * (g13_2 + G21 * G31) * (G31_2 - G21_2) * d
                         + G31 * (G21_2 + G31_2) * K) * g12_2
                      + G21 * G31 * (G31 + 1j * d) * Q)
    n23 = g12 * g13 * (G21 * G31 * g12_4
                       + ((G21_2 + G31_2) * g13_2
                          + G21 * G31 * (G21_2 + 2 * G31 * G21
                                         + (G31 + 1j * d)**2)) * g12_2
                       + G21 * G31 * (g13_2 + G21 * (Gs + 1j * d))
                       * (g13_2 + d_2 + G31 * Gs + 1j * G21 * d))
    return D, n11, n22, n33, n12, n13, n23


_TERMS = {
    Configuration.LAMBDA: _lambda_terms,
    Configuration.CASCADE: _cascade_terms,
    Configuration.VEE: _vee_terms,
}

# common degree of D and of every numerator in the rates (g, Gamma, Delta)
_DEGREE = {Configuration.LAMBDA: 7, Configuration.CASCADE: 8, Configuration.VEE: 8}
# DENOMINATOR_FLOOR ** (1 / degree): the floor tests compare deg-th roots
_FLOOR_ROOT = {config: DENOMINATOR_FLOOR ** (1 / deg)
               for config, deg in _DEGREE.items()}


def _point_terms(params: SystemParams, rates: tuple, delta: float,
                 rate_scale: float) -> tuple:
    """The terms at the float rates and probe detuning ``delta``, after the
    checks of :func:`steady_state_terms`, with ``rate_scale`` for that
    point's overflow message and denominator floor."""
    if params.delta_pump != 0.0:
        raise PumpDetuningUnsupportedError(
            "PumpDetuningUnsupported: closed-form steady states require "
            f"delta_pump = 0, got {params.delta_pump}")
    try:
        terms = _TERMS[params.config](*rates, delta)
        finite = all(map(cmath.isfinite, terms))
    except OverflowError:  # a float power raises; a float product gives inf
        finite = False
    if not finite:
        raise ClosedFormOverflowError(
            "ClosedFormOverflow: closed-form terms overflow double precision "
            f"(rate scale {rate_scale:.3e} MHz)")
    D = terms[0]
    deg = _DEGREE[params.config]
    # compared as deg-th roots: rate_scale**deg overflows from a rate scale of
    # about 1e44, where the terms are still finite
    if abs(D) ** (1 / deg) <= _FLOOR_ROOT[params.config] * rate_scale:
        raise DegenerateDenominatorError(
            f"DegenerateDenominator: |D| = {abs(D):.3e} underflows "
            f"{DENOMINATOR_FLOOR:g} * rate_scale**{deg}")
    return terms


def _float_rates(params: SystemParams) -> tuple:
    return (float(params.g_probe), float(params.g_pump),
            float(params.gamma_a), float(params.gamma_b))


def steady_state_terms(params: SystemParams) -> tuple:
    """Evaluate the closed-form denominator and numerators.

    Returns ``(D, n11, n22, n33, n12, n13, n23)``: the common denominator D,
    real and positive for physical parameters, and the numerator of each
    density-matrix element rho_kl = n_kl / D.

    Requires ``delta_pump == 0``; raises
    :class:`PumpDetuningUnsupportedError` otherwise,
    :class:`ClosedFormOverflowError` when a term overflows double precision
    (from couplings of about 1e51 upwards) and
    :class:`DegenerateDenominatorError` when |D| is at most
    ``DENOMINATOR_FLOOR * rate_scale**degree`` (for example with both
    couplings zero), with degree 7 for lambda and 8 for cascade and vee.
    The terms are evaluated in Python floats, whatever the parameters' float
    type.
    """
    return _point_terms(params, _float_rates(params), float(params.delta_probe),
                        params.rate_scale)


class _Grid:
    """A real or complex number at every point of a grid, whose operators
    give the bytes CPython 3.10/3.11 gives on Python floats and complexes.

    ``re`` and ``im`` are float64 arrays, or Python floats where a part is
    the same at every point; ``im`` is None for a real number.  Each float
    ``+``, ``-`` and ``*`` is one float64 ufunc call (nothing is fused into
    an FMA); a real operand of a complex operation is ``(x, 0.0)``, as
    CPython's ``to_complex`` makes it, and a product is ``_Py_c_prod``.
    ``z ** k`` is ``c_powu``'s square-and-multiply from ``(1, 0)``, and
    ``x ** k`` is Python's ``pow`` at each point, an ``OverflowError``
    read as inf (numpy's ``**`` rounds differently).  Each ``**`` computes
    anew, a Python ``pow`` loop over the grid for a real number, so the
    term functions take each power of a name once, into a local
    (``test_each_power_is_evaluated_once``).  CPython 3.14's mixed
    real/complex arithmetic (C99 Annex G) gives other bytes:
    ``test_grid_arithmetic_is_cpythons`` fails there.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re, self.im = re, im

    # the left operand stays left, as in CPython: a NaN's payload can
    # depend on the order
    def __add__(self, other):
        return _binary(_sum, self, other)

    def __radd__(self, other):
        return _binary(_sum, other, self)

    def __sub__(self, other):
        return _binary(_difference, self, other)

    def __rsub__(self, other):
        return _binary(_difference, other, self)

    def __mul__(self, other):
        return _binary(_product, self, other)

    def __rmul__(self, other):
        return _binary(_product, other, self)

    def __neg__(self):
        return _Grid(-self.re, None if self.im is None else -self.im)

    def __pow__(self, k: int):
        if self.im is None:
            return _Grid(_float_power(self.re, k))
        return _Grid(*_complex_power(self.re, self.im, k))


def _parts(x) -> tuple:
    if isinstance(x, _Grid):
        return x.re, x.im
    if isinstance(x, complex):
        return x.real, x.imag
    return float(x), None


def _imag(part):
    return 0.0 if part is None else part


def _binary(operation, a, b) -> _Grid:
    """``a op b``: the float operation on two real numbers, else the complex
    one on both promoted to ``(x, 0.0)``."""
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    if ai is not None or bi is not None:
        ai, bi = _imag(ai), _imag(bi)
    return _Grid(*operation(ar, ai, br, bi))


def _sum(ar, ai, br, bi) -> tuple:
    return ar + br, None if ai is None else ai + bi


def _difference(ar, ai, br, bi) -> tuple:
    return ar - br, None if ai is None else ai - bi


def _product(ar, ai, br, bi) -> tuple:
    if ai is None:
        return ar * br, None
    return ar * br - ai * bi, ar * bi + ai * br  # _Py_c_prod


def _power_or_inf(x: float, k: int) -> float:
    try:
        return x ** k
    except OverflowError:
        return math.inf


def _float_power(x: np.ndarray, k: int) -> np.ndarray:
    values = x.tolist()
    try:
        return np.array([v ** k for v in values])
    except OverflowError:
        return np.array([_power_or_inf(v, k) for v in values])


def _complex_power(re, im, k: int) -> tuple:
    # c_powu, without the square after the last bit
    r, p = (1.0, 0.0), (re, im)
    mask = 1
    while True:
        if k & mask:
            r = _product(*r, *p)
        mask <<= 1
        if mask > k:
            return r
        p = _product(*p, *p)


def _quotient(n, D) -> tuple:
    """complex(n) / D for a finite nonzero D: CPython's _Py_c_quot with
    b = (D, 0.0), which divides through by b.real."""
    ar, ai = _parts(n)
    ai = _imag(ai)
    ratio = 0.0 / D
    denom = D + 0.0 * ratio
    return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom


# grids of at least this many points are evaluated by _grid_pass; below it
# the pass's fixed cost (~0.2-0.45 ms) outweighs the scalar loop's ~10-20 µs
# a point (break-even measured at 22-30 points on the reference systems)
_GRID_PASS_POINTS = 32
# _grid_pass takes at most this many points at a time, which bounds its
# float64 temporaries; a 2001-point sweep is still one pass
_GRID_CHUNK = 2048


def _grid_pass(params: SystemParams, rates: tuple, scale,
               deltas: np.ndarray, points: list, flat: np.ndarray) -> list:
    """Write into ``flat`` the row of every point of ``deltas`` whose terms,
    evaluated once over all of ``deltas``, are finite and whose |D| is above
    the floor; return the indices of the other points (all of them when a
    power of the rates alone overflows a Python float), whose rows the
    scalar loop overwrites with its state or NaN and its own error.  Every
    kept row has the bytes of the scalar loop's.  The floor test is one
    array comparison with a relative margin of 1e-9; only the points that
    fail it, or sit within the margin, take the scalar loop's test in
    Python floats, so a point is kept exactly when that test keeps it."""
    deg = _DEGREE[params.config]
    with np.errstate(all="ignore"):  # inf and NaN leave the point to the loop
        try:
            D, *numerators = _TERMS[params.config](*rates, _Grid(deltas))
        except OverflowError:  # a power of the rates alone: every point fails
            return list(range(len(points)))
        D = D.re
        finite = np.isfinite(D)
        for term in numerators:
            for part in _parts(term):
                if part is not None:
                    finite &= np.isfinite(part)
        # the floor test of _point_terms: the limit is its product bit for
        # bit, but numpy's power and C's pow differ by a few ulp, so only a
        # point clearing the limit by the 1e-9 margin is kept here; the
        # others retake the test in Python floats (not numpy scalars, whose
        # ** rounds differently)
        root, floor = 1 / deg, _FLOOR_ROOT[params.config]
        limit = floor * np.maximum(scale, np.abs(deltas))
        kept = finite & (np.abs(D) ** root > limit * (1 + 1e-9))
        left = [i for i in np.flatnonzero(~kept).tolist()
                if not finite[i]
                or abs(float(D[i])) ** root <= floor * max(scale, abs(points[i]))]
        r11, r22, r33, r12, r13, r23 = (_quotient(n, D) for n in numerators)
    c23, c13, c12 = ((re, -im) for re, im in (r23, r13, r12))  # conjugates
    for j, (re, im) in enumerate((r33, c23, c13, r23, r22, c12, r13, r12, r11)):
        column = flat[:, j]
        column.real, column.imag = re, im
    return left


def _steady_state_rows(params: SystemParams, deltas) -> tuple[np.ndarray, list]:
    """Closed-form steady states of ``params`` at the probe detunings
    ``deltas`` as one (N, 3, 3) block, and the failures in grid order as
    (index, error) pairs; the row of a failed point is NaN.  The rates are
    read once; each point gets the checks and messages of
    ``steady_state_terms(replace(params, delta_probe=d))`` and Python's
    complex division by D.  ``deltas`` is a float ndarray of finite
    detunings.

    A grid of at least ``_GRID_PASS_POINTS`` points (and zero pump
    detuning) first goes through :func:`_grid_pass`: the same term
    functions, called once per slice of ``_GRID_CHUNK`` points with the
    slice as a :class:`_Grid`, whose arithmetic is CPython's.  The points
    it leaves, and every point of a smaller grid, are solved one by one in
    Python floats, so a one-point call pays nothing for the grid pass.  The
    rows and errors are the same bytes either way.
    """
    points = deltas.tolist()
    rates = _float_rates(params)
    # max over the rates first, then d: SystemParams.rate_scale at delta_pump = 0
    scale = max(params.g_probe, params.g_pump, params.gamma_a, params.gamma_b)
    block = np.empty((len(points), 3, 3), dtype=complex)
    flat = block.reshape(-1, 9)
    failures: list = []
    todo = range(len(points))
    if len(points) >= _GRID_PASS_POINTS and params.delta_pump == 0.0:
        todo = [start + i for start in range(0, len(points), _GRID_CHUNK)
                for i in _grid_pass(params, rates, scale,
                                    deltas[start:start + _GRID_CHUNK],
                                    points[start:start + _GRID_CHUNK],
                                    flat[start:start + _GRID_CHUNK])]
    for i in todo:
        d = points[i]
        try:
            D, *numerators = _point_terms(params, rates, d, max(scale, abs(d)))
        except (ValueError, DegenerateDenominatorError) as exc:
            failures.append((i, exc))
            flat[i] = complex(np.nan, np.nan)
            continue
        # Python's complex division: numpy's multiplies by a reciprocal and
        # rounds differently
        r11, r22, r33, r12, r13, r23 = (complex(n) / D for n in numerators)
        flat[i] = (r33, r23.conjugate(), r13.conjugate(),
                   r23, r22, r12.conjugate(),
                   r13, r12, r11)
    return block, failures


def analytic_steady_state(params: SystemParams) -> np.ndarray:
    """Full closed-form steady state assembled with rho_lk = conj(rho_kl).

    The per-point path of :func:`_steady_state_rows`, behind
    ``solve_grid(params, deltas, "analytic")``, for one point (a grid pass
    needs ``_GRID_PASS_POINTS``): every entry is the Python
    division complex(n_kl) / D of :func:`steady_state_terms`' terms, and
    the errors are that function's.
    """
    block, failures = _steady_state_rows(
        params, np.array([params.delta_probe], dtype=float))
    if failures:
        raise failures[0][1]
    return block[0]
