"""An exact oracle for the steady state, in Gaussian rationals.

Every float is a rational number, so the steady state of the master
equation at float inputs has exact entries in Q(i), the complex numbers
with rational parts.  Two paths reach them here:

- ``closed_form_state`` runs the transcribed closed forms
  (``eit3.analytic._TERMS``) unchanged on :class:`Gaussian` numbers;
- ``exact_state`` writes the master equation out again, apart from
  ``eit3.model``, applies it to the nine unit matrices and solves the
  trace-bordered 9x9 system by Gauss-Jordan elimination.

Both are exact, so they agree entry for entry when the closed forms are
transcribed right, and each is the truth against which a float state's
error is measured.  Matrices are dicts keyed by level labels ``(k, l)``,
``k, l`` in 1..3, not by array indices.
"""

from __future__ import annotations

import math
from fractions import Fraction

from eit3.analytic import _TERMS
from eit3.model import Configuration

LEVELS = (1, 2, 3)
PAIRS = [(k, l) for k in LEVELS for l in LEVELS]

# per configuration: the level pairs of the probe and of the pump, and the
# (upper, lower) levels of the decay channels of gamma_a and gamma_b
TRANSITIONS = {
    Configuration.LAMBDA: ((1, 3), (2, 3), ((3, 1), (3, 2))),
    Configuration.CASCADE: ((1, 2), (2, 3), ((2, 1), (3, 2))),
    Configuration.VEE: ((1, 3), (1, 2), ((2, 1), (3, 1))),
}


class Gaussian:
    """An exact complex number ``re + i im`` with Fraction parts.  An int,
    float, Fraction or complex operand is read exactly, so the closed
    forms' ``2 * x`` and ``1j * x`` run unchanged."""

    __slots__ = ("re", "im")
    __hash__ = None

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x) -> Gaussian:
        if isinstance(x, Gaussian):
            return x
        if isinstance(x, complex):
            return Gaussian(x.real, x.imag)
        return Gaussian(x)

    def __add__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Gaussian.of(other) - self

    def __mul__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Gaussian.of(other)
        norm = other.re ** 2 + other.im ** 2
        return Gaussian((self.re * other.re + self.im * other.im) / norm,
                        (self.im * other.re - self.re * other.im) / norm)

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __pow__(self, k: int):
        result = Gaussian(1)
        for _ in range(k):
            result = result * self
        return result

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        other = Gaussian.of(other)
        return self.re == other.re and self.im == other.im

    def __repr__(self):
        return f"Gaussian({self.re}, {self.im})"

    def conjugate(self) -> Gaussian:
        return Gaussian(self.re, -self.im)

    def distance(self, z: complex) -> float:
        """|self - z|, from the exact difference rounded once per part."""
        d = self - z
        return math.hypot(float(d.re), float(d.im))


def _product(a: dict, b: dict) -> dict:
    return {(k, l): sum((a[k, m] * b[m, l] for m in LEVELS
                         if a[k, m] and b[m, l]), Gaussian(0))
            for k, l in PAIRS}


def _matrix(pairs: dict) -> dict:
    """The matrix with ``pairs[k, l]`` at each given entry and 0 elsewhere."""
    return {kl: Gaussian.of(pairs.get(kl, 0)) for kl in PAIRS}


def _hamiltonian(params) -> dict:
    """The rotating-frame Hamiltonian: each coupling on both entries of its
    level pair, and on the diagonal the levels' energies, |1> at zero."""
    config = params.config
    probe, pump, _ = TRANSITIONS[config]
    dp, dq = Gaussian(params.delta_probe), Gaussian(params.delta_pump)
    energies = {Configuration.LAMBDA: {3: dp, 2: dp - dq},
                Configuration.CASCADE: {3: dp + dq, 2: dp},
                Configuration.VEE: {3: dp, 2: dq}}[config]
    entries = {(k, k): e for k, e in energies.items()}
    for (k, l), g in ((probe, params.g_probe), (pump, params.g_pump)):
        entries[k, l] = entries[l, k] = g
    return _matrix(entries)


def _master_equation(params):
    """rho -> drho/dt = i [rho, H] + sum_k Gamma_k (2 A rho A+ - A+A rho
    - rho A+A), with A = |lower><upper| for each decay channel."""
    H = _hamiltonian(params)
    _, _, channels = TRANSITIONS[params.config]
    decays = []
    for gamma, (upper, lower) in zip((params.gamma_a, params.gamma_b), channels):
        A, Ad = _matrix({(lower, upper): 1}), _matrix({(upper, lower): 1})
        decays.append((Gaussian(gamma), A, Ad, _product(Ad, A)))

    def rhs(rho: dict) -> dict:
        rho_H, H_rho = _product(rho, H), _product(H, rho)
        out = {kl: 1j * (rho_H[kl] - H_rho[kl]) for kl in PAIRS}
        for gamma, A, Ad, AdA in decays:
            jump = _product(_product(A, rho), Ad)
            rho_AdA, AdA_rho = _product(rho, AdA), _product(AdA, rho)
            for kl in PAIRS:
                out[kl] += gamma * (2 * jump[kl] - AdA_rho[kl] - rho_AdA[kl])
        return out

    return rhs


def _solve(rows: list, rhs: list) -> list:
    """Gauss-Jordan elimination in exact arithmetic; StopIteration when
    the matrix is singular."""
    n = len(rows)
    M = [list(row) + [b] for row, b in zip(rows, rhs)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c])
        M[c], M[p] = M[p], M[c]
        pivot = M[c][c]
        M[c] = [x / pivot for x in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [row[-1] for row in M]


def exact_state(params) -> dict:
    """The exact steady state of ``params`` (any real numbers, floats read
    exactly): the Liouvillian's column for each unit matrix, then its
    equation for rho_11 replaced by the trace, sum_k rho_kk = 1.  The
    three population equations sum to zero, so none is lost."""
    rhs = _master_equation(params)
    columns = [rhs(_matrix({mn: 1})) for mn in PAIRS]
    rows = [[column[kl] for column in columns] for kl in PAIRS]
    trace = PAIRS.index((1, 1))
    rows[trace] = [Gaussian(int(m == n)) for m, n in PAIRS]
    unit = [Gaussian(int(kl == (1, 1))) for kl in PAIRS]
    return dict(zip(PAIRS, _solve(rows, unit)))


def closed_form_terms(params) -> tuple:
    """``(D, n11, n22, n33, n12, n13, n23)`` of the transcribed closed forms,
    evaluated exactly (zero pump detuning)."""
    return _TERMS[params.config](*map(Gaussian, (
        params.g_probe, params.g_pump, params.gamma_a, params.gamma_b,
        params.delta_probe)))


def closed_form_state(params) -> dict:
    """The closed forms' state, rho_kl = n_kl / D, exactly."""
    D, n11, n22, n33, n12, n13, n23 = closed_form_terms(params)
    state = {(1, 1): n11 / D, (2, 2): n22 / D, (3, 3): n33 / D,
             (1, 2): n12 / D, (1, 3): n13 / D, (2, 3): n23 / D}
    for (k, l), r in list(state.items()):
        state[l, k] = r.conjugate()
    return state
