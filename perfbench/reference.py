"""A fixed CPU burst that gauges how fast the shared machine runs right now.

On a machine shared with other tenants the same work can take 1.5x longer
for minutes at a time.  The benchmark times this burst next to every sample
and quotes throughput and set-up time at one nominal machine speed: a sample
taken while the machine ran slow is scaled by how much the burst slowed.
The burst mixes the kinds of work eit3 does (small complex LAPACK calls, a
Kronecker product, interpreted Python) and uses numpy and Python only, never
eit3, so no change to the program can move it.
"""

from time import perf_counter

import numpy as np

# the burst's duration on the development machine; any constant would do,
# it only fixes the scale at which normalized values are quoted
NOMINAL_S = 0.010
_REPS = 80

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(9, 9)) + 1j * _rng.normal(size=(9, 9))
_B = np.ones(9, dtype=complex)
_H = _rng.normal(size=(3, 3)) + 0j
_I3 = np.eye(3)


def burst() -> float:
    """Seconds the fixed burst takes now."""
    t0 = perf_counter()
    for _ in range(_REPS):
        np.linalg.solve(_A, _B)
        np.linalg.svd(_A, compute_uv=False)
        np.kron(_H.T, _I3)
        acc = 0
        for k in range(300):
            acc += k * k
    return perf_counter() - t0
