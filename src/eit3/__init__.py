"""eit3: steady-state EIT in lambda, cascade and vee three-level systems.

Builds rotating-frame Liouvillians from SU(3) shift operators, solves the
optical Bloch equations for steady states (numeric null-space solve and
closed forms), and maps them to probe-field dispersion, absorption, group
velocity, populations and dark-state mixing angles across detuning sweeps.
"""

__version__ = "0.1.0"

from .model import Configuration, SystemParams, Liouvillian  # noqa: F401
from .model import build_hamiltonian_rwa, build_liouvillian, obe_rhs  # noqa: F401
from .steady import steady_state, evolve, Trajectory  # noqa: F401
from .analytic import analytic_steady_state, steady_state_terms  # noqa: F401
from .optics import (  # noqa: F401
    CALIBRATED_CONVENTION,
    OpticalConstants,
    Spectrum,
    sweep,
    calibration_table,
)
from .darkstate import (  # noqa: F401
    estimate_mixing_angle,
    dark_state_vector,
    verify_dark_state,
)
from .presets import reference_params, REFERENCE_OMEGA_MHZ, REFERENCE_VG_NM_PER_S  # noqa: F401
