"""Reference parameter sets for the three driving topologies.

A strongly pumped lambda system, a cascade system and a vee system: their
couplings, decays and probe carrier frequencies (MHz) are read from the
bundled CLI configs ``configs/<tag>.json``; the reference resonant group
velocities (nm/s) calibrate the angular-frequency convention.
"""

from __future__ import annotations

import json
from importlib import resources

from .model import Configuration, SystemParams

__all__ = [
    "REFERENCE_OMEGA_MHZ",
    "REFERENCE_VG_NM_PER_S",
    "bundled_config_path",
    "reference_params",
]


def bundled_config_path(tag: str):
    """Path to the packaged reference config for "lambda"/"cascade"/"vee"."""
    return resources.files("eit3").joinpath(f"configs/{tag}.json")


_BUNDLED = {cfg: json.loads(bundled_config_path(cfg.value).read_text(encoding="utf-8"))
            for cfg in Configuration}
_RATES = {cfg: {name: float(doc[name])
                for name in ("g_probe", "g_pump", "gamma_a", "gamma_b")}
          for cfg, doc in _BUNDLED.items()}

# probe carrier frequency per configuration, MHz
REFERENCE_OMEGA_MHZ = {cfg: float(doc["optics"]["omega_probe"])
                       for cfg, doc in _BUNDLED.items()}

# reference resonant group velocities, nm/s (calibration targets)
REFERENCE_VG_NM_PER_S = {
    Configuration.LAMBDA: 17543.7,
    Configuration.CASCADE: 16316.5,
    Configuration.VEE: 16558.0,
}


def reference_params(config: Configuration | str,
                     delta_probe: float = 0.0) -> SystemParams:
    """Reference SystemParams for a configuration (tag or enum)."""
    cfg = Configuration(config) if not isinstance(config, Configuration) else config
    return SystemParams(config=cfg, delta_probe=delta_probe, **_RATES[cfg])
