"""Stock models shared by demos and tests (sample run configs live in configs/).

Five models exercise every coupling family and spectral recipe:

  decoupled         zero coupling; pure phase rotation, no decay
  rwa-n1-resonant   one resonant mode, u = 0.35; closed-form coefficients,
                    periodic revivals, generator singular at u t = pi/2
  ohmic-rwa-n64     dense Ohmic band around resonance, number-conserving
                    couplings; clean decay and a very late recurrence.  The
                    narrow band keeps the |B_k|^4 participation small, so
                    finite-N ensemble statistics sit close to their
                    N -> infinity limits
  ohmic-pp-n64      wide Ohmic band, position-position couplings (v = u);
                    the dagger sector is active, C and D are nonzero
  flat-custom-n128  flat band with explicit complex v_k; densest spectrum,
                    longest recurrence time

Parameters were chosen so every model is strictly stable (positive-definite
quadratic form) and the three N >= 64 models decay to a plateau well before
their recurrence onset 2 pi / delta omega.
"""

from __future__ import annotations

import numpy as np

from .config import parse_config
from .errors import ParameterError
from .model import ModelSpec

__all__ = ["STOCK_MODEL_NAMES", "stock_model", "stock_config"]

STOCK_MODEL_NAMES = (
    "decoupled",
    "rwa-n1-resonant",
    "ohmic-rwa-n64",
    "ohmic-pp-n64",
    "flat-custom-n128",
)


def stock_model(name: str) -> ModelSpec:
    """Build one of the named stock models from its config section."""
    return parse_config({"model": stock_config(name)}).model


def stock_config(name: str) -> dict:
    """Model section of a run config for the named stock model."""
    if name == "decoupled":
        return {
            "nu": 1.0,
            "coupling_family": "RWA",
            "spectral": {"family": "FlatBand", "strength": 0.0,
                         "omega_min": 1.5, "omega_max": 2.5, "N": 1},
        }
    if name == "rwa-n1-resonant":
        return {
            "nu": 1.0,
            "coupling_family": "RWA",
            "spectral": {"family": "Explicit", "N": 1},
            "explicit": {"omegas": [1.0], "u_re": [0.35], "u_im": [0.0],
                         "v_re": [0.0], "v_im": [0.0]},
        }
    if name == "ohmic-rwa-n64":
        return {
            "nu": 1.0,
            "coupling_family": "RWA",
            "spectral": {"family": "OhmicExpCutoff", "strength": 0.10, "cutoff": 5.0,
                         "omega_min": 0.5, "omega_max": 1.6, "N": 64},
        }
    if name == "ohmic-pp-n64":
        return {
            "nu": 1.0,
            "coupling_family": "PositionPosition",
            "spectral": {"family": "OhmicExpCutoff", "strength": 0.05, "cutoff": 5.0,
                         "omega_min": 0.01, "omega_max": 8.0, "N": 64},
        }
    if name == "flat-custom-n128":
        # midpoint flat band with an explicit complex dagger channel
        n_modes, omega_min, omega_max, strength = 128, 0.2, 1.8, 0.02
        d_omega = (omega_max - omega_min) / n_modes
        omegas = omega_min + (np.arange(n_modes) + 0.5) * d_omega
        u = np.full(n_modes, np.sqrt(strength * d_omega), dtype=complex)
        v = 0.3 * u * np.exp(0.7j * np.arange(n_modes))
        return {
            "nu": 1.0,
            "coupling_family": "Custom",
            "spectral": {"family": "Explicit", "N": int(omegas.size)},
            "explicit": {
                "omegas": omegas.tolist(),
                "u_re": u.real.tolist(), "u_im": u.imag.tolist(),
                "v_re": v.real.tolist(), "v_im": v.imag.tolist(),
            },
        }
    raise ParameterError(f"unknown stock model {name!r}; choose from {STOCK_MODEL_NAMES}")
