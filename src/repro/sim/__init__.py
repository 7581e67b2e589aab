"""Castro-like Sedov application: inputs parsing, driver, diagnostics."""

from .castro import CastroSim, OutputEvent, SimResult
from .diagnostics import radial_profile, shock_radius_estimate
from .inputs import DEFAULT_SEDOV_INPUTS, CastroInputs, InputsFile, parse_inputs

__all__ = [
    "CastroSim",
    "OutputEvent",
    "SimResult",
    "radial_profile",
    "shock_radius_estimate",
    "DEFAULT_SEDOV_INPUTS",
    "CastroInputs",
    "InputsFile",
    "parse_inputs",
]
