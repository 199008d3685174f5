"""Two-state coherent control of collisional cross sections.

Build 2x2 interference cross-section matrices from transition-amplitude
tables, extremize controlled cross sections and cross-section ratios over
the superposition parameters (s, phi12) in closed form, diagnose
resonance mediation via the Schwartz ratio, and synthesize
Breit-Wigner-plus-background tables to exercise all of it.

Importing the package loads the table and solver layer only; each name of
the synthesis and scan layer (``resonance``, ``scenario``, ``scan``) loads
its module when first used, and is read from that module on every use.
"""

import importlib

from .constants import reduced_mass, wavenumber
from .control import (
    ControlRange,
    controlled_ratio,
    cross_section_extrema,
    lattice_extrema,
    noncoherent_limits,
    ratio_extrema,
)
from .core import (
    AmplitudeTable,
    AngleGrid,
    ChannelBlock,
    ChannelState,
    SuperpositionKinematics,
    gauss_legendre_grid,
    kinematic_pair,
)
from .errors import (
    ChannelClosedError,
    CohresError,
    DegenerateChannelError,
    MalformedFileError,
    NodeOutOfRangeError,
    NonPositiveError,
    SpecMismatchError,
    TableValidationError,
    UnknownChannelError,
    ZeroDenominatorError,
)
from .tableio import read_table, write_table
from .xsection import (
    ControlParams,
    XsecMatrix,
    controlled_cross_section,
    cross_section_matrix,
    differential_matrix,
    schwartz_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeTable",
    "AngleGrid",
    "BackgroundChannel",
    "BackgroundSpec",
    "BackgroundState",
    "ChannelBlock",
    "ChannelClosedError",
    "ChannelScan",
    "ChannelState",
    "CohresError",
    "ControlParams",
    "ControlRange",
    "DegenerateChannelError",
    "ExitChannel",
    "ExitState",
    "MalformedFileError",
    "NodeOutOfRangeError",
    "NonPositiveError",
    "RatioScan",
    "ResonanceSpec",
    "ScanRow",
    "ScenarioConfig",
    "SpecMismatchError",
    "SuperpositionKinematics",
    "SynthesisBasis",
    "TableValidationError",
    "UnknownChannelError",
    "XsecMatrix",
    "ZeroDenominatorError",
    "breit_wigner_factor",
    "controlled_cross_section",
    "controlled_ratio",
    "cross_section_extrema",
    "cross_section_matrix",
    "differential_matrix",
    "energy_scan",
    "gauss_legendre_grid",
    "kinematic_pair",
    "lattice_extrema",
    "legendre_shape_norm",
    "lifetime_from_width",
    "noncoherent_limits",
    "ratio_extrema",
    "read_scenario",
    "read_table",
    "reduced_mass",
    "resonance_branching_ratio",
    "schwartz_ratio",
    "synthesize_table",
    "wavenumber",
    "width_from_lifetime",
    "write_scan_csv",
    "write_scenario",
    "write_table",
]

_LAZY_MODULES = ("resonance", "scenario", "scan")


def __getattr__(name: str):
    """A synthesis or scan name of ``__all__``, read from its module each time (PEP 562)."""
    if name in __all__:
        for modname in _LAZY_MODULES:
            module = importlib.import_module(f"{__name__}.{modname}")
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
