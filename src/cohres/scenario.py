"""Scenario configuration: everything needed to synthesize tables.

A scenario pins the resonance, the background, the blend between them,
the angle-grid order and the initial pair, so that a scan is reproducible
bit for bit from one JSON file.  Complex numbers are stored as [re, im]
pairs; the format is self-describing and language-neutral.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

from .core import AmplitudeTable, AngleGrid, ChannelState, gauss_legendre_grid
from .core import _channel_violations, _finite, _grid_order, _instance, _items
from .core import _pair_violations, _real
from .errors import CohresError, TableValidationError
from .resonance import (
    BackgroundChannel,
    BackgroundSpec,
    BackgroundState,
    ExitChannel,
    ExitState,
    ResonanceSpec,
    _check_specs,
    synthesis_basis,
    synthesize_table,
)
from .tableio import _at, _cx, _cx_out, _load_object, _read_text, _reading, _state_in, _state_out
from .tableio import _numbers, _record, _typed

__all__ = ["ScenarioConfig", "read_scenario", "write_scenario"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Pole-plus-background scenario with its grid and initial pair.

    ``masses_amu`` carries the collision masses for kinematic bookkeeping
    (they never enter the amplitudes); ``energy_offset`` is a labelling
    offset only, recording which zero the scan energies are quoted
    against.  The pair, channel and grid-order rules of its tables and grid
    are checked here by the same ``core`` code.  Real fields are plain
    finite floats, ``grid_order`` an int and ``masses_amu`` read-only, so
    every scenario writes a strict JSON file that reads back.
    The grid and its ``synthesis_basis`` are built on first use and kept.
    """

    resonance: ResonanceSpec
    background: BackgroundSpec
    mix: float
    grid_order: int
    initial_pair: tuple[ChannelState, ChannelState]
    masses_amu: Mapping[str, float] = field(default_factory=dict)
    energy_offset: float = 0.0

    def __post_init__(self):
        offset = _finite(_real(self.energy_offset, "energy_offset"), "energy_offset")
        object.__setattr__(self, "energy_offset", offset)
        if not all(isinstance(k, str) for k in self.masses_amu):
            raise CohresError(f"masses_amu keys must be strings, got {list(self.masses_amu)!r}")
        masses = {str(k): _finite(_real(m, f"masses_amu.{k}"), f"masses_amu.{k}")
                  for k, m in self.masses_amu.items()}
        object.__setattr__(self, "masses_amu", MappingProxyType(masses))
        _instance(self.resonance, ResonanceSpec, "resonance")
        _instance(self.background, BackgroundSpec, "background")
        object.__setattr__(self, "mix", _check_specs(self.resonance, self.background, self.mix))
        object.__setattr__(self, "grid_order", _grid_order(self.grid_order, "grid_order"))
        pair = _items(self.initial_pair, "initial_pair", ChannelState)
        object.__setattr__(self, "initial_pair", pair)
        coverage = self.resonance._coverage
        if violations := _pair_violations(self.initial_pair) + _channel_violations(coverage):
            raise TableValidationError(violations)

    @cached_property
    def _grid(self) -> AngleGrid:
        return gauss_legendre_grid(self.grid_order)

    def grid(self) -> AngleGrid:
        """The scenario's Gauss-Legendre grid, built on its first use and kept."""
        return self._grid

    @cached_property
    def _basis(self) -> tuple:
        return synthesis_basis(self.resonance, self.background, self.grid(), self.mix)

    def table_at(self, energy: float) -> AmplitudeTable:
        """Synthesize the amplitude table at one total energy from the kept basis."""
        return synthesize_table(
            self.resonance,
            self.background,
            self.grid(),
            energy,
            self.initial_pair,
            self.mix,
            basis=self._basis,
        )

    def product_channels(self) -> tuple[str, ...]:
        return tuple(ch.arrangement for ch in self.resonance.exits)


def _scenario_to_dict(cfg: ScenarioConfig) -> dict:
    res = cfg.resonance
    bg = cfg.background
    return {
        "initial_pair": [_state_out(s) for s in cfg.initial_pair],
        "mix": cfg.mix,
        "grid_order": cfg.grid_order,
        "masses_amu": dict(cfg.masses_amu),
        "energy_offset_eV": cfg.energy_offset,
        "resonance": {
            "epsilon_r_eV": res.epsilon_r,
            "gamma_width_eV": res.gamma_width,
            "entrance": [_cx_out(g) for g in res.entrance],
            "exits": [
                {
                    "arrangement": ch.arrangement,
                    "states": [
                        {
                            **_state_out(s.state),
                            "coupling": _cx_out(s.coupling),
                            "shape": list(s.shape),
                        }
                        for s in ch.states
                    ],
                }
                for ch in res.exits
            ],
        },
        "background": {
            "reference_energy_eV": bg.reference_energy,
            "channels": [
                {
                    "arrangement": ch.arrangement,
                    "states": [
                        {
                            **_state_out(s.state),
                            "amplitude": _cx_out(s.amplitude),
                            "slope": _cx_out(s.slope),
                            "shape": list(s.shape),
                            "column_weights": [_cx_out(w) for w in s.column_weights],
                        }
                        for s in ch.states
                    ],
                }
                for ch in bg.channels
            ],
        },
    }


def _exit_state(s, at: str) -> ExitState:
    state = _state_in(s, at)
    _record(s, at, ("coupling", "shape"))
    coupling = _cx(s["coupling"], f"{at}.coupling")
    shape = _numbers(s["shape"], f"{at}.shape")
    with _at(at):
        return ExitState(state, coupling, shape)


def _background_state(s, at: str) -> BackgroundState:
    state = _state_in(s, at)
    _record(s, at, ("amplitude", "slope", "shape"))
    amplitude = _cx(s["amplitude"], f"{at}.amplitude")
    slope = _cx(s["slope"], f"{at}.slope")
    shape = _numbers(s["shape"], f"{at}.shape")
    weights = tuple(
        _cx(w, f"{at}.column_weights[{i}]")
        for i, w in enumerate(s.get("column_weights", [[1.0, 0.0], [1.0, 0.0]]))
    )
    with _at(at):
        return BackgroundState(state, amplitude, slope, shape, weights)


def _channels(docs, at: str, cls, state) -> tuple:
    """The channel records ``docs`` at ``at``; each fault names its record's place."""
    out = []
    for c, ch in enumerate(docs):
        _record(ch, f"{at}[{c}]", ("arrangement", "states"))
        label = _typed(ch["arrangement"], str, f"{at}[{c}].arrangement")
        states = tuple(state(s, f"{at}[{c}].states[{n}]") for n, s in enumerate(ch["states"]))
        with _at(f"{at}[{c}]"):
            out.append(cls(label, states))
    return tuple(out)


def _scenario_from_dict(doc: dict) -> ScenarioConfig:
    res_doc = doc["resonance"]
    resonance = ResonanceSpec(
        epsilon_r=_typed(res_doc["epsilon_r_eV"], float, "epsilon_r_eV"),
        gamma_width=_typed(res_doc["gamma_width_eV"], float, "gamma_width_eV"),
        entrance=tuple(_cx(g, f"entrance[{i}]") for i, g in enumerate(res_doc["entrance"])),
        exits=_channels(res_doc["exits"], "resonance.exits", ExitChannel, _exit_state),
    )
    channels = _channels(
        doc["background"]["channels"], "background.channels", BackgroundChannel, _background_state
    )
    reference_energy = doc["background"]["reference_energy_eV"]
    background = BackgroundSpec(_typed(reference_energy, float, "reference_energy_eV"), channels)
    return ScenarioConfig(
        resonance=resonance,
        background=background,
        mix=_typed(doc["mix"], float, "mix"),
        grid_order=_typed(doc["grid_order"], int, "grid_order"),
        initial_pair=tuple(
            _state_in(s, f"initial_pair[{i}]") for i, s in enumerate(doc["initial_pair"])
        ),
        masses_amu={
            k: _typed(m, float, f"masses_amu.{k}") for k, m in doc.get("masses_amu", {}).items()
        },
        energy_offset=_typed(doc.get("energy_offset_eV", 0.0), float, "energy_offset_eV"),
    )


def write_scenario(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(_scenario_to_dict(cfg), indent=2) + "\n", encoding="utf-8"
    )


def read_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file, each field taken only as its JSON type.

    Any fault is a MalformedFileError whose message starts with the path.
    """
    path = Path(path)
    doc = _load_object(_read_text(path), str(path))
    with _reading(str(path)):
        return _scenario_from_dict(doc)
