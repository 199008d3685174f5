"""Scenario configuration: everything needed to synthesize tables.

A scenario pins the resonance, the background, the blend between them,
the angle-grid order and the initial pair, so that a scan is reproducible
bit for bit from one JSON file.  Complex numbers are stored as [re, im]
pairs; the format is self-describing and language-neutral.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .core import AmplitudeTable, AngleGrid, ChannelState, gauss_legendre_grid
from .errors import MalformedFileError
from .resonance import (
    BackgroundChannel,
    BackgroundSpec,
    BackgroundState,
    ExitChannel,
    ExitState,
    ResonanceSpec,
    synthesize_table,
)
from .tableio import _cx, _cx_out, _load_object, _state_in, _state_out

__all__ = ["ScenarioConfig", "read_scenario", "write_scenario"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Pole-plus-background scenario with its grid and initial pair.

    ``masses_amu`` carries the collision masses for kinematic bookkeeping
    (they never enter the amplitudes); ``energy_offset`` is a labelling
    offset only, recording which zero the scan energies are quoted
    against.
    """

    resonance: ResonanceSpec
    background: BackgroundSpec
    mix: float
    grid_order: int
    initial_pair: tuple[ChannelState, ChannelState]
    masses_amu: dict[str, float] = field(default_factory=dict)
    energy_offset: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.mix <= 1.0:
            raise ValueError(f"mix must lie in [0, 1], got {self.mix!r}")
        if self.grid_order < 1:
            raise ValueError(f"grid_order must be >= 1, got {self.grid_order!r}")
        object.__setattr__(self, "initial_pair", tuple(self.initial_pair))

    def grid(self) -> AngleGrid:
        return gauss_legendre_grid(self.grid_order)

    def table_at(self, energy: float, grid: AngleGrid | None = None) -> AmplitudeTable:
        """Synthesize the amplitude table at one total energy."""
        return synthesize_table(
            self.resonance,
            self.background,
            grid if grid is not None else self.grid(),
            energy,
            self.initial_pair,
            self.mix,
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


def _scenario_from_dict(doc: dict, where: str = "scenario") -> ScenarioConfig:
    try:
        res_doc = doc["resonance"]
        bg_doc = doc["background"]
        exits = tuple(
            ExitChannel(
                arrangement=str(ch["arrangement"]),
                states=tuple(
                    ExitState(
                        state=_state_in(s, f"{where}.resonance"),
                        coupling=_cx(s["coupling"], f"{where}.resonance.coupling"),
                        shape=tuple(float(c) for c in s["shape"]),
                    )
                    for s in ch["states"]
                ),
            )
            for ch in res_doc["exits"]
        )
        resonance = ResonanceSpec(
            epsilon_r=float(res_doc["epsilon_r_eV"]),
            gamma_width=float(res_doc["gamma_width_eV"]),
            entrance=tuple(_cx(g, f"{where}.resonance.entrance") for g in res_doc["entrance"]),
            exits=exits,
        )
        channels = tuple(
            BackgroundChannel(
                arrangement=str(ch["arrangement"]),
                states=tuple(
                    BackgroundState(
                        state=_state_in(s, f"{where}.background"),
                        amplitude=_cx(s["amplitude"], f"{where}.background.amplitude"),
                        slope=_cx(s["slope"], f"{where}.background.slope"),
                        shape=tuple(float(c) for c in s["shape"]),
                        column_weights=tuple(
                            _cx(w, f"{where}.background.column_weights")
                            for w in s.get("column_weights", [[1.0, 0.0], [1.0, 0.0]])
                        ),
                    )
                    for s in ch["states"]
                ),
            )
            for ch in bg_doc["channels"]
        )
        background = BackgroundSpec(
            reference_energy=float(bg_doc["reference_energy_eV"]), channels=channels
        )
        pair = doc["initial_pair"]
        if len(pair) != 2:
            raise MalformedFileError(f"{where}.initial_pair: need exactly two states")
        return ScenarioConfig(
            resonance=resonance,
            background=background,
            mix=float(doc["mix"]),
            grid_order=int(doc["grid_order"]),
            initial_pair=(
                _state_in(pair[0], f"{where}.initial_pair"),
                _state_in(pair[1], f"{where}.initial_pair"),
            ),
            masses_amu={str(k): float(v) for k, v in doc.get("masses_amu", {}).items()},
            energy_offset=float(doc.get("energy_offset_eV", 0.0)),
        )
    except MalformedFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"{where}: {exc!r}") from exc


def write_scenario(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(_scenario_to_dict(cfg), indent=2) + "\n", encoding="utf-8"
    )


def read_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    doc = _load_object(path.read_text(encoding="utf-8"), str(path))
    return _scenario_from_dict(doc, where=str(path))
