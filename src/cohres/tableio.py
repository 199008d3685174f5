"""On-disk amplitude tables.

One JSON document per table: energy, the two initial states, the angle
grid, and per product arrangement the final states plus a flat amplitude
array of [re1, im1, re2, im2] groups in state-major, angle-minor order.
Floats are serialized with repr, which round-trips doubles exactly, so
read(write(t)) is bit-identical and re-serialization reproduces the file
byte for byte.

Externally computed amplitudes enter the package through this format:
the producer resolves its own scattering output onto an angle grid and
writes this document; partial-wave resummation conventions stay on the
producer's side of the contract.

The JSON codec for state records and [re, im] complex numbers, and the
repr float formatter of the CSV and command-line output, live here too.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import AmplitudeTable, AngleGrid, ChannelBlock, ChannelState, validate_table
from .errors import MalformedFileError, TableValidationError

__all__ = ["write_table", "read_table", "table_to_json", "table_from_json"]


def _fmt(x: float) -> str:
    # repr round-trips doubles exactly; inf/nan serialize as their tokens
    return repr(float(x))


def _cx(pair, where: str) -> complex:
    try:
        re, im = pair
        return complex(float(re), float(im))
    except (TypeError, ValueError) as exc:
        raise MalformedFileError(f"{where}: expected [re, im], got {pair!r}") from exc


def _cx_out(z: complex) -> list[float]:
    return [z.real, z.imag]


def _state_out(s: ChannelState) -> dict:
    return {"arrangement": s.arrangement, "v": s.v, "j": s.j, "m": s.m}


def _state_in(d: dict, where: str) -> ChannelState:
    try:
        return ChannelState(
            arrangement=str(d["arrangement"]), v=int(d["v"]), j=int(d["j"]), m=int(d["m"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"{where}: bad state record {d!r}: {exc}") from exc


def _flatten_amplitudes(a: np.ndarray) -> list[float]:
    # (n_states, n_nodes, 2) complex -> flat [re1, im1, re2, im2] per (state, node)
    out = np.empty(a.shape[:2] + (4,), dtype=float)
    out[:, :, 0] = a[:, :, 0].real
    out[:, :, 1] = a[:, :, 0].imag
    out[:, :, 2] = a[:, :, 1].real
    out[:, :, 3] = a[:, :, 1].imag
    return [float(x) for x in out.ravel()]


def _unflatten_amplitudes(flat: list, n_states: int, n_nodes: int, where: str) -> np.ndarray:
    expected = n_states * n_nodes * 4
    if len(flat) != expected:
        raise MalformedFileError(
            f"{where}: amplitude array has {len(flat)} numbers, expected "
            f"{expected} (= states * nodes * 4)"
        )
    arr = np.asarray(flat, dtype=float).reshape(n_states, n_nodes, 4)
    out = np.empty((n_states, n_nodes, 2), dtype=complex)
    out[:, :, 0] = arr[:, :, 0] + 1j * arr[:, :, 1]
    out[:, :, 1] = arr[:, :, 2] + 1j * arr[:, :, 3]
    return out


def table_to_json(table: AmplitudeTable) -> str:
    doc = {
        "energy_eV": table.energy,
        "initial": [_state_out(s) for s in table.initial_pair],
        "angle_grid": {
            "nodes_rad": [float(x) for x in table.grid.nodes],
            "weights_sr": [float(w) for w in table.grid.weights],
        },
        "channels": [
            {
                "arrangement": b.arrangement,
                "states": [_state_out(s) for s in b.states],
                "amplitudes": _flatten_amplitudes(b.amplitudes),
            }
            for b in table.channels
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def table_from_json(text: str, where: str = "<string>") -> AmplitudeTable:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFileError(
            f"{where}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise MalformedFileError(f"{where}: top level must be an object")
    try:
        grid_doc = doc["angle_grid"]
        grid = AngleGrid(
            nodes=np.asarray(grid_doc["nodes_rad"], dtype=float),
            weights=np.asarray(grid_doc["weights_sr"], dtype=float),
        )
        initial = doc["initial"]
        if not isinstance(initial, list) or len(initial) != 2:
            raise MalformedFileError(f"{where}.initial: need exactly two state records")
        pair = (
            _state_in(initial[0], f"{where}.initial[0]"),
            _state_in(initial[1], f"{where}.initial[1]"),
        )
        blocks = []
        for idx, ch in enumerate(doc["channels"]):
            states = tuple(
                _state_in(s, f"{where}.channels[{idx}].states") for s in ch["states"]
            )
            amps = _unflatten_amplitudes(
                ch["amplitudes"], len(states), len(grid), f"{where}.channels[{idx}]"
            )
            blocks.append(
                ChannelBlock(
                    arrangement=str(ch["arrangement"]), states=states, amplitudes=amps
                )
            )
        table = AmplitudeTable(
            energy=float(doc["energy_eV"]),
            initial_pair=pair,
            grid=grid,
            channels=tuple(blocks),
        )
    except MalformedFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"{where}: {exc!r}") from exc

    violations = validate_table(table)
    if violations:
        raise TableValidationError(violations)
    return table


def write_table(table: AmplitudeTable, path: str | Path) -> None:
    """Serialize a table; the result parses back field-for-field identical."""
    Path(path).write_text(table_to_json(table), encoding="utf-8")


def read_table(path: str | Path) -> AmplitudeTable:
    """Parse and validate a table file.

    Raises MalformedFileError (with the file locus) if the document cannot
    be parsed, TableValidationError if it parses but violates table
    invariants, and OSError for I/O failures.
    """
    path = Path(path)
    return table_from_json(path.read_text(encoding="utf-8"), where=str(path))
