"""On-disk amplitude tables.

One JSON document per table: energy, the two initial states, the angle
grid, and per product arrangement the final states plus a flat amplitude
array of [re1, im1, re2, im2] groups in state-major, angle-minor order.
That flat array is the C-order memory layout of the complex
(n_states, n_nodes, 2) amplitude array read as float64, so encoding and
decoding are views of one another.  Floats are serialized with repr,
which round-trips doubles exactly, so read(write(t)) is bit-identical,
signed zeros included, and re-serialization reproduces the file byte for
byte.

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

from .core import AmplitudeTable, AngleGrid, ChannelBlock, ChannelState
from .errors import CohresError, MalformedFileError

__all__ = ["write_table", "read_table", "table_to_json", "table_from_json"]


def _fmt(x: float) -> str:
    # repr round-trips doubles exactly; inf/nan serialize as their tokens
    return repr(float(x))


def _cx(pair, where: str) -> complex:
    try:
        re, im = pair
        return complex(float(re), float(im))
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedFileError(f"{where}: expected [re, im], got {pair!r}") from exc


def _cx_out(z: complex) -> list[float]:
    return [z.real, z.imag]


def _state_out(s: ChannelState) -> dict:
    return {"arrangement": s.arrangement, "v": s.v, "j": s.j, "m": s.m}


def _int_in(d: dict, key: str) -> int:
    """``d[key]`` if it is a JSON integer; ``int()`` would truncate 64.9 and parse "64"."""
    x = d[key]
    if not isinstance(x, int) or isinstance(x, bool):
        raise CohresError(f"{key} must be an integer, got {x!r}")
    return x


def _state_in(d: dict, where: str) -> ChannelState:
    try:
        return ChannelState(
            arrangement=str(d["arrangement"]),
            v=_int_in(d, "v"),
            j=_int_in(d, "j"),
            m=_int_in(d, "m"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"{where}: bad state record {d!r}: {exc}") from exc


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"{path}: not UTF-8: {exc}") from exc


def _load_object(text: str, where: str) -> dict:
    """Parse a JSON document whose top level must be an object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFileError(
            f"{where}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
        raise MalformedFileError(f"{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedFileError(f"{where}: top level must be an object")
    return doc


def table_to_json(table: AmplitudeTable) -> str:
    doc = {
        "energy_eV": table.energy,
        "initial": [_state_out(s) for s in table.initial_pair],
        "angle_grid": {
            "nodes_rad": table.grid.nodes.tolist(),
            "weights_sr": table.grid.weights.tolist(),
        },
        "channels": [
            {
                "arrangement": b.arrangement,
                "states": [_state_out(s) for s in b.states],
                "amplitudes": b.amplitudes.view(float).ravel().tolist(),
            }
            for b in table.channels
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def table_from_json(text: str, where: str = "<string>") -> AmplitudeTable:
    doc = _load_object(text, where)
    try:
        grid_doc = doc["angle_grid"]
        grid = AngleGrid(nodes=grid_doc["nodes_rad"], weights=grid_doc["weights_sr"])
        pair = tuple(
            _state_in(s, f"{where}.initial[{i}]") for i, s in enumerate(doc["initial"])
        )
        blocks = []
        for idx, ch in enumerate(doc["channels"]):
            states = tuple(
                _state_in(s, f"{where}.channels[{idx}].states") for s in ch["states"]
            )
            flat = ch["amplitudes"]
            expected = len(states) * len(grid) * 4
            if len(flat) != expected:
                raise MalformedFileError(
                    f"{where}.channels[{idx}]: amplitude array has {len(flat)} numbers, "
                    f"expected {expected} (= states * nodes * 4)"
                )
            amps = np.asarray(flat, dtype=float).reshape(len(states), len(grid), 4).view(complex)
            blocks.append(
                ChannelBlock(
                    arrangement=str(ch["arrangement"]), states=states, amplitudes=amps
                )
            )
        energy = float(doc["energy_eV"])
    except MalformedFileError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedFileError(f"{where}: {exc!r}") from exc
    # outside the try: a TableValidationError is a ValueError, and must keep its list
    return AmplitudeTable(energy=energy, initial_pair=pair, grid=grid, channels=tuple(blocks))


def write_table(table: AmplitudeTable, path: str | Path) -> None:
    """Serialize a table; the result parses back field-for-field identical."""
    Path(path).write_text(table_to_json(table), encoding="utf-8")


def read_table(path: str | Path) -> AmplitudeTable:
    """Parse a table file; the table checks its own invariants as it is built.

    Raises MalformedFileError (with the file locus) if the document is not
    UTF-8 or cannot be parsed, TableValidationError (listing every
    violation) if it parses but violates table invariants, and OSError for
    I/O failures.
    """
    path = Path(path)
    return table_from_json(_read_text(path), where=str(path))
