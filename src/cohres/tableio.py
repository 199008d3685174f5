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

Both readers' field rules (``_typed``, ``_numbers``), fault rule (``_reading``)
and codecs for state records and [re, im] pairs live here, as does ``_fmt``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import AmplitudeTable, AngleGrid, ChannelBlock, ChannelState
from .errors import MalformedFileError, TableValidationError

__all__ = ["write_table", "read_table", "table_to_json", "table_from_json"]


def _fmt(x: float) -> str:
    # repr round-trips doubles exactly; inf/nan serialize as their tokens
    return repr(float(x))


_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _typed(x, kind: type, what: str):
    """``x`` if its JSON type is ``kind``; a float field also takes an int, never a bool."""
    if type(x) is kind or (kind is float and type(x) is int):
        return kind(x)  # only an int read as a float changes
    raise TypeError(f"{what} must be {_KINDS[kind]}, got {x!r}")


def _numbers(xs, what: str) -> list:
    """``xs`` if it is a JSON array of numbers, its element types checked in one step."""
    if type(xs) is not list:
        raise TypeError(f"{what} must be an array of numbers, got {xs!r}")
    if not {*map(type, xs)} <= {int, float}:
        for i, x in enumerate(xs):  # raises at the first element that is not a number
            _typed(x, float, f"{what}[{i}]")
    return xs


def _cx(pair, what: str) -> complex:
    if len(_numbers(pair, what)) != 2:
        raise TypeError(f"{what} must be [re, im], got {pair!r}")
    return complex(*pair)


def _cx_out(z: complex) -> list[float]:
    return [z.real, z.imag]


def _state_out(s: ChannelState) -> dict:
    return {"arrangement": s.arrangement, "v": s.v, "j": s.j, "m": s.m}


def _state_in(d: dict) -> ChannelState:
    arrangement = _typed(d["arrangement"], str, "arrangement")
    return ChannelState(arrangement, *(_typed(d[k], int, k) for k in "vjm"))


@contextmanager
def _reading(where: str):
    """Report a fault in the document at ``where`` as ``<where>: <Class>: <message>``."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedFileError(f"{where}: {type(exc).__name__}: {exc}") from exc


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
    with _reading(where):
        grid = AngleGrid(*(_numbers(doc["angle_grid"][k], k) for k in ("nodes_rad", "weights_sr")))
        pair = tuple(map(_state_in, doc["initial"]))
        blocks = []
        for idx, ch in enumerate(doc["channels"]):
            states = tuple(map(_state_in, ch["states"]))
            flat = _numbers(ch["amplitudes"], f"channels[{idx}].amplitudes")
            if len(flat) != (expected := len(states) * len(grid) * 4):
                raise ValueError(
                    f"channels[{idx}]: amplitude array has {len(flat)} numbers, "
                    f"expected {expected} (= states * nodes * 4)"
                )
            amps = np.asarray(flat, dtype=float).reshape(len(states), len(grid), 4).view(complex)
            blocks.append(ChannelBlock(_typed(ch["arrangement"], str, "arrangement"), states, amps))
        energy = _typed(doc["energy_eV"], float, "energy_eV")
    try:
        return AmplitudeTable(energy=energy, initial_pair=pair, grid=grid, channels=tuple(blocks))
    except TableValidationError as exc:  # built outside _reading: it keeps class and list
        raise TableValidationError(exc.violations, where) from None


def write_table(table: AmplitudeTable, path: str | Path) -> None:
    """Serialize a table; the result parses back field-for-field identical."""
    Path(path).write_text(table_to_json(table), encoding="utf-8")


def read_table(path: str | Path) -> AmplitudeTable:
    """Parse a table file; the table checks its own invariants as it is built.

    Raises MalformedFileError if the document is not UTF-8, does not parse, or
    has a field missing or not of its JSON type (see ``_typed``, ``_numbers``);
    TableValidationError, listing every violation, if it parses but violates
    table invariants; both messages start with the path.  OSError for I/O.
    """
    path = Path(path)
    return table_from_json(_read_text(path), where=str(path))
