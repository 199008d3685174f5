"""On-disk amplitude tables.

One JSON document per table: energy, the two initial states, the angle
grid, and per product arrangement the final states plus a flat amplitude
array of [re1, im1, re2, im2] groups in state-major, angle-minor order.
That flat array is the C-order memory layout of the complex
(n_states, n_nodes, 2) amplitude array read as float64, so encoding and
decoding are views of one another.  Floats are serialized with repr,
which round-trips doubles exactly, so read(write(t)) is bit-identical,
signed zeros included, and re-serialization reproduces the file byte for
byte.  The text is exactly ``json.dumps(doc, indent=2) + "\n"``, labels
escaped by json; ``table_to_json`` writes that fixed layout itself, since
json's indenting encoder is pure Python.

Externally computed amplitudes enter the package through this format:
the producer resolves its own scattering output onto an angle grid and
writes this document; partial-wave resummation conventions stay on the
producer's side of the contract.

Both readers' field rules (``_typed``, ``_numbers``, ``_array``, ``_record``),
fault rules (``_reading``, ``_at``) and codecs for state records and [re, im]
pairs live here, as does ``_fmt``.  A fault in a record names its place in the
document, as in ``channels[1].states[0].v``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import AmplitudeTable, AngleGrid, ChannelBlock, ChannelState
from .errors import CohresError, MalformedFileError, TableValidationError

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


def _array(xs, what: str) -> list:
    """``xs`` if it is a JSON array, the rule of a field that holds records or [re, im] pairs."""
    if type(xs) is not list:
        raise TypeError(f"{what} must be an array, got {xs!r}")
    return xs


def _cx(pair, what: str) -> complex:
    if len(_numbers(pair, what)) != 2:
        raise TypeError(f"{what} must be [re, im], got {pair!r}")
    return complex(*pair)


def _cx_out(z: complex) -> list[float]:
    return [z.real, z.imag]


def _state_out(s: ChannelState) -> dict:
    return {"arrangement": s.arrangement, "v": s.v, "j": s.j, "m": s.m}


@contextmanager
def _at(what: str):
    """Report a record's own rule, broken as it is built, as ``<what>: <message>``."""
    try:
        yield
    except CohresError as exc:
        raise CohresError(f"{what}: {exc}") from None


def _record(d, what: str, keys) -> dict:
    """``d`` if it is a JSON object holding ``keys``; a fault names ``what`` or ``what.<key>``."""
    if type(d) is not dict:
        raise TypeError(f"{what} must be an object, got {d!r}")
    for k in keys:
        if k not in d:
            raise KeyError(f"{what}.{k}")
    return d


def _state_in(d, what: str) -> ChannelState:
    """The state record ``d`` at ``what`` in its document; each fault in it names ``what``."""
    _record(d, what, ("arrangement", "v", "j", "m"))
    arrangement = _typed(d["arrangement"], str, f"{what}.arrangement")
    with _at(what):  # a non-empty label, v, j >= 0, |m| <= j
        return ChannelState(arrangement, *(_typed(d[k], int, f"{what}.{k}") for k in "vjm"))


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


def _block(items, depth: int, brackets: str = "[]") -> str:
    """Encoded ``items`` as json.dumps(..., indent=2) lays out a container ``depth`` levels
    deep: one item per line, one level deeper; an empty container as ``[]`` or ``{}``."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    return f"{brackets[0]}{pad}{body}\n{'  ' * depth}{brackets[1]}" if body else brackets


def _object(fields: dict, depth: int) -> str:
    """A JSON object of already encoded values, laid out as ``_block`` lays out arrays."""
    return _block((f'"{k}": {v}' for k, v in fields.items()), depth, "{}")


def _floats(a: np.ndarray, depth: int) -> str:
    # a valid table's floats are finite, and for those json writes float.__repr__
    return _block(map(repr, a.tolist()), depth)


def _states(states, depth: int) -> str:
    # v, j and m are ints, which format as json writes them; the label is encoded by json
    records = ({**_state_out(s), "arrangement": json.dumps(s.arrangement)} for s in states)
    return _block((_object(r, depth + 1) for r in records), depth)


def table_to_json(table: AmplitudeTable) -> str:
    """The table's document, byte for byte as ``json.dumps(doc, indent=2) + "\n"`` writes it.

    The layout is written directly: with ``indent`` the standard library
    encodes in pure Python, one float per line, several times slower.
    """
    channels = (
        _object(
            {
                "arrangement": json.dumps(b.arrangement),
                "states": _states(b.states, 3),
                "amplitudes": _floats(b.amplitudes.view(float).ravel(), 3),
            },
            2,
        )
        for b in table.channels
    )
    grid = {"nodes_rad": _floats(table.grid.nodes, 2), "weights_sr": _floats(table.grid.weights, 2)}
    doc = {
        "energy_eV": _fmt(table.energy),
        "initial": _states(table.initial_pair, 1),
        "angle_grid": _object(grid, 1),
        "channels": _block(channels, 1),
    }
    return _object(doc, 0) + "\n"


def table_from_json(text: str, where: str = "<string>") -> AmplitudeTable:
    doc = _load_object(text, where)
    with _reading(where):
        keys = ("nodes_rad", "weights_sr")
        grid_doc = _record(doc["angle_grid"], "angle_grid", keys)
        grid = AngleGrid(*(_numbers(grid_doc[k], f"angle_grid.{k}") for k in keys))
        pair = tuple(
            _state_in(d, f"initial[{i}]") for i, d in enumerate(_array(doc["initial"], "initial"))
        )
        blocks = []
        for idx, ch in enumerate(_array(doc["channels"], "channels")):
            _record(ch, f"channels[{idx}]", ("arrangement", "states", "amplitudes"))
            states = _array(ch["states"], f"channels[{idx}].states")
            states = tuple(
                _state_in(d, f"channels[{idx}].states[{n}]") for n, d in enumerate(states)
            )
            flat = _numbers(ch["amplitudes"], f"channels[{idx}].amplitudes")
            if len(flat) != (expected := len(states) * len(grid) * 4):
                raise ValueError(
                    f"channels[{idx}]: amplitude array has {len(flat)} numbers, "
                    f"expected {expected} (= states * nodes * 4)"
                )
            amps = np.asarray(flat, dtype=float).reshape(len(states), len(grid), 4).view(complex)
            label = _typed(ch["arrangement"], str, f"channels[{idx}].arrangement")
            with _at(f"channels[{idx}]"):
                blocks.append(ChannelBlock(label, states, amps))
        energy = _typed(doc["energy_eV"], float, "energy_eV")
    try:
        return AmplitudeTable(energy=energy, initial_pair=pair, grid=grid, channels=blocks)
    except TableValidationError as exc:  # built outside _reading: it keeps class and list
        raise TableValidationError(exc.violations, where) from None


def write_table(table: AmplitudeTable, path: str | Path) -> None:
    """Serialize a table; the result parses back field-for-field identical."""
    Path(path).write_text(table_to_json(table), encoding="utf-8")


def read_table(path: str | Path) -> AmplitudeTable:
    """Parse a table file; the table checks its own invariants as it is built.

    Raises MalformedFileError (``_reading``) if the document is not UTF-8 or
    not JSON, or a reader rule (``_typed``, ``_numbers``, ``_array``,
    ``_record``) refuses a field; TableValidationError, listing every
    violation, if it parses but violates table invariants; both messages
    start with the path.  OSError for I/O.
    """
    path = Path(path)
    return table_from_json(_read_text(path), where=str(path))
