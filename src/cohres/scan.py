"""Energy scans: controllable ranges of cross sections and their ratio.

One row per total energy, carrying for every product channel the coherent
extrema, the two no-interference cross sections and the Schwartz ratio,
and for a designated channel pair the ratio extrema with their control
parameters.  Each energy's table is the scenario's ``table_at``, combined
from the basis the scenario keeps.  Rows follow input order,
each row depends only on its own energy, and repeated runs are
bit-identical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .control import ControlRange, _eigenvalues, _quotient, ratio_extrema
from .core import _finite, _real
from .errors import CohresError, DegenerateChannelError, UnknownChannelError
from .scenario import ScenarioConfig
from .xsection import XsecMatrix, cross_section_matrix, schwartz_ratio

__all__ = ["ChannelScan", "RatioScan", "ScanRow", "energy_scan", "write_scan_csv", "scan_csv_header"]


@dataclass(frozen=True)
class ChannelScan:
    """Per-channel results at one energy."""

    channel: str
    sigma_min: float
    sigma_max: float
    sigma_11: float
    sigma_22: float
    schwartz: float


@dataclass(frozen=True)
class RatioScan:
    """Ratio results for the designated channel pair at one energy.

    ``r_max`` is +inf when the denominator can be interfered to zero while
    the numerator cannot; r_nc_min/max take s in {0, 1} only.  A quotient is
    +inf over a zero denominator, nan over 0/0; a nan r_nc makes both nan.
    """

    numerator: str
    denominator: str
    extrema: ControlRange
    r_nc_min: float
    r_nc_max: float

    @property
    def r_min(self) -> float:
        return self.extrema.min_value

    @property
    def r_max(self) -> float:
        return self.extrema.max_value

    @property
    def coherent_factor(self) -> float:
        return _quotient(self.r_max, self.r_min)

    @property
    def noncoherent_factor(self) -> float:
        return _quotient(self.r_nc_max, self.r_nc_min)


@dataclass(frozen=True)
class ScanRow:
    energy: float
    channels: tuple[ChannelScan, ...]
    ratio: RatioScan

    def channel(self, label: str) -> ChannelScan:
        for c in self.channels:
            if c.channel == label:
                return c
        raise UnknownChannelError(f"no channel {label!r} in scan row")


def _safe_schwartz(m: XsecMatrix) -> float:
    try:
        return schwartz_ratio(m)
    except DegenerateChannelError:
        return math.nan


class _ScanColumns(Sequence[ScanRow]):
    """A scan kept by column: a read-only sequence of ``ScanRow``s built on first read.

    Per energy it holds each channel's five ``_CHANNEL_COLUMNS`` values as
    one tuple, the pair's ``ControlRange`` and its two non-coherent ratios.
    ``write_scan_csv`` writes from these columns, so a scan that is only
    written builds no row object.  The first read of a row builds every
    row into one list and keeps it, so indexing, slicing, iteration and
    ``==`` (against another scan or a list of rows) are that list's.
    """

    def __init__(self, pair: tuple[str, str], labels: tuple[str, ...]):
        self._pair = pair
        self._channels = {label: [] for label in labels}  # every channel, in row order
        self._energies = []
        self._extrema = []
        self._r_nc = []  # (r_nc_min, r_nc_max)

    def _append(self, energy: float, matrices: dict[str, XsecMatrix]) -> None:
        """Add one energy's row, from every channel's matrix, in ``labels`` order.

        A channel's ``sigma_min``/``sigma_max`` are the eigenvalues of its
        matrix, the bounds ``cross_section_extrema`` returns; the control
        parameters that reach them are not computed, since no column holds them.
        """
        values = []
        for label in self._channels:
            m = matrices[label]
            values.append((*_eigenvalues(m), m.sigma11, m.sigma22, _safe_schwartz(m)))
        num, den = matrices[self._pair[0]], matrices[self._pair[1]]
        extrema = ratio_extrema(num, den)
        lo, hi = _quotient(num.sigma11, den.sigma11), _quotient(num.sigma22, den.sigma22)
        if math.isnan(lo) or math.isnan(hi):
            lo = hi = math.nan  # min and max would keep or drop one nan by position
        for column, v in zip(self._channels.values(), values):
            column.append(v)
        self._energies.append(energy)
        self._extrema.append(extrema)
        self._r_nc.append((min(lo, hi), max(lo, hi)))

    @classmethod
    def _from_rows(cls, rows: Sequence[ScanRow]) -> _ScanColumns:
        """The pair channels' columns of plain rows, the pair taken from the first row."""
        ratio = rows[0].ratio
        pair = (ratio.numerator, ratio.denominator)
        labels = tuple(dict.fromkeys(pair))  # a channel paired with itself has one column
        cols = cls(pair, labels)
        for row in rows:
            for label in labels:
                c = row.channel(label)
                cols._channels[label].append(
                    (c.sigma_min, c.sigma_max, c.sigma_11, c.sigma_22, c.schwartz)
                )
            cols._energies.append(row.energy)
            cols._extrema.append(row.ratio.extrema)
            cols._r_nc.append((row.ratio.r_nc_min, row.ratio.r_nc_max))
        return cols

    def __len__(self) -> int:
        return len(self._energies)

    @cached_property
    def _rows(self) -> list[ScanRow]:
        num, den = self._pair
        channels = [[ChannelScan(label, *v) for v in c] for label, c in self._channels.items()]
        return [
            ScanRow(e, c, RatioScan(num, den, x, *r_nc))
            for e, c, x, r_nc in zip(self._energies, zip(*channels), self._extrema, self._r_nc)
        ]

    def __getitem__(self, i):
        return self._rows[i]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other):
        if isinstance(other, _ScanColumns):
            other = other._rows
        return self._rows == other if isinstance(other, list) else NotImplemented

    __hash__ = None  # compared by value, so unhashable, as a list

    def _csv_lines(self):
        """One CSV line per energy, each value written as repr(float(v)).

        The last two values are ``RatioScan.coherent_factor`` and
        ``noncoherent_factor``, formed here without building the row.
        """
        num, den = (self._channels[label] for label in self._pair)
        for e, a, b, x, (nc_lo, nc_hi) in zip(self._energies, num, den, self._extrema, self._r_nc):
            lo, hi, r_min, r_max = x.params_at_min, x.params_at_max, x.min_value, x.max_value
            values = (
                e, *a, *b,
                r_min, lo.s, math.degrees(lo.phi12),
                r_max, hi.s, math.degrees(hi.phi12),
                nc_lo, nc_hi, _quotient(r_max, r_min), _quotient(nc_hi, nc_lo),
            )
            yield ",".join(map(repr, map(float, values))) + "\r\n"


def _check_energies(energies: Sequence[float]) -> list[float]:
    """The rule for a scan's energies, which ``cohres scan`` checks before reading:
    a nonempty, strictly increasing list of finite plain floats (``core._real``)."""
    energies = [_finite(_real(e, "energies"), "energies") for e in energies]
    if not energies:
        raise CohresError("energies must be nonempty")
    if any(b <= a for a, b in zip(energies, energies[1:])):
        raise CohresError("energies must be strictly increasing")
    return energies


def energy_scan(
    cfg: ScenarioConfig,
    energies: Sequence[float],
    channel_pair: tuple[str, str],
) -> Sequence[ScanRow]:
    """Scan the scenario over strictly increasing, finite total energies.

    Each energy's table is ``cfg.table_at``, combined from the basis the
    scenario keeps, and integrated by ``cross_section_matrix``.
    A channel's ``sigma_min``/``sigma_max`` are the eigenvalues of its
    matrix, equal to ``cross_section_extrema``'s bounds; only the ratio
    pair's extrema carry control parameters.  The rows come as a read-only
    sequence that keeps the values by column and builds every ``ScanRow``
    on the first read of one.
    Raises UnknownChannelError when a label of ``channel_pair`` is not a
    scenario channel.  A row whose table, matrices or solvers raise a
    CohresError or an ArithmeticError raises a CohresError that names the
    energy, chained to the original.
    """
    energies = _check_energies(energies)
    known = cfg.product_channels()
    for label in channel_pair:
        if label not in known:
            raise UnknownChannelError(f"channel {label!r} not in scenario channels {known}")

    cols = _ScanColumns(tuple(channel_pair), known)
    for e in energies:
        try:
            table = cfg.table_at(e)
            cols._append(e, {ch: cross_section_matrix(table, ch) for ch in known})
        except (CohresError, ArithmeticError) as exc:
            raise CohresError(f"at energy {e!r} eV: {exc}") from exc
    return cols


_CHANNEL_COLUMNS = ("sigma_min", "sigma_max", "sigma_11", "sigma_22", "schwartz")
_RATIO_COLUMNS = (
    "r_min", "s_at_rmin", "phi_at_rmin_deg",
    "r_max", "s_at_rmax", "phi_at_rmax_deg",
    "r_nc_min", "r_nc_max", "R", "R_nc",
)


def scan_csv_header(pair: tuple[str, str]) -> list[str]:
    cols = ["energy_eV"]
    for label in pair:
        cols += [f"{name}[{label}]" for name in _CHANNEL_COLUMNS]
    return cols + list(_RATIO_COLUMNS)


def write_scan_csv(rows: Sequence[ScanRow], path: str | Path) -> None:
    """Emit the scan as plot-ready CSV (header mandatory, "inf" for unbounded).

    Lines end in CRLF, as the ``csv`` module writes them.  The header goes
    through ``csv.writer``, which quotes a label as its rules require; a data
    row is joined directly, since repr(float) never needs quoting.  An
    ``energy_scan`` result is written from its columns; any other sequence
    of rows is first turned into columns of its pair's channels, the pair
    taken from the first row.
    """
    if not rows:
        raise CohresError("nothing to write")
    cols = rows if isinstance(rows, _ScanColumns) else _ScanColumns._from_rows(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(scan_csv_header(cols._pair))
        fh.writelines(cols._csv_lines())
