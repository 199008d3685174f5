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
from pathlib import Path
from typing import NamedTuple, Sequence

from .control import ControlRange, _eigenvalues, ratio_extrema
from .core import _channel_pair, _check_energies, _quotient
from .errors import CohresError, DegenerateChannelError, UnknownChannelError
from .scenario import ScenarioConfig
from .xsection import XsecMatrix, cross_section_matrix, schwartz_ratio

__all__ = ["ChannelScan", "RatioScan", "ScanRow", "energy_scan", "write_scan_csv", "scan_csv_header"]


class ChannelScan(NamedTuple):
    """Per-channel results at one energy."""

    channel: str
    sigma_min: float
    sigma_max: float
    sigma_11: float
    sigma_22: float
    schwartz: float


class RatioScan(NamedTuple):
    """Ratio results for the designated channel pair at one energy.

    ``r_max`` is +inf when the denominator can be interfered to zero while
    the numerator cannot; r_nc_min/max take s in {0, 1} only.  Each
    quotient is ``core._quotient``'s; a nan r_nc makes both nan.
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


class ScanRow(NamedTuple):
    """One energy's results: every channel's, in scenario order, and the pair's ratio."""

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


def _scan_row(energy: float, matrices: dict[str, XsecMatrix], pair: tuple[str, str]) -> ScanRow:
    """One energy's row, from every channel's matrix, channels in ``matrices`` order.

    A channel's ``sigma_min``/``sigma_max`` are the eigenvalues of its
    matrix, the bounds ``cross_section_extrema`` returns; the control
    parameters that reach them are not computed, since no field holds them.
    """
    channels = tuple(
        ChannelScan(label, *_eigenvalues(m), m.sigma11, m.sigma22, _safe_schwartz(m))
        for label, m in matrices.items()
    )
    num, den = matrices[pair[0]], matrices[pair[1]]
    lo, hi = _quotient(num.sigma11, den.sigma11), _quotient(num.sigma22, den.sigma22)
    if math.isnan(lo) or math.isnan(hi):
        lo = hi = math.nan  # min and max would keep or drop one nan by position
    ratio = RatioScan(*pair, ratio_extrema(num, den), min(lo, hi), max(lo, hi))
    return ScanRow(energy, channels, ratio)


def energy_scan(
    cfg: ScenarioConfig,
    energies: Sequence[float],
    channel_pair: tuple[str, str],
) -> tuple[ScanRow, ...]:
    """Scan the scenario over total ``energies`` (``core._check_energies``).

    Each energy's table is ``cfg.table_at``, combined from the basis the
    scenario keeps, and integrated by ``cross_section_matrix``.
    A channel's ``sigma_min``/``sigma_max`` are the eigenvalues of its
    matrix, equal to ``cross_section_extrema``'s bounds; only the ratio
    pair's extrema carry control parameters.  The rows come as a tuple.
    ``channel_pair`` is taken by ``core._channel_pair``, and
    UnknownChannelError is raised when one of its labels is not a scenario
    channel, both before any table is built.  A row whose table, matrices or
    solvers raise a CohresError or an ArithmeticError raises a CohresError
    that names the energy, chained to the original.
    """
    energies = _check_energies(energies)
    channel_pair = _channel_pair(channel_pair)
    known = cfg.product_channels()
    for label in channel_pair:
        if label not in known:
            raise UnknownChannelError(f"channel {label!r} not in scenario channels {known}")

    rows = []
    for e in energies:
        try:
            table = cfg.table_at(e)
            matrices = {ch: cross_section_matrix(table, ch) for ch in known}
            rows.append(_scan_row(e, matrices, channel_pair))
        except (CohresError, ArithmeticError) as exc:
            raise CohresError(f"at energy {e!r} eV: {exc}") from exc
    return tuple(rows)


_CHANNEL_COLUMNS = ChannelScan._fields[1:]  # sigma_min, sigma_max, sigma_11, sigma_22, schwartz
_RATIO_COLUMNS = (
    "r_min", "s_at_rmin", "phi_at_rmin_deg",
    "r_max", "s_at_rmax", "phi_at_rmax_deg",
    "r_nc_min", "r_nc_max", "R", "R_nc",
)


def scan_csv_header(pair: tuple[str, str]) -> list[str]:
    """The CSV header of a scan of ``pair`` (``core._channel_pair``)."""
    cols = ["energy_eV"]
    for label in _channel_pair(pair):
        cols += [f"{name}[{label}]" for name in _CHANNEL_COLUMNS]
    return cols + list(_RATIO_COLUMNS)


def _csv_line(row: ScanRow, pair: tuple[str, str]) -> str:
    """The row's CSV line, in ``scan_csv_header(pair)`` order, each value as repr(float(v))."""
    r = row.ratio
    lo, hi = r.extrema.params_at_min, r.extrema.params_at_max
    values = (
        row.energy, *row.channel(pair[0])[1:], *row.channel(pair[1])[1:],
        r.r_min, lo.s, math.degrees(lo.phi12),
        r.r_max, hi.s, math.degrees(hi.phi12),
        r.r_nc_min, r.r_nc_max, r.coherent_factor, r.noncoherent_factor,
    )
    return ",".join(map(repr, map(float, values))) + "\r\n"


def write_scan_csv(rows: Sequence[ScanRow], path: str | Path) -> None:
    """Emit the scan as plot-ready CSV (header mandatory, "inf" for unbounded).

    Lines end in CRLF, as the ``csv`` module writes them.  The header goes
    through ``csv.writer``, which quotes a label as its rules require; a data
    row is joined directly, since repr(float) never needs quoting.  The pair
    is the first row's; each row gives its pair channels' values.
    """
    if not rows:
        raise CohresError("nothing to write")
    ratio = rows[0].ratio
    pair = (ratio.numerator, ratio.denominator)
    header = scan_csv_header(pair)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(_csv_line(row, pair) for row in rows)
