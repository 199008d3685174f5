"""Energy scans: controllable ranges of cross sections and their ratio.

One row per total energy, carrying for every product channel the coherent
extrema, the two no-interference cross sections and the Schwartz ratio,
and for a designated channel pair the ratio extrema with their control
parameters.  Rows are computed one energy at a time, in input order, and
repeated runs are bit-identical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .control import (
    ControlRange,
    cross_section_extrema,
    noncoherent_limits,
    ratio_extrema,
)
from .errors import UnknownChannelError
from .scenario import ScenarioConfig
from .tableio import _fmt
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
    the numerator cannot; R = r_max / r_min follows suit.  The
    non-coherent counterparts restrict to s in {0, 1}.
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
        if self.r_min == 0.0:
            return math.inf
        return self.r_max / self.r_min

    @property
    def noncoherent_factor(self) -> float:
        if self.r_nc_min == 0.0:
            return math.inf
        return self.r_nc_max / self.r_nc_min


@dataclass(frozen=True)
class ScanRow:
    energy: float
    channels: tuple[ChannelScan, ...]
    ratio: RatioScan

    def channel(self, label: str) -> ChannelScan:
        for c in self.channels:
            if c.channel == label:
                return c
        raise KeyError(label)


def _safe_schwartz(m: XsecMatrix) -> float:
    if m.sigma11 <= 0.0 or m.sigma22 <= 0.0:
        return math.nan
    return schwartz_ratio(m)


def _scan_one(cfg: ScenarioConfig, grid, energy: float, pair: tuple[str, str]) -> ScanRow:
    table = cfg.table_at(energy, grid=grid)
    matrices = {ch: cross_section_matrix(table, ch) for ch in cfg.product_channels()}
    channels = []
    for ch, m in matrices.items():
        ext = cross_section_extrema(m)
        s11, s22 = noncoherent_limits(m)
        channels.append(
            ChannelScan(
                channel=ch,
                sigma_min=ext.min_value,
                sigma_max=ext.max_value,
                sigma_11=s11,
                sigma_22=s22,
                schwartz=_safe_schwartz(m),
            )
        )
    num, den = matrices[pair[0]], matrices[pair[1]]
    rr = ratio_extrema(num, den)
    nc = (num.sigma11 / den.sigma11, num.sigma22 / den.sigma22)
    ratio = RatioScan(
        numerator=pair[0],
        denominator=pair[1],
        extrema=rr,
        r_nc_min=min(nc),
        r_nc_max=max(nc),
    )
    return ScanRow(energy=energy, channels=tuple(channels), ratio=ratio)


def energy_scan(
    cfg: ScenarioConfig,
    energies: Sequence[float],
    channel_pair: tuple[str, str],
) -> list[ScanRow]:
    """Scan the scenario over strictly increasing total energies.

    Raises UnknownChannelError when a label of ``channel_pair`` is not a
    scenario channel.  Errors from the per-energy pipeline propagate
    annotated with the offending energy.
    """
    energies = list(energies)
    if not energies:
        raise ValueError("energies must be nonempty")
    if any(b <= a for a, b in zip(energies, energies[1:])):
        raise ValueError("energies must be strictly increasing")
    known = cfg.product_channels()
    for label in channel_pair:
        if label not in known:
            raise UnknownChannelError(f"channel {label!r} not in scenario channels {known}")

    grid = cfg.grid()
    pair = tuple(channel_pair)
    rows = []
    for e in energies:
        try:
            rows.append(_scan_one(cfg, grid, e, pair))
        except Exception as exc:
            exc.args = (f"at energy {e!r} eV: {exc}",)
            raise
    return rows


_CHANNEL_COLUMNS = ("sigma_min", "sigma_max", "sigma_11", "sigma_22", "schwartz")
_RATIO_COLUMNS = (
    "r_min", "s_at_rmin", "phi_at_rmin_deg",
    "r_max", "s_at_rmax", "phi_at_rmax_deg",
    "r_nc_min", "r_nc_max", "R", "R_nc",
)


def _ratio_values(r: RatioScan) -> tuple[float, ...]:
    """The values of ``_RATIO_COLUMNS``, in that order."""
    lo, hi = r.extrema.params_at_min, r.extrema.params_at_max
    return (
        r.r_min, lo.s, math.degrees(lo.phi12),
        r.r_max, hi.s, math.degrees(hi.phi12),
        r.r_nc_min, r.r_nc_max, r.coherent_factor, r.noncoherent_factor,
    )


def scan_csv_header(pair: tuple[str, str]) -> list[str]:
    cols = ["energy_eV"]
    for label in pair:
        cols += [f"{name}[{label}]" for name in _CHANNEL_COLUMNS]
    return cols + list(_RATIO_COLUMNS)


def write_scan_csv(rows: Sequence[ScanRow], path: str | Path) -> None:
    """Emit the scan as plot-ready CSV (header mandatory, "inf" for unbounded)."""
    if not rows:
        raise ValueError("nothing to write")
    pair = (rows[0].ratio.numerator, rows[0].ratio.denominator)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(scan_csv_header(pair))
        for row in rows:
            values = [row.energy]
            for label in pair:
                c = row.channel(label)
                values += [getattr(c, name) for name in _CHANNEL_COLUMNS]
            values += _ratio_values(row.ratio)
            writer.writerow([_fmt(v) for v in values])
