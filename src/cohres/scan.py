"""Energy scans: controllable ranges of cross sections and their ratio.

One row per total energy, carrying for every product channel the coherent
extrema, the two no-interference cross sections and the Schwartz ratio,
and for a designated channel pair the ratio extrema with their control
parameters.  The scenario's energy-independent synthesis basis is
computed once per scan, and each energy's table is combined from it by
the one formula every synthesized table uses.  Rows follow input order,
each row depends only on its own energy, and repeated runs are
bit-identical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .control import (
    ControlRange,
    _eigenvalues,
    _quotient,
    noncoherent_limits,
    ratio_extrema,
)
from .errors import CohresError, DegenerateChannelError, UnknownChannelError
from .resonance import synthesis_basis, synthesize_table
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


def _scan_row(energy: float, matrices: dict[str, XsecMatrix], pair: tuple[str, str]) -> ScanRow:
    """One energy's row.

    A channel's ``sigma_min``/``sigma_max`` are the eigenvalues of its
    matrix, the bounds ``cross_section_extrema`` returns; the control
    parameters that reach them are not computed, since no column holds them.
    """
    channels = []
    for ch, m in matrices.items():
        lam_min, lam_max = _eigenvalues(m)
        s11, s22 = noncoherent_limits(m)
        channels.append(
            ChannelScan(
                channel=ch,
                sigma_min=lam_min,
                sigma_max=lam_max,
                sigma_11=s11,
                sigma_22=s22,
                schwartz=_safe_schwartz(m),
            )
        )
    num, den = matrices[pair[0]], matrices[pair[1]]
    rr = ratio_extrema(num, den)
    nc = tuple(map(_quotient, noncoherent_limits(num), noncoherent_limits(den)))
    if any(map(math.isnan, nc)):
        nc = (math.nan, math.nan)  # min and max would keep or drop one nan by position
    ratio = RatioScan(
        numerator=pair[0],
        denominator=pair[1],
        extrema=rr,
        r_nc_min=min(nc),
        r_nc_max=max(nc),
    )
    return ScanRow(energy=energy, channels=tuple(channels), ratio=ratio)


def _check_energies(energies: list[float]) -> None:
    """The rule for a scan's energies, which ``cohres scan`` checks before reading."""
    if not energies:
        raise CohresError("energies must be nonempty")
    bad = next((e for e in energies if not math.isfinite(e)), None)
    if bad is not None:
        raise CohresError(f"energies must be finite, got {bad!r}")
    if any(b <= a for a, b in zip(energies, energies[1:])):
        raise CohresError("energies must be strictly increasing")


def energy_scan(
    cfg: ScenarioConfig,
    energies: Sequence[float],
    channel_pair: tuple[str, str],
) -> list[ScanRow]:
    """Scan the scenario over strictly increasing, finite total energies.

    The scenario's ``synthesis_basis`` is computed once; each energy's
    table is combined from it and integrated by ``cross_section_matrix``.
    A channel's ``sigma_min``/``sigma_max`` are the eigenvalues of its
    matrix, equal to ``cross_section_extrema``'s bounds; only the ratio
    pair's extrema carry control parameters.
    Raises UnknownChannelError when a label of ``channel_pair`` is not a
    scenario channel.  A row whose table, matrices or solvers raise a
    CohresError or an ArithmeticError raises a CohresError that names the
    energy, chained to the original.
    """
    energies = list(energies)
    _check_energies(energies)
    known = cfg.product_channels()
    for label in channel_pair:
        if label not in known:
            raise UnknownChannelError(f"channel {label!r} not in scenario channels {known}")

    grid = cfg.grid()
    res, bg = cfg.resonance, cfg.background
    basis = synthesis_basis(res, bg, grid, cfg.mix)
    pair = tuple(channel_pair)
    rows = []
    for e in energies:
        try:
            table = synthesize_table(res, bg, grid, e, cfg.initial_pair, cfg.mix, basis=basis)
            matrices = {ch: cross_section_matrix(table, ch) for ch in known}
            rows.append(_scan_row(e, matrices, pair))
        except (CohresError, ArithmeticError) as exc:
            raise CohresError(f"at energy {e!r} eV: {exc}") from exc
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
    """Emit the scan as plot-ready CSV (header mandatory, "inf" for unbounded).

    Lines end in CRLF, as the ``csv`` module writes them.  The header goes
    through ``csv.writer``, which quotes a label as its rules require; a data
    row is joined directly, since repr(float) never needs quoting.
    """
    if not rows:
        raise CohresError("nothing to write")
    pair = (rows[0].ratio.numerator, rows[0].ratio.denominator)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(scan_csv_header(pair))
        for row in rows:
            values = [row.energy]
            for label in pair:
                c = row.channel(label)
                values += [getattr(c, name) for name in _CHANNEL_COLUMNS]
            values += _ratio_values(row.ratio)
            # tableio._fmt's repr(float(v)), without a Python call per value
            fh.write(",".join(map(repr, map(float, values))) + "\r\n")
