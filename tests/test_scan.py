import math

import pytest

from cohres import (
    BackgroundChannel,
    BackgroundSpec,
    BackgroundState,
    ChannelState,
    ExitChannel,
    ExitState,
    ResonanceSpec,
    ScenarioConfig,
    UnknownChannelError,
    energy_scan,
    read_scenario,
    write_scan_csv,
)
from cohres.scan import scan_csv_header
from conftest import FHD_SCENARIO, INITIAL

PAIR = ("D+HF", "H+DF")
ENERGIES = [0.25 + 0.005 * i for i in range(13)]


def flat_scenario(slope_free=True):
    """Pure direct scattering, energy-flat when slopes vanish."""
    a1 = ChannelState("D+HF", 0, 0, 0)
    a2 = ChannelState("D+HF", 0, 1, 0)
    b1 = ChannelState("H+DF", 0, 0, 0)
    slope = 0.0 if slope_free else 0.3 + 0.1j
    res = ResonanceSpec(
        epsilon_r=0.28,
        gamma_width=0.01,
        entrance=(1.0, 0.5 + 0.5j),
        exits=(
            ExitChannel("D+HF", (ExitState(a1, 1.0, (1.0,)), ExitState(a2, 0.5j, (1.0, 0.2)))),
            ExitChannel("H+DF", (ExitState(b1, 0.8, (1.0,)),)),
        ),
    )
    bg = BackgroundSpec(
        reference_energy=0.28,
        channels=(
            BackgroundChannel(
                "D+HF",
                (
                    BackgroundState(a1, 1.0 + 0.2j, slope, (1.0, 0.4), (1.0, 0.7 + 0.3j)),
                    BackgroundState(a2, 0.5 - 0.8j, slope, (1.0, -0.2), (1.0, -0.4 + 0.6j)),
                ),
            ),
            BackgroundChannel("H+DF", (BackgroundState(b1, 0.9, slope, (1.0, 0.1)),)),
        ),
    )
    return ScenarioConfig(res, bg, mix=0.0, grid_order=16, initial_pair=INITIAL)


class TestEnergyScan:
    def test_row_count_matches_energies(self):
        cfg = read_scenario(FHD_SCENARIO)
        rows = energy_scan(cfg, ENERGIES, PAIR)
        assert len(rows) == 13
        assert [r.energy for r in rows] == ENERGIES

    def test_flat_scenario_rows_identical(self, tmp_path):
        cfg = flat_scenario(slope_free=True)
        rows = energy_scan(cfg, [0.25, 0.26, 0.27, 0.28], PAIR)
        first = rows[0]
        for row in rows[1:]:
            for c0, c in zip(first.channels, row.channels):
                assert c.sigma_min == pytest.approx(c0.sigma_min, rel=1e-12)
                assert c.sigma_max == pytest.approx(c0.sigma_max, rel=1e-12)
                assert c.schwartz == pytest.approx(c0.schwartz, rel=1e-12)
            assert row.ratio.r_min == pytest.approx(first.ratio.r_min, rel=1e-12)
            assert row.ratio.r_max == first.ratio.r_max or row.ratio.r_max == pytest.approx(
                first.ratio.r_max, rel=1e-12
            )

    def test_range_nesting_invariants(self):
        cfg = read_scenario(FHD_SCENARIO)
        for row in energy_scan(cfg, ENERGIES, PAIR):
            for c in row.channels:
                lo, hi = sorted((c.sigma_11, c.sigma_22))
                assert c.sigma_min <= lo + 1e-12 * hi
                assert hi <= c.sigma_max * (1.0 + 1e-12)
            r = row.ratio
            assert r.r_min <= r.r_nc_min * (1.0 + 1e-12)
            assert r.r_nc_min <= r.r_nc_max
            if not r.extrema.unbounded_max:
                assert r.r_nc_max <= r.r_max * (1.0 + 1e-12)

    def test_peak_factor_at_pole_energy(self):
        cfg = read_scenario(FHD_SCENARIO)
        rows = energy_scan(cfg, ENERGIES, PAIR)
        best = max(rows, key=lambda r: r.ratio.coherent_factor)
        assert best.energy == pytest.approx(0.2550, abs=1e-12)

    def test_errors_annotated_with_energy(self):
        cfg = read_scenario(FHD_SCENARIO)
        with pytest.raises(UnknownChannelError):
            energy_scan(cfg, ENERGIES, ("D+HF", "missing"))
        with pytest.raises(ValueError):
            energy_scan(cfg, [0.26, 0.25], PAIR)
        with pytest.raises(ValueError):
            energy_scan(cfg, [], PAIR)

    def test_scan_is_deterministic(self, tmp_path):
        cfg = read_scenario(FHD_SCENARIO)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scan_csv(energy_scan(cfg, ENERGIES, PAIR), p1)
        write_scan_csv(energy_scan(cfg, ENERGIES, PAIR), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestScanCsv:
    def test_header_layout(self):
        cols = scan_csv_header(PAIR)
        assert cols[0] == "energy_eV"
        assert cols[1] == "sigma_min[D+HF]"
        assert cols[6] == "sigma_min[H+DF]"
        assert cols[11:] == [
            "r_min",
            "s_at_rmin",
            "phi_at_rmin_deg",
            "r_max",
            "s_at_rmax",
            "phi_at_rmax_deg",
            "r_nc_min",
            "r_nc_max",
            "R",
            "R_nc",
        ]

    def test_csv_round_trips_values(self, tmp_path):
        cfg = read_scenario(FHD_SCENARIO)
        rows = energy_scan(cfg, ENERGIES[:3], PAIR)
        path = tmp_path / "scan.csv"
        write_scan_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        rec = lines[1].split(",")
        assert len(rec) == len(header)
        assert float(rec[0]) == rows[0].energy
        assert float(rec[header.index("r_min")]) == rows[0].ratio.r_min
        assert float(rec[header.index("R")]) == rows[0].ratio.coherent_factor

    def test_unbounded_ratio_serializes_inf(self, tmp_path):
        # a purely direct denominator with proportional columns is
        # singular, so the ratio maximum is unbounded at every energy
        a1 = ChannelState("D+HF", 0, 0, 0)
        b1 = ChannelState("H+DF", 0, 0, 0)
        res = ResonanceSpec(
            epsilon_r=0.28,
            gamma_width=0.01,
            entrance=(1.0, 0.5),
            exits=(
                ExitChannel("D+HF", (ExitState(a1, 1.0, (1.0,)),)),
                ExitChannel("H+DF", (ExitState(b1, 1.0, (1.0,)),)),
            ),
        )
        bg = BackgroundSpec(
            reference_energy=0.28,
            channels=(
                BackgroundChannel(
                    "D+HF", (BackgroundState(a1, 1.0, 0.0, (1.0,), (1.0, -0.6 + 0.2j)),)
                ),
                BackgroundChannel("H+DF", (BackgroundState(b1, 0.7, 0.0, (1.0,)),)),
            ),
        )
        cfg = ScenarioConfig(res, bg, mix=0.0, grid_order=8, initial_pair=INITIAL)
        rows = energy_scan(cfg, [0.25, 0.26], PAIR)
        assert all(r.ratio.extrema.unbounded_max for r in rows)
        path = tmp_path / "scan.csv"
        write_scan_csv(rows, path)
        body = path.read_text().splitlines()[1]
        assert "inf" in body.split(",")

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_scan_csv([], tmp_path / "x.csv")


class TestCommittedScenarioRegression:
    """Frozen first-computation values for the committed scenario.

    Any numerical change in the synthesis or extremization pipeline must
    show up here before it shows up anywhere else.
    """

    def test_peak_row_values(self):
        cfg = read_scenario(FHD_SCENARIO)
        rows = energy_scan(cfg, ENERGIES, PAIR)
        row = next(r for r in rows if abs(r.energy - 0.2550) < 1e-12)
        assert row.channel("D+HF").schwartz == pytest.approx(0.9, abs=1e-12)
        assert row.ratio.r_min == pytest.approx(0.4023174476113552, rel=1e-9)
        assert row.ratio.r_max == pytest.approx(69.67607291290689, rel=1e-9)
        assert row.ratio.extrema.params_at_min.s == pytest.approx(
            0.548787070008737, rel=1e-9
        )
        assert math.degrees(row.ratio.extrema.params_at_min.phi12) == pytest.approx(
            93.56023741803773, rel=1e-9
        )
        assert row.ratio.extrema.params_at_max.s == pytest.approx(
            0.8360525215388062, rel=1e-9
        )
        assert math.degrees(row.ratio.extrema.params_at_max.phi12) == pytest.approx(
            238.71319765530205, rel=1e-9
        )

    def test_backward_node_factor(self):
        from cohres import differential_matrix, ratio_extrema

        cfg = read_scenario(FHD_SCENARIO)
        table = cfg.table_at(0.2550)
        node = table.grid.nearest_node(math.pi)
        rr = ratio_extrema(
            differential_matrix(table, "D+HF", node),
            differential_matrix(table, "H+DF", node),
        )
        assert rr.max_value / rr.min_value == pytest.approx(1690.4127333733177, rel=1e-9)
