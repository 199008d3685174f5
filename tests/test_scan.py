import csv
import hashlib
import io
import math
import platform
import sys
from dataclasses import replace

import numpy as np
import pytest

from cohres import (
    BackgroundChannel,
    BackgroundSpec,
    BackgroundState,
    ChannelState,
    CohresError,
    ExitChannel,
    ExitState,
    ResonanceSpec,
    ScenarioConfig,
    SynthesisBasis,
    UnknownChannelError,
    XsecMatrix,
    controlled_ratio,
    cross_section_extrema,
    cross_section_matrix,
    energy_scan,
    read_scenario,
    synthesize_table,
    write_scan_csv,
)
from cohres.scan import _scan_row, scan_csv_header
from cohres.tableio import table_to_json
from conftest import FHD_SCENARIO, INITIAL, direct_table, random_scenario

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


def zero_numerator_scenario():
    """fhd_like with every D+HF coupling and direct term zero, so r_min = r_max = 0."""
    cfg = read_scenario(FHD_SCENARIO)
    exits = tuple(
        replace(ch, states=tuple(replace(s, coupling=0) for s in ch.states))
        if ch.arrangement == "D+HF" else ch
        for ch in cfg.resonance.exits
    )
    direct = tuple(
        replace(ch, states=tuple(replace(s, amplitude=0, slope=0) for s in ch.states))
        if ch.arrangement == "D+HF" else ch
        for ch in cfg.background.channels
    )
    return replace(
        cfg,
        resonance=replace(cfg.resonance, exits=exits),
        background=replace(cfg.background, channels=direct),
    )


def closed_column_scenario():
    """fhd_like, pure direct scattering, H+DF closed from the first initial state."""
    cfg = read_scenario(FHD_SCENARIO)
    channels = tuple(
        replace(ch, states=tuple(replace(s, column_weights=(0, 1)) for s in ch.states))
        if ch.arrangement == "H+DF" else ch
        for ch in cfg.background.channels
    )
    return replace(cfg, mix=0.0, background=replace(cfg.background, channels=channels))


class TestEnergyScan:
    def test_row_count_matches_energies(self):
        cfg = read_scenario(FHD_SCENARIO)
        rows = energy_scan(cfg, ENERGIES, PAIR)
        assert len(rows) == 13
        assert [r.energy for r in rows] == ENERGIES

    def test_energies_are_stored_as_plain_floats(self):
        cfg = read_scenario(FHD_SCENARIO)
        energies = np.linspace(0.25, 0.26, 3)
        rows = energy_scan(cfg, energies, PAIR)
        assert type(rows[0].energy) is float
        assert repr(list(rows)) == repr(list(energy_scan(cfg, energies.tolist(), PAIR)))
        with pytest.raises(CohresError, match=r"^energies must be a real number, got '0.25'$"):
            energy_scan(cfg, ["0.25"], PAIR)

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
        # a row that fails inside the loop: its amplitudes square to inf
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            energy_scan(cfg, [0.25, 1e305], PAIR)
        assert str(err.value).startswith("at energy 1e+305 eV: ")

    @pytest.mark.parametrize(
        "pair, message",
        [
            (("D+HF",), "must hold exactly two labels, got ('D+HF',)"),
            (("D+HF", "H+DF", "D+HF"),
             "must hold exactly two labels, got ('D+HF', 'H+DF', 'D+HF')"),
            ("DH", "must be a sequence of str, got 'DH'"),
            (None, "must be a sequence of str, got None"),
            (("D+HF", 5), "must be a sequence of str, got ('D+HF', 5)"),
        ],
        ids=["one", "three", "str", "none", "int-label"],
    )
    def test_channel_pair_is_two_labels_before_any_table(self, monkeypatch, pair, message):
        """The pair is checked before any table is built, so no scan of a malformed pair
        exists to write a partial CSV; the CSV header takes the same rule."""
        cfg = read_scenario(FHD_SCENARIO)

        def refuse(self, energy):
            raise AssertionError("a table was built before the pair was checked")

        monkeypatch.setattr(ScenarioConfig, "table_at", refuse)
        for call in (lambda: energy_scan(cfg, ENERGIES, pair), lambda: scan_csv_header(pair)):
            with pytest.raises(CohresError) as err:
                call()
            assert str(err.value) == f"channel_pair {message}"

    def test_row_error_is_chained_not_rewritten(self):
        cfg = read_scenario(FHD_SCENARIO)
        with np.errstate(over="ignore"), pytest.raises(CohresError) as err:
            energy_scan(cfg, [0.25, 1e305], PAIR)
        cause = err.value.__cause__
        assert isinstance(cause, CohresError)
        assert str(err.value) == f"at energy 1e+305 eV: {cause}"
        assert len(cause.args) == 1 and not cause.args[0].startswith("at energy")

    def test_unknown_row_channel(self):
        row = energy_scan(read_scenario(FHD_SCENARIO), ENERGIES[:1], PAIR)[0]
        with pytest.raises(UnknownChannelError, match="missing"):
            row.channel("missing")

    def test_zero_numerator_factors_are_nan(self, tmp_path):
        rows = energy_scan(zero_numerator_scenario(), ENERGIES[:3], PAIR)
        for r in rows:
            assert r.ratio.extrema.degenerate
            assert r.ratio.r_min == r.ratio.r_max == r.ratio.r_nc_min == r.ratio.r_nc_max == 0.0
            assert math.isnan(r.ratio.coherent_factor)
            assert math.isnan(r.ratio.noncoherent_factor)
            assert math.isnan(r.channel("D+HF").schwartz)
        path = tmp_path / "scan.csv"
        write_scan_csv(rows, path)
        header, *body = [line.split(",") for line in path.read_text().splitlines()]
        for rec in body:
            assert rec[header.index("R")] == rec[header.index("R_nc")] == "nan"

    @pytest.mark.parametrize("zero", ["sigma11", "sigma22"])
    def test_nan_limit_makes_both_nc_bounds_nan(self, zero):
        # both channels vanish at one endpoint, where r is 0/0; the other gives 2
        den = XsecMatrix("B", "integral", **{"sigma11": 1.0, "sigma22": 1.0, zero: 0.0}, sigma12=0j)
        num = XsecMatrix("A", "integral", 2.0 * den.sigma11, 2.0 * den.sigma22, 0j)
        ratio = _scan_row(0.25, {"A": num, "B": den}, ("A", "B")).ratio
        assert math.isnan(ratio.r_nc_min)
        assert math.isnan(ratio.r_nc_max)
        assert math.isnan(ratio.noncoherent_factor)

    def test_scan_is_deterministic(self, tmp_path):
        cfg = read_scenario(FHD_SCENARIO)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scan_csv(energy_scan(cfg, ENERGIES, PAIR), p1)
        write_scan_csv(energy_scan(cfg, ENERGIES, PAIR), p2)
        assert p1.read_bytes() == p2.read_bytes()


EPS = sys.float_info.epsilon


def per_table_row(cfg, energy, pair=PAIR):
    """The reference: the directly evaluated table + cross_section_matrix + the scalar solvers.

    Returns the row and its matrices.
    """
    table = direct_table(cfg, energy)
    matrices = {ch: cross_section_matrix(table, ch) for ch in cfg.product_channels()}
    return _scan_row(energy, matrices, pair), matrices


def _cond(m) -> float:
    return m.trace**2 / m.det if m.det > 0.0 else math.inf


def assert_rows_match(got, want, matrices, rel=1e-12, cond_factor=64):
    """Every field of ``got`` equals the reference row ``want`` to ``rel``.

    Fields that pass through a determinant also carry the rounding of the
    reference matrices themselves: an entry off by eps*trace moves det by
    about eps*trace^2.  So sigma_min is off by a few eps*trace, and a
    finite ratio range by up to ``cond_factor``*eps*(cond(A) + cond(B))
    relative, with cond = trace^2/det of the numerator A and the
    denominator B.  An unbounded or degenerate range has its r_min,
    possibly 0 in exact arithmetic, compared to rel*kappa, kappa =
    tr(A)/tr(B).  The control parameters of a finite extremum are checked
    by the ratio they achieve on the reference matrices, which is
    stationary there; ``cond_factor`` 0 (a well-conditioned scenario)
    compares them directly, as it does an unbounded maximum's.
    """
    assert got.energy == want.energy
    for g, w in zip(got.channels, want.channels, strict=True):
        assert g.channel == w.channel
        for name in ("sigma_11", "sigma_22", "sigma_max", "schwartz"):
            assert getattr(g, name) == pytest.approx(getattr(w, name), rel=rel), name
        trace = w.sigma_11 + w.sigma_22
        assert g.sigma_min == pytest.approx(w.sigma_min, rel=rel, abs=8 * EPS * trace)
    g, w = got.ratio, want.ratio
    assert (g.numerator, g.denominator) == (w.numerator, w.denominator)
    assert g.extrema.unbounded_max == w.extrema.unbounded_max
    assert g.extrema.degenerate == w.extrema.degenerate
    assert g.r_nc_min == pytest.approx(w.r_nc_min, rel=rel)
    assert g.r_nc_max == pytest.approx(w.r_nc_max, rel=rel)
    num, den = matrices[w.numerator], matrices[w.denominator]
    if g.extrema.unbounded_max or g.extrema.degenerate:
        tol, floor = rel, rel * num.trace / den.trace
    else:
        tol, floor = rel + cond_factor * EPS * (_cond(num) + _cond(den)), 0.0
    for name in ("r_min", "r_max"):
        assert getattr(g, name) == pytest.approx(getattr(w, name), rel=tol, abs=floor), name
    for which, value in (("params_at_min", w.r_min), ("params_at_max", w.r_max)):
        p, q = getattr(g.extrema, which), getattr(w.extrema, which)
        if cond_factor == 0 or math.isinf(value):
            assert abs(p.s - q.s) <= rel, which
            assert abs(math.remainder(p.phi12 - q.phi12, 2 * math.pi)) <= rel * 2 * math.pi, which
        else:
            achieved = controlled_ratio(num, den, p)
            assert achieved == pytest.approx(value, rel=tol, abs=floor), which


class TestBasisScan:
    """Rows from basis-combined tables against the per-table reference path."""

    def test_rows_match_per_table_path_on_fhd_grid(self):
        cfg = read_scenario(FHD_SCENARIO)
        energies = [0.20 + 0.11 * i / 1100 for i in range(1101)]
        for row in energy_scan(cfg, energies, PAIR):
            assert_rows_match(row, *per_table_row(cfg, row.energy), cond_factor=0)

    def test_channel_columns_are_exactly_the_extrema(self):
        cfg = read_scenario(FHD_SCENARIO)
        energies = [0.20 + 0.11 * i / 1100 for i in range(1101)]
        grid = cfg.grid()
        basis = SynthesisBasis(cfg.resonance, cfg.background, grid, cfg.mix)
        for row in energy_scan(cfg, energies, PAIR):
            table = synthesize_table(basis, row.energy, cfg.initial_pair)
            for c in row.channels:
                ext = cross_section_extrema(cross_section_matrix(table, c.channel))
                assert (c.sigma_min, c.sigma_max) == (ext.min_value, ext.max_value)

    @pytest.mark.parametrize("mix", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n_states", [1, 2, 3, 4, 5, 6])
    def test_rows_match_per_table_path_on_random_scenarios(self, mix, n_states):
        rng = np.random.default_rng((20261018, n_states))
        cfg = random_scenario(rng, mix, n_states)
        e0 = cfg.resonance.epsilon_r
        energies = [e0 - 0.05 + 0.005 * i for i in range(21)]
        for row in energy_scan(cfg, energies, PAIR):
            assert_rows_match(row, *per_table_row(cfg, row.energy))

    def test_single_energy_is_bitwise_its_row_in_a_long_scan(self):
        cfg = read_scenario(FHD_SCENARIO)
        energies = [0.20 + 0.11 * i / 400 for i in range(401)]
        rows = energy_scan(cfg, energies, PAIR)
        for i in (0, 1, 7, 127, 200, 399, 400):
            (alone,) = energy_scan(cfg, [energies[i]], PAIR)
            assert repr(alone) == repr(rows[i])

    def test_scan_computes_the_basis_once(self, monkeypatch):
        bases, tables = [], []

        def basis_spy(*args):
            bases.append(SynthesisBasis(*args))
            return bases[-1]

        def table_spy(basis, *args):
            assert basis is bases[0]
            tables.append(synthesize_table(basis, *args))
            return tables[-1]

        monkeypatch.setattr("cohres.scenario.SynthesisBasis", basis_spy)
        monkeypatch.setattr("cohres.scenario.synthesize_table", table_spy)
        cfg = read_scenario(FHD_SCENARIO)
        assert len(energy_scan(cfg, ENERGIES, PAIR)) == len(ENERGIES)
        assert len(bases) == 1
        assert [t.energy for t in tables] == ENERGIES

    @pytest.mark.parametrize(
        "energies, bad",
        [
            ([0.25, math.nan, 0.26], "nan"),
            ([0.25, 0.26, math.inf], "inf"),
            ([-math.inf, 0.25], "-inf"),
        ],
    )
    def test_non_finite_energy_rejected_before_any_work(self, energies, bad, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the energies were checked")

        monkeypatch.setattr("cohres.scenario.SynthesisBasis", refuse)
        monkeypatch.setattr("cohres.scenario.synthesize_table", refuse)
        cfg = read_scenario(FHD_SCENARIO)
        with pytest.raises(ValueError, match=f"^energies must be finite, got {bad}$"):
            energy_scan(cfg, energies, PAIR)


def reference_scan_csv(rows) -> bytes:
    """write_scan_csv's bytes as csv.writer writes them, every value repr(float(v))."""
    pair = (rows[0].ratio.numerator, rows[0].ratio.denominator)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(scan_csv_header(pair))
    for row in rows:
        values = [row.energy]
        for label in pair:
            c = row.channel(label)
            values += [c.sigma_min, c.sigma_max, c.sigma_11, c.sigma_22, c.schwartz]
        r = row.ratio
        lo, hi = r.extrema.params_at_min, r.extrema.params_at_max
        values += [
            r.r_min, lo.s, math.degrees(lo.phi12),
            r.r_max, hi.s, math.degrees(hi.phi12),
            r.r_nc_min, r.r_nc_max, r.coherent_factor, r.noncoherent_factor,
        ]
        writer.writerow([repr(float(v)) for v in values])
    return buf.getvalue().encode("utf-8")


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

    def test_bytes_equal_the_csv_module_reference(self, tmp_path):
        fhd = read_scenario(FHD_SCENARIO)
        a = XsecMatrix('A,"x"', "integral", 2.0, 1.0, 0.5j)
        b = XsecMatrix("B", "integral", 1.0, 3.0, 0.25)
        cases = {
            "fhd_401": energy_scan(fhd, [0.20 + 0.05 * k / 400 for k in range(401)], PAIR),
            "closed_column": energy_scan(closed_column_scenario(), ENERGIES[:3], PAIR),
            "zero_numerator": energy_scan(zero_numerator_scenario(), ENERGIES[:3], PAIR),
            "linspace": energy_scan(fhd, np.linspace(0.25, 0.26, 5), PAIR),
            "quoted_label": [
                _scan_row(e, {a.channel: a, "B": b}, (a.channel, "B")) for e in (0.1, 0.2)
            ],
        }
        for name, rows in cases.items():
            path = tmp_path / f"{name}.csv"
            write_scan_csv(rows, path)
            data = path.read_bytes()
            assert data == reference_scan_csv(rows), name
            assert data.count(b"\r\n") == data.count(b"\n") == len(rows) + 1, name
        assert b'"sigma_min[A,""x""]"' in (tmp_path / "quoted_label.csv").read_bytes()
        assert b"inf" in (tmp_path / "closed_column.csv").read_bytes()
        assert b"nan" in (tmp_path / "zero_numerator.csv").read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_scan_csv([], tmp_path / "x.csv")


class TestScanColumns:
    """``energy_scan`` returns a tuple of ``ScanRow``s, each a named tuple built per energy."""

    ENERGIES = [0.20 + 0.05 * k / 400 for k in range(401)]

    @pytest.fixture(scope="class")
    def rows(self):
        return energy_scan(read_scenario(FHD_SCENARIO), self.ENERGIES, PAIR)

    @pytest.mark.parametrize("pair", [PAIR, PAIR[::-1], ("D+HF", "D+HF")], ids=str)
    def test_columns_and_rows_write_the_same_bytes(self, tmp_path, pair):
        rows = energy_scan(read_scenario(FHD_SCENARIO), self.ENERGIES, pair)
        by_column, by_row = tmp_path / "columns.csv", tmp_path / "rows.csv"
        write_scan_csv(rows, by_column)
        write_scan_csv(list(rows), by_row)
        assert by_column.read_bytes() == by_row.read_bytes() == reference_scan_csv(list(rows))

    def test_slice_writes_its_lines_of_the_full_csv(self, tmp_path, rows):
        full, part = tmp_path / "full.csv", tmp_path / "part.csv"
        write_scan_csv(rows, full)
        write_scan_csv(rows[100:200], part)
        lines = full.read_bytes().splitlines(keepends=True)
        assert part.read_bytes() == b"".join([lines[0], *lines[101:201]])

    def test_indexing_slicing_and_iteration_are_a_tuples(self, rows):
        as_list = list(rows)
        assert type(rows) is tuple
        assert len(rows) == len(as_list) == 401
        assert [r.energy for r in rows] == self.ENERGIES
        assert (rows[0], rows[-1], rows[-401]) == (as_list[0], as_list[-1], as_list[-401])
        for cut in (slice(1, 3), slice(None, None, -100), slice(5, 2), slice(-3, None)):
            assert type(rows[cut]) is tuple
            assert rows[cut] == tuple(as_list[cut])
        assert list(reversed(rows)) == as_list[::-1]
        assert rows.index(as_list[200]) == 200
        assert rows[7] is rows[7] is as_list[7]

    def test_compares_as_a_tuple(self, rows):
        again = energy_scan(read_scenario(FHD_SCENARIO), self.ENERGIES, PAIR)
        assert rows == again and again == tuple(rows)
        assert rows != list(rows) and rows != again[:-1] and rows != again[::-1]
        assert not (rows != again)
        assert hash(rows) == hash(again)

    def test_a_row_refuses_attribute_assignment(self, rows):
        row = rows[0]
        for record, name in (
            (row, "energy"), (row.ratio, "r_nc_min"), (row.channels[0], "schwartz")
        ):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
        assert row._replace(energy=0.0).energy == 0.0 and row.energy == self.ENERGIES[0]

    def test_out_of_range_and_assignment_refused(self, rows):
        for i in (401, -402):
            with pytest.raises(IndexError):
                rows[i]
        with pytest.raises(TypeError):
            rows[0] = rows[1]
        with pytest.raises(TypeError):
            del rows[0]

    def test_a_row_is_its_one_energy_scan(self, rows):
        cfg = read_scenario(FHD_SCENARIO)
        for i in (0, 200, -1):
            (alone,) = energy_scan(cfg, [self.ENERGIES[i]], PAIR)
            assert repr(rows[i]) == repr(alone)


# SHA-256 of write_scan_csv for fhd_like over np.linspace(0.20, 0.31, n), per pair order
SCAN_CSV_SHA256 = {
    (13, PAIR): "7fbc3f963d6da5702c55067a3e20315c5eef6bd4cfc2deddd82af72d49761e95",
    (13, PAIR[::-1]): "10577e2178131859f971bd1ffb37eecae415f116b5e048cee8983ed3554a8e50",
    (401, PAIR): "5e840266c942304e5aa2a5f8519df8f1e65ea3cc65b0b23332fe9e7004e65039",
    (401, PAIR[::-1]): "38bef5b5aa16031bdeb56859b7eae72e9c9cfd2d13f2616dbc0cd455b88b2fef",
    (2001, PAIR): "9ae67111d75703475fce00bcd6469c9baacb14ff1a0bd7bdd0175f883c3f2195",
    (2001, PAIR[::-1]): "a0ce98727ffc2797d1bf4dd8693fa27e1e4683982adb5f87eb8ca53a47e3d16b",
}
HASH_PLATFORM = ((3, 11), "2.4.6", "x86_64")


@pytest.mark.skipif(
    (sys.version_info[:2], np.__version__, platform.machine()) != HASH_PLATFORM,
    reason="the scan-CSV hashes were taken on Python 3.11, numpy 2.4.6, x86_64 only",
)
@pytest.mark.parametrize("n, pair", list(SCAN_CSV_SHA256), ids=str)
def test_scan_csv_bytes_are_pinned(tmp_path, n, pair):
    """The CSV bytes, from the scan and from a list of its rows, hash as pinned."""
    rows = energy_scan(read_scenario(FHD_SCENARIO), np.linspace(0.20, 0.31, n), pair)
    for name, source in (("scan", rows), ("list", list(rows))):
        path = tmp_path / f"{name}.csv"
        write_scan_csv(source, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SCAN_CSV_SHA256[n, pair], name


# SHA-256 of table_to_json (the `cohres synth` file) for fhd_like at each energy (eV)
TABLE_SHA256 = {
    0.2: "8c24c9fddb694d8db41b1d1201456fa1c2c8bee88a6ddf5ce3c35b4df986a3d9",
    0.255: "544878d7952c12415de82e8d9698838ef79b880244ad909e59a9c04519970db7",
    0.31: "e67ba9262bde2ac627406072ef415fb982a3eb37a920e976c6559ee7491ce3b1",
}


@pytest.mark.skipif(
    (sys.version_info[:2], np.__version__, platform.machine()) != HASH_PLATFORM,
    reason="the table hashes were taken on Python 3.11, numpy 2.4.6, x86_64 only",
)
@pytest.mark.parametrize("energy", list(TABLE_SHA256), ids=str)
def test_synthesized_table_bytes_are_pinned(energy):
    """The synthesized table's file text hashes as pinned."""
    text = table_to_json(read_scenario(FHD_SCENARIO).table_at(energy))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TABLE_SHA256[energy]


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
