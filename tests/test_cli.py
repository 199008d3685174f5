import importlib
import json
import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import cohres
from cohres import (
    differential_matrix,
    cross_section_matrix,
    energy_scan,
    ratio_extrema,
    read_scenario,
    read_table,
    schwartz_ratio,
    write_scan_csv,
    write_table,
)
from cohres.cli import main
from cohres.errors import CohresError
from conftest import FHD_SCENARIO, scaled_table

# end-to-end regression, frozen from the committed scenario at the pole
PEAK_R_MIN = 0.4023174476113552
PEAK_R_MAX = 69.67607291290689

# argv prefixes with "{scenario}", "{table}", "{out}" and "{missing}" placeholders
SCAN = ["scan", "--config", "{scenario}", "--pair", "D+HF,H+DF", "--out", "{out}"]
RATIO = ["control", "--table", "{table}", "--num", "D+HF", "--den", "H+DF"]
# input files that do not exist: a check that runs before the read exits 2,
# a check that runs after it (or none) exits 1 before doing any large work
SCAN_UNREAD = ["scan", "--config", "{missing}", "--pair", "D+HF,H+DF", "--out", "{out}"]
ORACLE_UNREAD = ["control", "--table", "{missing}", "--num", "D+HF", "--den", "H+DF"]


@pytest.fixture
def fhd_table(tmp_path):
    out = tmp_path / "t.json"
    rc = main(["synth", "--config", str(FHD_SCENARIO), "--energy", "0.2550", "--out", str(out)])
    assert rc == 0
    return out


def parse_line(pattern, text):
    m = re.search(pattern, text, re.MULTILINE)
    assert m, f"no match for {pattern!r} in:\n{text}"
    return m


class TestControlCommand:
    def test_ratio_mode_matches_library_exactly(self, fhd_table, capsys):
        rc = main(["control", "--table", str(fhd_table), "--num", "D+HF", "--den", "H+DF"])
        assert rc == 0
        out = capsys.readouterr().out
        table = read_table(fhd_table)
        rr = ratio_extrema(
            cross_section_matrix(table, "D+HF"), cross_section_matrix(table, "H+DF")
        )
        lo = parse_line(r"^r_min = (\S+) at s = (\S+), phi12_deg = (\S+)$", out)
        hi = parse_line(r"^r_max = (\S+) at s = (\S+), phi12_deg = (\S+)$", out)
        assert float(lo.group(1)) == rr.min_value
        assert float(lo.group(2)) == rr.params_at_min.s
        assert float(lo.group(3)) == math.degrees(rr.params_at_min.phi12)
        assert float(hi.group(1)) == rr.max_value
        assert float(hi.group(2)) == rr.params_at_max.s
        assert float(hi.group(3)) == math.degrees(rr.params_at_max.phi12)
        # frozen end-to-end values for the committed scenario
        assert rr.min_value == pytest.approx(PEAK_R_MIN, rel=1e-9)
        assert rr.max_value == pytest.approx(PEAK_R_MAX, rel=1e-9)

    @pytest.mark.parametrize("factor", [1e-90, 1e100])
    @pytest.mark.parametrize(
        "tag, flags", [("sigma", ["--channel", "D+HF"]), ("r", ["--num", "D+HF", "--den", "H+DF"])]
    )
    def test_extreme_amplitude_scales(self, fhd_table, tmp_path, capsys, factor, tag, flags):
        # the squares of these tables' matrix entries leave the doubles; the solvers scale first
        path = tmp_path / "scaled.json"
        write_table(scaled_table(read_table(fhd_table), factor), path)
        assert main(["control", "--table", str(fhd_table), *flags]) == 0
        full = capsys.readouterr().out
        assert main(["control", "--table", str(path), *flags]) == 0
        got = capsys.readouterr()
        assert got.err == ""
        unit = factor**2 if tag == "sigma" else 1.0
        for end in ("min", "max"):
            pattern = rf"^{tag}_{end} = (\S+) at s = (\S+), phi12_deg = (\S+)$"
            want, have = parse_line(pattern, full), parse_line(pattern, got.out)
            assert float(have.group(1)) == pytest.approx(float(want.group(1)) * unit, rel=1e-12)
            for i in (2, 3):
                assert float(have.group(i)) == pytest.approx(float(want.group(i)), rel=1e-9)

    def test_oracle_on_a_tiny_scale_table(self, fhd_table, tmp_path, capsys):
        # amplitudes times 1e-155: the lattice's denominators are near 1e-310, and its floor scales
        path = tmp_path / "tiny.json"
        write_table(scaled_table(read_table(fhd_table), 1e-155), path)
        flags = ["--num", "D+HF", "--den", "H+DF", "--oracle", "41"]
        assert main(["control", "--table", str(fhd_table), *flags]) == 0
        full = capsys.readouterr().out
        assert main(["control", "--table", str(path), *flags]) == 0
        got = capsys.readouterr()
        assert got.err == ""
        for end in ("min", "max"):
            pattern = rf"^oracle_r_{end} = (\S+) at s = (\S+), phi12_deg = (\S+)$"
            want, have = parse_line(pattern, full), parse_line(pattern, got.out)
            assert float(have.group(1)) == pytest.approx(float(want.group(1)), rel=1e-9)
            assert have.group(2, 3) == want.group(2, 3)

    def test_single_channel_mode(self, fhd_table, capsys):
        rc = main(["control", "--table", str(fhd_table), "--channel", "D+HF"])
        assert rc == 0
        out = capsys.readouterr().out
        table = read_table(fhd_table)
        m = cross_section_matrix(table, "D+HF")
        lo = parse_line(r"^sigma_min = (\S+) at s = (\S+), phi12_deg = (\S+)$", out)
        s0 = parse_line(r"^sigma_s0 = (\S+)$", out)
        assert float(s0.group(1)) == m.sigma11
        from cohres import cross_section_extrema

        assert float(lo.group(1)) == cross_section_extrema(m).min_value

    def test_oracle_flag_prints_lattice(self, fhd_table, capsys):
        rc = main(
            [
                "control",
                "--table",
                str(fhd_table),
                "--num",
                "D+HF",
                "--den",
                "H+DF",
                "--oracle",
                "101",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lat = parse_line(r"^oracle_r_min = (\S+) at", out)
        assert float(lat.group(1)) > 0.0

    def test_differential_mode_echoes_node(self, fhd_table, capsys):
        rc = main(
            [
                "control",
                "--table",
                str(fhd_table),
                "--num",
                "D+HF",
                "--den",
                "H+DF",
                "--angle",
                "180",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        node = parse_line(r"^angle node (\d+) at theta_deg = (\S+)$", out)
        assert int(node.group(1)) == 63

    def test_flag_conflicts_are_usage_errors(self, tmp_path, capsys):
        # the table does not exist: a check made after reading it would exit 1
        table = str(tmp_path / "missing.json")
        for flags in (
            ["--num", "D+HF"],
            ["--channel", "D+HF", "--den", "H+DF"],
            ["--channel", "D+HF", "--num", "H+DF"],
            [],
        ):
            with pytest.raises(SystemExit) as exc:
                main(["control", "--table", table, *flags])
            assert exc.value.code == 2, flags
            captured = capsys.readouterr()
            assert captured.out == "" and "error: " in captured.err, flags

    def test_unknown_channel_is_domain_error(self, fhd_table, capsys):
        assert main(["control", "--table", str(fhd_table), "--channel", "X+Y"]) == 1
        assert "no channel" in capsys.readouterr().err

    def test_zero_denominator_limit_prints_inf(self, fhd_table, tmp_path, capsys):
        # H+DF closed from the first initial state: its sigma11 is 0
        doc = json.loads(fhd_table.read_text())
        block = next(ch for ch in doc["channels"] if ch["arrangement"] == "H+DF")
        for re_or_im in (0, 1):
            block["amplitudes"][re_or_im::4] = [0.0] * len(block["amplitudes"][re_or_im::4])
        table = tmp_path / "closed.json"
        table.write_text(json.dumps(doc))
        assert main(["control", "--table", str(table), "--num", "D+HF", "--den", "H+DF"]) == 0
        out = capsys.readouterr().out
        t = read_table(table)
        num, den = cross_section_matrix(t, "D+HF"), cross_section_matrix(t, "H+DF")
        assert den.sigma11 == 0.0 < num.sigma11
        assert parse_line(r"^r_max = (\S+) at", out).group(1) == "inf"
        assert parse_line(r"^r_s0 = (\S+)$", out).group(1) == "inf"
        assert float(parse_line(r"^r_s1 = (\S+)$", out).group(1)) == num.sigma22 / den.sigma22

    def test_pure_pole_ratio_is_independent_of_the_control(self, tmp_path, capsys):
        # without a direct term both channels factorize through the one pole
        table = tmp_path / "pole.json"
        write_table(replace(read_scenario(FHD_SCENARIO), mix=1.0).table_at(0.255), table)
        assert main(["control", "--table", str(table), "--num", "D+HF", "--den", "H+DF"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "r is independent of the control parameters"
        # the decay branching, 10 : 1 by the scenario's construction
        assert float(parse_line(r"^r_min = (\S+)", lines[0]).group(1)) == pytest.approx(10.0)

    def test_tol_singular_flag_reaches_solver(self, fhd_table, capsys):
        # an absurdly loose threshold treats the healthy denominator as
        # singular, flipping the result to an unbounded maximum
        rc = main(
            ["control", "--table", str(fhd_table), "--num", "D+HF", "--den", "H+DF",
             "--tol-singular", "1.0"]
        )
        assert rc == 0
        assert "unbounded" in capsys.readouterr().out


class TestSchwartzCommand:
    def test_integral_matches_library(self, fhd_table, capsys):
        rc = main(["schwartz", "--table", str(fhd_table), "--channel", "D+HF"])
        assert rc == 0
        out = capsys.readouterr().out
        m = parse_line(r"\(integral\) = (\S+)$", out)
        table = read_table(fhd_table)
        assert float(m.group(1)) == schwartz_ratio(cross_section_matrix(table, "D+HF"))
        assert float(m.group(1)) == pytest.approx(0.9, abs=1e-12)

    def test_backward_angle_uses_nearest_node(self, fhd_table, capsys):
        rc = main(["schwartz", "--table", str(fhd_table), "--channel", "D+HF", "--angle", "180"])
        assert rc == 0
        out = capsys.readouterr().out
        m = parse_line(r"at node (\d+) \(theta_deg = (\S+)\) = (\S+)$", out)
        table = read_table(fhd_table)
        node = int(m.group(1))
        assert node == table.grid.nearest_node(math.pi)
        expected = schwartz_ratio(differential_matrix(table, "D+HF", node))
        assert float(m.group(3)) == expected


class TestScanCommand:
    def test_scan_matches_library_csv(self, tmp_path, capsys):
        out_cli = tmp_path / "cli.csv"
        rc = main(
            [
                "scan",
                "--config",
                str(FHD_SCENARIO),
                "--emin",
                "0.25",
                "--emax",
                "0.31",
                "--step",
                "0.005",
                "--pair",
                "D+HF,H+DF",
                "--out",
                str(out_cli),
            ]
        )
        assert rc == 0
        assert "13 rows" in capsys.readouterr().out
        cfg = read_scenario(FHD_SCENARIO)
        energies = [0.25 + i * 0.005 for i in range(13)]
        out_lib = tmp_path / "lib.csv"
        write_scan_csv(energy_scan(cfg, energies, ("D+HF", "H+DF")), out_lib)
        assert out_cli.read_bytes() == out_lib.read_bytes()

    def test_closed_denominator_column_writes_inf(self, tmp_path, capsys):
        # pure direct scattering with H+DF closed from the first initial state
        doc = json.loads(FHD_SCENARIO.read_text())
        doc["mix"] = 0.0
        for ch in doc["background"]["channels"]:
            if ch["arrangement"] == "H+DF":
                for state in ch["states"]:
                    state["column_weights"] = [[0.0, 0.0], [1.0, 0.0]]
        config, out = tmp_path / "closed.json", tmp_path / "scan.csv"
        config.write_text(json.dumps(doc))
        argv = ["scan", "--config", str(config), "--emin", "0.25", "--emax", "0.26",
                "--step", "0.005", "--pair", "D+HF,H+DF", "--out", str(out)]
        assert main(argv) == 0
        assert "3 rows" in capsys.readouterr().out
        header, *body = [line.split(",") for line in out.read_text().splitlines()]
        assert len(body) == 3
        for rec in body:
            for col in ("r_nc_max", "r_max", "R", "R_nc"):
                assert rec[header.index(col)] == "inf"
            assert rec[header.index("schwartz[H+DF]")] == "nan"

    def test_bad_pair_is_usage_error(self, tmp_path, capsys):
        # the scenario does not exist: a check made after reading it would exit 1
        out = tmp_path / "x.csv"
        for pair in ("only-one", "A,", "A,B,C"):
            with pytest.raises(SystemExit) as exc:
                main(["scan", "--config", str(tmp_path / "missing.json"), "--emin", "0.25",
                      "--emax", "0.26", "--step", "0.005", "--pair", pair, "--out", str(out)])
            assert exc.value.code == 2, pair
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert "argument --pair: expected 'numerator,denominator'" in captured.err


class TestValidateCommand:
    def test_valid_table(self, fhd_table, capsys):
        assert main(["validate", "--table", str(fhd_table)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_invalid_table_lists_violations(self, fhd_table, tmp_path, capsys):
        doc = json.loads(fhd_table.read_text())
        doc["angle_grid"]["weights_sr"] = [w / 2 for w in doc["angle_grid"]["weights_sr"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--table", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "weights sum" in out and "1 violation(s)" in out

    @pytest.mark.parametrize("cmd", ["control", "schwartz"])
    def test_invalid_table_error_names_the_file(self, cmd, fhd_table, tmp_path, capsys):
        doc = json.loads(fhd_table.read_text())
        doc["angle_grid"]["weights_sr"] = [w / 2 for w in doc["angle_grid"]["weights_sr"]]
        bad = tmp_path / "half.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([cmd, "--table", str(bad), "--channel", "D+HF"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cohres: error: {bad}: grid: weights sum to ")
        assert captured.err.count("\n") == 1

    def test_every_violation_printed_in_order(self, fhd_table, tmp_path, capsys):
        doc = json.loads(fhd_table.read_text())
        weights = [w / 2 for w in doc["angle_grid"]["weights_sr"]]
        doc["angle_grid"]["weights_sr"] = weights
        doc["initial"][1]["m"] = 1
        doc["channels"][0]["amplitudes"][5] = math.nan  # state 0, node 1, column 0, real part
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--table", str(bad)]) == 1
        total = float(np.asarray(weights).sum())
        assert capsys.readouterr() == (
            "initial_pair: helicities differ; only azimuthally symmetric tables "
            "(equal m) are supported\n"
            f"grid: weights sum to {total!r}, expected 4*pi = {4.0 * math.pi!r}\n"
            "channel 'D+HF': non-finite amplitude at state 0, node 1, column 0\n"
            "3 violation(s)\n",
            "",
        )

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_number_of_initial_records(self, count, fhd_table, tmp_path, capsys):
        doc = json.loads(fhd_table.read_text())
        doc["initial"] = (doc["initial"] + [dict(doc["initial"][0], j=2)])[:count]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", "--table", str(bad)]) == 1
        assert capsys.readouterr() == (
            f"initial_pair: need exactly two states, got {count}\n1 violation(s)\n", ""
        )


def invalid_pair(doc):
    doc["initial_pair"][1]["m"] = 1
    return "helicities differ"


def repeated_pair(doc):
    doc["initial_pair"][1] = dict(doc["initial_pair"][0])
    return "the two initial states must be distinct"


class TestInvalidPairScenario:
    """A scenario whose initial pair no table can carry writes nothing."""

    @pytest.mark.parametrize("mutate", [invalid_pair, repeated_pair])
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--energy", "0.255"],
            ["scan", "--emin", "0.25", "--emax", "0.26", "--step", "0.005",
             "--pair", "D+HF,H+DF"],
        ],
        ids=["synth", "scan"],
    )
    def test_exit_1_and_no_file(self, mutate, argv, tmp_path, capsys):
        doc = json.loads(FHD_SCENARIO.read_text())
        message = mutate(doc)
        config, out = tmp_path / "pair.json", tmp_path / "out"
        config.write_text(json.dumps(doc))
        assert main(argv + ["--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cohres: error: {config}: ")  # the file, before any energy
        assert "at energy" not in captured.err
        assert captured.err.count("\n") == 1 and message in captured.err


class TestExitCodes:
    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["control"])  # missing required --table
        assert exc.value.code == 2

    def test_angle_out_of_range_is_usage_error(self, fhd_table, capsys):
        capsys.readouterr()
        for cmd in ("control", "schwartz"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--table", str(fhd_table), "--channel", "D+HF", "--angle", "500"])
            assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_oracle_below_two_is_usage_error(self, fhd_table, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["control", "--table", str(fhd_table), "--channel", "D+HF", "--oracle", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["synth", "--config", "{scenario}", "--energy", "nan", "--out", "{out}"], "--energy"),
            (["synth", "--config", "{scenario}", "--energy", "inf", "--out", "{out}"], "--energy"),
            ([*SCAN, "--emin", "nan", "--emax", "0.26", "--step", "0.005"], "--emin"),
            ([*SCAN, "--emin", "0.25", "--emax", "inf", "--step", "0.005"], "--emax"),
            ([*SCAN, "--emin", "0.25", "--emax", "0.26", "--step", "inf"], "--step"),
            ([*SCAN, "--emin", "0.25", "--emax", "0.26", "--step", "0"], "--step"),
            ([*SCAN_UNREAD, "--emin", "0.25", "--emax", "0.26", "--step=-1"], "--step"),
            ([*SCAN, "--emin", "0.3", "--emax", "0.2", "--step", "0.005"], None),
            ([*RATIO, "--tol-singular", "nan"], "--tol-singular"),
            ([*RATIO, "--tol-singular=-1e-14"], "--tol-singular"),
            ([*SCAN_UNREAD, "--emin=-1e308", "--emax", "1e308", "--step", "1"], None),
            (
                [*SCAN_UNREAD, "--emin", "1", "--emax", "1.0000000000000002", "--step", "1e-17"],
                None,
            ),
            ([*SCAN_UNREAD, "--emin", "0", "--emax", "1", "--step", "1e-12"], None),
            ([*ORACLE_UNREAD, "--oracle", "100000"], "--oracle"),
            ([*ORACLE_UNREAD, "--angle", "180.5"], "--angle"),
            (["schwartz", "--table", "{missing}", "--channel", "D+HF", "--angle=-1"], "--angle"),
            (["synth", "--config", "{missing}", "--energy", "abc", "--out", "{out}"], "--energy"),
            ([*ORACLE_UNREAD, "--oracle", "7.5"], "--oracle"),
            ([*ORACLE_UNREAD, "--angle", "abc"], "--angle"),
        ],
        ids=[
            "energy-nan",
            "energy-inf",
            "emin-nan",
            "emax-inf",
            "step-inf",
            "step-zero",
            "step-negative",
            "emin-above-emax",
            "tol-nan",
            "tol-negative",
            "grid-overflows",
            "grid-not-increasing",
            "grid-too-many-rows",
            "oracle-above-cap",
            "angle-above-180",
            "schwartz-angle-negative",
            "energy-not-a-number",
            "oracle-not-an-integer",
            "angle-not-a-number",
        ],
    )
    def test_bad_float_flag_is_usage_error(self, argv, flag, fhd_table, tmp_path, capsys):
        out = tmp_path / "out"
        missing = tmp_path / "missing.json"
        argv = [
            a.format(scenario=FHD_SCENARIO, table=fhd_table, out=out, missing=missing)
            for a in argv
        ]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        if flag is not None:  # a single flag's range is its argparse type's to report
            assert f"cohres {argv[0]}: error: argument {flag}: expected " in captured.err
            given = dict(a.split("=", 1) for a in argv if "=" in a).get(flag)
            text = given if given is not None else argv[argv.index(flag) + 1]
            assert captured.err.endswith(f", got {text!r}\n")  # convert's ValueError too

    @pytest.mark.parametrize(
        "argv",
        [
            [*ORACLE_UNREAD[:3], "--num", "D+HF"],
            [*ORACLE_UNREAD[:3], "--channel", "D+HF", "--den", "H+DF"],
            [*SCAN_UNREAD, "--emin", "0.3", "--emax", "0.2", "--step", "0.005"],
            [*SCAN_UNREAD, "--emin", "0", "--emax", "1", "--step", "1e-12"],
            [*SCAN_UNREAD, "--emin", "1", "--emax", "1.0000000000000002", "--step", "1e-17"],
        ],
        ids=["num-without-den", "den-with-channel", "emin-above-emax", "too-many-rows",
             "grid-not-increasing"],
    )
    def test_flag_combination_reports_subcommand_usage(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [a.format(missing=tmp_path / "missing.json", out=out) for a in argv]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: cohres {argv[0]} [-h] ")
        error = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(error) == 1 and error[0].startswith(f"cohres {argv[0]}: error: --")
        assert not out.exists()

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["schwartz", "--table", str(tmp_path / "no.json"), "--channel", "x"]) == 1

    def test_only_cohres_errors_are_domain_errors(self, fhd_table, monkeypatch, capsys):
        def fail(error):
            def read_table(path):
                raise error

            return read_table

        argv = ["validate", "--table", str(fhd_table)]
        monkeypatch.setattr("cohres.cli.read_table", fail(ValueError("boom")))
        with pytest.raises(ValueError, match="^boom$") as err:
            main(argv)
        assert type(err.value) is ValueError  # a bug, not reported as a domain error
        monkeypatch.setattr("cohres.cli.read_table", fail(CohresError("boom")))
        assert main(argv) == 1
        assert capsys.readouterr().err == "cohres: error: boom\n"

    def test_scan_overflow_is_one_error_line(self, tmp_path):
        # NumPy's Gram sums overflow at 1e155 eV, and the amplitudes' squares at 1e160 eV
        out = tmp_path / "x.csv"
        for energy in ("1e155", "1e160"):
            proc = subprocess.run(
                [sys.executable, "-m", "cohres.cli", "scan", "--config", str(FHD_SCENARIO),
                 "--emin", energy, "--emax", energy, "--step", "1", "--pair", "D+HF,H+DF",
                 "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 1
            assert not out.exists()
            assert proc.stdout == ""
            assert proc.stderr.startswith(f"cohres: error: at energy {float(energy)!r} eV: ")
            assert proc.stderr.count("\n") == 1

    def test_scan_past_the_squares_range_is_solved(self, tmp_path):
        # at 1e100 eV the matrix entries are near 1e200, whose squares overflow a double
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "cohres.cli", "scan", "--config", str(FHD_SCENARIO),
             "--emin", "1e100", "--emax", "1e100", "--step", "1", "--pair", "D+HF,H+DF",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"wrote {out} (1 rows)\n"
        header, row = out.read_text().splitlines()
        assert all(math.isfinite(float(v)) for v in row.split(","))

    def test_subprocess_entry_point(self, tmp_path):
        out = tmp_path / "t.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "cohres.cli",
                "synth",
                "--config",
                str(FHD_SCENARIO),
                "--energy",
                "0.2600",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()


LAYER_MODULES = ("constants", "core", "errors", "tableio", "xsection", "control")
SYNTHESIS_AND_SCAN = ("cohres.resonance", "cohres.scenario", "cohres.scan")

# run in a fresh interpreter: after each statement, print its SystemExit code (None if
# it did not exit) and which of the synthesis and scan modules are loaded
COLD_START_PROBE = """
import json, sys
for stmt in json.loads(sys.argv[1]):
    code = None
    try:
        exec(stmt)
    except SystemExit as exc:
        code = exc.code
    print(json.dumps([code, sorted(m for m in sys.modules if m in {lazy!r})]))
""".format(lazy=SYNTHESIS_AND_SCAN)


def loaded_after(*statements: str) -> list[list]:
    """[exit code, synthesis and scan modules loaded] after each statement, in one fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE, json.dumps(statements)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]


class TestColdStart:
    """``import cohres`` loads the table and solver layer; the synthesis and scan layer
    loads at first use of one of its names, and only ``synth`` and ``scan`` load it.
    No name is kept in the package, so a patched module binding is seen at once."""

    def test_table_commands_load_no_synthesis_or_scan_module(self, fhd_table, tmp_path):
        t, out = str(fhd_table), str(tmp_path / "t2.json")
        steps = loaded_after(
            "import cohres",
            "import cohres.cli",
            f"cohres.cli.main(['validate', '--table', {t!r}])",
            f"cohres.cli.main(['control', '--table', {t!r}, '--num', 'D+HF', '--den', 'H+DF'])",
            f"cohres.cli.main(['control', '--table', {t!r}, '--channel', 'D+HF', '--angle', '90'])",
            f"cohres.cli.main(['schwartz', '--table', {t!r}, '--channel', 'D+HF'])",
            # a scan whose flags are refused exits 2 before it needs the scan layer
            "cohres.cli.main(['scan', '--config', 'x.json', '--emin', '2', '--emax', '1',"
            " '--step', '1', '--pair', 'A,B', '--out', 'x.csv'])",
            f"cohres.cli.main(['synth', '--config', {str(FHD_SCENARIO)!r}, '--energy', '0.255',"
            f" '--out', {out!r}])",
        )
        assert steps == [[None, []]] * 6 + [
            [2, []],
            [None, ["cohres.resonance", "cohres.scenario"]],
        ]

    def test_scan_loads_its_modules(self, tmp_path):
        out = str(tmp_path / "s.csv")
        argv = [*SCAN, "--emin", "0.25", "--emax", "0.25", "--step", "0.01"]
        argv = [a.format(scenario=FHD_SCENARIO, out=out) for a in argv]
        assert loaded_after("import cohres.cli", f"cohres.cli.main({argv!r})") == [
            [None, []],
            [None, sorted(SYNTHESIS_AND_SCAN)],
        ]

    def test_a_first_use_loads_the_layer(self):
        assert loaded_after("import cohres", "cohres.ScanRow") == [
            [None, []],
            [None, sorted(SYNTHESIS_AND_SCAN)],
        ]

    def test_every_exported_name_is_its_modules_binding(self):
        modules = [importlib.import_module(f"cohres.{m}") for m in LAYER_MODULES]
        modules += [importlib.import_module(m) for m in SYNTHESIS_AND_SCAN]
        for name in cohres.__all__:
            homes = [m for m in modules if name in getattr(m, "__all__", vars(m))]
            assert homes, name
            assert all(getattr(cohres, name) is getattr(m, name) for m in homes), name

    def test_dir_and_star_import_cover_all(self):
        assert set(cohres.__all__) <= set(dir(cohres))
        namespace = {}
        exec("from cohres import *", namespace)
        del namespace["__builtins__"]
        assert len(cohres.__all__) == 54
        assert sorted(namespace) == sorted(cohres.__all__)

    @pytest.mark.parametrize("name", ["no_such_name", "scan_csv_header"])
    def test_an_unknown_name_is_an_attribute_error(self, name):
        # scan_csv_header is in cohres.scan.__all__ but not in the package's
        with pytest.raises(AttributeError) as err:
            getattr(cohres, name)
        assert str(err.value) == f"module 'cohres' has no attribute {name!r}"

    def test_each_use_reads_the_modules_current_binding(self, monkeypatch):
        import cohres.scan

        original = cohres.scan.energy_scan

        def f(*args):
            return ()

        with monkeypatch.context() as patch:
            patch.setattr(cohres.scan, "energy_scan", f)
            assert cohres.energy_scan is f
        assert cohres.energy_scan is original
        assert "energy_scan" not in vars(cohres)  # no binding is kept in the package
