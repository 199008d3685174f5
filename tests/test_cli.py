import math
import re
import subprocess
import sys

import pytest

from cohres import (
    differential_matrix,
    cross_section_matrix,
    energy_scan,
    ratio_extrema,
    read_scenario,
    read_table,
    schwartz_ratio,
    write_scan_csv,
)
from cohres.cli import main
from conftest import FHD_SCENARIO

# end-to-end regression, frozen from the committed scenario at the pole
PEAK_R_MIN = 0.4023174476113552
PEAK_R_MAX = 69.67607291290689

# argv prefixes with "{scenario}", "{table}" and "{out}" placeholders
SCAN = ["scan", "--config", "{scenario}", "--pair", "D+HF,H+DF", "--out", "{out}"]
RATIO = ["control", "--table", "{table}", "--num", "D+HF", "--den", "H+DF"]


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

    def test_flag_conflicts_are_domain_errors(self, fhd_table, capsys):
        assert main(["control", "--table", str(fhd_table), "--num", "D+HF"]) == 1
        assert main(["control", "--table", str(fhd_table)]) == 1
        err = capsys.readouterr().err
        assert "cohres: error" in err

    def test_unknown_channel_is_domain_error(self, fhd_table, capsys):
        assert main(["control", "--table", str(fhd_table), "--channel", "X+Y"]) == 1
        assert "no channel" in capsys.readouterr().err

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

    def test_bad_pair_is_domain_error(self, tmp_path, capsys):
        rc = main(
            [
                "scan",
                "--config",
                str(FHD_SCENARIO),
                "--emin",
                "0.25",
                "--emax",
                "0.26",
                "--step",
                "0.005",
                "--pair",
                "only-one",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1


class TestValidateCommand:
    def test_valid_table(self, fhd_table, capsys):
        assert main(["validate", "--table", str(fhd_table)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_invalid_table_lists_violations(self, fhd_table, tmp_path, capsys):
        import json

        doc = json.loads(fhd_table.read_text())
        doc["angle_grid"]["weights_sr"] = [w / 2 for w in doc["angle_grid"]["weights_sr"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--table", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "weights sum" in out and "1 violation(s)" in out


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
        "argv",
        [
            ["synth", "--config", "{scenario}", "--energy", "nan", "--out", "{out}"],
            ["synth", "--config", "{scenario}", "--energy", "inf", "--out", "{out}"],
            [*SCAN, "--emin", "nan", "--emax", "0.26", "--step", "0.005"],
            [*SCAN, "--emin", "0.25", "--emax", "inf", "--step", "0.005"],
            [*SCAN, "--emin", "0.25", "--emax", "0.26", "--step", "inf"],
            [*SCAN, "--emin", "0.25", "--emax", "0.26", "--step", "0"],
            [*SCAN, "--emin", "0.3", "--emax", "0.2", "--step", "0.005"],
            [*RATIO, "--tol-singular", "nan"],
            [*RATIO, "--tol-singular=-1e-14"],
        ],
        ids=[
            "energy-nan",
            "energy-inf",
            "emin-nan",
            "emax-inf",
            "step-inf",
            "step-zero",
            "emin-above-emax",
            "tol-nan",
            "tol-negative",
        ],
    )
    def test_bad_float_flag_is_usage_error(self, argv, fhd_table, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [a.format(scenario=FHD_SCENARIO, table=fhd_table, out=out) for a in argv]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["schwartz", "--table", str(tmp_path / "no.json"), "--channel", "x"]) == 1

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
