"""``scripts/scan_diff.py``: per column, the changed cells of two scans and their largest ulp distance."""

import importlib.util

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("scan_diff", REPO_ROOT / "scripts" / "scan_diff.py")
scan_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scan_diff)


def write_csv(path, header, rows):
    path.write_text("".join(",".join(map(str, r)) + "\r\n" for r in [header, *rows]))
    return str(path)


def report(capsys, tmp_path, cell_a, cell_b):
    """The ``(changed, max_ulps)`` that scan_diff prints for column ``x``, one row apart."""
    a = write_csv(tmp_path / "a.csv", ["energy_eV", "x"], [["0.25", cell_a]])
    b = write_csv(tmp_path / "b.csv", ["energy_eV", "x"], [["0.25", cell_b]])
    assert scan_diff.main([a, b]) == 0
    lines = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert lines["energy_eV"] == ["0", "-"]
    return tuple(lines["x"])


@pytest.mark.parametrize(
    "cell_a, cell_b, want",
    [
        ("0.0", "-0.0", ("1", "0")),  # a changed text, no distance
        ("1.0", repr(1.0 + 2.0**-52), ("1", "1")),  # adjacent doubles
        ("-5e-324", "5e-324", ("1", "2")),  # across zero: -min, +-0, +min
        ("1.0", "nan", ("1", "inf")),
        ("inf", "1e308", ("1", "inf")),
    ],
    ids=["signed-zeros", "adjacent", "across-zero", "nan", "inf"],
)
def test_each_changed_cell_is_counted_with_its_ulp_distance(
    capsys, tmp_path, cell_a, cell_b, want
):
    assert report(capsys, tmp_path, cell_a, cell_b) == want


def test_equal_files_exit_0_with_no_changed_cell(capsys, tmp_path):
    rows = [["0.25", "1.0"], ["0.26", "inf"]]
    a = write_csv(tmp_path / "a.csv", ["energy_eV", "x"], rows)
    assert scan_diff.main([a, a]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["energy_eV        0         -", "x                0         -", "2 rows"]


@pytest.mark.parametrize(
    "header_b, rows_b, why",
    [
        (["energy_eV", "y"], [["0.25", "1.0"]], "headers differ"),
        (["energy_eV", "x"], [["0.25", "1.0"], ["0.26", "1.0"]], "row counts differ: 1 against 2"),
    ],
    ids=["header", "row-count"],
)
def test_a_header_or_row_count_mismatch_exits_1(capsys, tmp_path, header_b, rows_b, why):
    a = write_csv(tmp_path / "a.csv", ["energy_eV", "x"], [["0.25", "1.0"]])
    b = write_csv(tmp_path / "b.csv", header_b, rows_b)
    assert scan_diff.main([a, b]) == 1
    assert capsys.readouterr().out.startswith(why)
