import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cohres import (
    ChannelState,
    MalformedFileError,
    TableValidationError,
    read_scenario,
    read_table,
    write_scenario,
    write_table,
)
from cohres.tableio import _state_out, table_from_json, table_to_json
from conftest import FHD_SCENARIO, INITIAL, random_table


def tables_equal(a, b) -> bool:
    if (a.energy, a.initial_pair, a.arrangements()) != (
        b.energy,
        b.initial_pair,
        b.arrangements(),
    ):
        return False
    if not np.array_equal(a.grid.nodes, b.grid.nodes):
        return False
    if not np.array_equal(a.grid.weights, b.grid.weights):
        return False
    for ba, bb in zip(a.channels, b.channels):
        if ba.states != bb.states:
            return False
        if not np.array_equal(ba.amplitudes, bb.amplitudes):
            return False
    return True


class TestTableRoundTrip:
    def test_read_write_is_identity(self, rng, tmp_path):
        t = random_table(rng, n_states=3, order=8)
        path = tmp_path / "t.json"
        write_table(t, path)
        assert tables_equal(read_table(path), t)

    def test_reserialization_is_bit_identical(self, rng, tmp_path):
        t = random_table(rng, n_states=2, order=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_table(t, p1)
        write_table(read_table(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_signed_zeros_round_trip(self, rng):
        t = random_table(rng, n_states=2, order=4)
        amps = t.channels[0].amplitudes.copy()
        amps[0, 0, 0] = complex(-0.0, 1.0)
        amps[0, 1, 1] = complex(1.0, -0.0)
        amps[1, 2, 0] = complex(-0.0, -0.0)
        t = replace(t, channels=(replace(t.channels[0], amplitudes=amps),) + t.channels[1:])
        text = table_to_json(t)
        back = table_from_json(text)
        for ours, theirs in zip(t.channels, back.channels):
            assert ours.amplitudes.tobytes() == theirs.amplitudes.tobytes()
        assert table_to_json(back) == text

    def test_synthesized_table_round_trips(self, tmp_path):
        cfg = read_scenario(FHD_SCENARIO)
        t = cfg.table_at(0.2550)
        path = tmp_path / "fhd.json"
        write_table(t, path)
        assert tables_equal(read_table(path), t)


class TestTableErrors:
    def test_bad_weight_sum_is_validation_error(self, rng, tmp_path):
        t = random_table(rng, n_states=1, order=4)
        doc = json.loads(table_to_json(t))
        doc["angle_grid"]["weights_sr"] = [w / 2.0 for w in doc["angle_grid"]["weights_sr"]]
        path = tmp_path / "halved.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TableValidationError) as err:
            read_table(path)
        assert any("weights sum" in v for v in err.value.violations)

    def test_truncated_file_is_malformed_with_locus(self, rng, tmp_path):
        t = random_table(rng, n_states=1, order=4)
        text = table_to_json(t)
        path = tmp_path / "cut.json"
        path.write_text(text[: len(text) // 2])
        with pytest.raises(MalformedFileError) as err:
            read_table(path)
        assert "line" in str(err.value)

    def test_missing_field_is_malformed(self, rng):
        t = random_table(rng, n_states=1, order=4)
        doc = json.loads(table_to_json(t))
        del doc["channels"][0]["states"]
        with pytest.raises(MalformedFileError):
            table_from_json(json.dumps(doc))

    def test_wrong_amplitude_count_is_malformed(self, rng):
        t = random_table(rng, n_states=1, order=4)
        doc = json.loads(table_to_json(t))
        doc["channels"][0]["amplitudes"] = doc["channels"][0]["amplitudes"][:-2]
        with pytest.raises(MalformedFileError) as err:
            table_from_json(json.dumps(doc))
        assert "states * nodes * 4" in str(err.value)

    def test_non_utf8_file_is_malformed_with_path(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        for read in (read_table, read_scenario):
            with pytest.raises(MalformedFileError, match="not UTF-8") as err:
                read(path)
            assert str(path) in str(err.value)

    @pytest.mark.parametrize("value", ["1e999", "1.5", '"1"', "true"])
    def test_state_integers_are_exact(self, rng, tmp_path, value):
        text = table_to_json(random_table(rng, n_states=1, order=4))
        path = tmp_path / "t.json"
        path.write_text(text.replace('"v": 0', f'"v": {value}', 1))
        with pytest.raises(MalformedFileError, match="v must be an integer") as err:
            read_table(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("energy_eV",), "0.5", "energy_eV must be a number, got '0.5'"),
            (("energy_eV",), True, "energy_eV must be a number, got True"),
            (("energy_eV",), None, "energy_eV must be a number, got None"),
            (("channels", 0, "amplitudes", 3), True, r"amplitudes\[3\] must be a number"),
            (("angle_grid", "nodes_rad", 1), "0.5", r"nodes_rad\[1\] must be a number"),
            (("angle_grid", "weights_sr"), "1", "weights_sr must be an array of numbers"),
            (("channels", 1, "arrangement"), None, "arrangement must be a string, got None"),
            (("channels", 1, "arrangement"), 5, "arrangement must be a string, got 5"),
            (("initial", 0, "arrangement"), None, "arrangement must be a string, got None"),
            (("channels", 0, "states", 0, "arrangement"), 5, "arrangement must be a string"),
        ],
        ids=[
            "quoted-energy",
            "bool-energy",
            "null-energy",
            "bool-amplitude",
            "quoted-node",
            "quoted-weights",
            "null-label",
            "int-label",
            "null-initial-label",
            "int-state-label",
        ],
    )
    def test_field_is_taken_only_as_its_json_type(self, rng, tmp_path, capsys, keys, value,
                                                  message):
        from cohres.cli import main

        doc = json.loads(table_to_json(random_table(rng, n_states=1, order=4)))
        parent = doc
        for k in keys[:-1]:
            parent = parent[k]
        parent[keys[-1]] = value
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError, match=message) as err:
            read_table(path)
        assert str(err.value).startswith(f"{path}: TypeError: ")
        capsys.readouterr()
        assert main(["validate", "--table", str(path)]) == 1
        assert capsys.readouterr() == ("", f"cohres: error: {err.value}\n")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_tokens_reach_the_table_checks(self, rng, token):
        doc = json.loads(table_to_json(random_table(rng, n_states=1, order=4)))
        doc["energy_eV"] = "ENERGY"
        doc["channels"][0]["amplitudes"][0] = "AMPLITUDE"
        text = json.dumps(doc).replace('"ENERGY"', token).replace('"AMPLITUDE"', token)
        with pytest.raises(TableValidationError) as err:
            table_from_json(text)
        assert err.value.violations == [
            "energy: must be finite",
            "channel 'D+HF': non-finite amplitude at state 0, node 0, column 0",
        ]

    def test_integers_are_numbers(self, rng):
        t = random_table(rng, n_states=1, order=4)
        doc = json.loads(table_to_json(t))
        doc["energy_eV"] = 1
        doc["channels"][0]["amplitudes"][:4] = [0, 1, -2, 0]
        back = table_from_json(json.dumps(doc))
        assert back.energy == 1.0 and type(back.energy) is float
        assert back.channels[0].amplitudes[0, 0].tolist() == [1j, -2 + 0j]
        assert tables_equal(table_from_json(table_to_json(back)), back)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            read_table(tmp_path / "absent.json")

    def test_single_node_table_ingests(self, tmp_path):
        # purely angle-resolved data arrives as a one-node grid, exempt
        # from the weight-sum rule
        import numpy as np
        from cohres import AmplitudeTable, AngleGrid, ChannelBlock, ChannelState
        from cohres.xsection import differential_matrix
        from conftest import INITIAL

        amps = np.array([[[1.0 + 0.5j, 0.25 - 1.0j]]])
        t = AmplitudeTable(
            0.4,
            INITIAL,
            AngleGrid([3.0], [1.0]),
            (ChannelBlock("D+HF", (ChannelState("D+HF", 0, 0, 0),), amps),),
        )
        path = tmp_path / "one.json"
        write_table(t, path)
        back = read_table(path)
        m = differential_matrix(back, "D+HF", 0)
        assert m.sigma11 == pytest.approx(1.25, rel=1e-15)


class TestScenarioIo:
    def test_scenario_round_trip(self, tmp_path):
        cfg = read_scenario(FHD_SCENARIO)
        path = tmp_path / "copy.json"
        write_scenario(cfg, path)
        assert path.read_bytes() == FHD_SCENARIO.read_bytes()
        assert read_scenario(path) == cfg

    def test_grid_order_capped_before_any_grid(self, tmp_path, monkeypatch, capsys):
        import cohres.core
        from cohres.cli import main
        from cohres.core import MAX_GRID_ORDER

        def no_grid(order):
            raise AssertionError(f"a grid of order {order} was built")

        monkeypatch.setattr(cohres.core, "leggauss", no_grid)
        cfg = json.loads(FHD_SCENARIO.read_text())
        cfg["grid_order"] = 10**6
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(MalformedFileError, match="grid_order"):
            read_scenario(path)
        with pytest.raises(ValueError, match="grid_order"):
            replace(read_scenario(FHD_SCENARIO), grid_order=MAX_GRID_ORDER + 1)
        out = tmp_path / "t.json"
        assert main(["synth", "--config", str(path), "--energy", "0.255", "--out", str(out)]) == 1
        assert main(
            ["scan", "--config", str(path), "--emin", "0.25", "--emax", "0.26",
             "--step", "0.005", "--pair", "D+HF,H+DF", "--out", str(out)]
        ) == 1
        assert not out.exists()
        assert "grid_order" in capsys.readouterr().err

    def test_mismatched_specs_rejected_before_any_grid(self, tmp_path, monkeypatch, capsys):
        import cohres.core
        from cohres.cli import main

        def no_grid(order):
            raise AssertionError(f"a grid of order {order} was built")

        monkeypatch.setattr(cohres.core, "leggauss", no_grid)
        cfg = json.loads(FHD_SCENARIO.read_text())
        h_df = next(ch for ch in cfg["background"]["channels"] if ch["arrangement"] == "H+DF")
        h_df["states"].pop()
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(MalformedFileError, match="SpecMismatchError") as err:
            read_scenario(path)
        assert str(path) in str(err.value)
        out = tmp_path / "t.json"
        assert main(["synth", "--config", str(path), "--energy", "0.255", "--out", str(out)]) == 1
        assert main(
            ["scan", "--config", str(path), "--emin", "0.25", "--emax", "0.26",
             "--step", "0.005", "--pair", "D+HF,H+DF", "--out", str(out)]
        ) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count(f"cohres: error: {path}: SpecMismatchError") == 2

    @pytest.mark.parametrize(
        "pair, message",
        [
            ([INITIAL[0], ChannelState("F+HD", 0, 1, 1)], "helicities differ"),
            ([INITIAL[0], INITIAL[0]], "the two initial states must be distinct"),
            ([*INITIAL, ChannelState("F+HD", 0, 2, 0)], "need exactly two states, got 3"),
        ],
        ids=["mixed-m", "repeated", "three-states"],
    )
    def test_invalid_pair_rejected_before_any_grid(self, tmp_path, monkeypatch, pair, message):
        import cohres.core

        def no_grid(order):
            raise AssertionError(f"a grid of order {order} was built")

        monkeypatch.setattr(cohres.core, "leggauss", no_grid)
        cfg = read_scenario(FHD_SCENARIO)
        with pytest.raises(TableValidationError, match=message) as err:
            replace(cfg, initial_pair=tuple(pair))
        assert len(err.value.violations) == 1
        doc = json.loads(FHD_SCENARIO.read_text())
        doc["initial_pair"] = [_state_out(s) for s in pair]
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError, match=message) as err:
            read_scenario(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("value", ["1e999", "64.9", '"64"', "true"])
    def test_grid_order_must_be_an_integer(self, tmp_path, value):
        path = tmp_path / "s.json"
        text = FHD_SCENARIO.read_text()
        path.write_text(text.replace('"grid_order": 64', f'"grid_order": {value}'))
        with pytest.raises(MalformedFileError, match="grid_order must be an integer") as err:
            read_scenario(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, "nan"], ids=["NaN", "inf", "str"])
    @pytest.mark.parametrize(
        "keys, field",
        [
            (("resonance", "epsilon_r_eV"), "epsilon_r"),
            (("resonance", "gamma_width_eV"), "gamma_width"),
            (("resonance", "entrance", 1, 0), "entrance"),
            (("resonance", "exits", 0, "states", 0, "coupling", 1), "coupling"),
            (("resonance", "exits", 0, "states", 0, "shape", 1), "shape"),
            (("background", "reference_energy_eV"), "reference_energy"),
            (("background", "channels", 0, "states", 0, "amplitude", 0), "amplitude"),
            (("background", "channels", 0, "states", 0, "slope", 1), "slope"),
            (("background", "channels", 0, "states", 0, "shape", 2), "shape"),
            (("background", "channels", 1, "states", 0, "column_weights", 1, 0), "column_weights"),
        ],
        ids=lambda x: x if isinstance(x, str) else None,
    )
    def test_non_finite_spec_number_rejected(self, tmp_path, capsys, keys, field, value):
        cfg = json.loads(FHD_SCENARIO.read_text())
        parent = cfg
        for k in keys[:-1]:
            parent = parent[k]
        parent[keys[-1]] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        # a string is refused by the number rule before any finiteness check
        if value == "nan":
            pattern = f"{field}.*must be a number, got 'nan'"
        else:
            pattern = f"{field} must be finite"
        with pytest.raises(MalformedFileError, match=pattern) as err:
            read_scenario(path)
        assert str(path) in str(err.value)

        from cohres.cli import main

        out = tmp_path / "out"
        assert main(["synth", "--config", str(path), "--energy", "0.255", "--out", str(out)]) == 1
        assert main(
            ["scan", "--config", str(path), "--emin", "0.25", "--emax", "0.26",
             "--step", "0.005", "--pair", "D+HF,H+DF", "--out", str(out)]
        ) == 1
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("mix",), "0.5", "mix must be a number, got '0.5'"),
            (("mix",), True, "mix must be a number, got True"),
            (("energy_offset_eV",), None, "energy_offset_eV must be a number, got None"),
            (("masses_amu", "F"), "19", "F must be a number, got '19'"),
            (("resonance", "exits", 0, "states", 0, "shape", 0), True, r"shape\[0\] must be"),
            (("resonance", "entrance", 1, 1), "0.8", r"entrance\[1\]\[1\] must be a number"),
            (("background", "channels", 0, "states", 1, "slope"), [1.0], r"slope must be \[re, "),
            (("resonance", "exits", 1, "arrangement"), None, "arrangement must be a string"),
            (("background", "channels", 0, "arrangement"), 5, "arrangement must be a string"),
            (("initial_pair", 0, "arrangement"), None, "arrangement must be a string, got None"),
        ],
        ids=[
            "quoted-mix",
            "bool-mix",
            "null-offset",
            "quoted-mass",
            "bool-shape",
            "quoted-entrance",
            "short-pair",
            "null-exit-label",
            "int-background-label",
            "null-initial-label",
        ],
    )
    def test_field_is_taken_only_as_its_json_type(self, tmp_path, capsys, keys, value, message):
        doc = json.loads(FHD_SCENARIO.read_text())
        parent = doc
        for k in keys[:-1]:
            parent = parent[k]
        parent[keys[-1]] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError, match=message) as err:
            read_scenario(path)
        assert str(err.value).startswith(f"{path}: TypeError: ")
        self._assert_cli_rejects(path, capsys)

    def test_domain_fault_reads_class_and_message(self, tmp_path, capsys):
        doc = json.loads(FHD_SCENARIO.read_text())
        doc["resonance"]["gamma_width_eV"] = -1
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError) as err:
            read_scenario(path)
        assert str(err.value) == f"{path}: NonPositiveError: gamma_width must be > 0, got -1.0"
        self._assert_cli_rejects(path, capsys)

    def test_integers_are_numbers(self, tmp_path):
        doc = json.loads(FHD_SCENARIO.read_text())
        doc["mix"] = 1
        doc["resonance"]["entrance"][0] = [1, 0]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        cfg = read_scenario(path)
        assert cfg == replace(read_scenario(FHD_SCENARIO), mix=1.0)
        assert type(cfg.mix) is float
        write_scenario(cfg, path)
        assert '"mix": 1.0' in path.read_text()

    def test_committed_scenario_synthesizes_valid_tables(self):
        cfg = read_scenario(FHD_SCENARIO)
        assert cfg.product_channels() == ("D+HF", "H+DF")
        cfg.table_at(0.2550)  # the constructor raises on an invalid table

    def test_malformed_scenario(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MalformedFileError):
            read_scenario(path)

    def test_scenario_missing_key(self, tmp_path):
        cfg = json.loads(FHD_SCENARIO.read_text())
        del cfg["resonance"]["entrance"]
        path = tmp_path / "nokey.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(MalformedFileError):
            read_scenario(path)

    def _assert_cli_rejects(self, path, capsys):
        """synth and scan exit 1 with one error line naming the file, writing nothing."""
        from cohres.cli import main

        out = path.parent / "out"
        assert main(["synth", "--config", str(path), "--energy", "0.255", "--out", str(out)]) == 1
        assert main(
            ["scan", "--config", str(path), "--emin", "0.25", "--emax", "0.26",
             "--step", "0.005", "--pair", "D+HF,H+DF", "--out", str(out)]
        ) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert all(line.startswith(f"cohres: error: {path}: ") for line in lines)

    def test_masses_as_list_is_malformed(self, tmp_path, capsys):
        cfg = json.loads(FHD_SCENARIO.read_text())
        cfg["masses_amu"] = [1, 2]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(MalformedFileError, match="AttributeError") as err:
            read_scenario(path)
        assert str(err.value).startswith(str(path))
        self._assert_cli_rejects(path, capsys)

    def test_deep_nesting_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        for read in (read_table, read_scenario):
            with pytest.raises(MalformedFileError, match="recursion") as err:
                read(path)
            assert str(err.value).startswith(str(path))
        self._assert_cli_rejects(path, capsys)
