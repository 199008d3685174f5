import json
from dataclasses import replace

import numpy as np
import pytest

from cohres import (
    MalformedFileError,
    TableValidationError,
    read_scenario,
    read_table,
    write_scenario,
    write_table,
)
from cohres.tableio import table_from_json, table_to_json
from conftest import FHD_SCENARIO, random_table


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
        assert read_scenario(path) == cfg

    def test_committed_scenario_synthesizes_valid_tables(self):
        from cohres import validate_table

        cfg = read_scenario(FHD_SCENARIO)
        assert cfg.product_channels() == ("D+HF", "H+DF")
        assert validate_table(cfg.table_at(0.2550)) == []

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
