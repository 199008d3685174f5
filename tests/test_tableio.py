import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohres import (
    AmplitudeTable,
    ChannelBlock,
    ChannelState,
    CohresError,
    MalformedFileError,
    TableValidationError,
    gauss_legendre_grid,
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


def json_layout(t) -> str:
    """The reference layout: the table's document through ``json.dumps(doc, indent=2)``."""
    doc = {
        "energy_eV": t.energy,
        "initial": [_state_out(s) for s in t.initial_pair],
        "angle_grid": {
            "nodes_rad": t.grid.nodes.tolist(),
            "weights_sr": t.grid.weights.tolist(),
        },
        "channels": [
            {
                "arrangement": b.arrangement,
                "states": [_state_out(s) for s in b.states],
                "amplitudes": b.amplitudes.view(float).ravel().tolist(),
            }
            for b in t.channels
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# labels that json must escape: quotes, backslashes, control and non-ASCII characters
LABELS = st.one_of(
    st.text(st.sampled_from('"\\\x00\x1f\n\t/ab+é→😀'), min_size=1, max_size=6),
    st.text(min_size=1, max_size=6),
)
EDGE_FLOATS = [-0.0, 5e-324, 9.999999999999999e-05, 1e-05, 1e16, 2.0**53, 1.7976931348623157e308]
EDGE_FLOATS += [-x for x in EDGE_FLOATS]


@st.composite
def tables(draw):
    """Grid orders 1-17, 0-3 channels of 0-5 states, amplitudes over 600 decades."""
    order = draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for label in draw(st.lists(LABELS, max_size=3, unique=True)):
        states = []
        for _ in range(draw(st.integers(0, 5))):
            v, j = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))
            states.append(ChannelState(label, v, j, draw(st.integers(-j, j))))
        shape = (len(states), order, 2, 2)
        amps = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 301, size=shape)
        blocks.append(ChannelBlock(label, states, amps.view(complex)[..., 0]))
    label, m = draw(LABELS), draw(st.integers(-1, 1))
    pair = (ChannelState(label, 0, 1, m), ChannelState(label, 1, 1, m))
    energy = draw(st.floats(allow_nan=False, allow_infinity=False))
    return AmplitudeTable(energy, pair, gauss_legendre_grid(order), blocks)


class TestTableLayout:
    @given(tables())
    @settings(max_examples=150, deadline=None)
    def test_random_tables_are_laid_out_as_json_lays_them_out(self, t):
        text = table_to_json(t)
        assert text == json_layout(t)
        assert table_to_json(table_from_json(text)) == text

    @pytest.mark.parametrize("energy", EDGE_FLOATS)
    def test_edge_floats_are_laid_out_as_json_lays_them_out(self, rng, energy):
        t = random_table(rng, n_states=2, order=4)
        amps = t.channels[0].amplitudes.copy()
        amps.view(float).ravel()[: len(EDGE_FLOATS)] = EDGE_FLOATS
        block = replace(t.channels[0], amplitudes=amps)
        t = replace(t, energy=energy, channels=(block, t.channels[1]))
        text = table_to_json(t)
        assert text == json_layout(t)
        assert f'"energy_eV": {energy!r},' in text
        for x in EDGE_FLOATS:
            assert f"\n        {x!r}," in text

    def test_empty_lists_are_laid_out_as_json_lays_them_out(self, rng):
        t = random_table(rng, n_states=1, order=3)
        empty = ChannelBlock("D+HF", (), np.zeros((0, 3, 2)))
        for channels in ((), (empty, t.channels[1])):
            text = table_to_json(replace(t, channels=channels))
            assert text == json_layout(replace(t, channels=channels))
            assert ('"channels": []' in text) == (not channels)
            assert ('"states": [],\n      "amplitudes": []' in text) == bool(channels)

    def test_numpy_energy_and_synthesized_table(self, rng):
        t = replace(random_table(rng, n_states=2, order=5), energy=np.float64(0.255))
        assert type(t.energy) is float
        fhd = read_scenario(FHD_SCENARIO).table_at(0.2550)
        for table in (t, fhd):
            assert table_to_json(table) == json_layout(table)


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
            (("channels", 0, "amplitudes", 3), True,
             "channels[0].amplitudes[3] must be a number, got True"),
            (("angle_grid", "nodes_rad", 1), "0.5",
             "angle_grid.nodes_rad[1] must be a number, got '0.5'"),
            (("angle_grid", "weights_sr"), "1",
             "angle_grid.weights_sr must be an array of numbers, got '1'"),
            (("channels", 1, "arrangement"), None,
             "channels[1].arrangement must be a string, got None"),
            (("channels", 1, "arrangement"), 5, "channels[1].arrangement must be a string, got 5"),
            (("initial", 0, "arrangement"), None,
             "initial[0].arrangement must be a string, got None"),
            (("channels", 0, "states", 0, "arrangement"), 5,
             "channels[0].states[0].arrangement must be a string, got 5"),
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
        with pytest.raises(MalformedFileError) as err:
            read_table(path)
        assert str(err.value) == f"{path}: TypeError: {message}"
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

    def test_scalars_are_fixed_when_a_table_is_built(self, rng, tmp_path):
        s = ChannelState("D+HF", np.int64(1), np.int64(2), np.int64(-1))
        assert [type(x) for x in (s.v, s.j, s.m)] == [int, int, int]
        for bad in (True, np.True_, 1.0, np.float64(1.0), "1", None):
            with pytest.raises(CohresError) as err:
                ChannelState("D+HF", bad, 2, 0)
            assert str(err.value) == f"v must be an integer, got {bad!r}"
        t = random_table(rng, n_states=1, order=4)
        block = replace(t.channels[0], states=(s,))
        t = replace(t, energy=1, channels=(block, t.channels[1]))
        assert type(t.energy) is float
        path = tmp_path / "t.json"
        write_table(t, path)
        assert '"energy_eV": 1.0,' in path.read_text()
        assert table_to_json(read_table(path)) == path.read_text()
        for bad in (True, "0.5", None):
            with pytest.raises(TableValidationError) as err:
                replace(t, energy=bad)
            assert err.value.violations == [f"energy: must be a real number, got {bad!r}"]

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("channels", 0, "states", 1, "v"), None, "KeyError: 'channels[0].states[1].v'"),
            (("initial", 1, "j"), 1.5, "TypeError: initial[1].j must be an integer, got 1.5"),
            (("channels", 1, "states", 0), [0], "TypeError: channels[1].states[0] must be an "
                                                "object, got [0]"),
            (("channels", 1, "states", 1, "m"), 7, "CohresError: channels[1].states[1]: "
                                                   "|m| <= j required, got j=1 m=7"),
            (("channels", 1, "arrangement"), "", "CohresError: channels[1]: "
                                                 "arrangement must be a non-empty string, got ''"),
            (("channels", 1, "amplitudes"), None, "KeyError: 'channels[1].amplitudes'"),
            (("channels", 0), [], "TypeError: channels[0] must be an object, got []"),
            (("channels", 1, "states"), 5, "TypeError: channels[1].states must be an array, "
                                           "got 5"),
            (("channels",), {"a": 1}, "TypeError: channels must be an array, got {'a': 1}"),
            (("initial",), {"a": 1}, "TypeError: initial must be an array, got {'a': 1}"),
            (("angle_grid",), [], "TypeError: angle_grid must be an object, got []"),
            (("angle_grid", "weights_sr"), None, "KeyError: 'angle_grid.weights_sr'"),
        ],
        ids=["missing-v", "float-j", "list-record", "m-above-j", "empty-label",
             "missing-amplitudes", "list-channel", "int-states", "object-channels",
             "object-initial", "list-grid", "missing-weights"],
    )
    def test_state_fault_names_its_place(self, rng, tmp_path, capsys, keys, value, message):
        from cohres.cli import main

        doc = json.loads(table_to_json(random_table(rng, n_states=2, order=4)))
        parent = doc
        for k in keys[:-1]:
            parent = parent[k]
        if value is None:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError) as err:
            read_table(path)
        assert str(err.value) == f"{path}: {message}"
        assert main(["validate", "--table", str(path)]) == 1
        assert capsys.readouterr().err == f"cohres: error: {path}: {message}\n"

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


def relabel_state(doc, c, n, label):
    """Give state ``n`` of channel ``c``, in the resonance and the background alike, ``label``."""
    for channels in (doc["resonance"]["exits"], doc["background"]["channels"]):
        channels[c]["states"][n]["arrangement"] = label


def relabel_channel(doc, c, label):
    """Give channel ``c``, in the resonance and the background alike, ``label``."""
    for channels in (doc["resonance"]["exits"], doc["background"]["channels"]):
        channels[c]["arrangement"] = label


def mixed_m_and_relabelled(doc):
    doc["initial_pair"][1]["m"] = 1
    relabel_state(doc, 1, 1, "D+HF")


class TestScenarioIo:
    def test_scenario_round_trip(self, tmp_path):
        cfg = read_scenario(FHD_SCENARIO)
        path = tmp_path / "copy.json"
        write_scenario(cfg, path)
        assert path.read_bytes() == FHD_SCENARIO.read_bytes()
        assert read_scenario(path) == cfg

    def test_grid_order_capped_before_any_grid(self, tmp_path, no_grid, capsys):
        from cohres.cli import main
        from cohres.core import MAX_GRID_ORDER

        cfg = json.loads(FHD_SCENARIO.read_text())
        cfg["grid_order"] = 10**6
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(MalformedFileError, match="grid_order"):
            read_scenario(path)
        for order in (MAX_GRID_ORDER + 1, 0, 64.0, True, "64"):
            with pytest.raises(ValueError, match="grid_order"):
                replace(read_scenario(FHD_SCENARIO), grid_order=order)
        out = tmp_path / "t.json"
        assert main(["synth", "--config", str(path), "--energy", "0.255", "--out", str(out)]) == 1
        assert main(
            ["scan", "--config", str(path), "--emin", "0.25", "--emax", "0.26",
             "--step", "0.005", "--pair", "D+HF,H+DF", "--out", str(out)]
        ) == 1
        assert not out.exists()
        assert "grid_order" in capsys.readouterr().err

    def test_mismatched_specs_rejected_before_any_grid(self, tmp_path, no_grid, capsys):
        from cohres.cli import main

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
    def test_invalid_pair_rejected_before_any_grid(self, tmp_path, no_grid, pair, message):
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

    @pytest.mark.parametrize(
        "mutate, violations",
        [
            (lambda doc: relabel_state(doc, 0, 0, "XX"),
             ["channel 'D+HF': state 0 carries arrangement 'XX'"]),
            (lambda doc: relabel_channel(doc, 1, "D+HF"),
             ["channel 'D+HF': duplicate arrangement label",
              "channel 'D+HF': state 0 carries arrangement 'H+DF'",
              "channel 'D+HF': state 1 carries arrangement 'H+DF'"]),
            (mixed_m_and_relabelled,
             ["initial_pair: helicities differ; only azimuthally symmetric tables (equal m) "
              "are supported",
              "channel 'H+DF': state 1 carries arrangement 'D+HF'"]),
        ],
        ids=["relabelled-state", "duplicate-label", "pair-and-channel"],
    )
    def test_channel_rule_refused_before_any_grid(
        self, tmp_path, no_grid, capsys, mutate, violations
    ):
        doc = json.loads(FHD_SCENARIO.read_text())
        mutate(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError) as err:
            read_scenario(path)
        assert str(err.value) == f"{path}: TableValidationError: " + "; ".join(violations)
        assert type(err.value.__cause__) is TableValidationError  # the scenario's own check
        assert err.value.__cause__.violations == violations
        self._assert_cli_rejects(path, capsys)

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
            (("energy_offset_eV",), "energy_offset"),
            (("masses_amu", "F"), "masses_amu.F"),
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
            (("masses_amu", "F"), "19", "masses_amu.F must be a number, got '19'"),
            (("resonance", "exits", 0, "states", 0, "shape", 0), True,
             "resonance.exits[0].states[0].shape[0] must be a number, got True"),
            (("resonance", "entrance", 1, 1), "0.8",
             "resonance.entrance[1][1] must be a number, got '0.8'"),
            (("resonance", "epsilon_r_eV"), "0.28",
             "resonance.epsilon_r_eV must be a number, got '0.28'"),
            (("resonance", "gamma_width_eV"), None,
             "resonance.gamma_width_eV must be a number, got None"),
            (("background", "reference_energy_eV"), True,
             "background.reference_energy_eV must be a number, got True"),
            (("background", "channels", 0, "states", 1, "slope"), [1.0],
             "background.channels[0].states[1].slope must be [re, im], got [1.0]"),
            (("resonance", "exits", 1, "arrangement"), None,
             "resonance.exits[1].arrangement must be a string, got None"),
            (("background", "channels", 0, "arrangement"), 5,
             "background.channels[0].arrangement must be a string, got 5"),
            (("initial_pair", 0, "arrangement"), None,
             "initial_pair[0].arrangement must be a string, got None"),
            (("resonance", "exits", 0, "states", 1, "coupling"), "x",
             "resonance.exits[0].states[1].coupling must be an array of numbers, got 'x'"),
            (("background", "channels", 0, "states", 1, "amplitude", 0), "1",
             "background.channels[0].states[1].amplitude[0] must be a number, got '1'"),
            (("background", "channels", 0, "states", 0, "shape"), None,
             "background.channels[0].states[0].shape must be an array of numbers, got None"),
            (("background", "channels", 1, "states", 0, "column_weights", 1), [1.0],
             "background.channels[1].states[0].column_weights[1] must be [re, im], got [1.0]"),
            (("background",), None, "background must be an object, got None"),
        ],
        ids=[
            "quoted-mix",
            "bool-mix",
            "null-offset",
            "quoted-mass",
            "bool-shape",
            "quoted-entrance",
            "quoted-epsilon",
            "null-width",
            "bool-reference-energy",
            "short-pair",
            "null-exit-label",
            "int-background-label",
            "null-initial-label",
            "quoted-coupling",
            "quoted-amplitude",
            "null-shape",
            "short-column-weight",
            "null-background",
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
        with pytest.raises(MalformedFileError) as err:
            read_scenario(path)
        assert str(err.value) == f"{path}: TypeError: {message}"
        self._assert_cli_rejects(path, capsys)

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("resonance", "exits", 0, "states", 1, "arrangement"), None,
             "KeyError: 'resonance.exits[0].states[1].arrangement'"),
            (("background", "channels", 1, "states", 0, "m"), 5,
             "CohresError: background.channels[1].states[0]: |m| <= j required, got j=0 m=5"),
            (("initial_pair", 0, "v"), -1,
             "CohresError: initial_pair[0]: v and j must be >= 0, got v=-1 j=0"),
            (("initial_pair", 1, "m"), True, "TypeError: initial_pair[1].m must be an integer"),
            (("resonance", "exits", 1, "arrangement"), "",
             "CohresError: resonance.exits[1]: arrangement must be a non-empty string, got ''"),
            (("background", "channels", 1, "states", 0, "shape"), [],
             "CohresError: background.channels[1].states[0]: angular shape needs at least one "
             "Legendre coefficient"),
            (("resonance", "exits", 0, "states", 1, "coupling"), [math.inf, 0.0],
             "CohresError: resonance.exits[0].states[1]: coupling must be finite, got (inf+0j)"),
            (("resonance", "exits", 0, "states", 1, "coupling"), None,
             "KeyError: 'resonance.exits[0].states[1].coupling'"),
            (("background", "channels", 1, "states", 0, "slope"), None,
             "KeyError: 'background.channels[1].states[0].slope'"),
            (("background", "channels", 0, "states"), None,
             "KeyError: 'background.channels[0].states'"),
            (("resonance", "exits", 1), 7,
             "TypeError: resonance.exits[1] must be an object, got 7"),
            (("background", "channels"), 5,
             "TypeError: background.channels must be an array, got 5"),
            (("background", "channels", 0, "states", 1, "column_weights"), 5,
             "TypeError: background.channels[0].states[1].column_weights must be an array, "
             "got 5"),
            (("resonance", "exits", 0, "states"), 5,
             "TypeError: resonance.exits[0].states must be an array, got 5"),
            (("resonance",), [], "TypeError: resonance must be an object, got []"),
            (("initial_pair",), {"a": 1},
             "TypeError: initial_pair must be an array, got {'a': 1}"),
            (("resonance", "entrance"), {"a": 1},
             "TypeError: resonance.entrance must be an array, got"),
            (("resonance", "gamma_width_eV"), None, "KeyError: 'resonance.gamma_width_eV'"),
        ],
        ids=["missing-label", "m-above-j", "negative-v", "bool-m", "empty-exit-label",
             "empty-shape", "inf-coupling", "missing-coupling", "missing-slope", "missing-states",
             "int-channel", "int-channels", "int-column-weights", "int-states",
             "list-resonance", "object-initial-pair", "object-entrance", "missing-width"],
    )
    def test_state_fault_names_its_place(self, tmp_path, capsys, keys, value, message):
        doc = json.loads(FHD_SCENARIO.read_text())
        parent = doc
        for k in keys[:-1]:
            parent = parent[k]
        if value is None:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError) as err:
            read_scenario(path)
        assert str(err.value).startswith(f"{path}: {message}")
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
        with pytest.raises(MalformedFileError) as err:
            read_scenario(path)
        assert str(err.value) == f"{path}: TypeError: masses_amu must be an object, got [1, 2]"
        self._assert_cli_rejects(path, capsys)

    @pytest.mark.parametrize("text", ["[]", "0.5", '"scenario"', "null"])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "s.json"
        path.write_text(text)
        for read in (read_table, read_scenario):
            with pytest.raises(MalformedFileError) as err:
                read(path)
            assert str(err.value) == f"{path}: top level must be an object"
        self._assert_cli_rejects(path, capsys)

    def test_deep_nesting_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        for read in (read_table, read_scenario):
            with pytest.raises(MalformedFileError, match="recursion") as err:
                read(path)
            assert str(err.value).startswith(str(path))
        self._assert_cli_rejects(path, capsys)
