import importlib.util
import json
import math
import shutil
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cohres.core
import cohres.scenario
from cohres import (
    CohresError,
    ScenarioConfig,
    energy_scan,
    read_scenario,
    write_scenario,
)
from conftest import FHD_SCENARIO, REPO_ROOT

BASE = read_scenario(FHD_SCENARIO)
REAL_FIELDS = ["mix", "energy_offset", "mass", "epsilon_r", "gamma_width", "reference_energy"]


def with_field(cfg: ScenarioConfig, name: str, value) -> ScenarioConfig:
    """``cfg`` rebuilt with one scalar field, wherever it lives, set to ``value``."""
    if name == "mass":
        return replace(cfg, masses_amu={**cfg.masses_amu, "F": value})
    if name in ("epsilon_r", "gamma_width"):
        return replace(cfg, resonance=replace(cfg.resonance, **{name: value}))
    if name == "reference_energy":
        return replace(cfg, background=replace(cfg.background, reference_energy=value))
    return replace(cfg, **{name: value})


def scalars(cfg: ScenarioConfig) -> list:
    return [
        cfg.mix,
        cfg.energy_offset,
        *cfg.masses_amu.values(),
        cfg.resonance.epsilon_r,
        cfg.resonance.gamma_width,
        cfg.background.reference_energy,
    ]


class TestScenarioRules:
    """A scenario is valid and canonical once it is built; it never builds a grid to be so."""

    @pytest.mark.parametrize("name", REAL_FIELDS)
    @pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "str", "none"])
    def test_real_field_refused_at_construction(self, no_grid, name, value):
        cfg = read_scenario(FHD_SCENARIO)
        with pytest.raises(CohresError, match=f"must be a real number, got {value!r}$"):
            with_field(cfg, name, value)

    def test_mass_keys_are_strings(self, no_grid):
        cfg = read_scenario(FHD_SCENARIO)
        with pytest.raises(CohresError, match=r"masses_amu keys must be strings, got \[1\]"):
            replace(cfg, masses_amu={1: 2.0})
        assert type(next(iter(replace(cfg, masses_amu={np.str_("F"): 19}).masses_amu))) is str

    def test_masses_are_read_only(self, tmp_path, no_grid):
        cfg = read_scenario(FHD_SCENARIO)
        with pytest.raises(TypeError):
            cfg.masses_amu["F"] = True
        masses = dict(cfg.masses_amu)
        assert cfg.masses_amu == masses and replace(cfg) == cfg
        assert replace(cfg, masses_amu=masses) == cfg
        path = tmp_path / "s.json"
        write_scenario(cfg, path)
        assert path.read_bytes() == FHD_SCENARIO.read_bytes()
        assert read_scenario(path) == cfg

    def test_numpy_scalars_write_a_file_that_reads_back(self, tmp_path, no_grid):
        cfg = read_scenario(FHD_SCENARIO)
        cfg = replace(cfg, grid_order=np.int64(64), energy_offset=np.float32(0.5), mix=1)
        assert type(cfg.grid_order) is int
        assert (type(cfg.energy_offset), type(cfg.mix)) == (float, float)
        path = tmp_path / "s.json"
        write_scenario(cfg, path)
        assert repr(read_scenario(path)) == repr(cfg)

    @given(
        name=st.sampled_from([*REAL_FIELDS, "grid_order"]),
        value=st.one_of(
            st.integers(-3, 3),
            st.floats(),
            st.booleans(),
            st.floats(width=32).map(np.float32),
            st.floats().map(np.float64),
            st.integers(-(2**40), 2**40).map(np.int64),
            st.text(max_size=3),
        ),
    )
    def test_refused_or_read_back_unchanged(self, tmp_path_factory, name, value):
        try:
            cfg = with_field(BASE, name, value)
        except CohresError:
            return
        assert not isinstance(value, (bool, str))
        assert all(type(x) is float for x in scalars(cfg))
        assert type(cfg.grid_order) is int
        path = tmp_path_factory.getbasetemp() / "property.json"
        write_scenario(cfg, path)
        assert repr(read_scenario(path)) == repr(cfg)


class TestScenarioGrid:
    def test_grid_is_built_once_per_scenario(self, monkeypatch):
        builds = []
        leggauss = cohres.core.leggauss
        monkeypatch.setattr(cohres.core, "leggauss", lambda n: builds.append(n) or leggauss(n))
        cfg = read_scenario(FHD_SCENARIO)
        assert builds == []
        assert cfg.grid() is cfg.grid()
        assert cfg.table_at(0.255).grid is cfg.grid()
        energy_scan(cfg, [0.25, 0.255], ("D+HF", "H+DF"))
        assert builds == [64]
        other = replace(cfg, mix=0.25)
        assert other.grid() is not cfg.grid()
        assert builds == [64, 64]
        assert other.grid().nodes.tobytes() == cfg.grid().nodes.tobytes()
        assert other == replace(cfg, mix=0.25) and repr(other) == repr(replace(cfg, mix=0.25))

    def test_basis_is_built_once_per_scenario(self, monkeypatch):
        bases, used = [], []
        build, synthesize = cohres.scenario.synthesis_basis, cohres.scenario.synthesize_table

        def basis_spy(*args):
            bases.append(build(*args))
            return bases[-1]

        def table_spy(*args, basis):
            used.append(basis)
            return synthesize(*args, basis=basis)

        monkeypatch.setattr(cohres.scenario, "synthesis_basis", basis_spy)
        monkeypatch.setattr(cohres.scenario, "synthesize_table", table_spy)
        cfg = read_scenario(FHD_SCENARIO)
        energy_scan(cfg, [0.25, 0.255], ("D+HF", "H+DF"))
        energy_scan(cfg, [0.26], ("H+DF", "D+HF"))
        cfg.table_at(0.255)
        assert len(bases) == 1 and len(used) == 4
        assert all(basis is bases[0] for basis in used)
        replace(cfg, mix=0.25).table_at(0.255)
        assert len(bases) == 2 and used[-1] is bases[1] is not bases[0]


def load_tuner(tmp_path):
    """The tuning script, copied under ``tmp_path`` so that anything it writes lands there."""
    script = tmp_path / "scripts" / "tune_fhd_scenario.py"
    script.parent.mkdir()
    (tmp_path / "scenarios").mkdir()
    shutil.copy(REPO_ROOT / "scripts" / "tune_fhd_scenario.py", script)
    spec = importlib.util.spec_from_file_location("tune_fhd_scenario", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_matches(got, want, at="scenario"):
    """Floats agree within 1e-13 relative; keys, labels and integers exactly."""
    assert type(got) is type(want), at
    if isinstance(want, dict):
        assert list(got) == list(want), at
        for k in want:
            assert_matches(got[k], want[k], f"{at}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), at
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{at}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-13), (at, got, want)
    else:
        assert got == want, at


class TestTuner:
    def test_tuner_reproduces_the_committed_scenario(self, tmp_path, monkeypatch, capsys):
        tuner = load_tuner(tmp_path)
        monkeypatch.setattr(sys, "argv", ["tune_fhd_scenario.py"])
        assert tuner.main() == 0
        assert list((tmp_path / "scenarios").iterdir()) == []  # no --write, no file
        out = capsys.readouterr().out
        scale = float(out.splitlines()[0].removeprefix("background scale = "))
        path = tmp_path / "tuned.json"
        write_scenario(tuner.scenario(scale), path)
        assert_matches(json.loads(path.read_text()), json.loads(FHD_SCENARIO.read_text()))
