"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cohres  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def test_self_times_on_hand_built_tree():
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9];  second root [20, 22]
    names = ["root", "a", "leaf", "b"]
    spans = [  # (name id, parent, start, end)
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 1, 2.0, 3.0),
        (3, 0, 5.0, 9.0),
        (0, -1, 20.0, 22.0),
    ]
    ids, parents, starts, ends = zip(*spans)
    calls, self_s, incl_s = self_times(ids, parents, starts, ends, len(names))
    assert calls.tolist() == [2, 1, 1, 1]
    assert self_s.tolist() == [3.0 + 2.0, 2.0, 1.0, 4.0]
    assert incl_s.tolist() == [12.0, 3.0, 1.0, 4.0]


def test_tail_is_p90_with_ten_calls_beyond():
    assert run.tail([float(i) for i in range(200)]) == (179.0, 90.0)
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([float(i) for i in range(50)]) == (39.0, 80.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def _table_bytes(case):
    t = case.table
    parts = [repr(t.energy), t.grid.nodes.tobytes(), t.grid.weights.tobytes()]
    parts += [b.amplitudes.tobytes() for b in t.channels]
    return parts, case.regime, case.node_regime, case.branching


def test_generators_are_deterministic_per_seed():
    a, b, c = gen.table_pool(5), gen.table_pool(5), gen.table_pool(6)
    assert [_table_bytes(x) for x in a] == [_table_bytes(x) for x in b]
    assert [_table_bytes(x) for x in a] != [_table_bytes(x) for x in c]
    assert gen.oracle_pool(5, 30) == gen.oracle_pool(5, 30)
    assert gen.oracle_pool(5, 30) != gen.oracle_pool(6, 30)


def test_table_pool_covers_every_combination():
    pool = gen.table_pool(0)
    combos = {
        (len(c.table.grid), len(c.table.channels[0].states), len(c.table.channels), c.regime)
        for c in pool
    }
    assert len(pool) == len(combos) == 3 * 6 * 2 * 3


def _workload(cls, tmp_path, seed=3):
    wl = cls(ROOT, tmp_path, seed, run.pinned_env())
    wl.prepare()
    return wl


@pytest.mark.parametrize("seed", [0, 1])
def test_generated_tables_pass_their_checks(tmp_path, seed):
    wl = _workload(workloads.Tables, tmp_path, seed)
    for i in range(len(wl.pool)):
        case = wl.make_input(i)
        assert wl.check(case, wl.call(case)) == []


def test_generated_oracle_cases_pass_their_checks(tmp_path):
    wl = _workload(workloads.OracleLattice, tmp_path)
    for i in range(12):
        case = wl.make_input(i)
        assert wl.check(case, wl.call(case)) == []


def test_checks_catch_a_wrong_answer(tmp_path):
    wl = _workload(workloads.Tables, tmp_path)
    case = next(c for c in wl.pool if c.regime == "degenerate")
    t, per_channel, integral, nodes = wl.call(case)
    wrong = cohres.ratio_extrema(
        cohres.cross_section_matrix(t, case.pair[1]), cohres.cross_section_matrix(t, case.pair[0])
    )
    errs = wl.check(case, (t, per_channel, wrong, nodes))
    assert any("branching" in e for e in errs)


def _wrapped_bindings():
    return [
        (name, key)
        for name, mod in sys.modules.items()
        if name == "cohres" or name.startswith("cohres.")
        for key, value in vars(mod).items()
        if hasattr(value, "__perfbench_span__")
    ] + [
        (cls.__name__, key)
        for cls in (cohres.XsecMatrix, cohres.ScenarioConfig)
        for key, value in vars(cls).items()
        if hasattr(value, "__perfbench_span__")
    ]


def test_traced_run_wraps_lookup_names_and_restores_them(tmp_path):
    import cohres.scan

    originals = (cohres.scan.cross_section_matrix, cohres.XsecMatrix.__init__, cohres.energy_scan)
    wl = _workload(workloads.ScanFhd, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert cohres.scan.cross_section_matrix.__perfbench_span__ == "xsection.cross_section_matrix"
        assert cohres.cross_section_matrix.__perfbench_span__ == "xsection.cross_section_matrix"
        assert cohres.scenario.synthesize_table.__perfbench_span__ == "resonance.synthesize_table"
        loop = run.timed_loop(wl, wl.traced_call, 0.0, 0, tracer)
    finally:
        tracer.restore()
    assert loop["failures"] == []
    assert _wrapped_bindings() == []
    assert (cohres.scan.cross_section_matrix, cohres.XsecMatrix.__init__, cohres.energy_scan) == originals
    summary = tracer.summary()
    assert summary["resonance.synthesize_table"]["calls"] == 401
    assert summary["xsection.cross_section_matrix"]["calls"] == 802
    assert summary["bench.scan_fhd"]["calls"] == 1
    assert tracer.counters["control.ratio_extrema.finite"] == 401
    spans_ms = sum(v["self_ms"] for v in summary.values())
    assert spans_ms == pytest.approx(summary["bench.scan_fhd"]["incl_ms"], rel=1e-9)


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_compare_prints_ratios(tmp_path, capsys):
    def report(value):
        return {"workload": "tables", "trace": 0, "metrics": {"items_per_s": {"value": value, "unit": "1/s"}}}

    run.merge_report(tmp_path / "a.json", report(50.0))
    run.merge_report(tmp_path / "b.json", report(75.0))
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
    assert "1.500" in capsys.readouterr().out


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_reference_speed_rescales_each_call_by_its_neighbourhood():
    from reference import REF_NOMINAL_S, WINDOW_S, at_reference_speed

    # the machine runs at half speed from t = 10 s on; calls slow down with it
    call_at = [1.0, 2.0, 11.0, 12.0]
    latencies = [0.1, 0.1, 0.2, 0.2]
    ref_at = [1.2, 2.2, 11.2, 30.0]
    ref = [REF_NOMINAL_S, REF_NOMINAL_S, 2 * REF_NOMINAL_S, 4 * REF_NOMINAL_S]
    assert 12.0 - WINDOW_S > 11.2  # no kernel run within the window: the nearest counts
    got = at_reference_speed(latencies, call_at, ref, ref_at)
    assert got == pytest.approx([0.1, 0.1, 0.1, 0.1])
