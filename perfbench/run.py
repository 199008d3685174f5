"""cohres benchmark: one workload per run, checked outputs, metrics by name.

Run from the repository root:

    python3 perfbench/run.py --workload scan_fhd --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 1 --out BENCH_x.json
    python3 perfbench/run.py --compare BENCH_a.json BENCH_b.json

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
spends half the time untraced and half with every public cohres function
wrapped, and reports the per-layer metrics plus the tracing overhead.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--out`` merges the
full report (environment, why, all metrics, failures) into a JSON file
keyed by workload; ``--compare`` prints each metric's ratio between two
such files and gates nothing.

All load comes from this one process (and, for ``cli_session``, the CLI
processes it runs one at a time).  BLAS/OpenMP thread counts are pinned
to 1 and ``COHRES_THREADS`` is unset before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("scan_fhd", "tables", "oracle_lattice", "cli_session")
FRESH_SAMPLES = 7  # fresh interpreters per set-up figure; the median is reported

END_TO_END = {  # name -> unit; call times are rescaled to reference speed (reference.py)
    "items_per_s_at_ref": "1/s",
    "call_p50_ms_at_ref": "ms",
    "call_tail_ms_at_ref": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer span names; each reports <name>.calls and <name>.self_ms
LAYER_SPANS = (
    "resonance.synthesize_table",
    "scenario.ScenarioConfig.table_at",
    "scenario.read_scenario",
    "core.gauss_legendre_grid",
    "core.validate_table",
    "xsection.cross_section_matrix",
    "xsection.differential_matrix",
    "xsection.XsecMatrix",
    "xsection.schwartz_ratio",
    "xsection.controlled_cross_section",
    "control.cross_section_extrema",
    "control.ratio_extrema",
    "control.lattice_extrema",
    "scan.energy_scan",
    "scan.write_scan_csv",
    "tableio.table_to_json",
    "tableio.table_from_json",
    "tableio.write_table",
    "tableio.read_table",
    "cli.main",
)
LAYER_COUNTS = {  # counter -> unit
    "xsection.gram_bytes": "bytes",
    "control.ratio_extrema.finite": "count",
    "control.ratio_extrema.unbounded": "count",
    "control.ratio_extrema.degenerate": "count",
    "control.lattice_extrema.points": "count",
    "scan.write_scan_csv.bytes": "bytes",
    "tableio.table_to_json.bytes": "bytes",
    "tableio.table_from_json.bytes": "bytes",
}
LAYER_RATES = {  # rate -> (counter, span whose inclusive time divides it, scale, unit)
    "control.lattice_extrema.points_per_s": ("control.lattice_extrema.points", "control.lattice_extrema", 1.0, "1/s"),
    "tableio.table_to_json.mb_per_s": ("tableio.table_to_json.bytes", "tableio.table_to_json", 1e-6, "MB/s"),
    "tableio.table_from_json.mb_per_s": ("tableio.table_from_json.bytes", "tableio.table_from_json", 1e-6, "MB/s"),
}
LAYER_OTHER = {
    "cli.import_ms": "ms",
    "cli.interpreter_ms": "ms",
    "trace.items": "count",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from spans import LAYER_MODULES

    units = {f"{module}.self_ms": "ms" for module in LAYER_MODULES}
    for span in LAYER_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_ms"] = "ms"
    units.update(LAYER_COUNTS)
    units.update({k: v[3] for k, v in LAYER_RATES.items()})
    units.update(LAYER_OTHER)
    return units


def pinned_env() -> dict[str, str]:
    """Environment for this process and its children: one thread, src on the path."""
    env = dict(os.environ)
    env.pop("COHRES_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_seconds(code: str, env: dict[str, str]) -> float:
    """Seconds a fresh interpreter reports for running ``code``."""
    timed = f"import time\nt0 = time.perf_counter()\n{code}\nprint(repr(time.perf_counter() - t0))"
    out = subprocess.run(
        [sys.executable, "-c", timed], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def fresh_wall(code: str, env: dict[str, str]) -> float:
    """Wall seconds of a whole fresh interpreter running ``code``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
    return perf_counter() - t0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail: p90, lower if fewer than 10 calls lie beyond it.

    Nearest rank: with n >= 100 calls the value is p90, with fewer it is
    the 11th largest call (percentile 100 * (n - 10) / n), so at least 10
    calls lie beyond it.  A higher percentile than p90 would rest on a
    handful of calls that one stall of the machine can move.
    """
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    rank = min(math.ceil(0.9 * n), n - 10)
    return s[rank - 1], 100.0 * rank / n


def timed_loop(wl, call, seconds: float, start: int, tracer=None) -> dict:
    """Closed loop of calls until their summed time reaches ``seconds``; one at least.

    Between calls, outside the timed region, the reference kernel runs for
    about a tenth of the call time to sample the machine's speed.
    """
    from reference import reference

    latencies, call_at, ref, ref_at, failures = [], [], [], [], []
    i = start
    busy = 0.0
    while not latencies or busy < seconds:
        inp = wl.make_input(i)
        t0 = perf_counter()
        try:
            if tracer is None:
                out = call(inp)
            else:
                with tracer.call(f"bench.{wl.name}", i):
                    out = call(inp)
        except Exception as exc:  # a failed call is counted, not fatal
            out = exc
        dt = perf_counter() - t0
        busy += dt
        latencies.append(dt)
        call_at.append(t0 + dt / 2)
        errs = [f"{type(out).__name__}: {out}"] if isinstance(out, Exception) else wl.check(inp, out)
        if errs:
            failures.append(f"call {i}: " + "; ".join(errs[:3]))
        i += 1
        if sum(ref) < 0.1 * busy:
            t0 = perf_counter()
            reference()
            ref.append(perf_counter() - t0)
            ref_at.append(t0 + ref[-1] / 2)
    return {
        "latencies": latencies,
        "call_at": call_at,
        "ref": ref,
        "ref_at": ref_at,
        "failures": failures,
        "next": i,
        "busy_s": busy,
    }


def environment(env: dict[str, str]) -> dict:
    import numpy

    baseline = [fresh_wall("pass", env) for _ in range(FRESH_SAMPLES)]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "COHRES_THREADS": env.get("COHRES_THREADS", "unset"),
        "python_c_pass_ms": statistics.median(baseline) * 1e3,
    }


def layer_metrics(tracer, traced: dict, untraced: dict, wl, env, interpreter_ms: float) -> dict:
    from reference import at_reference_speed
    from spans import LAYER_MODULES

    summary = tracer.summary()
    values = {
        f"{module}.self_ms": sum(v["self_ms"] for k, v in summary.items() if k.startswith(module + "."))
        for module in LAYER_MODULES
    }
    for span in LAYER_SPANS:
        s = summary.get(span, {"calls": 0, "self_ms": 0.0})
        values[f"{span}.calls"] = s["calls"]
        values[f"{span}.self_ms"] = s["self_ms"]
    for counter in LAYER_COUNTS:
        values[counter] = tracer.counters.get(counter, 0)
    for rate, (counter, span, scale, _) in LAYER_RATES.items():
        incl_ms = summary.get(span, {}).get("incl_ms", 0.0)
        values[rate] = tracer.counters.get(counter, 0) * scale / (incl_ms / 1e3) if incl_ms else 0.0
    imports = [fresh_wall("import cohres.cli", env) for _ in range(FRESH_SAMPLES)]
    values["cli.import_ms"] = statistics.median(imports) * 1e3 - interpreter_ms
    values["cli.interpreter_ms"] = interpreter_ms
    values["trace.items"] = len(traced["latencies"]) * wl.items_per_call
    seconds_at_ref = [  # each half's call time at reference speed; both halves run the same calls
        sum(at_reference_speed(h["latencies"], h["call_at"], h["ref"], h["ref_at"])) / len(h["latencies"])
        for h in (untraced, traced)
    ]
    values["trace.overhead_pct"] = (seconds_at_ref[1] / seconds_at_ref[0] - 1.0) * 100.0
    return values


def end_to_end_metrics(loop: dict, wl, setup: list[float]) -> tuple[dict, dict]:
    """Gated metrics (call times at reference speed, set-up, memory) and the raw figures."""
    from reference import at_reference_speed

    def call_stats(lat: list[float]) -> tuple[float, float, float, float]:
        tail_s, tail_pct = tail(lat)
        return len(lat) * wl.items_per_call / sum(lat), statistics.median(lat) * 1e3, tail_s * 1e3, tail_pct

    raw = loop["latencies"]
    items, p50, tail_ms, tail_pct = call_stats(raw)
    at_ref = at_reference_speed(raw, loop["call_at"], loop["ref"], loop["ref_at"])
    items_ref, p50_ref, tail_ref, _ = call_stats(at_ref)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_session" else resource.RUSAGE_SELF
    values = {
        "items_per_s_at_ref": items_ref,
        "call_p50_ms_at_ref": p50_ref,
        "call_tail_ms_at_ref": tail_ref,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    detail = {
        "items": wl.item,
        "calls": len(raw),
        "tail_percentile": tail_pct,
        "items_per_s": items,
        "call_p50_ms": p50,
        "call_tail_ms": tail_ms,
        "reference_runs": len(loop["ref"]),
        "reference_median_ms": statistics.median(loop["ref"]) * 1e3,
        "fail_ratio": len(loop["failures"]) / len(raw),
        "setup_samples_s": setup,
    }
    return values, detail


def run(args) -> int:
    env = pinned_env()
    os.environ.clear()
    os.environ.update(env)
    # one CPU for this process and every child it starts, so the reference
    # kernel samples the speed of the CPU the calls run on
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import workloads
    from spans import Tracer

    wl_cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env_info = environment(env)
        fresh_seconds(wl_cls.setup_code, env)  # compiles bytecode, warms the file cache
        wl = wl_cls(ROOT, workdir, args.seed, env)
        wl.prepare()
        call = wl.traced_call if args.trace else wl.call
        warm = timed_loop(wl, call, 0.0, 0)  # one untimed call: lazy set-up, caches
        if args.trace:
            untraced = timed_loop(wl, call, args.seconds / 2.0, warm["next"])
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_loop(wl, call, args.seconds / 2.0, untraced["next"], tracer)
            finally:
                tracer.restore()
            tracer.save(ROOT / ".perfbench" / f"spans-{wl.name}.npz")
            loops = [warm, untraced, traced]
            metrics = layer_metrics(tracer, traced, untraced, wl, env, env_info["python_c_pass_ms"])
            units = per_layer_units()
            detail = {
                "layers": tracer.summary(),
                "counters": dict(tracer.counters),
                "spans": tracer.span_count,
            }
        else:
            setup = [fresh_seconds(wl_cls.setup_code, env) for _ in range(FRESH_SAMPLES)]
            timed = timed_loop(wl, call, args.seconds, warm["next"])
            loops = [warm, timed]
            metrics, detail = end_to_end_metrics(timed, wl, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(loop["latencies"]) for loop in loops)
    failures = [f for loop in loops for f in loop["failures"]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_info,
        "detail": detail,
        "failures": failures[:20],
        **result,
    }
    print(f"# {wl.name} (seed {args.seed}, trace {args.trace}): {wl.why}")
    print(
        "# python {python}, numpy {numpy}, nproc {nproc}, BLAS/OpenMP threads 1, "
        "COHRES_THREADS {COHRES_THREADS}, python -c pass {python_c_pass_ms:.1f} ms".format(**env_info)
    )
    if not args.trace:
        print(
            "# measured: {items_per_s:.6g} {items}/s, p50 {call_p50_ms:.6g} ms, "
            "tail p{tail_percentile:.3g} {call_tail_ms:.6g} ms over {calls} calls; "
            "reference kernel median {reference_median_ms:.4g} ms".format(**detail)
        )
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    if args.out:
        merge_report(Path(args.out), report)
    print(json.dumps(result))
    return 0


def merge_report(path: Path, report: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"results": {}}
    key = f"{report['workload']}/trace{report['trace']}"
    doc["results"][key] = report
    path.write_text(json.dumps(doc, indent=1) + "\n")


def compare(base_path: str, new_path: str) -> int:
    """Print new/base for every metric both result files hold; gates nothing."""
    base = json.loads(Path(base_path).read_text())["results"]
    new = json.loads(Path(new_path).read_text())["results"]
    print(f"{'workload/mode':28s} {'metric':44s} {'base':>12s} {'new':>12s} {'new/base':>9s}")
    for key in sorted(set(base) & set(new)):
        for name, b in base[key]["metrics"].items():
            n = new[key]["metrics"].get(name)
            if n is None:
                continue
            ratio = n["value"] / b["value"] if b["value"] else float("nan")
            print(f"{key:28s} {name:44s} {b['value']:12.5g} {n['value']:12.5g} {ratio:9.3f}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key:28s} only in {'base' if key in base else 'new'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge the full report into this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="print metric ratios")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "cohres" / "__init__.py").is_file() or not (ROOT / "scenarios" / "fhd_like.json").is_file():
        print(f"perfbench: no cohres checkout around {HERE} (src/cohres, scenarios/)", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
