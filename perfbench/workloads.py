"""The four workloads: seeded inputs, one timed call, and its output checks.

A workload's ``make_input(i)`` draws call i's input from the seeded
generator, ``call(input)`` is the only timed code, and ``check(input,
output)`` returns failure messages (empty when correct).  Checks and input
generation stay outside the timed region.  Library entry points are looked
up on the ``cohres`` package at call time, so the traced run sees them.
"""

from __future__ import annotations

import io
import math
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import cohres
import cohres.cli
from cohres.tableio import table_to_json

import gen

PAIR = ("D+HF", "H+DF")
SCENARIO = "scenarios/fhd_like.json"
SCAN_STREAM = 3
CLI_STREAM = 4


def _rel_close(a: float, b: float, rel: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _regime(rng) -> str:
    if rng.degenerate:
        return "degenerate"
    return "unbounded" if rng.unbounded_max else "finite"


class Workload:
    """Common shape; subclasses set the class attributes and the three steps."""

    name = ""
    why = ""
    item = ""  # what items_per_s counts
    items_per_call = 1
    setup_code = "import cohres"  # timed in fresh interpreters for setup_s

    def __init__(self, root: Path, workdir: Path, seed: int, env: dict[str, str]):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.env = env

    def prepare(self) -> None:
        """Generate inputs; excluded from every timing."""

    def make_input(self, i: int):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def traced_call(self, inp):
        """The call made in the traced run; in-process everywhere."""
        return self.call(inp)

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError


class ScanFhd(Workload):
    name = "scan_fhd"
    why = (
        "per-energy resonance+xsection+control pipeline of a 401-energy scan does almost "
        "all the work, where a batched scan acts; no tableio, lattice or CLI"
    )
    item = "energies"
    items_per_call = 401
    setup_code = f"import cohres\ncohres.read_scenario({SCENARIO!r})"

    def prepare(self) -> None:
        self.cfg = cohres.read_scenario(self.root / SCENARIO)
        self.rng = np.random.default_rng((self.seed, SCAN_STREAM))
        self.csv = self.workdir / "scan.csv"

    def make_input(self, i: int):
        e0 = float(self.rng.uniform(0.20, 0.26))
        energies = [e0 + 0.05 * k / 400 for k in range(401)]
        return energies, int(self.rng.integers(401))

    def call(self, inp):
        rows = cohres.energy_scan(self.cfg, inp[0], PAIR)
        cohres.write_scan_csv(rows, self.csv)
        return rows

    def check(self, inp, rows) -> list[str]:
        energies, pick = inp
        errs = []
        if [r.energy for r in rows] != energies:
            errs.append("rows do not follow the requested energies")
        for row in rows:
            for c in row.channels:
                if not _rel_close(c.sigma_min + c.sigma_max, c.sigma_11 + c.sigma_22, 1e-12):
                    errs.append(f"E={row.energy!r} {c.channel}: sigma_min + sigma_max != trace")
                if not 0.0 <= c.schwartz <= 1.0:
                    errs.append(f"E={row.energy!r} {c.channel}: schwartz {c.schwartz!r} outside [0, 1]")
            r = row.ratio
            if not (r.r_min <= r.r_nc_min <= r.r_nc_max <= r.r_max):
                errs.append(f"E={row.energy!r}: r_min <= r_nc_min <= r_nc_max <= r_max fails")
        lines = self.csv.read_text(encoding="utf-8").count("\n")
        if lines != len(energies) + 1:
            errs.append(f"csv has {lines} lines, expected {len(energies) + 1}")
        errs += self._reference_row(rows[pick])
        return errs

    def _reference_row(self, row) -> list[str]:
        """The row against the per-table path: table_at + cross_section_matrix."""
        table = self.cfg.table_at(row.energy)
        mats = {ch: cohres.cross_section_matrix(table, ch) for ch in PAIR}
        got, want = [], []
        for c in row.channels:
            m = mats[c.channel]
            ext = cohres.cross_section_extrema(m)
            got += [c.sigma_11, c.sigma_22, c.sigma_min, c.sigma_max, c.schwartz]
            want += [m.sigma11, m.sigma22, ext.min_value, ext.max_value, cohres.schwartz_ratio(m)]
        rr = cohres.ratio_extrema(mats[PAIR[0]], mats[PAIR[1]])
        got += [row.ratio.r_min, row.ratio.r_max]
        want += [rr.min_value, rr.max_value]
        if all(_rel_close(a, b, 1e-12) for a, b in zip(got, want)):
            return []
        return [f"E={row.energy!r}: row differs from table_at + cross_section_matrix"]


def same_table(a, b) -> bool:
    """Bit-for-bit equality of two amplitude tables."""
    if repr(a.energy) != repr(b.energy) or a.initial_pair != b.initial_pair:
        return False
    if a.grid.nodes.tobytes() != b.grid.nodes.tobytes():
        return False
    if a.grid.weights.tobytes() != b.grid.weights.tobytes():
        return False
    if len(a.channels) != len(b.channels):
        return False
    return all(
        x.arrangement == y.arrangement
        and x.states == y.states
        and x.amplitudes.tobytes() == y.amplitudes.tobytes()
        for x, y in zip(a.channels, b.channels)
    )


class Tables(Workload):
    name = "tables"
    why = (
        "external-table users: tableio encode/decode plus many small per-node "
        "differential_matrix/ratio_extrema calls; resonance and scan never run"
    )
    item = "tables"

    def prepare(self) -> None:
        self.pool = gen.table_pool(self.seed)
        self.path = self.workdir / "table.json"

    def make_input(self, i: int):
        return self.pool[i % len(self.pool)]

    def call(self, case):
        cohres.write_table(case.table, self.path)
        t = cohres.read_table(self.path)
        mats = {}
        per_channel = []
        for label in t.arrangements():
            m = mats[label] = cohres.cross_section_matrix(t, label)
            per_channel.append((cohres.cross_section_extrema(m), cohres.schwartz_ratio(m)))
        num, den = case.pair
        integral = cohres.ratio_extrema(mats[num], mats[den])
        nodes = [
            cohres.ratio_extrema(
                cohres.differential_matrix(t, num, k), cohres.differential_matrix(t, den, k)
            )
            for k in range(len(t.grid))
        ]
        return t, per_channel, integral, nodes

    def check(self, case, out) -> list[str]:
        t, per_channel, integral, nodes = out
        errs = []
        if not same_table(t, case.table):
            errs.append("read-back table differs from the written one")
        if _regime(integral) != case.regime:
            errs.append(f"integral ratio regime {_regime(integral)}, intended {case.regime}")
        wrong = [k for k, r in enumerate(nodes) if _regime(r) != case.node_regime]
        if wrong:
            errs.append(f"{len(wrong)} node ratios not {case.node_regime} (first node {wrong[0]})")
        if case.branching is not None and not _rel_close(integral.min_value, case.branching, 1e-9):
            errs.append(f"degenerate ratio {integral.min_value!r} != branching {case.branching!r}")
        return errs


class OracleLattice(Workload):
    name = "oracle_lattice"
    why = (
        "721x721 lattice (numpy, ~4 MB arrays) is ~99% of the time, the code a shared "
        "quadratic-form evaluator rewrites; other layers are negligible"
    )
    item = "oracle checks"
    items_per_call = 2
    N = 721

    def prepare(self) -> None:
        self.pool = gen.oracle_pool(self.seed)

    def make_input(self, i: int):
        return self.pool[i % len(self.pool)]

    def call(self, case):
        m, r = case.matrix, case.ratio
        ext = cohres.cross_section_extrema(m)
        at_ext = (
            cohres.controlled_cross_section(m, ext.params_at_min),
            cohres.controlled_cross_section(m, ext.params_at_max),
        )
        lat = cohres.lattice_extrema(m, None, self.N, self.N)
        rr = cohres.ratio_extrema(r.num, r.den)
        at_rr = [cohres.controlled_ratio(r.num, r.den, rr.params_at_min)]
        if not rr.unbounded_max:  # params_at_max is the denominator's zero
            at_rr.append(cohres.controlled_ratio(r.num, r.den, rr.params_at_max))
        rlat = cohres.lattice_extrema(r.num, r.den, self.N, self.N)
        return ext, at_ext, lat, rr, at_rr, rlat

    def check(self, case, out) -> list[str]:
        ext, at_ext, lat, rr, at_rr, rlat = out
        m, r = case.matrix, case.ratio
        errs = []
        tol = 1e-4 * m.trace
        if abs(ext.min_value - lat.min_value) > tol or abs(ext.max_value - lat.max_value) > tol:
            errs.append("channel extrema disagree with the lattice beyond 1e-4*trace")
        if not (at_ext[0] <= lat.min_value + 1e-12 and at_ext[1] >= lat.max_value - 1e-12):
            errs.append("channel closed-form parameters do not meet the lattice")
        if _regime(rr) != r.regime:
            return errs + [f"ratio regime {_regime(rr)}, intended {r.regime}"]
        if r.regime == "finite":
            tol = 1e-4 * max(abs(rr.min_value), abs(rr.max_value))
            if abs(rr.min_value - rlat.min_value) > tol or abs(rr.max_value - rlat.max_value) > tol:
                errs.append("ratio extrema disagree with the lattice beyond 1e-4*scale")
            if not (at_rr[0] <= rlat.min_value + 1e-12 and at_rr[1] >= rlat.max_value - 1e-12):
                errs.append("ratio closed-form parameters do not meet the lattice")
        elif r.regime == "degenerate":
            tol = 1e-4 * r.kappa
            if abs(rlat.min_value - r.kappa) > tol or abs(rlat.max_value - r.kappa) > tol:
                errs.append("degenerate lattice ratio strays from kappa beyond 1e-4*kappa")
        elif not rr.min_value <= rlat.min_value + 1e-12:
            errs.append("unbounded ratio: closed-form min above the lattice min")
        return errs


_NUMBER = re.compile(r"= (-?(?:inf|nan|[0-9.]+(?:e[-+]?[0-9]+)?))")


def _range_values(rng) -> list[float]:
    """The numbers ``cohres control`` prints for one ControlRange, in order."""
    return [
        rng.min_value,
        rng.params_at_min.s,
        math.degrees(rng.params_at_min.phi12),
        rng.max_value,
        rng.params_at_max.s,
        math.degrees(rng.params_at_max.phi12),
        rng.param_separation,
    ]


class CliSession(Workload):
    name = "cli_session"
    why = (
        "CLI users pay interpreter + numpy + cohres import on every command; the only "
        "workload where cli and import time matter"
    )
    item = "commands"
    setup_code = "import cohres.cli"
    COMMANDS = 8

    def prepare(self) -> None:
        self.cfg = cohres.read_scenario(self.root / SCENARIO)
        self.rng = np.random.default_rng((self.seed, CLI_STREAM))
        self.table_path = str(self.workdir / "t.json")
        self.scan_path = str(self.workdir / "scan.csv")
        self.ref_path = self.workdir / "scan_ref.csv"
        self.session = None

    def _new_session(self) -> dict:
        return {
            "energy": float(self.rng.uniform(0.20, 0.31)),
            "angle": float(self.rng.uniform(0.0, 180.0)),
            "angle2": float(self.rng.uniform(0.0, 180.0)),
            "emin": float(self.rng.uniform(0.20, 0.25)),
        }

    def make_input(self, i: int):
        k = i % self.COMMANDS
        if k == 0 or self.session is None:
            self.session = self._new_session()
        s = self.session
        scenario = str(self.root / SCENARIO)
        tbl = ["--table", self.table_path]
        ratio = ["control", *tbl, "--num", PAIR[0], "--den", PAIR[1]]
        argv = [
            ["synth", "--config", scenario, "--energy", repr(s["energy"]), "--out", self.table_path],
            ["validate", *tbl],
            ratio,
            ["control", *tbl, "--channel", PAIR[0], "--angle", repr(s["angle"])],
            ["schwartz", *tbl, "--channel", PAIR[0]],
            ["schwartz", *tbl, "--channel", PAIR[1], "--angle", repr(s["angle2"])],
            [*ratio, "--oracle", "721"],
            ["scan", "--config", scenario, "--emin", repr(s["emin"]),
             "--emax", repr(s["emin"] + 0.06), "--step", "0.005",
             "--pair", ",".join(PAIR), "--out", self.scan_path],
        ][k]
        return s, argv

    def call(self, inp):
        proc = subprocess.run(
            [sys.executable, "-m", "cohres.cli", *inp[1]],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def traced_call(self, inp):
        """In-process replay of the same argv through ``cohres.cli.main``."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            try:
                code = cohres.cli.main(inp[1])
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue(), ""

    def _expected(self, s: dict, argv: list[str]):
        """(numbers the command must print, or None; file bytes it must write, or None)."""
        if "table" not in s:
            s["table"] = self.cfg.table_at(s["energy"])
        t = s["table"]
        cmd = argv[0]
        if cmd == "synth":
            return [s["energy"]], (self.table_path, table_to_json(t).encode())
        if cmd == "validate":
            return [], None
        if cmd == "scan":  # the CLI's own energy grid
            emin, emax, step = s["emin"], s["emin"] + 0.06, 0.005
            energies = [emin + i * step for i in range(int(round((emax - emin) / step)) + 1)]
            cohres.write_scan_csv(cohres.energy_scan(self.cfg, energies, PAIR), self.ref_path)
            return None, (self.scan_path, self.ref_path.read_bytes())
        values = []
        node = None
        if "--angle" in argv:
            theta = float(argv[argv.index("--angle") + 1])
            node = t.grid.nearest_node(math.radians(theta))
            values.append(math.degrees(t.grid.nodes[node]))

        def matrix(label):
            if node is None:
                return cohres.cross_section_matrix(t, label)
            return cohres.differential_matrix(t, label, node)

        if cmd == "schwartz":
            return values + [cohres.schwartz_ratio(matrix(argv[argv.index("--channel") + 1]))], None
        if "--channel" in argv:
            m = matrix(argv[argv.index("--channel") + 1])
            return values + _range_values(cohres.cross_section_extrema(m)) + [m.sigma11, m.sigma22], None
        num, den = matrix(PAIR[0]), matrix(PAIR[1])
        values += _range_values(cohres.ratio_extrema(num, den))
        values += [num.sigma11 / den.sigma11, num.sigma22 / den.sigma22]
        if "--oracle" in argv:
            values += _range_values(cohres.lattice_extrema(num, den, 721, 721))
        return values, None

    def check(self, inp, out) -> list[str]:
        s, argv = inp
        code, stdout, stderr = out
        if code != 0:
            return [f"`{' '.join(argv)}` exited {code}: {stderr.strip()[-200:]}"]
        numbers, file_bytes = self._expected(s, argv)
        errs = []
        if argv[0] == "validate" and stdout != "ok\n":
            errs.append(f"`validate` printed {stdout!r}")
        if numbers is not None:
            got = _NUMBER.findall(stdout)
            want = [repr(float(v)) for v in numbers]
            if got != want:
                errs.append(f"`{argv[0]}` printed {got}, library gives {want}")
        if file_bytes is not None:
            path, want_bytes = file_bytes
            if Path(path).read_bytes() != want_bytes:
                errs.append(f"`{argv[0]}` wrote {path} unlike the in-process library")
        return errs


WORKLOADS = {w.name: w for w in (ScanFhd, Tables, OracleLattice, CliSession)}
