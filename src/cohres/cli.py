"""Command-line surface.

Subcommands:

* ``synth``    synthesize an amplitude table from a scenario at one energy
* ``control``  extrema of one channel's cross section, or of a channel ratio
* ``schwartz`` resonance-mediation diagnostic, integral or at one angle
* ``scan``     energy scan to CSV
* ``validate`` check a table file against the format invariants

Angles and phases are degrees here and in the scan CSV's
``phi_at_rmin_deg``/``phi_at_rmax_deg`` columns; table and scenario files
and the library are radians.  The subcommand's parser checks each flag's
range and how flags combine, so a bad flag is a usage error, reported with
that subcommand's usage line, before any file is read.
All numbers print with repr, so CLI output equals library values exactly.
Exit codes: 0 success, 1 domain error, 2 usage error.  A domain error is a
``CohresError`` or an ``OSError`` and prints as one line; any other
exception is a bug and propagates with its traceback.

The module imports only the table and solver layer; ``synth`` and ``scan``
import the synthesis and scan modules in their handlers, so the other
commands never load them.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .control import (
    SINGULAR_TOL,
    cross_section_extrema,
    lattice_extrema,
    noncoherent_limits,
    ratio_extrema,
)
from .core import _check_energies, _quotient
from .errors import CohresError, TableValidationError
from .tableio import _fmt, read_table, write_table
from .xsection import cross_section_matrix, differential_matrix, schwartz_ratio

__all__ = ["main", "build_parser"]

MAX_ORACLE = 4096  # bounds time (N^2 lattice points); row blocks keep memory O(block * N)
MAX_SCAN_ROWS = 10**6  # a scan row holds ~1.1 KB (tracemalloc), so ~1.1 GB at the cap


def _print_range(tag: str, rng) -> None:
    for end, value, p in (
        ("min", rng.min_value, rng.params_at_min),
        ("max", rng.max_value, rng.params_at_max),
    ):
        phi = _fmt(math.degrees(p.phi12))
        print(f"{tag}_{end} = {_fmt(value)} at s = {_fmt(p.s)}, phi12_deg = {phi}")
    if rng.degenerate:
        print(f"{tag} is independent of the control parameters")
    if rng.unbounded_max:
        print(f"{tag}_max is unbounded; params_at_max gives the denominator zero")
    print(f"{tag} param_separation = {_fmt(rng.param_separation)}")


def _number(convert, ok, want: str):
    """argparse type: ``convert(text)``, a usage error unless ``ok`` holds for it."""

    def parse(text: str):
        try:
            x = convert(text)
            if ok(x):
                return x
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")

    return parse


_FINITE = _number(float, math.isfinite, "a finite number")
_STEP = _number(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
_TOL = _number(float, lambda x: 0.0 <= x < math.inf, "a finite number >= 0")
_ANGLE = _number(float, lambda x: 0.0 <= x <= 180.0, "degrees in [0, 180]")
_ORACLE = _number(int, lambda n: 2 <= n <= MAX_ORACLE, f"an integer in [2, {MAX_ORACLE}]")
_PAIR = _number(
    lambda text: tuple(p.strip() for p in text.split(",")),
    lambda pair: len(pair) == 2 and all(pair),
    "'numerator,denominator'",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohres",
        description="Two-state coherent control of collisional cross sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize an amplitude table from a scenario")
    p.set_defaults(handler=_cmd_synth)
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--energy", required=True, type=_FINITE, help="total energy in eV")
    p.add_argument("--out", required=True, help="output table path")

    p = sub.add_parser("control", help="extrema of a cross section or a channel ratio")
    p.set_defaults(handler=_cmd_control, error=p.error)
    p.add_argument("--table", required=True, help="amplitude table JSON file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--channel", help="single-channel mode: extremize this channel")
    mode.add_argument("--num", help="ratio mode: numerator channel (needs --den)")
    p.add_argument("--den", help="ratio mode: denominator channel (needs --num)")
    p.add_argument("--angle", type=_ANGLE, help="degrees; use the nearest grid node")
    p.add_argument(
        "--oracle",
        type=_ORACLE,
        metavar="N",
        help="also run the N x N lattice cross-check and print it",
    )
    p.add_argument(
        "--tol-singular",
        type=_TOL,
        default=SINGULAR_TOL,
        help="denominator-singularity threshold, det(B) <= tol*trace(B)^2",
    )

    p = sub.add_parser("schwartz", help="Schwartz ratio |s12|/sqrt(s11*s22)")
    p.set_defaults(handler=_cmd_schwartz)
    p.add_argument("--table", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--angle", type=_ANGLE, help="degrees; omit for the integral ratio")

    p = sub.add_parser("scan", help="energy scan to CSV")
    p.set_defaults(handler=_cmd_scan, error=p.error)
    p.add_argument("--config", required=True)
    p.add_argument("--emin", required=True, type=_FINITE)
    p.add_argument("--emax", required=True, type=_FINITE)
    p.add_argument("--step", required=True, type=_STEP)
    p.add_argument("--pair", required=True, type=_PAIR, help="numerator,denominator labels")
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="check a table file against the invariants")
    p.set_defaults(handler=_cmd_validate)
    p.add_argument("--table", required=True)

    return parser


def _node(table, angle: float | None) -> int | None:
    """The grid node nearest ``angle`` degrees, or None for the integral."""
    return None if angle is None else table.grid.nearest_node(math.radians(angle))


def _matrix(table, label: str, node: int | None):
    """The integral matrix of ``label``, or its differential matrix at ``node``."""
    if node is None:
        return cross_section_matrix(table, label)
    return differential_matrix(table, label, node)


def _matrices(args, table):
    """(numerator, denominator-or-None) matrices per the control flags."""
    node = _node(table, args.angle)
    if node is not None:
        print(
            f"angle node {node} at theta_deg = {_fmt(math.degrees(table.grid.nodes[node]))}"
        )
    if args.num is None:
        return _matrix(table, args.channel, node), None
    return _matrix(table, args.num, node), _matrix(table, args.den, node)


def _cmd_synth(args) -> int:
    from .scenario import read_scenario

    cfg = read_scenario(args.config)
    table = cfg.table_at(args.energy)
    write_table(table, args.out)
    print(f"wrote {args.out} (energy_eV = {_fmt(args.energy)})")
    return 0


def _cmd_control(args) -> int:
    """Extrema of sigma (one channel) or of r = num/den, then the s = 0, 1 limits."""
    if (args.num is None) != (args.den is None):
        args.error("--num and --den must be given together")
    table = read_table(args.table)
    num, den = _matrices(args, table)
    limits = noncoherent_limits(num)
    if den is None:
        tag, rng = "sigma", cross_section_extrema(num)
    else:
        tag, rng = "r", ratio_extrema(num, den, tol_singular=args.tol_singular)
        limits = map(_quotient, limits, noncoherent_limits(den))
    _print_range(tag, rng)
    for s, value in enumerate(limits):
        print(f"{tag}_s{s} = {_fmt(value)}")
    if args.oracle:
        _print_range(f"oracle_{tag}", lattice_extrema(num, den, args.oracle, args.oracle))
    return 0


def _cmd_schwartz(args) -> int:
    table = read_table(args.table)
    node = _node(table, args.angle)
    ratio = _fmt(schwartz_ratio(_matrix(table, args.channel, node)))
    if node is None:
        print(f"schwartz[{args.channel}] (integral) = {ratio}")
    else:
        theta = _fmt(math.degrees(table.grid.nodes[node]))
        print(f"schwartz[{args.channel}] at node {node} (theta_deg = {theta}) = {ratio}")
    return 0


def _scan_energies(args) -> list[float]:
    """The scan grid emin + i*step, checked before any file is read."""
    if args.emin > args.emax:
        args.error(f"--emin must not exceed --emax, got {args.emin!r} > {args.emax!r}")
    span = (args.emax - args.emin) / args.step
    if not math.isfinite(span) or span + 1.0 > MAX_SCAN_ROWS:
        args.error(
            f"--emin, --emax and --step give {span + 1.0!r} energies; at most {MAX_SCAN_ROWS}"
        )
    energies = [args.emin + i * args.step for i in range(round(span) + 1)]
    try:
        _check_energies(energies)
    except CohresError as exc:
        args.error(f"--step {args.step!r} from --emin {args.emin!r}: {exc}")
    return energies


def _cmd_scan(args) -> int:
    energies = _scan_energies(args)
    from .scan import energy_scan, write_scan_csv
    from .scenario import read_scenario

    cfg = read_scenario(args.config)
    rows = energy_scan(cfg, energies, args.pair)
    write_scan_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_validate(args) -> int:
    try:
        read_table(args.table)
    except TableValidationError as exc:
        for v in exc.violations:
            print(v)
        print(f"{len(exc.violations)} violation(s)")
        return 1
    print("ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an amplitude whose square or Gram sum overflows gives an inf that the
        # checks report as the one error line; NumPy's warning would print first
        with np.errstate(over="ignore"):
            return args.handler(args)
    except (CohresError, OSError) as exc:
        print(f"cohres: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
