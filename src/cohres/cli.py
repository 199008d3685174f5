"""Command-line surface.

Subcommands:

* ``synth``    synthesize an amplitude table from a scenario at one energy
* ``control``  extrema of one channel's cross section, or of a channel ratio
* ``schwartz`` resonance-mediation diagnostic, integral or at one angle
* ``scan``     energy scan to CSV
* ``validate`` check a table file against the format invariants

Angles and phases are degrees here and only here; files and the library
are radians.  All numbers print with repr, so CLI output equals library
values exactly.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .control import (
    SINGULAR_TOL,
    cross_section_extrema,
    lattice_extrema,
    noncoherent_limits,
    ratio_extrema,
)
from .errors import CohresError, TableValidationError
from .scan import energy_scan, write_scan_csv
from .scenario import read_scenario
from .tableio import _fmt, read_table, write_table
from .xsection import cross_section_matrix, differential_matrix, schwartz_ratio

__all__ = ["main", "build_parser"]


def _print_range(tag: str, rng, stream) -> None:
    lo_phi = math.degrees(rng.params_at_min.phi12)
    hi_phi = math.degrees(rng.params_at_max.phi12)
    print(
        f"{tag}_min = {_fmt(rng.min_value)} at s = {_fmt(rng.params_at_min.s)}, "
        f"phi12_deg = {_fmt(lo_phi)}",
        file=stream,
    )
    print(
        f"{tag}_max = {_fmt(rng.max_value)} at s = {_fmt(rng.params_at_max.s)}, "
        f"phi12_deg = {_fmt(hi_phi)}",
        file=stream,
    )
    if rng.degenerate:
        print(f"{tag} is independent of the control parameters", file=stream)
    if rng.unbounded_max:
        print(
            f"{tag}_max is unbounded; params_at_max gives the denominator zero",
            file=stream,
        )
    print(f"{tag} param_separation = {_fmt(rng.param_separation)}", file=stream)


def _finite(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohres",
        description="Two-state coherent control of collisional cross sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize an amplitude table from a scenario")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--energy", required=True, type=_finite, help="total energy in eV")
    p.add_argument("--out", required=True, help="output table path")

    p = sub.add_parser("control", help="extrema of a cross section or a channel ratio")
    p.add_argument("--table", required=True, help="amplitude table JSON file")
    p.add_argument("--channel", help="single-channel mode: extremize this channel")
    p.add_argument("--num", help="ratio mode: numerator channel")
    p.add_argument("--den", help="ratio mode: denominator channel")
    p.add_argument("--angle", type=float, help="degrees; use the nearest grid node")
    p.add_argument(
        "--oracle",
        type=int,
        metavar="N",
        help="also run the N x N lattice cross-check and print it",
    )
    p.add_argument(
        "--tol-singular",
        type=_finite,
        default=SINGULAR_TOL,
        help="denominator-singularity threshold, det(B) <= tol*trace(B)^2",
    )

    p = sub.add_parser("schwartz", help="Schwartz ratio |s12|/sqrt(s11*s22)")
    p.add_argument("--table", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--angle", type=float, help="degrees; omit for the integral ratio")

    p = sub.add_parser("scan", help="energy scan to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--emin", required=True, type=_finite)
    p.add_argument("--emax", required=True, type=_finite)
    p.add_argument("--step", required=True, type=_finite)
    p.add_argument("--pair", required=True, help="numerator,denominator channel labels")
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="check a table file against the invariants")
    p.add_argument("--table", required=True)

    return parser


def _matrices(args, table):
    """(numerator, denominator-or-None) matrices per the control flags."""
    if args.channel and (args.num or args.den):
        raise CohresError("use either --channel or --num/--den, not both")
    if bool(args.num) != bool(args.den):
        raise CohresError("--num and --den must be given together")
    if not args.channel and not args.num:
        raise CohresError("need --channel or --num/--den")

    node = None
    if args.angle is not None:
        node = table.grid.nearest_node(math.radians(args.angle))
        print(
            f"angle node {node} at theta_deg = {_fmt(math.degrees(table.grid.nodes[node]))}"
        )

    def matrix(label: str):
        if node is None:
            return cross_section_matrix(table, label)
        return differential_matrix(table, label, node)

    if args.channel:
        return matrix(args.channel), None
    return matrix(args.num), matrix(args.den)


def _cmd_synth(args) -> int:
    cfg = read_scenario(args.config)
    table = cfg.table_at(args.energy)
    write_table(table, args.out)
    print(f"wrote {args.out} (energy_eV = {_fmt(args.energy)})")
    return 0


def _cmd_control(args) -> int:
    table = read_table(args.table)
    num, den = _matrices(args, table)
    if den is None:
        rng = cross_section_extrema(num)
        s11, s22 = noncoherent_limits(num)
        _print_range("sigma", rng, sys.stdout)
        print(f"sigma_s0 = {_fmt(s11)}")
        print(f"sigma_s1 = {_fmt(s22)}")
        if args.oracle:
            _print_range("oracle_sigma", lattice_extrema(num, None, args.oracle, args.oracle), sys.stdout)
    else:
        rng = ratio_extrema(num, den, tol_singular=args.tol_singular)
        _print_range("r", rng, sys.stdout)
        print(f"r_s0 = {_fmt(num.sigma11 / den.sigma11)}")
        print(f"r_s1 = {_fmt(num.sigma22 / den.sigma22)}")
        if args.oracle:
            _print_range("oracle_r", lattice_extrema(num, den, args.oracle, args.oracle), sys.stdout)
    return 0


def _cmd_schwartz(args) -> int:
    table = read_table(args.table)
    if args.angle is None:
        m = cross_section_matrix(table, args.channel)
        print(f"schwartz[{args.channel}] (integral) = {_fmt(schwartz_ratio(m))}")
    else:
        node = table.grid.nearest_node(math.radians(args.angle))
        theta = math.degrees(table.grid.nodes[node])
        m = differential_matrix(table, args.channel, node)
        print(
            f"schwartz[{args.channel}] at node {node} (theta_deg = {_fmt(theta)}) = "
            f"{_fmt(schwartz_ratio(m))}"
        )
    return 0


def _cmd_scan(args) -> int:
    cfg = read_scenario(args.config)
    n = int(round((args.emax - args.emin) / args.step)) + 1
    energies = [args.emin + i * args.step for i in range(n)]
    pair = tuple(p.strip() for p in args.pair.split(","))
    if len(pair) != 2 or not all(pair):
        raise CohresError(f"--pair must be 'numerator,denominator', got {args.pair!r}")
    rows = energy_scan(cfg, energies, pair)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    angle = getattr(args, "angle", None)
    if angle is not None and not 0.0 <= angle <= 180.0:
        parser.error(f"--angle must lie in [0, 180] degrees, got {angle!r}")
    oracle = getattr(args, "oracle", None)
    if oracle is not None and oracle < 2:
        parser.error(f"--oracle needs N >= 2, got {oracle!r}")
    tol = getattr(args, "tol_singular", None)
    if tol is not None and tol < 0.0:
        parser.error(f"--tol-singular must be >= 0, got {tol!r}")
    if args.command == "scan":
        if args.step <= 0.0:
            parser.error(f"--step must be > 0, got {args.step!r}")
        if args.emin > args.emax:
            parser.error(f"--emin must not exceed --emax, got {args.emin!r} > {args.emax!r}")
    handler = {
        "synth": _cmd_synth,
        "control": _cmd_control,
        "schwartz": _cmd_schwartz,
        "scan": _cmd_scan,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except (CohresError, OSError, ValueError) as exc:
        print(f"cohres: error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
