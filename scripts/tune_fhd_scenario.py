#!/usr/bin/env python3
"""Tune and freeze the committed F+HD-like scenario.

Bisects a single scale factor on the direct-term amplitudes until the
channel-A integral Schwartz ratio at the peak energy hits the 0.90
target, then reports every figure of merit the scenario is committed to
(branching, peak factors, argmax energy, backward-node dominance) and
writes scenarios/fhd_like.json.

Run from the repository root:

    python scripts/tune_fhd_scenario.py [--target 0.90] [--write]
"""

import argparse
import math
from pathlib import Path

from cohres import (
    BackgroundChannel,
    BackgroundSpec,
    BackgroundState,
    ChannelState,
    ExitChannel,
    ExitState,
    ResonanceSpec,
    ScenarioConfig,
    cross_section_matrix,
    differential_matrix,
    energy_scan,
    ratio_extrema,
    resonance_branching_ratio,
    schwartz_ratio,
    width_from_lifetime,
    write_scenario,
)

PEAK_EV = 0.2550
CHANNEL_A = "D+HF"
CHANNEL_B = "H+DF"

A1 = ChannelState(CHANNEL_A, v=2, j=0, m=0)
A2 = ChannelState(CHANNEL_A, v=2, j=1, m=0)
B1 = ChannelState(CHANNEL_B, v=0, j=0, m=0)
B2 = ChannelState(CHANNEL_B, v=0, j=1, m=0)

INITIAL = (ChannelState("F+HD", 0, 0, 0), ChannelState("F+HD", 0, 1, 0))

# channel A's direct term is forward-peaked (backward amplitude -0.3),
# keeping the backward node resonance-dominated for the numerator;
# channel B's is backward-peaked (backward amplitude 1.35) so the
# denominator keeps a solid direct component there and the backward
# ratio pencil stays far from degenerate
SHAPE_BG_A = (0.35, 1.2, 0.55)
SHAPE_BG_B = (0.6, -0.5, 0.25)

# the direct term couples to the two initial states differently per
# final state: a symmetric direct term would be rank-1 (perfectly
# controllable by itself) and the attainable pole/direct mixtures would
# not change with energy, flattening R(E)
W_A1 = (1.0 + 0.0j, 0.75 + 0.45j)
W_A2 = (1.0 + 0.0j, -0.35 + 0.8j)
W_B1 = (1.0 + 0.0j, 0.3 - 0.85j)
W_B2 = (1.0 + 0.0j, 0.9 + 0.25j)

# global phase of each channel's direct term relative to the pole; these
# recenter the Fano-like asymmetry of the pole/background cross terms so
# the ratio-control factor R(E) peaks on the resonance row of the scan
# (picked by the grid search this script grew out of)
CHI_A = -math.pi / 4.0
CHI_B = -math.pi / 2.0

# binary-exact overall amplitude scale (applied to exit couplings and to
# the direct term alike) putting the peak cross sections near 1 A^2;
# every ratio, phase and Schwartz value is bit-identical under it
AMP_SCALE = 2.0**-11

MASSES = {"F": 18.998403163, "H": 1.00782503207, "D": 2.01410177812, "HD": 3.02192681019}


def resonance() -> ResonanceSpec:
    return ResonanceSpec(
        epsilon_r=PEAK_EV,
        gamma_width=width_from_lifetime(109.0),
        entrance=(1.0 + 0.0j, 0.85 * complex(math.cos(1.9), math.sin(1.9))),
        exits=(
            ExitChannel(
                CHANNEL_A,
                (
                    ExitState(A1, AMP_SCALE * (2.0 + 1.0j), (1.0, 0.3)),
                    ExitState(A2, AMP_SCALE * (2.0 - 1.0j), (1.0, -0.3)),
                ),
            ),
            # equal shape norms and |0.8|^2 + |0.6|^2 = 1 make the
            # decay branching exactly 10 : 1 toward channel A
            ExitChannel(
                CHANNEL_B,
                (
                    ExitState(B1, AMP_SCALE * (0.8 + 0.0j), (1.0, 0.3)),
                    ExitState(B2, AMP_SCALE * (0.0 + 0.6j), (1.0, -0.3)),
                ),
            ),
        ),
    )


def background(scale: float) -> BackgroundSpec:
    scale = scale * AMP_SCALE
    za = scale * complex(math.cos(CHI_A), math.sin(CHI_A))
    zb = scale * complex(math.cos(CHI_B), math.sin(CHI_B))
    return BackgroundSpec(
        reference_energy=PEAK_EV,
        channels=(
            BackgroundChannel(
                CHANNEL_A,
                (
                    BackgroundState(A1, za * (1.0 + 0.5j), scale * (0.2 - 0.1j), SHAPE_BG_A, W_A1),
                    BackgroundState(A2, za * (0.6 - 0.35j), scale * (-0.1 + 0.2j), SHAPE_BG_A, W_A2),
                ),
            ),
            BackgroundChannel(
                CHANNEL_B,
                (
                    BackgroundState(B1, zb * (0.9 + 0.25j), scale * (0.15 + 0.1j), SHAPE_BG_B, W_B1),
                    BackgroundState(B2, zb * (0.45 - 0.3j), scale * (-0.05 + 0.1j), SHAPE_BG_B, W_B2),
                ),
            ),
        ),
    )


def scenario(scale: float) -> ScenarioConfig:
    return ScenarioConfig(
        resonance=resonance(),
        background=background(scale),
        mix=0.5,
        grid_order=64,
        initial_pair=INITIAL,
        masses_amu=MASSES,
        energy_offset=0.0,
    )


def peak_schwartz_a(scale: float) -> float:
    cfg = scenario(scale)
    table = cfg.table_at(PEAK_EV)
    return schwartz_ratio(cross_section_matrix(table, CHANNEL_A))


def tune(target: float) -> float:
    # the ratio is 1 at scale 0, dips below target, and climbs back to 1
    # (a symmetric direct term is itself rank-1); bisect the left crossing
    lo, hi = 0.0, 1.0
    while peak_schwartz_a(hi) > target:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise RuntimeError("dip never reaches the target; deepen the asymmetry")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if peak_schwartz_a(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def report(cfg: ScenarioConfig) -> None:
    energies = [0.25 + 0.005 * i for i in range(13)]
    rows = energy_scan(cfg, energies, (CHANNEL_A, CHANNEL_B))
    print(f"branching A:B = {resonance_branching_ratio(cfg.resonance, CHANNEL_A, CHANNEL_B)!r}")
    peak = max(rows, key=lambda r: r.ratio.coherent_factor)
    print(f"argmax R at E = {peak.energy!r}")
    for row in rows:
        a = row.channel(CHANNEL_A)
        print(
            f"E={row.energy:.4f}  schwartz_A={a.schwartz:.4f}  "
            f"R={row.ratio.coherent_factor:.4g}  R_nc={row.ratio.noncoherent_factor:.4g}  "
            f"r=[{row.ratio.r_min:.4g},{row.ratio.r_max:.4g}]"
        )
    r_nc_peak = max(r.ratio.noncoherent_factor for r in rows)
    print(f"peak R / peak R_nc = {peak.ratio.coherent_factor / r_nc_peak:.4g}")

    table = cfg.table_at(PEAK_EV)
    node = table.grid.nearest_node(math.pi)
    num = differential_matrix(table, CHANNEL_A, node)
    den = differential_matrix(table, CHANNEL_B, node)
    diff = ratio_extrema(num, den)
    diff_factor = math.inf if diff.min_value == 0.0 else diff.max_value / diff.min_value
    int_row = next(r for r in rows if abs(r.energy - PEAK_EV) < 1e-12)
    print(
        f"backward node {node} theta={math.degrees(table.grid.nodes[node]):.2f}deg  "
        f"diff schwartz_A={schwartz_ratio(num):.6f}  diff factor={diff_factor:.6g}  "
        f"integral factor={int_row.ratio.coherent_factor:.6g}"
    )

    print("--- values to pin in regression tests (full precision) ---")
    mA = cross_section_matrix(table, CHANNEL_A)
    print(f"peak schwartz_A       = {schwartz_ratio(mA)!r}")
    print(f"peak r_min            = {int_row.ratio.r_min!r}")
    print(f"peak r_max            = {int_row.ratio.r_max!r}")
    print(f"peak s_at_rmin        = {int_row.ratio.extrema.params_at_min.s!r}")
    print(f"peak phi_at_rmin_deg  = {math.degrees(int_row.ratio.extrema.params_at_min.phi12)!r}")
    print(f"peak s_at_rmax        = {int_row.ratio.extrema.params_at_max.s!r}")
    print(f"peak phi_at_rmax_deg  = {math.degrees(int_row.ratio.extrema.params_at_max.phi12)!r}")
    print(f"backward diff factor  = {diff_factor!r}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--target", type=float, default=0.90)
    ap.add_argument("--write", action="store_true", help="write scenarios/fhd_like.json")
    args = ap.parse_args()

    scale = tune(args.target)
    print(f"background scale = {scale!r}")
    print(f"peak schwartz_A  = {peak_schwartz_a(scale)!r}")
    cfg = scenario(scale)
    report(cfg)
    if args.write:
        out = Path(__file__).resolve().parent.parent / "scenarios" / "fhd_like.json"
        write_scenario(cfg, out)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
