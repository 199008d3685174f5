"""Acceptance suite: one test per committed criterion.

Each test prints a single PASS line (visible with ``pytest -s``); a
failing criterion fails its test.  Tolerances are pinned here and nowhere
else.  Run serially:

    pytest tests/test_acceptance.py -v -s
"""

import cmath
import math
import sys
import time

import numpy as np
import pytest

from cohres import (
    SynthesisBasis,
    controlled_cross_section,
    controlled_ratio,
    cross_section_extrema,
    cross_section_matrix,
    differential_matrix,
    energy_scan,
    gauss_legendre_grid,
    kinematic_pair,
    lattice_extrema,
    ratio_extrema,
    read_scenario,
    read_table,
    resonance_branching_ratio,
    schwartz_ratio,
    synthesize_table,
    width_from_lifetime,
    write_scan_csv,
    write_table,
)
from cohres.cli import main as cli_main
from cohres.resonance import ResonanceSpec, breit_wigner_factor
from conftest import (
    FHD_SCENARIO,
    INITIAL,
    random_psd_matrix,
    random_pure_resonance,
    ridged_psd_matrix,
)

PAIR = ("D+HF", "H+DF")
SCAN_ENERGIES = [0.25 + 0.005 * i for i in range(13)]

# Rounding model for a shared-pole lattice ratio (criterion 05).  In exact
# arithmetic num = kappa * den, both rank one, so the ratio is flat.  The
# stored sigma entries are quadrature sums, each off by a few eps*tr, so at a
# control point c the ratio errs by about eps * tr(den) / den(c) * kappa,
# which grows without bound near den's null direction.  Measured per-point
# error of ``quadratic_form`` over 10^4 such scenarios x 101^2 points: at
# most 7.1 * kappa * eps * tr / den(c); the stored matrices alone, evaluated
# in extended precision, give 5.9.  So the spread max - min of two lattice
# points is at most 2 * 8 * kappa * eps * tr / d_min, d_min the smallest
# lattice denominator.
RATIO_ROUNDING_FACTOR = 16


def circular_close(a: float, b: float, tol: float) -> bool:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d) <= tol


def pure_scenarios(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    grid = gauss_legendre_grid(16)
    for _ in range(n):
        res, bg = random_pure_resonance(rng)
        energy = res.epsilon_r + float(rng.uniform(-2, 2)) * res.gamma_width
        yield synthesize_table(SynthesisBasis(res, bg, grid, 1.0), energy, INITIAL), res


def well_mixed_psd(rng, channel="X"):
    """Random PSD matrix whose extremal weights stay off the s endpoints.

    The controlled cross section varies like sqrt(s(1-s)) near s in
    {0, 1}, so a uniform-s lattice cannot resolve extrema pinned to the
    endpoints; agreement with the lattice cross-check is only meaningful
    for instances whose eigenvector mixing is bounded away from them.
    """
    lam = sorted(rng.uniform(0.05, 1.0, size=2))
    theta = rng.uniform(0.15, math.pi / 2.0 - 0.15)
    chi = rng.uniform(0.0, 2.0 * math.pi)
    v = np.array([math.cos(theta), math.sin(theta) * cmath.exp(1j * chi)])
    w = np.array([-v[1].conjugate(), v[0]])
    m = lam[0] * np.outer(v, v.conj()) + lam[1] * np.outer(w, w.conj())
    from cohres import XsecMatrix

    return XsecMatrix(channel, "integral", m[0, 0].real, m[1, 1].real, m[0, 1])


def mixed_ratio_instance(rng):
    """Ratio instance whose pencil extrema sit away from the s endpoints."""
    while True:
        num = random_psd_matrix(rng, "A")
        den = ridged_psd_matrix(rng, channel="B")
        rr = ratio_extrema(num, den)
        if rr.degenerate or rr.unbounded_max:
            continue
        if all(0.03 <= p.s <= 0.97 for p in (rr.params_at_min, rr.params_at_max)):
            return num, den, rr


def test_criterion_01_schwartz_equality_suite():
    t0 = time.perf_counter()
    for table, _ in pure_scenarios(200):
        for label in table.arrangements():
            assert schwartz_ratio(cross_section_matrix(table, label)) >= 1.0 - 1e-12
            for node in range(len(table.grid)):
                assert schwartz_ratio(differential_matrix(table, label, node)) >= 1.0 - 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 schwartz-equality-suite: PASS (200 scenarios, {elapsed:.2f} s)")


def test_criterion_02_complete_control_suite():
    for table, _ in pure_scenarios(200):
        for label in table.arrangements():
            m = cross_section_matrix(table, label)
            ext = cross_section_extrema(m)
            assert ext.min_value <= 1e-10 * m.trace
            assert ext.max_value == pytest.approx(m.trace, rel=1e-12)
            arg12 = cmath.phase(m.sigma12)
            assert ext.params_at_min.s == pytest.approx(m.sigma11 / m.trace, rel=1e-9)
            assert ext.params_at_max.s == pytest.approx(m.sigma22 / m.trace, rel=1e-9)
            assert circular_close(ext.params_at_min.phi12, math.pi - arg12, 1e-9)
            assert circular_close(ext.params_at_max.phi12, -arg12, 1e-9)
    print("ACCEPTANCE 2 complete-control-suite: PASS (closed-form params to 1e-9)")


def test_criterion_03_trace_det_identities():
    rng = np.random.default_rng(11)
    for _ in range(500):
        m = random_psd_matrix(rng, normalize=False)
        ext = cross_section_extrema(m)
        assert ext.min_value + ext.max_value == pytest.approx(m.trace, rel=1e-12)
        assert ext.min_value * ext.max_value == pytest.approx(m.det, rel=1e-12)
    # worked instance: controllable range endpoints 0.0850 and 2.193 must
    # add up to the non-coherent sum 2.278
    assert math.isclose(0.0850 + 2.193, 2.278, rel_tol=1e-12)
    print("ACCEPTANCE 3 trace-det-identities: PASS (500 matrices + worked instance)")


def test_criterion_04_oracle_agreement():
    rng = np.random.default_rng(13)
    t0 = time.perf_counter()
    for _ in range(500):
        m = well_mixed_psd(rng)
        ext = cross_section_extrema(m)
        lat = lattice_extrema(m, None, 721, 721)
        assert abs(ext.min_value - lat.min_value) <= 1e-4 * m.trace
        assert abs(ext.max_value - lat.max_value) <= 1e-4 * m.trace
        assert controlled_cross_section(m, ext.params_at_min) <= lat.min_value + 1e-12
        assert controlled_cross_section(m, ext.params_at_max) >= lat.max_value - 1e-12
    for _ in range(500):
        num, den, rr = mixed_ratio_instance(rng)
        lat = lattice_extrema(num, den, 721, 721)
        scale = max(abs(rr.min_value), abs(rr.max_value))
        assert abs(rr.min_value - lat.min_value) <= 1e-4 * scale
        assert abs(rr.max_value - lat.max_value) <= 1e-4 * scale
        assert controlled_ratio(num, den, rr.params_at_min) <= lat.min_value + 1e-12
        assert controlled_ratio(num, den, rr.params_at_max) >= lat.max_value - 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4 oracle-agreement: PASS (500+500 instances, {elapsed:.1f} s)")


def test_criterion_05_ratio_invariance():
    eps = sys.float_info.epsilon
    largest_bound = worst_use = 0.0
    for table, res in pure_scenarios(50, seed=17):
        num = cross_section_matrix(table, "D+HF")
        den = cross_section_matrix(table, "H+DF")
        branching = resonance_branching_ratio(res, "D+HF", "H+DF")
        lat = lattice_extrema(num, den, 101, 101)
        d_min = lattice_extrema(den, None, 101, 101).min_value
        assert d_min > 0.0
        bound = RATIO_ROUNDING_FACTOR * eps * (den.trace / d_min) * branching
        spread = lat.max_value - lat.min_value
        assert spread <= bound
        largest_bound = max(largest_bound, bound / branching)
        worst_use = max(worst_use, spread / bound)
        rr = ratio_extrema(num, den)
        assert rr.degenerate
        assert rr.min_value == pytest.approx(branching, rel=1e-12)
        assert rr.max_value == pytest.approx(branching, rel=1e-12)
    print(
        "ACCEPTANCE 5 ratio-invariance: PASS (50 shared-pole scenarios, "
        f"largest bound {largest_bound:.3g} x branching, worst spread/bound {worst_use:.3f})"
    )


def test_criterion_06_breit_wigner():
    assert abs(width_from_lifetime(109.0) - 6.0386e-3) <= 1e-7

    from cohres import ChannelState, ExitChannel, ExitState

    for eps_r, gamma in ((0.2550, width_from_lifetime(109.0)), (0.1, 1e-3), (2.0, 0.3)):
        res = ResonanceSpec(
            epsilon_r=eps_r,
            gamma_width=gamma,
            entrance=(1.0, 1.0),
            exits=(
                ExitChannel(
                    "D+HF", (ExitState(ChannelState("D+HF", 0, 0, 0), 1.0, (1.0,)),)
                ),
            ),
        )
        peak = abs(breit_wigner_factor(eps_r, res)) ** 2

        def half_point(lo, hi):
            f = lambda e: abs(breit_wigner_factor(e, res)) ** 2 - 0.5 * peak
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        lo = half_point(eps_r - 5 * gamma, eps_r)
        hi = half_point(eps_r, eps_r + 5 * gamma)
        assert abs((hi - lo) - gamma) <= 1e-9 * gamma
    print("ACCEPTANCE 6 breit-wigner: PASS (FWHM == width, 109 fs -> 6.0386e-3 eV)")


def test_criterion_07_kinematics():
    k = kinematic_pair(e1=0.23252, e2=0.24358, Ek1=0.03, mu=2.6072)
    assert (k.Ek1 - k.Ek2) == (0.24358 - 0.23252)
    assert abs((0.24358 - 0.23252) - 0.01106) < 1e-15
    print("ACCEPTANCE 7 kinematics: PASS (kinetic-energy offset exact in doubles)")


def test_criterion_08_fhd_analog():
    cfg = read_scenario(FHD_SCENARIO)
    assert resonance_branching_ratio(cfg.resonance, *PAIR) == pytest.approx(10.0, rel=1e-12)

    t0 = time.perf_counter()
    rows = energy_scan(cfg, SCAN_ENERGIES, PAIR)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert len(rows) == 13

    peak_row = max(rows, key=lambda r: r.ratio.coherent_factor)
    nearest = min(SCAN_ENERGIES, key=lambda e: abs(e - cfg.resonance.epsilon_r))
    assert peak_row.energy == nearest == pytest.approx(0.2550, abs=1e-12)

    schwartz_at_peak = peak_row.channel("D+HF").schwartz
    assert 0.88 <= schwartz_at_peak <= 0.92

    r_nc_peak = max(r.ratio.noncoherent_factor for r in rows)
    assert peak_row.ratio.coherent_factor >= 10.0 * r_nc_peak
    print(
        "ACCEPTANCE 8 fhd-analog: PASS "
        f"(R={peak_row.ratio.coherent_factor:.1f} vs R_nc={r_nc_peak:.2f} "
        f"at E={peak_row.energy}, schwartz={schwartz_at_peak:.3f}, {elapsed:.2f} s)"
    )


def test_criterion_09_differential_dominance():
    cfg = read_scenario(FHD_SCENARIO)
    table = cfg.table_at(0.2550)
    num = cross_section_matrix(table, "D+HF")
    den = cross_section_matrix(table, "H+DF")
    rr_int = ratio_extrema(num, den)
    factor_int = rr_int.max_value / rr_int.min_value

    node = table.grid.nearest_node(math.pi)
    rr_diff = ratio_extrema(
        differential_matrix(table, "D+HF", node), differential_matrix(table, "H+DF", node)
    )
    factor_diff = (
        math.inf if rr_diff.min_value == 0.0 else rr_diff.max_value / rr_diff.min_value
    )
    assert factor_diff > factor_int
    print(
        "ACCEPTANCE 9 differential-dominance: PASS "
        f"(backward factor {factor_diff:.0f} > integral {factor_int:.0f})"
    )


def test_criterion_10_round_trip_determinism(tmp_path, capsys):
    cfg = read_scenario(FHD_SCENARIO)
    table = cfg.table_at(0.2550)

    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_table(table, p1)
    back = read_table(p1)
    assert back.energy == table.energy
    assert back.initial_pair == table.initial_pair
    assert np.array_equal(back.grid.nodes, table.grid.nodes)
    assert np.array_equal(back.grid.weights, table.grid.weights)
    for b0, b1 in zip(table.channels, back.channels):
        assert b0.states == b1.states
        assert np.array_equal(b0.amplitudes, b1.amplitudes)
    write_table(back, p2)
    assert p1.read_bytes() == p2.read_bytes()

    c1, c2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_scan_csv(energy_scan(cfg, SCAN_ENERGIES, PAIR), c1)
    write_scan_csv(energy_scan(cfg, SCAN_ENERGIES, PAIR), c2)
    assert c1.read_bytes() == c2.read_bytes()

    rc = cli_main(
        ["scan", "--config", str(FHD_SCENARIO), "--emin", "0.25", "--emax", "0.31",
         "--step", "0.005", "--pair", "D+HF,H+DF", "--out", str(tmp_path / "cli.csv")]
    )
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "cli.csv").read_bytes() == c1.read_bytes()
    print("ACCEPTANCE 10 round-trip-determinism: PASS (bit-identical files, CLI parity)")
