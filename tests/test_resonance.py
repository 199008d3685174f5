import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial.legendre import leggauss, legval

from cohres import (
    BackgroundChannel,
    BackgroundSpec,
    BackgroundState,
    ChannelState,
    CohresError,
    ControlParams,
    ExitChannel,
    ExitState,
    NonPositiveError,
    ResonanceSpec,
    SpecMismatchError,
    SynthesisBasis,
    TableValidationError,
    UnknownChannelError,
    breit_wigner_factor,
    controlled_ratio,
    cross_section_matrix,
    differential_matrix,
    gauss_legendre_grid,
    legendre_shape_norm,
    lifetime_from_width,
    ratio_extrema,
    resonance_branching_ratio,
    schwartz_ratio,
    synthesize_table,
    read_scenario,
    width_from_lifetime,
)
from conftest import FHD_SCENARIO, INITIAL, direct_table, random_pure_resonance, random_scenario


def simple_specs(mix_shapes=False):
    a = ChannelState("D+HF", 0, 0, 0)
    b = ChannelState("H+DF", 0, 0, 0)
    res = ResonanceSpec(
        epsilon_r=0.3,
        gamma_width=0.01,
        entrance=(1.0, 0.6 + 0.4j),
        exits=(
            ExitChannel("D+HF", (ExitState(a, 1.5 - 0.5j, (1.0, 0.2)),)),
            ExitChannel("H+DF", (ExitState(b, 0.7j, (1.0, -0.3) if mix_shapes else (1.0, 0.2)),)),
        ),
    )
    bg = BackgroundSpec(
        reference_energy=0.3,
        channels=(
            BackgroundChannel("D+HF", (BackgroundState(a, 0.8 + 0.1j, 0.4 - 0.2j, (1.0, 0.5)),)),
            BackgroundChannel("H+DF", (BackgroundState(b, 0.3 - 0.6j, 0.1j, (1.0, -0.4)),)),
        ),
    )
    return res, bg


class TestSpecCoverage:
    """A spec's ``(arrangement, states)`` coverage is built once and kept outside its fields."""

    STATE = "ChannelState(arrangement='{0}', v=0, j=0, m=0)"
    MISMATCH = (
        f"resonance covers [('D+HF', ({STATE.format('D+HF')},)), "
        f"('H+DF', ({STATE.format('H+DF')},))], "
        f"background covers [('D+HF', ({STATE.format('D+HF')},))] "
        "(same channels, same states, same order required)"
    )

    def test_mismatch_message_is_unchanged(self):
        res, bg = simple_specs()
        bad_bg = replace(bg, channels=bg.channels[:1])
        with pytest.raises(SpecMismatchError) as err:
            SynthesisBasis(res, bad_bg, gauss_legendre_grid(4), 0.5)
        assert str(err.value) == self.MISMATCH

    def test_cache_is_no_field(self):
        res, bg = simple_specs()
        before = repr(res), repr(bg), hash(res), hash(bg)
        basis = SynthesisBasis(res, bg, gauss_legendre_grid(4), 0.5)
        table = synthesize_table(basis, 0.3, INITIAL)
        assert "_coverage" in vars(res) and "_coverage" in vars(bg)  # built, and kept
        assert [b.states for b in table.channels] == [states for _, states in res._coverage]
        assert (repr(res), repr(bg), hash(res), hash(bg)) == before
        assert (res, bg) == simple_specs()
        swapped = replace(res, exits=res.exits[::-1])
        assert swapped._coverage == res._coverage[::-1]
        with pytest.raises(SpecMismatchError):
            SynthesisBasis(swapped, bg, gauss_legendre_grid(4), 0.5)


class TestBreitWigner:
    def test_on_resonance_value(self):
        res, _ = simple_specs()
        assert breit_wigner_factor(0.3, res) == pytest.approx(-2j / 0.01, rel=1e-15)

    def test_half_width_half_maximum(self):
        res, _ = simple_specs()
        peak = abs(breit_wigner_factor(res.epsilon_r, res)) ** 2
        for sign in (-1.0, 1.0):
            val = abs(breit_wigner_factor(res.epsilon_r + sign * 0.005, res)) ** 2
            assert val == pytest.approx(0.5 * peak, rel=1e-12)

    def test_width_from_109_fs_lifetime(self):
        gamma = width_from_lifetime(109.0)
        assert gamma == 0.6582119569 / 109.0
        assert abs(gamma - 6.0386e-3) <= 1e-7

    def test_fwhm_by_bisection(self):
        res, _ = simple_specs()
        gamma = res.gamma_width

        def half_point(lo, hi):
            peak = abs(breit_wigner_factor(res.epsilon_r, res)) ** 2
            target = 0.5 * peak
            f = lambda e: abs(breit_wigner_factor(e, res)) ** 2 - target
            assert f(lo) * f(hi) < 0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        e_lo = half_point(res.epsilon_r - 5 * gamma, res.epsilon_r)
        e_hi = half_point(res.epsilon_r, res.epsilon_r + 5 * gamma)
        assert abs((e_hi - e_lo) - gamma) <= 1e-9 * gamma

    def test_complex_energy_in_lower_half_plane(self):
        res, _ = simple_specs()
        assert res.complex_energy == 0.3 - 0.005j


class TestWidthLifetime:
    def test_unit_identity(self):
        assert lifetime_from_width(0.6582119569) == 1.0

    @given(st.floats(1e-6, 1e6))
    def test_round_trip(self, x):
        assert width_from_lifetime(lifetime_from_width(x)) == pytest.approx(x, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive(self, bad):
        with pytest.raises(NonPositiveError):
            width_from_lifetime(bad)
        with pytest.raises(NonPositiveError):
            lifetime_from_width(bad)


class TestShapeNorm:
    @pytest.mark.parametrize(
        "shape", [(1.0,), (1.0, 0.3), (0.2, -0.5, 0.8), (1.0, 0.0, 0.0, 2.0)]
    )
    def test_matches_quadrature(self, shape):
        # independent oracle: high-order quadrature of |shape(x)|^2
        x, w = leggauss(32)
        quad = 2.0 * math.pi * float(np.sum(w * legval(x, list(shape)) ** 2))
        assert legendre_shape_norm(shape) == pytest.approx(quad, rel=1e-13)

    def test_empty_shape_is_refused_as_a_spec_refuses_it(self):
        with pytest.raises(CohresError, match="^angular shape needs at least one Legendre"):
            legendre_shape_norm([])
        with pytest.raises(CohresError, match="^shape must be a sequence of numbers, got 5$"):
            legendre_shape_norm(5)


class TestSynthesizeTable:
    def test_pure_pole_factorizes_everywhere(self, rng):
        res, bg = random_pure_resonance(rng)
        grid = gauss_legendre_grid(24)
        t = synthesize_table(SynthesisBasis(res, bg, grid, 1.0), res.epsilon_r + 0.004, INITIAL)
        for label in ("D+HF", "H+DF"):
            assert schwartz_ratio(cross_section_matrix(t, label)) >= 1.0 - 1e-12
            for k in range(len(grid)):
                assert schwartz_ratio(differential_matrix(t, label, k)) >= 1.0 - 1e-12

    def test_pure_background_has_no_pole(self):
        res, bg = simple_specs()
        grid = gauss_legendre_grid(16)
        energies = np.linspace(0.25, 0.35, 11)
        norms = []
        for e in energies:
            t = synthesize_table(SynthesisBasis(res, bg, grid, 0.0), e, INITIAL)
            m = cross_section_matrix(t, "D+HF")
            norms.append(m.sigma11)
        # linear-in-energy amplitudes: |f|^2 is quadratic in E, so the
        # third finite difference vanishes; a pole nearby would not
        third = np.diff(norms, n=3)
        assert np.all(np.abs(third) <= 1e-9 * max(norms))

    def test_pure_background_matches_direct_formula(self):
        res, bg = simple_specs()
        grid = gauss_legendre_grid(8)
        e = 0.32
        t = synthesize_table(SynthesisBasis(res, bg, grid, 0.0), e, INITIAL)
        st0 = bg.channels[0].states[0]
        expected = (
            (st0.amplitude + st0.slope * (e - bg.reference_energy))
            * legval(np.cos(grid.nodes), list(st0.shape))
        )
        got = t.channel("D+HF").amplitudes[0, :, 0]
        assert np.allclose(got, expected, rtol=1e-15, atol=0.0)

    def test_mixed_peak_sits_at_pole(self):
        res, bg = simple_specs()
        grid = gauss_legendre_grid(16)
        gamma = res.gamma_width

        def sigma_sum(e):
            t = synthesize_table(SynthesisBasis(res, bg, grid, 0.5), e, INITIAL)
            return sum(
                cross_section_matrix(t, ch).sigma11 for ch in ("D+HF", "H+DF")
            )

        coarse = np.linspace(res.epsilon_r - 5 * gamma, res.epsilon_r + 5 * gamma, 21)
        values = [sigma_sum(e) for e in coarse]
        best = coarse[int(np.argmax(values))]
        assert best == pytest.approx(res.epsilon_r, abs=1e-12)
        # dense oracle at 10x resolution agrees to within one coarse step
        dense = np.linspace(coarse[0], coarse[-1], 201)
        dense_best = dense[int(np.argmax([sigma_sum(e) for e in dense]))]
        assert abs(dense_best - res.epsilon_r) <= coarse[1] - coarse[0]

    def test_mismatched_specs_rejected(self):
        res, _ = simple_specs()
        bad_bg = BackgroundSpec(
            reference_energy=0.3,
            channels=(
                BackgroundChannel(
                    "D+HF",
                    (BackgroundState(ChannelState("D+HF", 0, 0, 0), 1.0, 0.0, (1.0,)),),
                ),
            ),
        )
        with pytest.raises(SpecMismatchError):
            SynthesisBasis(res, bad_bg, gauss_legendre_grid(4), mix=0.5)

    def test_mix_out_of_range(self):
        res, bg = simple_specs()
        with pytest.raises(ValueError):
            SynthesisBasis(res, bg, gauss_legendre_grid(4), mix=1.5)

    @pytest.mark.parametrize("mix", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n_states", [1, 3, 6])
    def test_basis_reproduces_synthesized_amplitudes(self, mix, n_states):
        rng = np.random.default_rng((20261018, n_states))
        cfg = random_scenario(rng, mix, n_states)
        res, bg, grid = cfg.resonance, cfg.background, cfg.grid()
        basis = SynthesisBasis(res, bg, grid, mix)
        for e in [res.epsilon_r + d for d in (-0.05, -0.001, 0.0, 0.002, 0.04)]:
            want = direct_table(cfg, e)
            got = synthesize_table(basis, e, INITIAL)
            assert (got.energy, got.initial_pair, got.grid) == (e, INITIAL, grid)
            assert got.arrangements() == want.arrangements()
            for g, w in zip(got.channels, want.channels, strict=True):
                assert g.states == w.states
                assert g.amplitudes.shape == w.amplitudes.shape
                scale = np.max(np.abs(w.amplitudes))
                assert np.max(np.abs(g.amplitudes - w.amplitudes)) <= 1e-14 * scale

    @pytest.mark.parametrize("mix", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n_states", [1, 2, 3, 4, 5, 6])
    def test_one_formula_with_or_without_a_basis(self, mix, n_states):
        """A scenario's table and one from a caller's own basis are the same bits, and each
        block is bw*P + D + t*S over its channel's slice of the stacked terms, bit for bit."""
        rng = np.random.default_rng((20261019, n_states))
        cfg = random_scenario(rng, mix, n_states)
        res, bg = cfg.resonance, cfg.background
        basis = SynthesisBasis(res, bg, cfg.grid(), mix)
        gamma = res.gamma_width
        offsets = [-0.05, -3 * gamma, -gamma / 2, 0.0, 1e-9, gamma / 3, 2 * gamma, 0.04]
        for e in [res.epsilon_r + d for d in offsets]:
            bw, t = breit_wigner_factor(e, res), e - bg.reference_energy
            own, kept = synthesize_table(basis, e, INITIAL), cfg.table_at(e)
            end = 0
            for o, k in zip(own.channels, kept.channels, strict=True):
                start, end = end, end + len(o.states)
                pole, direct, slope = basis.terms[:, start:end]
                assert o.amplitudes.tobytes() == k.amplitudes.tobytes()
                assert o.amplitudes.tobytes() == (bw * pole + direct + t * slope).tobytes()
            assert end == basis.terms.shape[1]

    @pytest.mark.parametrize("mix", [True, "0.5", None], ids=["bool", "str", "none"])
    def test_mix_takes_only_a_real_number(self, mix):
        res, bg = simple_specs()
        with pytest.raises(CohresError) as err:
            SynthesisBasis(res, bg, gauss_legendre_grid(4), mix)
        assert str(err.value) == f"mix must be a real number, got {mix!r}"

    def test_mix_as_a_numpy_float_is_the_same_table(self):
        res, bg = simple_specs()
        grid = gauss_legendre_grid(4)
        want = synthesize_table(SynthesisBasis(res, bg, grid, 0.5), 0.31, INITIAL)
        got = synthesize_table(SynthesisBasis(res, bg, grid, np.float32(0.5)), 0.31, INITIAL)
        for g, w in zip(got.channels, want.channels, strict=True):
            assert g.amplitudes.tobytes() == w.amplitudes.tobytes()
        want_basis = SynthesisBasis(res, bg, grid, 0.5)
        got_basis = SynthesisBasis(res, bg, grid, np.float64(0.5))
        assert type(got_basis.mix) is float
        assert got_basis.terms.tobytes() == want_basis.terms.tobytes()

    def test_numpy_float32_energy_is_the_same_table(self):
        # the amplitudes belong to the stored energy, float(energy), not to
        # a single-precision E - eps_r
        cfg = read_scenario(FHD_SCENARIO)
        e = np.float32(0.256)
        got, want = cfg.table_at(e), cfg.table_at(float(e))
        assert type(got.energy) is float and got.energy == want.energy
        for g, w in zip(got.channels, want.channels, strict=True):
            assert g.amplitudes.tobytes() == w.amplitudes.tobytes()

    @pytest.mark.parametrize(
        "energy", [True, 0.3 + 0j, "0.25", None], ids=["bool", "complex", "str", "none"]
    )
    def test_non_real_energy_is_the_tables_violation(self, energy):
        res, bg = simple_specs()
        message = re.escape(f"energy: must be a real number, got {energy!r}")
        with pytest.raises(TableValidationError, match=message):
            synthesize_table(SynthesisBasis(res, bg, gauss_legendre_grid(4), 0.5), energy, INITIAL)
        with pytest.raises(TableValidationError) as err:  # the scenario's basis path
            read_scenario(FHD_SCENARIO).table_at(energy)
        assert err.value.violations == [f"energy: must be a real number, got {energy!r}"]


class TestSpecRules:
    """Each spec record refuses, when it is built, what no table can be synthesized from."""

    def test_exit_state_needs_a_shape(self):
        with pytest.raises(CohresError) as err:
            ExitState(ChannelState("D+HF", 0, 0, 0), 1.0, ())
        assert str(err.value) == "angular shape needs at least one Legendre coefficient"

    @pytest.mark.parametrize("entrance", [(1.0,), (1.0, 0.5, 0.25)], ids=["one", "three"])
    def test_entrance_couples_two_states(self, entrance):
        res, _ = simple_specs()
        with pytest.raises(CohresError) as err:
            replace(res, entrance=entrance)
        assert str(err.value) == "entrance must couple exactly two initial states"

    def test_some_exit_coupling_is_nonzero(self):
        res, _ = simple_specs()
        silent = tuple(
            replace(ch, states=tuple(replace(s, coupling=0.0) for s in ch.states))
            for ch in res.exits
        )
        with pytest.raises(CohresError) as err:
            replace(res, exits=silent)
        assert str(err.value) == "at least one exit coupling must be nonzero"

    def test_unknown_exit_channel(self):
        res, _ = simple_specs()
        with pytest.raises(UnknownChannelError) as err:
            res.exit_channel("XX")
        assert str(err.value) == "no exit channel 'XX'"

    @pytest.mark.parametrize("weights", [(1.0,), (1.0, 1.0, 1.0)], ids=["one", "three"])
    def test_background_couples_two_columns(self, weights):
        _, bg = simple_specs()
        with pytest.raises(CohresError) as err:
            replace(bg.channels[0].states[0], column_weights=weights)
        assert str(err.value) == "column_weights must have exactly two entries"

    @pytest.mark.parametrize(
        "value", [True, "0.3", None, 0.3j], ids=["bool", "str", "none", "complex"]
    )
    @pytest.mark.parametrize("name", ["epsilon_r", "gamma_width", "reference_energy"])
    def test_real_field_takes_only_a_real_number(self, name, value):
        res, bg = simple_specs()
        record = bg if name == "reference_energy" else res
        with pytest.raises(CohresError) as err:
            replace(record, **{name: value})
        assert str(err.value) == f"{name} must be a real number, got {value!r}"
        for number in (1, np.float32(0.25), np.int64(1)):
            assert type(getattr(replace(record, **{name: number}), name)) is float


class TestBranching:
    @staticmethod
    def three_channel_spec(coupling_a: complex) -> ResonanceSpec:
        """A spec whose channel B has zero coupling; channel C carries the nonzero one."""
        exits = tuple(
            ExitChannel(label, (ExitState(ChannelState(label, 0, 0, 0), g, (1.0,)),))
            for label, g in (("A", coupling_a), ("B", 0.0), ("C", 1.0))
        )
        return ResonanceSpec(0.3, 0.01, (1.0, 1.0), exits)

    def test_zero_denominator_flux_follows_the_quotient_rule(self):
        assert resonance_branching_ratio(self.three_channel_spec(0.5), "A", "B") == math.inf
        assert math.isnan(resonance_branching_ratio(self.three_channel_spec(0.0), "A", "B"))
        assert resonance_branching_ratio(self.three_channel_spec(0.0), "B", "C") == 0.0

    def test_pure_pole_ratio_equals_branching(self, rng):
        res, bg = random_pure_resonance(rng)
        grid = gauss_legendre_grid(24)
        expected = resonance_branching_ratio(res, "D+HF", "H+DF")
        for e in (res.epsilon_r - 0.01, res.epsilon_r, res.epsilon_r + 0.02):
            t = synthesize_table(SynthesisBasis(res, bg, grid, 1.0), e, INITIAL)
            num = cross_section_matrix(t, "D+HF")
            den = cross_section_matrix(t, "H+DF")
            rr = ratio_extrema(num, den)
            assert rr.degenerate
            assert rr.min_value == pytest.approx(expected, rel=1e-12)
            # spot-check the flatness over the control knobs directly
            for s, phi in ((0.0, 0.0), (0.3, 1.0), (0.7, 4.0), (1.0, 0.0)):
                r = controlled_ratio(num, den, ControlParams(s, phi))
                assert r == pytest.approx(expected, rel=1e-10)

    def test_pure_pole_ratio_flat_on_lattice(self, rng):
        from cohres import lattice_extrema

        res, bg = random_pure_resonance(rng)
        grid = gauss_legendre_grid(16)
        t = synthesize_table(SynthesisBasis(res, bg, grid, 1.0), res.epsilon_r + 0.003, INITIAL)
        num = cross_section_matrix(t, "D+HF")
        den = cross_section_matrix(t, "H+DF")
        lat = lattice_extrema(num, den, 101, 101)
        kappa = resonance_branching_ratio(res, "D+HF", "H+DF")
        # Rounding of the stored entries bounds each ratio point to about
        # 8 * eps * tr(den) / den(c) * kappa; the spread spans two points.
        d_min = lattice_extrema(den, None, 101, 101).min_value
        assert d_min > 0.0
        bound = 16 * sys.float_info.epsilon * (den.trace / d_min) * kappa
        assert lat.max_value - lat.min_value <= bound
