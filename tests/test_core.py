import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cohres import (
    AmplitudeTable,
    AngleGrid,
    ChannelBlock,
    ChannelClosedError,
    ChannelState,
    NonPositiveError,
    gauss_legendre_grid,
    kinematic_pair,
    reduced_mass,
    validate_table,
)
from conftest import INITIAL, random_table

FOUR_PI = 4.0 * math.pi

# standard atomic masses, amu
M_F = 18.998403163
M_H = 1.00782503207
M_D = 2.01410177812
M_HD = M_H + M_D


class TestChannelState:
    def test_fieldwise_equality(self):
        assert ChannelState("D+HF", 1, 2, -1) == ChannelState("D+HF", 1, 2, -1)
        assert ChannelState("D+HF", 1, 2, -1) != ChannelState("H+DF", 1, 2, -1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(arrangement="", v=0, j=0, m=0),
            dict(arrangement="X", v=-1, j=0, m=0),
            dict(arrangement="X", v=0, j=-1, m=0),
            dict(arrangement="X", v=0, j=1, m=2),
        ],
    )
    def test_invalid_states_raise(self, kwargs):
        with pytest.raises(ValueError):
            ChannelState(**kwargs)


class TestAngleGrid:
    @pytest.mark.parametrize("order", [1, 2, 8, 64])
    def test_gauss_legendre_sums_to_four_pi(self, order):
        g = gauss_legendre_grid(order)
        assert len(g) == order
        assert abs(g.weights.sum() - FOUR_PI) <= 1e-12 * FOUR_PI
        assert np.all(g.nodes > 0.0) and np.all(g.nodes < math.pi)
        assert np.all(np.diff(g.nodes) > 0.0)
        assert g.violations() == []

    def test_single_node_grid_is_exempt_from_sum_rule(self):
        g = AngleGrid(nodes=[math.pi / 2], weights=[1.0])
        assert g.violations() == []

    def test_bad_weight_sum_reported(self):
        g = AngleGrid(nodes=[1.0, 2.0], weights=[1.0, 2.0])
        assert any("weights sum" in v for v in g.violations())

    def test_nearest_node(self):
        g = gauss_legendre_grid(64)
        assert g.nearest_node(math.pi) == 63
        assert g.nearest_node(0.0) == 0

    def test_order_zero_rejected(self):
        with pytest.raises(NonPositiveError):
            gauss_legendre_grid(0)

    def test_order_above_cap_rejected(self):
        from cohres.core import MAX_GRID_ORDER

        with pytest.raises(ValueError, match="grid order"):
            gauss_legendre_grid(MAX_GRID_ORDER + 1)


class TestKinematicPair:
    def test_fhd_pair_offsets(self):
        # internal energies of the two lowest rotor states; the kinetic
        # energies must differ by exactly the internal-energy gap
        k = kinematic_pair(e1=0.23252, e2=0.24358, Ek1=0.03, mu=2.6072)
        assert (k.Ek1 - k.Ek2) == (0.24358 - 0.23252)
        assert k.Ek2 == pytest.approx(0.01894, abs=1e-12)
        assert k.E == pytest.approx(0.26252, abs=1e-15)
        assert k.k1 > k.k2 > 0.0

    def test_reduced_mass_for_fhd_collision(self):
        # the 4-digit value used throughout the kinematics examples
        assert reduced_mass(M_F, M_HD) == pytest.approx(2.6072, abs=5e-5)

    def test_degenerate_internal_energies(self):
        k = kinematic_pair(e1=0.1, e2=0.1, Ek1=0.07, mu=1.5)
        assert k.Ek2 == k.Ek1
        assert k.k2 == k.k1

    def test_closed_channel(self):
        with pytest.raises(ChannelClosedError):
            kinematic_pair(e1=0.23252, e2=0.24358, Ek1=0.01, mu=2.6072)

    @pytest.mark.parametrize("ek1,mu", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -2.0)])
    def test_nonpositive_inputs(self, ek1, mu):
        with pytest.raises(NonPositiveError):
            kinematic_pair(e1=0.0, e2=0.0, Ek1=ek1, mu=mu)

    @given(
        e1=st.floats(0.0, 1.0),
        de=st.floats(-0.5, 0.5),
        ek1=st.floats(1e-6, 2.0),
        mu=st.floats(0.1, 30.0),
    )
    # Ek2 = Ek1 - eps/2 here, and both wavenumbers round to 21.873515205956867
    @example(e1=0.0, de=6.64936511035878e-17, ek1=1.0, mu=1.0)
    def test_total_energy_round_trip(self, e1, de, ek1, mu):
        e2 = e1 + de
        if ek1 + e1 - e2 <= 0.0:
            return
        k = kinematic_pair(e1, e2, ek1, mu)
        assert abs((k.Ek2 + k.e2) - (k.Ek1 + k.e1)) <= 1e-12
        # k = sqrt(((2*mu)*AMU)*Ek)/hbar is monotone in Ek at every rounding
        # step, so k1 >= k2 always.  The shared (2*mu)*AMU cancels; the product
        # with Ek, the sqrt and the division each round by at most eps/2, so
        # each k is off by at most 1.25*eps relative and k1/k2 by 2.5*eps, while
        # the exact k1/k2 exceeds 1 by at least g/2, g = (Ek1 - Ek2)/Ek1.
        # Strict order therefore needs g > 5*eps; 8*eps leaves a margin.
        if e2 > e1:
            assert k.k1 >= k.k2
            if k.Ek1 - k.Ek2 > 8.0 * sys.float_info.epsilon * k.Ek1:
                assert k.k1 > k.k2
        elif e2 < e1:
            assert k.k1 <= k.k2


class TestValidateTable:
    def test_well_formed_table(self, rng):
        assert validate_table(random_table(rng)) == []

    def test_half_weight_sum_names_invariant(self, rng):
        t = random_table(rng, n_states=2, order=6)
        bad = AmplitudeTable(
            t.energy,
            t.initial_pair,
            AngleGrid(t.grid.nodes, 0.5 * t.grid.weights),
            t.channels,
        )
        report = validate_table(bad)
        assert len(report) == 1
        assert "weights sum" in report[0]

    def test_nan_amplitude_names_finiteness(self, rng):
        t = random_table(rng, n_states=2, order=6)
        amps = t.channels[0].amplitudes.copy()
        amps[1, 3, 0] = complex(math.nan, 0.0)
        bad = AmplitudeTable(
            t.energy,
            t.initial_pair,
            t.grid,
            (ChannelBlock(t.channels[0].arrangement, t.channels[0].states, amps),)
            + t.channels[1:],
        )
        report = validate_table(bad)
        assert len(report) == 1
        assert "non-finite" in report[0]

    def test_mixed_helicity_pair_flagged(self, rng):
        t = random_table(rng, n_states=1, order=4)
        pair = (ChannelState("F+HD", 0, 0, 0), ChannelState("F+HD", 0, 1, 1))
        bad = AmplitudeTable(t.energy, pair, t.grid, t.channels)
        assert any("helicities" in v for v in validate_table(bad))

    def test_same_state_twice_flagged(self, rng):
        t = random_table(rng, n_states=1, order=4)
        pair = (INITIAL[0], INITIAL[0])
        bad = AmplitudeTable(t.energy, pair, t.grid, t.channels)
        assert any("distinct" in v for v in validate_table(bad))

    def test_wrong_shape_reported(self, rng):
        t = random_table(rng, n_states=2, order=6)
        amps = t.channels[0].amplitudes[:, :4, :]
        bad = AmplitudeTable(
            t.energy,
            t.initial_pair,
            t.grid,
            (ChannelBlock(t.channels[0].arrangement, t.channels[0].states, amps),)
            + t.channels[1:],
        )
        assert any("shape" in v for v in validate_table(bad))
