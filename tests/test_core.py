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
    CohresError,
    NonPositiveError,
    TableValidationError,
    gauss_legendre_grid,
    kinematic_pair,
    reduced_mass,
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


    @pytest.mark.parametrize("label", [5, None, b"x", ""], ids=["int", "none", "bytes", "empty"])
    def test_arrangement_must_be_a_non_empty_string(self, label):
        message = f"arrangement must be a non-empty string, got {label!r}"
        with pytest.raises(CohresError) as err:
            ChannelState(label, 0, 0, 0)
        assert str(err.value) == message
        with pytest.raises(CohresError) as err:
            ChannelBlock(label, (), np.zeros((0, 1, 2), complex))
        assert str(err.value) == message

    def test_arrangement_is_stored_as_a_plain_str(self):
        label = np.str_("D+HF")
        assert type(ChannelState(label, 0, 0).arrangement) is str
        block = ChannelBlock(label, (ChannelState(label, 0, 0),), np.zeros((1, 1, 2), complex))
        assert type(block.arrangement) is str and block.arrangement == "D+HF"


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

    @pytest.mark.parametrize(
        "order", [64.0, True, "64", None], ids=["float", "bool", "str", "none"]
    )
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(CohresError) as err:
            gauss_legendre_grid(order)
        assert str(err.value) == f"grid order must be an integer, got {order!r}"

    def test_numpy_integer_order_is_taken(self):
        assert len(gauss_legendre_grid(np.int64(3))) == 3

    @pytest.mark.parametrize(
        "nodes, weights, message",
        [
            ([[1.0, 2.0]], [[1.0, 2.0]], "grid: nodes and weights must be one-dimensional"),
            ([1.0, 2.0], [FOUR_PI], "grid: 2 nodes but 1 weights"),
            ([], [], "grid: empty"),
            ([1.0, math.nan], [1.0, 1.0], "grid: non-finite node or weight"),
            ([1.0, 2.0], [FOUR_PI, 0.0], "grid: every weight must be > 0"),
            ([0.0, 2.0], [FOUR_PI / 2] * 2, "grid: nodes must lie strictly inside (0, pi)"),
            ([2.0, 1.0], [FOUR_PI / 2] * 2, "grid: nodes must be strictly increasing"),
        ],
        ids=["two-dimensional", "size-mismatch", "empty", "non-finite", "zero-weight",
             "node-at-zero", "decreasing"],
    )
    def test_each_grid_rule_reports_itself(self, nodes, weights, message):
        assert AngleGrid(nodes, weights).violations() == [message]


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


def with_block(t, amps):
    """``t`` with its first block's amplitudes replaced."""
    b = t.channels[0]
    block = ChannelBlock(b.arrangement, b.states, amps)
    return AmplitudeTable(t.energy, t.initial_pair, t.grid, (block,) + t.channels[1:])


class TestValidateTable:
    """A table checks its invariants when it is built."""

    def test_well_formed_table(self, rng):
        random_table(rng)  # the constructor raises on an invalid table

    def test_half_weight_sum_names_invariant(self, rng):
        t = random_table(rng, n_states=2, order=6)
        with pytest.raises(TableValidationError) as err:
            AmplitudeTable(
                t.energy,
                t.initial_pair,
                AngleGrid(t.grid.nodes, 0.5 * t.grid.weights),
                t.channels,
            )
        report = err.value.violations
        assert len(report) == 1
        assert "weights sum" in report[0]

    def test_nan_amplitude_names_finiteness(self, rng):
        t = random_table(rng, n_states=2, order=6)
        amps = t.channels[0].amplitudes.copy()
        amps[1, 3, 0] = complex(math.nan, 0.0)
        with pytest.raises(TableValidationError) as err:
            with_block(t, amps)
        report = err.value.violations
        assert len(report) == 1
        assert "non-finite" in report[0]

    def test_mixed_helicity_pair_flagged(self, rng):
        t = random_table(rng, n_states=1, order=4)
        pair = (ChannelState("F+HD", 0, 0, 0), ChannelState("F+HD", 0, 1, 1))
        with pytest.raises(TableValidationError) as err:
            AmplitudeTable(t.energy, pair, t.grid, t.channels)
        assert any("helicities" in v for v in err.value.violations)

    def test_same_state_twice_flagged(self, rng):
        t = random_table(rng, n_states=1, order=4)
        pair = (INITIAL[0], INITIAL[0])
        with pytest.raises(TableValidationError) as err:
            AmplitudeTable(t.energy, pair, t.grid, t.channels)
        assert any("distinct" in v for v in err.value.violations)

    def test_wrong_shape_reported(self, rng):
        t = random_table(rng, n_states=2, order=6)
        with pytest.raises(TableValidationError) as err:
            with_block(t, t.channels[0].amplitudes[:, :4, :])
        assert any("shape" in v for v in err.value.violations)


class TestTableConstruction:
    """Tables the library once accepted, or failed on outside CohresError."""

    def test_three_amplitude_columns_rejected(self, rng):
        t = random_table(rng, n_states=2, order=6)
        amps = np.concatenate([t.channels[0].amplitudes] * 2, axis=2)[:, :, :3]
        with pytest.raises(TableValidationError, match=r"shape \(2, 6, 3\), expected \(2, 6, 2\)"):
            with_block(t, amps)

    def test_mixed_m_pair_rejected(self, rng):
        t = random_table(rng, n_states=1, order=4)
        pair = (ChannelState("F+HD", 0, 1, 0), ChannelState("F+HD", 0, 1, 1))
        with pytest.raises(TableValidationError, match="helicities differ") as err:
            AmplitudeTable(t.energy, pair, t.grid, t.channels)
        assert len(err.value.violations) == 1

    def test_weights_summing_to_eight_pi_rejected(self, rng):
        t = random_table(rng, n_states=2, order=6)
        grid = AngleGrid(t.grid.nodes, 2.0 * t.grid.weights)
        with pytest.raises(TableValidationError, match=r"weights sum to .*expected 4\*pi") as err:
            AmplitudeTable(t.energy, t.initial_pair, grid, t.channels)
        assert err.value.violations == [
            f"grid: weights sum to {float(grid.weights.sum())!r}, expected 4*pi = {FOUR_PI!r}"
        ]

    def test_wrong_node_count_rejected(self, rng):
        t = random_table(rng, n_states=2, order=6)
        other = random_table(rng, n_states=2, order=7)
        with pytest.raises(TableValidationError, match=r"shape \(2, 7, 2\), expected \(2, 6, 2\)"):
            AmplitudeTable(t.energy, t.initial_pair, t.grid, other.channels)

    def test_pair_from_two_arrangements_rejected(self, rng):
        t = random_table(rng, n_states=1, order=4)
        pair = (INITIAL[0], ChannelState("F+DH", 0, 1, 0))
        with pytest.raises(TableValidationError) as err:
            AmplitudeTable(t.energy, pair, t.grid, t.channels)
        assert err.value.violations == ["initial_pair: arrangements differ ('F+HD' vs 'F+DH')"]

    def test_channel_rule_listed_before_amplitudes(self, rng):
        # the label rule runs over every block, a block of the wrong shape included
        t = random_table(rng, n_states=2, order=4)
        a, b = t.channels
        relabelled = ChannelBlock("D+HF", (a.states[0], ChannelState("XX", 0, 1, 0)), a.amplitudes)
        duplicate = ChannelBlock("D+HF", b.states, b.amplitudes[:, :3])
        with pytest.raises(TableValidationError) as err:
            AmplitudeTable(t.energy, t.initial_pair, t.grid, (relabelled, duplicate))
        assert err.value.violations == [
            "channel 'D+HF': state 1 carries arrangement 'XX'",
            "channel 'D+HF': duplicate arrangement label",
            "channel 'D+HF': state 0 carries arrangement 'H+DF'",
            "channel 'D+HF': state 1 carries arrangement 'H+DF'",
            "channel 'D+HF': amplitude array has shape (2, 3, 2), expected (2, 4, 2)",
        ]

    def test_three_state_pair_rejected(self, rng):
        t = random_table(rng, n_states=1, order=4)
        pair = INITIAL + (ChannelState("F+HD", 0, 2, 0),)
        with pytest.raises(TableValidationError, match="need exactly two states, got 3"):
            AmplitudeTable(t.energy, pair, t.grid, t.channels)

    def test_every_violation_listed_in_order(self, rng):
        t = random_table(rng, n_states=2, order=6)
        amps = t.channels[0].amplitudes.copy()
        amps[0, 1, 1] = complex(0.0, math.inf)
        bad = (ChannelBlock("D+HF", t.channels[0].states, amps),) + t.channels[1:]
        pair = (INITIAL[0], ChannelState("F+HD", 0, 1, 1))
        grid = AngleGrid(t.grid.nodes, 0.5 * t.grid.weights)
        with pytest.raises(TableValidationError) as err:
            AmplitudeTable(math.nan, pair, grid, bad)
        assert [v.split(":")[0] for v in err.value.violations] == [
            "initial_pair", "energy", "grid", "channel 'D+HF'"
        ]
        assert err.value.violations[3].endswith("at state 0, node 1, column 1")

    def test_grid_violations_are_a_fresh_list(self):
        g = AngleGrid(nodes=[1.0, 2.0], weights=[1.0, 2.0])
        assert g.violations() is not g.violations()
        g.violations().append("mutated")
        assert len(g.violations()) == 1


class TestCallerArrays:
    """A grid or block stores its own copy; the caller's arrays stay theirs."""

    def test_caller_arrays_stay_writable(self):
        grid = gauss_legendre_grid(3)
        nodes, weights = grid.nodes.copy(), grid.weights.copy()
        amps = np.ones((1, 3, 2), complex)
        g = AngleGrid(nodes, weights)
        block = ChannelBlock("P", (ChannelState("P", 0, 0, 0),), amps)
        for a in (nodes, weights, amps):
            assert a.flags.writeable
            a[0] = 9.0  # raised "assignment destination is read-only" when the block froze it
        assert g.nodes[0] == grid.nodes[0] and g.weights[0] == grid.weights[0]
        assert np.all(block.amplitudes == 1.0)
        assert not (g.nodes.flags.writeable or block.amplitudes.flags.writeable)


class TestContiguousBlocks:
    """A block's Grams do not depend on the layout of the array it was given."""

    @pytest.mark.parametrize("order", [1, 2, 7, 64])
    def test_strided_blocks_match_contiguous_copy(self, rng, order):
        from cohres import cross_section_matrix, differential_matrix

        grid = gauss_legendre_grid(order)
        states = tuple(ChannelState("P", 0, j, 0) for j in range(3))
        base = rng.normal(size=(3, order, 2)) + 1j * rng.normal(size=(3, order, 2))
        layouts = {
            "reversed": base[::-1, ::-1, ::-1],
            "fortran": np.asfortranarray(base),
        }
        for name, amps in layouts.items():
            strided = ChannelBlock("P", states, amps)
            assert strided.amplitudes.flags.c_contiguous, name
            t = AmplitudeTable(0.5, INITIAL, grid, (strided,))
            ref = AmplitudeTable(
                0.5, INITIAL, grid, (ChannelBlock("P", states, amps.copy(order="C")),)
            )
            assert repr(cross_section_matrix(t, "P")) == repr(cross_section_matrix(ref, "P"))
            for k in range(order):
                assert repr(differential_matrix(t, "P", k)) == repr(
                    differential_matrix(ref, "P", k)
                ), (name, k)


def _scalar_fields() -> dict:
    """Every scalar number field of the records, as (build(value), stored(record), label, type)."""
    from dataclasses import replace

    from cohres import ControlParams, ExitState, XsecMatrix, read_scenario
    from conftest import FHD_SCENARIO

    cfg = read_scenario(FHD_SCENARIO)
    res, bg = cfg.resonance, cfg.background
    exit_state, bg_state = res.exits[0].states[0], bg.channels[0].states[0]
    m = XsecMatrix("X", "integral", 1.0, 1.0, 0.0)
    return {
        "ExitState.coupling": (lambda v: replace(exit_state, coupling=v),
                               lambda r: r.coupling, "coupling", complex),
        "ExitState.shape": (lambda v: ExitState(exit_state.state, 1.0, (1.0, v)),
                            lambda r: r.shape[1], "shape", float),
        "ResonanceSpec.epsilon_r": (lambda v: replace(res, epsilon_r=v),
                                    lambda r: r.epsilon_r, "epsilon_r", float),
        "ResonanceSpec.gamma_width": (lambda v: replace(res, gamma_width=v),
                                      lambda r: r.gamma_width, "gamma_width", float),
        "ResonanceSpec.entrance": (lambda v: replace(res, entrance=(1.0, v)),
                                   lambda r: r.entrance[1], "entrance", complex),
        "BackgroundState.amplitude": (lambda v: replace(bg_state, amplitude=v),
                                      lambda r: r.amplitude, "amplitude", complex),
        "BackgroundState.slope": (lambda v: replace(bg_state, slope=v),
                                  lambda r: r.slope, "slope", complex),
        "BackgroundState.shape": (lambda v: replace(bg_state, shape=(v,)),
                                  lambda r: r.shape[0], "shape", float),
        "BackgroundState.column_weights": (lambda v: replace(bg_state, column_weights=(v, 1.0)),
                                           lambda r: r.column_weights[0], "column_weights",
                                           complex),
        "BackgroundSpec.reference_energy": (lambda v: replace(bg, reference_energy=v),
                                            lambda r: r.reference_energy, "reference_energy",
                                            float),
        "XsecMatrix.sigma11": (lambda v: replace(m, sigma11=v),
                               lambda r: r.sigma11, "sigma11", float),
        "XsecMatrix.sigma22": (lambda v: replace(m, sigma22=v),
                               lambda r: r.sigma22, "sigma22", float),
        "XsecMatrix.sigma12": (lambda v: replace(m, sigma12=v),
                               lambda r: r.sigma12, "sigma12", complex),
        "ControlParams.s": (lambda v: ControlParams(v, 0.0), lambda r: r.s, "s", float),
        "ControlParams.phi12": (lambda v: ControlParams(0.5, v),
                                lambda r: r.phi12, "phi12", float),
        "ScenarioConfig.energy_offset": (lambda v: replace(cfg, energy_offset=v),
                                         lambda r: r.energy_offset, "energy_offset", float),
        "ScenarioConfig.masses_amu": (lambda v: replace(cfg, masses_amu={"F": v}),
                                      lambda r: r.masses_amu["F"], "masses_amu.F", float),
    }


SCALAR_FIELDS = _scalar_fields()
# (value, what a real field stores or its fault, what a complex field stores or its fault)
NUMBER_CASES = {
    "int": (1, 1.0, 1 + 0j),
    "numpy": (np.float32(0.5), 0.5, 0.5 + 0j),
    "numpy-complex": (np.complex64(0.5 + 0.25j), "real number", 0.5 + 0.25j),
    "bool": (True, "real number", "complex number"),
    "str": ("0.5", "real number", "complex number"),
    "none": (None, "real number", "complex number"),
    "nan": (math.nan, "finite", "finite"),
    "inf": (math.inf, "finite", "finite"),
    "-inf": (-math.inf, "finite", "finite"),
    "complex-nan": (complex(0.0, math.nan), "real number", "finite"),
}


def _container_fields():
    """Every field of the table, spec and scenario records that holds a record or a sequence,
    as (build(value), label, what it must be, the number rule of its items or None)."""
    from dataclasses import replace

    from cohres import read_scenario
    from conftest import FHD_SCENARIO

    cfg = read_scenario(FHD_SCENARIO)
    res, bg = cfg.resonance, cfg.background
    exit_state, bg_state = res.exits[0].states[0], bg.channels[0].states[0]
    table = cfg.table_at(0.255)
    basis = cfg._basis

    def field(record, name, what, items=None):
        return (lambda v: replace(record, **{name: v}), name, what, items)

    numbers = "a sequence of numbers"
    return {
        "ChannelBlock.states": field(table.channels[0], "states", "a sequence of ChannelState"),
        "AmplitudeTable.initial_pair": field(table, "initial_pair", "a sequence of ChannelState"),
        "AmplitudeTable.grid": field(table, "grid", "an AngleGrid"),
        "AmplitudeTable.channels": field(table, "channels", "a sequence of ChannelBlock"),
        "ExitState.state": field(exit_state, "state", "a ChannelState"),
        "ExitState.shape": field(exit_state, "shape", numbers, "real"),
        "ExitChannel.states": field(res.exits[0], "states", "a sequence of ExitState"),
        "ResonanceSpec.entrance": field(res, "entrance", numbers, "complex"),
        "ResonanceSpec.exits": field(res, "exits", "a sequence of ExitChannel"),
        "BackgroundState.state": field(bg_state, "state", "a ChannelState"),
        "BackgroundState.shape": field(bg_state, "shape", numbers, "real"),
        "BackgroundState.column_weights": field(bg_state, "column_weights", numbers, "complex"),
        "BackgroundChannel.states": field(bg.channels[0], "states",
                                          "a sequence of BackgroundState"),
        "BackgroundSpec.channels": field(bg, "channels", "a sequence of BackgroundChannel"),
        "ScenarioConfig.initial_pair": field(cfg, "initial_pair", "a sequence of ChannelState"),
        "ScenarioConfig.resonance": field(cfg, "resonance", "a ResonanceSpec"),
        "ScenarioConfig.background": field(cfg, "background", "a BackgroundSpec"),
        "SynthesisBasis.resonance": field(basis, "resonance", "a ResonanceSpec"),
        "SynthesisBasis.background": field(basis, "background", "a BackgroundSpec"),
        "SynthesisBasis.grid": field(basis, "grid", "an AngleGrid"),
    }


CONTAINER_FIELDS = _container_fields()


@pytest.mark.parametrize("value", [None, 5, "ab", ("x",)], ids=["none", "int", "str", "str-item"])
@pytest.mark.parametrize("field", CONTAINER_FIELDS)
def test_every_container_field_takes_one_container_rule(no_grid, field, value):
    """A record field holds its record kind, a sequence field a sequence of its kind or of
    numbers, never a str; anything else is one CohresError that names the field."""
    build, label, what, items = CONTAINER_FIELDS[field]
    with pytest.raises(CohresError) as err:
        build(value)
    if items is not None and value == ("x",):  # the items' own number rule refuses them
        assert str(err.value) == f"{label} must be a {items} number, got 'x'"
    else:
        assert str(err.value) == f"{label} must be {what}, got {value!r}"


@pytest.mark.parametrize("case", NUMBER_CASES)
@pytest.mark.parametrize("field", SCALAR_FIELDS)
def test_every_scalar_field_takes_one_number_rule(no_grid, field, case):
    """A number is stored as a plain float or complex; anything else is one CohresError."""
    build, stored, label, kind = SCALAR_FIELDS[field]
    value, *outcomes = NUMBER_CASES[case]
    want = outcomes[kind is complex]
    if not isinstance(want, str):
        got = stored(build(value))
        assert type(got) is kind and got == want
        return
    with pytest.raises(CohresError) as err:
        build(value)
    if want == "finite":
        if label == "s":  # s's range check is what refuses a non-finite s
            want = f"s must lie in [0, 1], got {value!r}"
        else:
            want = f"{label} must be finite, got {kind(value)!r}"
    else:
        want = f"{label} must be a {want}, got {value!r}"
    assert str(err.value) == want


def _arguments():
    """Every hand-checked argument of a library function, as (call(value), label, rule)."""
    from cohres import (
        XsecMatrix,
        differential_matrix,
        lattice_extrema,
        legendre_shape_norm,
        lifetime_from_width,
        read_scenario,
        width_from_lifetime,
    )
    from conftest import FHD_SCENARIO

    table = read_scenario(FHD_SCENARIO).table_at(0.255)
    m = XsecMatrix("X", "integral", 1.0, 1.0, 0.0)
    return {
        "width_from_lifetime": (width_from_lifetime, "lifetime", "positive"),
        "lifetime_from_width": (lifetime_from_width, "width", "positive"),
        "kinematic_pair.e1": (lambda v: kinematic_pair(v, 0.0, 0.1, 1.0), "e1", "real"),
        "kinematic_pair.e2": (lambda v: kinematic_pair(0.0, v, 0.1, 1.0), "e2", "real"),
        "kinematic_pair.Ek1": (lambda v: kinematic_pair(0.0, 0.0, v, 1.0), "Ek1", "positive"),
        "kinematic_pair.mu": (lambda v: kinematic_pair(0.0, 0.0, 0.1, v), "mu", "positive"),
        "AngleGrid.nearest_node": (table.grid.nearest_node, "theta", "real"),
        "legendre_shape_norm": (lambda v: legendre_shape_norm([1.0, v]), "shape", "real"),
        "differential_matrix": (lambda v: differential_matrix(table, "D+HF", v), "node", "integer"),
        "lattice_extrema.n_s": (lambda v: lattice_extrema(m, None, v, 3), "n_s", "integer"),
        "lattice_extrema.n_phi": (lambda v: lattice_extrema(m, None, 3, v), "n_phi", "integer"),
    }


ARGUMENTS = _arguments()
BAD_NUMBERS = {"none": None, "bool": True, "str": "1", "nan": math.nan, "inf": math.inf}
BAD_INTEGERS = {**BAD_NUMBERS, "fraction": 1.5}


@pytest.mark.parametrize(
    "argument, value",
    [
        pytest.param(argument, value, id=f"{argument}-{name}")
        for argument, (_, _, rule) in ARGUMENTS.items()
        for name, value in (BAD_INTEGERS if rule == "integer" else BAD_NUMBERS).items()
    ],
)
def test_every_argument_takes_its_core_rule(argument, value):
    """A number argument goes through the number rule (a positive one raises
    NonPositiveError), an integer argument through the integer rule, and either fault
    is one CohresError that names the argument."""
    call, label, rule = ARGUMENTS[argument]
    with pytest.raises(NonPositiveError if rule == "positive" else CohresError) as err:
        call(value)
    if rule == "integer":
        want = f"{label} must be an integer, got {value!r}"
    elif isinstance(value, float):
        want = f"{label} must be finite, got {value!r}"
    else:
        want = f"{label} must be a real number, got {value!r}"
    assert str(err.value) == want


def test_integer_arguments_take_numpy_integers():
    """``lattice_extrema`` and ``differential_matrix`` take a NumPy integer, as
    ``gauss_legendre_grid`` does, and give what the plain int gives."""
    from cohres import XsecMatrix, differential_matrix, lattice_extrema

    m = XsecMatrix("X", "integral", 1.0, 2.0, 0.5 + 0.5j)
    assert lattice_extrema(m, None, np.int64(5), np.int32(4)) == lattice_extrema(m, None, 5, 4)
    assert len(gauss_legendre_grid(np.int64(4))) == 4
    t = random_table(np.random.default_rng(0), n_states=1, order=4)
    label = t.arrangements()[0]
    assert differential_matrix(t, label, np.int64(3)) == differential_matrix(t, label, 3)
