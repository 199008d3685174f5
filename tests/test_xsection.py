import cmath
import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohres import (
    AmplitudeTable,
    AngleGrid,
    ChannelBlock,
    ChannelState,
    CohresError,
    ControlParams,
    DegenerateChannelError,
    UnknownChannelError,
    XsecMatrix,
    controlled_cross_section,
    cross_section_extrema,
    cross_section_matrix,
    differential_matrix,
    gauss_legendre_grid,
    schwartz_ratio,
)
from cohres.constants import TWO_PI
from cohres.scan import energy_scan
from cohres.scenario import read_scenario
from cohres.xsection import _gram
from conftest import FHD_SCENARIO, INITIAL, random_table


def table_from_arrays(amps, nodes, weights, label="P"):
    states = tuple(ChannelState(label, 0, j, 0) for j in range(amps.shape[0]))
    grid = AngleGrid(nodes, weights)
    return AmplitudeTable(0.5, INITIAL, grid, (ChannelBlock(label, states, amps),))


def factorized_table(rng, n_states=4, order=12):
    """Columns proportional: f[n, k, i] = a(n, k) * g[i]."""
    a = rng.normal(size=(n_states, order)) + 1j * rng.normal(size=(n_states, order))
    g = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps = a[:, :, None] * g[None, None, :]
    from cohres import gauss_legendre_grid

    grid = gauss_legendre_grid(order)
    states = tuple(ChannelState("P", 0, j, 0) for j in range(n_states))
    return AmplitudeTable(0.5, INITIAL, grid, (ChannelBlock("P", states, amps),))


class TestCrossSectionMatrix:
    def test_single_term_gram(self):
        amps = np.zeros((1, 1, 2), complex)
        amps[0, 0] = [1.0, 1.0j]
        t = table_from_arrays(amps, [1.0], [1.0])
        m = cross_section_matrix(t, "P")
        assert (m.sigma11, m.sigma22, m.sigma12) == (1.0, 1.0, 1.0j)

    def test_hand_summed_two_node_example(self):
        # sigma(ij) = sum_k w_k conj(f_i) f_j summed by hand:
        # s11 = 2*1 + 3*1 = 5, s22 = 2*1 + 3*1 = 5, s12 = 2*1 + 3*(-1) = -1
        # the weights [2, 3] break the 4*pi rule, so no table can carry them;
        # the kernel under cross_section_matrix sums the same arrays
        amps = np.zeros((1, 2, 2), complex)
        amps[0, :, 0] = [1.0, 1.0]
        amps[0, :, 1] = [1.0, -1.0]
        assert _gram(amps, np.array([2.0, 3.0])) == (5.0, 5.0, -1.0 + 0.0j)

    def test_factorized_table_saturates_schwartz(self, rng):
        m = cross_section_matrix(factorized_table(rng), "P")
        assert abs(m.sigma12) == pytest.approx(
            math.sqrt(m.sigma11 * m.sigma22), rel=1e-12
        )

    def test_unknown_channel(self, rng):
        with pytest.raises(UnknownChannelError):
            cross_section_matrix(random_table(rng), "nope")

    def test_scaling_all_amplitudes(self, rng):
        t = random_table(rng, n_states=3, order=8)
        z = 1.7 - 0.9j
        scaled = AmplitudeTable(
            t.energy,
            t.initial_pair,
            t.grid,
            tuple(
                ChannelBlock(b.arrangement, b.states, z * b.amplitudes)
                for b in t.channels
            ),
        )
        m0 = cross_section_matrix(t, "D+HF")
        m1 = cross_section_matrix(scaled, "D+HF")
        assert m1.sigma11 == pytest.approx(abs(z) ** 2 * m0.sigma11, rel=1e-12)
        assert m1.sigma22 == pytest.approx(abs(z) ** 2 * m0.sigma22, rel=1e-12)
        assert cmath.phase(m1.sigma12) == pytest.approx(cmath.phase(m0.sigma12), abs=1e-12)


def gram_three_sums(f, weights):
    """The reference Gram kernel: one sum per entry over the column slices."""
    f1, f2 = f[:, :, 0], f[:, :, 1]
    if weights is None:
        return (
            float(np.sum(np.abs(f1) ** 2)),
            float(np.sum(np.abs(f2) ** 2)),
            complex(np.sum(np.conj(f1) * f2)),
        )
    w = weights[np.newaxis, :]
    return (
        float(np.sum(w * np.abs(f1) ** 2)),
        float(np.sum(w * np.abs(f2) ** 2)),
        complex(np.sum(w * np.conj(f1) * f2)),
    )


class TestGramKernel:
    @pytest.mark.parametrize("n_states", [1, 2, 3, 4, 5, 6])
    def test_equals_three_sums_bit_for_bit(self, n_states):
        rng = np.random.default_rng((20261018, n_states))
        for order in (1, 2, 7, 16, 64):
            shape = (n_states, order, 2)
            f = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(
                -4, 4, size=shape
            )
            weights = gauss_legendre_grid(order).weights
            cases = [(f, weights), (np.asfortranarray(f), weights)]
            cases.append((f[:, ::2, :], weights[::2]))
            for block, w in cases:
                # repr tells -0.0 from 0.0, which == does not
                assert repr(_gram(block, w)) == repr(gram_three_sums(block, w))


def states_of(n_states, label="P"):
    return tuple(ChannelState(label, 0, j, 0) for j in range(n_states))


class TestNodeGrams:
    """A block's per-node Grams, summed in one pass, equal one sum per node's slice."""

    @pytest.mark.parametrize("n_states", [*range(1, 41), 127, 128, 129, 200])
    def test_equals_three_sums_of_each_node_bit_for_bit(self, n_states):
        # 8 and 128 states are where numpy's pairwise sum changes its blocking
        rng = np.random.default_rng((20261019, n_states))
        states = states_of(n_states)
        for order in (1, 2, 7, 64):
            shape = (n_states, order, 2)
            f = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(
                -4, 4, size=shape
            )
            # the reference sums the C-order copy a block stores: numpy sums a
            # view with negative strides in another order
            want = [repr(gram_three_sums(f[:, k : k + 1, :], None)) for k in range(order)]
            reversed_layout = np.ascontiguousarray(f[::-1, ::-1, ::-1])[::-1, ::-1, ::-1]
            for layout in (f, np.asfortranarray(f), reversed_layout):
                grams = ChannelBlock("P", states, layout)._node_grams
                assert [repr(g) for g in grams] == want

    def test_signed_zeros_bit_for_bit(self):
        rng = np.random.default_rng(20261019)
        for n_states in (1, 2, 3, 4, 5, 9):
            f = rng.choice([0.0, -0.0, 1.5, -2.0], size=(n_states, 8, 4)).view(complex)
            grams = ChannelBlock("P", states_of(n_states), f)._node_grams
            assert [repr(g) for g in grams] == [
                repr(gram_three_sums(f[:, k : k + 1, :], None)) for k in range(8)
            ]

    def test_differential_matrix_reads_its_node(self, rng):
        t = random_table(rng, n_states=3, order=9)
        for block in t.channels:
            for k, (s11, s22, s12) in enumerate(block._node_grams):
                m = differential_matrix(t, block.arrangement, k)
                assert repr((m.sigma11, m.sigma22, m.sigma12)) == repr((s11, s22, s12))

    def test_computed_once_per_block_and_read_only(self, rng):
        t = random_table(rng, n_states=2, order=5)
        block = t.channel("D+HF")
        assert "_node_grams" not in vars(block)
        differential_matrix(t, "D+HF", 0)
        grams = vars(block)["_node_grams"]
        differential_matrix(t, "D+HF", 4)
        assert block._node_grams is grams and len(grams) == 5
        assert all(
            [type(x) for x in g] == [float, float, complex] for g in grams
        ), "plain scalars, not numpy ones"
        with pytest.raises(FrozenInstanceError):
            block._node_grams = ()
        with pytest.raises(FrozenInstanceError):
            del block._node_grams
        assert block._node_grams is grams
        assert all("_node_grams" not in vars(b) for b in t.channels if b is not block)

    def test_table_equality_and_repr_unchanged(self, rng):
        t = random_table(rng, n_states=2, order=5)
        before = repr(t)
        for label in t.arrangements():
            differential_matrix(t, label, 2)
        assert repr(t) == before and t == replace(t) and t.channels[0] == t.channels[0]
        assert [f.name for f in fields(ChannelBlock)] == ["arrangement", "states", "amplitudes"]

    def test_integral_use_never_runs_the_node_pass(self, rng, monkeypatch):
        t = random_table(rng, n_states=2, order=5)
        for label in t.arrangements():
            cross_section_matrix(t, label)
        assert all("_node_grams" not in vars(b) for b in t.channels)

        runs = []
        monkeypatch.setattr(ChannelBlock, "_node_grams", property(runs.append))
        energy_scan(read_scenario(FHD_SCENARIO), [0.25, 0.255, 0.26], ("D+HF", "H+DF"))
        assert runs == []
        with pytest.raises(TypeError):  # the patch is live: None is not subscriptable
            differential_matrix(t, "D+HF", 0)
        assert len(runs) == 1


class TestDifferentialMatrix:
    def test_single_state_single_node(self):
        amps = np.zeros((1, 1, 2), complex)
        amps[0, 0] = [2.0, 0.0]
        t = table_from_arrays(amps, [0.5], [1.0])
        m = differential_matrix(t, "P", 0)
        assert (m.sigma11, m.sigma22, m.sigma12) == (4.0, 0.0, 0.0j)
        assert m.kind == "differential" and m.node == 0

    def test_weighted_node_sum_reproduces_integral(self, rng):
        t = random_table(rng, n_states=3, order=10)
        total = np.zeros((2, 2), complex)
        for k, w in enumerate(t.grid.weights):
            d = differential_matrix(t, "D+HF", k)
            total += w * d.as_array()
        m = cross_section_matrix(t, "D+HF")
        assert np.allclose(total, m.as_array(), rtol=1e-12, atol=0.0)

    def test_factorized_equality_at_every_node(self, rng):
        t = factorized_table(rng, n_states=3, order=6)
        for k in range(6):
            assert schwartz_ratio(differential_matrix(t, "P", k)) >= 1.0 - 1e-12

    def test_node_out_of_range(self, rng):
        t = random_table(rng, n_states=1, order=4)
        with pytest.raises(IndexError):
            differential_matrix(t, "D+HF", 4)
        with pytest.raises(IndexError):
            differential_matrix(t, "D+HF", -1)
        for node in (4, -1):  # every rejection is a CohresError
            with pytest.raises(CohresError, match=f"node {node} outside grid of 4 nodes"):
                differential_matrix(t, "D+HF", node)


class TestXsecMatrixInvariants:
    def test_tiny_negative_diagonal_clamped(self):
        m = XsecMatrix("X", "integral", -1e-13, 1.0, 0.0)
        assert m.sigma11 == 0.0

    def test_large_negative_diagonal_rejected(self):
        with pytest.raises(ValueError):
            XsecMatrix("X", "integral", -1e-6, 1.0, 0.0)

    def test_schwartz_violation_rejected(self):
        with pytest.raises(ValueError):
            XsecMatrix("X", "integral", 1.0, 1.0, 2.0)

    def test_diagonal_slack_is_relative_to_the_trace(self):
        m = XsecMatrix("X", "integral", -1e-9, 1000.0, 0.0)
        assert m.sigma11 == 0.0 and m.sigma22 == 1000.0
        with pytest.raises(ValueError, match="sigma11"):
            XsecMatrix("X", "integral", -1e-13, 1e-20, 0.0)

    @pytest.mark.parametrize(
        "kind, node, sigma12, message",
        [
            ("total", None, 0.0, "kind must be integral|differential, got 'total'"),
            ("integral", 3, 0.0, "node index is required iff kind == differential"),
            ("differential", None, 0.0, "node index is required iff kind == differential"),
            ("integral", None, complex(math.inf, 0.0), "sigma12 must be finite, got (inf+0j)"),
            ("integral", None, complex(0.0, math.nan), "sigma12 must be finite, got nanj"),
        ],
        ids=["bad-kind", "node-of-integral", "differential-without-node", "inf-sigma12",
             "nan-sigma12"],
    )
    def test_constructor_rules(self, kind, node, sigma12, message):
        with pytest.raises(CohresError) as err:
            XsecMatrix("X", kind, 1.0, 1.0, sigma12, node)
        assert str(err.value) == message

    def test_gram_matrices_are_psd(self, rng):
        # 1000 random tables; the assembled matrix must be PSD
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            order = int(rng.integers(1, 65))
            amps = rng.normal(size=(n, order, 2)) + 1j * rng.normal(size=(n, order, 2))
            nodes = np.linspace(0.1, math.pi - 0.1, order)
            weights = np.full(order, 4.0 * math.pi / order)
            t = table_from_arrays(amps, nodes, weights)
            m = cross_section_matrix(t, "P")
            eig = np.linalg.eigvalsh(m.as_array())
            assert eig.min() >= -1e-10 * m.trace
            assert abs(m.sigma12) <= math.sqrt(m.sigma11 * m.sigma22) + 1e-10 * m.trace

    def test_det_beyond_a_double_is_inf_not_nan(self):
        # sigma11*sigma22 and |sigma12|**2 both overflow; the det is formed at a safe scale
        assert XsecMatrix("X", "integral", 2.0**600, 2.0**601, 2.0**599).det == math.inf

    @pytest.mark.parametrize("k", [-600, -2, 2, 600])
    def test_a_scaled_matrix_has_the_full_scale_det_times_the_power(self, rng, k):
        for _ in range(200):
            m = _random_xsec(rng, int(rng.integers(-240, 240)))
            try:
                want = math.ldexp(m.det, 2 * k)
            except OverflowError:
                continue  # not representable
            s11, s22 = math.ldexp(m.sigma11, k), math.ldexp(m.sigma22, k)
            s12 = complex(math.ldexp(m.sigma12.real, k), math.ldexp(m.sigma12.imag, k))
            assert XsecMatrix("X", "integral", s11, s22, s12).det == want

    def test_an_in_window_det_keeps_its_bits(self, rng):
        for _ in range(1000):
            m = _random_xsec(rng, int(rng.integers(-240, 240)))
            a = abs(m.sigma12)
            assert m.det == m.sigma11 * m.sigma22 - a * a


def _random_xsec(rng, e: int) -> XsecMatrix:
    """A random PSD matrix whose larger diagonal lies in (2**(e-1), 2**e]."""
    s11, s22 = math.ldexp(1.0 - 0.5 * rng.random(), e), math.ldexp(rng.random(), e)
    r = math.sqrt(s11) * math.sqrt(s22) * rng.random()
    return XsecMatrix("X", "integral", s11, s22, cmath.rect(r, rng.uniform(0.0, TWO_PI)))


NAN = math.nan
# (constructor, arguments, what it stores as {field: (type, repr)} or its exact error message)
CONSTRUCTOR_CASES = [
    (XsecMatrix, ("X", "integral", np.float64(2.0), np.float64(1.0), np.complex128(0.5 + 0.5j)),
     {"sigma11": (float, "2.0"), "sigma22": (float, "1.0"), "sigma12": (complex, "(0.5+0.5j)")}),
    (XsecMatrix, ("X", "integral", 2, 1, 1),
     {"sigma11": (float, "2.0"), "sigma22": (float, "1.0"), "sigma12": (complex, "(1+0j)")}),
    (XsecMatrix, ("X", "integral", -0.0, 1.0, -0.0),
     {"sigma11": (float, "-0.0"), "sigma22": (float, "1.0"), "sigma12": (complex, "(-0+0j)")}),
    # SLACK * trace is 1e-10 here: just inside it is stored as 0, just beyond it raises
    (XsecMatrix, ("X", "integral", -0.9e-10, 1.0, 0.0),
     {"sigma11": (float, "0.0"), "sigma22": (float, "1.0")}),
    (XsecMatrix, ("X", "integral", -1.1e-10, 1.0, 0.0),
     "sigma11 = -1.1e-10 is negative beyond the trace's slack"),
    (XsecMatrix, ("X", "integral", 1.0, -0.9e-10, 0.0),
     {"sigma11": (float, "1.0"), "sigma22": (float, "0.0")}),
    (XsecMatrix, ("X", "integral", 1.0, -1.1e-10, 0.0),
     "sigma22 = -1.1e-10 is negative beyond the trace's slack"),
    # a nan trace forgives sigma11, so sigma22's finiteness is what is reported
    (XsecMatrix, ("X", "integral", -1.0, NAN, 0.0), "sigma22 must be finite, got nan"),
    (XsecMatrix, ("X", "integral", NAN, -1.0, 0.0), "sigma11 must be finite, got nan"),
    (XsecMatrix, ("X", "integral", 1.0, math.inf, 0.0), "sigma22 must be finite, got inf"),
    (XsecMatrix, ("X", "integral", 1.0, 1.0, 2.0),
     "|sigma12| = 2.0 violates the Schwartz bound sqrt(sigma11*sigma22) = 1.0"),
    # the Schwartz bound uses the clamped sigma11
    (XsecMatrix, ("X", "integral", -0.9e-10, 1.0, 2e-10),
     "|sigma12| = 2e-10 violates the Schwartz bound sqrt(sigma11*sigma22) = 0.0"),
    (ControlParams, (np.float64(0.25), np.float64(1.0)),
     {"s": (float, "0.25"), "phi12": (float, "1.0")}),
    (ControlParams, (1, 0), {"s": (float, "1.0"), "phi12": (float, "0.0")}),
    # a phase stores +0.0, never -0.0, which a scan CSV would write as "-0.0"
    (ControlParams, (-0.0, -0.0), {"s": (float, "-0.0"), "phi12": (float, "0.0")}),
    (ControlParams, (0.5, -TWO_PI), {"s": (float, "0.5"), "phi12": (float, "0.0")}),
    (ControlParams, (0.5, np.float64(-1.0)),
     {"s": (float, "0.5"), "phi12": (float, repr(TWO_PI - 1.0))}),
    (ControlParams, (True, 0.0), "s must be a real number, got True"),
    (ControlParams, (-5e-324, 0.0), "s must lie in [0, 1], got -5e-324"),
    (ControlParams, (NAN, 0.0), "s must lie in [0, 1], got nan"),
    # both fields are taken as real numbers before either range is checked
    (ControlParams, (2.0, "0"), "phi12 must be a real number, got '0'"),
    (ControlParams, ("1", "0"), "s must be a real number, got '1'"),
    # fmod(-1e-20, 2pi) + 2pi rounds to 2pi itself, which wraps to 0
    (ControlParams, (0.5, -1e-20), {"s": (float, "0.5"), "phi12": (float, "0.0")}),
    (ControlParams, (0.5, -0.0), {"s": (float, "0.5"), "phi12": (float, "0.0")}),
]


@pytest.mark.parametrize("ctor, args, want", CONSTRUCTOR_CASES)
def test_constructor_stores_canonical_types_or_names_the_fault(ctor, args, want):
    if isinstance(want, str):
        with pytest.raises(CohresError) as err:
            ctor(*args)
        assert str(err.value) == want
        return
    obj = ctor(*args)
    assert {name: (type(getattr(obj, name)), repr(getattr(obj, name))) for name in want} == want


class TestControlledCrossSection:
    def test_endpoints_are_noncoherent(self):
        m = XsecMatrix("X", "integral", 2.0, 0.5, 0.3 + 0.1j)
        for phi in (0.0, 1.0, math.pi):
            assert controlled_cross_section(m, ControlParams(0.0, phi)) == m.sigma11
            assert controlled_cross_section(m, ControlParams(1.0, phi)) == m.sigma22

    def test_constructive_doubling(self):
        m = XsecMatrix("X", "integral", 1.0, 1.0, 1.0)
        assert controlled_cross_section(m, ControlParams(0.5, 0.0)) == pytest.approx(2.0, rel=1e-15)

    def test_complete_destruction(self):
        m = XsecMatrix("X", "integral", 1.0, 1.0, 1.0)
        assert controlled_cross_section(m, ControlParams(0.5, math.pi)) == pytest.approx(
            0.0, abs=1e-15
        )

    @given(
        s=st.floats(0.0, 1.0),
        phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        a=st.floats(0.01, 5.0),
        b=st.floats(0.01, 5.0),
        rho=st.floats(0.0, 1.0),
        arg=st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=200)
    def test_matches_quadratic_form(self, s, phi, a, b, rho, arg):
        s12 = rho * math.sqrt(a * b) * cmath.exp(1j * arg)
        m = XsecMatrix("X", "integral", a, b, s12)
        p = ControlParams(s, phi)
        c1, c2 = p.coefficients()
        c = np.array([c1, c2])
        quad = (c.conj() @ m.as_array() @ c).real
        assert controlled_cross_section(m, p) == pytest.approx(
            quad, rel=1e-12, abs=1e-12 * m.trace
        )

    def test_accepted_boundary_matrix_never_raises(self):
        # |sigma12| up to the constructor's slack above sqrt(sigma11*sigma22):
        # the form dips below 0 at its minimiser and is clamped, not rejected
        m = XsecMatrix("X", "integral", 0.5, 0.5, 0.5 + 1e-10)
        assert controlled_cross_section(m, cross_section_extrema(m).params_at_min) == 0.0


class TestControlParams:
    def test_phase_reduced_mod_two_pi(self):
        assert ControlParams(0.5, -0.3).phi12 == pytest.approx(2 * math.pi - 0.3, rel=1e-15)
        assert ControlParams(0.5, 2 * math.pi).phi12 == 0.0
        assert ControlParams(0.5, 7.0).phi12 == pytest.approx(7.0 - 2 * math.pi, rel=1e-15)

    def test_out_of_range_s(self):
        with pytest.raises(ValueError):
            ControlParams(1.5, 0.0)
        with pytest.raises(ValueError):
            ControlParams(-0.1, 0.0)

    @pytest.mark.parametrize(
        "value", [True, "0.5", None, 0.5j], ids=["bool", "str", "none", "complex"]
    )
    @pytest.mark.parametrize("name", ["s", "phi12"])
    def test_field_takes_only_a_real_number(self, name, value):
        with pytest.raises(CohresError) as err:
            ControlParams(**{"s": 0.5, "phi12": 0.0, name: value})
        assert str(err.value) == f"{name} must be a real number, got {value!r}"

    def test_fields_are_plain_floats(self):
        p = ControlParams(np.float32(0.5), np.int64(1))
        assert (type(p.s), type(p.phi12)) == (float, float)
        assert (p.s, p.phi12) == (0.5, 1.0)
        assert ControlParams(1, 0) == ControlParams(1.0, 0.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase(self, phi):
        with pytest.raises(CohresError) as err:
            ControlParams(0.5, phi)
        assert str(err.value) == f"phi12 must be finite, got {phi!r}"


class TestSchwartzRatio:
    def test_factorized_is_one(self, rng):
        m = cross_section_matrix(factorized_table(rng), "P")
        assert schwartz_ratio(m) >= 1.0 - 1e-12

    def test_zero_interference(self):
        assert schwartz_ratio(XsecMatrix("X", "integral", 1.0, 2.0, 0.0)) == 0.0

    def test_accepted_matrix_above_the_bound_clamps_to_one(self):
        # sqrt(s11*s22) = 1e-4 and the slack is 1e-10*trace, so the ratio is
        # 1 + 5e-7 before the clamp
        m = XsecMatrix("X", "integral", 1.0, 1e-8, 1e-4 + 5e-11)
        assert schwartz_ratio(m) == 1.0

    def test_degenerate_channel(self):
        with pytest.raises(DegenerateChannelError):
            schwartz_ratio(XsecMatrix("X", "integral", 0.0, 1.0, 0.0))

    def test_tiny_diagonals_do_not_underflow(self):
        # sigma11*sigma22 = 1e-340 underflows to 0 as a double
        saturated = XsecMatrix("X", "integral", 1e-170, 1e-170, 1e-170)
        assert schwartz_ratio(saturated) == 1.0
        weak = XsecMatrix("X", "integral", 1e-170, 1e-170, 1e-180)
        assert schwartz_ratio(weak) == pytest.approx(1e-10, rel=1e-15)
