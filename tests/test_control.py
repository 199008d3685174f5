import cmath
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohres import (
    CohresError,
    ControlParams,
    XsecMatrix,
    ZeroDenominatorError,
    controlled_cross_section,
    controlled_ratio,
    cross_section_extrema,
    cross_section_matrix,
    lattice_extrema,
    noncoherent_limits,
    ratio_extrema,
    read_scenario,
    schwartz_ratio,
)
from cohres import control
from cohres.constants import TWO_PI
from cohres.control import DENOM_FLOOR, _quotient
from cohres.xsection import quadratic_form
from conftest import FHD_SCENARIO, random_psd_matrix, ridged_psd_matrix, scaled_table


def phase_close(a: float, b: float, tol: float) -> bool:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d) <= tol


def sched(s11, s22, s12, channel="X"):
    return XsecMatrix(channel, "integral", s11, s22, s12)


class TestCrossSectionExtrema:
    def test_no_interference(self):
        ext = cross_section_extrema(sched(1.0, 3.0, 0.0))
        assert (ext.min_value, ext.max_value) == (1.0, 3.0)
        assert ext.params_at_min == ControlParams(0.0, 0.0)
        assert ext.params_at_max == ControlParams(1.0, 0.0)
        assert not ext.degenerate

    def test_no_interference_swapped(self):
        ext = cross_section_extrema(sched(3.0, 1.0, 0.0))
        assert ext.params_at_min.s == 1.0
        assert ext.params_at_max.s == 0.0

    def test_saturated_interference_closed_form(self):
        # rank-1 matrix: full suppression at s = s11/T with the phase
        # canceling the interference term, full enhancement at s = s22/T
        m = sched(1.0, 4.0, 2.0 * cmath.exp(0.3j))
        ext = cross_section_extrema(m)
        assert ext.min_value == pytest.approx(0.0, abs=1e-12)
        assert ext.max_value == pytest.approx(5.0, rel=1e-12)
        assert ext.params_at_min.s == pytest.approx(0.2, rel=1e-12)
        assert ext.params_at_min.phi12 == pytest.approx(math.pi - 0.3, rel=1e-12)
        assert ext.params_at_max.s == pytest.approx(0.8, rel=1e-12)
        assert ext.params_at_max.phi12 == pytest.approx(2.0 * math.pi - 0.3, rel=1e-12)

    def test_saturated_case_agrees_with_lattice(self):
        m = sched(1.0, 4.0, 2.0 * cmath.exp(0.3j))
        ext = cross_section_extrema(m)
        lat = lattice_extrema(m, None, 721, 721)
        assert abs(ext.min_value - lat.min_value) <= 1e-5 * m.trace
        assert abs(ext.max_value - lat.max_value) <= 1e-5 * m.trace

    def test_reference_range_satisfies_sum_rule(self):
        # worked instance: a 0.0850..2.193 controllable range against a
        # non-coherent sum of 2.278; the sum rule min+max = s11+s22 ties them
        assert math.isclose(0.0850 + 2.193, 2.278, rel_tol=1e-12)

    def test_trace_and_det_identities(self, rng):
        for _ in range(500):
            m = random_psd_matrix(rng)
            ext = cross_section_extrema(m)
            assert ext.min_value + ext.max_value == pytest.approx(m.trace, rel=1e-12)
            assert ext.min_value * ext.max_value == pytest.approx(
                m.det, rel=1e-12, abs=1e-15 * m.trace**2
            )

    def test_identity_matrix_degenerate(self):
        ext = cross_section_extrema(sched(1.0, 1.0, 0.0))
        assert ext.degenerate
        assert ext.min_value == ext.max_value == 1.0
        assert ext.params_at_min == ControlParams(0.0, 0.0)
        assert ext.params_at_max == ControlParams(1.0, 0.0)

    def test_params_reproduce_extrema(self, rng):
        for _ in range(200):
            m = random_psd_matrix(rng)
            ext = cross_section_extrema(m)
            at_min = controlled_cross_section(m, ext.params_at_min)
            at_max = controlled_cross_section(m, ext.params_at_max)
            assert at_min == pytest.approx(ext.min_value, rel=1e-9, abs=1e-9 * m.trace)
            assert at_max == pytest.approx(ext.max_value, rel=1e-9)

    def test_complete_control_iff_schwartz_saturation(self, rng):
        for _ in range(300):
            m = random_psd_matrix(rng)
            ext = cross_section_extrema(m)
            saturated = schwartz_ratio(m) >= 1.0 - 1e-8 if m.det < m.trace**2 else False
            assert (ext.min_value <= 1e-10 * m.trace) == saturated


class TestRatioExtrema:
    def test_shared_rank_one_is_degenerate(self):
        g = np.array([1.0, 1.0j])
        G = np.outer(g.conj(), g)
        num = sched(2 * G[0, 0].real, 2 * G[1, 1].real, 2 * G[0, 1], "A")
        den = sched(0.5 * G[0, 0].real, 0.5 * G[1, 1].real, 0.5 * G[0, 1], "B")
        rr = ratio_extrema(num, den)
        assert rr.degenerate
        assert rr.min_value == rr.max_value == pytest.approx(4.0, rel=1e-14)

    def test_diagonal_ratio(self):
        rr = ratio_extrema(sched(1.0, 4.0, 0.0), sched(1.0, 1.0, 0.0))
        assert rr.min_value == pytest.approx(1.0, rel=1e-14)
        assert rr.max_value == pytest.approx(4.0, rel=1e-14)
        assert rr.params_at_min.s == 0.0
        assert rr.params_at_max.s == 1.0
        lat = lattice_extrema(sched(1.0, 4.0, 0.0), sched(1.0, 1.0, 0.0), 241, 241)
        assert abs(rr.min_value - lat.min_value) <= 1e-6
        assert abs(rr.max_value - lat.max_value) <= 1e-6

    def test_singular_denominator_unbounded(self):
        num = sched(1.0, 1.0, 0.0, "A")
        den = sched(1.0, 4.0, 2.0 * cmath.exp(0.3j), "B")
        rr = ratio_extrema(num, den)
        assert rr.unbounded_max
        assert rr.max_value == math.inf
        # the witness parameters really do null the denominator
        assert controlled_cross_section(den, rr.params_at_max) <= 1e-12 * den.trace
        # finite minimum: 1 / largest denominator eigenvalue
        assert rr.min_value == pytest.approx(0.2, rel=1e-12)
        at_min = controlled_ratio(num, den, rr.params_at_min)
        assert at_min == pytest.approx(rr.min_value, rel=1e-9)
        # at the denominator's zero the ratio is +inf, or at least huge
        assert controlled_ratio(num, den, rr.params_at_max) > 1e12 * rr.min_value

    def test_quotient_rule(self):
        assert _quotient(3.0, 2.0) == 1.5
        assert _quotient(0.0, 2.0) == 0.0
        assert _quotient(1e-300, 0.0) == math.inf
        assert math.isnan(_quotient(0.0, 0.0))

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDenominatorError):
            ratio_extrema(sched(1.0, 1.0, 0.0), sched(0.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "tol, message",
        [
            ("1e-14", "tol_singular must be a real number, got '1e-14'"),
            (True, "tol_singular must be a real number, got True"),
            (None, "tol_singular must be a real number, got None"),
            (-1.0, "tol_singular must be a finite number >= 0, got -1.0"),
            (math.nan, "tol_singular must be a finite number >= 0, got nan"),
            (math.inf, "tol_singular must be a finite number >= 0, got inf"),
        ],
        ids=["str", "bool", "none", "negative", "nan", "inf"],
    )
    def test_tol_singular_is_a_finite_real_at_least_zero(self, tol, message):
        # a singular denominator: without the check -1.0 and nan divide by zero
        num, den = sched(1.0, 2.0, 0.5j, "A"), sched(1, 1, 1, "B")
        with pytest.raises(CohresError) as err:
            ratio_extrema(num, den, tol_singular=tol)
        assert str(err.value) == message
        want = repr(ratio_extrema(num, den))  # det B is exactly 0: unbounded at any tol >= 0
        for tol in (np.float64(control.SINGULAR_TOL), 0, -0.0):
            assert repr(ratio_extrema(num, den, tol_singular=tol)) == want

    def test_params_reproduce_ratio_extrema(self, rng):
        for _ in range(200):
            num = random_psd_matrix(rng, "A")
            den = ridged_psd_matrix(rng, channel="B")
            rr = ratio_extrema(num, den)
            scale = max(abs(rr.min_value), abs(rr.max_value))
            at_min = controlled_ratio(num, den, rr.params_at_min)
            at_max = controlled_ratio(num, den, rr.params_at_max)
            assert at_min == pytest.approx(rr.min_value, rel=1e-9, abs=1e-9 * scale)
            assert at_max == pytest.approx(rr.max_value, rel=1e-9, abs=1e-9 * scale)

    def test_scaling_invariance(self, rng):
        num = random_psd_matrix(rng, "A")
        den = ridged_psd_matrix(rng, channel="B")
        rr = ratio_extrema(num, den)
        alpha = 3.7
        scaled = sched(alpha * num.sigma11, alpha * num.sigma22, alpha * num.sigma12, "A")
        rr2 = ratio_extrema(scaled, den)
        assert rr2.min_value == pytest.approx(alpha * rr.min_value, rel=1e-12)
        assert rr2.max_value == pytest.approx(alpha * rr.max_value, rel=1e-12)
        assert rr2.params_at_min.s == pytest.approx(rr.params_at_min.s, rel=1e-9)

    def test_basis_change_invariance(self, rng):
        # generalized eigenvalues are invariant under a simultaneous
        # unitary change of the initial-state basis
        num = random_psd_matrix(rng, "A")
        den = ridged_psd_matrix(rng, channel="B")
        theta, phase = 0.7, 0.4
        u = np.array(
            [
                [math.cos(theta), -math.sin(theta) * cmath.exp(-1j * phase)],
                [math.sin(theta) * cmath.exp(1j * phase), math.cos(theta)],
            ]
        )
        rr = ratio_extrema(num, den)

        def rotate(m, ch):
            a = u.conj().T @ m.as_array() @ u
            return sched(a[0, 0].real, a[1, 1].real, a[0, 1], ch)

        rr2 = ratio_extrema(rotate(num, "A"), rotate(den, "B"))
        assert rr2.min_value == pytest.approx(rr.min_value, rel=1e-10)
        assert rr2.max_value == pytest.approx(rr.max_value, rel=1e-10)


def _times(m: XsecMatrix, k: int) -> tuple:
    """``m``'s entries times 2**k, exactly."""
    s12 = complex(math.ldexp(m.sigma12.real, k), math.ldexp(m.sigma12.imag, k))
    return math.ldexp(m.sigma11, k), math.ldexp(m.sigma22, k), s12


class TestScaleBeforeSolving:
    """A matrix of extreme scale is solved scaled by an exact power of two."""

    @pytest.fixture(scope="class")
    def fhd(self):
        return read_scenario(FHD_SCENARIO).table_at(0.255)

    @pytest.mark.parametrize("k", [-300, 330])
    def test_results_are_the_full_scale_ones_bit_for_bit(self, fhd, k):
        # amplitudes times 2**k: entries near 1e-181 or 1e+198, whose squares leave the doubles
        tiny_or_huge = scaled_table(fhd, 2.0**k)
        full, mats = {}, {}
        for ch in ("D+HF", "H+DF"):
            full[ch], mats[ch] = cross_section_matrix(fhd, ch), cross_section_matrix(tiny_or_huge, ch)
            m = mats[ch]
            assert repr((m.sigma11, m.sigma22, m.sigma12)) == repr(_times(full[ch], 2 * k))
            got, want = cross_section_extrema(m), cross_section_extrema(full[ch])
            scaled_want = (math.ldexp(want.min_value, 2 * k), math.ldexp(want.max_value, 2 * k))
            assert repr((got.min_value, got.max_value)) == repr(scaled_want)
            assert repr(control._eigenvalues(m)) == repr(scaled_want)
            assert repr((got.params_at_min, got.params_at_max)) == repr(
                (want.params_at_min, want.params_at_max)
            )
        for num, den in (("D+HF", "H+DF"), ("H+DF", "D+HF")):
            got, want = ratio_extrema(mats[num], mats[den]), ratio_extrema(full[num], full[den])
            assert repr(got) == repr(want)

    def test_lattice_floor_follows_the_denominator_scale(self, fhd):
        # amplitudes times 1e-155: every denominator value is near 1e-310
        full = [cross_section_matrix(fhd, ch) for ch in ("D+HF", "H+DF")]
        tiny = [cross_section_matrix(scaled_table(fhd, 1e-155), ch) for ch in ("D+HF", "H+DF")]
        got, want = lattice_extrema(*tiny, 41, 41), lattice_extrema(*full, 41, 41)
        assert got.skipped_points == want.skipped_points == 0
        assert got.min_value == pytest.approx(want.min_value, rel=1e-9)
        assert got.max_value == pytest.approx(want.max_value, rel=1e-9)
        assert (got.params_at_min, got.params_at_max) == (want.params_at_min, want.params_at_max)
        closed = ratio_extrema(*tiny)
        assert got.min_value >= closed.min_value and got.max_value <= closed.max_value

    def test_only_matrices_outside_the_safe_range_are_scaled(self, rng):
        m = random_psd_matrix(rng)
        assert control._scaled(m)[0] is m and control._scaled(m)[1] == 0
        safe = control._SAFE_EXP
        low, high = math.ldexp(1.0, -safe), math.ldexp(1.0, safe)
        for d in (low, math.nextafter(high, 0.0)):  # the ends of the range are kept
            assert control._scaled(sched(d, 0.5 * d, 0.0))[1] == 0
        # the larger diagonal decides; k is even and brings it into [2**(safe-2), 2**safe)
        for d in (math.nextafter(low, 0.0), high, 2.0**300, 2.0**-600, 5e-324, 1e308):
            for diag in ((d, 0.5 * d), (0.0, d)):
                scaled, k = control._scaled(sched(*diag, 0.0))
                assert k != 0 and k % 2 == 0
                assert math.ldexp(1.0, safe - 2) <= max(scaled.sigma11, scaled.sigma22) < high
                assert (scaled.sigma11, scaled.sigma22) == tuple(math.ldexp(x, k) for x in diag)

    def test_a_wide_range_matrix_keeps_its_bits(self):
        # diagonals near 2**301 and 2**-751: scaled, yet shrunk only into the safe
        # range, so the small one stays normal; the unscaled formulas overflow nothing here
        s11, s22 = math.ldexp(1 / 3, 302), math.ldexp(1 / 7, -748)
        s12 = complex(math.ldexp(1 / 5, -230), math.ldexp(-1 / 11, -231))
        m = sched(s11, s22, s12)
        scaled, k = control._scaled(m)
        assert k != 0 and scaled.sigma22 >= sys.float_info.min
        lam_max = 0.5 * (m.trace + math.sqrt((s11 - s22) ** 2 + 4.0 * abs(s12) ** 2))
        lam_min = m.det / lam_max
        assert lam_min >= sys.float_info.min  # normal, so its bits are the unscaled solve's
        assert control._eigenvalues(m) == (lam_min, lam_max)
        got = cross_section_extrema(m)
        assert (got.min_value, got.max_value) == (lam_min, lam_max)
        assert got.params_at_min == control._null_params(s11 - lam_min, s22 - lam_min, s12)
        assert got.params_at_max == control._null_params(s11 - lam_max, s22 - lam_max, s12)

    def test_ratio_beyond_the_doubles_saturates(self):
        a, b = sched(2.0, 1.0, 0.5 + 0.5j, "A"), sched(1.0, 3.0, 0.25, "B")
        want = ratio_extrema(a, b)
        assert not (want.degenerate or want.unbounded_max)
        big_a, small_a = sched(*_times(a, 1000), "A"), sched(*_times(a, -1000), "A")
        big_b, small_b = sched(*_times(b, 1000), "B"), sched(*_times(b, -1000), "B")
        for (num, den), value in (((big_a, small_b), math.inf), ((small_a, big_b), 0.0)):
            got = ratio_extrema(num, den)  # the ratio times 2**+-2000
            assert (got.min_value, got.max_value) == (value, value)
            assert (got.params_at_min, got.params_at_max) == (want.params_at_min, want.params_at_max)


class TestNoncoherentLimits:
    def test_returns_diagonal(self):
        assert noncoherent_limits(sched(2.0, 0.5, 0.1j)) == (2.0, 0.5)

    def test_identity(self):
        assert noncoherent_limits(sched(1.0, 1.0, 0.0)) == (1.0, 1.0)

    def test_endpoint_evaluations_match(self):
        m = sched(1.3, 0.4, 0.2 + 0.5j)
        s11, s22 = noncoherent_limits(m)
        assert controlled_cross_section(m, ControlParams(0.0, 0.0)) == s11
        assert controlled_cross_section(m, ControlParams(1.0, 0.0)) == s22


def _rank_one_pair():
    g = np.array([0.8, 0.3 - 0.6j])
    G = np.outer(g.conj(), g)
    num = sched(2 * G[0, 0].real, 2 * G[1, 1].real, 2 * G[0, 1], "A")
    den = sched(0.5 * G[0, 0].real, 0.5 * G[1, 1].real, 0.5 * G[0, 1], "B")
    return num, den


# (numerator, denominator or None, lattice points skipped)
EVALUATOR_PIN_CASES = {
    "single-finite": (sched(1.3, 0.4, 0.2 + 0.5j), None, 0),
    "single-degenerate": (sched(1.0, 1.0, 0.0), None, 0),
    "ratio-finite": (sched(1.3, 0.4, 0.2 + 0.5j, "A"), sched(1.0, 2.0, 0.3 - 0.4j, "B"), 0),
    "ratio-degenerate": (*_rank_one_pair(), 0),
    "ratio-skipped": (sched(1.0, 1.0, 0.0, "A"), sched(1.0, 0.0, 0.0, "B"), 97),
}


class TestLatticeExtrema:
    @pytest.mark.parametrize(
        "num, den, skipped", EVALUATOR_PIN_CASES.values(), ids=EVALUATOR_PIN_CASES.keys()
    )
    def test_extrema_equal_evaluator_at_reported_params(self, num, den, skipped):
        # the lattice and the scalar objective share one evaluator, so the
        # lattice's extrema reproduce bit for bit at its reported params
        lat = lattice_extrema(num, den, 121, 97)
        assert lat.skipped_points == skipped
        if den is None:
            at_min = controlled_cross_section(num, lat.params_at_min)
            at_max = controlled_cross_section(num, lat.params_at_max)
        else:
            at_min = controlled_ratio(num, den, lat.params_at_min)
            at_max = controlled_ratio(num, den, lat.params_at_max)
        assert (at_min, at_max) == (lat.min_value, lat.max_value)

    def test_agrees_with_eigensolution(self, rng):
        for _ in range(50):
            m = random_psd_matrix(rng)
            ext = cross_section_extrema(m)
            lat = lattice_extrema(m, None, 241, 241)
            assert abs(ext.min_value - lat.min_value) <= 1e-3 * m.trace
            assert abs(ext.max_value - lat.max_value) <= 1e-3 * m.trace
            # the closed form beats every lattice point
            assert ext.min_value <= lat.min_value + 1e-12
            assert ext.max_value >= lat.max_value - 1e-12

    def test_diagonal_matrix_extrema_at_corners(self):
        lat = lattice_extrema(sched(1.0, 3.0, 0.0), None, 51, 64)
        assert lat.params_at_min == ControlParams(0.0, 0.0)
        assert lat.params_at_max.s == 1.0
        assert (lat.min_value, lat.max_value) == (1.0, 3.0)

    def test_degenerate_ratio_is_flat(self):
        num, den = _rank_one_pair()
        lat = lattice_extrema(num, den, 101, 101)
        assert lat.max_value - lat.min_value <= 1e-10 * 4.0

    def test_skipped_points_counted(self):
        # denominator (1-s) vanishes on the whole s = 1 lattice row
        num = sched(1.0, 1.0, 0.0, "A")
        den = sched(1.0, 0.0, 0.0, "B")
        lat = lattice_extrema(num, den, 11, 7)
        assert lat.skipped_points == 7
        assert lat.min_value == pytest.approx(1.0)

    def test_tiny_lattice_rejected(self):
        with pytest.raises(ValueError):
            lattice_extrema(sched(1.0, 1.0, 0.0), None, 1, 10)

    @pytest.mark.parametrize(
        "n_s, n_phi, message",
        [(2.5, 10, "n_s .* got 2.5"), (10, "7", "n_phi .* got '7'"), (True, 10, "n_s .* got True")],
        ids=["float", "str", "bool"],
    )
    def test_non_integer_size_rejected(self, n_s, n_phi, message):
        with pytest.raises(CohresError, match=message):
            lattice_extrema(sched(1.0, 1.0, 0.0), None, n_s, n_phi)

    def test_zero_denominator_rejected_before_evaluation(self, monkeypatch):
        def no_evaluation(*args):
            raise AssertionError("the lattice was evaluated")

        monkeypatch.setattr(control, "_form_terms", no_evaluation)
        with pytest.raises(ZeroDenominatorError, match="identically zero"):
            lattice_extrema(sched(1.0, 1.0, 0.0), sched(0.0, 0.0, 0.0), 11, 7)

    def test_memory_is_row_blocks_not_whole_lattice(self):
        # one 2049 x 2049 float64 array is 33.6 MB; a block of rows is ~0.25 MB
        num, den = sched(1.3, 0.4, 0.2 + 0.5j, "A"), sched(1.0, 2.0, 0.3 - 0.4j, "B")
        tracemalloc.start()
        try:
            lattice_extrema(num, den, 2049, 2049)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def _whole_lattice(num, den, n_s, n_phi):
    """The lattice as whole n_s x n_phi arrays: the reference for the row blocks."""
    s = np.linspace(0.0, 1.0, n_s)
    phi = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    values = np.clip(quadratic_form(num, s[:, None], phi[None, :]), 0.0, None)
    skipped = 0
    if den is None:
        i_min, i_max = int(np.argmin(values)), int(np.argmax(values))
    else:
        d = np.clip(quadratic_form(den, s[:, None], phi[None, :]), 0.0, None)
        ok = d > DENOM_FLOOR * max(den.sigma11, den.sigma22)
        skipped = int(ok.size - np.count_nonzero(ok))
        values = np.where(ok, values / np.where(ok, d, 1.0), np.nan)
        i_min, i_max = int(np.nanargmin(values)), int(np.nanargmax(values))

    def at(flat):
        i, j = divmod(flat, n_phi)
        return float(values[i, j]), ControlParams(float(s[i]), float(phi[j]))

    (lo, p_lo), (hi, p_hi) = at(i_min), at(i_max)
    return lo, hi, p_lo, p_hi, skipped


def _parity_cases():
    rng = np.random.default_rng(20)
    cases = {f"pin-{k}": (num, den, 121, 97) for k, (num, den, _) in EVALUATOR_PIN_CASES.items()}
    for k in range(20):
        cases[f"random-single-{k}"] = (random_psd_matrix(rng), None, 61, 53)
        cases[f"random-ratio-{k}"] = (
            random_psd_matrix(rng, "A"),
            random_psd_matrix(rng, "B"),
            61,
            53,
        )
    cases["tie-diagonal"] = (sched(1.0, 3.0, 0.0), None, 51, 64)
    cases["tie-diagonal-ratio"] = (sched(1.0, 3.0, 0.0, "A"), sched(3.0, 1.0, 0.0, "B"), 51, 64)
    cases["skipped-first-row"] = (sched(1.0, 1.0, 0.0, "A"), sched(0.0, 1.0, 0.0, "B"), 11, 7)
    # test_skipped_points_counted's lattice: a 1-row block at s = 1 is all skipped
    cases["skipped-last-row"] = (sched(1.0, 1.0, 0.0, "A"), sched(1.0, 0.0, 0.0, "B"), 11, 7)
    # rank one: the denominator vanishes at (s, phi) = (0.5, pi), lattice point (5, 4)
    cases["skipped-inner-point"] = (sched(1.0, 2.0, 0.5j, "A"), sched(1.0, 1.0, 1.0, "B"), 11, 8)
    # entries near DBL_MAX: both forms overflow to +inf where cos is large,
    # so some quotients are inf/inf = nan, while no denominator is skipped
    overflow = pytest.mark.filterwarnings("ignore::RuntimeWarning")
    cases["overflow-nan-quotient"] = pytest.param(*OVERFLOW_PAIR, 11, 8, marks=overflow)
    cases["overflow-single"] = pytest.param(OVERFLOW_PAIR[0], None, 11, 8, marks=overflow)
    return cases


OVERFLOW_PAIR = (sched(1.5e308, 1.5e308, 0.75e308, "A"), sched(1.5e308, 1.5e308, 0.75e308j, "B"))


PARITY_CASES = _parity_cases()


class TestRowBlockParity:
    """Row blocks reproduce the whole-lattice evaluation bit for bit."""

    @pytest.fixture(params=[1, 7, "n_s"], ids=lambda r: f"rows-{r}")
    def block_rows(self, request, monkeypatch):
        def use(n_s, n_phi):
            rows = n_s if request.param == "n_s" else request.param
            monkeypatch.setattr(control, "_BLOCK_POINTS", rows * n_phi)

        return use

    @pytest.mark.parametrize("num, den, n_s, n_phi", PARITY_CASES.values(), ids=PARITY_CASES.keys())
    def test_matches_whole_lattice(self, block_rows, num, den, n_s, n_phi):
        block_rows(n_s, n_phi)
        lat = lattice_extrema(num, den, n_s, n_phi)
        got = (lat.min_value, lat.max_value, lat.params_at_min, lat.params_at_max)
        assert got + (lat.skipped_points,) == _whole_lattice(num, den, n_s, n_phi)

    @pytest.mark.parametrize("den", [None, sched(1.0, 1.0, 0.0, "B")])
    def test_flat_objective_resolves_to_first_point(self, block_rows, den):
        # every point ties, across blocks too: the first (s, phi) wins both
        block_rows(121, 97)
        lat = lattice_extrema(sched(2.0, 2.0, 0.0, "A"), den, 121, 97)
        assert lat.params_at_min == lat.params_at_max == ControlParams(0.0, 0.0)

    def test_overflow_pair_has_nan_quotients_and_no_skipped_point(self):
        # the premise of the overflow parity cases: at every block size
        # some block has a NaN quotient, and no block has a skipped point
        num, den = OVERFLOW_PAIR
        s, phi = np.linspace(0.0, 1.0, 11)[:, None], np.linspace(0.0, TWO_PI, 8, endpoint=False)
        with np.errstate(over="ignore", invalid="ignore"):
            n, d = (np.clip(quadratic_form(m, s, phi), 0.0, None) for m in (num, den))
            q = n / d
        assert np.all(d > DENOM_FLOOR * max(den.sigma11, den.sigma22))  # the lattice's skip rule
        assert np.isposinf(n).any() and np.isnan(q).any() and not np.isnan(q).all(axis=1).any()

    def test_tiny_denominator_is_evaluated(self, block_rows):
        # the floor follows the denominator's scale: 1e-301 * I is a ratio of 1e301 everywhere
        block_rows(11, 7)
        num, den = sched(1.0, 1.0, 0.0, "A"), sched(1e-301, 1e-301, 0.0, "B")
        lat = lattice_extrema(num, den, 11, 7)
        got = (lat.min_value, lat.max_value, lat.params_at_min, lat.params_at_max)
        assert got + (lat.skipped_points,) == _whole_lattice(num, den, 11, 7)
        assert lat.skipped_points == 0
        assert lat.min_value == pytest.approx(1e301, rel=1e-15)
        assert lat.max_value == pytest.approx(1e301, rel=1e-15)


class TestControlRangeSeparation:
    def test_separation_measures_shorter_arc(self):
        ext = cross_section_extrema(sched(1.0, 4.0, 2.0 * cmath.exp(0.3j)))
        # s: 0.2 -> 0.8; phi: (pi - 0.3) -> (2pi - 0.3), shorter arc pi
        expected = math.hypot(0.6, 0.5)
        assert ext.param_separation == pytest.approx(expected, rel=1e-12)


@given(
    a=st.floats(0.01, 5.0),
    b=st.floats(0.01, 5.0),
    rho=st.floats(0.0, 1.0),
    arg=st.floats(-math.pi, math.pi),
)
@settings(max_examples=150, deadline=None)
def test_extrema_bracket_every_evaluation(a, b, rho, arg):
    m = sched(a, b, rho * math.sqrt(a * b) * cmath.exp(1j * arg))
    ext = cross_section_extrema(m)
    for s in (0.0, 0.25, 0.5, 0.9, 1.0):
        for phi in (0.0, 1.0, 3.0, 5.0):
            v = controlled_cross_section(m, ControlParams(s, phi))
            assert ext.min_value - 1e-10 * m.trace <= v <= ext.max_value + 1e-10 * m.trace
