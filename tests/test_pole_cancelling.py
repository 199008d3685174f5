"""The pole-cancelling superposition: complete control, shown without a solver.

Every channel's pole term is pole_n(theta_k) * bw(E) * g_i, with g the
resonance's ``entrance`` pair, so the superposition c_res ~ (g2, -g1)
has g1*c1 + g2*c2 = 0 and removes it in every channel, at every energy
and angle: only direct scattering is left there.  These tests evaluate
sigma(c_res) with ``controlled_cross_section`` and check it against the
closed-form extrema; they never solve for c_res.

Error model, in units of eps (the float64 machine epsilon):

* ``quadratic_form`` at one point.  (1-s)*s11 + s*s22 is off by at most
  2*eps*tr (1 - s, two products, one sum).  2*sqrt(s(1-s))*|s12|*cos(a)
  is off by at most 4.5*eps*tr (s(1-s), sqrt, |s12| and two products,
  plus half an ulp of cos, whose argument's rounding is second order
  where cos = -1), and the final sum by eps*tr: ``K_EVAL`` = 8.
* ``cross_section_extrema``.  lambda_max = (T + sqrt(disc))/2 is off by
  at most 3*eps*tr; lambda_min = det/lambda_max, with det off by at most
  1.5*eps*tr^2 and lambda_max >= tr/2, by at most 3*eps*tr: ``K_EIG`` = 3.
  A computed form and a computed extremum of the same stored matrix
  therefore bracket within (K_EVAL + K_EIG)*eps*tr.
* A stored Gram entry.  Each of its N = n_states * n_nodes terms is
  formed with at most 3*eps relative error and, in any summation order,
  the sum is off by at most (N-1)/2 * eps times the sum of the terms'
  moduli (Higham, Accuracy and Stability of Numerical Algorithms, sec.
  4.2), which is at most tr for every entry: (N/2 + 3)*eps*tr per entry.
  The form's coefficients (1-s), s and 2*sqrt(s(1-s)) sum to at most 2.
  At mix = 1 the exact Gram of the stored amplitudes vanishes at c_res
  up to O(eps^2)*tr (each stored column is the common pole column times
  g_i, off by a few eps), so sigma(c_res) <= (K_EVAL + N + 6)*eps*tr.
* A ratio bound r, checked as the pencil form num(c) - r*den(c), which
  stays meaningful where both forms vanish.  The two evaluations add
  K_EVAL*eps*(tr(num) + r*tr(den)).  README states a ratio extremum's
  relative error as about eps*tr(den)^2/det(den); times r*den(c) it
  moves the pencil form by that much.  A degenerate pair is flat only to
  ``DEGENERATE_TOL``: |num(c) - kappa*den(c)| <= 2*DEGENERATE_TOL*(tr(num)
  + kappa*tr(den)), as |c1*c2| <= 1/2 and each entry is at most its trace.
"""

import cmath
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from cohres import (
    ControlParams,
    XsecMatrix,
    controlled_cross_section,
    cross_section_extrema,
    cross_section_matrix,
    ratio_extrema,
    read_scenario,
)
from cohres.control import DEGENERATE_TOL
from conftest import FHD_SCENARIO, random_scenario

EPS = sys.float_info.epsilon
PAIR = ("D+HF", "H+DF")
K_EVAL = 8
K_EIG = 3


def pole_cancelling_params(entrance) -> ControlParams:
    """(s, phi12) of c_res ~ (g2, -g1), the superposition with g1*c1 + g2*c2 = 0."""
    g1, g2 = entrance
    scale = max(abs(g1), abs(g2))
    c1, c2 = g2 / scale, -g1 / scale  # keeps |c|^2 away from underflow
    s = abs(c2) ** 2 / (abs(c1) ** 2 + abs(c2) ** 2)
    return ControlParams(s, cmath.phase(c2 / c1) if c1 else 0.0)


def certify(table, p: ControlParams, mix: float) -> None:
    """Check the pole-cancelling bounds of ``table`` at ``p``, the point c_res."""
    mats = [cross_section_matrix(table, label) for label in PAIR]
    values = [controlled_cross_section(m, p) for m in mats]
    for m, v in zip(mats, values):
        ext = cross_section_extrema(m)
        tol = (K_EVAL + K_EIG) * EPS * m.trace
        assert ext.min_value - tol <= v <= ext.max_value + tol
        if mix == 1.0:
            n_terms = table.channel(m.channel).amplitudes.shape[0] * len(table.grid)
            assert v <= (K_EVAL + n_terms + 6) * EPS * m.trace

    (num, den), (n, d) = mats, values
    rr = ratio_extrema(num, den)
    if den.det <= 0.0:
        return  # the stated ratio error, eps*tr^2/det, bounds nothing here
    cond = den.trace**2 / den.det
    for r, sign in ((rr.min_value, 1.0), (rr.max_value, -1.0)):
        if math.isinf(r):  # an unbounded maximum bounds nothing
            continue
        scale = num.trace + abs(r) * den.trace
        tol = K_EVAL * EPS * scale + EPS * cond * abs(r) * (d + K_EVAL * EPS * den.trace)
        if rr.degenerate:
            tol += 2.0 * DEGENERATE_TOL * scale
        assert sign * (n - r * d) >= -tol


@pytest.fixture(scope="module")
def fhd():
    return read_scenario(FHD_SCENARIO)


FHD_ENERGIES = np.linspace(0.20, 0.31, 401)


def test_committed_scenario_is_bracketed_on_a_scan(fhd):
    p = pole_cancelling_params(fhd.resonance.entrance)
    for e in FHD_ENERGIES:
        certify(fhd.table_at(float(e)), p, fhd.mix)


def test_committed_scenario_without_direct_term_is_fully_suppressed(fhd):
    pure = replace(fhd, mix=1.0)
    p = pole_cancelling_params(pure.resonance.entrance)
    for e in FHD_ENERGIES:
        certify(pure.table_at(float(e)), p, pure.mix)


# an entrance coupling is 0 or of modulus at least 1e-3: the error model
# assumes no underflow, and squares of tinier amplitudes can underflow
coupling = st.builds(
    cmath.rect,
    st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    st.floats(0.0, 2.0 * math.pi),
)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(1, 4),
    grid_order=st.integers(2, 16),
    mix=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    entrance=st.tuples(coupling, coupling).filter(lambda g: g != (0, 0)),
    offset=st.floats(-3.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_pole_cancelling_superposition_is_bracketed(
    seed, n_states, grid_order, mix, entrance, offset
):
    cfg = random_scenario(np.random.default_rng(seed), mix, n_states, grid_order)
    cfg = replace(cfg, resonance=replace(cfg.resonance, entrance=entrance))
    res = cfg.resonance
    table = cfg.table_at(res.epsilon_r + offset * res.gamma_width)
    try:
        certify(table, pole_cancelling_params(entrance), mix)
    except ZeroDivisionError:
        reject()  # ratio_extrema's fault on near-degenerate singular pairs, pinned below


@pytest.mark.xfail(raises=ZeroDivisionError, strict=True)
def test_near_degenerate_singular_pair_has_a_closed_form():
    # both channels of a scenario at mix = 1 - 1e-7 (random_scenario, seed 3,
    # one state, 4 nodes, at the pole): nearly rank one along one shared
    # direction, so det(den) <= SINGULAR_TOL*tr^2 and tr(adj(den)*num)
    # rounds to 0, and the unbounded regime divides det(num) by it
    num = XsecMatrix(
        "D+HF", "integral", 261146.37643120447, 399672.333192334,
        246758.35763295955 + 208526.4839565168j,
    )
    den = XsecMatrix(
        "H+DF", "integral", 198247.7280331032, 303408.8892423797,
        187325.1487651837 + 158301.64748811367j,
    )
    rr = ratio_extrema(num, den)
    assert rr.unbounded_max and 0.0 <= rr.min_value < math.inf
