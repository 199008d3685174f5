"""Exact extremization of controlled cross sections and their ratios.

The controlled cross section is the Rayleigh quotient of a 2x2 Hermitian
matrix over unit superposition coefficients, so its range over all
control parameters (s, phi12) is exactly the closed eigenvalue interval
[lambda_min, lambda_max].  A cross-section ratio is a generalized
Rayleigh quotient c^H A c / c^H B c; its extrema are the two roots of
det(A - lambda*B) = 0, with the denominator's null direction marking an
unbounded ratio when B is singular and A is not proportional to B.
Where B is positive definite, B = L L^H and the roots are the eigenvalues
of the whitened numerator C = L^-1 A L^-H.  So one kernel,
``_hermitian_eigenvalues``, gives a channel's extrema and a ratio's.

Every reported minimum is max(lambda_min, 0.0), the clamp that
``controlled_cross_section`` applies: a matrix admitted within ``SLACK``
may be indefinite by that much, and its objective still reads 0.0 there.
So each reported value is the clamped objective at its reported point,
within the solver's rounding.

Every extremum is reached by one rule.  With c = (sqrt(1 - s),
sqrt(s) * exp(i*phi12)), (s, phi12) is a qubit's Bloch sphere: the unit
vector n with n_z = 1 - 2s and azimuth phi12.  Then c^H M c = t + v.n,
with t = (m11 + m22)/2 and v = (Re m12, -Im m12, (m11 - m22)/2) the Bloch
vector of M = [[m11, m12], [conj(m12), m22]].  So a channel's minimum and
maximum are at n = -v/|v| and +v/|v|, a ratio's at -w and +w for w the
Bloch vector of A - lambda*B at its root, and a singular denominator's
zero at -v_B (``_bloch_params``).

Every 2x2 a solver solves (a channel's M, a ratio's A and B, and the
whitened C) is brought to a safe scale by one exact power of two
(``xsection._scaled``, window ``_SAFE_EXP``), and its determinant is
``xsection._det``.  Every square is a product, x*x, which is correctly
rounded (``x**2`` calls ``pow``, which is not).  So a scaled result is
the full-scale one times that power, bit for bit, unless an entry, or a
product the solve forms from them (such as lambda*b12 in a ratio's
control point), is subnormal.

Everything here is closed-form and deterministic.  ``lattice_extrema`` is
the deliberately independent brute-force cross-check: it evaluates the
objective on an (s, phi12) lattice and reports lattice extrema, nothing
more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .core import _index, _quotient, _real
from .errors import CohresError, ZeroDenominatorError
from .xsection import (
    _SAFE_EXP,
    ControlParams,
    XsecMatrix,
    _det,
    _form_terms,
    _scaled,
    _unscale,
    controlled_cross_section,
)

__all__ = [
    "ControlRange",
    "cross_section_extrema",
    "ratio_extrema",
    "noncoherent_limits",
    "controlled_ratio",
    "lattice_extrema",
]

SINGULAR_TOL = 1e-14  # det(B) <= tol * trace(B)^2 marks a singular denominator
DEGENERATE_TOL = 1e-11  # elementwise |A - kappa*B| below this (relative) is degenerate
DENOM_FLOOR = 1e-300  # a lattice ratio point is skipped where den <= this * its larger diagonal
_BLOCK_POINTS = 1 << 15  # lattice points per row block: ~256 KB per float64 array
_CORNERS = (ControlParams(0.0, 0.0), ControlParams(1.0, 0.0))  # a flat objective's points


@dataclass(frozen=True, slots=True)
class ControlRange:
    """Extrema of a control objective with the parameters achieving them.

    ``unbounded_max`` marks a ratio whose supremum is infinite;
    ``params_at_max`` then witnesses the denominator's zero direction.
    ``degenerate`` marks an objective that does not depend on the control
    parameters at all (identity-proportional matrix, or ratio of
    proportional matrices); the params are then the fixed conventional
    corners (0, 0) and (1, 0).
    """

    min_value: float
    max_value: float
    params_at_min: ControlParams
    params_at_max: ControlParams
    unbounded_max: bool = False
    degenerate: bool = False
    skipped_points: int = 0

    @property
    def param_separation(self) -> float:
        """Euclidean distance between the two achieving points in (s, phi12/2pi).

        Informational only: a gauge of how far apart the knob settings for
        minimum and maximum sit (phase measured on the shorter arc).
        """
        ds = self.params_at_max.s - self.params_at_min.s
        dphi = abs(self.params_at_max.phi12 - self.params_at_min.phi12)
        dphi = min(dphi, TWO_PI - dphi) / TWO_PI
        return math.hypot(ds, dphi)


def _bloch_params(m11: float, m22: float, m12: complex, sign: float) -> ControlParams:
    """The point n = sign * v/|v| (module docstring): c^H M c is greatest at +1, least at -1.

    s = (1 - n_z)/2 is formed as (rho/r) * (rho/(r + z)) / 2 where z > 0, so
    a small s keeps its relative accuracy; phi12 is 0 on the axis (rho = 0),
    and v = 0 gives (0, 0).  hypot, ratios and atan2 need no rescaling.
    """
    x, y, z = sign * m12.real, -sign * m12.imag, sign * 0.5 * (m11 - m22)
    r = math.hypot(x, y, z)
    if r == 0.0:
        return ControlParams(0.0, 0.0)
    rho = math.hypot(x, y)
    s = 0.5 * (rho / r) * (rho / (r + z)) if z > 0.0 else 0.5 * (1.0 - z / r)
    return ControlParams(s, math.atan2(y, x) if rho else 0.0)


def _hermitian_eigenvalues(m11: float, m22: float, m12: complex, det: float) -> tuple[float, float]:
    """(lambda_min, lambda_max) of [[m11, m12], [conj(m12), m22]], whose determinant is ``det``.

    lambda_max = (T + sqrt((m11 - m22)^2 + 4|m12|^2))/2 with T = m11 + m22,
    and lambda_min = det / lambda_max, which avoids the cancellation in
    (T - sqrt(...))/2 and keeps the product identity to machine precision.
    lambda_min is clamped at 0.0, as the objective is (module docstring),
    and is 0.0 where lambda_max is not positive.  Both solvers call this
    kernel: a channel on its own matrix, a ratio on its whitened numerator.
    """
    d, a = m11 - m22, abs(m12)
    disc_sq = d * d + 4.0 * (a * a)
    lam_max = 0.5 * ((m11 + m22) + math.sqrt(disc_sq))
    lam_min = det / lam_max if det > 0.0 and lam_max > 0.0 else 0.0
    return lam_min, lam_max


def _eigenvalues(m: XsecMatrix) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the interference matrix.

    The kernel ``_hermitian_eigenvalues`` on ``_scaled``'s entries of
    ``m``, then unscaled (``_unscale``).
    """
    m11, m22, m12, k = _scaled(m.sigma11, m.sigma22, m.sigma12)
    lam_min, lam_max = _hermitian_eigenvalues(m11, m22, m12, _det(m11, m22, m12))
    return _unscale(lam_min, k), _unscale(lam_max, k)


def cross_section_extrema(m: XsecMatrix) -> ControlRange:
    """Exact controllable range of one channel's cross section.

    The bounds are the eigenvalues of the interference matrix
    (``_eigenvalues``), reached at minus and plus its Bloch vector
    (``_bloch_params``).  An identity-proportional matrix, which has none,
    is flagged ``degenerate``.
    """
    lo, hi = _eigenvalues(m)
    if m.sigma12 == 0 and m.sigma11 == m.sigma22:
        return ControlRange(lo, hi, *_CORNERS, degenerate=True)
    p_min, p_max = (_bloch_params(m.sigma11, m.sigma22, m.sigma12, sign) for sign in (-1.0, 1.0))
    return ControlRange(lo, hi, p_min, p_max)


def noncoherent_limits(m: XsecMatrix) -> tuple[float, float]:
    """Cross sections with no interference: the s = 0 and s = 1 endpoints."""
    return m.sigma11, m.sigma22


def controlled_ratio(num: XsecMatrix, den: XsecMatrix, p: ControlParams) -> float:
    """num/den at one control point, the quotient of ``core._quotient``."""
    return _quotient(controlled_cross_section(num, p), controlled_cross_section(den, p))


def ratio_extrema(
    num: XsecMatrix,
    den: XsecMatrix,
    *,
    tol_singular: float = SINGULAR_TOL,
) -> ControlRange:
    """Exact controllable range of the ratio of two channel cross sections.

    Solves det(A - lambda*B) = 0 for the numerator/denominator matrices.
    Three regimes:

    * A proportional to B (within ``DEGENERATE_TOL``, elementwise relative):
      the ratio is flat; ``degenerate`` is set and min = max = trace ratio.
    * B singular (det B <= tol_singular * trace(B)^2, or det B so small
      against B's larger diagonal that the whitening step underflows to 0)
      with A not proportional: the ratio is unbounded above;
      ``unbounded_max`` is set, ``max_value`` is +inf and ``params_at_max``
      is the denominator's zero direction.  The finite minimum is
      det(A) / tr(adj(B) A).
    * Otherwise both generalized eigenvalues are finite and real.  They are
      the eigenvalues of C, the numerator whitened by one LDL^H step of B
      pivoted on its larger diagonal (Golub & Van Loan, Matrix Computations,
      sec. 8.7.2), given by the channel kernel with det C = det(A)/det(B).

    A, B and C each go through ``_scaled`` (module docstring); C's scale
    is the ratio's.  The ratio's values are unscaled, and its parameters do
    not depend on the scale.  Raises ZeroDenominatorError when trace(B) == 0.
    ``tol_singular`` is taken by ``core._real`` and must be finite and >= 0,
    else CohresError.

    Accuracy of the finite regime, to first order in eps = 2u, with
    kappa(M) = lambda_max(M)/lambda_min(M) >= 1 and h = q11*q22/det(B) <=
    kappa(B) for B's pivoted diagonals q11 >= q22.  det(B) is off by at most
    (6h + 1)*u relative, so d2 = det(B)/q11 by (6h + 2)*u.  Forming C moves
    c22 by at most (28h + 3)*u*Lambda (its numerator's terms sum to at most
    4*Lambda*q22), c12 by (4*sqrt(h) + 3h + 3)*u*Lambda and c11 by
    u*Lambda, Lambda being the greater root: C moves by (35h + 6)*u*Lambda
    in the 2-norm (Weyl), and the kernel adds 3*eps*tr(C) <= 12*u*Lambda.
    So lambda_max is within (17.5h + 9)*eps*Lambda <= 27*eps*kappa(B)*
    lambda_max.  lambda_min = det C/lambda_max adds det(A)'s and det(B)'s
    relative errors and two roundings: it is within (31.5*kappa(B) +
    3*kappa(A))*eps*lambda_min, and within 36*eps*kappa(B)*lambda_min where
    kappa(A) <= 1.5*kappa(B), as where the two roots nearly meet.  That is
    the pencil's own conditioning: the solver does not lose accuracy as the
    roots meet.  ``tests/test_control.py`` certifies delta =
    36*eps*kappa(B)*|lambda| exactly on pairs whose roots nearly meet; over
    about 15,000 such pairs the worst error measured was 0.04*delta.
    """
    if not 0.0 <= (tol_singular := _real(tol_singular, "tol_singular")) < math.inf:
        raise CohresError(f"tol_singular must be a finite number >= 0, got {tol_singular!r}")
    a11, a22, a12, ka = _scaled(num.sigma11, num.sigma22, num.sigma12)
    b11, b22, b12, kb = _scaled(den.sigma11, den.sigma22, den.sigma12)
    k = ka - kb  # a ratio of the scaled matrices is the ratio times 2**k
    tr_b = b11 + b22
    if tr_b == 0.0:
        raise ZeroDenominatorError("denominator matrix is identically zero")

    kappa = (a11 + a22) / tr_b
    scale = max(abs(a11), abs(a22), abs(a12), abs(kappa) * max(b11, b22, abs(b12)))
    dev = max(
        abs(a11 - kappa * b11),
        abs(a22 - kappa * b22),
        abs(a12 - kappa * b12),
    )
    if dev <= DEGENERATE_TOL * scale:
        value = _unscale(kappa, k)
        return ControlRange(value, value, *_CORNERS, degenerate=True)

    det_a = _det(a11, a22, a12)
    det_b = _det(b11, b22, b12)

    def at(lam: float, sign: float) -> ControlParams:
        return _bloch_params(a11 - lam * b11, a22 - lam * b22, a12 - lam * b12, sign)

    def unbounded() -> ControlRange:
        mid = a11 * b22 + a22 * b11 - 2.0 * (a12 * b12.conjugate()).real  # tr(adj(B) A)
        lam_min = max(0.0, det_a / mid)
        return ControlRange(
            min_value=_unscale(lam_min, k),
            max_value=math.inf,
            params_at_min=at(lam_min, -1.0),
            params_at_max=_bloch_params(b11, b22, b12, -1.0),
            unbounded_max=True,
        )

    if det_b <= tol_singular * (tr_b * tr_b):
        return unbounded()

    # B = U^H diag(q11, d2) U with U = [[1, g], [0, 1]], pivoting on B's larger
    # diagonal (swapping the states conjugates the off-diagonals), so |g| <= 1
    if b22 > b11:
        p11, p22, p12, q11, q12 = a22, a11, a12.conjugate(), b22, b12.conjugate()
    else:
        p11, p22, p12, q11, q12 = a11, a22, a12, b11, b12
    g = q12 / q11
    d2 = det_b / q11
    if d2 == 0.0:  # det_b underflows against the pivot: B is singular at working precision
        return unbounded()
    # C = diag(q11, d2)^(-1/2) U^(-H) A U^(-1) diag(q11, d2)^(-1/2), with det C = det_a/det_b
    c11 = p11 / q11
    c12 = (p12 - p11 * g) / math.sqrt(q11 * d2)
    c22 = (p22 - 2.0 * (p12.conjugate() * g).real + p11 * (abs(g) * abs(g))) / d2
    # C's scale is the ratio's, which a nearly singular B takes far from A's and B's own:
    # C is solved scaled too, det C as 2**j*det_a / 2**-j*det_b
    c11, c22, c12, j = _scaled(c11, c22, c12)
    if (scaled_det_b := math.ldexp(det_b, -j)) == 0.0:  # the same, at C's scale
        return unbounded()
    det_c = math.ldexp(det_a, j) / scaled_det_b
    lam_min, lam_max = _hermitian_eigenvalues(c11, c22, c12, det_c)
    lam_min, lam_max = _unscale(lam_min, j), _unscale(lam_max, j)
    return ControlRange(
        min_value=_unscale(lam_min, k),
        max_value=_unscale(lam_max, k),
        params_at_min=at(lam_min, -1.0),
        params_at_max=at(lam_max, 1.0),
    )


def lattice_extrema(
    num: XsecMatrix,
    den: XsecMatrix | None = None,
    n_s: int = 721,
    n_phi: int = 721,
) -> ControlRange:
    """Brute-force extrema on an (s, phi12) lattice of ``n_s`` x ``n_phi`` points.

    Each size is taken by ``core._index`` and must be at least 2.  The
    lattice contains both s endpoints and excludes phi = 2*pi (periodic).
    Ties resolve to the lexicographically smallest (s, phi).
    For ratio objectives, lattice points whose denominator is at most
    ``DENOM_FLOOR`` times its larger diagonal (whose row, s = 0 or 1, thus
    always stays) are skipped and counted in ``skipped_points``.  Each point
    is off by a few eps*tr, so a ratio point's relative error, and so the
    extrema's, grows like eps*tr(den)/den(c) near den's null direction.

    The lattice is walked in blocks of whole s rows, about
    ``_BLOCK_POINTS`` points each, so memory is O(block * n_phi) while
    time is O(n_s * n_phi).  ``quadratic_form``'s s-only and phi-only
    factors are formed once per objective per call, and each block
    combines them in place (multiply, add, clip: the form's own operation
    order, so the same bits) in one buffer per objective, allocated once
    per call.  A ratio block divides in place when no point is skipped;
    only a block with a skipped point or a NaN quotient (inf/inf, where
    the forms overflow) takes the masked path that ignores those points.
    Each block keeps its first extremum, and a later block replaces the
    running extremum only if strictly lower (higher), so ties still go to
    the first (s, phi) in row order.

    This is an independent check on the closed-form solvers: it never
    solves anything, it just evaluates.
    """
    n_s, n_phi = _index(n_s, "n_s"), _index(n_phi, "n_phi")
    for name, n in (("n_s", n_s), ("n_phi", n_phi)):
        if n < 2:
            raise CohresError(f"{name} must be an integer >= 2, got {n!r}")
    if den is not None and den.trace == 0.0:
        raise ZeroDenominatorError("denominator matrix is identically zero")
    floor = None if den is None else DENOM_FLOOR * max(den.sigma11, den.sigma22)
    s = np.linspace(0.0, 1.0, n_s)
    phi = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    rows = min(n_s, max(1, _BLOCK_POINTS // n_phi))
    # per objective: its s-only and phi-only factors, and its block buffer
    num_eval = _form_terms(num, s, phi), np.empty((rows, n_phi))
    den_eval = None if den is None else (_form_terms(den, s, phi), np.empty((rows, n_phi)))

    def evaluate(terms, buf, i0, i1):
        base, amp, cos = terms
        out = buf[: i1 - i0]
        np.multiply(amp[i0:i1, None], cos, out=out)
        np.add(base[i0:i1, None], out, out=out)
        return np.clip(out, 0.0, None, out=out)

    lo = hi = None  # (value, flat lattice index) of the running extrema
    skipped = 0
    for i0 in range(0, n_s, rows):
        i1 = min(i0 + rows, n_s)
        values = evaluate(*num_eval, i0, i1)
        if den_eval is not None:
            d = evaluate(*den_eval, i0, i1)
            if d.min() > floor:  # no point skipped (a NaN fails this too)
                np.divide(values, d, out=values)
            else:
                ok = d > floor
                n_ok = int(np.count_nonzero(ok))
                skipped += ok.size - n_ok
                if n_ok == 0:
                    continue  # nanargmin raises on an all-nan block
                values = np.where(ok, values / np.where(ok, d, 1.0), np.nan)
        i_min = int(np.argmin(values))
        i_max = int(np.argmax(values))
        if den_eval is not None and math.isnan(values.flat[i_min]):
            # argmin and argmax stop at the first NaN: skip the masked points
            i_min = int(np.nanargmin(values))
            i_max = int(np.nanargmax(values))
        if lo is None or values.flat[i_min] < lo[0]:
            lo = float(values.flat[i_min]), i0 * n_phi + i_min
        if hi is None or values.flat[i_max] > hi[0]:
            hi = float(values.flat[i_max]), i0 * n_phi + i_max

    def at(flat: int) -> ControlParams:
        i, j = divmod(flat, n_phi)
        return ControlParams(float(s[i]), float(phi[j]))

    return ControlRange(
        min_value=lo[0],
        max_value=hi[0],
        params_at_min=at(lo[1]),
        params_at_max=at(hi[1]),
        skipped_points=skipped,
    )
