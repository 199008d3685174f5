"""Exact extremization of controlled cross sections and their ratios.

The controlled cross section is the Rayleigh quotient of a 2x2 Hermitian
matrix over unit superposition coefficients, so its range over all
control parameters (s, phi12) is exactly the closed eigenvalue interval
[lambda_min, lambda_max].  A cross-section ratio is a generalized
Rayleigh quotient c^H A c / c^H B c; its extrema are the two roots of
det(A - lambda*B) = 0, with the denominator's null direction marking an
unbounded ratio when B is singular and A is not proportional to B.

Everything here is closed-form and deterministic.  ``lattice_extrema`` is
the deliberately independent brute-force cross-check: it evaluates the
objective on an (s, phi12) lattice and reports lattice extrema, nothing
more.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .errors import CohresError, ZeroDenominatorError
from .xsection import ControlParams, XsecMatrix, _form_terms, controlled_cross_section

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
DENOM_FLOOR = 1e-300  # lattice ratio points below this denominator are skipped
_BLOCK_POINTS = 1 << 15  # lattice points per row block: ~256 KB per float64 array


@dataclass(frozen=True)
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


def _params_from_vector(c1: complex, c2: complex) -> ControlParams:
    scale = max(abs(c1), abs(c2))
    if scale == 0.0:
        return ControlParams(0.0, 0.0)
    c1, c2 = c1 / scale, c2 / scale  # keeps |c|^2 away from underflow
    n1 = abs(c1) ** 2
    n2 = abs(c2) ** 2
    s = min(n2 / (n1 + n2), 1.0)
    phi = 0.0 if c1 == 0 else cmath.phase(c2 / c1)
    return ControlParams(s=s, phi12=phi)


def _eigenvalues(m: XsecMatrix) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the interference matrix.

    lambda_-+ = (T -+ sqrt(T^2 - 4D))/2 with T the trace and D the
    determinant.  lambda_min is computed as D / lambda_max, which avoids
    the cancellation in (T - sqrt(...))/2 and preserves the sum and
    product identities to machine precision.
    """
    disc_sq = (m.sigma11 - m.sigma22) ** 2 + 4.0 * abs(m.sigma12) ** 2
    lam_max = 0.5 * (m.trace + math.sqrt(disc_sq))
    return (m.det / lam_max if lam_max > 0.0 else 0.0), lam_max


def cross_section_extrema(m: XsecMatrix) -> ControlRange:
    """Exact controllable range of one channel's cross section.

    The bounds are the eigenvalues of the interference matrix
    (``_eigenvalues``); the achieving (s, phi12) span the null space of
    M - lambda*I.
    """
    lam_min, lam_max = _eigenvalues(m)

    if m.sigma12 == 0:
        if m.sigma11 == m.sigma22:
            return ControlRange(
                min_value=lam_min,
                max_value=lam_max,
                params_at_min=ControlParams(0.0, 0.0),
                params_at_max=ControlParams(1.0, 0.0),
                degenerate=True,
            )
        if m.sigma11 < m.sigma22:
            p_min, p_max = ControlParams(0.0, 0.0), ControlParams(1.0, 0.0)
        else:
            p_min, p_max = ControlParams(1.0, 0.0), ControlParams(0.0, 0.0)
        return ControlRange(lam_min, lam_max, p_min, p_max)

    return ControlRange(
        min_value=lam_min,
        max_value=lam_max,
        params_at_min=_null_params(m.sigma11 - lam_min, m.sigma22 - lam_min, m.sigma12),
        params_at_max=_null_params(m.sigma11 - lam_max, m.sigma22 - lam_max, m.sigma12),
    )


def noncoherent_limits(m: XsecMatrix) -> tuple[float, float]:
    """Cross sections with no interference: the s = 0 and s = 1 endpoints."""
    return m.sigma11, m.sigma22


def _quotient(n: float, d: float) -> float:
    """n / d for cross sections n, d >= 0: +inf when only d is 0, nan when both are."""
    if d == 0.0:
        return math.inf if n > 0.0 else math.nan
    return n / d


def controlled_ratio(num: XsecMatrix, den: XsecMatrix, p: ControlParams) -> float:
    """num/den at one control point: +inf where only den vanishes, nan where both do."""
    return _quotient(controlled_cross_section(num, p), controlled_cross_section(den, p))


def _null_params(m11: float, m22: float, m12: complex) -> ControlParams:
    """Control parameters along the null direction of a singular 2x2 Hermitian."""
    # pick the row with the larger norm for conditioning
    r1 = abs(m11) ** 2 + abs(m12) ** 2
    r2 = abs(m12) ** 2 + abs(m22) ** 2
    if r1 >= r2:
        c1, c2 = m12, complex(-m11)
    else:
        c1, c2 = complex(m22), -m12.conjugate()
    return _params_from_vector(c1, c2)


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
    * B singular (det B <= tol_singular * trace(B)^2) with A not
      proportional: the ratio is unbounded above; ``unbounded_max`` is set,
      ``max_value`` is +inf and ``params_at_max`` is the denominator's zero
      direction.  The finite minimum is det(A) / tr(adj(B) A).
    * Otherwise both generalized eigenvalues are finite and real.

    Raises ZeroDenominatorError when trace(B) == 0.
    """
    a11, a22, a12 = num.sigma11, num.sigma22, num.sigma12
    b11, b22, b12 = den.sigma11, den.sigma22, den.sigma12
    tr_b = den.trace
    if tr_b == 0.0:
        raise ZeroDenominatorError("denominator matrix is identically zero")

    kappa = num.trace / tr_b
    scale = max(abs(a11), abs(a22), abs(a12), abs(kappa) * max(b11, b22, abs(b12)))
    dev = max(
        abs(a11 - kappa * b11),
        abs(a22 - kappa * b22),
        abs(a12 - kappa * b12),
    )
    if dev <= DEGENERATE_TOL * scale:
        return ControlRange(
            min_value=kappa,
            max_value=kappa,
            params_at_min=ControlParams(0.0, 0.0),
            params_at_max=ControlParams(1.0, 0.0),
            degenerate=True,
        )

    det_a = num.det
    det_b = den.det
    # m = tr(adj(B) A), the middle coefficient of det(A - lambda*B)
    mid = a11 * b22 + a22 * b11 - 2.0 * (a12 * b12.conjugate()).real

    if det_b <= tol_singular * tr_b**2:
        lam_min = det_a / mid
        return ControlRange(
            min_value=lam_min,
            max_value=math.inf,
            params_at_min=_pencil_null_params(num, den, lam_min),
            params_at_max=_null_params(b11, b22, b12),
            unbounded_max=True,
        )

    disc = mid * mid - 4.0 * det_b * det_a
    disc = math.sqrt(disc) if disc > 0.0 else 0.0
    lam_max = (mid + disc) / (2.0 * det_b)
    lam_min = det_a / (det_b * lam_max) if lam_max != 0.0 else (mid - disc) / (2.0 * det_b)
    return ControlRange(
        min_value=lam_min,
        max_value=lam_max,
        params_at_min=_pencil_null_params(num, den, lam_min),
        params_at_max=_pencil_null_params(num, den, lam_max),
    )


def _pencil_null_params(num: XsecMatrix, den: XsecMatrix, lam: float) -> ControlParams:
    """Parameters of the generalized eigenvector for det(A - lam*B) = 0."""
    return _null_params(
        num.sigma11 - lam * den.sigma11,
        num.sigma22 - lam * den.sigma22,
        num.sigma12 - lam * den.sigma12,
    )


def lattice_extrema(
    num: XsecMatrix,
    den: XsecMatrix | None = None,
    n_s: int = 721,
    n_phi: int = 721,
) -> ControlRange:
    """Brute-force extrema on an (s, phi12) lattice.

    The lattice contains both s endpoints and excludes phi = 2*pi
    (periodic).  Ties resolve to the lexicographically smallest (s, phi).
    For ratio objectives, lattice points whose denominator falls below
    ``DENOM_FLOOR`` are excluded and counted in ``skipped_points``.  Each
    evaluated point is off by a few eps*tr, so a ratio point's relative
    error grows like eps*tr(den)/den(c) near the denominator's null
    direction, and the ratio extrema are trustworthy only to that extent.

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
    for name, n in (("n_s", n_s), ("n_phi", n_phi)):
        if type(n) is not int or n < 2:  # a bool is not a lattice size
            raise CohresError(f"{name} must be an integer >= 2, got {n!r}")
    if den is not None and den.trace == 0.0:
        raise ZeroDenominatorError("denominator matrix is identically zero")
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
            if d.min() >= DENOM_FLOOR:  # no point skipped (a NaN fails this too)
                np.divide(values, d, out=values)
            else:
                ok = d >= DENOM_FLOOR
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
    if lo is None:
        raise ZeroDenominatorError("denominator vanished on the whole lattice")

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
