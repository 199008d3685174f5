"""Interference cross-section matrices and the controlled cross section.

For a superposition c1|1> + c2|2> scattering into one product arrangement,
the observable cross section is the quadratic form c^H M c of the 2x2
Hermitian matrix

    M = [[sigma11, sigma12], [conj(sigma12), sigma22]],

where sigma11 and sigma22 are the ordinary cross sections out of the pure
initial states and sigma12 is the complex interference term.  M is a Gram
matrix of the amplitude columns, hence positive semidefinite, and
|sigma12| <= sqrt(sigma11*sigma22) (Schwartz); the closer that bound is to
saturation, the wider the controllable range.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .core import AmplitudeTable, _real
from .errors import CohresError, DegenerateChannelError, NodeOutOfRangeError

__all__ = [
    "XsecMatrix",
    "ControlParams",
    "cross_section_matrix",
    "differential_matrix",
    "controlled_cross_section",
    "quadratic_form",
    "schwartz_ratio",
]

SLACK = 1e-10  # relative to sigma11 + sigma22: what XsecMatrix forgives as rounding


def _reduce_phase(phi: float) -> float:
    p = math.fmod(phi, TWO_PI)
    if p < 0.0:
        p += TWO_PI
    if p >= TWO_PI:
        p = 0.0
    return p


@dataclass(frozen=True)
class ControlParams:
    """A point in control space: relative weight s and relative phase phi12.

    s = |c2|^2 / (|c1|^2 + |c2|^2) in [0, 1]; phi12 = Arg(c2/c1), stored
    reduced to [0, 2*pi).  Both are real numbers, stored as plain floats
    (see ``core._real``).
    """

    s: float
    phi12: float

    def __post_init__(self):
        s, phi12 = _real(self.s, "s"), _real(self.phi12, "phi12")
        if not 0.0 <= s <= 1.0:
            raise CohresError(f"s must lie in [0, 1], got {s!r}")
        if not math.isfinite(phi12):
            raise CohresError(f"phi12 must be finite, got {phi12!r}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "phi12", _reduce_phase(phi12))

    def coefficients(self) -> tuple[float, complex]:
        """Unit superposition coefficients (c1 real >= 0, c2 complex)."""
        c1 = math.sqrt(1.0 - self.s)
        c2 = math.sqrt(self.s) * cmath.exp(1j * self.phi12)
        return c1, c2


@dataclass(frozen=True)
class XsecMatrix:
    """2x2 Hermitian interference matrix for one product arrangement.

    ``kind`` is "integral" (units A^2) or "differential" (units A^2/sr), in
    which case ``node`` records the angle-grid index.  Only the upper
    triangle is stored; sigma21 is conj(sigma12) by definition.

    Only this constructor decides that M is PSD within ``SLACK * trace``
    (~4.5e5 eps, far above a Gram sum's rounding).  A diagonal that far
    below 0 is stored as 0, |sigma12| may exceed sqrt(sigma11*sigma22) by
    as much, and more raises CohresError.  Functions of M only clamp.
    """

    channel: str
    kind: str
    sigma11: float
    sigma22: float
    sigma12: complex
    node: int | None = None

    def __post_init__(self):
        if self.kind not in ("integral", "differential"):
            raise CohresError(f"kind must be integral|differential, got {self.kind!r}")
        if (self.kind == "differential") != (self.node is not None):
            raise CohresError("node index is required iff kind == differential")
        for name in ("sigma11", "sigma22"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise CohresError(f"{name} must be finite, got {v!r}")
            if v < 0.0:
                if v < -SLACK * (float(self.sigma11) + float(self.sigma22)):
                    raise CohresError(f"{name} = {v!r} is negative beyond the trace's slack")
                v = 0.0
            object.__setattr__(self, name, v)
        s12 = complex(self.sigma12)
        if not (math.isfinite(s12.real) and math.isfinite(s12.imag)):
            raise CohresError(f"sigma12 must be finite, got {s12!r}")
        root = math.sqrt(self.sigma11) * math.sqrt(self.sigma22)  # the product may underflow
        if abs(s12) > root + SLACK * self.trace:
            raise CohresError(
                f"|sigma12| = {abs(s12)!r} violates the Schwartz bound "
                f"sqrt(sigma11*sigma22) = {root!r}"
            )
        object.__setattr__(self, "sigma12", s12)

    @property
    def trace(self) -> float:
        return self.sigma11 + self.sigma22

    @property
    def det(self) -> float:
        return self.sigma11 * self.sigma22 - abs(self.sigma12) ** 2

    def as_array(self) -> np.ndarray:
        return np.array(
            [[self.sigma11, self.sigma12], [self.sigma12.conjugate(), self.sigma22]],
            dtype=complex,
        )


def _gram(f: np.ndarray, weights: np.ndarray) -> tuple[float, float, complex]:
    """Weighted Gram entries of the two amplitude columns.

    ``f`` has shape (n_states, n_nodes, 2); ``weights`` has shape (n_nodes,).
    """
    p = weights[:, np.newaxis] * np.abs(f) ** 2
    s12 = (weights * np.conj(f[:, :, 0]) * f[:, :, 1]).sum()
    return float(p[:, :, 0].sum()), float(p[:, :, 1].sum()), complex(s12)


def cross_section_matrix(table: AmplitudeTable, channel: str) -> XsecMatrix:
    """Integral interference matrix for one product arrangement.

    sigma(i,j) = sum_k w_k sum_n conj(f_{n,i}(theta_k)) f_{n,j}(theta_k),
    i.e. the quadrature over the product sphere of the angle-resolved Gram
    matrix.  Raises UnknownChannelError for an absent label.
    """
    block = table.channel(channel)
    s11, s22, s12 = _gram(block.amplitudes, table.grid.weights)
    return XsecMatrix(channel=channel, kind="integral", sigma11=s11, sigma22=s22, sigma12=s12)


def differential_matrix(table: AmplitudeTable, channel: str, node: int) -> XsecMatrix:
    """Angle-resolved interference matrix at one grid node (A^2/sr).

    No quadrature weight is applied; the sum runs over final states only.
    ``node`` must index the stored grid (no interpolation), else NodeOutOfRangeError.
    The block's first call sums every node at once and keeps the result.
    """
    block = table.channel(channel)
    n_nodes = len(table.grid)
    if not 0 <= node < n_nodes:
        raise NodeOutOfRangeError(f"node {node} outside grid of {n_nodes} nodes")
    s11, s22, s12 = block._node_grams[node]
    return XsecMatrix(
        channel=channel, kind="differential", sigma11=s11, sigma22=s22, sigma12=s12, node=node
    )


def quadratic_form(
    m: XsecMatrix, s: float | np.ndarray, phi: float | np.ndarray
) -> float | np.ndarray:
    """The quadratic form c^H M c at control points (s, phi12), unclamped.

    Evaluates (1-s)*sigma11 + s*sigma22
    + 2*sqrt(s(1-s))*|sigma12|*cos(Arg(sigma12) + phi12).  ``s`` and
    ``phi`` broadcast against each other, so scalars give one point and
    ``s[:, None], phi[None, :]`` give a whole lattice.  Each point carries
    an absolute rounding error of a few eps*(sigma11 + sigma22), so a
    point near the form's null direction has a large relative error and
    may come out slightly negative; callers clamp.
    """
    base, amp, cos = _form_terms(m, s, phi)
    return base + amp * cos


def _form_terms(m: XsecMatrix, s: float | np.ndarray, phi: float | np.ndarray) -> tuple:
    """``quadratic_form``'s three factors, the form being base + amp * cos.

    base = (1-s)*sigma11 + s*sigma22 and amp = 2*sqrt(s(1-s))*|sigma12|
    depend on ``s`` only, cos = cos(Arg(sigma12) + phi12) on ``phi`` only,
    so a lattice forms each once and combines them per point.
    """
    base = (1.0 - s) * m.sigma11 + s * m.sigma22
    amp = 2.0 * np.sqrt(s * (1.0 - s)) * abs(m.sigma12)
    return base, amp, np.cos(cmath.phase(m.sigma12) + phi)


def controlled_cross_section(m: XsecMatrix, p: ControlParams) -> float:
    """Cross section of the superposition at control point (s, phi12).

    The ``quadratic_form`` at the unit coefficients of ``p``, clamped at 0;
    never raises, since ``XsecMatrix`` has accepted ``m``.
    """
    return max(float(quadratic_form(m, p.s, p.phi12)), 0.0)


def schwartz_ratio(m: XsecMatrix) -> float:
    """Resonance-mediation diagnostic |sigma12| / sqrt(sigma11*sigma22).

    Equals 1 exactly when every final state at every angle is reached
    through one common intermediate (the amplitude columns are then
    proportional), and drops below 1 in the presence of direct scattering;
    clamped to 1, as ``XsecMatrix``'s slack admits a little more.  Raises
    DegenerateChannelError when either diagonal vanishes.

    sqrt(sigma11*sigma22) is formed from the significands and exponents of
    the diagonals, so it neither underflows nor overflows; wherever the
    plain product does neither, the two are equal bit for bit.
    """
    if m.sigma11 <= 0.0 or m.sigma22 <= 0.0:
        raise DegenerateChannelError(
            f"schwartz ratio undefined: sigma11={m.sigma11!r} sigma22={m.sigma22!r}"
        )
    (f11, e11), (f22, e22) = math.frexp(m.sigma11), math.frexp(m.sigma22)
    e = e11 + e22  # sigma11*sigma22 = f11*f22 * 2**e with f11*f22 in [1/4, 1)
    root = math.ldexp(math.sqrt(math.ldexp(f11 * f22, e & 1)), e >> 1)
    return min(abs(m.sigma12) / root, 1.0)
