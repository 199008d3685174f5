"""Synthetic amplitude tables: isolated Breit-Wigner pole plus direct term.

The ground-truth generator for every controllability property.  An
isolated quasi-bound intermediate with complex energy eps_r - i*Gamma/2
produces transition amplitudes that factorize into an entrance coupling
(per initial state), an exit coupling with an angular shape (per final
state), and a shared Breit-Wigner energy denominator.  Factorization is
what saturates the Schwartz bound and makes complete control possible; a
smooth direct background, coupled identically to both initial states by
default, breaks it by a tunable amount.

Angular shapes are real Legendre series in cos(theta), so Gauss-Legendre
grids integrate them exactly and branching ratios have closed forms.
Couplings are taken energy-independent across a scan: the pole is then
the only sharp feature.  Units of the couplings are fixed only up to the
requirement that amplitudes carry A*sr^(-1/2); any constant is absorbed
into the exit couplings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import legval

from .constants import HBAR_EV_FS, TWO_PI
from .core import AmplitudeTable, AngleGrid, ChannelBlock, ChannelState
from .core import _complex, _finite, _instance, _items, _label, _real
from .errors import CohresError, NonPositiveError, SpecMismatchError, UnknownChannelError

__all__ = [
    "ExitState",
    "ExitChannel",
    "ResonanceSpec",
    "BackgroundState",
    "BackgroundChannel",
    "BackgroundSpec",
    "breit_wigner_factor",
    "width_from_lifetime",
    "lifetime_from_width",
    "legendre_shape_norm",
    "resonance_branching_ratio",
    "synthesize_table",
    "synthesis_basis",
]


def _shape(shape) -> tuple[float, ...]:
    """A Legendre shape as a non-empty tuple of finite floats (``core._real``, ``_finite``)."""
    shape = tuple(_finite(_real(c, "shape"), "shape") for c in _items(shape, "shape"))
    if not shape:
        raise CohresError("angular shape needs at least one Legendre coefficient")
    return shape


@dataclass(frozen=True)
class ExitState:
    """Decay of the intermediate into one final state.

    ``shape`` holds real Legendre coefficients in cos(theta) describing the
    angular distribution of the decay amplitude.
    """

    state: ChannelState
    coupling: complex
    shape: tuple[float, ...]

    def __post_init__(self):
        _instance(self.state, ChannelState, "state")
        object.__setattr__(self, "coupling", _complex(self.coupling, "coupling"))
        object.__setattr__(self, "shape", _shape(self.shape))


@dataclass(frozen=True)
class ExitChannel:
    arrangement: str
    states: tuple[ExitState, ...]

    def __post_init__(self):
        object.__setattr__(self, "arrangement", _label(self.arrangement, "arrangement"))
        object.__setattr__(self, "states", _items(self.states, "states", ExitState))


@dataclass(frozen=True)
class ResonanceSpec:
    """Factorized pole term: position, total width, and couplings.

    ``entrance`` couples the intermediate to the two initial states;
    ``exits`` list, per product arrangement, the final states it decays
    into.  The complex resonance energy is eps_r - i*Gamma/2 (decaying
    state, lower half plane).  Every number is stored plain and finite
    (see ``core._real``, ``_complex`` and ``_finite``).
    """

    epsilon_r: float
    gamma_width: float
    entrance: tuple[complex, complex]
    exits: tuple[ExitChannel, ...]

    def __post_init__(self):
        for name in ("epsilon_r", "gamma_width"):
            object.__setattr__(self, name, _finite(_real(getattr(self, name), name), name))
        entrance = tuple(_complex(g, "entrance") for g in _items(self.entrance, "entrance"))
        object.__setattr__(self, "entrance", entrance)
        if self.gamma_width <= 0.0:
            raise NonPositiveError(f"gamma_width must be > 0, got {self.gamma_width!r}")
        object.__setattr__(self, "exits", _items(self.exits, "exits", ExitChannel))
        if len(self.entrance) != 2:
            raise CohresError("entrance must couple exactly two initial states")
        if not any(s.coupling != 0 for ch in self.exits for s in ch.states):
            raise CohresError("at least one exit coupling must be nonzero")

    @cached_property
    def _coverage(self) -> tuple[tuple[str, tuple[ChannelState, ...]], ...]:
        """``(arrangement, states)`` of each exit channel, in order; built once per spec."""
        return _coverage(self.exits)

    @property
    def complex_energy(self) -> complex:
        return self.epsilon_r - 0.5j * self.gamma_width

    def exit_channel(self, arrangement: str) -> ExitChannel:
        for ch in self.exits:
            if ch.arrangement == arrangement:
                return ch
        raise UnknownChannelError(f"no exit channel {arrangement!r}")


@dataclass(frozen=True)
class BackgroundState:
    """Direct amplitude into one final state: value at a reference energy,
    linear slope per eV, and an angular shape (Legendre in cos(theta)).

    ``column_weights`` lets the direct term couple asymmetrically to the
    two initial states; the default (1, 1) couples identically to both.
    """

    state: ChannelState
    amplitude: complex
    slope: complex
    shape: tuple[float, ...]
    column_weights: tuple[complex, complex] = (1.0 + 0.0j, 1.0 + 0.0j)

    def __post_init__(self):
        _instance(self.state, ChannelState, "state")
        for name in ("amplitude", "slope"):
            object.__setattr__(self, name, _complex(getattr(self, name), name))
        object.__setattr__(self, "shape", _shape(self.shape))
        weights = _items(self.column_weights, "column_weights")
        weights = tuple(_complex(w, "column_weights") for w in weights)
        object.__setattr__(self, "column_weights", weights)
        if len(self.column_weights) != 2:
            raise CohresError("column_weights must have exactly two entries")


@dataclass(frozen=True)
class BackgroundChannel:
    """Direct term for one product arrangement."""

    arrangement: str
    states: tuple[BackgroundState, ...]

    def __post_init__(self):
        object.__setattr__(self, "arrangement", _label(self.arrangement, "arrangement"))
        object.__setattr__(self, "states", _items(self.states, "states", BackgroundState))


@dataclass(frozen=True)
class BackgroundSpec:
    reference_energy: float
    channels: tuple[BackgroundChannel, ...] = field(default_factory=tuple)

    def __post_init__(self):
        energy = _real(self.reference_energy, "reference_energy")
        object.__setattr__(self, "reference_energy", _finite(energy, "reference_energy"))
        object.__setattr__(self, "channels", _items(self.channels, "channels", BackgroundChannel))

    @cached_property
    def _coverage(self) -> tuple[tuple[str, tuple[ChannelState, ...]], ...]:
        """``(arrangement, states)`` of each channel, in order; built once per spec."""
        return _coverage(self.channels)


def _coverage(channels) -> tuple[tuple[str, tuple[ChannelState, ...]], ...]:
    """The ``(arrangement, states)`` pairs that resonance and background must share.

    A spec keeps its own as ``_coverage`` (a ``cached_property``: the
    specs are frozen, and the value lives outside the dataclass fields, so
    it never enters ``repr``, ``==`` or ``dataclasses.replace``).
    """
    return tuple((ch.arrangement, tuple(s.state for s in ch.states)) for ch in channels)


def breit_wigner_factor(energy: float, spec: ResonanceSpec) -> complex:
    """Resonance denominator 1 / (E - eps_r + i*Gamma/2), in 1/eV.

    On resonance this is -2i/Gamma; |factor|^2 is a Lorentzian of full
    width Gamma at half maximum.  Never singular for Gamma > 0.
    """
    return 1.0 / complex(energy - spec.epsilon_r, 0.5 * spec.gamma_width)


def width_from_lifetime(tau_fs: float) -> float:
    """Total width Gamma = hbar / tau, tau in femtoseconds, Gamma in eV."""
    if tau_fs <= 0.0:
        raise NonPositiveError(f"lifetime must be > 0, got {tau_fs!r}")
    return HBAR_EV_FS / tau_fs


def lifetime_from_width(gamma_ev: float) -> float:
    """Lifetime tau = hbar / Gamma, Gamma in eV, tau in femtoseconds."""
    if gamma_ev <= 0.0:
        raise NonPositiveError(f"width must be > 0, got {gamma_ev!r}")
    return HBAR_EV_FS / gamma_ev


def legendre_shape_norm(shape: tuple[float, ...] | list[float]) -> float:
    """Solid-angle norm of a Legendre shape: integral of |shape(cos theta)|^2.

    Orthogonality gives 2*pi * sum_l c_l^2 * 2/(2l+1) exactly.
    """
    return TWO_PI * sum(c * c * 2.0 / (2 * l + 1) for l, c in enumerate(shape))


def resonance_branching_ratio(spec: ResonanceSpec, channel_a: str, channel_b: str) -> float:
    """Ratio of resonance decay fluxes into two product arrangements.

    sum_n |coupling_n|^2 * norm(shape_n) over channel_a divided by the same
    over channel_b.  For purely pole-mediated scattering this is the exact
    cross-section ratio, independent of energy and of the control
    parameters.
    """

    def flux(label: str) -> float:
        ch = spec.exit_channel(label)
        return sum(abs(s.coupling) ** 2 * legendre_shape_norm(s.shape) for s in ch.states)

    return flux(channel_a) / flux(channel_b)


def _check_specs(res: ResonanceSpec, bg: BackgroundSpec, mix: float) -> float:
    """Refuse specs that cannot be synthesized together; return ``mix`` as a plain float."""
    mix = _real(mix, "mix")
    if not 0.0 <= mix <= 1.0:
        raise CohresError(f"mix must lie in [0, 1], got {mix!r}")
    if res._coverage != bg._coverage:
        raise SpecMismatchError(
            f"resonance covers {list(res._coverage)}, background covers {list(bg._coverage)} "
            "(same channels, same states, same order required)"
        )
    return mix


def synthesize_table(
    res: ResonanceSpec,
    bg: BackgroundSpec,
    grid: AngleGrid,
    energy: float,
    initial_pair: tuple[ChannelState, ChannelState],
    mix: float,
    *,
    basis: Sequence[np.ndarray] | None = None,
) -> AmplitudeTable:
    """Amplitude table of a pole plus direct term at one total energy.

    For final state n at angle node k, column i:

        f[n, k, i] = mix * exit_n * shape_n(cos theta_k) * entrance_i * bw(E)
                   + (1 - mix) * bg_n(E) * shape'_n(cos theta_k) * w_i

    with bw the Breit-Wigner factor, bg_n(E) the linear-in-energy direct
    amplitude and w_i the per-column background weights.  ``mix`` = 1 gives
    a purely pole-mediated (factorized) table, ``mix`` = 0 a purely direct
    one.  Resonance and background must cover identical channel and state
    lists (SpecMismatchError otherwise), and ``mix`` must be a real number
    in [0, 1].  ``energy`` is taken as a plain float before any arithmetic;
    a bool or a complex energy raises the table's TableValidationError.

    Every table is combined by one formula, bw(E)*P + D + (E - E_ref)*S,
    from the energy-independent terms of ``synthesis_basis``.  A caller
    that synthesizes many energies passes that basis of these same
    arguments as ``basis`` and skips the energy-independent work; without
    it, the basis is built here.  Either way the amplitudes are the same
    bits.
    """
    if basis is None:
        basis = synthesis_basis(res, bg, grid, mix)
    else:
        _check_specs(res, bg, mix)
        shapes = [(3, len(states), len(grid), 2) for _, states in res._coverage]
        if [np.shape(b) for b in basis] != shapes:
            raise CohresError(
                f"basis shapes {[np.shape(b) for b in basis]} do not match the specs "
                f"and grid, expected {shapes}"
            )
    try:
        energy = _real(energy, "energy")  # NumPy keeps float32 - float in single precision
    except CohresError:
        pass  # the table lists it with its other violations
    bw = breit_wigner_factor(energy, res)
    t = energy - bg.reference_energy
    blocks = tuple(
        ChannelBlock(label, states, bw * b[0] + b[1] + t * b[2])
        for (label, states), b in zip(res._coverage, basis)
    )
    return AmplitudeTable(energy, tuple(initial_pair), grid, blocks)


def synthesis_basis(
    res: ResonanceSpec, bg: BackgroundSpec, grid: AngleGrid, mix: float
) -> tuple[np.ndarray, ...]:
    """Energy-independent terms of ``synthesize_table``, one array per channel.

    Couplings, shapes and background terms do not depend on energy, so the
    amplitudes of channel ``c`` at energy E are

        f(E) = bw(E) * B[0] + B[1] + (E - E_ref) * B[2]

    for the returned ``B = basis[c]`` of shape (3, n_states, n_nodes, 2):
    the pole term P, the direct term at the reference energy D and the
    direct slope S, stacked.  ``synthesize_table`` combines every table
    from it; passed as its ``basis=``, it is computed once for a whole
    scan.  Channels follow ``res.exits``; the ``mix`` and coverage checks
    are those of ``synthesize_table``.
    """
    mix = _check_specs(res, bg, mix)

    x = np.cos(grid.nodes)
    entrance = np.array(res.entrance)
    bases = []
    for res_ch, bg_ch in zip(res.exits, bg.channels):
        basis = np.empty((3, len(res_ch.states), len(grid), 2), dtype=complex)
        for n, (res_st, bg_st) in enumerate(zip(res_ch.states, bg_ch.states)):
            pole = mix * res_st.coupling * legval(x, list(res_st.shape))
            direct = np.outer((1.0 - mix) * legval(x, list(bg_st.shape)), bg_st.column_weights)
            basis[0, n] = np.outer(pole, entrance)
            basis[1, n] = bg_st.amplitude * direct
            basis[2, n] = bg_st.slope * direct
        bases.append(basis)
    return tuple(bases)

