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

import numpy as np
from numpy.polynomial.legendre import legval

from .constants import HBAR_EV_FS, TWO_PI
from .core import AmplitudeTable, AngleGrid, ChannelBlock, ChannelState, _complex, _finite
from .core import _instance, _items, _label, _positive, _quotient, _real, _shape
from .errors import CohresError, SpecMismatchError, UnknownChannelError

__all__ = [
    "ExitState",
    "ExitChannel",
    "ResonanceSpec",
    "BackgroundState",
    "BackgroundChannel",
    "BackgroundSpec",
    "SynthesisBasis",
    "breit_wigner_factor",
    "width_from_lifetime",
    "lifetime_from_width",
    "legendre_shape_norm",
    "resonance_branching_ratio",
    "synthesize_table",
]


@dataclass(frozen=True)
class ExitState:
    """Decay of the intermediate into one final state.

    ``shape`` holds real Legendre coefficients in cos(theta) describing the
    angular distribution of the decay amplitude (``core._shape``).
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
    state, lower half plane).  ``epsilon_r`` is taken by ``core._real`` and
    ``_finite``, ``gamma_width`` by ``core._positive``, ``entrance`` by
    ``core._items`` and ``_complex``, and ``exits`` by ``core._items``.
    """

    epsilon_r: float
    gamma_width: float
    entrance: tuple[complex, complex]
    exits: tuple[ExitChannel, ...]

    def __post_init__(self):
        epsilon_r = _finite(_real(self.epsilon_r, "epsilon_r"), "epsilon_r")
        object.__setattr__(self, "epsilon_r", epsilon_r)
        object.__setattr__(self, "gamma_width", _positive(self.gamma_width, "gamma_width"))
        entrance = tuple(_complex(g, "entrance") for g in _items(self.entrance, "entrance"))
        object.__setattr__(self, "entrance", entrance)
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
    """Total width Gamma = hbar / tau, tau in femtoseconds, Gamma in eV.

    ``tau_fs`` is taken by ``core._positive``.
    """
    return HBAR_EV_FS / _positive(tau_fs, "lifetime")


def lifetime_from_width(gamma_ev: float) -> float:
    """Lifetime tau = hbar / Gamma, Gamma in eV, tau in femtoseconds.

    ``gamma_ev`` is taken by ``core._positive``.
    """
    return HBAR_EV_FS / _positive(gamma_ev, "width")


def legendre_shape_norm(shape: tuple[float, ...] | list[float]) -> float:
    """Solid-angle norm of a Legendre shape: integral of |shape(cos theta)|^2.

    Orthogonality gives 2*pi * sum_l c_l^2 * 2/(2l+1) exactly.  ``shape``
    is taken by ``core._shape``, as a spec's is.
    """
    return TWO_PI * sum(c * c * 2.0 / (2 * l + 1) for l, c in enumerate(_shape(shape)))


def resonance_branching_ratio(spec: ResonanceSpec, channel_a: str, channel_b: str) -> float:
    """Ratio of resonance decay fluxes into two product arrangements.

    sum_n |coupling_n|^2 * norm(shape_n) over channel_a divided by the same
    over channel_b.  For purely pole-mediated scattering this is the exact
    cross-section ratio, independent of energy and of the control
    parameters.  The quotient is ``core._quotient``'s, as every
    cross-section ratio here.
    """

    def flux(label: str) -> float:
        amplitudes = ((abs(s.coupling), s.shape) for s in spec.exit_channel(label).states)
        return sum(a * a * legendre_shape_norm(shape) for a, shape in amplitudes)

    return _quotient(flux(channel_a), flux(channel_b))


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


@dataclass(frozen=True, eq=False)
class SynthesisBasis:
    """Energy-independent terms of every table of one pole plus background.

    The amplitudes at energy E are

        f(E) = bw(E) * terms[0] + terms[1] + (E - E_ref) * terms[2]

    with ``terms`` of shape (3, n_states, n_nodes, 2): the pole term P, the
    direct term at the reference energy D and the direct slope S.  The
    state axis stacks every channel's final states in ``resonance.exits``
    order.  ``resonance``, ``background`` and ``grid`` are taken by
    ``core._instance``, the specs and ``mix`` by ``_check_specs``, once;
    ``terms`` is derived from them, read-only and not in ``repr``.  A basis
    holds arrays, so it equals only itself.
    """

    resonance: ResonanceSpec
    background: BackgroundSpec
    grid: AngleGrid
    mix: float
    terms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _instance(self.resonance, ResonanceSpec, "resonance")
        _instance(self.background, BackgroundSpec, "background")
        _instance(self.grid, AngleGrid, "grid")
        mix = _check_specs(self.resonance, self.background, self.mix)
        object.__setattr__(self, "mix", mix)
        x = np.cos(self.grid.nodes)
        entrance = np.array(self.resonance.entrance)
        channels = zip(self.resonance.exits, self.background.channels)
        pairs = [pair for res_ch, bg_ch in channels for pair in zip(res_ch.states, bg_ch.states)]
        terms = np.empty((3, len(pairs), len(self.grid), 2), dtype=complex)
        for n, (res_st, bg_st) in enumerate(pairs):
            pole = mix * res_st.coupling * legval(x, list(res_st.shape))
            direct = np.outer((1.0 - mix) * legval(x, list(bg_st.shape)), bg_st.column_weights)
            terms[0, n] = np.outer(pole, entrance)
            terms[1, n] = bg_st.amplitude * direct
            terms[2, n] = bg_st.slope * direct
        terms.setflags(write=False)
        object.__setattr__(self, "terms", terms)


def synthesize_table(
    basis: SynthesisBasis, energy: float, initial_pair: tuple[ChannelState, ChannelState]
) -> AmplitudeTable:
    """Amplitude table of a pole plus direct term at one total energy.

    For final state n at angle node k, column i:

        f[n, k, i] = mix * exit_n * shape_n(cos theta_k) * entrance_i * bw(E)
                   + (1 - mix) * bg_n(E) * shape'_n(cos theta_k) * w_i

    with bw the Breit-Wigner factor, bg_n(E) the linear-in-energy direct
    amplitude and w_i the per-column background weights.  ``mix`` = 1 gives
    a purely pole-mediated (factorized) table, ``mix`` = 0 a purely direct
    one.  The amplitudes are ``basis``'s formula, evaluated once over all
    channels' states; each channel's block is its slice.  ``energy`` is
    taken by ``core._real`` before any arithmetic; an energy it refuses is
    listed in the table's TableValidationError.
    """
    try:
        energy = _real(energy, "energy")  # NumPy keeps float32 - float in single precision
    except CohresError:
        bw = t = 0.0  # no amplitude depends on it; the table lists it with its other violations
    else:
        bw = breit_wigner_factor(energy, basis.resonance)
        t = energy - basis.background.reference_energy
    pole, direct, slope = basis.terms
    amplitudes = bw * pole + direct + t * slope
    blocks, end = [], 0
    for label, states in basis.resonance._coverage:
        start, end = end, end + len(states)
        blocks.append(ChannelBlock(label, states, amplitudes[start:end]))
    return AmplitudeTable(energy, initial_pair, basis.grid, tuple(blocks))
