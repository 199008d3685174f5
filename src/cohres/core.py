"""Domain types for two-state superposition scattering data.

An :class:`AmplitudeTable` holds, at one total energy, the complex
transition amplitudes from the two superposed initial states into every
final state of every product arrangement, resolved on a polar-angle
quadrature grid.  All types are immutable after construction and safe to
share between threads; every operation in this package is a pure function
of its inputs.  A :class:`ChannelBlock` computes its per-node Grams once,
on the first ``differential_matrix`` of it, and keeps them read-only;
from Python 3.12 ``cached_property`` takes no lock, so concurrent first
calls can at worst compute the same values twice.

Tables are restricted to azimuthally symmetric scattering, so
``_pair_violations`` refuses two initial states of different helicity m:
their products would acquire an azimuthal dependence that a polar-only
grid cannot represent.

A table is checked when it is built, by hand, by the table reader or by
the synthesizer, so every table that exists is valid.  The argument rules
are functions here, one per rule (README's input-rule table).
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import FOUR_PI, wavenumber
from .errors import (
    ChannelClosedError,
    CohresError,
    NonPositiveError,
    TableValidationError,
    UnknownChannelError,
)

__all__ = [
    "ChannelState",
    "AngleGrid",
    "gauss_legendre_grid",
    "ChannelBlock",
    "AmplitudeTable",
    "SuperpositionKinematics",
    "kinematic_pair",
]

WEIGHT_SUM_RTOL = 1e-12
MAX_GRID_ORDER = 1024  # leggauss(n) builds a dense n x n matrix, 8 MB at the cap


def _frozen(a, dtype) -> np.ndarray:
    """A read-only C-contiguous copy of ``a``; the caller's array stays writable."""
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


def _index(x, what: str) -> int:
    """``x`` as a plain int; a bool or a non-integer is refused, as the file readers refuse it."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise CohresError(f"{what} must be an integer, got {x!r}")


def _label(x, what: str) -> str:
    """``x`` as a plain non-empty str; anything else is refused, as the file readers refuse it."""
    if isinstance(x, str) and x:
        return str(x)
    raise CohresError(f"{what} must be a non-empty string, got {x!r}")


def _items(x, what: str, kind: type | None = None) -> tuple:
    """The container rule of the records: ``x`` as a tuple if it is an iterable, never a str,
    whose items are all ``kind`` (for a field of numbers, ``kind`` is None and each item
    goes through ``_real`` or ``_complex``); anything else is refused."""
    if not isinstance(x, str):
        try:
            items = tuple(x)
        except TypeError:
            pass
        else:
            if kind is None:
                return items
            for i in items:
                if not isinstance(i, kind):
                    break
            else:
                return items
    of = "numbers" if kind is None else kind.__name__
    raise CohresError(f"{what} must be a sequence of {of}, got {x!r}")


def _instance(x, kind: type, what: str):
    """``x`` if it is a ``kind``, the rule of a record field that holds one record."""
    if isinstance(x, kind):
        return x
    article = "an" if kind.__name__[0] in "AEIOU" else "a"
    raise CohresError(f"{what} must be {article} {kind.__name__}, got {x!r}")


def _real(x, what: str) -> float:
    """``x`` as a plain float if it is a real number and not a bool; anything else is refused."""
    if isinstance(x, float) or (isinstance(x, numbers.Real) and not isinstance(x, bool)):
        return float(x)
    raise CohresError(f"{what} must be a real number, got {x!r}")


def _complex(x, what: str) -> complex:
    """``x`` as a plain complex if it is a finite number, not a bool; anything else is refused."""
    if type(x) is complex or (isinstance(x, numbers.Complex) and not isinstance(x, bool)):
        return _finite(complex(x), what)
    raise CohresError(f"{what} must be a complex number, got {x!r}")


def _finite(x, what: str):
    """``x``, a float or a complex, if it is finite; nan and inf are refused."""
    if cmath.isfinite(x):
        return x
    raise CohresError(f"{what} must be finite, got {x!r}")


def _positive(x, what: str) -> float:
    """The rule of a quantity that must be > 0: ``x`` as a plain finite float > 0 (``_real``,
    ``_finite``).  Anything else is a NonPositiveError, with the number rule's message
    for a value that is not a finite real number."""
    try:
        x = _finite(_real(x, what), what)
    except CohresError as exc:
        raise NonPositiveError(*exc.args) from None
    if x > 0.0:
        return x
    raise NonPositiveError(f"{what} must be > 0, got {x!r}")


def _quotient(n: float, d: float) -> float:
    """n / d for cross sections n, d >= 0: +inf when only d is 0, nan when both are."""
    if d == 0.0:
        return math.inf if n > 0.0 else math.nan
    return n / d


def _check_energies(energies) -> list[float]:
    """The rule for a scan's energies, which ``cohres scan`` checks before reading:
    a nonempty, strictly increasing list of finite plain floats (``_real``, ``_finite``)."""
    energies = [_finite(_real(e, "energies"), "energies") for e in energies]
    if not energies:
        raise CohresError("energies must be nonempty")
    if any(b <= a for a, b in zip(energies, energies[1:])):
        raise CohresError("energies must be strictly increasing")
    return energies


def _channel_pair(pair) -> tuple[str, str]:
    """The rule for a scan's channel pair: exactly two labels, as a tuple (``_items``)."""
    pair = _items(pair, "channel_pair", str)
    if len(pair) != 2:
        raise CohresError(f"channel_pair must hold exactly two labels, got {pair!r}")
    return pair


def _shape(shape) -> tuple[float, ...]:
    """A Legendre shape: a non-empty tuple of finite floats (``_items``, ``_real``, ``_finite``)."""
    shape = tuple(_finite(_real(c, "shape"), "shape") for c in _items(shape, "shape"))
    if not shape:
        raise CohresError("angular shape needs at least one Legendre coefficient")
    return shape


def _grid_order(x, what: str) -> int:
    """The grid-order rule of grids and scenarios: an integer in [1, MAX_GRID_ORDER], as an int."""
    n = _index(x, what)
    if not 1 <= n <= MAX_GRID_ORDER:
        error = NonPositiveError if n < 1 else CohresError
        raise error(f"{what} must lie in [1, {MAX_GRID_ORDER}], got {n}")
    return n


def _pair_violations(pair: tuple) -> list[str]:
    """The initial-pair rule of tables and scenarios: one message per violation."""
    if len(pair) != 2:
        return [f"initial_pair: need exactly two states, got {len(pair)}"]
    a, b = pair
    out = []
    if a == b:
        out.append("initial_pair: the two initial states must be distinct")
    if a.arrangement != b.arrangement:
        out.append(f"initial_pair: arrangements differ ({a.arrangement!r} vs {b.arrangement!r})")
    if a.m != b.m:
        out.append(
            "initial_pair: helicities differ; only azimuthally symmetric "
            "tables (equal m) are supported"
        )
    return out


def _channel_violations(channels) -> list[str]:
    """The channel rule of tables and scenarios over ``(label, states)`` pairs: labels are
    unique and each state carries its channel's label.  One message per violation."""
    out, seen = [], set()
    for label, states in channels:
        if label in seen:
            out.append(f"channel {label!r}: duplicate arrangement label")
        seen.add(label)
        out.extend(
            f"channel {label!r}: state {n} carries arrangement {s.arrangement!r}"
            for n, s in enumerate(states)
            if s.arrangement != label
        )
    return out


@dataclass(frozen=True, order=True)
class ChannelState:
    """One asymptotic scattering state: arrangement label plus (v, j, m).

    ``arrangement`` is taken by ``_label`` and ``v``, ``j`` and ``m`` by
    ``_index``; then v, j >= 0 and |m| <= j.
    """

    arrangement: str
    v: int
    j: int
    m: int = 0

    def __post_init__(self):
        object.__setattr__(self, "arrangement", _label(self.arrangement, "arrangement"))
        for name in ("v", "j", "m"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        if self.v < 0 or self.j < 0:
            raise CohresError(f"v and j must be >= 0, got v={self.v} j={self.j}")
        if abs(self.m) > self.j:
            raise CohresError(f"|m| <= j required, got j={self.j} m={self.m}")


@dataclass(frozen=True)
class AngleGrid:
    """Polar-angle nodes (radians) with quadrature weights (steradians).

    Weights absorb the 2*pi azimuthal factor and the sin(theta) measure, so
    for a quadrature grid they sum to 4*pi.  A single-node grid is allowed
    for purely angle-resolved tables and is exempt from the sum rule.

    A grid may exist invalid; :meth:`violations` lists what is wrong with
    it, and an :class:`AmplitudeTable` refuses it.  The list is computed
    once, here, since many tables share one grid.
    """

    nodes: np.ndarray
    weights: np.ndarray
    _violations: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen(self.nodes, float))
        object.__setattr__(self, "weights", _frozen(self.weights, float))
        object.__setattr__(self, "_violations", tuple(self._check()))

    def __len__(self) -> int:
        return self.nodes.size

    def nearest_node(self, theta: float) -> int:
        """Index of the node closest to ``theta`` (radians; ``_real``, ``_finite``)."""
        theta = _finite(_real(theta, "theta"), "theta")
        return int(np.argmin(np.abs(self.nodes - theta)))

    def violations(self) -> list[str]:
        """One message per violated grid invariant; empty for a valid grid."""
        return list(self._violations)

    def _check(self) -> list[str]:
        out = []
        if self.nodes.ndim != 1 or self.weights.ndim != 1:
            out.append("grid: nodes and weights must be one-dimensional")
            return out
        if self.nodes.size != self.weights.size:
            out.append(
                f"grid: {self.nodes.size} nodes but {self.weights.size} weights"
            )
            return out
        if self.nodes.size == 0:
            out.append("grid: empty")
            return out
        if not np.all(np.isfinite(self.nodes)) or not np.all(np.isfinite(self.weights)):
            out.append("grid: non-finite node or weight")
            return out
        if np.any(self.weights <= 0.0):
            out.append("grid: every weight must be > 0")
        if np.any(self.nodes <= 0.0) or np.any(self.nodes >= math.pi):
            out.append("grid: nodes must lie strictly inside (0, pi)")
        if self.nodes.size > 1:
            if np.any(np.diff(self.nodes) <= 0.0):
                out.append("grid: nodes must be strictly increasing")
            total = float(self.weights.sum())
            if abs(total - FOUR_PI) > WEIGHT_SUM_RTOL * FOUR_PI:
                out.append(
                    f"grid: weights sum to {total!r}, expected 4*pi = {FOUR_PI!r}"
                )
        return out


def gauss_legendre_grid(order: int) -> AngleGrid:
    """Gauss-Legendre grid in cos(theta) with weights summing to 4*pi.

    Exact for integrands polynomial in cos(theta) up to degree 2*order - 1.
    ``order`` is taken by ``_grid_order``.
    """
    x, w = leggauss(_grid_order(order, "grid order"))
    theta = np.arccos(x)[::-1]  # arccos is decreasing; reverse for increasing theta
    weights = 2.0 * math.pi * w[::-1]
    return AngleGrid(theta, weights)


@dataclass(frozen=True)
class ChannelBlock:
    """Amplitudes into one product arrangement.

    ``amplitudes[n, k, i]`` is the transition amplitude into final state n
    at angle node k from initial state i (column 0 or 1), in A*sr^(-1/2).
    They are stored as a read-only C-contiguous copy, so a block's Grams do
    not depend on the memory layout of the caller's array, which stays theirs.
    ``arrangement`` is taken by ``_label``, and ``states``, of
    ``ChannelState``, by ``_items``.
    """

    arrangement: str
    states: tuple[ChannelState, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "arrangement", _label(self.arrangement, "arrangement"))
        object.__setattr__(self, "states", _items(self.states, "states", ChannelState))
        object.__setattr__(self, "amplitudes", _frozen(self.amplitudes, complex))

    @cached_property
    def _node_grams(self) -> tuple[tuple[float, float, complex], ...]:
        """(sigma11, sigma22, sigma12) at each grid node, unweighted, as plain Python scalars.

        One pass over the block, on first use; a frozen instance keeps the
        tuple read-only.  Each entry is a sum over states along the last axis
        of a C-contiguous array, which numpy sums in the same pairwise order
        as ``.sum()`` of one node's slice, so the entries equal that bit for bit.
        """
        a = self.amplitudes
        diag = np.ascontiguousarray((np.abs(a) ** 2).transpose(1, 2, 0)).sum(axis=-1)
        cross = np.ascontiguousarray((np.conj(a[:, :, 0]) * a[:, :, 1]).T).sum(axis=-1)
        return tuple(zip(diag[:, 0].tolist(), diag[:, 1].tolist(), cross.tolist()))


@dataclass(frozen=True)
class AmplitudeTable:
    """All transition amplitudes out of one two-state superposition pair.

    The constructor checks every table invariant and raises
    TableValidationError with one message per violation, in the order:
    initial pair (``_pair_violations``), energy, grid, channel labels
    (``_channel_violations``), then each block's amplitudes.  A block whose
    amplitude shape is wrong gets no finiteness check.  ``energy`` is taken
    by ``_real``, whose refusal is listed as a violation.  ``initial_pair``
    and ``channels`` are taken by ``_items`` and ``grid`` by ``_instance``,
    whose refusal is raised first, not listed.
    """

    energy: float
    initial_pair: tuple[ChannelState, ChannelState]
    grid: AngleGrid
    channels: tuple[ChannelBlock, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "energy", _real(self.energy, "energy"))
        except CohresError:
            pass  # _check lists it with the other violations
        pair = _items(self.initial_pair, "initial_pair", ChannelState)
        object.__setattr__(self, "initial_pair", pair)
        _instance(self.grid, AngleGrid, "grid")
        object.__setattr__(self, "channels", _items(self.channels, "channels", ChannelBlock))
        violations = self._check()
        if violations:
            raise TableValidationError(violations)

    def _check(self) -> list[str]:
        out = _pair_violations(self.initial_pair)
        if type(self.energy) is not float:
            out.append(f"energy: must be a real number, got {self.energy!r}")
        elif not math.isfinite(self.energy):
            out.append("energy: must be finite")
        out.extend(self.grid.violations())
        out.extend(_channel_violations((b.arrangement, b.states) for b in self.channels))

        n_nodes = len(self.grid)
        for block in self.channels:
            label = block.arrangement
            expected = (len(block.states), n_nodes, 2)
            if block.amplitudes.shape != expected:
                out.append(
                    f"channel {label!r}: amplitude array has shape "
                    f"{block.amplitudes.shape}, expected {expected}"
                )
                continue
            if not np.isfinite(block.amplitudes).all():
                bad = np.argwhere(~np.isfinite(block.amplitudes))
                n, k, i = (int(x) for x in bad[0])
                out.append(
                    f"channel {label!r}: non-finite amplitude at state {n}, "
                    f"node {k}, column {i}"
                )
        return out

    def arrangements(self) -> tuple[str, ...]:
        return tuple(b.arrangement for b in self.channels)

    def channel(self, arrangement: str) -> ChannelBlock:
        for block in self.channels:
            if block.arrangement == arrangement:
                return block
        raise UnknownChannelError(
            f"no channel {arrangement!r}; table has {list(self.arrangements())}"
        )


@dataclass(frozen=True)
class SuperpositionKinematics:
    """Kinematic bookkeeping for the two degenerate-energy components.

    Both components share the same total energy E; they differ in internal
    energy and therefore in relative kinetic energy and wavenumber.  The
    equal-total-momentum condition of a lab-frame beam pair is a statement
    about beam preparation, not about these relative coordinates, and is
    not modelled here.
    """

    e1: float
    e2: float
    Ek1: float
    Ek2: float
    E: float
    mu: float
    k1: float
    k2: float


def kinematic_pair(e1: float, e2: float, Ek1: float, mu: float) -> SuperpositionKinematics:
    """Kinematics of a degenerate pair from one kinetic energy.

    Parameters
    ----------
    e1, e2 : float
        Internal energies of the two initial states (eV).
    Ek1 : float
        Relative kinetic energy of component 1 (eV).
    mu : float
        Collision reduced mass (amu).

    Raises
    ------
    CohresError
        If ``_real`` or ``_finite`` refuses e1 or e2.
    NonPositiveError
        If ``_positive`` refuses Ek1 or mu.
    ChannelClosedError
        If component 2 would be left with no kinetic energy
        (Ek1 + e1 <= e2).
    """
    e1, e2 = _finite(_real(e1, "e1"), "e1"), _finite(_real(e2, "e2"), "e2")
    Ek1, mu = _positive(Ek1, "Ek1"), _positive(mu, "mu")
    delta = e2 - e1
    if Ek1 <= delta:
        raise ChannelClosedError(
            f"component 2 closed: Ek1 + e1 = {Ek1 + e1!r} <= e2 = {e2!r}"
        )
    Ek2 = Ek1 - delta
    return SuperpositionKinematics(
        e1=e1,
        e2=e2,
        Ek1=Ek1,
        Ek2=Ek2,
        E=Ek1 + e1,
        mu=mu,
        k1=wavenumber(mu, Ek1),
        k2=wavenumber(mu, Ek2),
    )
