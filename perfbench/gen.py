"""Seeded input generators for the ``tables`` and ``oracle_lattice`` workloads.

Inputs are built from numpy's default generator and closed-form identities
(Gauss-Legendre nodes, Legendre norms, Cholesky-built pencils), never from
``cohres.resonance`` or ``cohres.control``.  The generator therefore knows
each instance's intended answer (ratio regime, branching ratio, kappa)
independently of the code under test, and a change to the synthesizer or
the solvers cannot change what the benchmark feeds in.

The same seed gives the same inputs: every draw comes from one
``numpy.random.default_rng((seed, stream))`` per workload.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from cohres import AmplitudeTable, AngleGrid, ChannelBlock, ChannelState, XsecMatrix

TABLES_STREAM = 1
ORACLE_STREAM = 2

# tables: grid order, states per channel, channels, integral ratio regime
GRID_ORDERS = (16, 64, 256)
STATES_PER_CHANNEL = (1, 2, 3, 4, 5, 6)
CHANNEL_COUNTS = (2, 3)
REGIMES = ("degenerate", "finite", "unbounded")
ARRANGEMENTS = ("A+BC", "B+AC", "C+AB")
INITIAL = (ChannelState("X+YZ", 0, 0, 0), ChannelState("X+YZ", 0, 1, 0))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), stream))


def gl_grid(order: int) -> AngleGrid:
    """Gauss-Legendre polar grid: increasing theta, weights summing to 4*pi."""
    x, w = np.polynomial.legendre.leggauss(order)
    return AngleGrid(np.arccos(x)[::-1], 2.0 * math.pi * w[::-1])


def legendre_norm(shape) -> float:
    """Integral over the sphere of |sum_l c_l P_l(cos theta)|^2."""
    return 2.0 * math.pi * sum(c * c * 2.0 / (2 * l + 1) for l, c in enumerate(shape))


def _shape(rng: np.random.Generator) -> tuple[float, float, float]:
    # c0 >= 0.8 dominates |c1| <= 0.3 and |c2 P2| <= 0.2: positive on [-1, 1]
    return (
        float(rng.uniform(0.8, 1.2)),
        float(rng.uniform(-0.3, 0.3)),
        float(rng.uniform(-0.2, 0.2)),
    )


def _complex(rng: np.random.Generator, lo: float = 0.3, hi: float = 2.0) -> complex:
    return cmath.rect(float(rng.uniform(lo, hi)), float(rng.uniform(0.0, 2.0 * math.pi)))


@dataclass(frozen=True)
class TableCase:
    """One generated table with the answers the generator intends.

    ``regime`` is the integral ratio regime of channel 0 over channel 1;
    ``node_regime`` the regime at every grid node; ``branching`` the exact
    flux ratio of the pair for shared-pole tables (None otherwise).
    """

    table: AmplitudeTable
    regime: str
    node_regime: str
    branching: float | None

    @property
    def pair(self) -> tuple[str, str]:
        return self.table.channels[0].arrangement, self.table.channels[1].arrangement


def make_table(
    rng: np.random.Generator, order: int, n_states: int, n_channels: int, regime: str
) -> TableCase:
    """A pole-plus-direct table whose pair ratio falls in ``regime``.

    Amplitudes are ``c_n S_n(x) bw g_i`` (one shared pole, rank one per
    node) plus, where the regime asks for it, a direct term
    ``d_n Q_n(x) w_ni`` whose column weights differ from the pole's.

    * degenerate: every channel is pure pole, so the pair is proportional
      at every node and integrated; the ratio is the flux ratio.
    * finite: every channel has a direct term, so both matrices have rank
      two when integrated (and per node when a channel has two or more
      states; one state gives a rank-one, hence unbounded, node ratio).
    * unbounded: the denominator (channel 1) is pure pole, rank one, and
      the numerator is not proportional to it.
    """
    grid = gl_grid(order)
    x = np.cos(grid.nodes)
    bw = _complex(rng, 0.5, 2.0)
    g = np.array([_complex(rng), _complex(rng)])
    blocks = []
    fluxes = []
    for c in range(n_channels):
        label = ARRANGEMENTS[c]
        direct = regime == "finite" or (regime == "unbounded" and c != 1)
        amps = np.empty((n_states, order, 2), dtype=complex)
        flux = 0.0
        for n in range(n_states):
            coupling = _complex(rng)
            shape = _shape(rng)
            flux += abs(coupling) ** 2 * legendre_norm(shape)
            pole = coupling * bw * np.polynomial.legendre.legval(x, shape)
            amps[n] = pole[:, None] * g[None, :]
            if direct:
                d = _complex(rng, 0.3, 1.5) * np.polynomial.legendre.legval(x, _shape(rng))
                w = np.array([1.0, _complex(rng, 0.3, 1.5)])
                amps[n] += d[:, None] * w[None, :]
        fluxes.append(flux)
        states = tuple(ChannelState(label, 0, j, 0) for j in range(n_states))
        blocks.append(ChannelBlock(label, states, amps))
    table = AmplitudeTable(float(rng.uniform(0.1, 1.0)), INITIAL, grid, tuple(blocks))
    if regime == "finite" and n_states == 1:
        node_regime = "unbounded"
    else:
        node_regime = regime
    branching = fluxes[0] / fluxes[1] if regime == "degenerate" else None
    return TableCase(table, regime, node_regime, branching)


def table_pool(seed: int) -> list[TableCase]:
    """Every (order, states, channels, regime) combination once, in seeded order."""
    rng = _rng(seed, TABLES_STREAM)
    combos = list(itertools.product(GRID_ORDERS, STATES_PER_CHANNEL, CHANNEL_COUNTS, REGIMES))
    order = rng.permutation(len(combos))
    return [make_table(rng, *combos[i]) for i in order]


# ---------------------------------------------------------------- oracle


def _matrix(channel: str, m: np.ndarray) -> XsecMatrix:
    return XsecMatrix(channel, "integral", float(m[0, 0].real), float(m[1, 1].real), complex(m[0, 1]))


def _s_of(v: np.ndarray) -> float:
    n1, n2 = abs(v[0]) ** 2, abs(v[1]) ** 2
    return n2 / (n1 + n2)


def _unit_pair(rng: np.random.Generator) -> np.ndarray:
    """Random 2x2 unitary (columns orthonormal)."""
    theta = rng.uniform(0.0, math.pi / 2.0)
    chi = rng.uniform(0.0, 2.0 * math.pi)
    v = np.array([math.cos(theta), math.sin(theta) * cmath.exp(1j * chi)])
    w = np.array([-v[1].conjugate(), v[0]])
    return np.column_stack([v, w])


def well_mixed_psd(rng: np.random.Generator) -> XsecMatrix:
    """PSD matrix whose eigenvectors keep s inside [sin^2 0.15, cos^2 0.15].

    The lattice resolves extrema pinned near s in {0, 1} only like
    sqrt(s(1-s)), so agreement to 1e-4 * trace is promised only for this
    class (the acceptance suite's oracle instances).
    """
    lam = np.sort(rng.uniform(0.05, 1.0, size=2))
    theta = rng.uniform(0.15, math.pi / 2.0 - 0.15)
    chi = rng.uniform(0.0, 2.0 * math.pi)
    v = np.array([math.cos(theta), math.sin(theta) * cmath.exp(1j * chi)])
    w = np.array([-v[1].conjugate(), v[0]])
    m = lam[0] * np.outer(v, v.conj()) + lam[1] * np.outer(w, w.conj())
    return _matrix("X", m)


def _ridged_gram(rng: np.random.Generator) -> np.ndarray:
    f = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    g = f.conj().T @ f
    g /= g.trace().real
    return g + 0.15 * np.eye(2)


def _rank_one(rng: np.random.Generator) -> np.ndarray:
    b = np.array([_complex(rng, 0.2, 1.0), _complex(rng, 0.2, 1.0)])
    return np.outer(b.conj(), b)


@dataclass(frozen=True)
class RatioCase:
    """A ratio pair with its intended regime; ``kappa`` for degenerate pairs."""

    num: XsecMatrix
    den: XsecMatrix
    regime: str
    kappa: float | None


def ratio_case(rng: np.random.Generator, regime: str) -> RatioCase:
    """A numerator/denominator pair in ``regime``.

    * finite: B positive definite, A = L U diag(lam) U^H L^H with B = L L^H,
      so the generalized eigenvectors are L^{-H} U; both are kept with s in
      [0.03, 0.97] (the acceptance suite's lattice-resolvable class).
    * degenerate: A = kappa * B with B rank one (a shared pole).
    * unbounded: B rank one, A positive definite.
    """
    if regime == "finite":
        b = _ridged_gram(rng)
        chol = np.linalg.cholesky(b)
        while True:
            u = _unit_pair(rng)
            vecs = np.linalg.solve(chol.conj().T, u)
            if all(0.03 <= _s_of(vecs[:, i]) <= 0.97 for i in range(2)):
                break
        lam = np.sort(rng.uniform(0.05, 3.0, size=2))
        a = chol @ u @ np.diag(lam) @ u.conj().T @ chol.conj().T
        return RatioCase(_matrix("A", a), _matrix("B", b), regime, None)
    b = _rank_one(rng)
    if regime == "degenerate":
        kappa = float(math.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        return RatioCase(_matrix("A", kappa * b), _matrix("B", b), regime, kappa)
    if regime == "unbounded":
        return RatioCase(_matrix("A", _ridged_gram(rng)), _matrix("B", b), regime, None)
    raise ValueError(f"unknown regime {regime!r}")


@dataclass(frozen=True)
class OracleCase:
    """One oracle call's inputs: a single-channel matrix and a ratio pair."""

    matrix: XsecMatrix
    ratio: RatioCase


def oracle_pool(seed: int, size: int = 240) -> list[OracleCase]:
    """``size`` oracle inputs, ratio regimes in equal shares, in seeded order."""
    rng = _rng(seed, ORACLE_STREAM)
    regimes = [REGIMES[i % len(REGIMES)] for i in rng.permutation(size)]
    return [OracleCase(well_mixed_psd(rng), ratio_case(rng, r)) for r in regimes]
