import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import legval

from cohres import (
    AmplitudeTable,
    AngleGrid,
    BackgroundChannel,
    BackgroundSpec,
    BackgroundState,
    ChannelBlock,
    ChannelState,
    ExitChannel,
    ExitState,
    ResonanceSpec,
    ScenarioConfig,
    XsecMatrix,
    breit_wigner_factor,
    gauss_legendre_grid,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FHD_SCENARIO = REPO_ROOT / "scenarios" / "fhd_like.json"

INITIAL = (ChannelState("F+HD", 0, 0, 0), ChannelState("F+HD", 0, 1, 0))


def random_table(rng: np.random.Generator, n_states=None, order=None) -> AmplitudeTable:
    """A structurally valid table with random complex amplitudes."""
    n_states = n_states or int(rng.integers(1, 6))
    order = order or int(rng.integers(2, 17))
    grid = gauss_legendre_grid(order)
    blocks = []
    for label in ("D+HF", "H+DF"):
        amps = rng.normal(size=(n_states, order, 2)) + 1j * rng.normal(size=(n_states, order, 2))
        states = tuple(ChannelState(label, 0, j, 0) for j in range(n_states))
        blocks.append(ChannelBlock(label, states, amps))
    return AmplitudeTable(0.5, INITIAL, grid, tuple(blocks))


def random_psd_matrix(rng: np.random.Generator, channel="X", normalize=True) -> XsecMatrix:
    """Random PSD interference matrix (Gram of a random 3x2 complex array)."""
    f = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    g = f.conj().T @ f
    if normalize:
        g = g / g.trace().real
    return XsecMatrix(channel, "integral", g[0, 0].real, g[1, 1].real, g[0, 1])


def ridged_psd_matrix(rng: np.random.Generator, ridge=0.15, channel="X") -> XsecMatrix:
    """PSD matrix bounded away from singular (for ratio denominators)."""
    m = random_psd_matrix(rng, channel=channel)
    t = m.trace
    return XsecMatrix(
        channel, "integral", m.sigma11 + ridge * t, m.sigma22 + ridge * t, m.sigma12
    )


def _positive_shape(rng: np.random.Generator) -> tuple[float, ...]:
    # strictly positive on [-1, 1]: dominant constant term, small higher ones
    c0 = float(rng.uniform(0.8, 1.2))
    c1 = float(rng.uniform(-0.3, 0.3))
    c2 = float(rng.uniform(-0.2, 0.2))
    return (c0, c1, c2)


def _coupling(rng: np.random.Generator) -> complex:
    mag = rng.uniform(0.3, 2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(mag * math.cos(phase), mag * math.sin(phase))


def random_pure_resonance(rng: np.random.Generator):
    """Random single-pole scenario pieces: (resonance, empty-matched background).

    Every coupling is bounded away from zero and every shape strictly
    positive, so all diagonal cross sections are positive at every node.
    """
    eps = float(rng.uniform(0.1, 0.5))
    gamma = float(rng.uniform(1e-3, 5e-2))
    exits = []
    bg_channels = []
    for label in ("D+HF", "H+DF"):
        n = int(rng.integers(1, 4))
        ex_states = []
        bg_states = []
        for j in range(n):
            st = ChannelState(label, 0, j, 0)
            ex_states.append(ExitState(st, _coupling(rng), _positive_shape(rng)))
            bg_states.append(BackgroundState(st, 0.0, 0.0, (1.0,)))
        exits.append(ExitChannel(label, tuple(ex_states)))
        bg_channels.append(BackgroundChannel(label, tuple(bg_states)))
    res = ResonanceSpec(
        epsilon_r=eps,
        gamma_width=gamma,
        entrance=(_coupling(rng), _coupling(rng)),
        exits=tuple(exits),
    )
    bg = BackgroundSpec(reference_energy=eps, channels=tuple(bg_channels))
    return res, bg


def random_scenario(
    rng: np.random.Generator, mix: float, n_states: int, grid_order: int = 12
) -> ScenarioConfig:
    """Random pole-plus-background scenario over two channels of ``n_states``.

    Couplings, direct amplitudes, slopes and the per-state column weights
    are random and bounded away from zero, so the direct term couples
    asymmetrically to the two initial states.  The background reference
    energy sits at the pole.
    """
    eps = float(rng.uniform(0.1, 0.5))
    gamma = float(rng.uniform(1e-3, 5e-2))
    exits = []
    bg_channels = []
    for label in ("D+HF", "H+DF"):
        ex_states = []
        bg_states = []
        for j in range(n_states):
            st = ChannelState(label, 0, j, 0)
            ex_states.append(ExitState(st, _coupling(rng), _positive_shape(rng)))
            weights = (_coupling(rng), _coupling(rng))
            bg_states.append(
                BackgroundState(st, _coupling(rng), _coupling(rng), _positive_shape(rng), weights)
            )
        exits.append(ExitChannel(label, tuple(ex_states)))
        bg_channels.append(BackgroundChannel(label, tuple(bg_states)))
    res = ResonanceSpec(eps, gamma, (_coupling(rng), _coupling(rng)), tuple(exits))
    bg = BackgroundSpec(reference_energy=eps, channels=tuple(bg_channels))
    return ScenarioConfig(res, bg, mix=mix, grid_order=grid_order, initial_pair=INITIAL)


def direct_amplitudes(
    res: ResonanceSpec, bg: BackgroundSpec, grid: AngleGrid, energy: float, mix: float
) -> list[np.ndarray]:
    """Each channel's amplitudes at ``energy`` by direct evaluation: the basis path's reference."""
    x = np.cos(grid.nodes)
    bw = breit_wigner_factor(energy, res)
    g1, g2 = res.entrance
    out = []
    for res_ch, bg_ch in zip(res.exits, bg.channels):
        n_states = len(res_ch.states)
        amps = np.zeros((n_states, len(grid), 2), dtype=complex)
        for n, (res_st, bg_st) in enumerate(zip(res_ch.states, bg_ch.states)):
            pole = mix * res_st.coupling * bw * legval(x, list(res_st.shape))
            amps[n, :, 0] = pole * g1
            amps[n, :, 1] = pole * g2
            direct = (
                (1.0 - mix)
                * (bg_st.amplitude + bg_st.slope * (energy - bg.reference_energy))
                * legval(x, list(bg_st.shape))
            )
            amps[n, :, 0] += direct * bg_st.column_weights[0]
            amps[n, :, 1] += direct * bg_st.column_weights[1]
        out.append(amps)
    return out


def direct_table(cfg: ScenarioConfig, energy: float) -> AmplitudeTable:
    """The scenario's table at ``energy`` from ``direct_amplitudes``, the tests' synthesis oracle.

    It evaluates each term at ``energy`` instead of combining the terms of a
    ``SynthesisBasis``, so comparing a synthesized table or a scan row
    against it checks the library's one synthesis formula independently.
    """
    grid = cfg.grid()
    amplitudes = direct_amplitudes(cfg.resonance, cfg.background, grid, energy, cfg.mix)
    blocks = tuple(
        ChannelBlock(ch.arrangement, tuple(s.state for s in ch.states), a)
        for ch, a in zip(cfg.resonance.exits, amplitudes)
    )
    return AmplitudeTable(energy, cfg.initial_pair, grid, blocks)


def scaled_table(table: AmplitudeTable, factor: float) -> AmplitudeTable:
    """``table`` with every amplitude multiplied by ``factor``."""
    blocks = tuple(
        ChannelBlock(b.arrangement, b.states, b.amplitudes * factor) for b in table.channels
    )
    return AmplitudeTable(table.energy, table.initial_pair, table.grid, blocks)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


@pytest.fixture
def no_grid(monkeypatch):
    """Fail the test if any Gauss-Legendre grid is built."""
    import cohres.core

    def leggauss(order):
        raise AssertionError(f"a grid of order {order} was built")

    monkeypatch.setattr(cohres.core, "leggauss", leggauss)
