import numpy as np
import pytest

from qumode_probe import probe as probe_module
from qumode_probe.operators import (
    ConvergenceError,
    HermitianOperator,
    SystemState,
    spectrum_of,
    thermal_state,
)
from qumode_probe.probe import (
    IDEAL_SURROGATE_SQUEEZING,
    Bin,
    Ideal,
    ProbeConfig,
    Squeezed,
    distribution_binned,
    distribution_ideal,
    distribution_numeric_oracle,
    distribution_squeezed,
)


def random_system(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = HermitianOperator(0.5 * (m + m.conj().T))
    return h, thermal_state(h, rng.uniform(0.2, 1.5))


def test_squeezed_matches_closed_form():
    h, state = random_system(3, 5)
    probe = ProbeConfig(0.3, 1.0, 1.0, Squeezed(1.0))
    grid = np.linspace(-5, 5, 201)
    oracle = distribution_numeric_oracle(state, h, probe, grid)
    closed = distribution_squeezed(spectrum_of(state, h), probe).density(grid)
    assert np.max(np.abs(oracle - closed)) < 1e-6


def test_binned_matches_closed_form_off_edges():
    h, state = random_system(2, 9)
    probe = ProbeConfig(0.0, 1.0, 1.0, Bin(1.0))
    grid = np.linspace(-4, 4, 201)
    oracle = distribution_numeric_oracle(state, h, probe, grid)
    dist = distribution_binned(spectrum_of(state, h), probe)
    closed = dist.density(grid)
    edges = np.array([e for c, w, _ in dist.segments for e in (c - w / 2, c + w / 2)])
    off_edge = np.min(np.abs(grid[:, None] - edges[None, :]), axis=1) > 0.1
    assert np.max(np.abs(oracle - closed)[off_edge]) < 1e-4


def test_oracle_normalization():
    h, state = random_system(3, 2)
    probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(1.0))
    grid = np.linspace(-8, 8, 1601)
    oracle = distribution_numeric_oracle(state, h, probe, grid)
    assert np.trapezoid(oracle, grid) == pytest.approx(1.0, abs=1e-6)


def test_ideal_surrogate_concentrates_at_points():
    h, state = random_system(2, 3)
    probe = ProbeConfig(0.0, 1.0, 1.0, Ideal())
    points = distribution_ideal(spectrum_of(state, h), probe).points
    for p, mass in points:
        # integrate the surrogate density locally around each ideal point
        local = np.linspace(p - 6e-4, p + 6e-4, 121)
        density = distribution_numeric_oracle(state, h, probe, local)
        assert np.trapezoid(density, local) == pytest.approx(mass, abs=1e-4)


@pytest.mark.parametrize("seed", range(5))
def test_ideal_surrogate_matches_closed_form_pointwise(seed):
    rng = np.random.default_rng(seed)
    h, state = random_system(int(rng.integers(2, 5)), seed)
    probe = ProbeConfig(rng.uniform(-1, 1), 1.0, rng.uniform(0.5, 2.0), Ideal())
    spec = spectrum_of(state, h)
    points = [p for p, _ in distribution_ideal(spec, probe).points]
    # +-6e-4 spans the surrogate's +-8.5 std around every line
    grid = np.concatenate([np.linspace(p - 6e-4, p + 6e-4, 121) for p in points])
    oracle = distribution_numeric_oracle(state, h, probe, grid)
    surrogate = ProbeConfig(probe.p0, probe.g, probe.tau, Squeezed(IDEAL_SURROGATE_SQUEEZING))
    closed = distribution_squeezed(spec, surrogate).density(grid)
    assert np.max(np.abs(oracle - closed)) < 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_squeezed_matches_closed_form_at_high_squeezing(seed):
    # at s = 20 the first quadrature step X/256 is 0.59, wider than the
    # 0.25 that once capped it
    h, state = random_system(3, seed)
    probe = ProbeConfig(0.3, 1.0, 1.0, Squeezed(20.0))
    spec = spectrum_of(state, h)
    grid = np.linspace(0.3 - spec.energies.max() - 0.3, 0.3 - spec.energies.min() + 0.3, 2001)
    oracle = distribution_numeric_oracle(state, h, probe, grid)
    closed = distribution_squeezed(spec, probe).density(grid)
    assert np.max(np.abs(oracle - closed)) < 1e-6


@pytest.mark.parametrize("mode", [Squeezed(1.0), Squeezed(20.0), Ideal(), Bin(1.0)],
                         ids=["squeezed-1", "squeezed-20", "ideal", "bin"])
def test_unsettled_envelope_exhausts_refinement(monkeypatch, mode):
    h, state = random_system(2, 4)
    probe = ProbeConfig(0.0, 1.0, 1.0, mode)
    envelope = probe_module._envelope
    calls = []

    def drifting(mode, x):
        # every refinement level sees an envelope 1e-3 larger than the last
        calls.append(x.size)
        return envelope(mode, x) * (1 + 1e-3 * len(calls))

    monkeypatch.setattr(probe_module, "_envelope", drifting)
    point = -spectrum_of(state, h).lines[0].E  # p0 = 0, g tau = 1
    with pytest.raises(ConvergenceError, match="refinement exhausted"):
        distribution_numeric_oracle(state, h, probe, np.linspace(point - 1e-4, point + 1e-4, 5))
    assert len(calls) == (4 if isinstance(mode, Bin) else 8)


def test_mixed_state_with_coherences():
    # off-diagonal c_mn must not affect the momentum distribution
    h = HermitianOperator(np.diag([0.0, 1.0]))
    v = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    state = SystemState(np.outer(v, v))  # coherent superposition
    probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(2.0))
    grid = np.linspace(-3, 2, 101)
    oracle = distribution_numeric_oracle(state, h, probe, grid)
    closed = distribution_squeezed(spectrum_of(state, h), probe).density(grid)
    assert np.max(np.abs(oracle - closed)) < 1e-6


def test_rejects_empty_grid():
    h, state = random_system(2, 0)
    probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(1.0))
    with pytest.raises(ValueError):
        distribution_numeric_oracle(state, h, probe, [])
