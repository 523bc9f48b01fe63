import os
import subprocess
import sys

import numpy as np
import pytest

import qumode_probe
from qumode_probe import oracle as oracle_module
from qumode_probe.operators import (
    ConvergenceError,
    HermitianOperator,
    SystemState,
    spectrum_of,
    thermal_state,
)
from qumode_probe.oracle import IDEAL_SURROGATE_SQUEEZING, distribution_numeric_oracle
from qumode_probe.probe import Bin, Ideal, ProbeConfig, Squeezed, distribution_for

_envelope = oracle_module._envelope


def full_grid_squeezed(spec, probe, mode, p_grid):
    """Reference: trapezoid quadrature of |int G(x) exp(-iux) dx|^2 per line
    on the whole grid [-X, X], every level evaluated afresh, with the
    production oracle's window, steps, level limit and agreement test."""
    X = 7.5 * mode.s
    window = 12.0 / mode.s
    dx = X / 256
    prev = None
    for _ in range(8):
        n = int(np.ceil(2 * X / dx))
        x = np.linspace(-X, X, n + 1)
        weights = np.full(n + 1, dx)
        weights[0] = weights[-1] = dx / 2
        wenv = weights * _envelope(mode, x)
        density = np.zeros_like(p_grid)
        for line in spec.lines:
            u = p_grid - probe.p0 + probe.g_tau * line.E
            active = np.abs(u) <= window
            if not np.any(active):
                continue
            ua = u[active]
            amp = np.zeros(ua.size, dtype=complex)
            chunk = max(1, (1 << 22) // ua.size)
            for lo in range(0, x.size, chunk):
                amp += np.exp(-1j * np.outer(ua, x[lo:lo + chunk])) @ wenv[lo:lo + chunk]
            density[active] += line.P * np.abs(amp) ** 2 / (2 * np.pi)
        if prev is not None and np.max(np.abs(density - prev)) < 1e-8:
            return density
        prev = density
        dx /= 2
    raise ConvergenceError("reference refinement exhausted")


def full_grid_binned(spec, probe, mode, p_grid):
    """Reference: real FFT of the bin envelope on all n points of [-X, X),
    every level evaluated afresh, with the production oracle's X, first n,
    level limit and agreement test."""
    X = 1e5
    offsets = [p_grid - probe.p0 + probe.g_tau * line.E for line in spec.lines]
    u_max = max(float(np.abs(u).max()) for u in offsets) + 1.0
    n = 2 ** int(np.ceil(np.log2(max(4096.0, 2 * X * u_max * 1.2 / np.pi))))
    prev = None
    for _ in range(4):
        dx = 2 * X / n
        x = -X + dx * np.arange(n)
        amp = dx * np.fft.rfft(np.fft.ifftshift(_envelope(mode, x))).real
        u_grid = np.pi / X * np.arange(n // 2 + 1)
        density = np.zeros_like(p_grid)
        for line, u in zip(spec.lines, offsets):
            a = np.interp(np.abs(u), u_grid, amp)
            density += line.P * a * a / (2 * np.pi)
        if prev is not None and np.max(np.abs(density - prev)) < 1e-6:
            return density
        prev = density
        n *= 2
    raise ConvergenceError("reference refinement exhausted")


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
    closed = distribution_for(spectrum_of(state, h), probe).density(grid)
    assert np.max(np.abs(oracle - closed)) < 1e-6


def test_binned_matches_closed_form_off_edges():
    h, state = random_system(2, 9)
    probe = ProbeConfig(0.0, 1.0, 1.0, Bin(1.0))
    grid = np.linspace(-4, 4, 201)
    oracle = distribution_numeric_oracle(state, h, probe, grid)
    dist = distribution_for(spectrum_of(state, h), probe)
    closed = dist.density(grid)
    edges = np.concatenate([dist.points - 0.5, dist.points + 0.5])  # L = 1
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
    dist = distribution_for(spectrum_of(state, h), probe)
    for p, mass in zip(dist.points, dist.weights):
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
    points = distribution_for(spec, probe).points
    # +-6e-4 spans the surrogate's +-8.5 std around every line
    grid = np.concatenate([np.linspace(p - 6e-4, p + 6e-4, 121) for p in points])
    oracle = distribution_numeric_oracle(state, h, probe, grid)
    surrogate = ProbeConfig(probe.p0, probe.g, probe.tau, Squeezed(IDEAL_SURROGATE_SQUEEZING))
    closed = distribution_for(spec, surrogate).density(grid)
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
    closed = distribution_for(spec, probe).density(grid)
    assert np.max(np.abs(oracle - closed)) < 1e-6


@pytest.mark.parametrize("mode", [Squeezed(1.0), Squeezed(20.0), Ideal(), Bin(1.0)],
                         ids=["squeezed-1", "squeezed-20", "ideal", "bin"])
def test_unsettled_envelope_exhausts_refinement(monkeypatch, mode):
    h, state = random_system(2, 4)
    probe = ProbeConfig(0.0, 1.0, 1.0, mode)
    envelope = oracle_module._envelope
    calls = []

    def drifting(mode, x):
        # every refinement level sees an envelope 1e-3 larger than the last
        calls.append(x.size)
        return envelope(mode, x) * (1 + 1e-3 * len(calls))

    monkeypatch.setattr(oracle_module, "_envelope", drifting)
    point = -spectrum_of(state, h).lines[0].E  # p0 = 0, g tau = 1
    with pytest.raises(ConvergenceError, match="refinement exhausted"):
        distribution_numeric_oracle(state, h, probe, np.linspace(point - 1e-4, point + 1e-4, 5))
    assert len(calls) == (4 if isinstance(mode, Bin) else 8)


def coherent_superposition():
    h = HermitianOperator(np.diag([0.0, 1.0]))
    v = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    return h, SystemState(np.outer(v, v))


def test_mixed_state_with_coherences():
    # off-diagonal c_mn must not affect the momentum distribution
    h, state = coherent_superposition()
    probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(2.0))
    grid = np.linspace(-3, 2, 101)
    oracle = distribution_numeric_oracle(state, h, probe, grid)
    closed = distribution_for(spectrum_of(state, h), probe).density(grid)
    assert np.max(np.abs(oracle - closed)) < 1e-6


def test_rejects_empty_grid():
    h, state = random_system(2, 0)
    probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(1.0))
    with pytest.raises(ValueError):
        distribution_numeric_oracle(state, h, probe, [])


@pytest.mark.parametrize("mode, expected", [
    (Squeezed(1.0), [257, 256]),
    (Squeezed(20.0), [257, 256]),
    (Ideal(), [257, 256]),
    # max |u| = 1 on this grid sets n = 2^18: x = 0, dx, ..., X, then the odd points
    (Bin(1.0), [2 ** 17 + 1, 2 ** 17]),
], ids=["squeezed-1", "squeezed-20", "ideal", "bin"])
def test_refinement_evaluates_half_grid_then_new_points(monkeypatch, mode, expected):
    h = HermitianOperator(np.diag([0.0, 1.0]))
    state = thermal_state(h, 0.7)
    probe = ProbeConfig(0.0, 1.0, 1.0, mode)
    sizes = []

    def recording(mode, x):
        sizes.append(x.size)
        return _envelope(mode, x)

    monkeypatch.setattr(oracle_module, "_envelope", recording)
    grid = np.linspace(-1.0, 0.0, 41)  # spans both lines, p = -E
    if isinstance(mode, Ideal):
        grid = np.concatenate([np.linspace(p - 6e-4, p + 6e-4, 21) for p in (-1.0, 0.0)])
    distribution_numeric_oracle(state, h, probe, grid)
    assert sizes == expected


ORACLE_MODES = pytest.mark.parametrize("mode", [Squeezed(1.0), Ideal(), Bin(1.0)],
                                       ids=["squeezed", "ideal", "bin"])


@ORACLE_MODES
def test_scalar_grid_is_one_point(mode):
    h, state = coherent_superposition()
    probe = ProbeConfig(0.0, 1.0, 1.0, mode)
    p = -0.2 if isinstance(mode, Bin) else 1e-5  # inside a plateau; on the surrogate's line
    scalar = distribution_numeric_oracle(state, h, probe, p)
    assert scalar.shape == (1,)
    assert np.array_equal(scalar, distribution_numeric_oracle(state, h, probe, [p]))


@ORACLE_MODES
def test_grid_of_more_than_one_dimension_is_refused(mode):
    h, state = coherent_superposition()
    probe = ProbeConfig(0.0, 1.0, 1.0, mode)
    with pytest.raises(ValueError, match=r"scalar or 1-D, got shape \(2, 3\)"):
        distribution_numeric_oracle(state, h, probe, np.zeros((2, 3)))


def _equivalence_jobs():
    for seed in range(3):
        h, state = random_system(3, seed)
        yield f"random-{seed}", h, state
    yield "coherences", *coherent_superposition()


@pytest.mark.parametrize("job", list(_equivalence_jobs()), ids=lambda job: job[0])
@pytest.mark.parametrize("mode", [Squeezed(1.0), Squeezed(20.0), Ideal(), Bin(1.0)],
                         ids=["squeezed-1", "squeezed-20", "ideal", "bin"])
def test_half_grid_oracle_matches_full_grid_reference(job, mode):
    _, h, state = job
    spec = spectrum_of(state, h)
    probe = ProbeConfig(0.3, 1.0, 1.0, mode)
    points = distribution_for(spec, probe).points
    if isinstance(mode, Ideal):
        grid = np.concatenate([np.linspace(p - 6e-4, p + 6e-4, 41) for p in points])
        reference = full_grid_squeezed(spec, probe, Squeezed(IDEAL_SURROGATE_SQUEEZING), grid)
    else:
        grid = np.linspace(points.min() - 2.0, points.max() + 2.0, 201)
        full_grid = full_grid_binned if isinstance(mode, Bin) else full_grid_squeezed
        reference = full_grid(spec, probe, mode, grid)
    oracle = distribution_numeric_oracle(state, h, probe, grid)
    # the surrogate's densities reach ~1e3, where float64 spacing is ~2e-13:
    # there 1e-14 of the peak is the bound, elsewhere 1e-12 absolute
    assert np.max(np.abs(oracle - reference)) <= max(1e-12, 1e-14 * reference.max())


def cosine_sum(M, h, k, j, phase):
    """O(M^2) reference: sum_j h[j] cos(pi phase(j, k) / M) with the phase
    reduced exactly modulo 2M before it is scaled."""
    return np.cos(np.pi / M * (phase(j[None, :], k[:, None]) % (2 * M))) @ h


def relative_error(got, reference):
    return np.abs(got - reference).max() / np.abs(reference).max()


def coefficient_counts(M):
    """K below and above M/2, odd and even: the u grid reads the first K coefficients."""
    return [M // 2 - 2, M // 2 - 1, M // 2 + 1, M // 2 + 2]


# the default block, and a block of 3 that puts several block edges in every case
BLOCKS = [oracle_module.TRANSFORM_BLOCK, 3]


def head_of(transform, buffer, K):
    """The first K coefficients that ``transform`` adds into zeros, from a copy of buffer."""
    out = np.zeros(K)
    transform(buffer.copy(), out)
    return out


def makhoul_order(g):
    return np.concatenate([g[0::2], g[-1::-2]])


@pytest.mark.parametrize("bands", [1, 4, 8])
@pytest.mark.parametrize("N", [4, 8, 512])
def test_fft_in_bands_matches_fft(monkeypatch, N, bands):
    monkeypatch.setattr(oracle_module, "TRANSFORM_BLOCK", 3)
    monkeypatch.setattr(oracle_module, "FFT_BANDS", bands)
    rng = np.random.default_rng(N + bands)
    z = rng.normal(size=N) + 1j * rng.normal(size=N)
    buffer = z.copy()
    got = oracle_module._fft_in_bands(buffer)
    assert np.shares_memory(got, buffer) and got.shape == (np.gcd(bands, N), N // got.shape[0])
    # got[r, q] is Z[B q + r]
    assert relative_error(got.T.reshape(-1), np.fft.fft(z)) <= 1e-13


@pytest.mark.parametrize("M", [8, 16, 1024])
def test_real_fft_from_half_length_fft_matches_rfft(M):
    y = np.random.default_rng(M + 3).normal(size=M)
    Z = oracle_module._fft_in_bands(y.copy().view(complex))
    k = np.arange(M // 2 + 1)
    assert relative_error(oracle_module._real_fft(Z, k), np.fft.rfft(y)) <= 1e-13


def test_bin_envelope_written_in_place_keeps_its_bits():
    mode = Bin(0.8)
    x = np.concatenate([[0.0], np.random.default_rng(5).uniform(-1e5, 1e5, 3 * 2 ** 13 + 7)])
    expected = np.where(x == 0, mode.L, 2 * np.sin(mode.L * x / 2) / np.where(x == 0, 1.0, x))
    expected /= np.sqrt(2 * np.pi * mode.L)
    got = _envelope(mode, x)
    assert got is x
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("M", [8, 16, 1024])
def test_dct1_matches_mirrored_fft_and_cosine_sum(monkeypatch, M):
    h = np.random.default_rng(M).normal(size=M + 1)
    mirrored = np.fft.rfft(np.concatenate([h, h[-2:0:-1]])).real
    j = np.arange(M + 1)
    weights = np.where((j == 0) | (j == M), 1.0, 2.0)
    direct = cosine_sum(M, weights * h, j, j, lambda j, k: j * k)
    for block in BLOCKS:
        monkeypatch.setattr(oracle_module, "TRANSFORM_BLOCK", block)
        for K in coefficient_counts(M):
            got = head_of(oracle_module._add_dct1, h, K)
            assert relative_error(got, mirrored[:K]) <= 1e-13
            assert relative_error(got, direct[:K]) <= 1e-13


@pytest.mark.parametrize("M", [8, 16, 1024])
def test_dct2_matches_cosine_sum(monkeypatch, M):
    g = np.random.default_rng(M + 1).normal(size=M)
    direct = cosine_sum(2 * M, g, np.arange(M), np.arange(M), lambda j, k: (2 * j + 1) * k)
    for block in BLOCKS:
        monkeypatch.setattr(oracle_module, "TRANSFORM_BLOCK", block)
        for K in coefficient_counts(M):
            # the refinement adds 2 S[k]
            got = head_of(oracle_module._add_refinement, makhoul_order(g), K) / 2
            assert relative_error(got, direct[:K]) <= 1e-13


@pytest.mark.parametrize("M", [8, 16, 1024])
def test_refinement_identity_gives_dct1_of_interleaved_half_grid(monkeypatch, M):
    rng = np.random.default_rng(M + 2)
    h, new = rng.normal(size=M + 1), rng.normal(size=M)
    finer = np.empty(2 * M + 1)
    finer[0::2], finer[1::2] = h, new
    mirrored = np.fft.rfft(np.concatenate([finer, finer[-2:0:-1]])).real
    for block in BLOCKS:
        monkeypatch.setattr(oracle_module, "TRANSFORM_BLOCK", block)
        for K in coefficient_counts(M):
            # C'[k] = C[k] + 2 S[k], k < K
            refined = head_of(oracle_module._add_dct1, h, K)
            oracle_module._add_refinement(makhoul_order(new), refined)
            assert relative_error(refined, mirrored[:K]) <= 1e-13


def test_makhoul_points_are_the_new_points_in_makhoul_order():
    M, dx = 16, 0.3
    assert np.array_equal(oracle_module._makhoul_points(M, dx),
                          makhoul_order(dx * (2 * np.arange(M) + 1)))


ORACLE_CHILD = """
import sys
import numpy as np
from qumode_probe.models import dicke_interaction
from qumode_probe.operators import thermal_state
from qumode_probe.oracle import distribution_numeric_oracle
from qumode_probe.probe import Bin, ProbeConfig, Squeezed

def vmhwm():
    with open("/proc/self/status") as status:
        return int(next(line for line in status if line.startswith("VmHWM:")).split()[1])

H = dicke_interaction(4)
state = thermal_state(H, 0.5)
before = vmhwm()
if sys.argv[1] == "bin":
    # max |u| = 5 on this grid sets n = 2^19, the bin job of the oracle-verify benchmark
    distribution_numeric_oracle(state, H, ProbeConfig(0.0, 1.0, 1.0, Bin(0.8)),
                                np.linspace(-3.0, 3.0, 40))
else:
    # the first squeezed job of the oracle-verify benchmark
    distribution_numeric_oracle(state, H, ProbeConfig(0.0, 1.0, 1.0, Squeezed(2.0)),
                                np.linspace(-4.0, 4.0, 321))
print(before, vmhwm())
"""


def oracle_child_growth_mib(kind):
    """VmHWM growth, in MiB, of a fresh child across one oracle job."""
    src = os.path.dirname(os.path.dirname(qumode_probe.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", ORACLE_CHILD, kind], env=env, check=True,
                         capture_output=True, text=True).stdout
    before, after = map(int, out.split())
    return (after - before) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_bin_oracle_peak_memory_growth():
    """The bin oracle works in one half-grid buffer per level and runs its FFTs
    band by band: at n = 2^19 the child's VmHWM grows by under 8 MiB (about 6;
    8.3 with one whole-buffer FFT, 18 with separate arrays for every transform
    stage, 51 for a 2^20-point FFT of the mirrored sequence)."""
    assert oracle_child_growth_mib("bin") < 8


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_squeezed_oracle_peak_memory_growth():
    """The squeezed oracle forms its cosine matrix in place: on 321 points the
    child's VmHWM grows by under 5 MiB (about 3.6; 6.6 with the matrix held twice)."""
    assert oracle_child_growth_mib("squeezed") < 5
