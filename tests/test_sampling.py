import numpy as np
import pytest
from scipy.stats import kstest

from qumode_probe.operators import Spectrum, evenly_spaced_spectrum
from qumode_probe.probe import (
    Bin,
    Ideal,
    LineMixture,
    ProbeConfig,
    Squeezed,
    distribution_for,
)
from qumode_probe.probe import Workspace
from qumode_probe.sampling import (
    MeasurementRecord,
    _pick_lines,
    sample_chunks,
    sample_measurements,
)


def two_peak_mixture():
    return LineMixture([-1.0, 1.5], [0.3, 0.7], Squeezed(1 / (0.2 * np.sqrt(2))))


def test_same_seed_identical():
    dist = two_peak_mixture()
    a = sample_measurements(dist, 5000, seed=123)
    b = sample_measurements(dist, 5000, seed=123)
    assert np.array_equal(a.samples, b.samples)


def test_different_seed_differs():
    dist = two_peak_mixture()
    a = sample_measurements(dist, 100, seed=1)
    b = sample_measurements(dist, 100, seed=2)
    assert not np.array_equal(a.samples, b.samples)


def test_point_masses_frequencies():
    spec = evenly_spaced_spectrum(3, seed=0)
    dist = distribution_for(spec, ProbeConfig(0.0, 1.0, 1.0, Ideal()))
    rec = sample_measurements(dist, 200_000, seed=5)
    assert set(np.unique(rec.samples)) <= set(dist.points)
    for v, m in zip(dist.points, dist.weights):
        freq = np.mean(rec.samples == v)
        assert abs(freq - m) < 5 * np.sqrt(m * (1 - m) / rec.n)


def test_mixture_mean_matches_analytic():
    dist = two_peak_mixture()
    n = 1_000_000
    rec = sample_measurements(dist, n, seed=77)
    mean = dist.points @ dist.weights
    sigma = np.sqrt(dist.mode.std ** 2 + dist.points ** 2 @ dist.weights - mean ** 2)
    assert abs(rec.samples.mean() - mean) < 4 * sigma / np.sqrt(n)


def test_piecewise_uniform_within_support():
    # uniform on [-0.5, 0.5] with mass 0.5, as two half-width windows, and on [2.75, 3.25]
    dist = LineMixture([-0.25, 0.25, 3.0], [0.25, 0.25, 0.5], Bin(0.5))
    rec = sample_measurements(dist, 50_000, seed=3)
    in_first = (rec.samples >= -0.5) & (rec.samples <= 0.5)
    in_second = (rec.samples >= 2.75) & (rec.samples <= 3.25)
    assert np.all(in_first | in_second)
    assert abs(in_first.mean() - 0.5) < 0.01


@pytest.mark.parametrize("parts", [1, 2, 3, 8, 16])
def test_partition_invariance(parts):
    # unequal pieces, each starting on an even draw
    dist = two_peak_mixture()
    serial = sample_measurements(dist, 10_001, seed=9)
    bounds = np.linspace(0, 10_001, parts + 1).astype(int)
    bounds[1:-1] -= bounds[1:-1] % 2
    merged = [sample_measurements(dist, int(b - a), seed=9, start=int(a)).samples
              for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(serial.samples, np.concatenate(merged))


def test_kolmogorov_smirnov_consistency():
    spec = Spectrum.from_lines([(-1.0, 0.4, 1), (1.0, 0.6, 1)])
    dist = distribution_for(spec, ProbeConfig(0.0, 1.0, 1.0, Squeezed(2.0)))

    def cdf(p):
        from scipy.special import ndtr
        return sum(w * ndtr((p - mu) / dist.mode.std) for mu, w in zip(dist.points, dist.weights))

    n = 100_000
    critical_1pct = 1.63 / np.sqrt(n)
    passes = 0
    trials = 20
    for seed in range(trials):
        rec = sample_measurements(dist, n, seed=seed)
        stat = kstest(rec.samples, cdf).statistic
        passes += stat < critical_1pct
    assert passes >= 0.95 * trials


def test_rejects_zero_samples():
    with pytest.raises(ValueError):
        sample_measurements(two_peak_mixture(), 0, seed=1)


def test_record_metadata():
    rec = sample_measurements(two_peak_mixture(), 10, seed=4, detector_bin=0.25)
    assert rec.seed == 4
    assert rec.detector_bin == 0.25
    assert rec.n == 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_record_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match="record has non-finite samples"):
        MeasurementRecord(samples=np.array([0.0, bad, 1.0]), seed=0)


@pytest.mark.parametrize("chunk", [2, 4_096, 5_000])
def test_chunks_from_start_tile_the_single_draw(chunk):
    dist = two_peak_mixture()
    whole = sample_measurements(dist, 10_001, seed=9)
    parts = [sample_measurements(dist, min(chunk, 10_001 - start), seed=9, start=start)
             for start in range(0, 10_001, chunk)]
    assert np.array_equal(np.concatenate([p.samples for p in parts]), whole.samples)


@pytest.mark.parametrize("start", [0, 8])
@pytest.mark.parametrize("detector_bin", [0.0, 0.01], ids=["plain", "binned"])
@pytest.mark.parametrize("chunk", [1, 3, 5, 4_097])
def test_chunks_of_any_size_tile_the_single_draw(chunk, detector_bin, start):
    """Each stream is read on across chunks, so no chunk boundary need fall
    on a Philox block."""
    dist = two_peak_mixture()
    whole = sample_measurements(dist, 5_001, seed=9, detector_bin=detector_bin, start=start)
    parts = [record.samples.copy()
             for record in sample_chunks(dist, 5_001, 9, detector_bin, chunk, start)]
    assert np.concatenate(parts).tobytes() == whole.samples.tobytes()


def test_one_philox_per_stream_per_record(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    records = sample_chunks(two_peak_mixture(), 10_000, 9, detector_bin=0.01, chunk=1_000)
    assert sum(1 for _ in records) == 10
    assert len(built) <= 2


def test_cumulative_weights_are_summed_once():
    dist = two_peak_mixture()
    cumulative = dist.cumulative_weights
    assert dist.cumulative_weights is cumulative
    assert np.array_equal(cumulative, np.cumsum(dist.weights))
    assert not cumulative.flags.writeable


def test_odd_start_rejected():
    with pytest.raises(ValueError, match="partition start must be even"):
        sample_measurements(two_peak_mixture(), 10, seed=1, start=3)


@pytest.mark.parametrize("width", [-0.5, np.nan])
def test_record_rejects_bad_detector_bin(width):
    with pytest.raises(ValueError, match="detector bin width must be nonnegative"):
        MeasurementRecord(samples=np.array([0.0]), seed=0, detector_bin=width)


def pick_weights(L):
    """Weights of L lines: uniform, thermal, all mass on one line, zero-weight lines,
    many tiny lines in one guide bucket, and seeded ones whose running sum ends
    below and above 1 by rounding."""
    cases = {"uniform": np.full(L, 1 / L),
             "thermal": np.exp(-0.7 * np.arange(L)),
             "one-line": np.eye(1, L, L // 2)[0],
             "zero-lines": np.arange(L) % 3 == 1 if L > 1 else np.ones(1),
             "tiny-lines": np.r_[0.5, np.full(L - 2, 1e-12), 0.5][:L] if L > 1 else np.ones(1)}
    cases = {name: w / w.sum() for name, w in cases.items()}
    rng = np.random.default_rng(L)
    for name, below in (("sum-below-1", True), ("sum-above-1", False)):
        for _ in range(1000):
            w = rng.random(L)
            w /= w.sum()
            if (np.cumsum(w)[-1] < 1.0) == below and np.cumsum(w)[-1] != 1.0:
                cases[name] = w
                break
    return cases


@pytest.mark.parametrize("L", [1, 2, 5, 101, 1024])
def test_line_pick_is_clamped_searchsorted(L):
    """The guide-table pick returns min(searchsorted(cw, u, "left"), L - 1) bit for
    bit: at 0, at every cumulative edge and its neighbours, at 1 - 2**-53, and on
    4096 seeded uniforms, so both the whole-array and the few-left steps run."""
    cases = pick_weights(L)
    if L > 2:
        assert {"sum-below-1", "sum-above-1"} <= cases.keys()
    for name, weights in cases.items():
        dist = LineMixture(np.arange(L, dtype=float), weights, Ideal())
        cw = dist.cumulative_weights
        K = len(dist.line_guide[0])
        edges = np.concatenate([cw, np.arange(K) / K])
        u = np.concatenate([[0.0, 1 - 2.0 ** -53], np.nextafter(edges, 0.0), edges,
                            np.nextafter(edges, 1.0),
                            np.random.default_rng(L).random(4096)])
        u = u[(u >= 0) & (u < 1)]
        expected = np.minimum(np.searchsorted(cw, u, side="left"), L - 1)
        assert _pick_lines(dist, u, Workspace()).tolist() == expected.tolist(), name
