import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import find_peaks

from qumode_probe import reconstruct, serialize
from qumode_probe.models import dicke_interaction
from qumode_probe.operators import (
    HermitianOperator,
    Spectrum,
    evenly_spaced_spectrum,
    spectrum_of,
    thermal_state,
)
from qumode_probe.probe import (
    Bin,
    Ideal,
    ProbeConfig,
    Squeezed,
    distribution_for,
    map_p_to_E,
)
from qumode_probe.reconstruct import (
    Histogram,
    _moving_average,
    _prominent_peaks,
    detect_peaks,
    histogram,
    reconstruct_record,
    required_samples,
    resolution_params,
)
from qumode_probe.sampling import MeasurementRecord, sample_measurements


def squeezed_probe(s, g=1.0, tau=1.0, p0=0.0):
    return ProbeConfig(p0, g, tau, Squeezed(s))


class TestResolutionParams:
    def test_bin_mode(self):
        res = resolution_params(ProbeConfig(0.0, 1.0, 200.0, Bin(0.5)))
        assert res.delta_E == pytest.approx(0.0025)
        assert not res.infinite_resolution

    def test_squeezed_mode(self):
        res = resolution_params(ProbeConfig(0.0, 1.0, 40.0, Squeezed(1.0)))
        assert res.sigma_E == pytest.approx(1.0 / (np.sqrt(2) * 40.0))
        assert res.sigma_E == pytest.approx(0.01768, abs=1e-5)

    def test_ideal_flagged(self):
        res = resolution_params(ProbeConfig(0.0, 1.0, 1.0, Ideal()))
        assert res.infinite_resolution
        assert res.sigma_E == 0.0 and res.delta_E == 0.0
        assert res.resolvability(1.0) == np.inf

    def test_bin_resolvability_is_spacing_over_plateau_width(self):
        res = resolution_params(ProbeConfig(0.0, 1.0, 200.0, Bin(0.5)))
        assert res.resolvability(0.005) == pytest.approx(2.0)


class TestRequiredSamples:
    def test_direct_formula(self):
        assert required_samples(0.1, 1.0) == 100

    def test_small_population(self):
        assert required_samples(0.1, 0.01) == 10_000

    def test_quadratic_scaling(self):
        assert required_samples(0.05, 0.5) == 4 * required_samples(0.1, 0.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            required_samples(0.0, 0.5)
        with pytest.raises(ValueError):
            required_samples(0.1, 0.0)


class TestHistogram:
    def test_identical_samples_single_bin(self):
        rec = MeasurementRecord(samples=np.full(50, 1.23), seed=0)
        hist = histogram(rec, bin_width=0.1)
        assert (hist.counts > 0).sum() == 1
        assert hist.n == 50

    def test_uniform_counts(self):
        rng = np.random.default_rng(0)
        rec = MeasurementRecord(samples=rng.random(100_000), seed=0)
        hist = histogram(rec, bin_width=0.1, origin=0.0)
        expect = rec.n / 10
        sigma = np.sqrt(rec.n * 0.1 * 0.9)
        occupied = hist.counts[hist.counts > 0]
        assert len(occupied) == 10
        assert np.all(np.abs(occupied - expect) < 5 * sigma)

    def test_edge_sample_counts_upper(self):
        rec = MeasurementRecord(samples=np.array([0.5]), seed=0)
        hist = histogram(rec, bin_width=0.5, origin=0.0)
        assert hist.bins.tolist() == [1.0]
        assert hist.edge(hist.bins[0]) == pytest.approx(0.5)

    def test_empty_record_rejected(self):
        rec = MeasurementRecord(samples=np.array([]), seed=0)
        with pytest.raises(ValueError):
            histogram(rec, 0.1)

    @pytest.mark.parametrize("width", [0.0, -0.1, float("nan")])
    def test_bin_width_must_be_positive(self, width):
        rec = MeasurementRecord(samples=np.array([0.0]), seed=0)
        with pytest.raises(ValueError, match="bin width must be positive"):
            histogram(rec, width)

    @staticmethod
    def whole_array_histogram(samples, bin_width, origin):
        """Occupied bins and their counts from one ``bincount`` over all the samples
        at once."""
        idx = np.floor((samples - origin) / bin_width)
        lo = idx.min()
        counts = np.bincount((idx - lo).astype(int))
        occupied = np.flatnonzero(counts)
        return lo + occupied, counts[occupied]

    @pytest.mark.parametrize("n", [1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 3 * 2 ** 16 + 5])
    def test_block_seams(self, tmp_path, n):
        """A record read block by block bins exactly as all its samples at once, also
        when later blocks reach past the bins so far, above and below."""
        block = 2 ** 16
        assert serialize._DECODE_LINES == block
        samples = np.random.default_rng(n).normal(size=n)
        # block 1 reaches past the top, block 2 past the bottom, block 3 past both
        for b in range(1, (n - 1) // block + 1):
            samples[b * block] = 4.0 + b if b % 2 else -4.0 - b
        if n > 3 * block:
            samples[-1] = -9.5
        text = serialize.record_to_text(MeasurementRecord(samples=samples, seed=0))
        back, _ = serialize.record_from_text(text)
        assert back.samples.tobytes() == samples.tobytes()

        (tmp_path / "rec.txt").write_text(text)
        with open(tmp_path / "rec.txt", "rb") as fh:
            _, _, blocks = serialize.read_record(fh)
            streamed = reconstruct.histogram_blocks(blocks, 0.01, origin=0.3)
        bins, counts = self.whole_array_histogram(samples, 0.01, 0.3)
        for hist in (streamed, histogram(back, 0.01, origin=0.3)):
            assert hist.bins.tobytes() == bins.tobytes()
            assert hist.counts.tobytes() == counts.astype(np.intp).tobytes()

    def test_far_bin_indices_rejected(self):
        """Past 2**53 bins from the origin a float64 index no longer names one bin."""
        rec = MeasurementRecord(samples=np.full(20, 1e13), seed=0)
        with pytest.raises(ValueError, match="lie over 2\\*\\*53 bins of width 1e-06"):
            histogram(rec, 1e-6)
        assert histogram(rec, 1e-2).n == 20

    def test_far_outlier_is_one_more_bin(self):
        """Only occupied bins are held, however far apart they lie."""
        rec = MeasurementRecord(samples=np.array([1e9, 0.0]), seed=0)
        hist = histogram(rec, 1e-6)
        assert (hist.bins.tolist(), hist.counts.tolist()) == ([0.0, 1e15], [1, 1])


class TestDetectPeaks:
    def test_two_separated_gaussians(self):
        spec = Spectrum.from_lines([(-1.0, 0.35, 1), (1.0, 0.65, 1)])
        probe = squeezed_probe(s=10.0)
        dist = distribution_for(spec, probe)
        n = 1_000_000
        rec = sample_measurements(dist, n, seed=21)
        recon = reconstruct_record(rec, probe)
        assert len(recon.lines) == 2
        sigma_E = resolution_params(probe).sigma_E
        for line, (e_true, p_true, _) in zip(recon.lines,
                                             [(-1.0, 0.35, 1), (1.0, 0.65, 1)]):
            assert abs(line.E_hat - e_true) < 3 * sigma_E / np.sqrt(n * p_true) + 1e-3
            assert abs(line.P_hat - p_true) < 3 * np.sqrt(p_true * (1 - p_true) / n)

    def test_single_point_mass(self):
        rec = MeasurementRecord(samples=np.full(1000, -2.0), seed=0)
        probe = ProbeConfig(0.0, 1.0, 1.0, Ideal())
        recon = detect_peaks(histogram(rec, 0.01), probe)
        assert len(recon.lines) == 1
        assert recon.lines[0].P_hat == pytest.approx(1.0)
        assert recon.lines[0].E_hat == pytest.approx(2.0, abs=0.01)

    def test_unresolved_lines_merge(self):
        spacing = 0.2
        spec = evenly_spaced_spectrum(5, spacing=spacing, seed=2)
        probe = squeezed_probe(s=1.0)  # sigma_E = 0.707 >> spacing
        dist = distribution_for(spec, probe)
        rec = sample_measurements(dist, 100_000, seed=8)
        recon = reconstruct_record(rec, probe)
        assert len(recon.lines) < 5

    def test_shift_invariance(self):
        spec = Spectrum.from_lines([(-1.0, 0.5, 1), (1.0, 0.5, 1)])
        probe = squeezed_probe(s=8.0)
        rec = sample_measurements(distribution_for(spec, probe), 50_000, seed=4)
        recon = reconstruct_record(rec, probe)
        shift = 2.5
        shifted_probe = ProbeConfig(probe.p0 + shift, probe.g, probe.tau, probe.mode)
        shifted_rec = MeasurementRecord(samples=rec.samples + shift, seed=rec.seed)
        shifted_recon = reconstruct_record(shifted_rec, shifted_probe)
        assert np.allclose(recon.energies, shifted_recon.energies, atol=1e-9)
        assert np.allclose(recon.populations, shifted_recon.populations)

    def test_min_mass_residual(self):
        samples = np.concatenate([np.full(990, 0.0), np.full(10, 5.0)])
        rec = MeasurementRecord(samples=samples, seed=0)
        probe = ProbeConfig(0.0, 1.0, 1.0, Ideal())
        recon = detect_peaks(histogram(rec, 0.1), probe, min_mass=0.05)
        assert len(recon.lines) == 1
        assert recon.residual_mass == pytest.approx(0.01)

    def test_three_bin_cluster_splits(self):
        """Three occupied bins two apart, smoothed over three, overlap in two peaks
        with a valley on the middle bin, which stays in the line to its left."""
        probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(2.0))  # sigma_p / 0.12 rounds to 3
        samples = np.repeat(0.12 * np.array([0, 2, 4]) + 0.06, 1000)
        hist = histogram(MeasurementRecord(samples=samples, seed=0), 0.12)
        assert detect_peaks(hist, probe).counts.tolist() == [1000, 2000]

    def test_cluster_span_capped(self, monkeypatch):
        """A cluster of three or more bins is laid out over its span to find its
        valleys, so that span is capped, not the record's."""
        monkeypatch.setattr(reconstruct, "MAX_BINS", 10)
        probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(5.0))  # gap 3 sigma_p ~ 4 bins, no smoothing

        def detect(bins):
            counts = [10, 50, 10, 2, 2, 10, 50, 10, 100]
            samples = np.repeat(0.1 * np.array(bins) + 0.05, counts)
            hist = histogram(MeasurementRecord(samples=samples, seed=0), 0.1)
            return detect_peaks(hist, probe, min_mass=0.01)

        # bins 0..9 cut at the valley over bins 4 and 5; bin 500 is a cluster of its own
        assert detect([0, 1, 2, 3, 6, 7, 8, 9, 500]).counts.tolist() == [100, 72, 72]
        with pytest.raises(ValueError, match="a cluster of the histogram spans 11 bins of "
                                             "width 0.1 from p = 0.0, over the cap of 10"):
            detect([0, 1, 2, 3, 6, 7, 8, 10, 500])


def split_cluster_reference(cluster, counts, smooth_bins):
    """Reference: one cluster, a list of bin indices, split at significant valleys,
    smoothed by ``np.convolve`` and partitioned one index at a time."""
    lo, hi = cluster[0], cluster[-1]
    segment = counts[lo:hi + 1].astype(float)
    if len(segment) < 3:
        return [cluster]
    w = min(smooth_bins, len(segment))
    smooth = np.convolve(segment, np.ones(w) / w, mode="same")
    top = smooth.max()
    prominence = 5.0 * np.sqrt(top / w) + 0.02 * top
    peaks = _prominent_peaks(smooth, prominence)
    if len(peaks) < 2:
        return [cluster]
    cuts = [lo + a + int(np.argmin(smooth[a:b + 1]))
            for a, b in zip(peaks[:-1], peaks[1:])]
    parts = [[] for _ in range(len(cuts) + 1)]
    for i in cluster:
        parts[int(np.searchsorted(cuts, i, side="left"))].append(i)
    return [part for part in parts if part]


@dataclass(frozen=True)
class DenseHistogram:
    """Counts of every bin from the lowest occupied one to the highest, and their
    edges: the layout that ``detect_peaks_reference`` reads."""
    counts: np.ndarray
    edges: np.ndarray

    @classmethod
    def of(cls, hist):
        lo = hist.bins[0] if len(hist.bins) else 0.0
        ks = lo + np.arange(hist.bins[-1] - lo + 2 if len(hist.bins) else 1)
        counts = np.zeros(len(ks) - 1, dtype=np.intp)
        counts[(hist.bins - lo).astype(int)] = hist.counts
        return cls(counts, hist.edge(ks))

    @property
    def n(self):
        return int(self.counts.sum())

    @property
    def bin_width(self):
        return float(self.edges[1] - self.edges[0])

    @property
    def centers(self):
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def detect_peaks_reference(hist, probe, min_mass=None):
    """Reference: clusters built as lists of bin indices, one occupied bin at a time."""
    n = hist.n
    if n == 0:
        raise ValueError("histogram is empty")
    if min_mass is None:
        min_mass = 10.0 / n
        if n <= 10:
            raise ValueError(f"the default min_mass 10/n is {min_mass:.6g} for n = {n} samples; "
                             "it needs n > 10")
    if not 0 < min_mass < 1:
        raise ValueError("min_mass must be in (0, 1)")
    gap = max(hist.bin_width, 3.0 * probe.momentum_std())
    occupied = np.nonzero(hist.counts)[0]
    centers = hist.centers
    clusters = [[occupied[0]]]
    for i in occupied[1:]:
        if i - clusters[-1][-1] > 1 and centers[i] - centers[clusters[-1][-1]] > gap:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    smooth_bins = max(1, int(round(probe.momentum_std() / hist.bin_width)))
    clusters = [part for cluster in clusters
                for part in split_cluster_reference(cluster, hist.counts, smooth_bins)]
    lines = []
    residual = 0.0
    for cluster in clusters:
        idx = np.array(cluster)
        count = int(hist.counts[idx].sum())
        mass = count / n
        if mass < min_mass:
            residual += mass
            continue
        centroid = float(np.average(centers[idx], weights=hist.counts[idx]))
        lines.append((centroid, mass, count))
    if not lines:
        raise ValueError("no cluster above the mass threshold")
    centroids, masses, counts = zip(*reversed(lines))
    return Spectrum(map_p_to_E(np.array(centroids), probe), masses,
                    counts=counts, residual_mass=residual)


def outcome(detect, hist, probe, min_mass):
    """Bytes of E, P, counts and residual, or the ValueError message."""
    try:
        spec = detect(hist, probe, min_mass=min_mass)
    except ValueError as exc:
        return str(exc)
    return (spec.energies.tobytes(), spec.populations.tobytes(), spec.counts.tobytes(),
            np.float64(spec.residual_mass).tobytes())


# pieces of a histogram: a run of drawn counts (scaled up, its jags are
# significant valleys), a gap of empty bins, a plateau, or a Gaussian bump
_pieces = st.one_of(
    st.tuples(st.sampled_from([1, 40]), st.lists(st.integers(0, 60), min_size=1, max_size=25))
    .map(lambda sl: [sl[0] * c for c in sl[1]]),
    st.integers(1, 40).map(lambda k: [0] * k),
    st.tuples(st.integers(1, 300), st.integers(1, 20)).map(lambda vk: [vk[0]] * vk[1]),
    st.tuples(st.integers(20, 5000), st.integers(2, 30)).map(
        lambda ak: np.round(ak[0] * np.exp(-0.5 * np.linspace(-3, 3, 4 * ak[1]) ** 2))
        .astype(int).tolist()),
)


class TestDetectPeaksMatchesReference:
    @settings(max_examples=250, deadline=None)
    @given(pieces=st.lists(_pieces, min_size=1, max_size=12),
           mode=st.sampled_from([Ideal(), Bin(0.05), Squeezed(20.0)]),
           w=st.sampled_from([1, 2, 4, 8]),
           k_lo=st.integers(-10 ** 6, 10 ** 6),
           min_mass=st.one_of(st.none(), st.floats(0.0, 1.0)))
    def test_same_lines_as_the_reference(self, pieces, mode, w, k_lo, min_mass):
        counts = np.array([c for piece in pieces for c in piece], dtype=np.intp)
        probe = ProbeConfig(0.3, 1.0, 2.0, mode)
        bin_width = probe.momentum_std() / w if probe.momentum_std() > 0 else 0.01 / w
        hist = Histogram(k_lo + np.flatnonzero(counts).astype(float), counts[counts > 0],
                         bin_width, probe.p0)
        assert (outcome(detect_peaks, hist, probe, min_mass)
                == outcome(detect_peaks_reference, DenseHistogram.of(hist), probe, min_mass))


def detect_peaks_loop(hist, probe, min_mass=None):
    """Reference: ``detect_peaks`` with one Python step per cluster and per line,
    each line's count a slice sum and the residual a running float sum."""
    n = hist.n
    if min_mass is None:
        min_mass = 10.0 / n
        if n <= 10:
            raise ValueError(f"the default min_mass 10/n is {min_mass:.6g} for n = {n} samples; "
                             "it needs n > 10")
    if not 0 < min_mass < 1:
        raise ValueError("min_mass must be in (0, 1)")
    gap = max(hist.bin_width, 3.0 * probe.momentum_std())
    smooth_bins = max(1, int(round(probe.momentum_std() / hist.bin_width)))
    centers = hist.centers
    apart = (np.diff(hist.bins) > 1) & (np.diff(centers) > gap)
    gap_cuts = [0, *(np.flatnonzero(apart) + 1).tolist(), len(hist.bins)]
    cuts = [0]
    for a, b in zip(gap_cuts[:-1], gap_cuts[1:]):
        if b - a >= 3:
            cuts += reconstruct._valley_cuts(hist, a, b, smooth_bins).tolist()
        cuts.append(b)
    lines = []
    residual = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        count = int(hist.counts[a:b].sum())
        mass = count / n
        if mass < min_mass:
            residual += mass
            continue
        centroid = float((centers[a:b] * hist.counts[a:b]).sum() / count)
        lines.append((centroid, mass, count))
    if not lines:
        raise ValueError("no cluster above the mass threshold")
    centroids, masses, counts = zip(*reversed(lines))
    return Spectrum(map_p_to_E(np.array(centroids), probe), masses,
                    counts=counts, residual_mass=residual)


def seeded_histogram(rng, probe):
    """Clusters of random length and counts, some of them single bins, between
    gaps of random width, on a grid of a few bins per momentum spread."""
    counts = []
    for _ in range(int(rng.integers(1, 40))):
        counts += [0] * int(rng.integers(1, 30))
        top = int(rng.choice([2, 50, 10 ** 4]))
        counts += rng.integers(0, top, int(rng.integers(1, 60))).tolist()
    counts = np.array(counts, dtype=np.intp)
    w = probe.momentum_std() / 4 if probe.momentum_std() > 0 else 0.01
    k_lo = int(rng.integers(-10 ** 6, 10 ** 6))
    return Histogram(k_lo + np.flatnonzero(counts).astype(float), counts[counts > 0], w, probe.p0)


class TestDetectPeaksMatchesTheLoop:
    MODES = [Ideal(), Bin(0.05), Squeezed(20.0)]

    @pytest.mark.parametrize("coincident", [False, True], ids=["own-cuts", "coincident-cuts"])
    def test_every_field_bit_for_bit(self, monkeypatch, coincident):
        rng = np.random.default_rng(24)
        valley_cuts = reconstruct._valley_cuts
        if coincident:
            def with_coincident_cuts(hist, a, b, smooth_bins):
                # each cut twice, and a few more pairs inside the cluster: empty runs
                extra = rng.integers(a + 1, b, 3)
                return np.sort(np.concatenate([np.repeat(valley_cuts(hist, a, b, smooth_bins), 2),
                                               extra, extra]))
            monkeypatch.setattr(reconstruct, "_valley_cuts", with_coincident_cuts)
        for trial in range(60):
            probe = ProbeConfig(0.3, 1.0, 2.0, self.MODES[trial % 3])
            hist = seeded_histogram(rng, probe)
            for min_mass in (None, 1e-4, 0.01, 0.2, 0.999):
                state = rng.bit_generator.state
                got = outcome(detect_peaks, hist, probe, min_mass)
                rng.bit_generator.state = state  # the reference sees the same extra cuts
                assert got == outcome(detect_peaks_loop, hist, probe, min_mass)

    def test_single_bin_lines_are_fast(self):
        """10^6 single-bin lines, two bins apart: one Python step per line took
        about 7 s (all kept) and 2.6 s (all dropped)."""
        n = 10 ** 6
        hist = Histogram(2.0 * np.arange(n), np.ones(n, dtype=np.intp), 1e-6)
        probe = ProbeConfig(0.0, 1.0, 1.0, Ideal())
        start = time.perf_counter()
        spec = detect_peaks(hist, probe, min_mass=1e-7)
        with pytest.raises(ValueError, match="no cluster above the mass threshold"):
            detect_peaks(hist, probe)
        assert time.perf_counter() - start < 2.0
        assert len(spec.energies) == n and spec.residual_mass == 0.0


class TestMovingAverage:
    @pytest.mark.parametrize("w", [1, 2, 4, 8])
    def test_bit_identical_to_convolve(self, w):
        rng = np.random.default_rng(w)
        for _ in range(300):
            n = int(rng.integers(w, 200))
            segment = rng.integers(0, int(rng.choice([3, 100, 10 ** 6])), n)
            expected = np.convolve(segment.astype(float), np.ones(w) / w, mode="same")
            assert _moving_average(segment, w).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("w", [3, 5, 6, 7, 11])
    def test_equal_window_sums_tie_exactly(self, w):
        segment = np.random.default_rng(w).integers(0, 4, 500)
        smooth = _moving_average(segment, w)
        sums = np.convolve(segment, np.ones(w, dtype=segment.dtype), mode="same")
        assert np.array_equal(smooth, sums / w)

    def test_narrow_bins_reconstruct_quickly(self):
        """At bin width 6e-7 the smoothing window is ~6e4 bins over clusters of
        ~5e5 bins; a convolution costs window times span, tens of seconds here."""
        H = dicke_interaction(4)
        spec = spectrum_of(thermal_state(H, 0.5), H)
        probe = squeezed_probe(s=20.0)
        rec = sample_measurements(distribution_for(spec, probe), 20_000, seed=3)
        start = time.perf_counter()
        recon = reconstruct_record(rec, probe, bin_width=6e-7)
        assert time.perf_counter() - start < 4.0
        assert recon.populations.sum() + recon.residual_mass == pytest.approx(1.0)


def assert_same_peaks(x, p):
    """The numpy scan must return exactly SciPy's peaks, not close ones."""
    expected = find_peaks(x, prominence=p)[0]
    got = _prominent_peaks(x, p)
    assert got.tolist() == expected.tolist()


def smoothed_poisson(seed, n, w, rate):
    """Smoothed Poisson counts of two overlapping lines, built as _split_cluster does."""
    rng = np.random.default_rng(seed)
    grid = np.arange(n)
    shape = (np.exp(-0.5 * ((grid - 0.35 * n) / (0.1 * n + 1)) ** 2)
             + 0.6 * np.exp(-0.5 * ((grid - 0.6 * n) / (0.08 * n + 1)) ** 2))
    segment = rng.poisson(rate * shape).astype(float)
    w = min(w, n)
    return np.convolve(segment, np.ones(w) / w, mode="same")


def split_prominence(smooth, w):
    top = smooth.max()
    return 5.0 * np.sqrt(top / w) + 0.02 * top


class TestProminentPeaks:
    @settings(max_examples=300, deadline=None)
    @given(x=arrays(np.float64, st.integers(0, 40),
                    elements=st.integers(0, 4).map(float)),
           p=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]))
    def test_integer_values_flat_tops(self, x, p):
        assert_same_peaks(x, p)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
           p=st.floats(0.0, 4.0))
    def test_gaussian_noise(self, seed, n, p):
        assert_same_peaks(np.random.default_rng(seed).normal(size=n), p)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 400),
           w=st.integers(1, 12), rate=st.floats(1.0, 1e4))
    def test_smoothed_poisson_counts(self, seed, n, w, rate):
        smooth = smoothed_poisson(seed, n, w, rate)
        assert_same_peaks(smooth, split_prominence(smooth, min(w, n)))
        assert_same_peaks(smooth, 0.0)

    @pytest.mark.parametrize("x", [[], [1.0], [1.0, 2.0], [2.0, 1.0], [3.0] * 10])
    def test_short_and_constant_inputs_have_no_peak(self, x):
        assert_same_peaks(np.array(x), 0.0)
        assert len(_prominent_peaks(np.array(x), 0.0)) == 0

    @pytest.mark.parametrize("x", [[2, 2, 2, 1, 0], [0, 1, 2, 2, 2], [3, 3, 1, 2, 2],
                                   [5, 1, 2, 1, 4, 4]])
    def test_plateau_on_a_border_is_no_peak(self, x):
        x = np.array(x, dtype=float)
        assert_same_peaks(x, 0.0)
        assert np.all(x[_prominent_peaks(x, 0.0)] < x.max())

    def test_zero_prominence_keeps_every_flat_top(self):
        x = np.array([0, 1, 0, 1, 1, 0, 2, 2, 2, 0, 3, 3, 3, 3, 1, 1, 0], dtype=float)
        assert_same_peaks(x, 0.0)
        assert _prominent_peaks(x, 0.0).tolist() == [1, 3, 7, 11]

    def test_prominence_threshold_is_inclusive(self):
        x = np.array([0.0, 2.0, 1.0, 3.0, 0.0])
        assert_same_peaks(x, 1.0)
        assert _prominent_peaks(x, 1.0).tolist() == [1, 3]
        assert _prominent_peaks(x, 1.5).tolist() == [3]

    def test_noisy_large_cluster(self):
        smooth = smoothed_poisson(7, 100_000, 4, 50.0)
        assert_same_peaks(smooth, split_prominence(smooth, 4))
        assert_same_peaks(smooth, 0.0)


class TestMoments:
    def test_symmetric_first_moment(self):
        spec = Spectrum.from_lines([(-1.0, 0.5, 1), (1.0, 0.5, 1)])
        probe = squeezed_probe(s=50.0)
        rec = sample_measurements(distribution_for(spec, probe), 400_000, seed=1)
        recon = reconstruct_record(rec, probe)
        assert recon.moment(1) == pytest.approx(0.0, abs=0.01)
        assert recon.moment(2) == pytest.approx(1.0, abs=0.01)

    def test_thermal_qubit_matches_trace(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        state = thermal_state(h, 1.2)
        spec = spectrum_of(state, h)
        probe = squeezed_probe(s=40.0)
        n = 500_000
        rec = sample_measurements(distribution_for(spec, probe), n, seed=13)
        recon = reconstruct_record(rec, probe)
        direct = np.trace(state.rho @ h.entries).real
        p1 = spec.lines[1].P
        assert recon.moment(1) == pytest.approx(direct,
                                                abs=5 * np.sqrt(p1 * (1 - p1) / n) + 1e-3)


def test_round_trip_recovery_rate():
    spec = Spectrum.from_lines([(0.0, 0.3, 1), (1.0, 0.25, 1), (2.0, 0.45, 1)])
    probe = squeezed_probe(s=1.0 / (np.sqrt(2) * 0.1))  # sigma_E = spacing/10
    sigma_E = resolution_params(probe).sigma_E
    n = max(required_samples(sigma_E, line.P) for line in spec.lines)
    dist = distribution_for(spec, probe)
    trials = 20
    good = 0
    for seed in range(trials):
        rec = sample_measurements(dist, n, seed=seed)
        recon = reconstruct_record(rec, probe)
        if len(recon.lines) != 3:
            continue
        ok = all(abs(line.E_hat - true.E) <= 4 * sigma_E / np.sqrt(n * true.P) + 1e-3
                 for line, true in zip(recon.lines, spec.lines))
        good += ok
    assert good >= 0.95 * trials
