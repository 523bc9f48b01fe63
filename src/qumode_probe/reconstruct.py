"""Recovery of spectral lines from sampled momentum records.

The estimator is deliberately simple: histogram the record, cut the
occupied bins at wide gaps and at significant valleys, and take the
mass-weighted centroid of each run between two cuts as the line
position.  Lines closer than the probe's momentum spread merge,
mirroring the resolvability limit of a finitely squeezed or finitely
binned probe.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .operators import Spectrum
from .probe import MAX_BINS, Bin, ProbeConfig, Squeezed, bin_index, map_p_to_E
from .sampling import MeasurementRecord


@dataclass(frozen=True)
class ResolutionParams:
    """Resolution figures implied by the probe configuration.

    ``sigma_E`` follows the Gaussian width of the squeezed-mode
    distribution, 1/(sqrt(2) s g tau); ``delta_E`` is a bin probe's
    plateau width in energy, L/(g tau).
    """

    sigma_E: float = 0.0
    delta_E: float = 0.0
    infinite_resolution: bool = False

    def resolvability(self, spacing: float) -> float:
        """Line spacing over sigma_E, or over a bin probe's delta_E; lines blur
        together below ~1."""
        width = self.sigma_E or self.delta_E
        if self.infinite_resolution or width == 0.0:
            return float("inf")
        return spacing / width


def resolution_params(probe: ProbeConfig) -> ResolutionParams:
    gt = probe.g_tau
    if isinstance(probe.mode, Bin):
        return ResolutionParams(delta_E=probe.mode.L / gt)
    if isinstance(probe.mode, Squeezed):
        return ResolutionParams(sigma_E=1.0 / (np.sqrt(2.0) * probe.mode.s * gt))
    return ResolutionParams(infinite_resolution=True)


def required_samples(sigma_E: float, P_n: float, scale: float = 1.0) -> int:
    """Measurement budget to pin one line: ceil(scale / (sigma_E^2 P_n))."""
    if sigma_E <= 0 or not 0 < P_n <= 1:
        raise ValueError("sigma_E must be positive and P_n in (0, 1]")
    return int(np.ceil(scale / (sigma_E ** 2 * P_n)))


@dataclass(frozen=True, eq=False)
class Histogram:
    """Counts of the occupied half-open bins [origin + k*width, origin + (k+1)*width):
    ``bins`` holds their indices k, ascending, as floats, and ``counts`` their counts."""
    bins: np.ndarray
    counts: np.ndarray
    width: float
    origin: float = 0.0

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def edge(self, k):
        """Lower edge of bin ``k``."""
        return self.origin + self.width * k

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edge(self.bins) + self.edge(self.bins + 1))


def histogram(record: MeasurementRecord, bin_width: float,
              origin: float = 0.0) -> Histogram:
    """Counts per occupied half-open bin [origin + k*w, origin + (k+1)*w); see
    ``histogram_blocks``."""
    return histogram_blocks([record.samples], bin_width, origin)


def histogram_blocks(blocks: Iterable[np.ndarray], bin_width: float,
                     origin: float = 0.0) -> Histogram:
    """Counts per occupied half-open bin [origin + k*w, origin + (k+1)*w) of the
    samples in ``blocks``.

    Each block's occupied bins are counted as it is read, and the blocks' counts
    are merged once, after the last block, so memory follows the occupied bins,
    never the span between them.  A sample 2**53 bins or more from the origin is
    refused.
    """
    if not bin_width > 0:
        raise ValueError("bin width must be positive")
    parts = [np.unique(bin_index(samples, bin_width, origin, "record samples"),
                       return_counts=True)
             for samples in blocks if len(samples)]
    if not parts:
        raise ValueError("record is empty")
    bins, inverse = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    # float sums of integer counts are exact below 2**53
    counts = np.bincount(inverse, weights=np.concatenate([c for _, c in parts]))
    return Histogram(bins, counts.astype(np.intp), bin_width, origin)


def _prominent_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of local maxima of ``x`` whose prominence is >= ``min_prominence``.

    Same indices as SciPy's ``find_peaks(x, prominence=min_prominence)``:
    a flat top reports its middle sample (rounded left), a top touching
    either border is no peak, and a peak's prominence is its height above
    the higher of its two bases, each base being the lowest sample between
    the peak and the nearest strictly higher sample (or the border).

    The scan works on runs of equal values.  The nearest strictly higher
    sample beside a peak always lies on the slope of a higher peak (or of
    the border run), so a monotonic stack over the peaks alone, fed the
    minima of the valleys between neighbouring peaks, finds both bases in
    time linear in ``len(x)``.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    vals = x[starts]
    # neighbouring runs differ, so a run not rising to the next one falls
    rises = vals[1:] > vals[:-1]
    # run 0, then every peak run: the bounds of the valleys between them
    bounds = np.flatnonzero(np.concatenate(([True], rises[:-1] & ~rises[1:])))
    if len(bounds) == 1:
        return np.empty(0, dtype=np.intp)
    # valleys[i] is the minimum between peak i - 1 and peak i, the outer
    # two reaching the borders; a peak never lowers its own valley
    valleys = np.minimum.reduceat(vals, bounds).tolist()
    runs = bounds[1:].tolist()
    heights = vals[bounds[1:]].tolist()
    left = _bases(heights, valleys[:-1])
    right = _bases(heights[::-1], valleys[:0:-1])[::-1]
    # a peak run is never the last run, so the next run's start ends it
    s = starts.tolist()
    return np.array([(s[r] + s[r + 1] - 1) // 2
                     for r, h, a, b in zip(runs, heights, left, right)
                     if h - max(a, b) >= min_prominence], dtype=np.intp)


def _bases(heights: list[float], valleys: list[float]) -> list[float]:
    """Lowest value between each peak and the nearest strictly higher one before it.

    ``valleys[i]`` is the minimum between peak i and peak i - 1 (or the
    border).  Each stack entry carries its height and the minimum between
    it and the entry below, so every peak is pushed and popped at most once.
    """
    bases = []
    stack: list[tuple[float, float]] = []
    for h, low in zip(heights, valleys):
        while stack and stack[-1][0] <= h:
            popped = stack.pop()[1]
            if popped < low:
                low = popped
        bases.append(low)
        stack.append((h, low))
    return bases


def _moving_average(segment: np.ndarray, w: int) -> np.ndarray:
    """``np.convolve(segment, np.ones(w) / w, "same")`` of an integer ``segment``,
    as window sums over [i - w//2, i + (w-1)//2] from one cumulative sum: linear
    time whatever ``w``, and equal sums give exactly equal means."""
    zeros = np.zeros(w // 2 + 1, dtype=segment.dtype)
    s = np.cumsum(np.concatenate((zeros, segment, zeros[:(w - 1) // 2])))
    return (s[w:] - s[:-w]) / w


def _valley_cuts(hist: Histogram, a: int, b: int, smooth_bins: int) -> np.ndarray:
    """Positions in ``hist.bins`` at which the cluster of occupied bins a..b-1
    splits at significant valleys; a bin on a cut stays left of it.

    The cluster's counts, laid out over its whole span with its empty bins as
    zeros, are smoothed over roughly one momentum spread and scanned for local
    maxima whose prominence exceeds both the Poisson noise floor and 2% of
    the cluster peak; the lowest bin between each two surviving maxima is a
    cut.  Lines that overlap too heavily show no significant valley and stay
    merged.  A span over ``MAX_BINS`` bins is refused before it is laid out.
    """
    offsets = hist.bins[a:b] - hist.bins[a]
    span = offsets[-1] + 1
    if not span <= MAX_BINS:
        raise ValueError(f"a cluster of the histogram spans {span:.6g} bins of width "
                         f"{float(hist.width)!r} from p = {float(hist.edge(hist.bins[a]))!r}, "
                         f"over the cap of {MAX_BINS}")
    window = np.zeros(int(span), dtype=np.intp)
    window[offsets.astype(np.intp)] = hist.counts[a:b]
    w = min(smooth_bins, len(window))
    smooth = _moving_average(window, w)
    top = smooth.max()
    prominence = 5.0 * np.sqrt(top / w) + 0.02 * top
    peaks = _prominent_peaks(smooth, prominence).tolist()
    valleys = [i + int(np.argmin(smooth[i:j + 1])) for i, j in zip(peaks[:-1], peaks[1:])]
    return a + np.searchsorted(offsets, valleys, side="right")


def detect_peaks(hist: Histogram, probe: ProbeConfig,
                 min_mass: float | None = None) -> Spectrum:
    """Cut the occupied histogram bins into spectral lines.

    A line is the run of occupied bins between two consecutive cuts.
    Gap cuts fall where occupied bins that are not adjacent lie more than
    ``max(hist.width, 3 * sigma_p)`` apart, so sparse tail counts cannot
    bridge well-separated lines.  Valley cuts split each cluster between
    gap cuts at its significant valleys (``_valley_cuts``), so
    overlapping-but-distinct lines separate; a cluster of fewer than three
    occupied bins has no valley to cut at.  Lines of mass below ``min_mass``
    (default 10/n) go to ``residual_mass``; the others become a
    :class:`Spectrum` of their masses and counts, unit degeneracies, and
    energies mapped from the centroids by the probe's p -> E relation.
    """
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

    gap = max(hist.width, 3.0 * probe.momentum_std())
    smooth_bins = max(1, int(round(probe.momentum_std() / hist.width)))
    centers = hist.centers
    # cuts are positions in ``hist.bins``; line k is bins cuts[k]:cuts[k + 1].
    # Adjacent bins are never cut, as rounding lifts half their gaps above the width
    apart = (np.diff(hist.bins) > 1) & (np.diff(centers) > gap)
    gap_cuts = np.concatenate(([0], np.flatnonzero(apart) + 1, [len(hist.bins)]))
    # valley cuts lie strictly inside their cluster, so sorting merges them in place
    cuts = np.sort(np.concatenate([gap_cuts] + [
        _valley_cuts(hist, gap_cuts[i], gap_cuts[i + 1], smooth_bins)
        for i in np.flatnonzero(np.diff(gap_cuts) >= 3)]))

    a, b = cuts[:-1], cuts[1:]
    # exact integer sums; a run between coincident valley cuts holds no bin, where
    # reduceat would give the bin at a
    counts = np.where(b > a, np.add.reduceat(hist.counts, a), 0)
    masses = counts / n
    dropped = masses < min_mass
    # the dropped masses summed in line order, one float addition at a time
    residual = float(np.cumsum(masses[dropped])[-1]) if dropped.any() else 0.0
    keep = np.flatnonzero(~dropped)
    if not keep.size:
        raise ValueError("no cluster above the mass threshold")
    a, b, counts = a[keep], b[keep], counts[keep]
    # np.average(centers[a:b], weights=counts[a:b]) to the bit, as its float sum of
    # the counts is exact, without its per-call checks: one bin's sum is its one term
    centroids = centers[a] * hist.counts[a] / counts
    for i in np.flatnonzero(b - a > 1):
        lo, hi = a[i], b[i]
        centroids[i] = (centers[lo:hi] * hist.counts[lo:hi]).sum() / counts[i]

    # lines run up in p, and the p -> E relation reverses the ordering
    return Spectrum(map_p_to_E(centroids[::-1], probe), masses[keep][::-1],
                    counts=counts[::-1], residual_mass=residual)


def reconstruct_record(record: MeasurementRecord, probe: ProbeConfig,
                       bin_width: float | None = None,
                       min_mass: float | None = None) -> Spectrum:
    """Histogram + peak detection with a probe-derived default bin width."""
    return reconstruct_blocks([record.samples], probe, record.detector_bin,
                              bin_width=bin_width, min_mass=min_mass)


def reconstruct_blocks(blocks: Iterable[np.ndarray], probe: ProbeConfig,
                       detector_bin: float = 0.0, bin_width: float | None = None,
                       min_mass: float | None = None) -> Spectrum:
    """``reconstruct_record`` of the samples in ``blocks``, histogrammed block by block."""
    if bin_width is None:
        sigma_p = probe.momentum_std()
        bin_width = sigma_p / 4 if sigma_p > 0 else max(detector_bin, 1e-6)
    # anchoring the bin grid at p0 makes the estimates invariant under a
    # joint shift of samples and p0
    hist = histogram_blocks(blocks, bin_width, origin=probe.p0)
    return detect_peaks(hist, probe, min_mass=min_mass)
