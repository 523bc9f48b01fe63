"""Recovery of spectral lines from sampled momentum records.

The estimator is deliberately simple: histogram the record, cut the
occupied bins at wide gaps and at significant valleys, and take the
mass-weighted centroid of each run between two cuts as the line
position.  Lines closer than the probe's momentum spread merge,
mirroring the resolvability limit of a finitely squeezed or finitely
binned probe.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .operators import Spectrum
from .probe import Bin, ProbeConfig, Squeezed, bin_index, map_p_to_E
from .sampling import MeasurementRecord

# bins one cluster's smoothing window may span, occupied or not
MAX_BINS = 2 ** 24
# clusters ending in one window of this many bins are laid out together
BATCH_BINS = 2 ** 16


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


def required_samples(sigma_E: float, P_n: float) -> int:
    """Measurement budget to pin one line: ceil(1 / (sigma_E^2 P_n))."""
    if sigma_E <= 0 or not 0 < P_n <= 1:
        raise ValueError("sigma_E must be positive and P_n in (0, 1]")
    return int(np.ceil(1.0 / (sigma_E ** 2 * P_n)))


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


def _bases(heights: list[float], valleys: list[float], lower: Callable) -> list[float]:
    """Lowest value between each peak and the nearest earlier peak that is not
    ``lower`` than it, or the start; ``valleys[i]`` is the minimum between peaks
    i - 1 and i.  A monotonic stack: every peak is pushed and popped at most once."""
    bases = []
    stack: list[tuple[float, float]] = []
    for h, low in zip(heights, valleys):
        while stack and lower(stack[-1][0], h):
            low = min(low, stack.pop()[1])
        bases.append(low)
        stack.append((h, low))
    return bases


def _valleys(x: np.ndarray, starts: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Positions in ``x`` of the first minimum between each two neighbouring peaks of
    a cluster whose prominences reach the cluster's threshold.

    Cluster c follows a run of +inf from ``starts[c]``, the first at 0.  A peak has
    x[i] > x[i-1] and x[i] >= x[i+1]; its prominence is its height above the higher
    of its bases, the lowest samples between it and the nearest higher peak on each
    side or the border.  By the elder rule of persistence, of two equal peaks the
    earlier (lower p, higher E) counts as higher.  A top at a border has prominence 0.
    """
    rise = x[1:] > x[:-1]
    peaks = np.flatnonzero(rise[:-1] & ~rise[1:] & (x[1:-1] < np.inf)) + 1
    bounds = np.sort(np.concatenate((starts, peaks)))
    cluster = np.searchsorted(starts, bounds, side="right") - 1
    mins = np.minimum.reduceat(x, bounds)
    # only a cluster of two peaks or more has a valley: its start and those peaks
    i = np.flatnonzero((np.bincount(cluster) > 2)[cluster])
    heights = x[bounds[i]]
    left = _bases(heights.tolist(), mins[i - 1].tolist(), operator.lt)
    right = _bases(heights[::-1].tolist(), mins[i[::-1]].tolist(), operator.le)[::-1]
    # a start's prominence is +inf: it stays a border
    i = i[heights - np.maximum(left, right) >= thresholds[cluster[i]]]
    # the first minimum of each run from a kept peak to the next, with no border in it
    bounds = np.union1d(starts, bounds[i])
    mins = np.minimum.reduceat(x, bounds)
    at_min = np.flatnonzero(x == np.repeat(mins, np.diff(bounds, append=len(x))))
    first = at_min[np.searchsorted(at_min, bounds[:-1])]
    return first[(x[bounds[:-1]] < np.inf) & (x[bounds[1:]] < np.inf)]


def _valley_cuts(hist: Histogram, gap_cuts: np.ndarray, smooth_bins: int) -> np.ndarray:
    """Positions in ``hist.bins`` at which the clusters between ``gap_cuts`` split at
    significant valleys (``_valleys``); a bin on a cut stays left of it.

    Each cluster of three or more occupied bins is laid out over its span, empty bins
    as zeros, after w = min(smooth_bins, span) separators, all in one array whose
    integer cumulative sum gives the window sums over [i - w//2, i + (w-1)//2]:
    divided by w, the counts smoothed over about one momentum spread.  A peak must
    stand out by the Poisson noise floor plus 2% of its cluster's top.  ``MAX_BINS``
    caps each cluster's span before any layout.  The clusters that end in one window
    of ``BATCH_BINS`` bins are laid out together, so memory follows the widest one.
    """
    many = np.flatnonzero(np.diff(gap_cuts) >= 3)
    a, b = gap_cuts[many], gap_cuts[many + 1]
    spans = hist.bins[b - 1] - hist.bins[a] + 1
    if (spans > MAX_BINS).any():
        k = np.argmax(spans > MAX_BINS)
        raise ValueError(f"a cluster of the histogram spans {spans[k]:.6g} bins of width "
                         f"{float(hist.width)!r} from p = {float(hist.edge(hist.bins[a[k]]))!r}, "
                         f"over the cap of {MAX_BINS}")
    spans = spans.astype(np.intp)
    batch = np.cumsum(spans) // BATCH_BINS  # the window of BATCH_BINS bins each ends in
    cuts = []
    for i in np.split(np.arange(len(spans)), np.flatnonzero(np.diff(batch)) + 1):
        first, span, n = hist.bins[a[i]], spans[i], b[i] - a[i]
        w = np.minimum(smooth_bins, span)
        runs = np.column_stack((w, span)).ravel()  # each cluster's separators, then its span
        run_starts = np.cumsum(runs) - runs
        starts = run_starts[::2]
        # bin j of cluster c at starts[c] + w//2 + 1 + j, so that the window sum
        # ending at starts[c] + w + j is the one centred on bin j; j is exact, as
        # both bins lie within 2**53 of the origin, and starts[c] - first[c] may not be
        k = np.arange(n.sum()) + np.repeat(a[i] + n - np.cumsum(n), n)
        sums = np.zeros(runs.sum(), dtype=np.intp)
        sums[(hist.bins[k] - np.repeat(first, n)).astype(np.intp)
             + np.repeat(starts + w // 2 + 1, n)] = hist.counts[k]
        np.cumsum(sums, out=sums)
        width = np.repeat(w, span + w)
        # a separator's window may wrap round; separators are +inf
        x = (sums - sums[np.arange(len(sums)) - width]) / width
        x[np.repeat(np.tile([True, False], len(w)), runs)] = np.inf
        top = np.maximum.reduceat(x, run_starts)[1::2]
        q = _valleys(x, starts, 5.0 * np.sqrt(top / w) + 0.02 * top)
        c = np.searchsorted(starts, q, side="right") - 1
        cuts.append(np.searchsorted(hist.bins, first[c] + (q - starts[c] - w[c]), side="right"))
    return np.concatenate(cuts)


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
    cuts = np.sort(np.concatenate((gap_cuts, _valley_cuts(hist, gap_cuts, smooth_bins))))

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
    # np.average(centers[a:b], weights=counts[a:b]) to the bit, as its float sum of the
    # counts is exact; a row sum over the lines of one length adds as each slice's sum
    centroids = np.empty(len(a))
    order = np.argsort(b - a, kind="stable")
    for i in np.split(order, np.flatnonzero(np.diff((b - a)[order])) + 1):
        rows = a[i, None] + np.arange(b[i[0]] - a[i[0]])
        centroids[i] = (centers[rows] * hist.counts[rows]).sum(axis=1) / counts[i]

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
