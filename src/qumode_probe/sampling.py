"""Seeded Monte-Carlo sampling of momentum measurement outcomes.

Draw j consumes uniforms 2j and 2j+1 of a Philox stream keyed by the
seed: the first picks one line of a ``LineMixture``, the second places
the draw within that line's kernel.  A mixture with detector bins reads
each draw into its bin and places it there by uniform j of a second
Philox stream, with the same key and a counter that starts at 2**192, so
records without detector bins keep every bit.  A record is therefore
reproducible and independent of how the draws are split into chunks:
``sample_measurements(..., start=s)`` draws j in [s, s + n) without
generating the draws before s.

A record of many draws is drawn in chunks through arrays allocated once
(``sample_chunks``), and each draw picks its line by an indexed search in
O(1) steps on average.  A squeezed draw costs about 0.05 us, 0.03 us of it
the inverse normal CDF (a numpy port of Cephes ``ndtri``) and 0.01 us the
two Philox uniforms, against 0.02 us for a bin probe's (2-core Xeon, numpy
2.4.6, 2**15-draw chunks).  ``MAX_SAMPLES`` (10**7) is the largest
``sampling.n`` the command line accepts; its record is 170 MB of text, and
a fresh ``sample`` child that writes it for a squeezed probe takes about
1.0 s there.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .probe import LineMixture, Workspace, bin_index

MAX_SAMPLES = 10 ** 7


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Measurement outcomes plus the provenance needed to reproduce them."""

    samples: np.ndarray
    seed: int
    detector_bin: float = 0.0

    def __post_init__(self):
        if not self.detector_bin >= 0:
            raise ValueError("detector bin width must be nonnegative")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if not np.isfinite(self.samples).all():
            raise ValueError("record has non-finite samples")

    @property
    def n(self) -> int:
        return len(self.samples)


def _pick_lines(dist: LineMixture, u: np.ndarray, work: Workspace) -> np.ndarray:
    """The line of each uniform u in [0, 1): the first whose cumulative weight
    reaches u, else the last line, which is
    min(searchsorted(cumulative_weights, u, "left"), L - 1) for every u.

    Each search starts at guide[floor(u*K)] and steps up while the edge there
    is below u (``LineMixture.line_guide``): at most L/K <= 1 steps per draw
    on average (Devroye, 1986, III.2.4).  Whole-array steps run while more
    than 1/32 of the draws still fall short; the few left step alone.
    """
    guide, edges = dist.line_guide
    n = len(u)
    scaled = np.multiply(u, len(guide), out=work("pick", n))
    bucket = work("bucket", n, np.intp)
    np.copyto(bucket, scaled, casting="unsafe")  # truncation is floor for u >= 0
    # mode="clip" writes straight into ``out``; "raise" would buffer it
    line = np.take(guide, bucket, out=work("line", n, np.intp), mode="clip")
    short = work("short", n, bool)
    while True:
        np.less(np.take(edges, line, out=scaled, mode="clip"), u, out=short)
        count = np.count_nonzero(short)
        if count <= n >> 5:
            break
        line += short
    rest = np.flatnonzero(short)
    while rest.size:
        line[rest] += 1
        rest = rest[edges[line[rest]] < u[rest]]
    return line


def _draw(dist: LineMixture, pairs: np.random.Generator, bins: np.random.Generator | None,
          detector_bin: float, count: int, work: Workspace) -> np.ndarray:
    """The next ``count`` draws of the streams, in arrays of ``work``."""
    u = pairs.random(out=work("uniforms", 2 * count))
    line = _pick_lines(dist, u[0::2], work)
    samples = dist.mode.inverse_cdf(u[1::2], work("samples", count), work)
    samples += np.take(dist.points, line, out=work("pick", count), mode="clip")
    if bins is not None:
        bin_index(samples, detector_bin, 0.0, "draws", out=samples)
        samples += bins.random(out=work("pick", count))
        samples *= detector_bin
    return samples


def sample_chunks(dist: LineMixture, n: int, seed: int, detector_bin: float = 0.0,
                  chunk: int | None = None, start: int = 0) -> Iterator[MeasurementRecord]:
    """Draws j in [start, start + n) of ``sample_measurements``, as records of
    ``chunk`` draws (all n when None), the last one shorter when n is no
    multiple of it.

    Each Philox stream is advanced to ``start`` once and read on from there,
    chunk after chunk.  The working arrays are allocated once, sized to
    min(n, chunk), and each record's samples are a view that the next record
    overwrites.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if start % 2:
        raise ValueError("partition start must be even")
    if detector_bin > 0 and start % 4:
        raise ValueError("a detector-binned partition start must be a multiple of 4")
    pairs = np.random.Philox(key=seed)
    pairs.advance(start // 2)  # a Philox block holds four uniforms: two draws here
    pairs = np.random.Generator(pairs)
    bins = None
    if detector_bin > 0:
        bins = np.random.Philox(key=seed, counter=[0, 0, 0, 1])
        bins.advance(start // 4)  # and four draws here
        bins = np.random.Generator(bins)
    chunk = n if chunk is None else chunk
    work = Workspace()
    for done in range(0, n, chunk):
        samples = _draw(dist, pairs, bins, detector_bin, min(chunk, n - done), work)
        yield MeasurementRecord(samples=samples, seed=seed, detector_bin=detector_bin)


def sample_measurements(dist: LineMixture, n: int, seed: int,
                        detector_bin: float = 0.0, start: int = 0) -> MeasurementRecord:
    """Draw n i.i.d. momentum outcomes, draws j in [start, start + n) of the stream.

    Composition (Devroye, Non-Uniform Random Variate Generation, 1986,
    II.4): uniform 2j picks a line by its weight, ties at the cumulative
    edges going to the lower line, and uniform 2j+1 goes through that
    line's kernel's inverse CDF.  When ``detector_bin`` w > 0, the draw p
    becomes (floor(p/w) + v)*w for the bin stream's uniform v, and the record
    names w.  Deterministic in (dist, n, seed, detector_bin, start); ``start``
    must be even, a multiple of 4 when binned, and consecutive calls that tile
    [0, N) concatenate to the single call with n = N.
    """
    return next(sample_chunks(dist, n, seed, detector_bin, start=start))
