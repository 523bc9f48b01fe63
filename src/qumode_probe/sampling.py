"""Seeded Monte-Carlo sampling of momentum measurement outcomes.

Draw j consumes uniforms 2j and 2j+1 of a Philox stream keyed by the
seed, so a record is reproducible and independent of how the draws are
partitioned across workers or chunks: ``sample_measurements(..., start=s)``
draws j in [s, s + n) without generating the draws before s.

``MAX_SAMPLES`` (10**7) is the largest ``sampling.n`` the command line
accepts; its record is 170 MB of text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probe import GaussianMixture, MomentumDistribution, PiecewiseUniform, PointMasses

MAX_SAMPLES = 10 ** 7


@dataclass(frozen=True)
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


def _uniform_pairs(seed: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniforms (2j, 2j+1) for draws j in [start, start+count).

    Philox advances in blocks of four doubles, so ``start`` must be even
    (two uniforms per draw).
    """
    if start % 2:
        raise ValueError("partition start must be even")
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start // 2)
    u = np.random.Generator(bitgen).random(2 * count)
    return u[0::2], u[1::2]


def _inverse_cdf(dist: MomentumDistribution, u_comp: np.ndarray,
                 u_within: np.ndarray) -> np.ndarray:
    """Exact inverse-CDF draw: component choice, then within-component."""
    if isinstance(dist, PointMasses):
        masses = np.array([m for _, m in dist.points])
        values = np.array([p for p, _ in dist.points])
        # ties at the cumulative edges go to the lower component
        idx = np.searchsorted(np.cumsum(masses), u_comp, side="left")
        idx = np.clip(idx, 0, len(values) - 1)
        return values[idx]
    if isinstance(dist, PiecewiseUniform):
        masses = np.array([m for _, _, m in dist.segments])
        lows = np.array([c - w / 2 for c, w, _ in dist.segments])
        widths = np.array([w for _, w, _ in dist.segments])
        idx = np.searchsorted(np.cumsum(masses), u_comp, side="left")
        idx = np.clip(idx, 0, len(masses) - 1)
        return lows[idx] + widths[idx] * u_within
    if isinstance(dist, GaussianMixture):
        weights = np.array([w for _, _, w in dist.components])
        means = np.array([mu for mu, _, _ in dist.components])
        stds = np.array([sd for _, sd, _ in dist.components])
        idx = np.searchsorted(np.cumsum(weights), u_comp, side="left")
        idx = np.clip(idx, 0, len(weights) - 1)
        from scipy.special import ndtri  # lazy: scipy.special is most of a CLI call's start-up
        return means[idx] + stds[idx] * ndtri(u_within)
    raise TypeError(f"unsupported distribution type {type(dist).__name__}")


def sample_measurements(dist: MomentumDistribution, n: int, seed: int,
                        detector_bin: float = 0.0, start: int = 0) -> MeasurementRecord:
    """Draw n i.i.d. momentum outcomes, draws j in [start, start + n) of the stream.

    Deterministic in (dist, n, seed, start); ``start`` must be even, and
    consecutive calls that tile [0, N) concatenate to the single call
    with n = N.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    u_comp, u_within = _uniform_pairs(seed, start, n)
    return MeasurementRecord(samples=_inverse_cdf(dist, u_comp, u_within),
                             seed=seed, detector_bin=detector_bin)


def sample_measurements_partitioned(dist: MomentumDistribution, n: int, seed: int,
                                    n_partitions: int,
                                    detector_bin: float = 0.0) -> MeasurementRecord:
    """Partitioned sampling; the merged record matches the serial one."""
    if n < 1:
        raise ValueError("need at least one sample")
    if n_partitions < 1:
        raise ValueError("need at least one partition")
    bounds = np.linspace(0, n, n_partitions + 1).astype(int)
    bounds[1:-1] -= bounds[1:-1] % 2  # align to the Philox block contract
    parts = [sample_measurements(dist, int(b - a), seed, start=int(a)).samples
             for a, b in zip(bounds, bounds[1:]) if b > a]
    return MeasurementRecord(samples=np.concatenate(parts), seed=seed,
                             detector_bin=detector_bin)
