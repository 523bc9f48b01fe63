"""Momentum-quadrature measurement distributions for qumode probes.

The interaction imprints each spectral line (E, P) onto the qumode as a
feature at p = p0 - g*E*tau.  Three initial-state models are supported:
an exact momentum eigenstate (point masses), a finite momentum bin of
width L (plateaus of density P/L), and a finitely squeezed Gaussian
(mixture of Gaussians with per-component std 1/(sqrt(2)*s)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .operators import ConvergenceError, HermitianOperator, Spectrum, SystemState, spectrum_of

POINT_MERGE_TOL = 1e-12

# delta initial states are not representable in quadrature; the oracle
# substitutes a strongly squeezed Gaussian instead
IDEAL_SURROGATE_SQUEEZING = 1e4


@dataclass(frozen=True)
class Ideal:
    pass


@dataclass(frozen=True)
class Bin:
    L: float

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("bin size L must be positive")


@dataclass(frozen=True)
class Squeezed:
    s: float

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("squeezing factor s must be positive")


ProbeMode = Union[Ideal, Bin, Squeezed]


@dataclass(frozen=True)
class ProbeConfig:
    p0: float
    g: float
    tau: float
    mode: ProbeMode

    def __post_init__(self):
        if self.g <= 0 or self.tau <= 0:
            raise ValueError("coupling g and interaction time tau must be positive")

    @property
    def g_tau(self) -> float:
        return self.g * self.tau

    def line_position(self, E: float) -> float:
        return self.p0 - self.g_tau * E

    def momentum_std(self) -> float:
        """Per-line spread of the measured momentum for this probe.

        Squeezed: Gaussian std 1/(sqrt(2) s).  Bin: std of a width-L
        uniform window, L/sqrt(12).  Ideal: 0.
        """
        if isinstance(self.mode, Squeezed):
            return 1.0 / (np.sqrt(2.0) * self.mode.s)
        if isinstance(self.mode, Bin):
            return self.mode.L / np.sqrt(12.0)
        return 0.0


@dataclass(frozen=True)
class PointMasses:
    """Discrete distribution: list of (position, mass)."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        _check_mass(sum(m for _, m in self.points))

    def mean(self) -> float:
        return sum(p * m for p, m in self.points)


@dataclass(frozen=True)
class PiecewiseUniform:
    """Disjoint uniform segments: list of (center, width, mass)."""

    segments: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        _check_mass(sum(m for _, _, m in self.segments))
        if any(w <= 0 for _, w, _ in self.segments):
            raise ValueError("segment widths must be positive")

    def density(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        out = np.zeros_like(p)
        for c, w, m in self.segments:
            inside = (p >= c - w / 2) & (p <= c + w / 2)
            out = np.where(inside, out + m / w, out)
        return out

    def mean(self) -> float:
        return sum(c * m for c, _, m in self.segments)


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of normals: list of (mean, std, weight)."""

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        _check_mass(sum(w for _, _, w in self.components))
        if any(s <= 0 for _, s, _ in self.components):
            raise ValueError("component stds must be positive")

    def density(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        out = np.zeros_like(p)
        for mu, sd, w in self.components:
            out = out + w * np.exp(-0.5 * ((p - mu) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
        return out

    def mean(self) -> float:
        return sum(mu * w for mu, _, w in self.components)


MomentumDistribution = Union[PointMasses, PiecewiseUniform, GaussianMixture]


def _check_mass(total: float):
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"total mass {total} differs from 1 beyond 1e-9")


def dephasing_function(spec: Spectrum, g: float, dx: float, t: float) -> complex:
    """System-traced coherence factor sum_n P_n exp(-i g dx E_n t)."""
    phases = np.exp(-1j * g * dx * t * spec.energies)
    return complex(np.sum(spec.populations * phases))


def distribution_ideal(spec: Spectrum, probe: ProbeConfig) -> PointMasses:
    """Point masses P_n at p = p0 - g E_n tau (exact momentum eigenstate)."""
    if not isinstance(probe.mode, Ideal):
        raise ValueError("probe mode must be Ideal")
    positions = [probe.line_position(line.E) for line in spec.lines]
    masses = [line.P for line in spec.lines]
    order = np.argsort(positions)
    merged: list[list[float]] = []
    for k in order:
        if merged and positions[k] - merged[-1][0] <= POINT_MERGE_TOL:
            merged[-1][1] += masses[k]
        else:
            merged.append([positions[k], masses[k]])
    return PointMasses(tuple((p, m) for p, m in merged))


def distribution_binned(spec: Spectrum, probe: ProbeConfig) -> PiecewiseUniform:
    """Plateaus of density P_n/L over |p - p0 + g E_n tau| <= L/2.

    Overlapping plateaus are resolved into disjoint segments whose
    densities add.
    """
    if not isinstance(probe.mode, Bin):
        raise ValueError("probe mode must be Bin")
    L = probe.mode.L
    intervals = [(probe.line_position(line.E) - L / 2,
                  probe.line_position(line.E) + L / 2,
                  line.P / L) for line in spec.lines]
    edges = sorted({e for lo, hi, _ in intervals for e in (lo, hi)})
    segments = []
    for lo, hi in zip(edges, edges[1:]):
        density = sum(d for a, b, d in intervals if a <= lo and hi <= b)
        if density > 0:
            segments.append(((lo + hi) / 2, hi - lo, density * (hi - lo)))
    # renormalize away float roundoff from the edge arithmetic
    total = sum(m for _, _, m in segments)
    segments = [(c, w, m / total) for c, w, m in segments]
    return PiecewiseUniform(tuple(segments))


def distribution_squeezed(spec: Spectrum, probe: ProbeConfig) -> GaussianMixture:
    """Gaussian per line: mean p0 - g E_n tau, std 1/(sqrt(2) s), weight P_n."""
    if not isinstance(probe.mode, Squeezed):
        raise ValueError("probe mode must be Squeezed")
    sd = 1.0 / (np.sqrt(2.0) * probe.mode.s)
    return GaussianMixture(tuple(
        (probe.line_position(line.E), sd, line.P) for line in spec.lines))


def distribution_for(spec: Spectrum, probe: ProbeConfig) -> MomentumDistribution:
    """Closed-form measurement distribution for the probe's mode."""
    if isinstance(probe.mode, Ideal):
        return distribution_ideal(spec, probe)
    if isinstance(probe.mode, Bin):
        return distribution_binned(spec, probe)
    return distribution_squeezed(spec, probe)


def map_p_to_E(p, probe: ProbeConfig):
    """Invert the line position map: E = (p0 - p)/(g tau)."""
    if probe.g_tau == 0:
        raise ValueError("g*tau must be nonzero")
    return (probe.p0 - np.asarray(p, dtype=float)) / probe.g_tau


def _envelope(mode: ProbeMode, x: np.ndarray) -> np.ndarray:
    """Initial wavefunction G(x) with its exp(i p0 x) carrier removed."""
    if isinstance(mode, Squeezed):
        s = mode.s
        return (1.0 / (np.pi * s * s)) ** 0.25 * np.exp(-x * x / (2 * s * s))
    L = mode.L
    # integral of exp(ikx) over the momentum window, done analytically
    safe = np.where(x == 0, 1.0, x)
    w = np.where(x == 0, L, 2 * np.sin(L * x / 2) / safe)
    return w / np.sqrt(2 * np.pi * L)


def _line_offsets(spec: Spectrum, probe: ProbeConfig, p_grid: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(population, u) pairs with u = p - p0 + g*tau*E per spectral line."""
    return [(line.P, p_grid - probe.p0 + probe.g_tau * line.E) for line in spec.lines]


def _oracle_squeezed(spec: Spectrum, probe: ProbeConfig, mode: Squeezed,
                     p_grid: np.ndarray) -> np.ndarray:
    """Direct trapezoid quadrature of |int G(x) exp(-iux) dx|^2 per line.

    Every grid scale comes from the squeezing s.  The envelope drops
    below 1e-12 by |x| = 7.5 s, fixing the truncation window X;
    amplitudes at |u| > 12/s are below the exp(-72) floor and are
    skipped.  The first step is X/256 (about s/34, 513 points): for a
    Gaussian of width s the trapezoid error falls like
    exp(-s^2 (2 pi/dx - |u|)^2 / 2), far below the 1e-8 agreement test
    already at that step, so the halving loop normally stops after one
    refinement.
    """
    s = mode.s
    X = 7.5 * s
    window = 12.0 / s
    dx = X / 256
    prev = None
    for _ in range(8):
        n = int(np.ceil(2 * X / dx))
        x = np.linspace(-X, X, n + 1)
        env = _envelope(mode, x)
        weights = np.full(n + 1, dx)
        weights[0] = weights[-1] = dx / 2
        density = np.zeros_like(p_grid)
        wenv = weights * env
        for pop, u in _line_offsets(spec, probe, p_grid):
            active = np.abs(u) <= window
            if not np.any(active):
                continue
            ua = u[active]
            amp = np.zeros(ua.size, dtype=complex)
            # chunk the quadrature so the phase matrix stays bounded in
            # memory when a dense p grid meets a late refinement level
            # (up to 2^16 + 1 x points)
            chunk = max(1, (1 << 22) // max(1, ua.size))
            for lo in range(0, x.size, chunk):
                phases = np.exp(-1j * np.outer(ua, x[lo:lo + chunk]))
                amp += phases @ wenv[lo:lo + chunk]
            density[active] += pop * np.abs(amp) ** 2 / (2 * np.pi)
        if prev is not None and np.max(np.abs(density - prev)) < 1e-8:
            return density
        prev = density
        dx /= 2
    raise ConvergenceError("oracle quadrature grid refinement exhausted")


def _oracle_binned(spec: Spectrum, probe: ProbeConfig, mode: Bin,
                   p_grid: np.ndarray) -> np.ndarray:
    """FFT-accelerated trapezoid quadrature for the finite-bin envelope.

    The 1/x envelope never reaches the truncation floor, so the window
    is fixed at X = 1e5; this leaves O(1/(pi X d)) ringing at distance d
    from a plateau edge.  The n-point FFT samples the amplitude at
    u_k = pi k / X, k = -n/2 .. n/2 - 1, and the p grid's offsets are
    interpolated linearly between them.  n starts at the smallest power
    of two (at least 4096) whose range pi n / (2X) covers 1.2 times the
    largest |u| on the p grid; each refinement doubles n, which halves
    dx and widens the u range at the same u step.
    """
    X = 1e5
    offsets = _line_offsets(spec, probe, p_grid)
    u_max = max(float(np.abs(u).max()) for _, u in offsets) + 1.0
    n = 2 ** int(np.ceil(np.log2(max(4096.0, 2 * X * u_max * 1.2 / np.pi))))
    prev = None
    for _ in range(4):
        dx = 2 * X / n
        x = -X + dx * np.arange(n)
        env = _envelope(mode, x)
        amp_fft = np.fft.fftshift(dx * np.fft.fft(env))
        u_grid = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(n, d=dx))
        # shifting the grid origin back to x = -X multiplies by
        # exp(i u_k X) = (-1)^k; n/2 is even, so the signs alternate
        # from +1 at the first entry
        amp_fft[1::2] *= -1
        density = np.zeros_like(p_grid)
        for pop, u in offsets:
            re = np.interp(u, u_grid, amp_fft.real)
            im = np.interp(u, u_grid, amp_fft.imag)
            density += pop * (re * re + im * im) / (2 * np.pi)
        if prev is not None and np.max(np.abs(density - prev)) < 1e-6:
            return density
        prev = density
        n *= 2
    raise ConvergenceError("oracle quadrature grid refinement exhausted")


def distribution_numeric_oracle(state: SystemState, H: HermitianOperator,
                                probe: ProbeConfig, p_grid) -> np.ndarray:
    """Momentum density <p|rho_q(tau)|p> by direct quadrature.

    Numerically Fourier-transforms the initial envelope G(x) on a
    trapezoid grid and assembles the density line by line from the
    system's exact eigendecomposition; no closed-form distribution
    formula is used.  The grid is refined until successive evaluations
    agree.  Ideal mode is handled with a strongly squeezed surrogate
    (delta states have no quadrature representation).
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.size == 0 or not np.all(np.isfinite(p_grid)):
        raise ValueError("p_grid must be finite and nonempty")
    spec = spectrum_of(state, H)

    mode = probe.mode
    if isinstance(mode, Ideal):
        mode = Squeezed(IDEAL_SURROGATE_SQUEEZING)
    if isinstance(mode, Squeezed):
        return _oracle_squeezed(spec, probe, mode, p_grid)
    return _oracle_binned(spec, probe, mode, p_grid)


def apply_detector_binning(dist: MomentumDistribution, bin_width: float,
                           origin: float = 0.0) -> PiecewiseUniform:
    """Integrate a distribution over detector bins of the given width.

    Bins are half-open [origin + k*w, origin + (k+1)*w); the returned
    segments are the bins that receive mass.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    w = bin_width

    if isinstance(dist, PointMasses):
        lo = min(p for p, _ in dist.points)
        hi = max(p for p, _ in dist.points)
    elif isinstance(dist, PiecewiseUniform):
        lo = min(c - width / 2 for c, width, _ in dist.segments)
        hi = max(c + width / 2 for c, width, _ in dist.segments)
    else:
        lo = min(mu - 10 * sd for mu, sd, _ in dist.components)
        hi = max(mu + 10 * sd for mu, sd, _ in dist.components)

    k_lo = int(np.floor((lo - origin) / w)) - 1
    k_hi = int(np.floor((hi - origin) / w)) + 1
    edges = origin + w * np.arange(k_lo, k_hi + 2)
    masses = np.zeros(len(edges) - 1)

    if isinstance(dist, PointMasses):
        for p, m in dist.points:
            masses[int(np.floor((p - origin) / w)) - k_lo] += m
    elif isinstance(dist, PiecewiseUniform):
        for c, width, m in dist.segments:
            a, b = c - width / 2, c + width / 2
            overlap = np.clip(np.minimum(edges[1:], b) - np.maximum(edges[:-1], a), 0, None)
            masses += m * overlap / width
    else:
        from scipy.special import ndtr  # lazy: scipy.special is most of a CLI call's start-up
        for mu, sd, weight in dist.components:
            cdf = ndtr((edges - mu) / sd)
            masses += weight * np.diff(cdf)

    total = masses.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"binned mass {total} lost more than 1e-9")
    keep = masses > 0
    centers = 0.5 * (edges[:-1] + edges[1:])
    segments = tuple((float(c), w, float(m / total))
                     for c, m in zip(centers[keep], masses[keep]))
    return PiecewiseUniform(segments)
