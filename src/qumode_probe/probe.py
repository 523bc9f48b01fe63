"""Momentum-quadrature measurement distributions for qumode probes.

The interaction imprints each spectral line (E, P) onto the qumode as a
feature of weight P at p = p0 - g*E*tau, spread by the probe's initial
momentum profile.  The probe mode is that profile, the kernel of one
``LineMixture``: ``Ideal`` (an exact momentum eigenstate) is a delta,
``Bin(L)`` (a finite momentum bin) a uniform window of width L, and
``Squeezed(s)`` (a finitely squeezed Gaussian) a normal of std
1/(sqrt(2)*s).  Each mode carries its kernel's std, support half-width,
inverse CDF and density.  Finite detector bins are a property of the
draw, not of the mixture: ``sampling.sample_measurements`` reads each draw
into the bin [k*w, (k+1)*w) that holds it, at a uniform place within that
bin.

The quadrature oracle that checks these closed forms lives in ``oracle``,
which no command imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Union

import numpy as np

from .operators import Spectrum

# Cephes ndtri, the inverse normal CDF (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), ported with its coefficients, branch points and
# order of operations, so it returns the C original's float64 bits.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
# centre, exp(-2) < y <= 1 - exp(-2): y - 1/2 times a rational in (y - 1/2)^2
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tails, x = sqrt(-2 log y) in (2, 8) for the tail mass y: rational in 1/x
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# far tails, x >= 8 (y < exp(-32))
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _rational(x: np.ndarray, P: tuple, Q: tuple) -> np.ndarray:
    """x * P(x) / Q(x) in Cephes's order: Horner from the leading coefficient,
    Q monic with its leading 1 not stored, and the product before the quotient."""
    p = np.full_like(x, P[0])
    q = x + Q[0]
    for c in P[1:]:
        p *= x
        p += c
    for c in Q[1:]:
        q *= x
        q += c
    return x * p / q


def _log(y: np.ndarray) -> np.ndarray:
    """libm's log, bit for bit.  numpy's SIMD log, which it takes on contiguous
    input, differs from libm in the last bits on some inputs; on a reversed
    view numpy calls libm's log element by element."""
    return np.log(y[::-1])[::-1]


def _ndtri(u) -> np.ndarray:
    """Inverse standard normal CDF, bit for bit Cephes's ndtri: -inf at 0, inf
    at 1, nan outside [0, 1]."""
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    upper = flat > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - flat, flat)  # the upper tail folded onto the lower, as Cephes does
    # the central rational everywhere (Q0 has no zero for (y - 1/2)^2 <= 1/4),
    # then the tails over it
    c = y - 0.5
    x = (c + c * _rational(c * c, _P0, _Q0)) * _SQRT_2PI
    tail = np.flatnonzero(~(y > _EXP_M2))
    y = y[tail]
    t = np.where(y == 0, np.inf, np.nan)
    inside = y > 0
    r = np.sqrt(-2.0 * _log(y[inside]))
    z = 1.0 / r
    x1 = _rational(z, _P1, _Q1)
    far = r >= 8.0
    x1[far] = _rational(z[far], _P2, _Q2)
    t[inside] = r - _log(r) / r - x1
    x[tail] = np.where(upper[tail], t, -t)
    return x.reshape(u.shape)


def _check_positive(name: str, value: float):
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class Ideal:
    """Delta kernel: every line is a point mass at its position."""

    kind: ClassVar[str] = "ideal"
    std: ClassVar[float] = 0.0
    half_width: ClassVar[float] = 0.0

    @staticmethod
    def inverse_cdf(u) -> np.ndarray:
        return np.zeros_like(u)

    @staticmethod
    def density(x):
        raise ValueError("a delta kernel has no density")


@dataclass(frozen=True)
class Bin:
    """Uniform kernel of width L."""

    L: float
    kind: ClassVar[str] = "bin"

    def __post_init__(self):
        _check_positive("bin size L", self.L)

    @property
    def std(self) -> float:
        return self.L / np.sqrt(12.0)

    @property
    def half_width(self) -> float:
        return self.L / 2

    def inverse_cdf(self, u) -> np.ndarray:
        return self.L * (u - 0.5)

    def density(self, x) -> np.ndarray:
        return np.where(np.abs(x) <= self.L / 2, 1.0 / self.L, 0.0)


@dataclass(frozen=True)
class Squeezed:
    """Gaussian kernel of std 1/(sqrt(2) s)."""

    s: float
    kind: ClassVar[str] = "squeezed"

    def __post_init__(self):
        _check_positive("squeezing factor s", self.s)

    @property
    def std(self) -> float:
        return 1.0 / (np.sqrt(2.0) * self.s)

    @property
    def half_width(self) -> float:
        return 10 * self.std  # the mass beyond 10 std is below 1e-23

    def inverse_cdf(self, u) -> np.ndarray:
        return self.std * _ndtri(u)

    def density(self, x) -> np.ndarray:
        sd = self.std
        return np.exp(-0.5 * (np.asarray(x) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))


ProbeMode = Union[Ideal, Bin, Squeezed]
MODES = {mode.kind: mode for mode in (Ideal, Bin, Squeezed)}


@dataclass(frozen=True)
class ProbeConfig:
    p0: float
    g: float
    tau: float
    mode: ProbeMode

    def __post_init__(self):
        if not np.isfinite(self.p0):
            raise ValueError(f"probe p0 must be finite, got {self.p0!r}")
        _check_positive("coupling g", self.g)
        _check_positive("interaction time tau", self.tau)
        _check_positive(f"probe g*tau = {self.g!r}*{self.tau!r}", self.g_tau)

    @property
    def g_tau(self) -> float:
        return self.g * self.tau

    def momentum_std(self) -> float:
        """Per-line spread of the measured momentum: the std of the mode's kernel."""
        return self.mode.std


@dataclass(frozen=True, eq=False)
class LineMixture:
    """Mass ``weights[n]`` at ``points[n]``, each line spread by ``mode``'s kernel.

    The arrays are read-only copies; lines keep the order they were given
    in and may share a position.
    """

    points: np.ndarray
    weights: np.ndarray
    mode: ProbeMode

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if points.ndim != 1 or not points.size or points.shape != weights.shape:
            raise ValueError("points and weights must be non-empty 1-D arrays of one length")
        # draws stay within half_width of their line, so none overflows
        if not np.isfinite(np.abs(points).max() + self.mode.half_width):
            raise ValueError(f"line positions widened by the kernel's half-width "
                             f"{float(self.mode.half_width)!r} must be finite")
        if not (weights >= 0).all():
            raise ValueError("line weights must be nonnegative")
        total = weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"total mass {total} differs from 1 beyond 1e-9")
        points.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @cached_property
    def cumulative_weights(self) -> np.ndarray:
        """Running sum of ``weights``, read-only, built on first read: a draw's
        line is the first whose cumulative weight reaches its uniform."""
        cumulative = np.cumsum(self.weights)
        cumulative.flags.writeable = False
        return cumulative

    def density(self, p) -> np.ndarray:
        """Probability density at ``p``; a delta kernel has none."""
        p = np.asarray(p, dtype=float)
        return sum(m * self.mode.density(p - x) for x, m in zip(self.points, self.weights))


def distribution_for(spec: Spectrum, probe: ProbeConfig) -> LineMixture:
    """Closed-form measurement distribution: mass P_n at p0 - g E_n tau per line,
    in spectrum order, spread by the probe mode's kernel."""
    return LineMixture(probe.p0 - probe.g_tau * spec.energies, spec.populations, probe.mode)


def map_p_to_E(p, probe: ProbeConfig):
    """Invert the line position map: E = (p0 - p)/(g tau)."""
    return (probe.p0 - np.asarray(p, dtype=float)) / probe.g_tau


def bin_index(x, width: float, origin: float, what: str) -> np.ndarray:
    """floor((x - origin) / width) as floats: the index k of the bin [origin + k*width,
    origin + (k+1)*width) that holds each x.  Past 2**53 a float64 index no longer
    names one bin, so ``what``, the x, may not lie that far from the origin."""
    idx = np.floor((x - origin) / width)
    if not np.abs(idx).max() < 2 ** 53:
        raise ValueError(f"{what} lie over 2**53 bins of width {float(width)!r} "
                         f"from the bin origin {float(origin)!r}")
    return idx


def apply_detector_binning(dist: LineMixture, bin_width: float) -> LineMixture:
    """``dist`` itself, once its draws are checked to fit detector bins of width w.

    ``sample_measurements(..., detector_bin=w)`` reads each draw p into the bin
    [k*w, (k+1)*w) with k = floor(p/w), at a uniform place within it: the image
    of the continuous law under the quantizer (Devroye, Non-Uniform Random
    Variate Generation, 1986, ch. I), so no per-bin array is built.  A line on
    a bin edge lands in the bin above.  This checks, in O(lines), that w > 0
    and that no line's support reaches a bin 2**53 or more from 0.
    """
    if not bin_width > 0:
        raise ValueError("bin width must be positive")
    for support in (dist.points - dist.mode.half_width, dist.points + dist.mode.half_width):
        bin_index(support, bin_width, 0.0, "line supports")
    return dist


def __getattr__(name: str):
    """``distribution_numeric_oracle``, imported from ``oracle`` on first read
    (PEP 562): the in-process benchmark chain, ``perfbench/inproc.py``, still
    takes it from this module."""
    if name == "distribution_numeric_oracle":
        from .oracle import distribution_numeric_oracle
        return distribution_numeric_oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
