"""Momentum-quadrature measurement distributions for qumode probes.

The interaction imprints each spectral line (E, P) onto the qumode as a
feature of weight P at p = p0 - g*E*tau, spread by the probe's initial
momentum profile.  The probe mode is that profile, the kernel of one
``LineMixture``: ``Ideal`` (an exact momentum eigenstate) is a delta,
``Bin(L)`` (a finite momentum bin) a uniform window of width L, and
``Squeezed(s)`` (a finitely squeezed Gaussian) a normal of std
1/(sqrt(2)*s).  Each mode carries its kernel's std, support half-width,
inverse CDF and density; the inverse CDF writes into a given array and
takes its scratch arrays from a ``Workspace``.  Finite detector bins are
a property of the draw, not of the mixture: ``sampling.sample_measurements``
reads each draw into the bin [k*w, (k+1)*w) that holds it, at a uniform
place within that bin.

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


class Workspace:
    """Named scratch arrays, each allocated at the first size asked for it and
    reused while no larger size is asked, so a loop over chunks of one size
    allocates its working arrays once."""

    def __init__(self):
        self._arrays = {}

    def __call__(self, name: str, n: int, dtype=float) -> np.ndarray:
        """The first ``n`` entries of the array ``name``, of ``dtype``."""
        a = self._arrays.get(name)
        if a is None or len(a) < n:
            a = self._arrays[name] = np.empty(n, dtype)
        return a[:n]


def _rational(x: np.ndarray, P: tuple, Q: tuple, p=None, q=None) -> np.ndarray:
    """x * P(x) / Q(x) in Cephes's order: Horner from the leading coefficient,
    Q monic with its leading 1 not stored, and the product before the quotient.
    ``p`` and ``q``, arrays of x's length that overlap no input, hold the two
    polynomials; the result is left in ``p``."""
    p = np.empty_like(x) if p is None else p
    q = np.empty_like(x) if q is None else q
    p.fill(P[0])
    np.add(x, Q[0], out=q)
    for c in P[1:]:
        p *= x
        p += c
    for c in Q[1:]:
        q *= x
        q += c
    p *= x
    p /= q
    return p


def _log(y: np.ndarray, out=None) -> np.ndarray:
    """libm's log of ``y``, bit for bit, in y's order: a reversed view of ``out``
    when it is given.  numpy's SIMD log, which it takes when input and output
    run the same way in memory, differs from libm in the last bits on some
    inputs.  Reading y reversed into a forward ``out`` makes numpy call libm's
    log element by element, so y must not itself be a reversed view."""
    return np.log(y[::-1], out=out)[::-1]


def _ndtri(u, out=None, work=None) -> np.ndarray:
    """Inverse standard normal CDF, bit for bit Cephes's ndtri: -inf at 0, inf
    at 1, nan outside [0, 1].  A 1-D ``u`` may take ``out`` for the result and
    a ``Workspace`` for the scratch arrays; the central rational and both tails
    then allocate no array of u's length."""
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    n = flat.size
    work = Workspace() if work is None else work
    x = np.empty(n) if out is None else out
    upper = np.greater(flat, 1.0 - _EXP_M2, out=work("upper", n, bool))
    # the upper tail folded onto the lower, as Cephes does
    y = work("y", n)
    np.copyto(y, flat)
    np.subtract(1.0, flat, out=y, where=upper)
    tail = np.greater(y, _EXP_M2, out=work("tail", n, bool))
    np.logical_not(tail, out=tail)
    m = np.count_nonzero(tail)
    yt = np.compress(tail, y, out=work("tail_y", n)[:m])
    flip = np.compress(tail, upper, out=work("tail_upper", n, bool)[:m])
    # the central rational everywhere (Q0 has no zero for (y - 1/2)^2 <= 1/4),
    # then the tails over it
    c = np.subtract(y, 0.5, out=work("c", n))
    q = work("q", n)
    _rational(np.multiply(c, c, out=y), _P0, _Q0, p=x, q=q)
    x *= c
    x += c
    x *= _SQRT_2PI
    if m:
        zeros = None if yt.all() else np.flatnonzero(yt == 0)  # u at 0 or 1
        # r = sqrt(-2 log y) and t = r - log(r)/r - x1; y = 0 and y < 0 or nan
        # (u outside [0, 1]) run through as inf and nan, then y = 0 gives inf
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.multiply(_log(yt, y[:m]), -2.0, out=c[:m])
            np.sqrt(r, out=r)
            z = np.divide(1.0, r, out=y[:m])
            x1 = _rational(z, _P1, _Q1, p=yt, q=q[:m])
            if r.max() >= 8.0:  # far tails, y < exp(-32)
                far = r >= 8.0
                x1[far] = _rational(z[far], _P2, _Q2)
            log_r = _log(r, y[:m])
            log_r /= r
            t = np.subtract(r, log_r, out=r)
            t -= x1
        if zeros is not None:
            t[zeros] = np.inf
        np.logical_not(flip, out=flip)
        np.negative(t, out=t, where=flip)
        np.place(x, tail, t)
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
    def inverse_cdf(u, out, work) -> np.ndarray:
        out.fill(0.0)
        return out

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

    def inverse_cdf(self, u, out, work) -> np.ndarray:
        np.subtract(u, 0.5, out=out)
        out *= self.L
        return out

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

    def inverse_cdf(self, u, out, work) -> np.ndarray:
        _ndtri(u, out, work)
        out *= self.std
        return out

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

    @cached_property
    def line_guide(self) -> tuple[np.ndarray, np.ndarray]:
        """(guide, edges), read-only, built on first read, for the indexed search
        of Chen and Asau (1974; Devroye, Non-Uniform Random Variate Generation,
        1986, III.2.4).  ``edges`` is ``cumulative_weights`` with its last entry
        raised to inf, so no search passes the last line.  ``guide`` has K
        entries, K the least power of two >= the number of lines, so u*K is
        exact; guide[k] is the first line whose edge reaches k/K, where the
        search for any u in [k/K, (k+1)/K) starts."""
        edges = self.cumulative_weights.copy()
        edges[-1] = np.inf
        K = 1 << (len(edges) - 1).bit_length()
        guide = np.searchsorted(edges, np.arange(K) / K, side="left")
        edges.flags.writeable = guide.flags.writeable = False
        return guide, edges

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


def bin_index(x, width: float, origin: float, what: str, out=None) -> np.ndarray:
    """floor((x - origin) / width) as floats, in ``out`` when given: the index k of
    the bin [origin + k*width, origin + (k+1)*width) that holds each x.  Past 2**53
    a float64 index no longer names one bin, so ``what``, the x, may not lie that
    far from the origin."""
    idx = np.subtract(x, origin, out=out)
    idx /= width
    np.floor(idx, out=idx)
    if not (idx.max() < 2 ** 53 and idx.min() > -2 ** 53):
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
