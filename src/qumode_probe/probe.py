"""Momentum-quadrature measurement distributions for qumode probes.

The interaction imprints each spectral line (E, P) onto the qumode as a
feature of weight P at p = p0 - g*E*tau, spread by the probe's initial
momentum profile.  The probe mode is that profile, the kernel of one
``LineMixture``: ``Ideal`` (an exact momentum eigenstate) is a delta,
``Bin(L)`` (a finite momentum bin) a uniform window of width L, and
``Squeezed(s)`` (a finitely squeezed Gaussian) a normal of std
1/(sqrt(2)*s).  Each mode carries its kernel's std, support half-width,
CDF, inverse CDF and density.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Union

import numpy as np

from .operators import ConvergenceError, HermitianOperator, Spectrum, SystemState, spectrum_of

# bins one cluster's smoothing window or detector binning may span, occupied or not,
# and binning may visit
MAX_BINS = 2 ** 24
# bins of one line that detector binning builds edges and kernel CDFs for at a time
BINNING_BLOCK = 2 ** 16
# points or coefficients the bin oracle's envelope and transforms work on at a time
TRANSFORM_BLOCK = 2 ** 13
# bands of the frequency range whose FFTs the bin oracle runs one after another
FFT_BANDS = 4

# delta initial states are not representable in quadrature; the oracle
# substitutes a strongly squeezed Gaussian instead
IDEAL_SURROGATE_SQUEEZING = 1e4


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
    def cdf(x) -> np.ndarray:
        """P(offset < x): a line on a detector bin edge lands in the bin above."""
        return (np.asarray(x) > 0).astype(float)

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

    def cdf(self, x) -> np.ndarray:
        return np.clip(np.asarray(x) / self.L + 0.5, 0.0, 1.0)

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

    def cdf(self, x) -> np.ndarray:
        from scipy.special import ndtr  # lazy: scipy.special is most of a CLI call's start-up
        return ndtr(np.asarray(x) / self.std)

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


def dephasing_function(spec: Spectrum, g: float, dx: float, t: float) -> complex:
    """System-traced coherence factor sum_n P_n exp(-i g dx E_n t)."""
    phases = np.exp(-1j * g * dx * t * spec.energies)
    return complex(np.sum(spec.populations * phases))


def distribution_for(spec: Spectrum, probe: ProbeConfig) -> LineMixture:
    """Closed-form measurement distribution: mass P_n at p0 - g E_n tau per line,
    in spectrum order, spread by the probe mode's kernel."""
    return LineMixture(probe.p0 - probe.g_tau * spec.energies, spec.populations, probe.mode)


def map_p_to_E(p, probe: ProbeConfig):
    """Invert the line position map: E = (p0 - p)/(g tau)."""
    return (probe.p0 - np.asarray(p, dtype=float)) / probe.g_tau


def _envelope(mode: ProbeMode, x: np.ndarray) -> np.ndarray:
    """Initial wavefunction G(x) with its exp(i p0 x) carrier removed.  A ``Bin``
    envelope is written over the float array x, which is returned."""
    if isinstance(mode, Squeezed):
        s = mode.s
        return (1.0 / (np.pi * s * s)) ** 0.25 * np.exp(-x * x / (2 * s * s))
    L = mode.L
    # integral of exp(ikx) over the momentum window, done analytically:
    # 2 sin(L x / 2) / x, and L at x = 0, a block at a time
    for lo in range(0, x.size, TRANSFORM_BLOCK):
        xb = x[lo:lo + TRANSFORM_BLOCK]
        zero = xb == 0
        w = L * xb
        w /= 2
        np.sin(w, out=w)
        w *= 2
        xb[zero] = 1.0
        np.divide(w, xb, out=xb)
        xb[zero] = L
        xb /= np.sqrt(2 * np.pi * L)
    return x


def _line_offsets(spec: Spectrum, probe: ProbeConfig, p_grid: np.ndarray) -> np.ndarray:
    """u = p - p0 + g*tau*E, one row per spectral line."""
    return (p_grid - probe.p0) + probe.g_tau * spec.energies[:, None]


def _oracle_squeezed(spec: Spectrum, probe: ProbeConfig, mode: Squeezed,
                     p_grid: np.ndarray) -> np.ndarray:
    """Nested trapezoid quadrature of |int G(x) exp(-iux) dx|^2 per line.

    Every grid scale comes from the squeezing s.  The envelope drops
    below 1e-12 by |x| = 7.5 s, fixing the truncation window X;
    amplitudes at |u| > 12/s are below the exp(-72) floor and are
    skipped.  G is real and even on a grid symmetric about x = 0, so the
    amplitude is the real cosine sum over the half-grid x >= 0 with the
    interior points counted twice.  The first level has step X/256 (257
    points on [0, X]); each halving keeps the sum of the level before and
    adds only the odd multiples of the new step (256, 512, ... points):
    T(dx/2) = T(dx)/2 + (dx/2) * sum over the new points.  For a Gaussian
    of width s the trapezoid error falls like
    exp(-s^2 (2 pi/dx - |u|)^2 / 2), far below the 1e-8 agreement test
    already at the first step, so the halving loop normally stops after
    one refinement.
    """
    s = mode.s
    X = 7.5 * s
    window = 12.0 / s
    u = _line_offsets(spec, probe, p_grid)
    line, col = np.nonzero(np.abs(u) <= window)
    u = u[line, col]  # every line's active offsets in one array
    # the cosine matrix, formed in place, holds at most 2^19 entries (4 MiB)
    # when a dense p grid meets a late refinement level (up to 2^14 new x points)
    chunk = max(1, (1 << 19) // max(1, u.size))

    def cosine_sum(x: np.ndarray, c: np.ndarray) -> np.ndarray:
        total = np.zeros(u.size)
        for lo in range(0, x.size, chunk):
            m = np.outer(u, x[lo:lo + chunk])
            total += np.cos(m, out=m) @ c[lo:lo + chunk]
        return total

    n = 256  # intervals on [0, X]
    dx = X / n
    prev = None
    for level in range(8):
        if level == 0:
            x = dx * np.arange(n + 1)
            c = 2 * dx * _envelope(mode, x)
            c[[0, -1]] /= 2  # x = 0 has no mirror image; x = X is an end point
            amp = cosine_sum(x, c)
        else:
            dx /= 2
            x = dx * (2 * np.arange(n) + 1)
            amp = amp / 2 + cosine_sum(x, 2 * dx * _envelope(mode, x))
            n *= 2
        density = np.bincount(col, weights=spec.populations[line] * amp * amp,
                              minlength=p_grid.size) / (2 * np.pi)
        if prev is not None and np.max(np.abs(density - prev)) < 1e-8:
            return density
        prev = density
    raise ConvergenceError("oracle quadrature grid refinement exhausted")


def _fft_in_bands(z: np.ndarray) -> np.ndarray:
    """The FFT Z of z, in z's buffer, band by band, returned as the B x L view
    of that buffer whose [r, q] entry is Z[B q + r] (B = gcd(FFT_BANDS, N),
    L = N/B).  One decimation-in-frequency step writes
    w_r[n] = exp(-2 pi i n r / N) sum_m z[n + L m] exp(-2 pi i m r / B) over
    z[r L + n], a block of n at a time, and the L-point FFT of w_r is
    Z[B q + r], q < L; so numpy's FFT never works on more than L points."""
    N = z.size
    B = int(np.gcd(FFT_BANDS, N))
    L = N // B
    bands = z.reshape(B, L)
    r = np.arange(B)
    dft = np.exp(-2j * np.pi / B * np.outer(r, r))
    step = max(1, TRANSFORM_BLOCK // B)
    for lo in range(0, L, step):
        hi = min(lo + step, L)
        w = dft @ bands[:, lo:hi]
        w *= np.exp(-1j * (2 * np.pi / N * np.outer(r, np.arange(lo, hi))))
        bands[:, lo:hi] = w
    for band in bands:
        np.fft.fft(band, out=band)
    return bands


def _real_fft(bands: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Y[k], 0 <= k <= N, of the real FFT of 2N reals, given the N-point complex
    FFT Z of those reals taken in pairs as complex numbers, as ``_fft_in_bands``
    returns it (Numerical Recipes, section 12.3):
    Y[k] = (Z[k] + conj Z[N-k])/2 - i exp(-i pi k/N) (Z[k] - conj Z[N-k])/2, Z[N] = Z[0]."""
    B, N = len(bands), bands.size

    def Z(k):  # Z[k], 0 <= k < N
        return bands[k % B, k // B]

    a, b = Z(k % N), Z(-k % N).conj()
    return (a + b) / 2 - 0.5j * np.exp(-1j * (np.pi / N * k)) * (a - b)


def _add_dct1(h: np.ndarray, out: np.ndarray):
    """Add the DCT-I C[k] = h[0] + (-1)^k h[M] + 2 sum_{j=1}^{M-1} h[j] cos(pi j k / M)
    of the M + 1 samples h (M even) into out, for k < out.size <= M + 1, working in
    h's buffer (Numerical Recipes' cosft1).  h[0 .. M-1] becomes, pair by pair,
    y[j] = (h[j] + h[M-j])/2 - sin(pi j / M) (h[j] - h[M-j]), and then the FFT
    of y taken as M/2 complex points.  With Y the real FFT of y,
    C[2k] = 2 Re Y[k], and the odd k follow from C[1] by the running sum
    C[k + 2] = C[k] - 2 Im Y[(k + 1)/2];
    C[1] = (h[0] - h[M]) + 2 sum_{j=1}^{M/2-1} (h[j] - h[M-j]) cos(pi j / M)."""
    M = h.size - 1
    c1 = h[0] - h[M]
    h[0] = (h[0] + h[M]) / 2  # y[M/2] = h[M/2]
    for lo in range(1, M // 2, TRANSFORM_BLOCK):
        hi = min(lo + TRANSFORM_BLOCK, M // 2)
        head, tail = h[lo:hi], h[M - lo:M - hi:-1]  # h[j] and h[M - j]
        angle = np.pi / M * np.arange(lo, hi)
        odd = head - tail
        c1 += 2 * (odd @ np.cos(angle))
        odd *= np.sin(angle)
        head += tail
        head /= 2
        np.add(head, odd, out=tail)
        head -= odd
    Z = _fft_in_bands(h[:M].view(complex))
    K = out.size
    for lo in range(0, (K + 1) // 2, TRANSFORM_BLOCK):
        hi = min(lo + TRANSFORM_BLOCK, (K + 1) // 2)
        Y = _real_fft(Z, np.arange(lo, hi))
        out[2 * lo:2 * hi:2] += 2 * Y.real
        odd = c1 - 2 * np.cumsum(Y.imag)  # C[2k + 1], k = lo .. hi-1; Im Y[0] = 0
        c1 = odd[-1]
        out[2 * lo + 1:2 * hi:2] += odd[:(K - 2 * lo) // 2]


def _add_refinement(v: np.ndarray, out: np.ndarray):
    """Add 2 S[k] into out, k < out.size <= M, for the DCT-II
    S[k] = sum_j g[j] cos(pi (2j + 1) k / (2M)) of M samples g (M even), given as
    v in Makhoul's order, g's even entries and then its odd ones reversed; works in
    v's buffer.  C[k] + 2 S[k] is the DCT-I of the half-grid at half the step, whose
    odd points are g (Makhoul, IEEE TASSP 28(1), 1980): with V the real FFT of v,
    taken as M/2 complex points, S[k] = Re(w^k V[k]) and S[M - k] = -Im(w^k V[k]),
    w = exp(-i pi / (2M))."""
    M, K = v.size, out.size
    Z = _fft_in_bands(v.view(complex))
    for lo in range(0, min(K, M // 2 + 1), TRANSFORM_BLOCK):
        k = np.arange(lo, min(lo + TRANSFORM_BLOCK, K, M // 2 + 1))
        W = _real_fft(Z, k) * np.exp(-0.5j * (np.pi / M * k))
        out[k] += 2 * W.real
        mirror = (k > M - K) & (k < M // 2)
        out[M - k[mirror]] -= 2 * W.imag[mirror]


def _half_grid(M: int, dx: float) -> np.ndarray:
    """The points j dx, j = 0 .. M, scaled in place."""
    x = np.arange(M + 1, dtype=float)
    x *= dx
    return x


def _makhoul_points(M: int, dx: float) -> np.ndarray:
    """The new points (2j + 1) dx, j < M (M even), in Makhoul's order: even j
    ascending, then odd j descending."""
    x = np.arange(M, dtype=float)
    x[:M // 2] *= 4
    x[:M // 2] += 1
    x[M // 2:] *= -4
    x[M // 2:] += 4 * M - 1
    x *= dx
    return x


def _oracle_binned(spec: Spectrum, probe: ProbeConfig, mode: Bin,
                   p_grid: np.ndarray) -> np.ndarray:
    """FFT-accelerated trapezoid quadrature for the finite-bin envelope.

    The 1/x envelope never reaches the truncation floor, so the window
    is fixed at X = 1e5; this leaves O(1/(pi X d)) ringing at distance d
    from a plateau edge.  The envelope G is real and even, so the
    trapezoid amplitude on the n-point grid of step dx = 2X/n over
    [-X, X) is dx times the DCT-I C of the half-grid h[j] = G(j dx),
    j = 0 .. M = n/2, at u_k = pi k / X; it is interpolated linearly at
    |u| for the p grid's offsets u.  n starts at the smallest power of two
    (at least 4096) whose range pi n / (2X) covers 1.2 times the largest
    |u| on the p grid, so every level interpolates on the same u grid of
    K = ceil(max |u| X / pi) + 2 points, and only C[k < K] is formed.  The
    first level computes C from one FFT of the half-grid taken as M/2
    complex points.  Each refinement halves dx: the old half-grid fills the
    even points of the new one, and the envelope is evaluated only at the M
    new odd points, whose DCT-II S refines the old values,
    C'[k] = C[k] + 2 S[k], again from one FFT of M/2 complex points.  So a
    level holds one buffer, into which the envelope, the transform's input
    and its FFT are written in turn.  The FFT runs band by band
    (``_fft_in_bands``), and everything else over blocks of TRANSFORM_BLOCK
    points.  A bin job at first n = 2^19 (oracle-verify's) grows its
    process's peak RSS by about 6 MiB: the 2 MiB buffer, the 1.2 MiB of
    K sums, and blocks and bands.
    """
    X = 1e5
    u = np.abs(_line_offsets(spec, probe, p_grid))
    u_max = float(u.max()) + 1.0
    n = 2 ** int(np.ceil(np.log2(max(4096.0, 2 * X * u_max * 1.2 / np.pi))))
    M = n // 2
    dx = X / M
    cosine_sum = np.zeros(int(np.ceil(u.max() * X / np.pi)) + 2)

    def density(amp: np.ndarray) -> np.ndarray:
        # the u grid lives only here, so no level's transform holds it
        u_grid = np.pi / X * np.arange(amp.size)
        total = np.zeros_like(p_grid)
        for pop, u_line in zip(spec.populations, u):
            a = np.interp(u_line, u_grid, amp)
            total += pop * a * a / (2 * np.pi)
        return total

    prev = None
    for level in range(4):
        if level == 0:
            _add_dct1(_envelope(mode, _half_grid(M, dx)), cosine_sum)
        else:
            dx /= 2
            _add_refinement(_envelope(mode, _makhoul_points(M, dx)), cosine_sum)
            M *= 2
        current = density(dx * cosine_sum)
        if prev is not None and np.max(np.abs(current - prev)) < 1e-6:
            return current
        prev = current
    raise ConvergenceError("oracle quadrature grid refinement exhausted")


def distribution_numeric_oracle(state: SystemState, H: HermitianOperator,
                                probe: ProbeConfig, p_grid) -> np.ndarray:
    """Momentum density <p|rho_q(tau)|p> by direct quadrature.

    Numerically Fourier-transforms the initial envelope G(x) on a
    trapezoid grid and assembles the density line by line from the
    system's exact eigendecomposition; no closed-form distribution
    formula is used.  G is real and even, so the envelope is evaluated
    only on the half-grid x >= 0.  The grid is refined by halving its
    step until successive evaluations agree; each refinement level's
    grid holds every point of the level before, so a level evaluates the
    envelope only at its new points, in one call.  Ideal mode is handled
    with a strongly squeezed surrogate (delta states have no quadrature
    representation).  ``p_grid`` is a scalar, taken as one point, or a 1-D
    array.

    The bin path's memory and time grow with max|u| X, where u = p - p0 +
    g tau E runs over the grid and the lines, and X = 1e5 is that path's
    window: its first half-grid holds M + 1 points, M the smallest power of
    two (at least 2048) not below 1.2 X (max|u| + 1)/pi, and each refinement
    doubles it.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.ndim > 1:
        raise ValueError(f"p_grid must be a scalar or 1-D, got shape {p_grid.shape}")
    p_grid = p_grid.reshape(-1)  # a scalar is one point
    if p_grid.size == 0 or not np.all(np.isfinite(p_grid)):
        raise ValueError("p_grid must be finite and nonempty")
    spec = spectrum_of(state, H)

    mode = probe.mode
    if isinstance(mode, Ideal):
        mode = Squeezed(IDEAL_SURROGATE_SQUEEZING)
    if isinstance(mode, Squeezed):
        return _oracle_squeezed(spec, probe, mode, p_grid)
    return _oracle_binned(spec, probe, mode, p_grid)


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
    """Integrate a distribution over detector bins of the given width.

    Bins are half-open [k*w, (k+1)*w).  A line's mass in a bin is the
    difference of its kernel's CDF at the bin's edges, taken over the bins
    the line reaches only, BINNING_BLOCK bins at a time, so no per-line
    array outgrows a block.  The result holds one line per
    bin that receives mass, at the bin centre with a uniform kernel of
    width w.  A span over MAX_BINS bins, or lines that reach more than
    MAX_BINS bins in all, are rejected before any array of that length is
    allocated: near 2**24 bins in all, binning takes 0.1 to 0.5 s over 64
    to 1024 lines and about 0.6 s on one line (2-core Xeon).
    """
    if not bin_width > 0:
        raise ValueError("bin width must be positive")
    w = bin_width
    reach = dist.mode.half_width
    # each line's first and last bin, with one bin of margin against rounding
    first = bin_index(dist.points - reach, w, 0.0, "line supports") - 1
    last = bin_index(dist.points + reach, w, 0.0, "line supports") + 1
    k_lo = first.min()
    span = last.max() - k_lo + 1
    work = (last - first + 1).sum()
    if not max(span, work) <= MAX_BINS:
        raise ValueError(f"binning at width {w!r} spans {span:.6g} bins and visits {work:.6g} "
                         f"over its {len(first)} lines, over the cap of {MAX_BINS}")
    first, last = (first - k_lo).astype(int), (last - k_lo).astype(int)
    masses = np.zeros(int(span))
    # an edge beyond the float64 range is +-inf, where every kernel's CDF is 0 or 1
    with np.errstate(over="ignore"):
        for p, m, a, b in zip(dist.points, dist.weights, first, last):
            # blocks of bins [lo, hi) share their edge at hi; every step is elementwise
            for lo in range(a, b + 1, BINNING_BLOCK):
                hi = min(lo + BINNING_BLOCK, b + 1)
                edges = w * (k_lo + np.arange(lo, hi + 1))
                masses[lo:hi] += m * np.diff(dist.mode.cdf(edges - p))

    total = masses.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"binned mass {total} lost more than 1e-9")
    keep = np.flatnonzero(masses > 0)
    return LineMixture(w * (k_lo + keep + 0.5), masses[keep] / total, Bin(w))
