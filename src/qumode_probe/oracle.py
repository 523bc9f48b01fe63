"""Momentum densities by direct quadrature: the verification oracle.

``distribution_numeric_oracle`` Fourier-transforms a probe's initial
envelope numerically and assembles the momentum density line by line from
the system's exact eigendecomposition, with no use of the closed-form
distributions in ``probe``.  The tests and the benchmark are its only
readers; no command of the package imports this module.
"""

from __future__ import annotations

import numpy as np

from .operators import ConvergenceError, HermitianOperator, Spectrum, SystemState, spectrum_of
from .probe import Bin, Ideal, ProbeConfig, ProbeMode, Squeezed

# points or coefficients the bin oracle's envelope and transforms work on at a time
TRANSFORM_BLOCK = 2 ** 13
# bands of the frequency range whose FFTs the bin oracle runs one after another
FFT_BANDS = 4

# delta initial states are not representable in quadrature; the oracle
# substitutes a strongly squeezed Gaussian instead
IDEAL_SURROGATE_SQUEEZING = 1e4


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
